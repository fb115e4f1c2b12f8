//! The shared training database (§4.1): evaluated design points from all
//! applications, accumulated across explorers and DSE rounds.

use crate::persist::atomic_write;
use design_space::DesignPoint;
use hls_ir::{kernels, Kernel};
use merlin_sim::HlsResult;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Why a database could not be saved or loaded.
#[derive(Debug)]
pub enum DbError {
    /// Reading or writing `path` failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// The database could not be serialized.
    Serialize {
        /// The destination file.
        path: PathBuf,
        /// What went wrong.
        detail: String,
    },
    /// The file's contents are not a valid database.
    Parse {
        /// The file involved.
        path: PathBuf,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Io { path, source } => {
                write!(f, "database I/O error on {}: {source}", path.display())
            }
            DbError::Serialize { path, detail } => {
                write!(f, "cannot serialize database to {}: {detail}", path.display())
            }
            DbError::Parse { path, detail } => {
                write!(f, "{} is not a valid database: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Why a database cannot train a predictor (see [`Database::training_kernels`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UntrainableDb {
    /// The database holds no designs.
    Empty,
    /// An entry names a kernel outside [`kernels::all_kernels`].
    UnknownKernel(String),
    /// No design is valid, so the regressors have nothing to train on.
    NoValidDesign,
}

impl fmt::Display for UntrainableDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UntrainableDb::Empty => write!(f, "contains no designs"),
            UntrainableDb::UnknownKernel(k) => write!(f, "names unknown kernel `{k}`"),
            UntrainableDb::NoValidDesign => {
                write!(f, "contains no valid design to train the regressors on")
            }
        }
    }
}

impl std::error::Error for UntrainableDb {}

/// One evaluated design: kernel, configuration, and the tool's verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DbEntry {
    /// Kernel name.
    pub kernel: String,
    /// The design configuration.
    pub point: DesignPoint,
    /// Ground-truth evaluation.
    pub result: HlsResult,
}

/// Per-kernel database statistics (the Table 1 columns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelStats {
    /// Total entries.
    pub total: usize,
    /// Entries that synthesized successfully.
    pub valid: usize,
}

/// The design database: deduplicated evaluated configurations from many
/// kernels, in insertion order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Database {
    entries: Vec<DbEntry>,
    #[serde(skip)]
    index: HashMap<(String, DesignPoint), usize>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts an evaluated design. Returns `false` (and keeps the original)
    /// if this (kernel, point) pair is already present.
    pub fn insert(&mut self, kernel: &str, point: DesignPoint, result: HlsResult) -> bool {
        let key = (kernel.to_string(), point.clone());
        if self.index.contains_key(&key) {
            return false;
        }
        self.entries.push(DbEntry { kernel: kernel.to_string(), point, result });
        self.index.insert(key, self.entries.len() - 1);
        true
    }

    /// Whether this (kernel, point) pair was already evaluated.
    pub fn contains(&self, kernel: &str, point: &DesignPoint) -> bool {
        self.index.contains_key(&(kernel.to_string(), point.clone()))
    }

    /// Looks up a stored evaluation.
    pub fn get(&self, kernel: &str, point: &DesignPoint) -> Option<&DbEntry> {
        self.index
            .get(&(kernel.to_string(), point.clone()))
            .map(|&i| &self.entries[i])
    }

    /// All entries in insertion order.
    pub fn entries(&self) -> &[DbEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of valid entries.
    pub fn valid_count(&self) -> usize {
        self.entries.iter().filter(|e| e.result.is_valid()).count()
    }

    /// Entries of one kernel.
    pub fn of_kernel<'a>(&'a self, kernel: &str) -> impl Iterator<Item = &'a DbEntry> + 'a {
        let kernel = kernel.to_string();
        self.entries.iter().filter(move |e| e.kernel == kernel)
    }

    /// Total / valid counts per kernel, sorted by kernel name.
    pub fn stats(&self) -> Vec<(String, KernelStats)> {
        let mut map: HashMap<&str, KernelStats> = HashMap::new();
        for e in &self.entries {
            let s = map.entry(&e.kernel).or_default();
            s.total += 1;
            if e.result.is_valid() {
                s.valid += 1;
            }
        }
        let mut out: Vec<(String, KernelStats)> =
            map.into_iter().map(|(k, s)| (k.to_string(), s)).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The best valid design of a kernel that fits under the utilization
    /// threshold (minimum cycles) — the reference point of Fig. 7.
    pub fn best_design(&self, kernel: &str, util_threshold: f64) -> Option<&DbEntry> {
        self.of_kernel(kernel)
            .filter(|e| e.result.is_valid() && e.result.util.fits(util_threshold))
            .min_by_key(|e| e.result.cycles)
    }

    /// Range of latencies across all valid entries (the §5.1 dataset-range
    /// report).
    pub fn latency_range(&self) -> Option<(u64, u64)> {
        let mut it = self.entries.iter().filter(|e| e.result.is_valid()).map(|e| e.result.cycles);
        let first = it.next()?;
        let (mut lo, mut hi) = (first, first);
        for c in it {
            lo = lo.min(c);
            hi = hi.max(c);
        }
        Some((lo, hi))
    }

    /// Saves the database as JSON, atomically: the bytes are written to a
    /// temporary sibling, fsynced, and renamed into place, so a crash mid-
    /// save leaves any previous file intact rather than a truncated one.
    ///
    /// # Errors
    ///
    /// Returns a typed [`DbError`] naming the file and the failure.
    pub fn save(&self, path: &Path) -> Result<(), DbError> {
        let json = serde_json::to_string(&self).map_err(|e| DbError::Serialize {
            path: path.to_path_buf(),
            detail: e.to_string(),
        })?;
        atomic_write(path, &json)
            .map_err(|source| DbError::Io { path: path.to_path_buf(), source })
    }

    /// Loads a database saved by [`Database::save`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`DbError`]: [`DbError::Io`] if the file cannot be
    /// read, [`DbError::Parse`] if its contents are not a database.
    pub fn load(path: &Path) -> Result<Self, DbError> {
        let json = std::fs::read_to_string(path)
            .map_err(|source| DbError::Io { path: path.to_path_buf(), source })?;
        let mut db: Database = serde_json::from_str(&json).map_err(|e| DbError::Parse {
            path: path.to_path_buf(),
            detail: e.to_string(),
        })?;
        db.rebuild_index();
        Ok(db)
    }

    /// The kernels this database trains a predictor on, in
    /// [`kernels::all_kernels`] order, once it passes the check every
    /// training command runs on a loaded database: it holds a design, names
    /// only known kernels, and holds a valid design.
    ///
    /// # Errors
    ///
    /// The first [`UntrainableDb`] reason found, in that order.
    pub fn training_kernels(&self) -> Result<Vec<Kernel>, UntrainableDb> {
        if self.is_empty() {
            return Err(UntrainableDb::Empty);
        }
        let known = kernels::all_kernels();
        if let Some(e) = self.entries.iter().find(|e| known.iter().all(|k| k.name() != e.kernel)) {
            return Err(UntrainableDb::UnknownKernel(e.kernel.clone()));
        }
        if self.valid_count() == 0 {
            return Err(UntrainableDb::NoValidDesign);
        }
        Ok(known
            .into_iter()
            .filter(|k| self.entries.iter().any(|e| e.kernel == k.name()))
            .collect())
    }

    /// Merges another database into this one (the §4.1 "shared space" that
    /// gradually collects results from different applications). Duplicate
    /// (kernel, point) pairs keep this database's entry. Returns how many
    /// entries were added.
    pub fn merge(&mut self, other: &Database) -> usize {
        let mut added = 0;
        for e in other.entries() {
            if self.insert(&e.kernel, e.point.clone(), e.result) {
                added += 1;
            }
        }
        added
    }

    /// Rebuilds the dedup index after deserialization (the index is
    /// `serde(skip)` — any path that deserializes a `Database` must call
    /// this before using it).
    pub(crate) fn rebuild_index(&mut self) {
        self.index = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| ((e.kernel.clone(), e.point.clone()), i))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use design_space::DesignSpace;
    use merlin_sim::MerlinSimulator;

    fn sample_db() -> Database {
        let k = kernels::aes();
        let space = DesignSpace::from_kernel(&k);
        let sim = MerlinSimulator::new();
        let mut db = Database::new();
        for i in 0..10 {
            let p = space.point_at(i);
            let r = sim.evaluate(&k, &space, &p);
            db.insert("aes", p, r);
        }
        db
    }

    #[test]
    fn training_kernels_lists_the_referenced_kernels_in_catalogue_order() {
        let mut db = sample_db();
        let atax = kernels::atax();
        let space = DesignSpace::from_kernel(&atax);
        let p = space.point_at(0);
        let r = MerlinSimulator::new().evaluate(&atax, &space, &p);
        db.insert("atax", p, r);
        let names: Vec<String> =
            db.training_kernels().unwrap().iter().map(|k| k.name().to_string()).collect();
        assert_eq!(names, ["aes", "atax"]);
        assert_eq!(Database::new().training_kernels().unwrap_err(), UntrainableDb::Empty);
    }

    #[test]
    fn insert_deduplicates() {
        let mut db = sample_db();
        let first = db.entries()[0].clone();
        assert!(!db.insert("aes", first.point.clone(), first.result));
        assert_eq!(db.len(), 10);
        assert!(db.contains("aes", &first.point));
    }

    #[test]
    fn stats_count_valid() {
        let db = sample_db();
        let stats = db.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].0, "aes");
        assert_eq!(stats[0].1.total, 10);
        assert_eq!(stats[0].1.valid, db.valid_count());
    }

    #[test]
    fn best_design_minimizes_cycles() {
        let db = sample_db();
        let best = db.best_design("aes", 0.8).expect("some valid design");
        for e in db.of_kernel("aes") {
            if e.result.is_valid() && e.result.util.fits(0.8) {
                assert!(best.result.cycles <= e.result.cycles);
            }
        }
    }

    #[test]
    fn save_load_round_trip() {
        let db = sample_db();
        let dir = std::env::temp_dir().join("gnn_dse_db_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");
        db.save(&path).unwrap();
        let loaded = Database::load(&path).unwrap();
        assert_eq!(loaded.len(), db.len());
        let first = &db.entries()[0];
        assert!(loaded.contains("aes", &first.point), "index rebuilt after load");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_reports_typed_errors() {
        let dir = std::env::temp_dir().join("gnn_dse_db_err_test");
        std::fs::create_dir_all(&dir).unwrap();

        let missing = dir.join("does_not_exist.json");
        assert!(matches!(Database::load(&missing), Err(DbError::Io { .. })));

        let garbled = dir.join("garbled.json");
        std::fs::write(&garbled, "{ this is not a database").unwrap();
        let err = Database::load(&garbled).unwrap_err();
        assert!(matches!(err, DbError::Parse { .. }));
        assert!(err.to_string().contains("garbled.json"), "error should name the file: {err}");
        std::fs::remove_file(&garbled).ok();
    }

    #[test]
    fn save_replaces_atomically() {
        let dir = std::env::temp_dir().join("gnn_dse_db_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");
        sample_db().save(&path).unwrap();
        let bigger = {
            let mut db = sample_db();
            let k = kernels::gesummv();
            let space = DesignSpace::from_kernel(&k);
            let sim = MerlinSimulator::new();
            let p = space.default_point();
            let r = sim.evaluate(&k, &space, &p);
            db.insert("gesummv", p, r);
            db
        };
        bigger.save(&path).unwrap();
        assert_eq!(Database::load(&path).unwrap().len(), bigger.len());
        assert!(!path.with_file_name("db.json.tmp").exists(), "no tmp residue after save");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_deduplicates_and_counts() {
        let mut a = sample_db();
        let b = sample_db(); // identical content
        assert_eq!(a.merge(&b), 0, "identical databases add nothing");

        // A database over a different kernel merges fully.
        let k = kernels::gesummv();
        let space = DesignSpace::from_kernel(&k);
        let sim = MerlinSimulator::new();
        let mut c = Database::new();
        for i in 0..5 {
            let p = space.point_at(i);
            let r = sim.evaluate(&k, &space, &p);
            c.insert("gesummv", p, r);
        }
        assert_eq!(a.merge(&c), 5);
        assert_eq!(a.stats().len(), 2);
    }

    #[test]
    fn latency_range_covers_valid_entries() {
        let db = sample_db();
        let (lo, hi) = db.latency_range().unwrap();
        assert!(lo <= hi);
        assert!(lo > 0);
    }
}
