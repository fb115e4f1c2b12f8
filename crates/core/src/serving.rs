//! The [`gdse_serve`] backend: answers service requests through a
//! per-kernel prediction memo and a resident [`Template`].
//!
//! [`PredictService`] is the glue between the model-agnostic TCP server and
//! the GNN surrogate: it resolves kernel names to design spaces and
//! templates (built once per kernel, on first use: the kernel lowered once
//! and every row no design point changes computed once per model),
//! bounds-checks design-point indices, and answers each micro-batch through
//! the kernel's memo, whose misses go to one engine-routed
//! `predict_ordered` call on the template — so repeated queries are
//! answered from the memo, and a fresh point lowers only its pragma rows and
//! computes only the rows within reach of a pragma node. The memo is keyed
//! by the request's design-point index and holds at most [`MEMO_ENTRIES`]
//! per kernel. A service holds one model for its whole life, and
//! [`ArtifactProvider`] builds a new service for each replica and model
//! epoch, so neither a memo nor a template outlives the model that filled
//! it.
//!
//! [`ArtifactProvider`] is the hot-swap source on top: it versions
//! `.gdse` artifacts by epoch, and a reload only cuts over after the new
//! bytes pass the checksum *and* a canary prediction — anything less
//! (truncated file, bit flip, non-finite outputs) is rejected while the
//! previous model keeps serving.

use crate::artifact::ArtifactMeta;
use crate::inference::{Prediction, Predictor, Template};
use crate::parallel::ExecEngine;
use design_space::{DesignPoint, DesignSpace};
use gdse_exec::{evaluate_cached, ShardedCache};
use gdse_serve::{BatchPredictor, ModelProvider, PredictionRow};
use hls_ir::kernels;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::UNIX_EPOCH;

/// The most predictions a service's memo keeps per kernel, 512 in each of
/// its 16 shards. A server sent a stream of distinct points keeps at most
/// this many, not every one. The benchmark's open-loop stream fits: a 4 s
/// run asks each kernel at most 932 distinct points (72 in its fullest
/// shard), and a 20 s run at most 4,230 (291).
pub const MEMO_ENTRIES: usize = 8192;

/// Per-kernel state the service builds lazily and reuses across requests.
struct KernelEntry {
    space: DesignSpace,
    template: Template<Arc<Predictor>>,
    /// Predictions the service's model has made for this kernel, by
    /// design-point index: at most [`MEMO_ENTRIES`].
    memo: ShardedCache<u128, Prediction>,
}

/// A loaded predictor exposed as a [`BatchPredictor`] for [`gdse_serve`].
pub struct PredictService {
    predictor: Arc<Predictor>,
    engine: ExecEngine,
    kernels: Mutex<HashMap<String, Arc<KernelEntry>>>,
}

impl PredictService {
    /// Wraps a (typically artifact-loaded) predictor and an engine.
    pub fn new(predictor: impl Into<Arc<Predictor>>, engine: ExecEngine) -> Self {
        PredictService { predictor: predictor.into(), engine, kernels: Mutex::new(HashMap::new()) }
    }

    /// The wrapped predictor's models and normalizer.
    pub fn predictor(&self) -> &Predictor {
        &self.predictor
    }

    /// Resolves `kernel`, building its design space and template on first
    /// use. Knows every built-in kernel plus the `toy` example.
    fn resolve(&self, kernel: &str) -> Result<Arc<KernelEntry>, String> {
        if let Some(entry) = self.kernels.lock().expect("kernel cache lock").get(kernel) {
            return Ok(Arc::clone(entry));
        }
        // Built outside the lock, so a kernel's first request holds up no
        // other kernel's; of two threads that race to build one kernel's
        // entry, the first to insert it wins and the other drops its copy.
        let k = if kernel == "toy" {
            kernels::toy()
        } else {
            kernels::kernel_by_name(kernel)
                .ok_or_else(|| format!("unknown kernel `{kernel}`"))?
        };
        let space = DesignSpace::from_kernel(&k);
        let graph = proggraph::build_graph_bidirectional(&k, &space);
        let template = Template::new(Arc::clone(&self.predictor), &graph);
        let memo = ShardedCache::bounded(16, MEMO_ENTRIES);
        let entry = Arc::new(KernelEntry { space, template, memo });
        let mut cache = self.kernels.lock().expect("kernel cache lock");
        Ok(Arc::clone(cache.entry(kernel.to_string()).or_insert(entry)))
    }
}

impl BatchPredictor for PredictService {
    fn predict(&self, kernel: &str, indices: &[u128]) -> Result<Vec<PredictionRow>, String> {
        // Books replica-thread inference time under `stage.infer.busy_us`;
        // self-nesting is safe (inner engine stages book only once).
        let _infer = gdse_obs::span::stage("infer");
        let entry = self.resolve(kernel)?;
        let size = entry.space.size();
        if let Some(i) = indices.iter().find(|&&i| i >= size) {
            return Err(format!("index {i} out of range for `{kernel}` (space size {size})"));
        }
        let preds = evaluate_cached(
            |misses: &[u128]| {
                let points: Vec<DesignPoint> =
                    misses.iter().map(|&i| entry.space.point_at(i)).collect();
                self.engine.predict_ordered(&entry.template, &points)
            },
            &entry.memo,
            |&i| i,
            indices,
        );
        Ok(preds
            .into_iter()
            .map(|p| PredictionRow {
                valid_prob: p.valid_prob,
                cycles: p.cycles,
                dsp: p.util.dsp,
                bram: p.util.bram,
                lut: p.util.lut,
                ff: p.util.ff,
            })
            .collect())
    }
}

/// `(mtime nanos, length)` of the artifact file — how the provider tells
/// "the file changed underneath us" apart from "same bytes as before".
type Fingerprint = (u128, u64);

fn fingerprint(path: &Path) -> Option<Fingerprint> {
    let meta = std::fs::metadata(path).ok()?;
    let mtime = meta.modified().ok()?.duration_since(UNIX_EPOCH).ok()?.as_nanos();
    Some((mtime, meta.len()))
}

struct ProviderState {
    predictor: Arc<Predictor>,
    meta: ArtifactMeta,
    /// Fingerprint of the artifact version we last *examined* — serving
    /// or rejected. A persistently corrupt file on disk is validated
    /// once, not on every watch tick.
    seen: Option<Fingerprint>,
}

/// A [`ModelProvider`] over a `.gdse` artifact on disk: epoch 1 at open,
/// +1 per accepted reload.
///
/// A reload re-reads the file and only cuts over after **every** check
/// passes: envelope + checksum decode, and a canary prediction through a
/// freshly built service whose outputs must all be finite. Any failure
/// leaves the previous model serving (rollback is the default, not an
/// action). [`ModelProvider::poll_reload`] makes the same decision when
/// the file's mtime/length changes underneath a watching server.
pub struct ArtifactProvider {
    path: PathBuf,
    /// Engine parallelism of each backend built from this provider.
    jobs: usize,
    epoch: AtomicU64,
    state: Mutex<ProviderState>,
}

/// Loads the artifact at `path`, naming the file in the error.
fn load(path: &Path) -> Result<(Predictor, ArtifactMeta), String> {
    Predictor::load_artifact(path).map_err(|e| format!("cannot load {path:?}: {e}"))
}

impl ArtifactProvider {
    /// Loads the artifact at `path` and serves it as epoch 1; backends
    /// built from this provider run their engine with `jobs` workers
    /// (at least 1).
    ///
    /// # Errors
    ///
    /// Why the artifact cannot be loaded (missing, corrupt, or wrong
    /// schema).
    pub fn open(path: &Path, jobs: usize) -> Result<Self, String> {
        let (predictor, meta) = load(path)?;
        Ok(ArtifactProvider {
            path: path.to_path_buf(),
            jobs,
            epoch: AtomicU64::new(1),
            state: Mutex::new(ProviderState {
                predictor: Arc::new(predictor),
                meta,
                seen: fingerprint(path),
            }),
        })
    }

    /// Metadata of the artifact version currently serving.
    pub fn meta(&self) -> ArtifactMeta {
        self.state.lock().expect("provider lock").meta.clone()
    }

    fn service(&self, predictor: impl Into<Arc<Predictor>>) -> PredictService {
        PredictService::new(predictor, ExecEngine::with_jobs(self.jobs))
    }

    /// The canary gate: a candidate model must answer a real prediction
    /// with finite values before it is allowed to serve.
    fn canary(service: &PredictService, meta: &ArtifactMeta) -> Result<(), String> {
        let kernel = meta.kernels.first().cloned().unwrap_or_else(|| "toy".to_string());
        let rows = service
            .predict(&kernel, &[0])
            .map_err(|e| format!("canary prediction on `{kernel}` failed: {e}"))?;
        let row = rows.first().ok_or("canary prediction returned no rows")?;
        let finite = row.valid_prob.is_finite()
            && row.dsp.is_finite()
            && row.bram.is_finite()
            && row.lut.is_finite()
            && row.ff.is_finite();
        if !finite {
            return Err(format!("canary prediction on `{kernel}` is non-finite: {row:?}"));
        }
        Ok(())
    }
}

impl ModelProvider for ArtifactProvider {
    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    fn build(&self) -> Result<(Box<dyn BatchPredictor>, u64), String> {
        let state = self.state.lock().expect("provider lock");
        let service = self.service(Arc::clone(&state.predictor));
        Ok((Box::new(service), self.epoch.load(Ordering::SeqCst)))
    }

    fn reload(&self) -> Result<u64, String> {
        // Validate entirely outside the lock: replicas keep building the
        // old version while the candidate is checked.
        let fp = fingerprint(&self.path);
        let outcome: Result<(Arc<Predictor>, ArtifactMeta), String> = (|| {
            let (predictor, meta) =
                load(&self.path).map_err(|e| format!("artifact rejected: {e}"))?;
            let service = self.service(predictor);
            Self::canary(&service, &meta)?;
            Ok((service.predictor, meta))
        })();
        let mut state = self.state.lock().expect("provider lock");
        // Either way this version has been examined; don't re-validate it
        // on every watch tick.
        state.seen = fp;
        let (predictor, meta) = outcome?;
        state.predictor = predictor;
        state.meta = meta;
        Ok(self.epoch.fetch_add(1, Ordering::SeqCst) + 1)
    }

    fn poll_reload(&self) -> Option<Result<u64, String>> {
        let fp = fingerprint(&self.path)?;
        {
            let state = self.state.lock().expect("provider lock");
            if state.seen == Some(fp) {
                return None;
            }
        }
        Some(self.reload())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbgen::generate_database;
    use crate::trainer::TrainConfig;
    use gdse_gnn::{ModelConfig, ModelKind};

    fn tiny_service() -> PredictService {
        let ks = vec![kernels::gemm_ncubed()];
        let db = generate_database(&ks, &[], 20, 7);
        let (p, _) = Predictor::train(
            &db,
            &ks,
            ModelKind::Transformer,
            ModelConfig::small(),
            &TrainConfig::quick().with_epochs(2),
        );
        PredictService::new(p, ExecEngine::serial())
    }

    #[test]
    fn service_matches_direct_predict_batch() {
        let svc = tiny_service();
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let graph = proggraph::build_graph_bidirectional(&k, &space);
        let indices: Vec<u128> = (0..6).map(|i| i * 17 % space.size()).collect();
        let points: Vec<_> = indices.iter().map(|&i| space.point_at(i)).collect();

        let rows = svc.predict(k.name(), &indices).expect("serves");
        let direct = svc.predictor().predict_batch(&graph, &points);
        assert_eq!(rows.len(), direct.len());
        for (r, d) in rows.iter().zip(&direct) {
            assert_eq!(r.valid_prob.to_bits(), d.valid_prob.to_bits());
            assert_eq!(r.cycles, d.cycles);
            assert_eq!(r.dsp.to_bits(), d.util.dsp.to_bits());
            assert_eq!(r.bram.to_bits(), d.util.bram.to_bits());
        }
    }

    #[test]
    fn unknown_kernel_and_out_of_range_index_are_errors() {
        let svc = tiny_service();
        assert!(svc.predict("no-such-kernel", &[0]).is_err());
        let k = kernels::gemm_ncubed();
        let size = DesignSpace::from_kernel(&k).size();
        let err = svc.predict(k.name(), &[size]).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    fn train_tiny(seed: u64) -> (Predictor, ArtifactMeta) {
        let ks = vec![kernels::gemm_ncubed()];
        let db = generate_database(&ks, &[], 20, 7);
        let (p, _) = Predictor::train(
            &db,
            &ks,
            ModelKind::Transformer,
            ModelConfig::small().with_seed(seed),
            &TrainConfig::quick().with_epochs(2),
        );
        let meta = ArtifactMeta::describe(&p, &["gemm-ncubed".to_string()], 2);
        (p, meta)
    }

    #[test]
    fn artifact_provider_versions_reloads_and_rejects_corruption() {
        let dir = std::env::temp_dir().join("gnn_dse_artifact_provider_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.gdse");

        let (p, meta) = train_tiny(ModelConfig::small().seed);
        p.save_artifact(&path, &meta).unwrap();
        let provider = ArtifactProvider::open(&path, 1).expect("open");
        assert_eq!(provider.epoch(), 1);
        let (backend, epoch) = provider.build().expect("build");
        assert_eq!(epoch, 1);
        let baseline = backend.predict("gemm-ncubed", &[0, 1]).expect("serves");

        // Unchanged file: the watcher sees nothing to do.
        assert!(provider.poll_reload().is_none(), "unchanged artifact must not reload");

        // A truncated artifact is rejected and the old model keeps serving.
        let good = std::fs::read(&path).unwrap();
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        let err = provider.reload().expect_err("truncated artifact must be rejected");
        assert!(err.contains("rejected") || err.contains("corrupt"), "{err}");
        assert_eq!(provider.epoch(), 1, "epoch must not advance on rejection");
        let (backend, _) = provider.build().expect("old model still builds");
        assert_eq!(backend.predict("gemm-ncubed", &[0, 1]).unwrap(), baseline);
        // The corrupt version was examined once; the watcher must not
        // hot-loop revalidating it.
        assert!(provider.poll_reload().is_none(), "already-examined corrupt file");

        // A bit-flipped artifact fails the checksum the same way.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        match provider.poll_reload() {
            Some(Err(e)) => assert!(e.contains("rejected") || e.contains("corrupt"), "{e}"),
            other => panic!("bit flip must be caught, got {other:?}"),
        }
        assert_eq!(provider.epoch(), 1);

        // The int8 files of earlier builds declare envelope version 2, with
        // a valid checksum: rejected by version, the old model still serving.
        let mut v2 = good.clone();
        v2[4..8].copy_from_slice(&2u32.to_le_bytes());
        let body = v2.len() - 8;
        let sum = gdse_gnn::artifact::fnv1a64(&v2[..body]);
        v2[body..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &v2).unwrap();
        let err = provider.reload().expect_err("a version-2 artifact must be rejected");
        assert!(err.contains("version 2 unsupported"), "{err}");
        assert_eq!(provider.epoch(), 1, "epoch must not advance on rejection");

        // The intact artifact restored: the watcher cuts over to epoch 2.
        // (The flipped and intact bytes are the same length, so give the
        // mtime clock a tick to make the fingerprint move.)
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::fs::write(&path, &good).unwrap();
        match provider.poll_reload() {
            Some(Ok(2)) => {}
            other => panic!("expected cut-over to epoch 2, got {other:?}"),
        }
        assert_eq!(provider.epoch(), 2);
        let (backend, epoch) = provider.build().expect("build at epoch 2");
        assert_eq!(epoch, 2);
        assert_eq!(backend.predict("gemm-ncubed", &[0, 1]).unwrap(), baseline);

        // A model trained with another seed: the backend rebuilt at epoch 3
        // answers the indices served before with the new model's bits, from
        // a template of its own, while the epoch-2 backend keeps its
        // template and its model's answers.
        let (other, other_meta) = train_tiny(ModelConfig::small().seed + 1);
        other.save_artifact(&path, &other_meta).unwrap();
        let old = backend;
        assert_eq!(provider.reload(), Ok(3));
        let (backend, epoch) = provider.build().expect("build at epoch 3");
        assert_eq!(epoch, 3);
        let templates = gdse_obs::metrics::counter_value("gnn.templates");
        let rows = backend.predict("gemm-ncubed", &[0, 1]).unwrap();
        assert_eq!(gdse_obs::metrics::counter_value("gnn.templates") - templates, 3);
        assert_ne!(rows, baseline, "the other seed predicts other values");
        assert_eq!(old.predict("gemm-ncubed", &[0, 1]).unwrap(), baseline);
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let graph = proggraph::build_graph_bidirectional(&k, &space);
        let want = other.predict_batch(&graph, &[space.point_at(0), space.point_at(1)]);
        assert_eq!(rows.len(), want.len());
        for (r, w) in rows.iter().zip(&want) {
            assert_eq!(r.valid_prob.to_bits(), w.valid_prob.to_bits());
            assert_eq!(r.cycles, w.cycles);
            let util = [r.dsp, r.bram, r.lut, r.ff].map(f64::to_bits);
            assert_eq!(util, [w.util.dsp, w.util.bram, w.util.lut, w.util.ff].map(f64::to_bits));
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_memo_holds_at_most_its_bound_and_answers_keep_their_bits() {
        let svc = tiny_service();
        let k = kernels::mvt();
        let space = DesignSpace::from_kernel(&k);
        let graph = proggraph::build_graph_bidirectional(&k, &space);
        let memo_len = || svc.kernels.lock().unwrap()[k.name()].memo.len();
        let indices: Vec<u128> = (0..(MEMO_ENTRIES + 600) as u128).map(|i| i * 13).collect();
        assert!(indices.last() < Some(&space.size()));
        let mut first = Vec::new();
        for chunk in indices.chunks(64) {
            first.extend(svc.predict(k.name(), chunk).expect("serves"));
            assert!(memo_len() <= MEMO_ENTRIES, "{} entries", memo_len());
        }
        // Every answer, from the memo or not, has the model's bits.
        let points: Vec<_> = indices.iter().map(|&i| space.point_at(i)).collect();
        let direct = svc.predictor().predict_batch(&graph, &points);
        for (r, d) in first.iter().zip(&direct) {
            assert_eq!(r.valid_prob.to_bits(), d.valid_prob.to_bits());
            assert_eq!(r.cycles, d.cycles);
            assert_eq!([r.dsp, r.bram, r.lut, r.ff].map(f64::to_bits), [
                d.util.dsp.to_bits(),
                d.util.bram.to_bits(),
                d.util.lut.to_bits(),
                d.util.ff.to_bits()
            ]);
        }
        for (chunk, want) in indices.chunks(64).zip(first.chunks(64)).step_by(7) {
            assert_eq!(svc.predict(k.name(), chunk).unwrap(), want);
        }
        assert!(memo_len() <= MEMO_ENTRIES);
    }

    #[test]
    fn repeated_queries_are_served_from_the_prediction_cache() {
        use gdse_obs as obs;
        obs::metrics::reset();
        let svc = tiny_service();
        let k = kernels::gemm_ncubed();
        let indices: Vec<u128> = vec![1, 2, 3];
        let first = svc.predict(k.name(), &indices).unwrap();
        let before = obs::metrics::snapshot().counter("exec.cache_hits").unwrap_or(0);
        let second = svc.predict(k.name(), &indices).unwrap();
        let after = obs::metrics::snapshot().counter("exec.cache_hits").unwrap_or(0);
        assert_eq!(first, second);
        assert_eq!(after - before, 3, "second pass must be all cache hits");
    }
}
