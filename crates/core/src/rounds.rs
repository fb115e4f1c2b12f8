//! Iterative DSE + database augmentation (§4.4, Fig. 7).
//!
//! Each round trains the surrogate on the current database, runs DSE per
//! kernel, validates the top-M candidates with the HLS tool, and commits the
//! true results back into the database: mispredicted points are exactly the
//! ones that make the next round's model better.
//!
//! ## Resilience
//!
//! Validation runs through an [`EvalBackend`], so a fault-injected or
//! real-tool backend can lose candidates; a round **degrades gracefully** —
//! it commits the successful subset and records the losses in its
//! [`KernelRound::lost`] — instead of aborting the campaign.
//!
//! With a checkpoint path, the loop persists its complete state (database,
//! reports, carried model) in **one atomic file** after every round: a JSON
//! document whose carried model is its `.gdse` artifact bytes, in hex, so
//! the checksummed artifact stays the only model format. A
//! killed run restarted with `resume = true` replays from the last round
//! boundary; because the loop itself is deterministic (seeded models,
//! stateless per-attempt fault decisions), the resumed run converges to a
//! byte-identical final database.
//!
//! ## Step-function form
//!
//! The loop is implemented as a resumable [`CampaignDriver`]: [`new`]
//! performs setup (or checkpoint resume), and each [`step`] runs exactly one
//! round and persists the checkpoint before returning. The run-to-completion
//! entry point, [`run_rounds_with_engine`], steps the driver until it is
//! done. A supervisor —
//! e.g. the continuous-learning daemon in [`crate::daemon`] — instead
//! interleaves steps with serving: publish an artifact after one step, wait,
//! step again. An optional [`ReplayBuffer`] attached to the driver collects
//! each round's freshly validated oracle results (deduplicated by canonical
//! config) and, when fine-tuning, replaces the whole-database fine-tune set
//! with the buffer's bounded recent window.
//!
//! [`new`]: CampaignDriver::new
//! [`step`]: CampaignDriver::step

use crate::artifact::{decode_predictor, encode_predictor, ArtifactMeta};
use crate::db::Database;
use crate::dse::{run_dse_with_engine, DseConfig};
use crate::evaluated::Evaluated;
use crate::harness::EvalBackend;
use crate::inference::Predictor;
use crate::learn::ReplayBuffer;
use crate::pareto::ParetoArchive;
use crate::parallel::ExecEngine;
use crate::persist::atomic_write;
use crate::trainer::TrainConfig;
use design_space::DesignSpace;
use gdse_gnn::{ModelConfig, ModelKind};
use gdse_obs as obs;
use hls_ir::Kernel;
use proggraph::ProgramGraph;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};

/// Configuration of the round loop.
#[derive(Debug, Clone)]
pub struct RoundsConfig {
    /// Number of DSE rounds (Fig. 7 shows 4).
    pub rounds: usize,
    /// Model variant to train (the paper uses M7).
    pub model: ModelKind,
    /// Model hyperparameters.
    pub model_cfg: ModelConfig,
    /// Training hyperparameters (retraining happens each round).
    pub train_cfg: TrainConfig,
    /// Per-kernel DSE limits.
    pub dse: DseConfig,
    /// Fine-tune the previous round's predictor on the augmented database
    /// instead of retraining from scratch (cheaper; the paper retrains).
    pub fine_tune: bool,
    /// With `initial_model` set *and* `fine_tune`, fine-tune the preloaded
    /// model in round 1 instead of serving it as-is. The daemon sets this:
    /// its round-1 artifact already serves traffic, so the first learning
    /// round should improve on it, not replay it.
    pub fine_tune_initial: bool,
    /// A pre-trained predictor (e.g. loaded from a `.gdse` artifact) used
    /// as-is for round 1 instead of training from scratch; later rounds
    /// retrain (or fine-tune) on the augmented database as usual. Ignored
    /// when resuming from a checkpoint — the checkpointed state wins.
    pub initial_model: Option<Predictor>,
    /// Abort (as if killed) after this many completed rounds — a test hook
    /// for exercising checkpoint/resume. `None` runs all rounds.
    pub stop_after: Option<usize>,
}

impl RoundsConfig {
    /// A fast configuration for tests and examples.
    pub fn quick() -> Self {
        Self {
            rounds: 2,
            model: ModelKind::Transformer,
            model_cfg: ModelConfig::small(),
            train_cfg: TrainConfig::quick().with_epochs(4),
            dse: DseConfig::quick(),
            fine_tune: false,
            fine_tune_initial: false,
            initial_model: None,
            stop_after: None,
        }
    }
}

/// Per-kernel outcome of one round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelRound {
    /// Kernel name.
    pub kernel: String,
    /// Best valid cycles among DSE-found designs so far (across rounds).
    pub best_dse_cycles: Option<u64>,
    /// Best valid cycles in the *initial* database (the Fig. 7 reference).
    pub initial_best_cycles: u64,
    /// `initial_best / best_dse` — above 1.0 means the DSE beat the
    /// initial database.
    pub speedup: f64,
    /// Fresh evaluations committed to the database this round.
    pub added: usize,
    /// Top-M candidates this round whose validation was lost to tool
    /// failure (they are *not* committed and may be retried next round).
    pub lost: usize,
    /// Validated (tool-confirmed) Pareto front over this round's top
    /// candidates: mutually non-dominated over cycles + the four resource
    /// axes, feasible under the round's objective. Absent in pre-front
    /// checkpoints, hence the serde default.
    #[serde(default)]
    pub front: Vec<Evaluated>,
}

/// Outcome of one full round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundReport {
    /// Round number (1-based, like DSE1..DSE4).
    pub round: usize,
    /// Per-kernel results.
    pub kernels: Vec<KernelRound>,
    /// Arithmetic mean of the per-kernel speedups (the Fig. 7 legend).
    pub avg_speedup: f64,
    /// Total validations lost to tool failure this round.
    pub lost: usize,
}

/// Why a checkpointed rounds run could not proceed.
#[derive(Debug)]
pub enum RoundsError {
    /// The checkpoint file could not be read/written.
    Io {
        /// The checkpoint file.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The checkpoint file exists but is not a usable checkpoint.
    Corrupt {
        /// The checkpoint file.
        path: PathBuf,
        /// What is wrong with it.
        detail: String,
    },
    /// The checkpoint belongs to a different campaign (kernel set mismatch).
    Mismatch {
        /// The checkpoint file.
        path: PathBuf,
        /// What does not line up.
        detail: String,
    },
}

impl fmt::Display for RoundsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoundsError::Io { path, source } => {
                write!(f, "checkpoint I/O error on {}: {source}", path.display())
            }
            RoundsError::Corrupt { path, detail } => {
                write!(f, "{} is not a valid checkpoint: {detail}", path.display())
            }
            RoundsError::Mismatch { path, detail } => {
                write!(f, "checkpoint {} does not match this run: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for RoundsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RoundsError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Complete loop state at a round boundary. Serialized as a single document
/// so database, reports, and carried model can never go out of sync on disk.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Checkpoint {
    /// The next round to run (1-based); `cfg.rounds + 1` when complete.
    next_round: usize,
    reports: Vec<RoundReport>,
    initial_best: Vec<(String, u64)>,
    best_dse: Vec<Option<u64>>,
    db: Database,
    /// The carried model's `.gdse` artifact bytes ([`encode_predictor`]),
    /// in lowercase hex.
    carried_model: Option<String>,
    /// Metric registry state at the round boundary: restored on resume so a
    /// resumed campaign's run report counts the whole campaign, not just the
    /// rounds after the crash.
    metrics: obs::MetricsSnapshot,
}

impl Checkpoint {
    /// Reads the checkpoint at `path` and decodes its carried model through
    /// the artifact's checksum.
    fn load(path: &Path) -> Result<(Self, Option<Predictor>), RoundsError> {
        let json = std::fs::read_to_string(path)
            .map_err(|source| RoundsError::Io { path: path.to_path_buf(), source })?;
        let corrupt = |detail: String| RoundsError::Corrupt { path: path.to_path_buf(), detail };
        let mut ck: Checkpoint = serde_json::from_str(&json).map_err(|e| corrupt(e.to_string()))?;
        let carried = match ck.carried_model.take() {
            None => None,
            Some(hex) => {
                let bytes = from_hex(&hex)
                    .ok_or_else(|| corrupt("carried model: not a hex string".to_string()))?;
                let (p, _) = decode_predictor(&bytes)
                    .map_err(|e| corrupt(format!("carried model: {e}")))?;
                Some(p)
            }
        };
        ck.db.rebuild_index();
        Ok((ck, carried))
    }

    fn save(&self, path: &Path) -> Result<(), RoundsError> {
        let json = serde_json::to_string(self)
            .map_err(|e| RoundsError::Corrupt { path: path.to_path_buf(), detail: e.to_string() })?;
        atomic_write(path, &json)
            .map_err(|source| RoundsError::Io { path: path.to_path_buf(), source })
    }
}

/// The rounds loop as a resumable step function.
///
/// [`CampaignDriver::new`] performs all setup — design spaces, program
/// graphs, checkpoint resume or fresh-state derivation — and each
/// [`CampaignDriver::step`] runs exactly one round (train → DSE → validate →
/// commit → checkpoint). Between steps the campaign is fully at rest: the
/// checkpoint on disk is current, [`carried_model`] is the predictor the
/// round produced, and a supervisor thread is free to publish artifacts,
/// serve traffic, or sleep before stepping again.
///
/// [`carried_model`]: CampaignDriver::carried_model
pub struct CampaignDriver<'a, B: EvalBackend + Sync> {
    db: &'a mut Database,
    kernels: &'a [Kernel],
    cfg: &'a RoundsConfig,
    eval: &'a B,
    checkpoint: Option<&'a Path>,
    engine: &'a ExecEngine,
    spaces: Vec<DesignSpace>,
    graphs: Vec<ProgramGraph>,
    next_round: usize,
    reports: Vec<RoundReport>,
    initial_best: Vec<(String, u64)>,
    best_dse: Vec<Option<u64>>,
    carried: Option<Predictor>,
    replay: Option<ReplayBuffer>,
}

impl<'a, B: EvalBackend + Sync> CampaignDriver<'a, B> {
    /// Sets up a campaign over `kernels`, resuming from `checkpoint` when
    /// `resume` is set and the file exists.
    ///
    /// # Errors
    ///
    /// Checkpoint I/O, corruption, or kernel-set mismatch on resume.
    pub fn new(
        db: &'a mut Database,
        kernels: &'a [Kernel],
        cfg: &'a RoundsConfig,
        eval: &'a B,
        checkpoint: Option<&'a Path>,
        resume: bool,
        engine: &'a ExecEngine,
    ) -> Result<Self, RoundsError> {
        let (spaces, graphs) = {
            let _stage = obs::span::stage("setup");
            let spaces: Vec<DesignSpace> = kernels.iter().map(DesignSpace::from_kernel).collect();
            let graphs: Vec<_> = kernels
                .iter()
                .zip(&spaces)
                .map(|(k, s)| proggraph::build_graph_bidirectional(k, s))
                .collect();
            (spaces, graphs)
        };

        // Either resume the saved state or derive a fresh one from `db`.
        let resumed = match checkpoint {
            Some(path) if resume && path.exists() => {
                let (ck, carried) = Checkpoint::load(path)?;
                let names: Vec<&str> = ck.initial_best.iter().map(|(n, _)| n.as_str()).collect();
                let expect: Vec<&str> = kernels.iter().map(|k| k.name()).collect();
                if names != expect {
                    return Err(RoundsError::Mismatch {
                        path: path.to_path_buf(),
                        detail: format!("checkpoint kernels {names:?}, requested {expect:?}"),
                    });
                }
                Some((ck, carried))
            }
            _ => None,
        };

        let (mut next_round, reports, initial_best, best_dse, carried) = match resumed {
            Some((ck, carried)) => {
                *db = ck.db;
                // Replace (not merge) the registry: the snapshot already covers
                // everything the campaign did before the crash, so after the
                // remaining rounds the deterministic counters match an
                // uninterrupted run.
                obs::metrics::restore(&ck.metrics);
                obs::info!(
                    "rounds.resume",
                    "resuming at round {} of {}",
                    ck.next_round,
                    cfg.rounds;
                    next_round = ck.next_round,
                    rounds = cfg.rounds,
                );
                (ck.next_round, ck.reports, ck.initial_best, ck.best_dse, carried)
            }
            None => {
                let initial_best: Vec<(String, u64)> = kernels
                    .iter()
                    .map(|k| {
                        let best = db
                            .best_design(k.name(), cfg.dse.util_threshold)
                            .map(|e| e.result.cycles)
                            .unwrap_or(u64::MAX);
                        (k.name().to_string(), best)
                    })
                    .collect();
                (
                    1,
                    Vec::with_capacity(cfg.rounds),
                    initial_best,
                    vec![None; kernels.len()],
                    // A preloaded model enters the loop as the carried state.
                    cfg.initial_model.clone(),
                )
            }
        };
        // A checkpoint from a run with more rounds than requested: nothing to do.
        next_round = next_round.min(cfg.rounds + 1);

        Ok(CampaignDriver {
            db,
            kernels,
            cfg,
            eval,
            checkpoint,
            engine,
            spaces,
            graphs,
            next_round,
            reports,
            initial_best,
            best_dse,
            carried,
            replay: None,
        })
    }

    /// Attaches a replay buffer: every freshly validated result committed by
    /// later steps is also recorded in the buffer (deduplicated by canonical
    /// config), and — when `fine_tune` is set — fine-tune rounds train on
    /// the buffer's bounded window instead of the whole database.
    pub fn attach_replay(&mut self, replay: ReplayBuffer) {
        self.replay = Some(replay);
    }

    /// The attached replay buffer, if any.
    pub fn replay(&self) -> Option<&ReplayBuffer> {
        self.replay.as_ref()
    }

    /// Detaches and returns the replay buffer, if one was attached.
    pub fn take_replay(&mut self) -> Option<ReplayBuffer> {
        self.replay.take()
    }

    /// Whether the campaign has run every configured round (or hit its
    /// `stop_after` test hook).
    pub fn is_done(&self) -> bool {
        self.next_round > self.cfg.rounds
            || self.cfg.stop_after.is_some_and(|n| self.next_round > n)
    }

    /// The next round [`step`] would run (1-based).
    ///
    /// [`step`]: CampaignDriver::step
    pub fn next_round(&self) -> usize {
        self.next_round
    }

    /// Reports of every completed round, oldest first.
    pub fn reports(&self) -> &[RoundReport] {
        &self.reports
    }

    /// The predictor the latest round produced (the model a daemon
    /// publishes). `None` before the first step unless a model was
    /// preloaded or resumed.
    pub fn carried_model(&self) -> Option<&Predictor> {
        self.carried.as_ref()
    }

    /// Consumes the driver, returning the accumulated round reports.
    pub fn into_reports(self) -> Vec<RoundReport> {
        self.reports
    }

    /// Runs exactly one round and checkpoints it. Returns the round's
    /// report, or `None` when the campaign is already done (nothing ran).
    ///
    /// # Errors
    ///
    /// Only checkpoint serialization/I/O errors; a driver without a
    /// checkpoint path never fails.
    pub fn step(&mut self) -> Result<Option<&RoundReport>, RoundsError> {
        if self.is_done() {
            return Ok(None);
        }
        let round = self.next_round;
        let cfg = self.cfg;
        let predictor = {
            let _stage = obs::span::stage("train");
            match self.carried.take() {
                // A preloaded artifact model serves round 1 exactly as
                // saved — no retraining, predictions byte-identical to the
                // model that wrote the artifact. (Resume never lands here:
                // checkpoints always store `next_round >= 2`.) The daemon
                // opts out via `fine_tune_initial`: its artifact already
                // serves traffic, so round 1 should learn, not replay.
                Some(p)
                    if round == 1
                        && cfg.initial_model.is_some()
                        && !(cfg.fine_tune && cfg.fine_tune_initial) =>
                {
                    p
                }
                Some(mut p) if cfg.fine_tune => {
                    // Fine-tune the carried model on the augmented database
                    // with a third of the full budget. With a replay buffer
                    // attached, the fine-tune set is the buffer's bounded,
                    // deduplicated window of validated results instead.
                    let ft_cfg = cfg.train_cfg.with_epochs((cfg.train_cfg.epochs / 3).max(2));
                    match &self.replay {
                        Some(buf) => {
                            let window = buf.as_database();
                            p.fine_tune(&window, self.kernels, &ft_cfg);
                        }
                        None => {
                            p.fine_tune(self.db, self.kernels, &ft_cfg);
                        }
                    }
                    p
                }
                _ => {
                    let (p, _) = Predictor::train(
                        self.db,
                        self.kernels,
                        cfg.model,
                        cfg.model_cfg
                            .clone()
                            .with_seed(cfg.model_cfg.seed.wrapping_add(round as u64)),
                        &cfg.train_cfg,
                    );
                    p
                }
            }
        };
        let objective = cfg.dse.objective();
        let mut per_kernel = Vec::with_capacity(self.kernels.len());
        for (ki, kernel) in self.kernels.iter().enumerate() {
            let outcome = run_dse_with_engine(
                &predictor,
                kernel,
                &self.spaces[ki],
                &self.graphs[ki],
                &cfg.dse,
                self.engine,
            );
            let mut added = 0;
            let mut lost = 0;
            let _stage = obs::span::stage("validate");
            // Top-M candidates are distinct canonical points (the DSE
            // dedupes), so the not-yet-evaluated subset can be validated as
            // one parallel batch; committing in candidate order keeps the
            // database identical to the serial loop's. Lost candidates are
            // not committed and stay eligible next round.
            let missing: Vec<_> = outcome
                .top
                .iter()
                .map(|(p, _)| p.clone())
                .filter(|p| !self.db.contains(kernel.name(), p))
                .collect();
            let results = self.engine.evaluate_ordered(self.eval, kernel, &self.spaces[ki], &missing);
            for (point, result) in missing.iter().zip(results) {
                match result {
                    Ok(r) => {
                        self.db.insert(kernel.name(), point.clone(), r);
                        if let Some(buf) = self.replay.as_mut() {
                            let ev = Evaluated::new(point.clone(), r, round, &objective);
                            buf.record_evaluated(kernel.name(), &ev);
                        }
                        added += 1;
                    }
                    Err(_) => lost += 1,
                }
            }
            // The tool-confirmed view of this round's candidates: the best
            // scalar drives the Fig. 7 speedup, the Pareto archive keeps the
            // validated trade-off front (bounded; first-inserted wins ties).
            let mut archive: ParetoArchive<Evaluated> = ParetoArchive::new(64);
            for (point, _) in &outcome.top {
                if let Some(e) = self.db.get(kernel.name(), point) {
                    if objective.feasible_result(&e.result) {
                        let c = e.result.cycles;
                        self.best_dse[ki] =
                            Some(self.best_dse[ki].map_or(c, |b: u64| b.min(c)));
                        let ev = Evaluated::new(point.clone(), e.result, round, &objective);
                        archive.insert(ev.axes(), ev);
                    }
                }
            }
            let front: Vec<Evaluated> =
                archive.front().iter().map(|m| m.item.clone()).collect();
            obs::metrics::counter_add("rounds.designs_added", added as u64);
            obs::metrics::counter_add("rounds.validations_lost", lost as u64);
            obs::metrics::counter_add("rounds.front_points", front.len() as u64);
            let initial = self.initial_best[ki].1;
            let speedup = match self.best_dse[ki] {
                Some(b) if initial != u64::MAX => initial as f64 / b as f64,
                _ => 0.0,
            };
            per_kernel.push(KernelRound {
                kernel: kernel.name().to_string(),
                best_dse_cycles: self.best_dse[ki],
                initial_best_cycles: initial,
                speedup,
                added,
                lost,
                front,
            });
        }
        let avg = per_kernel.iter().map(|k| k.speedup).sum::<f64>() / per_kernel.len() as f64;
        let lost = per_kernel.iter().map(|k| k.lost).sum();
        let added: usize = per_kernel.iter().map(|k| k.added).sum();
        self.reports.push(RoundReport { round, kernels: per_kernel, avg_speedup: avg, lost });
        self.carried = Some(predictor);
        self.next_round = round + 1;
        obs::metrics::counter_inc("rounds.completed");
        obs::metrics::gauge_set("rounds.avg_speedup", avg);
        obs::info!(
            "rounds.round",
            "round {round}/{}: avg speedup {avg:.2}x, {added} designs added, {lost} lost",
            cfg.rounds;
            round = round,
            avg_speedup = avg,
            added = added,
            lost = lost,
        );

        if let Some(path) = self.checkpoint {
            let _stage = obs::span::stage("checkpoint");
            // The carried model only affects later rounds when fine-tuning;
            // skip its encoding otherwise.
            let carried = self.carried.as_ref().filter(|_| cfg.fine_tune);
            let names: Vec<String> = self.kernels.iter().map(|k| k.name().to_string()).collect();
            let carried_model = carried
                .map(|p| {
                    let meta = ArtifactMeta::describe(p, &names, cfg.train_cfg.epochs);
                    encode_predictor(p, &meta).map(|bytes| to_hex(&bytes))
                })
                .transpose()
                .map_err(|e| RoundsError::Corrupt {
                    path: path.to_path_buf(),
                    detail: e.to_string(),
                })?;
            Checkpoint {
                next_round: round + 1,
                reports: self.reports.clone(),
                initial_best: self.initial_best.clone(),
                best_dse: self.best_dse.clone(),
                db: self.db.clone(),
                carried_model,
                metrics: obs::metrics::snapshot(),
            }
            .save(path)?;
        }
        Ok(self.reports.last())
    }
}

/// `bytes` in lowercase hex, two digits a byte.
fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(2 * bytes.len());
    for &b in bytes {
        out.push(DIGITS[usize::from(b >> 4)] as char);
        out.push(DIGITS[usize::from(b & 15)] as char);
    }
    out
}

/// The bytes of a [`to_hex`] string; `None` if it is not one.
fn from_hex(hex: &str) -> Option<Vec<u8>> {
    let digit = |c: u8| (c as char).to_digit(16).filter(|_| !c.is_ascii_uppercase());
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    hex.as_bytes()
        .chunks_exact(2)
        .map(|pair| Some((digit(pair[0])? << 4 | digit(pair[1])?) as u8))
        .collect()
}

/// Runs `cfg.rounds` rounds of train -> DSE -> validate -> augment over all
/// `kernels`, mutating `db` in place, on an execution engine: surrogate
/// batches are chunked across the engine's worker pool during DSE, and each
/// round's top-M validation runs as one parallel batch per kernel
/// (`ExecEngine::serial()` runs the same code on one worker).
///
/// * `eval` — validation backend (the analytical simulator, or a retrying
///   harness over a fallible oracle); lost candidates degrade the round
///   instead of aborting it.
/// * `checkpoint` — if set, the complete loop state is atomically persisted
///   to this file after every round.
/// * `resume` — if set and `checkpoint` names an existing file, the run
///   continues from it (replacing `db`'s contents with the checkpointed
///   database) instead of starting over. A missing checkpoint file starts
///   fresh.
///
/// The engine caches nothing, so a round's DSE never sees the previous
/// round's model, and a resumed campaign carries no state the checkpoint
/// lacks: resume stays byte-identical. Validation submits only the top-M
/// points the database does not hold yet. Per-worker counters are folded
/// back into the caller's registry, so the run report is identical at any
/// worker count.
///
/// # Errors
///
/// Only checkpoint I/O / validity errors; a run without a checkpoint path
/// never fails.
pub fn run_rounds_with_engine<B: EvalBackend + Sync>(
    db: &mut Database,
    kernels: &[Kernel],
    cfg: &RoundsConfig,
    eval: &B,
    checkpoint: Option<&Path>,
    resume: bool,
    engine: &ExecEngine,
) -> Result<Vec<RoundReport>, RoundsError> {
    let mut driver = CampaignDriver::new(db, kernels, cfg, eval, checkpoint, resume, engine)?;
    while driver.step()?.is_some() {}
    Ok(driver.into_reports())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbgen::{fault_injected_harness, generate_database};
    use crate::harness::RetryPolicy;
    use hls_ir::kernels;
    use merlin_sim::{FaultConfig, MerlinSimulator};

    /// A campaign on a single-worker engine.
    fn serial_campaign<B: EvalBackend + Sync>(
        db: &mut Database,
        kernels: &[Kernel],
        cfg: &RoundsConfig,
        eval: &B,
        checkpoint: Option<&Path>,
        resume: bool,
    ) -> Result<Vec<RoundReport>, RoundsError> {
        run_rounds_with_engine(db, kernels, cfg, eval, checkpoint, resume, &ExecEngine::serial())
    }

    /// A simulator-validated campaign without a checkpoint.
    fn simulated_campaign(
        db: &mut Database,
        kernels: &[Kernel],
        cfg: &RoundsConfig,
    ) -> Vec<RoundReport> {
        serial_campaign(db, kernels, cfg, &MerlinSimulator::new(), None, false)
            .expect("rounds without a checkpoint path cannot fail")
    }

    #[test]
    fn fine_tuned_rounds_also_progress() {
        let ks = vec![kernels::gemm_ncubed()];
        let mut db = generate_database(&ks, &[("gemm-ncubed", 40)], 40, 51);
        let cfg = RoundsConfig { fine_tune: true, ..RoundsConfig::quick() };
        let reports = simulated_campaign(&mut db, &ks, &cfg);
        assert_eq!(reports.len(), 2);
        assert!(reports[1].avg_speedup >= reports[0].avg_speedup);
    }

    #[test]
    fn preloaded_round_one_model_is_identical_in_memory_or_from_artifact() {
        use crate::artifact::{decode_predictor, encode_predictor, ArtifactMeta};

        let ks = vec![kernels::spmv_ellpack()];
        let db0 = generate_database(&ks, &[("spmv-ellpack", 30)], 30, 31);
        let (p, _) = Predictor::train(
            &db0,
            &ks,
            ModelKind::Transformer,
            ModelConfig::small(),
            &TrainConfig::quick().with_epochs(2),
        );
        let meta = ArtifactMeta::describe(&p, &["spmv-ellpack".to_string()], 2);
        let bytes = encode_predictor(&p, &meta).unwrap();
        let (loaded, _) = decode_predictor(&bytes).unwrap();

        let mut db_mem = db0.clone();
        let mut db_loaded = db0.clone();
        let base = RoundsConfig { rounds: 1, ..RoundsConfig::quick() };
        let r_mem = simulated_campaign(
            &mut db_mem,
            &ks,
            &RoundsConfig { initial_model: Some(p), ..base.clone() },
        );
        let r_loaded = simulated_campaign(
            &mut db_loaded,
            &ks,
            &RoundsConfig { initial_model: Some(loaded), ..base },
        );
        assert_eq!(r_mem, r_loaded, "artifact round trip must not change the round");
        assert_eq!(db_mem.entries(), db_loaded.entries());
    }

    #[test]
    fn rounds_augment_the_database_and_improve() {
        let ks = vec![kernels::spmv_ellpack(), kernels::gemm_ncubed()];
        let mut db = generate_database(&ks, &[("spmv-ellpack", 30), ("gemm-ncubed", 50)], 40, 31);
        let before = db.len();
        let reports = simulated_campaign(&mut db, &ks, &RoundsConfig::quick());
        assert_eq!(reports.len(), 2);
        assert!(db.len() > before, "top designs must be committed");
        // Speedups should not regress across rounds (best-so-far is kept).
        for ks in reports.windows(2) {
            for (a, b) in ks[0].kernels.iter().zip(&ks[1].kernels) {
                assert!(b.speedup >= a.speedup - 1e-12, "{}: {} -> {}", a.kernel, a.speedup, b.speedup);
            }
        }
    }

    #[test]
    fn every_round_publishes_a_validated_front() {
        use crate::pareto::weakly_dominates;

        let ks = vec![kernels::gemm_ncubed()];
        let mut db = generate_database(&ks, &[("gemm-ncubed", 40)], 40, 51);
        let cfg = RoundsConfig::quick();
        let obj = cfg.dse.objective();
        let reports = simulated_campaign(&mut db, &ks, &cfg);
        let mut saw_points = false;
        for rep in &reports {
            for kr in &rep.kernels {
                let axes: Vec<_> = kr.front.iter().map(Evaluated::axes).collect();
                for (i, ev) in kr.front.iter().enumerate() {
                    saw_points = true;
                    assert!(obj.feasible_result(&ev.result), "front members are feasible");
                    assert_eq!(ev.epoch, rep.round, "front members carry their round");
                    for (j, other) in axes.iter().enumerate() {
                        if i != j {
                            assert!(
                                !weakly_dominates(other, &axes[i]),
                                "round {} front must be mutually non-dominated",
                                rep.round
                            );
                        }
                    }
                }
            }
        }
        assert!(saw_points, "a healthy campaign publishes at least one front point");
    }

    #[test]
    fn degraded_rounds_commit_the_successful_subset() {
        let ks = vec![kernels::spmv_ellpack()];
        let mut db = generate_database(&ks, &[("spmv-ellpack", 30)], 30, 31);
        let before = db.len();
        // Heavy fault rate and no retries so some top-M validations are lost.
        let h = fault_injected_harness(
            FaultConfig::uniform(0.6, 3),
            RetryPolicy::with_max_retries(0),
        );
        let reports =
            serial_campaign(&mut db, &ks, &RoundsConfig::quick(), &h, None, false).unwrap();
        assert_eq!(reports.len(), 2, "every round must complete despite losses");
        let total_lost: usize = reports.iter().map(|r| r.lost).sum();
        let total_added: usize =
            reports.iter().flat_map(|r| &r.kernels).map(|k| k.added).sum();
        assert!(total_lost > 0, "60% faults with no retries must lose candidates");
        assert_eq!(db.len(), before + total_added, "only successes are committed");
    }

    #[test]
    fn checkpoint_resume_is_byte_identical() {
        let dir = std::env::temp_dir().join("gnn_dse_rounds_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ks = vec![kernels::spmv_ellpack()];
        let base_db = generate_database(&ks, &[("spmv-ellpack", 30)], 30, 31);
        let cfg = RoundsConfig { rounds: 3, ..RoundsConfig::quick() };
        let sim = MerlinSimulator::new();

        // Uninterrupted run.
        let full_ck = dir.join("full.json");
        std::fs::remove_file(&full_ck).ok();
        let mut db_full = base_db.clone();
        let full_reports =
            serial_campaign(&mut db_full, &ks, &cfg, &sim, Some(&full_ck), false).unwrap();

        // Killed after round 1, then resumed.
        let part_ck = dir.join("part.json");
        std::fs::remove_file(&part_ck).ok();
        let mut db_killed = base_db.clone();
        let killed_cfg = RoundsConfig { stop_after: Some(1), ..cfg.clone() };
        let partial =
            serial_campaign(&mut db_killed, &ks, &killed_cfg, &sim, Some(&part_ck), false)
                .unwrap();
        assert_eq!(partial.len(), 1);

        let mut db_resumed = base_db.clone(); // stale copy, as after a crash
        let resumed_reports =
            serial_campaign(&mut db_resumed, &ks, &cfg, &sim, Some(&part_ck), true).unwrap();

        assert_eq!(resumed_reports, full_reports);
        let out_full = dir.join("db_full.json");
        let out_resumed = dir.join("db_resumed.json");
        db_full.save(&out_full).unwrap();
        db_resumed.save(&out_resumed).unwrap();
        assert_eq!(
            std::fs::read(&out_full).unwrap(),
            std::fs::read(&out_resumed).unwrap(),
            "resumed database must be byte-identical to the uninterrupted one"
        );
        for f in [&full_ck, &part_ck, &out_full, &out_resumed] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn resume_rejects_mismatched_kernels() {
        let dir = std::env::temp_dir().join("gnn_dse_rounds_mismatch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("ck.json");
        std::fs::remove_file(&ck).ok();
        let ks = vec![kernels::spmv_ellpack()];
        let mut db = generate_database(&ks, &[], 30, 31);
        let cfg = RoundsConfig { rounds: 1, ..RoundsConfig::quick() };
        let sim = MerlinSimulator::new();
        serial_campaign(&mut db, &ks, &cfg, &sim, Some(&ck), false).unwrap();

        let other = vec![kernels::gemm_ncubed()];
        let mut db2 = generate_database(&other, &[], 30, 31);
        let err = serial_campaign(&mut db2, &other, &cfg, &sim, Some(&ck), true).unwrap_err();
        assert!(matches!(err, RoundsError::Mismatch { .. }), "got {err}");
        std::fs::remove_file(&ck).ok();
    }

    #[test]
    fn corrupt_checkpoint_is_a_typed_error() {
        let dir = std::env::temp_dir().join("gnn_dse_rounds_corrupt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("bad.json");
        std::fs::write(&ck, "not a checkpoint").unwrap();
        let ks = vec![kernels::spmv_ellpack()];
        let mut db = generate_database(&ks, &[], 20, 31);
        let err = serial_campaign(
            &mut db,
            &ks,
            &RoundsConfig::quick(),
            &MerlinSimulator::new(),
            Some(&ck),
            true,
        )
        .unwrap_err();
        assert!(matches!(err, RoundsError::Corrupt { .. }), "got {err}");
        std::fs::remove_file(&ck).ok();
    }

    #[test]
    fn a_checkpoint_whose_carried_model_is_not_an_artifact_is_a_typed_error() {
        use serde::Value;

        let dir = std::env::temp_dir().join("gnn_dse_rounds_carried_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("ck.json");
        std::fs::remove_file(&ck).ok();
        let ks = vec![kernels::spmv_ellpack()];
        let base_db = generate_database(&ks, &[("spmv-ellpack", 30)], 30, 31);
        let cfg = RoundsConfig { fine_tune: true, ..RoundsConfig::quick() };
        let sim = MerlinSimulator::new();
        let killed = RoundsConfig { stop_after: Some(1), ..cfg.clone() };
        serial_campaign(&mut base_db.clone(), &ks, &killed, &sim, Some(&ck), false).unwrap();

        let json = std::fs::read_to_string(&ck).unwrap();
        let Ok(Value::Map(fields)) = serde_json::from_str::<Value>(&json) else {
            panic!("a checkpoint is a JSON object")
        };
        let hex = match fields.iter().find(|(k, _)| k == "carried_model") {
            Some((_, Value::Str(hex))) => hex.clone(),
            other => panic!("the carried model is a hex string, got {other:?}"),
        };
        let (carried, _) = decode_predictor(&from_hex(&hex).unwrap()).unwrap();
        let with_model = |model: Value| {
            let fields: Vec<(String, Value)> = fields
                .iter()
                .map(|(k, v)| {
                    let v = if k == "carried_model" { &model } else { v };
                    (k.clone(), v.clone())
                })
                .collect();
            serde_json::to_string(&Value::Map(fields)).unwrap()
        };
        let mut flipped = hex.clone().into_bytes();
        let mid = flipped.len() / 2;
        flipped[mid] = if flipped[mid] == b'0' { b'1' } else { b'0' };
        // The format before the model travelled as artifact bytes.
        let json_model = serde_json::from_str(&serde_json::to_string(&carried).unwrap()).unwrap();
        let cases = [
            ("JSON model", json_model),
            ("checksum", Value::Str(String::from_utf8(flipped).unwrap())),
            ("truncated", Value::Str(hex[..hex.len() / 2].to_string())),
            ("odd length", Value::Str(hex[1..].to_string())),
            ("not hex", Value::Str(hex.replacen('a', "g", 1))),
            ("upper case", Value::Str(hex.to_uppercase())),
        ];
        for (case, model) in cases {
            std::fs::write(&ck, with_model(model)).unwrap();
            let err = serial_campaign(&mut base_db.clone(), &ks, &cfg, &sim, Some(&ck), true)
                .expect_err(case);
            assert!(matches!(err, RoundsError::Corrupt { .. }), "{case}: got {err}");
        }
        // The intact hex resumes where the uninterrupted campaign goes.
        std::fs::write(&ck, with_model(Value::Str(hex))).unwrap();
        let resumed =
            serial_campaign(&mut base_db.clone(), &ks, &cfg, &sim, Some(&ck), true).unwrap();
        let full = serial_campaign(&mut base_db.clone(), &ks, &cfg, &sim, None, false).unwrap();
        assert_eq!(resumed, full);
        std::fs::remove_file(&ck).ok();
    }

    #[test]
    fn hex_round_trips_every_byte() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(to_hex(&[0x0f, 0xa0]), "0fa0");
        assert_eq!(from_hex(&to_hex(&bytes)), Some(bytes));
        assert_eq!(from_hex(""), Some(Vec::new()));
        for bad in ["0", "0g", "+1", "AB", "é0"] {
            assert_eq!(from_hex(bad), None, "{bad}");
        }
    }

    #[test]
    fn stepwise_driver_matches_run_to_completion() {
        let ks = vec![kernels::spmv_ellpack()];
        let base_db = generate_database(&ks, &[("spmv-ellpack", 30)], 30, 31);
        let cfg = RoundsConfig::quick();
        let sim = MerlinSimulator::new();
        let engine = ExecEngine::serial();

        let mut db_loop = base_db.clone();
        let loop_reports = simulated_campaign(&mut db_loop, &ks, &cfg);

        let mut db_step = base_db.clone();
        let mut driver =
            CampaignDriver::new(&mut db_step, &ks, &cfg, &sim, None, false, &engine).unwrap();
        assert_eq!(driver.next_round(), 1);
        assert!(!driver.is_done());
        let mut stepped = 0;
        while let Some(report) = driver.step().unwrap() {
            stepped += 1;
            assert_eq!(report.round, stepped);
            assert!(driver.carried_model().is_some(), "each step leaves a publishable model");
        }
        assert!(driver.is_done());
        assert_eq!(stepped, cfg.rounds);
        // A step past the end is a no-op, not an error.
        assert!(driver.step().unwrap().is_none());
        let step_reports = driver.into_reports();

        assert_eq!(step_reports, loop_reports, "stepping must equal the loop");
        assert_eq!(db_step.entries(), db_loop.entries());
    }

    #[test]
    fn driver_records_validated_results_in_an_attached_replay_buffer() {
        let ks = vec![kernels::spmv_ellpack()];
        let mut db = generate_database(&ks, &[("spmv-ellpack", 30)], 30, 31);
        let before = db.len();
        let cfg = RoundsConfig { fine_tune: true, ..RoundsConfig::quick() };
        let sim = MerlinSimulator::new();
        let engine = ExecEngine::serial();
        let mut driver =
            CampaignDriver::new(&mut db, &ks, &cfg, &sim, None, false, &engine).unwrap();
        driver.attach_replay(ReplayBuffer::new(64));
        while driver.step().unwrap().is_some() {}
        let buf = driver.take_replay().expect("buffer stays attached");
        drop(driver);
        let added = db.len() - before;
        assert_eq!(buf.len(), added, "every committed validation lands in the buffer once");
        assert_eq!(buf.as_database().len(), buf.len());
    }
}
