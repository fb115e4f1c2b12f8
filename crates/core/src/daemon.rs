//! The continuous-learning daemon (`gnndse daemon`): serve predictions
//! while a background trainer fine-tunes and hot-swaps the model.
//!
//! One process, two planes:
//!
//! * the **serving plane** — the replicated prediction server of
//!   [`gdse_serve`] behind an [`ArtifactProvider`], answering `predict`
//!   traffic exactly like `gnndse serve`;
//! * the **learning plane** — a background thread stepping a
//!   [`CampaignDriver`] (one DSE/validate/fine-tune round per step, §4.4),
//!   with a [`ReplayBuffer`] of freshly validated oracle results feeding
//!   each fine-tune batch.
//!
//! After every completed round the learner writes the fine-tuned model to
//! the served `.gdse` artifact **atomically** and triggers the provider's
//! reload path: the artifact is checksum- and canary-validated, replicas
//! cut over at their next batch boundary, and every response carries the
//! new `epoch`. A rejected artifact (e.g. corrupted on disk) rolls back —
//! the old epoch keeps serving, `serve.reload_failures` increments, and
//! the learner simply tries again after its next round. The daemon
//! **survives swap failure by design**; it never stops serving to learn.
//!
//! ## Crash safety
//!
//! Three files persist the learning state, all written atomically:
//! the campaign checkpoint (database + reports + carried model, one
//! document, from [`CampaignDriver`]), the replay window (via the
//! crash-safe DB path), and the `.gdse` artifact itself. A killed daemon
//! restarted on the same paths resumes the campaign from the last round
//! boundary with the replay window it had.
//!
//! ## Observability
//!
//! The learner books its state once, into the server's live registry —
//! `learn.rounds`, `learn.swaps`, `learn.swap_failures` counters and
//! `learn.buffer_depth` / `learn.last_loss` gauges show up in
//! `admin stats` next to the `serve.*` series and reach the run report
//! through the server's fold at shutdown. Everything else the learner
//! books (DSE, training, validation) stays in its own thread's registry,
//! which the campaign checkpoints and `run` merges. It also answers the
//! `{"learn-status": true}` admin verb (`gnndse admin ADDR learn-status`)
//! with a full status document: driver state, rounds completed, serving
//! epoch, buffer depth, last fine-tune loss, swap counts.

use crate::artifact::ArtifactMeta;
use crate::db::Database;
use crate::inference::Predictor;
use crate::learn::{ReplayBuffer, ReplayStats};
use crate::parallel::ExecEngine;
use crate::rounds::{CampaignDriver, RoundReport, RoundsConfig};
use crate::serving::ArtifactProvider;
use gdse_obs as obs;
use gdse_serve::{LearnStatusSource, ModelProvider, ServeConfig, Server, ServerHandle};
use hls_ir::Kernel;
use merlin_sim::MerlinSimulator;
use serde::Value;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything a daemon needs: where to serve, where the training state
/// lives on disk, and how aggressively to learn.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address (port 0 binds an ephemeral port; read it back from
    /// [`Daemon::addr`]).
    pub addr: String,
    /// The seed database of evaluated designs (must exist; the augmented
    /// database is saved back here when the learner finishes).
    pub db: PathBuf,
    /// The served `.gdse` artifact. Missing = bootstrap-train one from the
    /// database before serving; present = serve it and fine-tune from it.
    pub artifact: PathBuf,
    /// The campaign checkpoint. When the file exists the campaign
    /// **resumes** from it; otherwise a fresh campaign starts.
    pub checkpoint: PathBuf,
    /// The persisted replay window. Restored when present, else seeded
    /// from the newest database entries.
    pub replay: PathBuf,
    /// Replay-window bound (validated results kept for fine-tuning).
    pub replay_capacity: usize,
    /// The campaign itself. `fine_tune`, `fine_tune_initial`, and
    /// `initial_model` are overridden by the daemon (it always fine-tunes
    /// the artifact it serves).
    pub rounds: RoundsConfig,
    /// Serving-plane knobs (replicas, queues, timeouts, reload watch).
    pub serve: ServeConfig,
    /// Total worker budget, split across replicas like `gnndse serve`;
    /// the learner's engine uses the full budget (it runs between waves).
    pub jobs: usize,
    /// Pause between learning rounds, so serving traffic gets the machine
    /// between fine-tunes. Shutdown is polled during the pause.
    pub round_pause: Duration,
}

impl DaemonConfig {
    /// A small-footprint configuration for tests: quick campaign, tiny
    /// pause, ephemeral port.
    pub fn quick(dir: &std::path::Path) -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            db: dir.join("daemon-db.json"),
            artifact: dir.join("daemon-model.gdse"),
            checkpoint: dir.join("daemon-ck.json"),
            replay: dir.join("daemon-replay.json"),
            replay_capacity: 256,
            rounds: RoundsConfig::quick(),
            serve: ServeConfig::default(),
            jobs: 1,
            round_pause: Duration::from_millis(25),
        }
    }
}

/// What one daemon run did: every completed round, and whether the
/// learning plane failed (the serving plane outlives learner failures on
/// purpose). The serving counters are in the caller's metrics registry.
#[derive(Debug)]
pub struct DaemonReport {
    /// Reports of every round the campaign completed, including rounds
    /// replayed from a resumed checkpoint.
    pub rounds: Vec<RoundReport>,
    /// Why the learning plane stopped early, if it did.
    pub learner_error: Option<String>,
}

#[derive(Debug, Clone, Default)]
struct StatusInner {
    state: String,
    rounds_completed: u64,
    rounds_planned: u64,
    buffer_depth: u64,
    buffer_capacity: u64,
    last_loss: Option<f64>,
    swaps: u64,
    swap_failures: u64,
    last_error: Option<String>,
    replay: ReplayStats,
}

/// The `learn-status` answer source: a snapshot of the learning plane,
/// updated by the learner at every state transition and served through
/// the admin socket. The `epoch` field is read live from the provider.
pub struct DaemonStatus {
    provider: Arc<dyn ModelProvider>,
    inner: Mutex<StatusInner>,
}

impl DaemonStatus {
    fn new(provider: Arc<dyn ModelProvider>, rounds_planned: u64, capacity: u64) -> Self {
        DaemonStatus {
            provider,
            inner: Mutex::new(StatusInner {
                state: "starting".into(),
                rounds_planned,
                buffer_capacity: capacity,
                ..StatusInner::default()
            }),
        }
    }

    fn update(&self, f: impl FnOnce(&mut StatusInner)) {
        f(&mut self.inner.lock().expect("status lock"));
    }

    /// Marks the learning plane `failed` with `error`, and returns it.
    fn fail(&self, error: String) -> String {
        self.update(|s| {
            s.state = "failed".into();
            s.last_error = Some(error.clone());
        });
        error
    }

    /// The driver's current state label (`starting`, `round N`,
    /// `complete`, `stopped`, `failed`).
    pub fn state(&self) -> String {
        self.inner.lock().expect("status lock").state.clone()
    }

    /// Rounds the campaign has completed so far.
    pub fn rounds_completed(&self) -> u64 {
        self.inner.lock().expect("status lock").rounds_completed
    }

    /// Successful hot swaps so far.
    pub fn swaps(&self) -> u64 {
        self.inner.lock().expect("status lock").swaps
    }

    /// Rejected hot swaps so far (old epoch kept serving).
    pub fn swap_failures(&self) -> u64 {
        self.inner.lock().expect("status lock").swap_failures
    }
}

impl LearnStatusSource for DaemonStatus {
    fn learn_status(&self) -> Value {
        let s = self.inner.lock().expect("status lock").clone();
        let opt_f = |v: Option<f64>| v.map_or(Value::Null, Value::Float);
        let opt_s = |v: Option<String>| v.map_or(Value::Null, Value::Str);
        Value::Map(vec![
            ("state".into(), Value::Str(s.state)),
            ("round".into(), Value::Int(i128::from(s.rounds_completed))),
            ("rounds_planned".into(), Value::Int(i128::from(s.rounds_planned))),
            ("epoch".into(), Value::Int(i128::from(self.provider.epoch()))),
            ("buffer_depth".into(), Value::Int(i128::from(s.buffer_depth))),
            ("buffer_capacity".into(), Value::Int(i128::from(s.buffer_capacity))),
            ("last_loss".into(), opt_f(s.last_loss)),
            ("swaps".into(), Value::Int(i128::from(s.swaps))),
            ("swap_failures".into(), Value::Int(i128::from(s.swap_failures))),
            ("replay_inserted".into(), Value::Int(i128::from(s.replay.inserted))),
            ("replay_duplicates".into(), Value::Int(i128::from(s.replay.duplicates))),
            ("replay_evicted".into(), Value::Int(i128::from(s.replay.evicted))),
            ("last_error".into(), opt_s(s.last_error)),
        ])
    }
}

/// A started daemon: the serving plane is bound and the learning plane is
/// running. Call [`run`](Daemon::run) to hand the accept loop the current
/// thread.
pub struct Daemon {
    server: Server,
    handle: ServerHandle,
    status: Arc<DaemonStatus>,
    learner: JoinHandle<Result<(Vec<RoundReport>, obs::MetricsSnapshot), String>>,
}

impl Daemon {
    /// Loads (or bootstrap-trains) the artifact, binds the serving plane,
    /// and spawns the learning plane.
    ///
    /// # Errors
    ///
    /// Unreadable or untrainable database (see
    /// [`Database::training_kernels`]), bootstrap train/save failure,
    /// artifact load failure, or bind failure.
    pub fn start(cfg: DaemonConfig) -> Result<Daemon, String> {
        let db = {
            let _io = obs::span::stage("io");
            Database::load(&cfg.db).map_err(|e| e.to_string())?
        };
        let kernel_set =
            db.training_kernels().map_err(|e| format!("{} {e}", cfg.db.display()))?;
        let kernel_names: Vec<String> =
            kernel_set.iter().map(|k| k.name().to_string()).collect();

        // Bootstrap: no artifact yet means nothing to serve, so train one
        // from the seed database before binding.
        if !cfg.artifact.exists() {
            let _train = obs::span::stage("bootstrap_train");
            obs::info!(
                "daemon.bootstrap",
                "no artifact at {}; training one from {} designs",
                cfg.artifact.display(),
                db.len();
                designs = db.len(),
            );
            let (p, _) = Predictor::train(
                &db,
                &kernel_set,
                cfg.rounds.model,
                cfg.rounds.model_cfg.clone(),
                &cfg.rounds.train_cfg,
            );
            let meta = ArtifactMeta::describe(&p, &kernel_names, cfg.rounds.train_cfg.epochs);
            p.save_artifact(&cfg.artifact, &meta).map_err(|e| e.to_string())?;
        }
        let (initial, _meta) =
            Predictor::load_artifact(&cfg.artifact).map_err(|e| e.to_string())?;

        // The daemon always fine-tunes the artifact it serves: round 1
        // starts from the served model, not from scratch and not as-is.
        let mut rounds_cfg = cfg.rounds.clone();
        rounds_cfg.initial_model = Some(initial);
        rounds_cfg.fine_tune = true;
        rounds_cfg.fine_tune_initial = true;

        let replicas = cfg.serve.replicas.max(1);
        let per_replica_jobs = (cfg.jobs / replicas).max(1);
        let provider = Arc::new(ArtifactProvider::open(&cfg.artifact, per_replica_jobs)?);
        let server = Server::bind_with_provider(
            &cfg.addr,
            cfg.serve,
            Arc::clone(&provider) as Arc<dyn ModelProvider>,
        )
        .map_err(|e| e.to_string())?;
        let handle = server.handle();
        let status = Arc::new(DaemonStatus::new(
            Arc::clone(&provider) as Arc<dyn ModelProvider>,
            rounds_cfg.rounds as u64,
            cfg.replay_capacity as u64,
        ));
        handle.attach_learn_status(Arc::clone(&status) as Arc<dyn LearnStatusSource>);

        let resume = cfg.checkpoint.exists();
        let replay = if cfg.replay.exists() {
            ReplayBuffer::load(&cfg.replay, cfg.replay_capacity).map_err(|e| e.to_string())?
        } else {
            ReplayBuffer::seed_from(&db, cfg.replay_capacity)
        };
        {
            let mut s = status.inner.lock().expect("daemon status lock");
            s.buffer_depth = replay.len() as u64;
        }
        obs::info!(
            "daemon.start",
            "daemon on {} ({} kernels, {} designs, {} replay entries, resume={resume})",
            server.local_addr(),
            kernel_set.len(),
            db.len(),
            replay.len();
            kernels = kernel_set.len(),
            designs = db.len(),
            replay = replay.len(),
        );

        let learner = {
            let handle = handle.clone();
            let live = handle.live_metrics();
            let status = Arc::clone(&status);
            std::thread::spawn(move || {
                learner_loop(
                    db,
                    kernel_set,
                    kernel_names,
                    rounds_cfg,
                    cfg.db,
                    cfg.artifact,
                    cfg.checkpoint,
                    cfg.replay,
                    replay,
                    resume,
                    cfg.jobs,
                    cfg.round_pause,
                    &handle,
                    &live,
                    &status,
                )
            })
        };
        Ok(Daemon { server, handle, status, learner })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// A remote control of the serving plane (shutdown, reload, stats).
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// The learning plane's status, as `learn-status` serves it.
    pub fn status(&self) -> Arc<DaemonStatus> {
        Arc::clone(&self.status)
    }

    /// Runs the serving plane until shutdown (admin verb, handle, or
    /// request limit), then joins the learning plane and folds both
    /// planes' metrics — the live registry with its `serve.*` and `learn.*`
    /// series, and the learner's own registry — into the caller's.
    ///
    /// # Errors
    ///
    /// Only a panicked learner thread; a learner that failed cleanly is
    /// reported in [`DaemonReport::learner_error`].
    pub fn run(self) -> Result<DaemonReport, String> {
        let Daemon { server, handle, learner, .. } = self;
        {
            let _serve = obs::span::stage("serve");
            // `Server::run` folds the live registry into the thread that
            // runs it, but the learner books `learn.*` there until it
            // stops, which can be after the server stopped. So the server
            // runs on a helper thread whose registry is dropped, and the
            // live registry is folded below, once both have stopped.
            if let Err(panic) = std::thread::spawn(move || server.run()).join() {
                std::panic::resume_unwind(panic);
            }
        }
        // `run` returning means shutdown began; make it explicit anyway so
        // the learner cannot outlive the serving plane.
        handle.shutdown();
        let learned = learner.join();
        obs::metrics::merge(&handle.live_metrics().snapshot());
        match learned {
            Ok(Ok((rounds, snap))) => {
                obs::metrics::merge(&snap);
                Ok(DaemonReport { rounds, learner_error: None })
            }
            Ok(Err(e)) => Ok(DaemonReport { rounds: Vec::new(), learner_error: Some(e) }),
            Err(_) => Err("learner thread panicked".into()),
        }
    }
}

/// The learning plane: step the campaign, persist, publish, swap, pause —
/// until the campaign is done or the serving plane shuts down. Returns the
/// round reports plus this thread's metric registry (the caller merges it);
/// the `learn.*` series go to `live` instead.
#[allow(clippy::too_many_arguments)]
fn learner_loop(
    mut db: Database,
    kernel_set: Vec<Kernel>,
    kernel_names: Vec<String>,
    rounds_cfg: RoundsConfig,
    db_path: PathBuf,
    artifact: PathBuf,
    checkpoint: PathBuf,
    replay_path: PathBuf,
    replay: ReplayBuffer,
    resume: bool,
    jobs: usize,
    round_pause: Duration,
    handle: &ServerHandle,
    live: &Arc<obs::metrics::SharedMetrics>,
    status: &DaemonStatus,
) -> Result<(Vec<RoundReport>, obs::MetricsSnapshot), String> {
    let engine = ExecEngine::with_jobs(jobs);
    let sim = MerlinSimulator::new();
    let mut driver = match CampaignDriver::new(
        &mut db,
        &kernel_set,
        &rounds_cfg,
        &sim,
        Some(checkpoint.as_path()),
        resume,
        &engine,
    ) {
        Ok(d) => d,
        Err(e) => return Err(status.fail(e.to_string())),
    };
    driver.attach_replay(replay);
    status.update(|s| {
        s.rounds_completed = driver_completed(&driver);
        s.state = "running".into();
    });

    loop {
        if handle.is_shutting_down() {
            status.update(|s| s.state = "stopped".into());
            break;
        }
        if driver.is_done() {
            status.update(|s| s.state = "complete".into());
            break;
        }
        let round = driver.next_round();
        if run_round(status, round, || driver.step())?.is_none() {
            continue; // done; the loop head reports it
        }

        // Persist the replay window next to the checkpoint the step just
        // wrote, so a kill between rounds loses neither.
        if let Some(buf) = driver.replay() {
            if let Err(e) = buf.save(&replay_path) {
                obs::warn!(
                    "learn.replay_save_failed",
                    "cannot persist replay window to {}: {e}",
                    replay_path.display()
                );
            }
        }

        // Publish: write the fine-tuned model atomically over the served
        // artifact, then ask the provider to validate + cut over. A
        // rejected swap is survivable — the old epoch keeps serving and
        // the next round overwrites the artifact again.
        let mut swap = None;
        if let Some(model) = driver.carried_model() {
            let meta = ArtifactMeta::describe(model, &kernel_names, round);
            if let Err(e) = model.save_artifact(&artifact, &meta) {
                return Err(status.fail(format!("cannot write artifact: {e}")));
            }
            match handle.reload() {
                Ok(epoch) => {
                    status.update(|s| s.swaps += 1);
                    obs::info!(
                        "learn.swapped",
                        "round {round}: replicas cutting over to epoch {epoch}";
                        round = round,
                        epoch = epoch,
                    );
                    swap = Some("learn.swaps");
                }
                Err(e) => {
                    obs::warn!(
                        "learn.swap_failed",
                        "round {round}: artifact rejected ({e}); previous epoch keeps serving"
                    );
                    status.update(|s| {
                        s.swap_failures += 1;
                        s.last_error = Some(e);
                    });
                    swap = Some("learn.swap_failures");
                }
            }
        }

        // The fine-tune loss is in this thread's own registry; read it
        // before binding to the live one.
        let loss = obs::metrics::gauge_value("train.epoch_loss");
        let (depth, rstats) =
            driver.replay().map_or((0, ReplayStats::default()), |b| (b.len(), b.stats()));
        {
            let _live = obs::metrics::bind(live);
            obs::metrics::counter_inc("learn.rounds");
            if let Some(counter) = swap {
                obs::metrics::counter_inc(counter);
            }
            obs::metrics::gauge_set("learn.buffer_depth", depth as f64);
            if let Some(l) = loss {
                obs::metrics::gauge_set("learn.last_loss", l);
            }
        }
        status.update(|s| {
            s.rounds_completed = round as u64;
            s.buffer_depth = depth as u64;
            s.last_loss = loss;
            s.replay = rstats;
        });

        // Yield the machine to serving traffic between rounds, but wake
        // promptly on shutdown.
        let pause_until = Instant::now() + round_pause;
        while Instant::now() < pause_until && !handle.is_shutting_down() {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    if let Some(buf) = driver.take_replay() {
        if let Err(e) = buf.save(&replay_path) {
            obs::warn!(
                "learn.replay_save_failed",
                "cannot persist replay window to {}: {e}",
                replay_path.display()
            );
        }
    }
    let reports = driver.into_reports();
    {
        let _io = obs::span::stage("io");
        if let Err(e) = db.save(&db_path) {
            obs::warn!(
                "learn.db_save_failed",
                "cannot save augmented database to {}: {e}",
                db_path.display()
            );
        }
    }
    Ok((reports, obs::metrics::snapshot()))
}

/// Runs learning round `round`: marks the status `round N`, then runs
/// `step`. A step that fails or panics marks the learning plane `failed`
/// and returns the error, which for a panic names the round and the panic
/// message. The serving plane keeps serving either way.
fn run_round<T, E: std::fmt::Display>(
    status: &DaemonStatus,
    round: usize,
    step: impl FnOnce() -> Result<T, E>,
) -> Result<T, String> {
    status.update(|s| s.state = format!("round {round}"));
    // The step's state is dropped unused after a panic.
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(step)) {
        Ok(result) => result.map_err(|e| status.fail(e.to_string())),
        Err(panic) => {
            let message = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("a panic without a message");
            Err(status.fail(format!("round {round} panicked: {message}")))
        }
    }
}

/// Completed-round count of a driver (next round is 1-based).
fn driver_completed<B: crate::harness::EvalBackend + Sync>(
    driver: &CampaignDriver<'_, B>,
) -> u64 {
    driver.next_round().saturating_sub(1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdse_serve::{BatchPredictor, PredictionRow, StaticProvider};

    struct NoModel;

    impl BatchPredictor for NoModel {
        fn predict(&self, _: &str, _: &[u128]) -> Result<Vec<PredictionRow>, String> {
            Err("no model".into())
        }
    }

    fn status() -> DaemonStatus {
        DaemonStatus::new(Arc::new(StaticProvider::new(NoModel)), 3, 8)
    }

    fn last_error(status: &DaemonStatus) -> Option<String> {
        status.inner.lock().expect("status lock").last_error.clone()
    }

    #[test]
    fn a_panicking_round_marks_the_learner_failed_with_the_round_and_the_message() {
        let status = status();
        let err = run_round::<(), String>(&status, 2, || panic!("replay entry {} is torn", 7));
        assert_eq!(err, Err("round 2 panicked: replay entry 7 is torn".to_string()));
        assert_eq!(status.state(), "failed");
        assert_eq!(last_error(&status), err.err());
        let err = run_round::<(), String>(&status, 3, || panic!("static message"));
        assert_eq!(err, Err("round 3 panicked: static message".to_string()));
    }

    #[test]
    fn a_round_that_returns_reports_its_result() {
        let status = status();
        assert_eq!(run_round(&status, 1, || Ok::<_, String>(5)), Ok(5));
        assert_eq!(status.state(), "round 1");
        assert_eq!(last_error(&status), None);
        assert_eq!(run_round::<(), _>(&status, 2, || Err("disk full")), Err("disk full".into()));
        assert_eq!(status.state(), "failed");
        assert_eq!(last_error(&status).as_deref(), Some("disk full"));
    }
}
