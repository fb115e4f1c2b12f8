//! The supervised replica pool: N workers, each owning its own model
//! backend, behind consistent per-kernel shard routing.
//!
//! ## Topology
//!
//! Every replica owns a private [`BatchPredictor`] instance (built through
//! the pool's [`ModelProvider`]) and a private bounded queue. Requests are
//! routed to `fnv1a(kernel) % replicas` — the *home* replica — so each
//! replica's per-kernel caches stay hot. The degradation ladder, in order:
//!
//! 1. home replica up, queue has room → enqueue (the fast path);
//! 2. home replica **down** → probe siblings in ring order, enqueue at the
//!    first healthy one (cold caches beat no answer);
//! 3. first healthy replica's queue **full** → shed: 429 + `retry_after_ms`
//!    (deliberately *not* spilled to siblings — overload must surface as
//!    backpressure, not cascade through every queue);
//! 4. no healthy replica at all → 503.
//!
//! ## Supervision
//!
//! A replica that panics inside its backend (or is crashed by the
//! `kill_replica` chaos drill) is isolated: its un-answered jobs — both the
//! in-flight batch and its queued backlog — are handed to the supervisor,
//! which re-routes them to healthy siblings (bounded by
//! [`MAX_ATTEMPTS`], so a poison-pill request becomes a 500 instead of
//! serially crashing every replica). The supervisor then restarts the
//! replica with exponential backoff, doubling per consecutive failure up to
//! a cap, and resetting once a replica stays up.
//!
//! A replica *wedged* inside its backend (no progress for
//! `wedge_timeout`) is treated like a crash, except the stuck thread cannot
//! be killed: it is retired by bumping the slot's generation token —
//! if it ever wakes it answers its stale batch (late answers beat no
//! answers) and exits on the next generation check — while a fresh
//! replica takes over the slot.
//!
//! ## Hot swap
//!
//! The provider owns the model version; replicas compare the provider's
//! epoch against their own at every batch boundary and rebuild their
//! backend when it moved — a rolling, zero-downtime cut-over in which
//! every response is tagged with the epoch of the model that produced it.

use crate::protocol::{PredictionRow, Response};
use crate::queue::{BoundedQueue, PushError};
use gdse_obs as obs;
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bucket edges of the `serve.batch_size` histogram.
pub const BATCH_EDGES: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// How long blocked waits sleep before re-checking control flags.
pub(crate) const POLL: Duration = Duration::from_millis(25);

/// The `retry_after_ms` hint of every 429 a full queue sheds.
pub(crate) const RETRY_AFTER_MS: u64 = 50;

/// Most times one request is (re-)dispatched to a replica before it is
/// answered 500 — the poison-pill bound.
pub const MAX_ATTEMPTS: u32 = 3;

/// The model backend one replica batches requests into.
///
/// Implementations answer one kernel's worth of design-point indices per
/// call — the natural unit for amortized graph encoding. `Err` fails the
/// whole group (e.g. unknown kernel); per-row failure is not modelled.
/// A panic inside `predict` crashes only the calling replica: the
/// supervisor re-routes its requests and restarts it.
pub trait BatchPredictor: Send + Sync {
    /// Predicts QoR for `indices` of `kernel`'s design space, one row per
    /// index, in order.
    ///
    /// # Errors
    ///
    /// A human-readable reason the group cannot be served (reported to each
    /// client as a `status: "error"` response).
    fn predict(&self, kernel: &str, indices: &[u128]) -> Result<Vec<PredictionRow>, String>;
}

/// Where replicas get their model backends, versioned by **epoch**.
///
/// One provider serves the whole pool; each replica builds its own backend
/// instance from it (so backends never share mutable state) and rebuilds
/// whenever [`ModelProvider::epoch`] moves past the epoch it was built at.
pub trait ModelProvider: Send + Sync {
    /// The epoch of the model version currently offered (0 = unversioned).
    fn epoch(&self) -> u64;

    /// Builds a fresh backend at the current version, returning it together
    /// with the epoch it was built at (read atomically, so a concurrent
    /// reload cannot mislabel it).
    ///
    /// # Errors
    ///
    /// A human-readable reason no backend can be built right now.
    fn build(&self) -> Result<(Box<dyn BatchPredictor>, u64), String>;

    /// Re-reads the model source, validates it, and — only if **every**
    /// check passes — cuts over and returns the new epoch. On any failure
    /// the previous version must keep serving (rollback is the default,
    /// not an action).
    ///
    /// # Errors
    ///
    /// Why the new version was rejected (the old one is still serving).
    fn reload(&self) -> Result<u64, String>;

    /// Checks whether the model source changed underneath (e.g. artifact
    /// mtime) and reloads if so. `None` = unchanged; `Some` = a reload was
    /// attempted, with [`ModelProvider::reload`]'s result.
    fn poll_reload(&self) -> Option<Result<u64, String>> {
        None
    }
}

/// Where the `learn-status` admin verb gets its answer.
///
/// A continuous-learning daemon attaches one of these to the server
/// ([`crate::ServerHandle::attach_learn_status`]) so operators can inspect
/// the background trainer — current round, model epoch, replay-buffer
/// depth, last fine-tune loss — through the same admin socket that serves
/// `stats`. Servers without a learner answer the verb with 404.
pub trait LearnStatusSource: Send + Sync {
    /// A JSON document describing the learner's current state.
    fn learn_status(&self) -> serde::Value;
}

/// A [`ModelProvider`] over one fixed backend shared by every replica:
/// epoch 0, never reloadable. What [`crate::Server::bind`] wraps a bare
/// [`BatchPredictor`] in.
pub struct StaticProvider {
    backend: Arc<dyn BatchPredictor>,
}

impl StaticProvider {
    /// Wraps `backend` as an unversioned model source.
    pub fn new(backend: impl BatchPredictor + 'static) -> Self {
        StaticProvider { backend: Arc::new(backend) }
    }
}

struct SharedBackend(Arc<dyn BatchPredictor>);

impl BatchPredictor for SharedBackend {
    fn predict(&self, kernel: &str, indices: &[u128]) -> Result<Vec<PredictionRow>, String> {
        self.0.predict(kernel, indices)
    }
}

impl ModelProvider for StaticProvider {
    fn epoch(&self) -> u64 {
        0
    }

    fn build(&self) -> Result<(Box<dyn BatchPredictor>, u64), String> {
        Ok((Box::new(SharedBackend(Arc::clone(&self.backend))), 0))
    }

    fn reload(&self) -> Result<u64, String> {
        Err("static model source cannot be reloaded".into())
    }
}

/// FNV-1a over the kernel name: the shard-routing hash. Stable across
/// runs, so a kernel always lands on the same home replica.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One in-flight request: owned by whichever replica popped it, handed
/// back to the supervisor if that replica dies before answering.
pub(crate) struct Job {
    pub id: u64,
    pub kernel: String,
    pub index: u128,
    /// Dispatch count; capped at [`MAX_ATTEMPTS`].
    pub attempts: u32,
    pub enqueued: Instant,
    /// When the router last pushed this job onto a replica queue — the
    /// boundary between the `route` and `queue_wait` spans.
    pub routed: Instant,
    /// The replica that popped this job (None until then, or when it
    /// never reached one).
    pub replica: Option<usize>,
    /// The request's span timeline, appended to at every hop and handed
    /// back to the connection handler inside [`Answer`].
    pub trace: obs::trace::TraceBuilder,
    pub reply: mpsc::Sender<Answer>,
}

/// What a replica (or the shed/error path) sends back on a job's reply
/// channel: the response plus the trace that traveled with the request,
/// so the handler can seal the timeline after the `write` span.
pub(crate) struct Answer {
    pub response: Response,
    pub trace: obs::trace::TraceBuilder,
    pub replica: Option<usize>,
}

/// Per-replica shared state: the routing/queueing surface of one replica.
pub(crate) struct ReplicaSlot {
    pub queue: BoundedQueue<Job>,
    /// Healthy and accepting work.
    pub up: AtomicBool,
    /// Chaos drill: crash on the next loop iteration.
    kill: AtomicBool,
    /// Instance token: bumped to retire a wedged thread.
    generation: AtomicU64,
    /// Model epoch of the backend currently serving this slot.
    pub epoch: AtomicU64,
    /// Times this slot's replica was restarted by the supervisor.
    pub restarts: AtomicU64,
    /// `0` when idle, else (ms since pool start of the current backend
    /// call) + 1 — the wedge-detection heartbeat.
    busy_since_ms: AtomicU64,
}

impl ReplicaSlot {
    fn new(capacity: usize, observer: Option<crate::queue::DepthObserver>) -> Self {
        ReplicaSlot {
            queue: BoundedQueue::with_observer(capacity, observer),
            // Born up (optimistically): requests arriving while the first
            // backend is still building queue here instead of bouncing
            // with 503; a failed build crashes the replica and the
            // supervisor re-routes whatever queued.
            up: AtomicBool::new(true),
            kill: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            busy_since_ms: AtomicU64::new(0),
        }
    }
}

/// Why a replica thread exited; `orphans` are its un-answered jobs.
enum ExitKind {
    /// Backend panic, build failure, or kill drill — supervise and restart.
    Crashed { cause: String, orphans: Vec<Job> },
    /// Retired by a generation bump (wedge takeover) — a successor is
    /// already running; just re-route what this instance still held.
    Retired { orphans: Vec<Job> },
    /// Queue closed and drained: clean shutdown.
    Drained,
}

struct Exit {
    slot: usize,
    generation: u64,
    kind: ExitKind,
}

/// Everything the accept loop, connection handlers, replicas, and the
/// supervisor share.
pub(crate) struct Shared {
    pub slots: Vec<Arc<ReplicaSlot>>,
    pub provider: Arc<dyn ModelProvider>,
    pub config: crate::server::ServeConfig,
    pub shutdown: AtomicBool,
    pub addr: SocketAddr,
    /// The server's one registry: every thread the server spawns runs
    /// bound to it ([`spawn_bound`]), so each fact is booked once and
    /// `admin stats` reads it while the server runs. `Server::run` folds it
    /// into the caller's registry when it returns.
    pub live: Arc<obs::metrics::SharedMetrics>,
    /// Bounded rings of completed request traces (`admin trace`'s source).
    pub recorder: Arc<obs::trace::FlightRecorder>,
    /// The attached continuous-learning status source, if any (`admin
    /// learn-status` answers 404 while this is `None`).
    pub learn: Mutex<Option<Arc<dyn LearnStatusSource>>>,
    started: Instant,
}

impl Shared {
    pub fn new(
        config: crate::server::ServeConfig,
        provider: Arc<dyn ModelProvider>,
        addr: SocketAddr,
    ) -> Self {
        let replicas = config.replicas.max(1);
        let live = Arc::new(obs::metrics::SharedMetrics::new());
        let slots = (0..replicas)
            .map(|i| {
                // Each queue reports its depth into the live registry the
                // moment it changes — `admin stats` shows instantaneous
                // backlog, not a stale poll — whichever thread moved it.
                let live = Arc::clone(&live);
                let gauge = obs::metrics::labeled("serve.queue_depth", "replica", &i.to_string());
                let observer: crate::queue::DepthObserver = Box::new(move |depth| {
                    let _live = obs::metrics::bind(&live);
                    obs::metrics::gauge_set(&gauge, depth as f64);
                });
                Arc::new(ReplicaSlot::new(config.queue_capacity, Some(observer)))
            })
            .collect();
        Shared {
            slots,
            recorder: Arc::new(obs::trace::FlightRecorder::new(
                replicas,
                config.trace_capacity,
            )),
            live,
            provider,
            config,
            shutdown: AtomicBool::new(false),
            addr,
            learn: Mutex::new(None),
            started: Instant::now(),
        }
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    pub fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            for slot in &self.slots {
                slot.queue.close();
            }
            // Unblock the accept loop with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Total depth across every replica queue.
    pub fn queue_depth(&self) -> usize {
        self.slots.iter().map(|s| s.queue.len()).sum()
    }

    /// The model epoch currently offered by the provider.
    pub fn epoch(&self) -> u64 {
        self.provider.epoch()
    }

    /// Forces a model reload through the provider. Runs bound to the live
    /// registry whichever thread asked, so the reload's counters (and
    /// anything the provider books while validating) land there.
    pub fn reload(&self) -> Result<u64, String> {
        let _live = obs::metrics::bind(&self.live);
        let result = self.provider.reload();
        obs::metrics::counter_inc(if result.is_ok() {
            "serve.reloads"
        } else {
            "serve.reload_failures"
        });
        result
    }

    /// Chaos drill: crash replica `replica` (it restarts under
    /// supervision). Only raises the slot's kill flag, so it books nothing
    /// itself: the crash and the restart are booked by the replica's exit
    /// and the supervisor.
    ///
    /// # Errors
    ///
    /// When the index is out of range or the replica is already down.
    pub fn kill_replica(&self, replica: usize) -> Result<(), String> {
        let slot = self
            .slots
            .get(replica)
            .ok_or_else(|| format!("no replica {replica} (pool size {})", self.slots.len()))?;
        if !slot.up.load(Ordering::SeqCst) {
            return Err(format!("replica {replica} is already down"));
        }
        slot.kill.store(true, Ordering::SeqCst);
        Ok(())
    }

    /// Routes `job` per the degradation ladder. `skip` marks a replica the
    /// job must not return to (the one it just crashed). On failure the
    /// job is handed back so the caller can answer its reply channel.
    ///
    /// # Errors
    ///
    /// The job plus why it could not be enqueued.
    // The Err variant hands the whole Job back on purpose — the caller
    // must answer its reply channel and seal its trace. Boxing it would
    // put an allocation on the hot submit path to slim a cold error.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, job: Job, skip: Option<usize>) -> Result<(), (Job, SubmitError)> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err((job, SubmitError::Closed));
        }
        let n = self.slots.len();
        let home = (fnv1a(job.kernel.as_bytes()) % n as u64) as usize;
        let mut job = job;
        for off in 0..n {
            let i = (home + off) % n;
            if Some(i) == skip {
                continue;
            }
            let slot = &self.slots[i];
            if !slot.up.load(Ordering::SeqCst) {
                continue;
            }
            // Stamp the route/queue boundary per attempt, so `queue_wait`
            // measures only the time actually spent in *this* queue.
            job.routed = Instant::now();
            match slot.queue.try_push(job) {
                Ok(()) => return Ok(()),
                // The first *healthy* replica on the ring is full: shed.
                // Spilling overload to siblings would collapse every queue
                // in turn; backpressure must reach the client instead.
                Err((j, PushError::Full)) => return Err((j, SubmitError::Shed)),
                Err((j, PushError::Closed)) => {
                    job = j;
                    continue;
                }
            }
        }
        Err((job, SubmitError::NoReplica))
    }

    /// The live telemetry document `admin stats` serves: uptime, epoch,
    /// per-replica state (depth/epoch/up/restarts), and every live
    /// histogram with interpolated p50/p95/p99 — plus the full live
    /// [`obs::MetricsSnapshot`] under `"metrics"` so clients can re-render
    /// it (e.g. as Prometheus exposition text) without a second verb.
    pub fn stats_value(&self) -> serde::Value {
        use serde::Value;
        let snap = self.live.snapshot();
        let replicas: Vec<Value> = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::Map(vec![
                    ("replica".into(), Value::Int(i as i128)),
                    ("queue_depth".into(), Value::Int(s.queue.len() as i128)),
                    ("epoch".into(), Value::Int(i128::from(s.epoch.load(Ordering::SeqCst)))),
                    ("up".into(), Value::Bool(s.up.load(Ordering::SeqCst))),
                    ("restarts".into(), Value::Int(i128::from(s.restarts.load(Ordering::SeqCst)))),
                ])
            })
            .collect();
        let histograms: Vec<Value> = snap
            .histograms
            .iter()
            .map(|h| {
                Value::Map(vec![
                    ("name".into(), Value::Str(h.name.clone())),
                    ("count".into(), Value::Int(i128::from(h.count))),
                    ("sum".into(), Value::Int(i128::from(h.sum))),
                    ("mean".into(), Value::Float(h.mean())),
                    ("p50".into(), Value::Float(h.quantile(0.50))),
                    ("p95".into(), Value::Float(h.quantile(0.95))),
                    ("p99".into(), Value::Float(h.quantile(0.99))),
                ])
            })
            .collect();
        let metrics: Value =
            serde_json::from_str(&serde_json::to_string(&snap).expect("snapshot serializes"))
                .expect("snapshot round-trips");
        Value::Map(vec![
            ("uptime_us".into(), Value::Int(self.started.elapsed().as_micros() as i128)),
            ("epoch".into(), Value::Int(i128::from(self.provider.epoch()))),
            ("replicas".into(), Value::Seq(replicas)),
            ("traces_recorded".into(), Value::Int(self.recorder.len() as i128)),
            ("histograms".into(), Value::Seq(histograms)),
            ("metrics".into(), metrics),
        ])
    }

    /// Flight-recorder lookup for `admin trace`: `"slow"` returns the
    /// slowest remembered traces, anything else is an id lookup. Always a
    /// JSON array (possibly empty — nothing remembered is not an error).
    pub fn trace_value(&self, query: &str) -> serde::Value {
        let traces = if query == "slow" {
            self.recorder.slow(5)
        } else {
            self.recorder.get(query).into_iter().collect()
        };
        serde_json::from_str(&serde_json::to_string(&traces).expect("traces serialize"))
            .expect("traces round-trip")
    }
}

/// Why [`Shared::submit`] handed the job back.
pub(crate) enum SubmitError {
    /// Load-shed: the client should back off and retry.
    Shed,
    /// Every replica is down.
    NoReplica,
    /// The server is shutting down.
    Closed,
}

/// Answers `job` with `response` and books the outcome. Called only from
/// server threads, which are bound to the live registry.
pub(crate) fn answer(shared: &Shared, job: Job, response: Response) {
    obs::metrics::counter_inc(match &response {
        Response::Ok { .. } => "serve.predictions",
        Response::Rejected { .. } => "serve.rejected",
        _ => "serve.errors",
    });
    let Job { reply, trace, replica, .. } = job;
    let _ = reply.send(Answer { response, trace, replica });
    if let Some(limit) = shared.config.max_requests {
        let answered = obs::metrics::counter_value("serve.predictions")
            + obs::metrics::counter_value("serve.errors");
        if answered >= limit {
            shared.begin_shutdown();
        }
    }
}

fn flatten_groups(groups: Vec<(String, Vec<Job>)>) -> Vec<Job> {
    groups.into_iter().flat_map(|(_, jobs)| jobs).collect()
}

/// The body of one replica instance: build a backend, serve batches,
/// follow hot-swaps, exit with whatever it still owes.
fn replica_serve(shared: &Shared, idx: usize, generation: u64) -> ExitKind {
    let slot = &shared.slots[idx];
    let (mut backend, mut epoch) =
        match catch_unwind(AssertUnwindSafe(|| shared.provider.build())) {
            Ok(Ok(pair)) => pair,
            Ok(Err(e)) => {
                return ExitKind::Crashed { cause: format!("model build failed: {e}"), orphans: vec![] }
            }
            Err(_) => {
                return ExitKind::Crashed { cause: "model build panicked".into(), orphans: vec![] }
            }
        };
    slot.epoch.store(epoch, Ordering::SeqCst);
    slot.up.store(true, Ordering::SeqCst);

    loop {
        if slot.generation.load(Ordering::SeqCst) != generation {
            return ExitKind::Retired { orphans: vec![] };
        }
        if slot.kill.swap(false, Ordering::SeqCst) {
            return ExitKind::Crashed { cause: "kill drill".into(), orphans: vec![] };
        }
        // Hot swap: follow the provider's epoch at batch boundaries. A
        // failed rebuild keeps the old backend serving — degraded (stale
        // epoch) beats down.
        let offered = shared.provider.epoch();
        if offered != epoch {
            if let Ok(Ok((b, e))) = catch_unwind(AssertUnwindSafe(|| shared.provider.build())) {
                backend = b;
                epoch = e;
                slot.epoch.store(e, Ordering::SeqCst);
                obs::metrics::counter_inc("serve.replica_swaps");
            }
        }
        let mut batch = match slot.queue.pop_batch(shared.config.max_batch.max(1), POLL) {
            None => return ExitKind::Drained,
            Some(b) if b.is_empty() => continue,
            Some(b) => b,
        };
        obs::metrics::gauge_set("serve.queue_depth", slot.queue.len() as f64);
        obs::metrics::counter_inc("serve.batches");
        obs::metrics::observe_with_edges("serve.batch_size", &BATCH_EDGES, batch.len() as u64);
        let popped = Instant::now();
        for job in &mut batch {
            job.replica = Some(idx);
            // A re-routed job records a second route/queue_wait pair — the
            // timeline shows every hop it took, not just the last.
            job.trace.span("route", job.enqueued, job.routed);
            job.trace.span("queue_wait", job.routed, popped);
        }

        // Group by kernel, preserving arrival order, so each group is one
        // backend call with an amortized forward pass.
        let mut groups: Vec<(String, Vec<Job>)> = Vec::new();
        for job in batch {
            match groups.iter_mut().find(|(k, _)| *k == job.kernel) {
                Some((_, jobs)) => jobs.push(job),
                None => groups.push((job.kernel.clone(), vec![job])),
            }
        }
        while !groups.is_empty() {
            if slot.generation.load(Ordering::SeqCst) != generation {
                return ExitKind::Retired { orphans: flatten_groups(groups) };
            }
            if slot.kill.swap(false, Ordering::SeqCst) {
                return ExitKind::Crashed {
                    cause: "kill drill (mid-batch)".into(),
                    orphans: flatten_groups(groups),
                };
            }
            let (kernel, mut jobs) = groups.remove(0);
            let indices: Vec<u128> = jobs.iter().map(|j| j.index).collect();
            let infer_start = Instant::now();
            for job in &mut jobs {
                job.trace.span("batch_wait", popped, infer_start);
            }
            slot.busy_since_ms.store(shared.now_ms() + 1, Ordering::SeqCst);
            let outcome =
                catch_unwind(AssertUnwindSafe(|| backend.predict(&kernel, &indices)));
            slot.busy_since_ms.store(0, Ordering::SeqCst);
            let infer_end = Instant::now();
            for job in &mut jobs {
                job.trace.span("infer", infer_start, infer_end);
            }
            match outcome {
                Err(_) => {
                    let mut orphans = jobs;
                    orphans.extend(flatten_groups(groups));
                    return ExitKind::Crashed {
                        cause: format!("backend panicked predicting `{kernel}`"),
                        orphans,
                    };
                }
                Ok(Ok(rows)) if rows.len() == jobs.len() => {
                    for (job, row) in jobs.into_iter().zip(rows) {
                        let id = job.id;
                        answer(shared, job, Response::Ok { id, epoch, row });
                    }
                }
                Ok(Ok(rows)) => {
                    let msg = format!(
                        "backend returned {} row(s) for {} request(s)",
                        rows.len(),
                        jobs.len()
                    );
                    for job in jobs {
                        let id = job.id;
                        answer(shared, job, Response::Error { id, code: 500, message: msg.clone() });
                    }
                }
                Ok(Err(message)) => {
                    for job in jobs {
                        let id = job.id;
                        answer(
                            shared,
                            job,
                            Response::Error { id, code: 400, message: message.clone() },
                        );
                    }
                }
            }
        }
    }
}

/// Spawns a server thread bound to the live registry for its whole life:
/// whatever it books (and whatever its backend books) is one fact in one
/// place, visible to `admin stats` at once.
pub(crate) fn spawn_bound<T: Send + 'static>(
    shared: &Arc<Shared>,
    body: impl FnOnce(&Arc<Shared>) -> T + Send + 'static,
) -> JoinHandle<T> {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        let _live = obs::metrics::bind(&shared.live);
        body(&shared)
    })
}

fn spawn_replica(
    shared: &Arc<Shared>,
    idx: usize,
    generation: u64,
    events: mpsc::Sender<Exit>,
) -> JoinHandle<()> {
    spawn_bound(shared, move |shared| {
        shared.slots[idx].generation.store(generation, Ordering::SeqCst);
        let kind = replica_serve(shared, idx, generation);
        // Only the current instance may mark the slot down — a retired
        // (wedged, superseded) instance must not knock out its successor.
        if shared.slots[idx].generation.load(Ordering::SeqCst) == generation {
            shared.slots[idx].up.store(false, Ordering::SeqCst);
        }
        let _ = events.send(Exit { slot: idx, generation, kind });
    })
}

/// Supervisor bookkeeping for one slot.
struct SlotState {
    handle: Option<JoinHandle<()>>,
    /// Generation of the instance the supervisor currently tracks.
    generation: u64,
    spawned_at: Instant,
    consecutive_failures: u32,
    restart_due: Option<Instant>,
}

/// Runs the pool: spawns the initial replicas, supervises crashes and
/// wedges, applies restart backoff, watches the model source, and drains
/// on shutdown. Returns when every live replica has exited.
pub(crate) fn supervise(shared: &Arc<Shared>) {
    let (tx, rx) = mpsc::channel::<Exit>();
    let mut slots: Vec<SlotState> = (0..shared.slots.len())
        .map(|i| SlotState {
            handle: Some(spawn_replica(shared, i, 1, tx.clone())),
            generation: 1,
            spawned_at: Instant::now(),
            consecutive_failures: 0,
            restart_due: None,
        })
        .collect();
    let mut alive = slots.len();
    let mut abandoned: Vec<JoinHandle<()>> = Vec::new();
    let mut last_watch = Instant::now();
    obs::metrics::gauge_set("serve.epoch", shared.provider.epoch() as f64);

    loop {
        match rx.recv_timeout(POLL) {
            Ok(exit) => {
                let st = &mut slots[exit.slot];
                let current = st.generation == exit.generation;
                if current {
                    if let Some(h) = st.handle.take() {
                        let _ = h.join();
                    }
                    alive -= 1;
                }
                match exit.kind {
                    ExitKind::Drained => {}
                    ExitKind::Retired { orphans } => {
                        redispatch(shared, exit.slot, orphans);
                    }
                    ExitKind::Crashed { cause, orphans } => {
                        obs::metrics::counter_inc("serve.replica_crashes");
                        obs::warn!(
                            "serve.replica_crashed",
                            "replica {} crashed ({cause}); re-routing {} in-flight job(s)",
                            exit.slot,
                            orphans.len();
                            replica = exit.slot,
                            orphans = orphans.len(),
                        );
                        let mut orphans = orphans;
                        orphans.extend(shared.slots[exit.slot].queue.drain_all());
                        redispatch(shared, exit.slot, orphans);
                        if current && !shared.shutdown.load(Ordering::SeqCst) {
                            let st = &mut slots[exit.slot];
                            // A replica that held steady for a while gets a
                            // fresh backoff ladder.
                            if st.spawned_at.elapsed() > Duration::from_secs(1) {
                                st.consecutive_failures = 1;
                            } else {
                                st.consecutive_failures = st.consecutive_failures.saturating_add(1);
                            }
                            let exp = st.consecutive_failures.saturating_sub(1).min(6);
                            let backoff = shared
                                .config
                                .restart_backoff
                                .saturating_mul(1 << exp)
                                .min(Duration::from_secs(2));
                            st.restart_due = Some(Instant::now() + backoff);
                        }
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }

        let shutting_down = shared.shutdown.load(Ordering::SeqCst);

        // Due restarts.
        for (i, st) in slots.iter_mut().enumerate() {
            if shutting_down {
                st.restart_due = None;
                continue;
            }
            if st.restart_due.is_some_and(|due| Instant::now() >= due) {
                st.restart_due = None;
                st.generation += 1;
                st.spawned_at = Instant::now();
                st.handle = Some(spawn_replica(shared, i, st.generation, tx.clone()));
                alive += 1;
                shared.slots[i].restarts.fetch_add(1, Ordering::SeqCst);
                obs::metrics::counter_inc("serve.replica_restarts");
                obs::info!(
                    "serve.replica_restarted",
                    "replica {i} restarted (generation {})",
                    st.generation;
                    replica = i,
                    generation = st.generation,
                );
            }
        }

        // Wedge detection: a replica stuck inside one backend call past the
        // timeout is retired and replaced; its stuck thread is abandoned.
        if let Some(wedge) = shared.config.wedge_timeout {
            let now_ms = shared.now_ms();
            for (i, st) in slots.iter_mut().enumerate() {
                if shutting_down || st.handle.is_none() {
                    continue;
                }
                let slot = &shared.slots[i];
                let busy = slot.busy_since_ms.load(Ordering::SeqCst);
                if busy > 0 && now_ms.saturating_sub(busy - 1) > wedge.as_millis() as u64 {
                    obs::metrics::counter_inc("serve.replica_crashes");
                    obs::metrics::counter_inc("serve.replica_wedged");
                    obs::warn!(
                        "serve.replica_wedged",
                        "replica {i} made no progress for {wedge:?}; retiring it";
                        replica = i,
                    );
                    slot.up.store(false, Ordering::SeqCst);
                    // Retire the stuck instance; it exits (or answers its
                    // stale batch) whenever it wakes.
                    st.generation += 1;
                    slot.generation.store(st.generation, Ordering::SeqCst);
                    if let Some(h) = st.handle.take() {
                        abandoned.push(h);
                    }
                    alive -= 1;
                    redispatch(shared, i, slot.queue.drain_all());
                    st.consecutive_failures = st.consecutive_failures.saturating_add(1);
                    st.restart_due = Some(Instant::now() + shared.config.restart_backoff);
                }
            }
        }

        // Model-source watch (mtime polling).
        if let Some(interval) = shared.config.reload_watch {
            if !shutting_down && last_watch.elapsed() >= interval {
                last_watch = Instant::now();
                match shared.provider.poll_reload() {
                    None => {}
                    Some(Ok(epoch)) => {
                        obs::metrics::counter_inc("serve.reloads");
                        obs::info!(
                            "serve.reloaded",
                            "model source changed on disk; now serving epoch {epoch}";
                            epoch = epoch,
                        );
                    }
                    Some(Err(e)) => {
                        obs::metrics::counter_inc("serve.reload_failures");
                        obs::warn!(
                            "serve.reload_failed",
                            "model source changed but was rejected ({e}); previous epoch keeps serving"
                        );
                    }
                }
            }
        }
        obs::metrics::gauge_set("serve.epoch", shared.provider.epoch() as f64);

        if shutting_down && alive == 0 && slots.iter().all(|s| s.restart_due.is_none()) {
            break;
        }
    }

    // Strand nothing: answer anything left in a down slot's queue.
    for slot in &shared.slots {
        for job in slot.queue.drain_all() {
            let id = job.id;
            answer(
                shared,
                job,
                Response::Error { id, code: 503, message: "server is shutting down".into() },
            );
        }
    }
    // Abandoned (wedged) threads are detached deliberately: joining a
    // thread stuck in a backend call would hang shutdown forever.
    drop(abandoned);
}

/// Re-routes a dead replica's jobs to healthy siblings, answering 500
/// after [`MAX_ATTEMPTS`] dispatches (poison pill), 429 when the siblings
/// are saturated, and 503 when nobody is left.
fn redispatch(shared: &Shared, from: usize, orphans: Vec<Job>) {
    for mut job in orphans {
        job.attempts += 1;
        if job.attempts >= MAX_ATTEMPTS {
            let id = job.id;
            let message = format!(
                "request crashed {} replica(s) and was dropped (poison pill?)",
                job.attempts
            );
            answer(shared, job, Response::Error { id, code: 500, message });
            continue;
        }
        // A job that just crashed `from` must not be handed straight back
        // to its restarted incarnation.
        match shared.submit(job, Some(from)) {
            Ok(()) => obs::metrics::counter_inc("serve.rerouted"),
            Err((job, SubmitError::Shed)) => {
                let id = job.id;
                answer(shared, job, Response::Rejected { id, retry_after_ms: RETRY_AFTER_MS });
            }
            Err((job, SubmitError::NoReplica | SubmitError::Closed)) => {
                let id = job.id;
                answer(
                    shared,
                    job,
                    Response::Error {
                        id,
                        code: 503,
                        message: "no healthy replica available".into(),
                    },
                );
            }
        }
    }
}
