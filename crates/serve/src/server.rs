//! The prediction server: accept loop and connection handlers in front of
//! the supervised replica pool ([`crate::pool`]).
//!
//! Thread model: the accept loop runs on the caller's thread
//! ([`Server::run`]), one handler thread per connection parses requests
//! and writes responses, one thread per replica drains its shard queue and
//! calls its private [`BatchPredictor`], and one supervisor thread restarts
//! crashed/wedged replicas and watches the model source.
//!
//! Every thread the server spawns runs bound to the pool's one live
//! registry ([`gdse_obs::metrics::bind`]), and so do reloads and queue-depth
//! updates entered from other threads. Each fact below — and every
//! `surrogate.*`/`exec.*`/`gnn.*` count a replica's backend books — is
//! recorded once, is visible to `admin stats` while the server runs, and is
//! folded into the caller's registry exactly once, when [`Server::run`]
//! returns.
//!
//! ## Metric catalog (`serve.*`)
//!
//! | metric | type | meaning |
//! |---|---|---|
//! | `serve.connections` | counter | accepted TCP connections |
//! | `serve.requests` | counter | parsed predict requests |
//! | `serve.rejected` | counter | requests load-shed off a full queue (429) |
//! | `serve.errors` | counter | malformed/unservable requests |
//! | `serve.predictions` | counter | rows answered with `status: ok` |
//! | `serve.batches` | counter | predictor micro-batches dispatched |
//! | `serve.batch_size` | histogram | requests per micro-batch ([`BATCH_EDGES`]) |
//! | `serve.queue_depth` | gauge | depth of the last drained queue after its drain |
//! | `serve.epoch` | gauge | model epoch currently serving |
//! | `serve.replica_crashes` | counter | replica panics/kill drills/wedges |
//! | `serve.replica_wedged` | counter | replicas retired for making no progress |
//! | `serve.replica_restarts` | counter | supervised replica restarts |
//! | `serve.replica_swaps` | counter | per-replica hot-swap backend rebuilds |
//! | `serve.rerouted` | counter | orphaned jobs re-routed to a sibling |
//! | `serve.reloads` | counter | successful model reloads |
//! | `serve.reload_failures` | counter | rejected model reloads (rolled back) |
//! | `serve.oversize` | counter | request lines over the size cap (413) |
//! | `serve.idle_closed` | counter | connections closed by the idle timeout |
//! | `serve.deadline_exceeded` | counter | predict requests answered 504 |
//! | `serve.queue_depth{replica}` | gauge | live per-replica queue depth (updated on every enqueue/dequeue) |
//! | `serve.trace.total_us` | histogram | end-to-end traced request duration |
//! | `serve.trace.ingress_us` | histogram | read + parse + job construction |
//! | `serve.trace.route_us` | histogram | shard routing / enqueue attempts |
//! | `serve.trace.queue_wait_us` | histogram | enqueued → popped by a replica (also per `{kernel}`/`{replica}`) |
//! | `serve.trace.batch_wait_us` | histogram | popped → backend dispatch (also per `{kernel}`/`{replica}`) |
//! | `serve.trace.infer_us` | histogram | the backend call itself (also per `{kernel}`/`{replica}`) |
//! | `serve.trace.write_us` | histogram | response serialization + socket write (also per `{kernel}`/`{replica}`) |
//! | `serve.trace.slow` | counter | traces over [`ServeConfig::trace_slow`], each dumped at Warn |
//!
//! The `{kernel}` variants are booked only for requests answered `ok`: a
//! kernel name is client input, and only a served kernel may mint a series.
//!
//! A continuous-learning daemon additionally books its `learn.*` series
//! (rounds, buffer depth, last fine-tune loss, swap counts) into the same
//! live registry, binding to [`ServerHandle::live_metrics`], and answers
//! the `{"learn-status": true}` admin verb through an attached
//! [`crate::LearnStatusSource`]; servers without a learner answer it 404.

use crate::pool::{self, Job, ModelProvider, Shared, StaticProvider, SubmitError};
use crate::protocol::{parse_request, Request, Response};
use crate::ServeError;
use crate::pool::BatchPredictor;
use gdse_obs as obs;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::pool::POLL;

/// Server tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bounded queue capacity **per replica**; a full queue sheds with a
    /// 429 + retry-after (0 rejects everything — useful for drills).
    pub queue_capacity: usize,
    /// Most requests dispatched to one replica in one micro-batch.
    pub max_batch: usize,
    /// Stop (gracefully) after answering this many predict requests.
    pub max_requests: Option<u64>,
    /// Replica count: independent workers, each owning its own backend.
    pub replicas: usize,
    /// How long a connection handler waits for its prediction before
    /// answering 504.
    pub request_timeout: Duration,
    /// Close connections that send no complete request for this long
    /// (`None` = never — trusted clients).
    pub idle_timeout: Option<Duration>,
    /// Longest accepted request line; longer lines are answered 413
    /// without buffering them.
    pub max_line_bytes: usize,
    /// Initial supervised-restart backoff (doubles per consecutive
    /// failure, capped internally at 2 s).
    pub restart_backoff: Duration,
    /// Retire a replica making no progress inside one backend call for
    /// this long (`None` = never).
    pub wedge_timeout: Option<Duration>,
    /// Poll the model source for changes this often (`None` = only
    /// explicit `{"reload": true}` requests).
    pub reload_watch: Option<Duration>,
    /// Dump a Warn-level span timeline for any request slower than this
    /// (`None` = never).
    pub trace_slow: Option<Duration>,
    /// Completed traces remembered per flight-recorder ring (per replica,
    /// plus one ring for requests that never reached a replica). 0 disables
    /// the recorder; `admin trace` then always answers an empty array.
    pub trace_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            max_batch: 16,
            max_requests: None,
            replicas: 1,
            request_timeout: Duration::from_secs(60),
            idle_timeout: None,
            max_line_bytes: 64 * 1024,
            restart_backoff: Duration::from_millis(50),
            wedge_timeout: None,
            reload_watch: None,
            trace_slow: None,
            trace_capacity: 256,
        }
    }
}

/// A bound, not-yet-running prediction server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Clonable remote control of a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Initiates graceful shutdown: the queues drain, in-flight requests
    /// are answered, then [`Server::run`] returns.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Total depth across every replica's request queue.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue_depth()
    }

    /// The model epoch currently offered by the provider.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch()
    }

    /// Forces a model reload (validate, cut over or roll back).
    ///
    /// # Errors
    ///
    /// Why the new model version was rejected; the old one keeps serving.
    pub fn reload(&self) -> Result<u64, String> {
        self.shared.reload()
    }

    /// Chaos drill: crash replica `replica`; the supervisor re-routes its
    /// requests and restarts it with backoff.
    ///
    /// # Errors
    ///
    /// When the index is out of range or the replica is already down.
    pub fn kill_replica(&self, replica: usize) -> Result<(), String> {
        self.shared.kill_replica(replica)
    }

    /// Attaches the source the `{"learn-status": true}` admin verb answers
    /// from. Until one is attached the verb answers 404.
    pub fn attach_learn_status(&self, source: Arc<dyn crate::LearnStatusSource>) {
        *self.shared.learn.lock().expect("learn lock") = Some(source);
    }

    /// The pool's live registry: what `admin stats` reads while the server
    /// runs and what [`Server::run`] folds into its caller. Snapshot it to
    /// read the server's counters mid-flight; a learner thread binds to it
    /// to book its `learn.*` series next to the `serve.*` ones.
    pub fn live_metrics(&self) -> Arc<obs::metrics::SharedMetrics> {
        Arc::clone(&self.shared.live)
    }

    /// Whether shutdown has begun (graceful drain in progress or done).
    /// A background learner polls this to stop between rounds.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:7878"`, or port 0 for an ephemeral
    /// port) and prepares the server around a single fixed `predictor`
    /// shared by every replica (epoch 0, not reloadable).
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] when the address cannot be bound.
    pub fn bind(
        addr: &str,
        config: ServeConfig,
        predictor: impl BatchPredictor + 'static,
    ) -> Result<Server, ServeError> {
        Server::bind_with_provider(addr, config, Arc::new(StaticProvider::new(predictor)))
    }

    /// Binds `addr` around a versioned model source: each replica builds
    /// its own backend from `provider` and follows its epoch (hot swap).
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] when the address cannot be bound.
    pub fn bind_with_provider(
        addr: &str,
        config: ServeConfig,
        provider: Arc<dyn ModelProvider>,
    ) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(addr)
            .map_err(|source| ServeError::Bind { addr: addr.to_string(), source })?;
        let local = listener.local_addr().map_err(ServeError::Io)?;
        let shared = Arc::new(Shared::new(config, provider, local));
        Ok(Server { listener, shared })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle that can control the server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: Arc::clone(&self.shared) }
    }

    /// Runs until a shutdown request, a [`ServerHandle::shutdown`], or the
    /// configured request limit; drains in-flight work, then folds the live
    /// registry — everything the server booked — into the caller's
    /// registry, once.
    pub fn run(self) {
        let Server { listener, shared } = self;
        let supervisor = pool::spawn_bound(&shared, pool::supervise);

        let mut handlers = Vec::new();
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    handlers.push(pool::spawn_bound(&shared, move |shared| {
                        handle_connection(stream, shared)
                    }));
                }
                Err(_) => {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                }
            }
        }
        drop(listener);
        for h in handlers {
            let _ = h.join();
        }
        let _ = supervisor.join();
        obs::metrics::merge(&shared.live.snapshot());
    }
}

fn write_line(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut line = response.to_json_line();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// Writes `response` with the request's trace id echoed as a top-level
/// `trace_id` field, so clients can correlate answers with their own logs.
fn write_line_traced(
    stream: &mut TcpStream,
    response: &Response,
    trace_id: &str,
) -> std::io::Result<()> {
    let mut line = response.to_json_line_traced(Some(trace_id));
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// Span names that also get per-kernel and per-replica labeled histogram
/// variants. `ingress`/`route`/`total` stay base-only: they happen before
/// routing, so replica labels would lie and kernel labels add little.
const LABELED_SPANS: [&str; 4] = ["queue_wait", "batch_wait", "infer", "write"];

/// Books a sealed trace into the (bound) live registry and the flight
/// recorder, and dumps a Warn-level timeline when it crossed the slow
/// threshold. Only an `ok` answer books the `{kernel=}` variants: a failed
/// request's kernel name may be anything a client sent, and must not mint
/// series.
fn record_trace(shared: &Shared, trace: &obs::trace::RequestTrace, ok: bool) {
    obs::metrics::observe_us("serve.trace.total_us", trace.total_us);
    for span in &trace.spans {
        let base = format!("serve.trace.{}_us", span.name);
        obs::metrics::observe_us(&base, span.dur_us);
        if LABELED_SPANS.contains(&span.name.as_str()) {
            if ok {
                obs::metrics::observe_us(
                    &obs::metrics::labeled(&base, "kernel", &trace.kernel),
                    span.dur_us,
                );
            }
            if trace.replica >= 0 {
                obs::metrics::observe_us(
                    &obs::metrics::labeled(&base, "replica", &trace.replica.to_string()),
                    span.dur_us,
                );
            }
        }
    }
    shared.recorder.record(trace.clone());
    if let Some(slow) = shared.config.trace_slow {
        if u128::from(trace.total_us) >= slow.as_micros() {
            obs::metrics::counter_inc("serve.trace.slow");
            obs::warn!(
                "serve.trace.slow",
                "trace {} took {} us ({})",
                trace.trace_id,
                trace.total_us,
                trace.timeline();
                trace_id = trace.trace_id.clone(),
                kernel = trace.kernel.clone(),
                replica = trace.replica,
                total_us = trace.total_us,
                timeline = trace.timeline(),
            );
        }
    }
}

/// One attempt at reading a request line, bounded in size and time.
enum LineRead {
    /// A complete line (without the newline).
    Line(String),
    /// The line exceeded the cap; the excess was discarded up to the next
    /// newline, so the connection is still in sync.
    TooLarge,
    /// Peer hung up.
    Eof,
    /// Server is shutting down.
    Shutdown,
    /// No complete request within the idle timeout.
    Idle,
    /// Hard socket error.
    Failed,
}

/// Reads one `\n`-terminated line of at most `max_bytes` bytes, polling
/// the shutdown flag and the idle deadline while blocked. Never buffers
/// more than `max_bytes` + one socket read — an oversized line is
/// discarded as it streams past, not accumulated.
fn read_request_line(
    reader: &mut BufReader<TcpStream>,
    shared: &Shared,
    max_bytes: usize,
    idle: Option<Duration>,
) -> LineRead {
    let mut line: Vec<u8> = Vec::new();
    let mut discarding = false;
    let started = Instant::now();
    loop {
        enum Step {
            Consumed(usize, bool), // (bytes, saw_newline)
            Eof,
            Blocked,
            Failed,
        }
        let step = match reader.fill_buf() {
            Ok([]) => Step::Eof,
            Ok(available) => match available.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if !discarding {
                        line.extend_from_slice(&available[..pos]);
                    }
                    Step::Consumed(pos + 1, true)
                }
                None => {
                    let n = available.len();
                    if !discarding {
                        if line.len() + n > max_bytes {
                            discarding = true;
                            line.clear();
                        } else {
                            line.extend_from_slice(available);
                        }
                    }
                    Step::Consumed(n, false)
                }
            },
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Step::Blocked
            }
            Err(_) => Step::Failed,
        };
        match step {
            Step::Consumed(n, saw_newline) => {
                reader.consume(n);
                if saw_newline {
                    if discarding || line.len() > max_bytes {
                        return LineRead::TooLarge;
                    }
                    return LineRead::Line(String::from_utf8_lossy(&line).into_owned());
                }
            }
            Step::Eof => return LineRead::Eof,
            Step::Blocked => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return LineRead::Shutdown;
                }
                if idle.is_some_and(|d| started.elapsed() > d) {
                    return LineRead::Idle;
                }
            }
            Step::Failed => return LineRead::Failed,
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    obs::metrics::counter_inc("serve.connections");
    let _ = stream.set_read_timeout(Some(POLL));
    // Answers are one small write each; without TCP_NODELAY they can sit
    // behind Nagle waiting for the peer's delayed ACK (~40 ms).
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let config = shared.config;
    loop {
        let line = match read_request_line(
            &mut reader,
            shared,
            config.max_line_bytes,
            config.idle_timeout,
        ) {
            LineRead::Line(l) => l,
            LineRead::TooLarge => {
                obs::metrics::counter_inc("serve.oversize");
                obs::metrics::counter_inc("serve.errors");
                let resp = Response::Error {
                    id: 0,
                    code: 413,
                    message: format!(
                        "request line exceeds {} bytes (RequestTooLarge)",
                        config.max_line_bytes
                    ),
                };
                if write_line(&mut writer, &resp).is_err() {
                    break;
                }
                continue;
            }
            LineRead::Idle => {
                obs::metrics::counter_inc("serve.idle_closed");
                let resp = Response::Error {
                    id: 0,
                    code: 408,
                    message: "connection idle past the request timeout".into(),
                };
                let _ = write_line(&mut writer, &resp);
                break;
            }
            LineRead::Eof | LineRead::Shutdown | LineRead::Failed => break,
        };
        // Trace clock zero: the moment the request line was fully read.
        let received = Instant::now();
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match parse_request(trimmed) {
            Err(message) => {
                obs::metrics::counter_inc("serve.errors");
                let resp = Response::Error { id: 0, code: 400, message };
                if write_line(&mut writer, &resp).is_err() {
                    break;
                }
            }
            Ok(Request::Shutdown) => {
                let _ = write_line(&mut writer, &Response::ShuttingDown);
                shared.begin_shutdown();
                break;
            }
            Ok(Request::Reload) => {
                let resp = match shared.reload() {
                    Ok(epoch) => Response::Reloaded { epoch },
                    Err(message) => Response::Error { id: 0, code: 500, message },
                };
                if write_line(&mut writer, &resp).is_err() {
                    break;
                }
            }
            Ok(Request::KillReplica { replica }) => {
                let resp = match shared.kill_replica(replica) {
                    Ok(()) => Response::Killed { replica },
                    Err(message) => Response::Error { id: 0, code: 400, message },
                };
                if write_line(&mut writer, &resp).is_err() {
                    break;
                }
            }
            Ok(Request::Stats) => {
                let resp = Response::Stats { body: shared.stats_value() };
                if write_line(&mut writer, &resp).is_err() {
                    break;
                }
            }
            Ok(Request::LearnStatus) => {
                let source = shared.learn.lock().expect("learn lock").clone();
                let resp = match source {
                    Some(src) => Response::LearnStatus { body: src.learn_status() },
                    None => Response::Error {
                        id: 0,
                        code: 404,
                        message: "no continuous-learning driver attached".into(),
                    },
                };
                if write_line(&mut writer, &resp).is_err() {
                    break;
                }
            }
            Ok(Request::Trace { query }) => {
                let resp = Response::Trace { body: shared.trace_value(&query) };
                if write_line(&mut writer, &resp).is_err() {
                    break;
                }
            }
            Ok(Request::Predict { id, kernel, index, trace }) => {
                obs::metrics::counter_inc("serve.requests");
                // A usable client id is adopted; absent or malformed ones
                // are replaced by a minted id — every request is traced.
                let tid = trace
                    .as_deref()
                    .and_then(obs::trace::TraceId::parse)
                    .unwrap_or_else(obs::trace::TraceId::mint);
                let trace_id = tid.to_string();
                let kernel_name = kernel.clone();
                let mut tb = obs::trace::TraceBuilder::new_at(tid, received);
                let accepted = Instant::now();
                tb.span("ingress", received, accepted);
                let (tx, rx) = mpsc::channel();
                let job = Job {
                    id,
                    kernel,
                    index,
                    attempts: 0,
                    enqueued: accepted,
                    routed: accepted,
                    replica: None,
                    trace: tb,
                    reply: tx,
                };
                // `sealed` is the trace that traveled with the job, handed
                // back by whichever path answered; a timed-out request's
                // trace is still in flight, so there is nothing to seal.
                let (response, sealed) = match shared.submit(job, None) {
                    Ok(()) => match rx.recv_timeout(config.request_timeout) {
                        Ok(ans) => (ans.response, Some((ans.trace, ans.replica))),
                        Err(_) if shared.shutdown.load(Ordering::SeqCst) => (
                            Response::Error {
                                id,
                                code: 503,
                                message: "server stopped before answering".into(),
                            },
                            None,
                        ),
                        Err(_) => {
                            obs::metrics::counter_inc("serve.deadline_exceeded");
                            (
                                Response::Error {
                                    id,
                                    code: 504,
                                    message: "request deadline exceeded".into(),
                                },
                                None,
                            )
                        }
                    },
                    Err((job, SubmitError::Shed)) => {
                        let retry_after_ms = pool::RETRY_AFTER_MS;
                        pool::answer(shared, job, Response::Rejected { id, retry_after_ms });
                        match rx.try_recv() {
                            Ok(ans) => (ans.response, Some((ans.trace, ans.replica))),
                            Err(_) => (Response::Rejected { id, retry_after_ms }, None),
                        }
                    }
                    Err((job, SubmitError::NoReplica)) => {
                        let resp = Response::Error {
                            id,
                            code: 503,
                            message: "no healthy replica available".into(),
                        };
                        pool::answer(shared, job, resp.clone());
                        match rx.try_recv() {
                            Ok(ans) => (ans.response, Some((ans.trace, ans.replica))),
                            Err(_) => (resp, None),
                        }
                    }
                    Err((job, SubmitError::Closed)) => {
                        let resp = Response::Error {
                            id,
                            code: 503,
                            message: "server is shutting down".into(),
                        };
                        pool::answer(shared, job, resp.clone());
                        match rx.try_recv() {
                            Ok(ans) => (ans.response, Some((ans.trace, ans.replica))),
                            Err(_) => (resp, None),
                        }
                    }
                };
                let write_start = Instant::now();
                let wrote = write_line_traced(&mut writer, &response, &trace_id);
                if let Some((mut tb, replica)) = sealed {
                    tb.span("write", write_start, Instant::now());
                    let epoch = match &response {
                        Response::Ok { epoch, .. } => Some(*epoch),
                        _ => None,
                    };
                    let trace = tb.finish(&kernel_name, replica, epoch.unwrap_or(0));
                    record_trace(shared, &trace, epoch.is_some());
                }
                if wrote.is_err() {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ModelProvider;
    use crate::protocol::PredictionRow;
    use crate::Client;
    use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize};
    use std::sync::Barrier;

    /// Deterministic backend: row fields are pure functions of the inputs,
    /// except `lut`, which carries the epoch the backend was built at (so
    /// hot-swap tests can prove the backend really rebuilt).
    fn echo_row(kernel: &str, index: u128, epoch: u64) -> PredictionRow {
        PredictionRow {
            valid_prob: (index % 100) as f64 / 100.0,
            cycles: (index as u64).wrapping_mul(3).wrapping_add(kernel.len() as u64),
            dsp: (index % 5) as f64 / 10.0,
            bram: (index % 7) as f64,
            lut: epoch as f64,
            ff: (index % 13) as f64,
        }
    }

    struct EchoBackend;

    impl BatchPredictor for EchoBackend {
        fn predict(&self, kernel: &str, indices: &[u128]) -> Result<Vec<PredictionRow>, String> {
            if kernel == "no-such-kernel" {
                return Err(format!("unknown kernel `{kernel}`"));
            }
            Ok(indices.iter().map(|&i| echo_row(kernel, i, 0)).collect())
        }
    }

    /// Backend whose first call announces itself and then blocks on a
    /// barrier — pins later jobs in the queue for backpressure tests.
    struct GatedBackend {
        gate: Arc<Barrier>,
        calls: Arc<AtomicUsize>,
    }

    impl BatchPredictor for GatedBackend {
        fn predict(&self, kernel: &str, indices: &[u128]) -> Result<Vec<PredictionRow>, String> {
            if self.calls.fetch_add(1, Ordering::SeqCst) == 0 {
                self.gate.wait();
            }
            Ok(indices.iter().map(|&i| echo_row(kernel, i, 0)).collect())
        }
    }

    /// A chaos-instrumented provider: versioned echo backends that can be
    /// told to panic on `poison` or stall on `slow` a bounded number of
    /// times, plus a switch to make reloads fail.
    struct TestProvider {
        epoch: AtomicU64,
        fail_reload: std::sync::atomic::AtomicBool,
        poison_remaining: Arc<AtomicI64>,
        slow_remaining: Arc<AtomicI64>,
        slow_for: Duration,
    }

    impl TestProvider {
        fn new() -> Self {
            TestProvider {
                epoch: AtomicU64::new(1),
                fail_reload: std::sync::atomic::AtomicBool::new(false),
                poison_remaining: Arc::new(AtomicI64::new(0)),
                slow_remaining: Arc::new(AtomicI64::new(0)),
                slow_for: Duration::from_millis(400),
            }
        }
    }

    fn take(counter: &AtomicI64) -> bool {
        counter
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| match v {
                0 => None,
                v if v < 0 => Some(v), // negative = unlimited
                v => Some(v - 1),
            })
            .is_ok()
    }

    struct TestBackend {
        epoch: u64,
        poison_remaining: Arc<AtomicI64>,
        slow_remaining: Arc<AtomicI64>,
        slow_for: Duration,
    }

    impl BatchPredictor for TestBackend {
        fn predict(&self, kernel: &str, indices: &[u128]) -> Result<Vec<PredictionRow>, String> {
            if kernel == "poison" && take(&self.poison_remaining) {
                panic!("synthetic backend crash");
            }
            if kernel == "slow" && take(&self.slow_remaining) {
                std::thread::sleep(self.slow_for);
            }
            Ok(indices.iter().map(|&i| echo_row(kernel, i, self.epoch)).collect())
        }
    }

    impl ModelProvider for TestProvider {
        fn epoch(&self) -> u64 {
            self.epoch.load(Ordering::SeqCst)
        }

        fn build(&self) -> Result<(Box<dyn BatchPredictor>, u64), String> {
            let epoch = self.epoch.load(Ordering::SeqCst);
            Ok((
                Box::new(TestBackend {
                    epoch,
                    poison_remaining: Arc::clone(&self.poison_remaining),
                    slow_remaining: Arc::clone(&self.slow_remaining),
                    slow_for: self.slow_for,
                }),
                epoch,
            ))
        }

        fn reload(&self) -> Result<u64, String> {
            if self.fail_reload.load(Ordering::SeqCst) {
                return Err("checksum mismatch (synthetic)".into());
            }
            Ok(self.epoch.fetch_add(1, Ordering::SeqCst) + 1)
        }
    }

    /// The thread running the server; it returns its registry after `run`
    /// folded the live registry into it.
    type RunThread = std::thread::JoinHandle<obs::MetricsSnapshot>;

    fn start(config: ServeConfig, backend: impl BatchPredictor + 'static) -> (ServerHandle, RunThread) {
        start_with_provider(config, Arc::new(StaticProvider::new(backend)))
    }

    fn start_with_provider(
        config: ServeConfig,
        provider: Arc<dyn ModelProvider>,
    ) -> (ServerHandle, RunThread) {
        let server = Server::bind_with_provider("127.0.0.1:0", config, provider).expect("bind");
        let handle = server.handle();
        let join = std::thread::spawn(move || {
            server.run();
            obs::metrics::snapshot()
        });
        (handle, join)
    }

    /// A counter of a finished run's folded registry (0 if never booked).
    fn count(snap: &obs::MetricsSnapshot, name: &str) -> u64 {
        snap.counter(name).unwrap_or(0)
    }

    /// A counter of a running server's live registry.
    fn live(handle: &ServerHandle, name: &str) -> u64 {
        count(&handle.live_metrics().snapshot(), name)
    }

    fn wait_until(deadline_ms: u64, what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_millis(deadline_ms);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn concurrent_clients_get_deterministic_answers() {
        let (handle, join) = start(ServeConfig::default(), EchoBackend);
        let addr = handle.addr().to_string();
        std::thread::scope(|s| {
            for c in 0..6u64 {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    for i in 0..10u64 {
                        let idx = u128::from(c * 1_000 + i);
                        let resp = client.predict(c * 100 + i, "gemm", idx).expect("predict");
                        match resp {
                            Response::Ok { id, epoch: 0, row } => {
                                assert_eq!(id, c * 100 + i);
                                assert_eq!(row, echo_row("gemm", idx, 0), "responses are pure");
                            }
                            other => panic!("expected ok, got {other:?}"),
                        }
                    }
                });
            }
        });
        handle.shutdown();
        let snap = join.join().unwrap();
        assert_eq!(count(&snap, "serve.predictions"), 60);
        assert_eq!(count(&snap, "serve.rejected"), 0);
        assert_eq!(count(&snap, "serve.replica_crashes"), 0);
    }

    #[test]
    fn full_queue_rejects_instead_of_hanging() {
        let gate = Arc::new(Barrier::new(2));
        let calls = Arc::new(AtomicUsize::new(0));
        let backend = GatedBackend { gate: Arc::clone(&gate), calls: Arc::clone(&calls) };
        let config = ServeConfig {
            queue_capacity: 1,
            max_batch: 1,
            ..ServeConfig::default()
        };
        let (handle, join) = start(config, backend);
        let addr = handle.addr().to_string();

        // Request 1 is popped by the replica and blocks inside the backend.
        let first = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                c.predict(1, "gemm", 10).expect("predict")
            })
        };
        wait_until(5_000, "first batch to reach the backend", || {
            calls.load(Ordering::SeqCst) >= 1
        });

        // Request 2 occupies the single queue slot (response arrives later).
        let second = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                c.predict(2, "gemm", 20).expect("predict")
            })
        };
        wait_until(5_000, "second request to occupy the queue", || handle.queue_depth() == 1);

        // Request 3 finds the queue full: immediate 429 with a backoff
        // hint, no hang.
        let mut c3 = Client::connect(&addr).expect("connect");
        let started = Instant::now();
        let rejected = c3.predict(3, "gemm", 30).expect("predict");
        match rejected {
            Response::Rejected { id: 3, retry_after_ms } => {
                assert!(retry_after_ms > 0, "shed responses carry a retry-after hint");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(rejected.code(), 429);
        assert!(started.elapsed() < Duration::from_secs(5), "rejection must be prompt");

        // Open the gate: the pinned and queued requests complete normally.
        gate.wait();
        assert!(matches!(first.join().unwrap(), Response::Ok { id: 1, .. }));
        assert!(matches!(second.join().unwrap(), Response::Ok { id: 2, .. }));
        handle.shutdown();
        let snap = join.join().unwrap();
        assert_eq!(count(&snap, "serve.predictions"), 2);
        assert_eq!(count(&snap, "serve.rejected"), 1);
    }

    #[test]
    fn backend_errors_are_reported_not_fatal() {
        let (handle, join) = start(ServeConfig::default(), EchoBackend);
        let addr = handle.addr().to_string();
        let mut client = Client::connect(&addr).expect("connect");
        match client.predict(5, "no-such-kernel", 1).expect("roundtrip") {
            Response::Error { id: 5, code: 400, message } => {
                assert!(message.contains("no-such-kernel"));
            }
            other => panic!("expected error, got {other:?}"),
        }
        // The server is still healthy.
        assert!(matches!(
            client.predict(6, "gemm", 2).expect("roundtrip"),
            Response::Ok { id: 6, .. }
        ));
        handle.shutdown();
        let snap = join.join().unwrap();
        assert_eq!(count(&snap, "serve.predictions"), 1);
        assert_eq!(count(&snap, "serve.errors"), 1);
    }

    #[test]
    fn malformed_lines_get_400() {
        let (handle, join) = start(ServeConfig::default(), EchoBackend);
        let addr = handle.addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"this is not json\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match Response::parse(line.trim()).unwrap() {
            Response::Error { code: 400, .. } => {}
            other => panic!("expected 400, got {other:?}"),
        }
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn oversized_request_line_is_rejected_with_413_not_buffered() {
        let config = ServeConfig { max_line_bytes: 1024, ..ServeConfig::default() };
        let (handle, join) = start(config, EchoBackend);
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        // 64 KiB of garbage on one line: far over the 1 KiB cap.
        let big = vec![b'x'; 64 * 1024];
        stream.write_all(&big).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match Response::parse(line.trim()).unwrap() {
            Response::Error { code: 413, message, .. } => {
                assert!(message.contains("RequestTooLarge"), "{message}");
            }
            other => panic!("expected 413, got {other:?}"),
        }
        // The connection is still in sync: a normal request works.
        stream.write_all(b"{\"id\": 9, \"kernel\": \"gemm\", \"index\": 4}\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(matches!(
            Response::parse(line.trim()).unwrap(),
            Response::Ok { id: 9, .. }
        ));
        handle.shutdown();
        let snap = join.join().unwrap();
        assert_eq!(count(&snap, "serve.predictions"), 1);
        assert_eq!(count(&snap, "serve.errors"), 1);
    }

    #[test]
    fn idle_connections_are_closed_after_the_timeout() {
        let config = ServeConfig {
            idle_timeout: Some(Duration::from_millis(100)),
            ..ServeConfig::default()
        };
        let (handle, join) = start(config, EchoBackend);
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        // Send nothing; the server must hang up (with a best-effort 408).
        let n = reader.read_line(&mut line).unwrap();
        if n > 0 {
            assert_eq!(Response::parse(line.trim()).unwrap().code(), 408);
        }
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn protocol_shutdown_drains_and_exits() {
        let (handle, join) = start(ServeConfig::default(), EchoBackend);
        let addr = handle.addr().to_string();
        let mut client = Client::connect(&addr).expect("connect");
        assert!(matches!(
            client.predict(1, "gemm", 1).expect("roundtrip"),
            Response::Ok { .. }
        ));
        client.shutdown_server().expect("shutdown ack");
        let snap = join.join().unwrap();
        let _ = handle;
        assert_eq!(count(&snap, "serve.predictions"), 1);
    }

    #[test]
    fn request_limit_stops_the_server() {
        let config = ServeConfig { max_requests: Some(3), ..ServeConfig::default() };
        let (_handle, join) = start(config, EchoBackend);
        let addr = _handle.addr().to_string();
        let mut client = Client::connect(&addr).expect("connect");
        for i in 0..3u64 {
            assert!(matches!(
                client.predict(i, "gemm", u128::from(i)).expect("roundtrip"),
                Response::Ok { .. }
            ));
        }
        // No explicit shutdown: the limit ends the run.
        let snap = join.join().unwrap();
        assert_eq!(count(&snap, "serve.predictions"), 3);
    }

    #[test]
    fn panicking_backend_is_isolated_and_requests_rerouted_to_a_sibling() {
        let provider = Arc::new(TestProvider::new());
        provider.poison_remaining.store(1, Ordering::SeqCst);
        let config = ServeConfig {
            replicas: 2,
            restart_backoff: Duration::from_millis(10),
            ..ServeConfig::default()
        };
        let (handle, join) = start_with_provider(config, Arc::clone(&provider) as _);
        let addr = handle.addr().to_string();
        let mut client = Client::connect(&addr).expect("connect");
        // The first `poison` request crashes its home replica; the job is
        // re-routed to the sibling, whose backend serves it (the panic
        // trigger is consumed by the first attempt).
        match client.predict(1, "poison", 7).expect("roundtrip") {
            Response::Ok { id: 1, row, .. } => assert_eq!(row, echo_row("poison", 7, 1)),
            other => panic!("expected rerouted ok, got {other:?}"),
        }
        // The crashed replica restarts under supervision.
        wait_until(5_000, "supervised restart", || live(&handle, "serve.replica_restarts") >= 1);
        // And ordinary traffic never stopped.
        assert!(matches!(
            client.predict(2, "gemm", 3).expect("roundtrip"),
            Response::Ok { id: 2, .. }
        ));
        handle.shutdown();
        let snap = join.join().unwrap();
        assert_eq!(count(&snap, "serve.predictions"), 2);
        assert!(count(&snap, "serve.replica_crashes") >= 1);
        assert!(count(&snap, "serve.rerouted") >= 1);
        assert!(count(&snap, "serve.replica_restarts") >= 1);
    }

    #[test]
    fn poison_pill_is_dropped_after_bounded_attempts_not_served_forever() {
        let provider = Arc::new(TestProvider::new());
        provider.poison_remaining.store(-1, Ordering::SeqCst); // always panic
        let config = ServeConfig {
            replicas: 2,
            restart_backoff: Duration::from_millis(10),
            ..ServeConfig::default()
        };
        let (handle, join) = start_with_provider(config, Arc::clone(&provider) as _);
        let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
        match client.predict(1, "poison", 1).expect("roundtrip") {
            Response::Error { code, .. } => {
                assert!(
                    code == 500 || code == 503,
                    "poison pill must terminate as 500/503, got {code}"
                );
            }
            other => panic!("expected error, got {other:?}"),
        }
        // The pool heals: healthy traffic is served again.
        wait_until(5_000, "a replica to come back up", || {
            let mut c = Client::connect(&handle.addr().to_string()).expect("connect");
            matches!(c.predict(9, "gemm", 2), Ok(Response::Ok { .. }))
        });
        handle.shutdown();
        let snap = join.join().unwrap();
        assert!(
            count(&snap, "serve.replica_crashes") >= 2,
            "both dispatches must have crashed a replica"
        );
    }

    #[test]
    fn kill_drill_restarts_replica_while_siblings_serve() {
        let provider = Arc::new(TestProvider::new());
        let config = ServeConfig {
            replicas: 3,
            restart_backoff: Duration::from_millis(10),
            ..ServeConfig::default()
        };
        let (handle, join) = start_with_provider(config, Arc::clone(&provider) as _);
        let addr = handle.addr().to_string();
        let mut client = Client::connect(&addr).expect("connect");
        assert!(matches!(client.predict(1, "gemm", 1), Ok(Response::Ok { .. })));
        handle.kill_replica(0).expect("kill accepted");
        // Traffic keeps flowing throughout the crash + restart window.
        for i in 2..30u64 {
            match client.predict(i, "gemm", u128::from(i)).expect("roundtrip") {
                Response::Ok { .. } => {}
                Response::Rejected { .. } => {} // shed under churn is allowed
                other => panic!("request {i} failed: {other:?}"),
            }
        }
        wait_until(5_000, "killed replica to restart", || {
            live(&handle, "serve.replica_restarts") >= 1
        });
        handle.shutdown();
        let snap = join.join().unwrap();
        assert!(count(&snap, "serve.replica_crashes") >= 1);
        assert!(count(&snap, "serve.replica_restarts") >= 1);
    }

    #[test]
    fn hot_swap_retags_epoch_and_rebuilds_backends_without_downtime() {
        let provider = Arc::new(TestProvider::new());
        let (handle, join) =
            start_with_provider(ServeConfig::default(), Arc::clone(&provider) as _);
        let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
        match client.predict(1, "gemm", 5).expect("roundtrip") {
            Response::Ok { epoch: 1, row, .. } => assert_eq!(row.lut, 1.0, "built at epoch 1"),
            other => panic!("expected epoch-1 ok, got {other:?}"),
        }
        assert_eq!(handle.reload().expect("reload"), 2);
        assert_eq!(handle.epoch(), 2);
        // The replica follows at the next batch boundary.
        wait_until(5_000, "replica to adopt epoch 2", || {
            matches!(
                client.predict(99, "gemm", 5),
                Ok(Response::Ok { epoch: 2, row, .. }) if row.lut == 2.0
            )
        });
        handle.shutdown();
        let snap = join.join().unwrap();
        assert_eq!(count(&snap, "serve.reloads"), 1);
        assert_eq!(count(&snap, "serve.reload_failures"), 0);
    }

    #[test]
    fn failed_reload_rolls_back_and_previous_model_keeps_serving() {
        let provider = Arc::new(TestProvider::new());
        provider.fail_reload.store(true, Ordering::SeqCst);
        let (handle, join) =
            start_with_provider(ServeConfig::default(), Arc::clone(&provider) as _);
        let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
        assert!(matches!(
            client.predict(1, "gemm", 5),
            Ok(Response::Ok { epoch: 1, .. })
        ));
        let err = handle.reload().expect_err("reload must fail");
        assert!(err.contains("checksum"), "{err}");
        assert_eq!(handle.epoch(), 1, "epoch must not advance on failure");
        // Protocol-level reload reports the same failure.
        assert!(matches!(
            client.reload_server(),
            Err(crate::ServeError::Protocol(_)) | Ok(_)
        ));
        assert!(matches!(
            client.predict(2, "gemm", 5),
            Ok(Response::Ok { epoch: 1, .. })
        ));
        handle.shutdown();
        let snap = join.join().unwrap();
        assert!(count(&snap, "serve.reload_failures") >= 1);
        assert_eq!(count(&snap, "serve.reloads"), 0);
    }

    #[test]
    fn wedged_replica_is_retired_and_replaced() {
        let provider = Arc::new(TestProvider::new());
        provider.slow_remaining.store(1, Ordering::SeqCst);
        let config = ServeConfig {
            replicas: 1,
            max_batch: 1,
            wedge_timeout: Some(Duration::from_millis(100)),
            restart_backoff: Duration::from_millis(10),
            ..ServeConfig::default()
        };
        let (handle, join) = start_with_provider(config, Arc::clone(&provider) as _);
        let addr = handle.addr().to_string();
        // Request A wedges the only replica for 400 ms.
        let slow = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                c.predict(1, "slow", 1).expect("roundtrip")
            })
        };
        wait_until(5_000, "wedge to be detected", || live(&handle, "serve.replica_crashes") >= 1);
        // A replacement replica serves new traffic long before the stuck
        // call would have finished.
        wait_until(5_000, "replacement replica", || {
            let mut c = Client::connect(&addr).expect("connect");
            matches!(c.predict(2, "gemm", 2), Ok(Response::Ok { .. }))
        });
        // The stale instance answers its batch late (late beats never).
        assert!(matches!(slow.join().unwrap(), Response::Ok { id: 1, .. }));
        handle.shutdown();
        let snap = join.join().unwrap();
        assert!(count(&snap, "serve.replica_crashes") >= 1);
        assert!(count(&snap, "serve.replica_restarts") >= 1);
    }

    #[test]
    fn serve_metrics_are_merged_into_the_caller() {
        let (handle, join) = start(ServeConfig::default(), EchoBackend);
        let addr = handle.addr().to_string();
        let mut client = Client::connect(&addr).expect("connect");
        for i in 0..5u64 {
            client.predict(i, "gemm", u128::from(i)).expect("roundtrip");
        }
        drop(client);
        handle.shutdown();
        // The fold lands in the registry of the thread that called `run`.
        let snap = join.join().unwrap();
        assert_eq!(snap.counter("serve.requests"), Some(5));
        assert_eq!(snap.counter("serve.predictions"), Some(5));
        assert_eq!(snap.counter("serve.connections"), Some(1));
        assert_eq!(snap.gauge("serve.epoch"), Some(0.0), "static provider serves epoch 0");
        let hist = snap.histogram("serve.batch_size").expect("batch-size histogram present");
        assert!(hist.count >= 1);
        assert_eq!(snap.histogram("serve.trace.total_us").map(|h| h.count), Some(5));
    }

    #[test]
    fn stats_and_trace_endpoints_reflect_live_state() {
        let config = ServeConfig { replicas: 2, ..ServeConfig::default() };
        let (handle, join) = start(config, EchoBackend);
        let addr = handle.addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();

        // A traced predict: the echoed trace_id matches what we sent.
        stream
            .write_all(b"{\"id\": 1, \"kernel\": \"gemm\", \"index\": 5, \"trace_id\": \"deadbeef\"}\n")
            .unwrap();
        reader.read_line(&mut line).unwrap();
        let (resp, tid) = Response::parse_traced(line.trim()).unwrap();
        assert!(matches!(resp, Response::Ok { id: 1, .. }));
        assert_eq!(tid.as_deref(), Some("00000000deadbeef"), "client id normalized + echoed");

        // An untraced predict still gets a (minted) id echoed back.
        line.clear();
        stream.write_all(b"{\"id\": 2, \"kernel\": \"gemm\", \"index\": 6}\n").unwrap();
        reader.read_line(&mut line).unwrap();
        let (_, minted) = Response::parse_traced(line.trim()).unwrap();
        let minted = minted.expect("server mints when the client sends none");
        assert_eq!(minted.len(), 16);
        assert_ne!(minted, "00000000deadbeef");

        // Live stats from the RUNNING server: per-replica state + span
        // histograms with interpolated quantiles.
        line.clear();
        stream.write_all(b"{\"stats\": true}\n").unwrap();
        reader.read_line(&mut line).unwrap();
        let body = match Response::parse(line.trim()).unwrap() {
            Response::Stats { body } => body,
            other => panic!("expected stats, got {other:?}"),
        };
        let map = body.as_map().expect("stats body is a map");
        let get = |k: &str| map.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
        let replicas = get("replicas").unwrap();
        assert_eq!(replicas.as_seq().unwrap().len(), 2);
        for r in replicas.as_seq().unwrap() {
            let rm = r.as_map().unwrap();
            for field in ["replica", "queue_depth", "epoch", "up", "restarts"] {
                assert!(rm.iter().any(|(n, _)| n == field), "replica entry has {field}");
            }
        }
        let hists = get("histograms").unwrap();
        let infer = hists
            .as_seq()
            .unwrap()
            .iter()
            .find(|h| {
                h.as_map()
                    .unwrap()
                    .iter()
                    .any(|(n, v)| n == "name" && v.as_str() == Some("serve.trace.infer_us"))
            })
            .expect("infer span histogram present in live stats")
            .as_map()
            .unwrap();
        let num = |k: &str| -> f64 {
            match infer.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone()) {
                Some(serde::Value::Int(i)) => i as f64,
                Some(serde::Value::Float(f)) => f,
                other => panic!("{k} missing or non-numeric: {other:?}"),
            }
        };
        assert!(num("count") >= 2.0, "both predicts recorded an infer span");
        assert!(num("p50") <= num("p95") && num("p95") <= num("p99"));

        // The flight recorder answers by id and by "slow".
        line.clear();
        stream.write_all(b"{\"trace\": \"00000000deadbeef\"}\n").unwrap();
        reader.read_line(&mut line).unwrap();
        let by_id = match Response::parse(line.trim()).unwrap() {
            Response::Trace { body } => body,
            other => panic!("expected trace, got {other:?}"),
        };
        assert_eq!(by_id.as_seq().unwrap().len(), 1);
        line.clear();
        stream.write_all(b"{\"trace\": \"slow\"}\n").unwrap();
        reader.read_line(&mut line).unwrap();
        let slow = match Response::parse(line.trim()).unwrap() {
            Response::Trace { body } => body,
            other => panic!("expected trace, got {other:?}"),
        };
        let slowest = slow.as_seq().unwrap();
        assert!(!slowest.is_empty(), "slow listing remembers completed traces");
        let spans = slowest[0]
            .as_map()
            .unwrap()
            .iter()
            .find(|(n, _)| n == "spans")
            .map(|(_, v)| v.clone())
            .expect("trace carries its span timeline");
        assert!(!spans.as_seq().unwrap().is_empty());

        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn shard_routing_is_stable_per_kernel() {
        // Routing is an implementation detail, but its *stability* is the
        // contract: the same kernel must always map to the same home.
        let provider = Arc::new(TestProvider::new());
        let config = ServeConfig { replicas: 4, ..ServeConfig::default() };
        let shared = Shared::new(config, provider, "127.0.0.1:1".parse().unwrap());
        let homes: Vec<usize> = (0..4)
            .map(|_| {
                let (tx, _rx) = mpsc::channel();
                let now = Instant::now();
                let job = Job {
                    id: 0,
                    kernel: "gemm-ncubed".into(),
                    index: 0,
                    attempts: 0,
                    enqueued: now,
                    routed: now,
                    replica: None,
                    trace: obs::trace::TraceBuilder::new(obs::trace::TraceId::mint()),
                    reply: tx,
                };
                shared.slots.iter().for_each(|s| s.up.store(true, Ordering::SeqCst));
                shared.submit(job, None).ok().unwrap();
                shared
                    .slots
                    .iter()
                    .position(|s| s.queue.len() > 0)
                    .expect("job landed somewhere")
            })
            .collect();
        assert!(homes.windows(2).all(|w| w[0] == w[1]), "home must be stable: {homes:?}");
    }
}
