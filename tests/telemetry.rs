//! End-to-end request tracing and the live telemetry plane: trace ids
//! round-trip client → server → client, span timelines land in the flight
//! recorder, `stats`/`trace` protocol verbs read the RUNNING server — every
//! `serve.*` series included — the live registry folds into the caller's
//! registry at shutdown, and client-chosen kernel names mint no series.

use gdse_obs::MetricsSnapshot;
use gdse_serve::{BatchPredictor, Client, PredictionRow, Response, ServeConfig, Server};
use serde::{Deserialize, Value};
use std::time::Duration;

/// The kernels [`EchoBackend`] serves; it rejects every other name.
const SERVED: [&str; 2] = ["gemm", "spmv"];

/// A deterministic, slightly slow backend: the sleep guarantees every
/// request books non-zero `infer` time, so quantiles are meaningful.
struct EchoBackend;

impl BatchPredictor for EchoBackend {
    fn predict(&self, kernel: &str, indices: &[u128]) -> Result<Vec<PredictionRow>, String> {
        if !SERVED.contains(&kernel) {
            return Err(format!("unknown kernel `{kernel}`"));
        }
        std::thread::sleep(Duration::from_micros(300));
        Ok(indices
            .iter()
            .map(|&i| PredictionRow {
                valid_prob: 0.5,
                cycles: i as u64 + kernel.len() as u64,
                dsp: 0.0,
                bram: 0.0,
                lut: 0.0,
                ff: 0.0,
            })
            .collect())
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_map()
        .unwrap_or_else(|| panic!("expected a map looking up `{key}`"))
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("field `{key}` missing"))
}

fn as_f64(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// Runs `server` on its own thread, which returns its registry once `run`
/// has folded the server's live registry into it.
fn spawn_run(server: Server) -> std::thread::JoinHandle<MetricsSnapshot> {
    std::thread::spawn(move || {
        server.run();
        gdse_obs::metrics::snapshot()
    })
}

#[test]
fn traces_flow_end_to_end_and_the_live_plane_reports_them() {
    let config = ServeConfig {
        replicas: 3,
        // Everything is "slow": exercises the slow-trace counter + dump.
        trace_slow: Some(Duration::from_micros(1)),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config, EchoBackend).expect("bind");
    let handle = server.handle();
    let addr = handle.addr().to_string();
    // Snapshot the run thread's registry: the server must fold the live
    // registry into it when it returns.
    let join = spawn_run(server);

    // Load burst across kernels, from a few concurrent clients.
    std::thread::scope(|s| {
        for c in 0..3u64 {
            let addr = addr.clone();
            s.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let kernel = if c % 2 == 0 { "gemm" } else { "spmv" };
                for i in 0..12u64 {
                    let resp = client.predict(c * 100 + i, kernel, u128::from(i)).expect("ok");
                    assert!(matches!(resp, Response::Ok { .. }));
                }
            });
        }
    });

    let mut client = Client::connect(&addr).expect("connect");

    // A client-supplied trace id is normalized and echoed back.
    let (resp, echoed) =
        client.predict_traced(777, "gemm", 3, Some("DEADBEEF")).expect("traced predict");
    assert!(matches!(resp, Response::Ok { id: 777, .. }));
    assert_eq!(echoed.as_deref(), Some("00000000deadbeef"));

    // Without one, the server mints: 16 lowercase hex chars.
    let (_, minted) = client.predict_traced(778, "gemm", 4, None).expect("untraced predict");
    let minted = minted.expect("server-minted trace id");
    assert_eq!(minted.len(), 16);
    assert!(minted.bytes().all(|b| b.is_ascii_hexdigit()));

    // Live stats from the running server.
    let stats = client.stats().expect("stats");
    let replicas = field(&stats, "replicas").as_seq().expect("replicas array");
    assert_eq!(replicas.len(), 3);
    for r in replicas {
        for key in ["replica", "queue_depth", "epoch", "up", "restarts"] {
            let _ = field(r, key);
        }
    }
    let histograms = field(&stats, "histograms").as_seq().expect("histograms array");
    let infer = histograms
        .iter()
        .find(|h| field(h, "name").as_str() == Some("serve.trace.infer_us"))
        .expect("live infer span histogram");
    assert!(as_f64(field(infer, "count")) >= 38.0, "all predicts recorded an infer span");
    let (p50, p95, p99) = (
        as_f64(field(infer, "p50")),
        as_f64(field(infer, "p95")),
        as_f64(field(infer, "p99")),
    );
    assert!(p50 > 0.0, "the backend sleep guarantees non-zero infer time");
    assert!(p50 <= p95 && p95 <= p99, "quantiles must be ordered: {p50} {p95} {p99}");
    assert!(as_f64(field(&stats, "traces_recorded")) >= 38.0);

    // The live document carries every series while the server runs, not
    // only the trace histograms: request counters and the batch histogram
    // are booked in the same live registry.
    let live = MetricsSnapshot::from_value(field(&stats, "metrics")).expect("metrics parse");
    assert_eq!(live.counter("serve.requests"), Some(38));
    assert_eq!(live.counter("serve.predictions"), Some(38));
    assert!(live.histogram("serve.batch_size").expect("live batch-size histogram").count >= 1);

    // Flight recorder: by id, and the slowest-remembered listing.
    let by_id = client.trace("00000000deadbeef").expect("trace by id");
    let traces = by_id.as_seq().expect("trace array");
    assert_eq!(traces.len(), 1);
    assert_eq!(field(&traces[0], "kernel").as_str(), Some("gemm"));
    let spans = field(&traces[0], "spans").as_seq().expect("spans");
    let names: Vec<&str> =
        spans.iter().map(|s| field(s, "name").as_str().unwrap()).collect();
    for expected in ["ingress", "route", "queue_wait", "batch_wait", "infer", "write"] {
        assert!(names.contains(&expected), "span `{expected}` missing from {names:?}");
    }

    let slow = client.trace("slow").expect("trace slow");
    let slow = slow.as_seq().expect("slow array");
    assert!(!slow.is_empty(), "a loaded server remembers slow traces");
    assert!(as_f64(field(&slow[0], "total_us")) > 0.0);
    assert!(!field(&slow[0], "spans").as_seq().unwrap().is_empty());

    // An unknown id is an empty array, not an error.
    assert!(client.trace("ffffffffffffffff").expect("lookup").as_seq().unwrap().is_empty());

    // The last answer has been read: the folded totals must equal this.
    let last_live = handle.live_metrics().snapshot();
    drop(client);
    handle.shutdown();
    let snap = join.join().unwrap();
    assert_eq!(snap.counter("serve.predictions"), Some(38));
    for name in ["serve.requests", "serve.predictions", "serve.batches"] {
        assert!(last_live.counter(name).is_some(), "`{name}` is live before shutdown");
        assert_eq!(snap.counter(name), last_live.counter(name), "`{name}` folds once");
    }

    // The live registry folded into the caller: span histograms, labeled
    // variants, the queue-depth gauge, and the slow counter all arrived.
    let hist = |name: &str| {
        snap.histograms
            .iter()
            .find(|h| h.name == name)
            .unwrap_or_else(|| panic!("histogram `{name}` missing after merge"))
    };
    assert_eq!(hist("serve.trace.total_us").count, 38);
    assert_eq!(hist("serve.trace.write_us").count, 38);
    assert!(hist("serve.trace.infer_us{kernel=gemm}").count >= 1);
    assert!(hist("serve.trace.infer_us{kernel=spmv}").count >= 1);
    assert!(snap.histograms.iter().any(|h| h.name.starts_with("serve.trace.infer_us{replica=")));
    assert!(snap.gauges.iter().any(|(n, _)| n.starts_with("serve.queue_depth{replica=")));
    assert_eq!(snap.counter("serve.trace.slow"), Some(38), "every request crossed 1 us");
}

#[test]
fn unknown_kernel_names_are_answered_with_errors_and_mint_no_series() {
    // One replica: its `{replica=0}` series exist once it answered anything.
    let server =
        Server::bind("127.0.0.1:0", ServeConfig::default(), EchoBackend).expect("bind");
    let handle = server.handle();
    let join = spawn_run(server);
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    assert!(matches!(client.predict(0, "gemm", 1).expect("roundtrip"), Response::Ok { .. }));
    // A trace is booked after its answer went out; the handler serves the
    // next request on this connection only once it has booked the last one.
    client.stats().expect("stats");
    let live = handle.live_metrics();
    let before = live.snapshot().histograms.len();

    // Kernel names are client input: unbounded distinct names must not
    // grow the registry.
    for i in 1..=200u64 {
        let kernel = format!("no-such-kernel-{i}");
        match client.predict(i, &kernel, 0).expect("roundtrip") {
            Response::Error { code: 400, message, .. } => assert!(message.contains(&kernel)),
            other => panic!("unknown kernel `{kernel}` must be an error, got {other:?}"),
        }
    }
    client.stats().expect("stats");
    let after = live.snapshot();
    assert_eq!(after.histograms.len(), before, "failed requests minted histogram series");
    assert_eq!(after.counter("serve.errors"), Some(200));
    assert_eq!(
        after.histogram("serve.trace.infer_us").map(|h| h.count),
        Some(201),
        "failed requests still book the unlabeled series"
    );

    drop(client);
    handle.shutdown();
    join.join().unwrap();
}
