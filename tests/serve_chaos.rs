//! Chaos-tested serving: the replicated server under injected failure.
//!
//! Every test drives a *real* trained model through the TCP stack and
//! asserts the serving tier's resilience contract: a hot swap under
//! sustained load loses no requests and re-tags epochs, a killed replica
//! is restarted while retrying clients see only successes, a corrupted
//! artifact is rejected at reload while the previous model keeps serving,
//! and a fault-injecting proxy (drops / truncations / kills) is absorbed
//! entirely by the bundled client's bounded retries.

use design_space::DesignSpace;
use gdse_gnn::{ModelConfig, ModelKind};
use gdse_serve::{ChaosConfig, ChaosProxy, Client, ClientConfig, Response, ServeConfig, Server};
use gnn_dse::trainer::TrainConfig;
use gnn_dse::{dbgen, ArtifactMeta, ArtifactProvider, ExecEngine, PredictService, Predictor};
use hls_ir::kernels;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const KERNELS: [&str; 2] = ["gemm-ncubed", "spmv-ellpack"];

fn tiny_predictor(seed: u64) -> Predictor {
    let ks = vec![kernels::gemm_ncubed(), kernels::spmv_ellpack()];
    let db = dbgen::generate_database(&ks, &[], 25, seed);
    let (p, _) = Predictor::train(
        &db,
        &ks,
        ModelKind::Transformer,
        ModelConfig::small(),
        &TrainConfig::quick().with_epochs(2),
    );
    p
}

fn space_size(kernel: &str) -> u128 {
    let k = kernels::kernel_by_name(kernel).expect("known kernel");
    DesignSpace::from_kernel(&k).size()
}

fn save_model(path: &std::path::Path, p: &Predictor) {
    let meta = ArtifactMeta::describe(p, &KERNELS.iter().map(|k| k.to_string()).collect::<Vec<_>>(), 2);
    p.save_artifact(path, &meta).expect("artifact saves");
}

fn temp_artifact(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gnn_dse_serve_chaos_{tag}"));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join("model.gdse")
}

/// Spawns `Server::run` and returns the join handle; the closure
/// snapshots the run thread's metrics registry *after* `run()` folded the
/// server's live registry into it, so the test can assert `serve.*`
/// counters.
type RunHandle = std::thread::JoinHandle<gdse_obs::metrics::MetricsSnapshot>;

fn spawn_run(server: Server) -> RunHandle {
    std::thread::spawn(move || {
        server.run();
        gdse_obs::metrics::snapshot()
    })
}

/// A counter of a metrics snapshot (0 if never booked).
fn count(snap: &gdse_obs::metrics::MetricsSnapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

#[test]
fn hot_swap_under_sustained_load_loses_no_requests_and_moves_the_epoch() {
    let path = temp_artifact("hot_swap");
    save_model(&path, &tiny_predictor(23));
    let provider = Arc::new(ArtifactProvider::open(&path, 1).expect("artifact opens"));

    let config = ServeConfig { replicas: 3, queue_capacity: 64, ..ServeConfig::default() };
    let server = Server::bind_with_provider("127.0.0.1:0", config, provider).expect("bind");
    let handle = server.handle();
    let addr = handle.addr().to_string();
    let run = spawn_run(server);

    // Sustained load: four clients, each hammering one kernel with bounded
    // retries. Every single request must come back `ok`.
    let failures = Arc::new(AtomicU64::new(0));
    let epochs = std::sync::Mutex::new(BTreeSet::new());
    std::thread::scope(|s| {
        for (c, kernel) in (0..4u64).zip(KERNELS.iter().cycle()) {
            let addr = addr.clone();
            let failures = Arc::clone(&failures);
            let epochs = &epochs;
            let size = space_size(kernel);
            s.spawn(move || {
                let config = ClientConfig {
                    retries: 4,
                    backoff: Duration::from_millis(2),
                    ..ClientConfig::default()
                };
                let mut client = Client::connect_with(&addr, config).expect("connect");
                for i in 0..60u64 {
                    match client.predict(c * 1000 + i, kernel, u128::from(i) % size) {
                        Ok(Response::Ok { epoch, .. }) => {
                            epochs.lock().unwrap().insert(epoch);
                        }
                        other => {
                            eprintln!("request {i} of client {c} failed: {other:?}");
                            failures.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            });
        }

        // Mid-load: publish a new model version and cut over live.
        std::thread::sleep(Duration::from_millis(30));
        save_model(&path, &tiny_predictor(97));
        let mut admin = Client::connect(&addr).expect("admin connect");
        match admin.reload_server().expect("reload roundtrip") {
            Response::Reloaded { epoch } => assert_eq!(epoch, 2, "second version is epoch 2"),
            other => panic!("expected reload ack, got {other:?}"),
        }
    });

    assert_eq!(failures.load(Ordering::SeqCst), 0, "hot swap must not fail a single request");

    // Replicas cut over at batch boundaries; after the ack the next answers
    // must converge on epoch 2.
    let mut probe = Client::connect(&addr).expect("probe connect");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match probe.predict(9_999, KERNELS[0], 1).expect("probe roundtrip") {
            Response::Ok { epoch: 2, .. } => break,
            Response::Ok { .. } if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5))
            }
            other => panic!("replicas never converged on epoch 2: {other:?}"),
        }
    }
    probe.shutdown_server().expect("shutdown");

    let snap = run.join().unwrap();
    assert_eq!(count(&snap, "serve.reload_failures"), 0);
    let seen = epochs.into_inner().unwrap();
    assert!(
        seen.iter().all(|e| *e == 1 || *e == 2),
        "answers must be tagged with a served epoch, saw {seen:?}"
    );
    assert!(seen.contains(&1), "load started against epoch 1, saw {seen:?}");
    assert_eq!(snap.counter("serve.reloads"), Some(1));
}

#[test]
fn killed_replica_restarts_while_retrying_clients_see_only_successes() {
    let p = tiny_predictor(23);
    let service = PredictService::new(p, ExecEngine::serial());
    let config = ServeConfig {
        replicas: 3,
        restart_backoff: Duration::from_millis(5),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config, service).expect("bind");
    let handle = server.handle();
    let addr = handle.addr().to_string();
    let run = spawn_run(server);

    let failures = Arc::new(AtomicU64::new(0));
    let successes = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for (c, kernel) in (0..3u64).zip(KERNELS.iter().cycle()) {
            let addr = addr.clone();
            let failures = Arc::clone(&failures);
            let successes = Arc::clone(&successes);
            let size = space_size(kernel);
            s.spawn(move || {
                let config = ClientConfig {
                    retries: 4,
                    backoff: Duration::from_millis(2),
                    ..ClientConfig::default()
                };
                let mut client = Client::connect_with(&addr, config).expect("connect");
                for i in 0..40u64 {
                    match client.predict(c * 1000 + i, kernel, u128::from(i) % size) {
                        Ok(Response::Ok { .. }) => {
                            successes.fetch_add(1, Ordering::SeqCst);
                        }
                        other => {
                            eprintln!("request {i} of client {c} failed: {other:?}");
                            failures.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            });
        }

        // Mid-load chaos drill: crash one replica outright.
        std::thread::sleep(Duration::from_millis(20));
        let mut admin = Client::connect(&addr).expect("admin connect");
        match admin.kill_replica(1).expect("kill roundtrip") {
            Response::Killed { replica: 1 } => {}
            other => panic!("expected kill ack, got {other:?}"),
        }
    });

    assert_eq!(failures.load(Ordering::SeqCst), 0, "siblings must absorb the killed replica");
    assert_eq!(successes.load(Ordering::SeqCst), 3 * 40);

    // The load can finish inside the restart backoff window; give the
    // supervisor its moment before draining the server.
    let deadline = Instant::now() + Duration::from_secs(10);
    while count(&handle.live_metrics().snapshot(), "serve.replica_restarts") == 0
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut admin = Client::connect(&addr).expect("admin connect");
    admin.shutdown_server().expect("shutdown");
    let snap = run.join().unwrap();
    assert!(count(&snap, "serve.replica_crashes") >= 1, "the drill crashed a replica");
    assert!(count(&snap, "serve.replica_restarts") >= 1, "the supervisor restarted it");
    assert_eq!(count(&snap, "serve.errors"), 0, "no request may surface the crash");
}

#[test]
fn corrupted_artifact_is_rejected_at_reload_and_the_old_model_keeps_serving() {
    let path = temp_artifact("corrupt_reload");
    save_model(&path, &tiny_predictor(23));
    let provider = Arc::new(ArtifactProvider::open(&path, 1).expect("artifact opens"));

    let config = ServeConfig { replicas: 2, ..ServeConfig::default() };
    let server = Server::bind_with_provider("127.0.0.1:0", config, provider).expect("bind");
    let handle = server.handle();
    let addr = handle.addr().to_string();
    let run = spawn_run(server);

    let mut client = Client::connect(&addr).expect("connect");
    let baseline = match client.predict(1, KERNELS[0], 1).expect("roundtrip") {
        Response::Ok { epoch, row, .. } => {
            assert_eq!(epoch, 1);
            row
        }
        other => panic!("expected ok, got {other:?}"),
    };

    // Corrupt the artifact on disk (truncate to half), then ask for a swap.
    let bytes = std::fs::read(&path).expect("artifact readable");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
    match client.reload_server().expect("reload roundtrip") {
        Response::Error { code: 500, message, .. } => {
            assert!(!message.is_empty(), "rollback must say why");
        }
        other => panic!("corrupt reload must fail loudly, got {other:?}"),
    }

    // The previous model must still answer, bit-identically, at epoch 1.
    match client.predict(2, KERNELS[0], 1).expect("roundtrip") {
        Response::Ok { epoch, row, .. } => {
            assert_eq!(epoch, 1, "epoch must not advance on a failed reload");
            assert_eq!(row.valid_prob.to_bits(), baseline.valid_prob.to_bits());
            assert_eq!(row.cycles, baseline.cycles);
        }
        other => panic!("expected ok, got {other:?}"),
    }

    // Repair the artifact: the next reload succeeds and moves the epoch.
    std::fs::write(&path, &bytes).expect("restore");
    match client.reload_server().expect("reload roundtrip") {
        Response::Reloaded { epoch } => assert_eq!(epoch, 2),
        other => panic!("repaired artifact must reload, got {other:?}"),
    }

    client.shutdown_server().expect("shutdown");
    let snap = run.join().unwrap();
    assert_eq!(snap.counter("serve.reload_failures"), Some(1));
    assert_eq!(snap.counter("serve.reloads"), Some(1));
}

#[test]
fn chaos_proxy_faults_are_absorbed_by_client_retries() {
    let p = tiny_predictor(23);
    let service = PredictService::new(p, ExecEngine::serial());
    let config = ServeConfig { replicas: 2, ..ServeConfig::default() };
    let server = Server::bind("127.0.0.1:0", config, service).expect("bind");
    let handle = server.handle();
    let addr = handle.addr().to_string();
    let run = spawn_run(server);

    // A hostile wire: 20% of connections die at accept, 10% get their
    // response truncated mid-line, 10% are killed after the first chunk.
    let chaos = ChaosConfig {
        drop_rate: 0.2,
        truncate_rate: 0.1,
        kill_rate: 0.1,
        seed: 11,
        ..ChaosConfig::default()
    };
    let mut proxy = ChaosProxy::start("127.0.0.1:0", &addr, chaos).expect("proxy starts");
    let proxied = proxy.addr().to_string();

    let config = ClientConfig {
        read_timeout: Some(Duration::from_secs(2)),
        retries: 8,
        backoff: Duration::from_millis(2),
        ..ClientConfig::default()
    };
    // The first dial itself may land on a dropped connection: retry it.
    let mut client = None;
    for _ in 0..8 {
        match Client::connect_with(&proxied, config) {
            Ok(c) => {
                client = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    let mut client = client.expect("client eventually connects through the proxy");

    let size = space_size(KERNELS[0]);
    for i in 0..40u64 {
        match client.predict(i, KERNELS[0], u128::from(i) % size) {
            Ok(Response::Ok { id, .. }) => assert_eq!(id, i),
            other => panic!("retries must absorb the chaos, request {i} got {other:?}"),
        }
    }

    let faults = proxy.stats();
    assert!(
        faults.dropped + faults.truncated + faults.killed >= 1,
        "the proxy must actually have injected faults: {faults:?}"
    );
    proxy.shutdown();

    let mut admin = Client::connect(&addr).expect("admin connect");
    admin.shutdown_server().expect("shutdown");
    let snap = run.join().unwrap();
    assert!(count(&snap, "serve.predictions") >= 40);
}
