//! The prediction service end-to-end with a real trained model: concurrent
//! clients over TCP must get answers bitwise-equal to the offline
//! `predict_batch` path, and a saturated queue must reject promptly instead
//! of stalling the clients.

use design_space::DesignSpace;
use gdse_gnn::{ModelConfig, ModelKind};
use gdse_serve::{Client, Response, ServeConfig, Server};
use gnn_dse::trainer::TrainConfig;
use gnn_dse::{dbgen, decode_predictor, encode_predictor, ArtifactMeta, ExecEngine,
    PredictService, Predictor};
use hls_ir::kernels;
use proggraph::build_graph_bidirectional;
use std::collections::HashMap;
use std::time::{Duration, Instant};

const KERNELS: [&str; 2] = ["gemm-ncubed", "spmv-ellpack"];

/// Runs `server` on its own thread, which returns its metrics registry once
/// `run` has folded the server's counters into it.
fn spawn_run(server: Server) -> std::thread::JoinHandle<gdse_obs::MetricsSnapshot> {
    std::thread::spawn(move || {
        server.run();
        gdse_obs::metrics::snapshot()
    })
}

/// A counter of a folded registry (0 if never booked).
fn count(snap: &gdse_obs::MetricsSnapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

fn tiny_predictor() -> Predictor {
    let ks = vec![kernels::gemm_ncubed(), kernels::spmv_ellpack()];
    let db = dbgen::generate_database(&ks, &[], 25, 23);
    let (p, _) = Predictor::train(
        &db,
        &ks,
        ModelKind::Transformer,
        ModelConfig::small(),
        &TrainConfig::quick().with_epochs(2),
    );
    p
}

/// The offline ground truth: `(kernel, index) -> prediction` straight from
/// `predict_batch`, bypassing the server entirely.
fn expected_rows(p: &Predictor, indices: &[u128]) -> HashMap<(String, u128), (f64, u64)> {
    let mut rows = HashMap::new();
    for name in KERNELS {
        let k = kernels::kernel_by_name(name).expect("known kernel");
        let space = DesignSpace::from_kernel(&k);
        let graph = build_graph_bidirectional(&k, &space);
        let points: Vec<_> = indices.iter().map(|&i| space.point_at(i % space.size())).collect();
        for (i, pred) in indices.iter().zip(p.predict_batch(&graph, &points)) {
            rows.insert((name.to_string(), *i), (pred.valid_prob, pred.cycles));
        }
    }
    rows
}

#[test]
fn concurrent_clients_match_the_offline_predictor_bitwise() {
    let p = tiny_predictor();
    let indices: Vec<u128> = (0..8).collect();
    let expected = expected_rows(&p, &indices);

    // Serve the *artifact round trip* of the model: what a deployment does.
    let meta = ArtifactMeta::describe(&p, &["gemm-ncubed".into(), "spmv-ellpack".into()], 2);
    let bytes = encode_predictor(&p, &meta).expect("encodes");
    let (loaded, _) = decode_predictor(&bytes).expect("decodes");
    let service = PredictService::new(loaded, ExecEngine::with_jobs(2));

    let server = Server::bind("127.0.0.1:0", ServeConfig::default(), service).expect("bind");
    let handle = server.handle();
    let join = spawn_run(server);
    let addr = handle.addr().to_string();

    std::thread::scope(|s| {
        for (c, kernel) in (0..4u64).zip(KERNELS.iter().cycle()) {
            let addr = addr.clone();
            let expected = &expected;
            let indices = &indices;
            s.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for &i in indices {
                    let id = c * 1000 + i as u64;
                    match client.predict(id, kernel, i).expect("roundtrip") {
                        Response::Ok { id: rid, row, epoch } => {
                            assert_eq!(epoch, 0, "static serving stays at epoch 0");
                            assert_eq!(rid, id);
                            let (valid_prob, cycles) =
                                expected[&(kernel.to_string(), i)];
                            assert_eq!(
                                row.valid_prob.to_bits(),
                                valid_prob.to_bits(),
                                "{kernel}[{i}]: served valid_prob must equal predict_batch"
                            );
                            assert_eq!(row.cycles, cycles, "{kernel}[{i}]: cycles");
                        }
                        other => panic!("expected ok, got {other:?}"),
                    }
                }
            });
        }
    });
    handle.shutdown();
    let snap = join.join().unwrap();
    assert_eq!(count(&snap, "serve.predictions"), 4 * 8);
    assert_eq!(count(&snap, "serve.rejected"), 0);
    assert_eq!(count(&snap, "serve.errors"), 0);
}

#[test]
fn zero_capacity_queue_rejects_every_request_promptly() {
    let p = tiny_predictor();
    let service = PredictService::new(p, ExecEngine::serial());
    let config = ServeConfig { queue_capacity: 0, ..ServeConfig::default() };
    let server = Server::bind("127.0.0.1:0", config, service).expect("bind");
    let handle = server.handle();
    let join = spawn_run(server);

    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    let started = Instant::now();
    for i in 0..5u64 {
        let resp = client.predict(i, "gemm-ncubed", u128::from(i)).expect("roundtrip");
        assert!(
            matches!(resp, Response::Rejected { id, .. } if id == i),
            "request {i} must bounce, got {resp:?}"
        );
        assert_eq!(resp.code(), 429);
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "rejections must be immediate, not queued"
    );
    handle.shutdown();
    let snap = join.join().unwrap();
    assert_eq!(count(&snap, "serve.predictions"), 0);
    assert_eq!(count(&snap, "serve.rejected"), 5);
}

#[test]
fn unknown_kernels_are_answered_with_an_error_not_a_crash() {
    let p = tiny_predictor();
    let service = PredictService::new(p, ExecEngine::serial());
    let server =
        Server::bind("127.0.0.1:0", ServeConfig::default(), service).expect("bind");
    let handle = server.handle();
    let join = spawn_run(server);

    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    match client.predict(1, "no-such-kernel", 0).expect("roundtrip") {
        Response::Error { code: 400, message, .. } => {
            assert!(message.contains("no-such-kernel"), "{message}");
        }
        other => panic!("expected 400, got {other:?}"),
    }
    // An out-of-range index is a per-group error too, and the server lives on.
    match client.predict(2, "gemm-ncubed", u128::MAX).expect("roundtrip") {
        Response::Error { code: 400, message, .. } => {
            assert!(message.contains("out of range"), "{message}");
        }
        other => panic!("expected 400, got {other:?}"),
    }
    assert!(matches!(
        client.predict(3, "gemm-ncubed", 1).expect("roundtrip"),
        Response::Ok { id: 3, .. }
    ));
    handle.shutdown();
    let snap = join.join().unwrap();
    assert_eq!(count(&snap, "serve.predictions"), 1);
    assert_eq!(count(&snap, "serve.errors"), 2);
}
