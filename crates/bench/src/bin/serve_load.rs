//! **Serving-tier load bench** — sustained concurrent load against the
//! replicated prediction server *while* the chaos drills of the failure
//! story run: one replica is killed a third of the way through, and the
//! model artifact is hot-swapped to a new version two thirds of the way
//! through. The whole point is the combination: latency percentiles and
//! throughput are measured across the crash and the cut-over, and the
//! bench asserts that not a single request failed.
//!
//! Writes `BENCH_serve.json`:
//!
//! * `requests` / `failed` (asserted 0) / `throughput_rps`;
//! * `latency_p50_us` / `latency_p99_us` across every request, faults
//!   included;
//! * `replica_restarts` (asserted >= 1 — the kill drill really ran),
//!   `reloads`, `epochs_seen` (asserted to contain the pre- and
//!   post-swap epochs);
//! * `stages`: per-stage latency attribution from the server's span
//!   histograms (`ingress`/`route`/`queue_wait`/`batch_wait`/`infer`/
//!   `write`, each with count + mean + p99), `trace_total_mean_us`, and
//!   `stage_coverage` (asserted >= 0.9 — the spans must tile the
//!   end-to-end latency, not sample it);
//! * `kernels`: matmul-level attribution inside the `infer` stage from
//!   the `infer.gemm_*` / `infer.quant_*` kernel counters, with
//!   `share_of_infer` = kernel time / infer-stage span time.
//!
//! `GNNDSE_CLIENTS` (default 4) and `GNNDSE_REQUESTS` (default 120,
//! per client) size the load. Serving speed is judged by the benchmark's
//! serve-open workload (`gdse-bench compare` on its `serve.*` stages), not
//! by this report's timings.

use gdse_gnn::{ModelConfig, ModelKind};
use gdse_serve::{Client, ClientConfig, Response, ServeConfig, Server};
use gnn_dse::trainer::TrainConfig;
use gnn_dse::{dbgen, ArtifactMeta, ArtifactProvider, Predictor};
use gnn_dse_bench::{init_obs_from_env, out, rule};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const KERNELS: [&str; 2] = ["gemm-ncubed", "spmv-ellpack"];

/// Where one pipeline stage spent its time, from the server's own
/// `serve.trace.<stage>_us` span histograms.
#[derive(serde::Serialize)]
struct StageStat {
    stage: String,
    count: u64,
    mean_us: f64,
    p99_us: f64,
}

/// Where the `infer` stage itself spent its time, from the tensor
/// kernels' own counters (`infer.gemm_*` booked by the blocked f32 GEMM,
/// `infer.quant_*` by the int8 panel kernel). `share_of_infer` is
/// Σ kernel time / Σ `infer`-stage span time: how much of the inference
/// stage the matmuls explain (the rest is graph encoding, batching glue
/// and head bookkeeping). Report-only — attribution, not a threshold.
#[derive(serde::Serialize)]
struct KernelAttribution {
    gemm_calls: u64,
    gemm_us: u64,
    quant_calls: u64,
    quant_us: u64,
    share_of_infer: f64,
}

#[derive(serde::Serialize)]
struct ServeBenchReport {
    clients: usize,
    requests_per_client: u64,
    replicas: usize,
    requests: u64,
    failed: u64,
    wall_us: u64,
    throughput_rps: f64,
    latency_p50_us: u64,
    latency_p99_us: u64,
    replica_crashes: u64,
    replica_restarts: u64,
    reloads: u64,
    reload_failures: u64,
    epochs_seen: Vec<u64>,
    /// Per-stage latency attribution, in pipeline order.
    stages: Vec<StageStat>,
    /// Mean end-to-end traced duration (first byte seen → response written).
    trace_total_mean_us: f64,
    /// Σ stage time / Σ end-to-end time: how much of the latency the spans
    /// explain. Near 1.0 when the spans tile; << 1 means a blind spot.
    stage_coverage: f64,
    /// Kernel-level breakdown of the `infer` stage.
    kernels: KernelAttribution,
}

/// The span taxonomy, in pipeline order (also the report's row order).
const STAGES: [&str; 6] = ["ingress", "route", "queue_wait", "batch_wait", "infer", "write"];

fn env_or(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(s) => s.parse().unwrap_or_else(|e| panic!("{name}: {e}")),
        Err(_) => default,
    }
}

fn train(seed: u64) -> Predictor {
    let ks = vec![hls_ir::kernels::gemm_ncubed(), hls_ir::kernels::spmv_ellpack()];
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

fn save(path: &std::path::Path, p: &Predictor) {
    let meta =
        ArtifactMeta::describe(p, &KERNELS.iter().map(|k| k.to_string()).collect::<Vec<_>>(), 2);
    p.save_artifact(path, &meta).expect("artifact saves");
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn main() {
    init_obs_from_env();
    let clients = env_or("GNNDSE_CLIENTS", 4) as usize;
    let per_client = env_or("GNNDSE_REQUESTS", 120);
    let replicas = 3usize;
    let total = clients as u64 * per_client;

    out!("Serving-tier load bench ({clients} clients x {per_client} requests, {replicas} replicas)");
    out!();

    let dir = std::env::temp_dir().join("gnn_dse_bench_serve_load");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("model.gdse");
    save(&path, &train(23));
    let provider = Arc::new(ArtifactProvider::open(&path, 1).expect("artifact opens"));

    let config = ServeConfig {
        replicas,
        queue_capacity: 128,
        restart_backoff: Duration::from_millis(5),
        ..ServeConfig::default()
    };
    let server = Server::bind_with_provider("127.0.0.1:0", config, provider).expect("bind");
    let handle = server.handle();
    let addr = handle.addr().to_string();
    // The server folds its live registry into the running thread's
    // registry when it returns; snapshot there to read the attribution.
    let run = std::thread::spawn(move || {
        gdse_obs::metrics::reset();
        server.run();
        gdse_obs::metrics::snapshot()
    });
    let live = handle.live_metrics();
    let live_count = |name: &str| live.snapshot().counter(name).unwrap_or(0);

    let completed = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let swapped = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let latencies = Mutex::new(Vec::<u64>::with_capacity(total as usize));
    let epochs = Mutex::new(BTreeSet::<u64>::new());

    let started = Instant::now();
    std::thread::scope(|s| {
        for (c, kernel) in (0..clients as u64).zip(KERNELS.iter().cycle()) {
            let addr = addr.clone();
            let completed = Arc::clone(&completed);
            let failed = Arc::clone(&failed);
            let swapped = Arc::clone(&swapped);
            let latencies = &latencies;
            let epochs = &epochs;
            s.spawn(move || {
                let config = ClientConfig {
                    retries: 5,
                    backoff: Duration::from_millis(2),
                    ..ClientConfig::default()
                };
                let mut client = Client::connect_with(&addr, config).expect("connect");
                let mut mine = Vec::with_capacity(per_client as usize);
                let mut seen = BTreeSet::new();
                for i in 0..per_client {
                    // Hold the final third of the load until the hot swap
                    // is live, so the measurement spans both versions
                    // (the wait itself is outside the timed region).
                    if i == per_client * 2 / 3 {
                        while !swapped.load(Ordering::SeqCst) {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    let t = Instant::now();
                    match client.predict(c * 1_000_000 + i, kernel, u128::from(i % 64)) {
                        Ok(Response::Ok { epoch, .. }) => {
                            mine.push(t.elapsed().as_micros() as u64);
                            seen.insert(epoch);
                        }
                        other => {
                            eprintln!("client {c} request {i}: {other:?}");
                            failed.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                }
                latencies.lock().unwrap().extend(mine);
                epochs.lock().unwrap().extend(seen);
            });
        }

        // The chaos schedule rides on load progress, not wall time.
        let mut admin = Client::connect(&addr).expect("admin connect");
        let wait_for = |n: u64| {
            while completed.load(Ordering::SeqCst) < n {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        wait_for(total / 3);
        admin.kill_replica(1).expect("kill drill");
        out!("  kill drill: crashed replica 1 at {} requests", completed.load(Ordering::SeqCst));
        // Every client gates itself at its own 2/3 mark; swap once they
        // are all parked there, then release them against the new model.
        wait_for(clients as u64 * (per_client * 2 / 3));
        save(&path, &train(97));
        match admin.reload_server().expect("reload") {
            Response::Reloaded { epoch } => {
                out!(
                    "  hot swap: epoch {epoch} live at {} requests",
                    completed.load(Ordering::SeqCst)
                )
            }
            other => panic!("hot swap failed mid-load: {other:?}"),
        }
        swapped.store(true, Ordering::SeqCst);
    });
    let wall = started.elapsed();

    // Don't let shutdown race the kill drill's restart backoff window.
    let deadline = Instant::now() + Duration::from_secs(10);
    while live_count("serve.replica_restarts") == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut admin = Client::connect(&addr).expect("admin connect");
    admin.shutdown_server().expect("shutdown");
    let snap = run.join().unwrap();

    let mut lat = latencies.into_inner().unwrap();
    lat.sort_unstable();
    let epochs_seen: Vec<u64> = epochs.into_inner().unwrap().into_iter().collect();

    // Per-stage attribution from the server's own span histograms.
    let hist = |name: &str| snap.histograms.iter().find(|h| h.name == name);
    let stages: Vec<StageStat> = STAGES
        .iter()
        .map(|stage| {
            let h = hist(&format!("serve.trace.{stage}_us"))
                .unwrap_or_else(|| panic!("span histogram for `{stage}` missing"));
            StageStat {
                stage: (*stage).to_string(),
                count: h.count,
                mean_us: h.mean(),
                p99_us: h.quantile(0.99),
            }
        })
        .collect();
    let total_hist = hist("serve.trace.total_us").expect("total trace histogram");
    let trace_total_mean_us = total_hist.mean();
    let stage_sum: u64 = stages
        .iter()
        .map(|s| hist(&format!("serve.trace.{}_us", s.stage)).map_or(0, |h| h.sum))
        .sum();
    let stage_coverage = if total_hist.sum == 0 {
        0.0
    } else {
        stage_sum as f64 / total_hist.sum as f64
    };

    // Kernel-level breakdown of the infer stage, from the tensor kernels'
    // own counters (folded into the same registry as the span histograms).
    let ctr = |name: &str| snap.counter(name).unwrap_or(0);
    let infer_sum = hist("serve.trace.infer_us").map_or(0, |h| h.sum);
    let (gemm_us, quant_us) = (ctr("infer.gemm_us"), ctr("infer.quant_us"));
    let kernels = KernelAttribution {
        gemm_calls: ctr("infer.gemm_calls"),
        gemm_us,
        quant_calls: ctr("infer.quant_calls"),
        quant_us,
        share_of_infer: if infer_sum == 0 {
            0.0
        } else {
            (gemm_us + quant_us) as f64 / infer_sum as f64
        },
    };
    let report = ServeBenchReport {
        clients,
        requests_per_client: per_client,
        replicas,
        requests: total,
        failed: failed.load(Ordering::SeqCst),
        wall_us: wall.as_micros() as u64,
        throughput_rps: total as f64 / wall.as_secs_f64(),
        latency_p50_us: percentile(&lat, 0.50),
        latency_p99_us: percentile(&lat, 0.99),
        replica_crashes: live_count("serve.replica_crashes"),
        replica_restarts: live_count("serve.replica_restarts"),
        reloads: live_count("serve.reloads"),
        reload_failures: live_count("serve.reload_failures"),
        epochs_seen: epochs_seen.clone(),
        stages,
        trace_total_mean_us,
        stage_coverage,
        kernels,
    };

    out!();
    out!("served {} requests in {:.2?}  ({:.0} req/s)", total, wall, report.throughput_rps);
    rule(72);
    out!("  latency    p50 {:>7} us | p99 {:>7} us", report.latency_p50_us, report.latency_p99_us);
    out!(
        "  failures   {} failed | {} crash(es) | {} restart(s) | {} reload(s)",
        report.failed,
        report.replica_crashes,
        report.replica_restarts,
        report.reloads
    );
    out!("  epochs     {:?}", report.epochs_seen);
    out!();
    out!("  per-stage attribution (mean / p99, us):");
    for s in &report.stages {
        out!("    {:<11} {:>9.1} / {:>9.1}  (n={})", s.stage, s.mean_us, s.p99_us, s.count);
    }
    out!(
        "  total      {:>9.1} us mean | spans explain {:.1}% of it",
        report.trace_total_mean_us,
        report.stage_coverage * 100.0
    );
    out!(
        "  kernels    gemm {} us over {} call(s) | quant {} us over {} call(s) | {:.1}% of infer",
        report.kernels.gemm_us,
        report.kernels.gemm_calls,
        report.kernels.quant_us,
        report.kernels.quant_calls,
        report.kernels.share_of_infer * 100.0
    );

    assert_eq!(report.failed, 0, "chaos must be invisible to clients");
    assert!(
        report.stage_coverage >= 0.9,
        "span timelines must tile end-to-end latency, covered only {:.1}%",
        report.stage_coverage * 100.0
    );
    assert!(report.replica_restarts >= 1, "the kill drill must have restarted replica 1");
    assert_eq!(report.reloads, 1, "exactly one hot swap ran");
    assert!(
        report.epochs_seen.contains(&1) && report.epochs_seen.contains(&2),
        "load must span both model versions, saw {:?}",
        report.epochs_seen
    );

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_serve.json", json).expect("BENCH_serve.json");
    out!();
    out!("wrote BENCH_serve.json");
}
