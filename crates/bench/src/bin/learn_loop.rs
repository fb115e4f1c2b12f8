//! **Continuous-learning loop bench** — sustained concurrent predict load
//! against a live `gnndse daemon` while its background driver fine-tunes
//! and hot-swaps the model, followed by a kill + restart that must resume
//! the campaign from its persisted checkpoint and replay buffer.
//!
//! Asserted properties (the tentpole acceptance criteria):
//!
//! * at least two background fine-tune rounds complete and hot-swap while
//!   clients hammer the server, with **zero** client-visible failures;
//! * the `epoch` on responses never moves backwards per client, and the
//!   set of epochs seen is contiguous from 1 — every swap is a strict
//!   increment;
//! * answers recorded at epoch 1 are **bit-identical** to what a copy of
//!   the pre-swap artifact computes offline — serving never drifts from
//!   the artifact it claims to serve;
//! * after a mid-campaign kill, a restart on the same paths resumes and
//!   finishes the campaign (each round exactly once, in order).
//!
//! Writes `BENCH_learn.json`: request/latency/throughput figures, rounds
//! per daemon life, swaps, epochs seen, and the identical-row count.
//!
//! `GNNDSE_CLIENTS` (default 3) sizes the load; `GNNDSE_ROUNDS`
//! (default 4) sizes the campaign.

use design_space::DesignSpace;
use gdse_serve::{BatchPredictor, Client, ClientConfig, PredictionRow, Response};
use gnn_dse::serving::PredictService;
use gnn_dse::{dbgen, Daemon, DaemonConfig, ExecEngine, Predictor};
use gnn_dse_bench::{init_obs_from_env, out, rule};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const KERNEL: &str = "atax";

#[derive(serde::Serialize)]
struct LearnBenchReport {
    clients: usize,
    rounds_planned: usize,
    requests: u64,
    failed: u64,
    wall_us: u64,
    throughput_rps: f64,
    latency_p50_us: u64,
    latency_p99_us: u64,
    rounds_first_life: usize,
    rounds_total: usize,
    swaps_first_life: u64,
    reloads: u64,
    reload_failures: u64,
    epochs_seen: Vec<u64>,
    identical_rows_checked: usize,
    resumed: bool,
}

fn env_or(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(s) => s.parse().unwrap_or_else(|e| panic!("{name}: {e}")),
        Err(_) => default,
    }
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
    let clients = env_or("GNNDSE_CLIENTS", 3) as usize;
    let rounds = (env_or("GNNDSE_ROUNDS", 4) as usize).max(3);
    let space_size = DesignSpace::from_kernel(&hls_ir::kernels::atax()).size();

    out!("Continuous-learning loop bench ({clients} clients, {rounds}-round campaign)");
    out!();

    let dir = std::env::temp_dir().join("gnn_dse_bench_learn_loop");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut cfg = DaemonConfig::quick(&dir);
    cfg.rounds.rounds = rounds;
    cfg.round_pause = Duration::from_millis(300);
    cfg.jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ks = vec![hls_ir::kernels::atax()];
    dbgen::generate_database(&ks, &[], 24, 11).save(&cfg.db).expect("seed db saves");

    // ---- First life: serve + learn under load, die mid-campaign. -------
    let daemon = Daemon::start(cfg.clone()).expect("daemon starts");
    // Copy the bootstrap artifact before any swap can land: this is the
    // reference for the bit-identical check on epoch-1 answers.
    let epoch1_copy = dir.join("epoch1.gdse");
    std::fs::copy(&cfg.artifact, &epoch1_copy).expect("artifact copy");
    let addr = daemon.addr().to_string();
    let handle = daemon.handle();
    let status = daemon.status();
    let run = std::thread::spawn(move || daemon.run());

    let stop = Arc::new(AtomicBool::new(false));
    let failed = Arc::new(AtomicU64::new(0));
    let requests = Arc::new(AtomicU64::new(0));
    // The highest epoch any client has been answered at.
    let highest = Arc::new(AtomicU64::new(0));
    let latencies = Mutex::new(Vec::<u64>::new());
    let epochs = Mutex::new(BTreeSet::<u64>::new());
    let epoch1_rows = Mutex::new(BTreeMap::<u128, PredictionRow>::new());

    let started = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients as u64 {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            let failed = Arc::clone(&failed);
            let requests = Arc::clone(&requests);
            let highest = Arc::clone(&highest);
            let (latencies, epochs, epoch1_rows) = (&latencies, &epochs, &epoch1_rows);
            s.spawn(move || {
                let config = ClientConfig {
                    retries: 5,
                    backoff: Duration::from_millis(2),
                    ..ClientConfig::default()
                };
                let mut client = Client::connect_with(&addr, config).expect("connect");
                let (mut mine, mut seen, mut last_epoch, mut i) = (Vec::new(), BTreeSet::new(), 0u64, 0u64);
                while !stop.load(Ordering::SeqCst) {
                    let idx = u128::from(i) % space_size;
                    let t = Instant::now();
                    match client.predict(c * 1_000_000 + i, KERNEL, idx) {
                        Ok(Response::Ok { epoch, row, .. }) => {
                            mine.push(t.elapsed().as_micros() as u64);
                            assert!(
                                epoch >= last_epoch,
                                "epoch went backwards on client {c}: {last_epoch} -> {epoch}"
                            );
                            last_epoch = epoch;
                            seen.insert(epoch);
                            highest.fetch_max(epoch, Ordering::SeqCst);
                            if epoch == 1 {
                                epoch1_rows.lock().unwrap().insert(idx, row);
                            }
                        }
                        other => {
                            eprintln!("client {c} request {i}: {other:?}");
                            failed.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    requests.fetch_add(1, Ordering::SeqCst);
                    i += 1;
                }
                latencies.lock().unwrap().extend(mine);
                epochs.lock().unwrap().extend(seen);
            });
        }

        // Load runs until two background fine-tune rounds have hot-swapped
        // and a client has been answered by the model of the second swap.
        let deadline = Instant::now() + Duration::from_secs(600);
        while status.swaps() < 2 || highest.load(Ordering::SeqCst) < 3 {
            assert!(Instant::now() < deadline, "no answer at epoch 3 within 600s");
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::SeqCst);
    });
    let wall = started.elapsed();
    let swaps_first = status.swaps();
    out!(
        "  first life: {} requests over {} swap(s) in {:.2?}",
        requests.load(Ordering::SeqCst),
        swaps_first,
        wall
    );

    handle.shutdown();
    let first = run.join().unwrap().expect("first daemon run");
    let first_live = handle.live_metrics().snapshot();
    assert!(first.learner_error.is_none(), "learner died: {:?}", first.learner_error);
    let rounds_first = first.rounds.len();
    assert!(rounds_first >= 2, "two fine-tune rounds must have completed under load");
    assert!(rounds_first < rounds, "the kill must land mid-campaign to exercise resume");

    // ---- Bit-identical: epoch-1 answers vs the pre-swap artifact. ------
    let (pre_swap, _) = Predictor::load_artifact(&epoch1_copy).expect("pre-swap copy loads");
    let offline = PredictService::new(pre_swap, ExecEngine::serial());
    let recorded = epoch1_rows.into_inner().unwrap();
    assert!(!recorded.is_empty(), "load must have sampled epoch 1");
    for (idx, row) in &recorded {
        let local = offline.predict(KERNEL, &[*idx]).expect("offline predict");
        assert_eq!(
            &local[0], row,
            "epoch-1 answer for index {idx} drifted from the pre-swap artifact"
        );
    }

    // ---- Second life: restart on the same paths, finish the campaign. --
    let daemon = Daemon::start(cfg).expect("daemon restarts");
    let addr = daemon.addr().to_string();
    let handle = daemon.handle();
    let status = daemon.status();
    let run = std::thread::spawn(move || daemon.run());
    let mut client = Client::connect(&addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(600);
    let mut i = 0u64;
    while status.state() != "complete" {
        assert!(Instant::now() < deadline, "resumed campaign did not finish within 600s");
        match client.predict(9_000_000 + i, KERNEL, u128::from(i) % space_size) {
            Ok(Response::Ok { .. }) => {}
            other => panic!("client-visible failure after restart: {other:?}"),
        }
        i += 1;
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(client);
    handle.shutdown();
    let second = run.join().unwrap().expect("second daemon run");
    assert!(second.learner_error.is_none(), "learner died: {:?}", second.learner_error);
    assert_eq!(second.rounds.len(), rounds, "the restart must finish the whole campaign");
    let numbers: Vec<usize> = second.rounds.iter().map(|r| r.round).collect();
    assert_eq!(numbers, (1..=rounds).collect::<Vec<_>>(), "each round exactly once, in order");

    let mut lat = latencies.into_inner().unwrap();
    lat.sort_unstable();
    let epochs_seen: Vec<u64> = epochs.into_inner().unwrap().into_iter().collect();
    let total = requests.load(Ordering::SeqCst);
    let report = LearnBenchReport {
        clients,
        rounds_planned: rounds,
        requests: total,
        failed: failed.load(Ordering::SeqCst),
        wall_us: wall.as_micros() as u64,
        throughput_rps: total as f64 / wall.as_secs_f64(),
        latency_p50_us: percentile(&lat, 0.50),
        latency_p99_us: percentile(&lat, 0.99),
        rounds_first_life: rounds_first,
        rounds_total: second.rounds.len(),
        swaps_first_life: swaps_first,
        reloads: first_live.counter("serve.reloads").unwrap_or(0),
        reload_failures: first_live.counter("serve.reload_failures").unwrap_or(0),
        epochs_seen: epochs_seen.clone(),
        identical_rows_checked: recorded.len(),
        resumed: true,
    };

    out!();
    out!("served {} requests in {:.2?}  ({:.0} req/s)", total, wall, report.throughput_rps);
    rule(72);
    out!("  latency    p50 {:>7} us | p99 {:>7} us", report.latency_p50_us, report.latency_p99_us);
    out!(
        "  learning   {} round(s) first life, {} total | {} swap(s) | {} reload failure(s)",
        report.rounds_first_life,
        report.rounds_total,
        report.swaps_first_life,
        report.reload_failures
    );
    out!("  epochs     {:?}", report.epochs_seen);
    out!("  identity   {} epoch-1 rows bit-identical to the pre-swap artifact", recorded.len());

    assert_eq!(report.failed, 0, "learning must be invisible to clients");
    assert!(report.swaps_first_life >= 2, "two hot swaps under load");
    assert_eq!(report.reload_failures, 0);
    let max_epoch = *epochs_seen.last().expect("some epoch seen");
    assert_eq!(
        epochs_seen,
        (1..=max_epoch).collect::<Vec<_>>(),
        "epochs must be contiguous from 1 — every swap a strict increment"
    );
    assert!(max_epoch >= 3, "two swaps move the served epoch to at least 3");

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_learn.json", json).expect("BENCH_learn.json");
    out!();
    out!("wrote BENCH_learn.json");
}
