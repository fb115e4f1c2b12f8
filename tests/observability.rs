//! End-to-end observability: a faulty rounds campaign must produce a run
//! report whose stage breakdown covers the run, whose oracle accounting
//! matches the oracle calls actually made, and which survives a disk round
//! trip — all through the public API, exactly as the `gnndse` CLI uses it.

use design_space::{DesignPoint, DesignSpace};
use gdse_obs::metrics;
use gdse_obs::RunReport;
use gnn_dse::harness::{Harness, RetryPolicy};
use gnn_dse::rounds::{run_rounds_with_engine, RoundsConfig};
use gnn_dse::{dbgen, ExecEngine};
use hls_ir::{kernels, Kernel};
use merlin_sim::{FaultConfig, FaultyOracle, HlsOracle, HlsResult, MerlinSimulator, OracleFailure};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counts the invocations of the oracle it wraps, independently of the
/// harness's own accounting.
struct CountingOracle<O> {
    inner: O,
    calls: Arc<AtomicU64>,
}

impl<O: HlsOracle> HlsOracle for CountingOracle<O> {
    fn run(
        &self,
        kernel: &Kernel,
        space: &DesignSpace,
        point: &DesignPoint,
        attempt: u32,
    ) -> Result<HlsResult, OracleFailure> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.run(kernel, space, point, attempt)
    }
}

/// Runs a small end-to-end campaign (database generation + 2 faulty rounds
/// with checkpointing) with a fresh metric registry, returning the report
/// and the number of oracle calls the campaign made.
fn run_campaign(dir: &std::path::Path) -> (RunReport, u64) {
    metrics::reset();
    let started = Instant::now();
    let ks = vec![kernels::spmv_ellpack()];
    let calls = Arc::new(AtomicU64::new(0));
    let oracle = CountingOracle {
        inner: FaultyOracle::new(MerlinSimulator::new(), FaultConfig::uniform(0.2, 17)),
        calls: Arc::clone(&calls),
    };
    let harness = Harness::new(oracle, RetryPolicy::with_max_retries(3));
    let engine = ExecEngine::serial();
    let mut db =
        dbgen::generate_database_par(&engine, &harness, &ks, &[("spmv-ellpack", 30)], 30, 5);
    let ck = dir.join("obs_ck.json");
    std::fs::remove_file(&ck).ok();
    let cfg = RoundsConfig { rounds: 2, ..RoundsConfig::quick() };
    run_rounds_with_engine(&mut db, &ks, &cfg, &harness, Some(&ck), false, &engine).unwrap();
    std::fs::remove_file(&ck).ok();
    let report = RunReport::from_current_metrics("rounds", started.elapsed());
    (report, calls.load(Ordering::Relaxed))
}

#[test]
fn campaign_report_separates_stages_and_covers_the_runtime() {
    let dir = std::env::temp_dir().join("gnn_dse_obs_it_stages");
    std::fs::create_dir_all(&dir).unwrap();
    let (report, _) = run_campaign(&dir);

    // Every pipeline stage must have been timed, with oracle (explore /
    // validate), GNN (train), and explorer (dse) time separated.
    for stage in ["explore", "setup", "train", "dse", "validate", "checkpoint"] {
        assert!(report.stage_us(stage) > 0, "stage `{stage}` untimed: {:?}", report.stages);
    }

    // The stage breakdown must account for at least 90% of the wall clock —
    // the acceptance bar for "the report explains where the time went".
    let covered = report.stages_total_us() as f64 / report.total_wall_us as f64;
    assert!(
        covered >= 0.9,
        "stages cover only {:.1}% of {}us: {:?}",
        covered * 100.0,
        report.total_wall_us,
        report.stages
    );
    // ... without double counting (stages never nest in themselves).
    assert!(report.stages_total_us() <= report.total_wall_us, "stage time exceeds wall time");
}

#[test]
fn campaign_report_oracle_section_matches_harness_stats() {
    let dir = std::env::temp_dir().join("gnn_dse_obs_it_oracle");
    std::fs::create_dir_all(&dir).unwrap();
    let (report, calls) = run_campaign(&dir);
    let oracle = &report.oracle;

    assert!(oracle.attempts > 0);
    assert_eq!(oracle.attempts, calls, "one attempt per oracle call");
    // Each attempt ends in exactly one of three outcomes...
    assert_eq!(
        oracle.attempts,
        oracle.successes + oracle.transient_failures + oracle.permanent_failures
    );
    // ...and an evaluation is lost on a permanent failure or an exhausted
    // retry budget.
    assert_eq!(oracle.lost, oracle.permanent_failures + oracle.exhausted);
    assert!(oracle.transient_failures > 0, "20% fault rate must inject something");
    assert!(oracle.virtual_backoff_ms > 0, "retried failures book backoff");

    // Every recorded failure carries a fault-kind label, so the per-kind
    // breakdown must sum to exactly the failures the harness saw.
    let fault_total: u64 = oracle.faults.iter().map(|(_, n)| n).sum();
    assert_eq!(fault_total, oracle.transient_failures + oracle.permanent_failures);
    assert!(!oracle.faults.is_empty(), "20% fault rate must inject something");
}

#[test]
fn campaign_report_counts_surrogate_and_dse_work() {
    let dir = std::env::temp_dir().join("gnn_dse_obs_it_surrogate");
    std::fs::create_dir_all(&dir).unwrap();
    let (report, _) = run_campaign(&dir);

    let counter = |name: &str| {
        report.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0)
    };
    assert!(counter("dse.points_explored") > 0, "DSE must explore candidates");
    assert!(counter("train.epochs") > 0, "training must run epochs");
    assert!(counter("rounds.completed") == 2, "both rounds must complete");
    assert!(report.surrogate.inferences > 0);
    assert!(report.surrogate.busy_us > 0);
    assert!(report.surrogate.mean_inference_us > 0.0);
    // The paper's pitch, measured on this very run: modelled HLS minutes per
    // evaluation vs. surrogate microseconds per inference.
    assert!(
        report.surrogate.modelled_vs_surrogate_speedup > 1_000.0,
        "speedup {} not plausible",
        report.surrogate.modelled_vs_surrogate_speedup
    );

    let forward = report
        .histograms
        .iter()
        .find(|h| h.name == "gnn.forward_us")
        .expect("gnn.forward_us histogram recorded");
    assert!(forward.count > 0);
    assert_eq!(forward.counts.iter().sum::<u64>(), forward.count);
}

#[test]
fn campaign_report_round_trips_through_disk() {
    let dir = std::env::temp_dir().join("gnn_dse_obs_it_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let (report, _) = run_campaign(&dir);

    let path = dir.join("run_report.json");
    gnn_dse::persist::atomic_write(&path, &report.to_json()).unwrap();
    let loaded = RunReport::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(loaded, report);
    assert_eq!(loaded.command, "rounds");
    std::fs::remove_file(&path).ok();
}
