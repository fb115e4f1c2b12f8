//! Cross-crate resilience integration: fault-injecting oracle, retrying
//! harness, degraded-but-complete campaigns, and crash-safe checkpointing —
//! all through the public API.

use design_space::DesignSpace;
use gdse_obs::metrics;
use gnn_dse::dbgen::{self, fault_injected_harness};
use gnn_dse::harness::{EvalBackend, Harness, RetryPolicy};
use gnn_dse::rounds::{run_rounds_with_engine, RoundReport, RoundsConfig, RoundsError};
use gnn_dse::{Database, ExecEngine};
use hls_ir::{kernels, Kernel};
use merlin_sim::{FaultConfig, FaultyOracle, HlsOracle, MerlinSimulator};
use std::path::Path;

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

#[test]
fn fault_sequences_reproduce_from_the_seed() {
    let k = kernels::gemm_ncubed();
    let space = DesignSpace::from_kernel(&k);
    let cfg = FaultConfig::uniform(0.35, 123);
    let a = FaultyOracle::new(MerlinSimulator::new(), cfg);
    let b = FaultyOracle::new(MerlinSimulator::new(), cfg);
    for i in 0..50u64 {
        let p = space.point_at(u128::from(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % space.size());
        for attempt in 0..3 {
            let ra = a.run(&k, &space, &p, attempt).map_err(|e| e.to_string());
            let rb = b.run(&k, &space, &p, attempt).map_err(|e| e.to_string());
            assert_eq!(ra.is_ok(), rb.is_ok());
            assert_eq!(ra.err(), rb.err());
        }
    }
}

#[test]
fn faulty_database_generation_contains_only_validated_entries() {
    let ks = vec![kernels::spmv_ellpack()];
    let harness =
        fault_injected_harness(FaultConfig::uniform(0.25, 7), RetryPolicy::with_max_retries(3));
    metrics::reset();
    let db = dbgen::generate_database_par(&ExecEngine::serial(), &harness, &ks, &[], 40, 11);
    // Every committed entry must match the fault-free ground truth: faults
    // may delay or lose evaluations but never corrupt committed results.
    let sim = MerlinSimulator::new();
    let space = DesignSpace::from_kernel(&ks[0]);
    assert!(!db.is_empty());
    for e in db.entries() {
        let truth = sim.evaluate(&ks[0], &space, &e.point);
        assert_eq!(e.result.validity, truth.validity);
        assert_eq!(e.result.cycles, truth.cycles);
    }
    assert!(
        metrics::counter_value("oracle.transient_failures") > 0,
        "the fault injector should have fired"
    );
}

#[test]
fn harness_loses_points_without_retries_but_recovers_with_them() {
    let k = kernels::gemm_ncubed();
    let space = DesignSpace::from_kernel(&k);
    let faults = FaultConfig::uniform(0.5, 99);
    let fragile = Harness::new(
        FaultyOracle::new(MerlinSimulator::new(), faults),
        RetryPolicy::with_max_retries(0),
    );
    let sturdy = Harness::new(
        FaultyOracle::new(MerlinSimulator::new(), faults),
        RetryPolicy::with_max_retries(6),
    );
    let points: Vec<_> = (0..30u64)
        .map(|i| space.point_at(u128::from(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % space.size()))
        .collect();
    let successes = |h: &dyn EvalBackend| {
        points.iter().filter(|p| h.try_evaluate(&k, &space, p).is_ok()).count()
    };
    let fragile_ok = successes(&fragile);
    metrics::reset();
    let sturdy_ok = successes(&sturdy);
    assert!(fragile_ok < 30, "50% faults with no retries must lose something");
    assert!(sturdy_ok > fragile_ok, "retries must recover transient faults");
    assert!(
        metrics::counter_value("oracle.virtual_backoff_ms") > 0,
        "retries imply recorded backoff"
    );
}

#[test]
fn faulty_rounds_complete_and_checkpoint_resume_matches() {
    let dir = std::env::temp_dir().join("gnn_dse_resilience_it");
    std::fs::create_dir_all(&dir).unwrap();
    let ks = vec![kernels::spmv_ellpack()];
    let base = dbgen::generate_database(&ks, &[("spmv-ellpack", 30)], 30, 5);
    let cfg = RoundsConfig { rounds: 2, ..RoundsConfig::quick() };
    let faults = FaultConfig::uniform(0.2, 17);
    let policy = RetryPolicy::with_max_retries(3);

    // Uninterrupted faulty run.
    let mut db_full = base.clone();
    let h1 = fault_injected_harness(faults, policy);
    let full = serial_campaign(&mut db_full, &ks, &cfg, &h1, None, false).unwrap();
    assert_eq!(full.len(), 2, "every round completes despite 20% faults");

    // Same campaign, killed after round 1 and resumed from the checkpoint.
    let ck = dir.join("ck.json");
    std::fs::remove_file(&ck).ok();
    let mut db_killed = base.clone();
    let h2 = fault_injected_harness(faults, policy);
    let killed_cfg = RoundsConfig { stop_after: Some(1), ..cfg.clone() };
    serial_campaign(&mut db_killed, &ks, &killed_cfg, &h2, Some(&ck), false).unwrap();

    let mut db_resumed = base.clone();
    let h3 = fault_injected_harness(faults, policy);
    let resumed = serial_campaign(&mut db_resumed, &ks, &cfg, &h3, Some(&ck), true).unwrap();

    assert_eq!(resumed, full, "resumed reports must match the uninterrupted run");
    let a = dir.join("full.json");
    let b = dir.join("resumed.json");
    db_full.save(&a).unwrap();
    db_resumed.save(&b).unwrap();
    assert_eq!(
        std::fs::read(&a).unwrap(),
        std::fs::read(&b).unwrap(),
        "final databases must be byte-identical"
    );
    for f in [&ck, &a, &b] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn resumed_campaign_metrics_match_an_uninterrupted_run() {
    let dir = std::env::temp_dir().join("gnn_dse_resilience_metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let ks = vec![kernels::spmv_ellpack()];
    let base = dbgen::generate_database(&ks, &[("spmv-ellpack", 30)], 30, 5);
    let cfg = RoundsConfig { rounds: 2, ..RoundsConfig::quick() };
    let faults = FaultConfig::uniform(0.2, 17);
    let policy = RetryPolicy::with_max_retries(3);

    // Work counters are deterministic under the seeded loop + stateless
    // fault decisions; timing counters (anything *_us) are wall-clock and
    // excluded from the comparison.
    const DETERMINISTIC: &[&str] = &[
        "oracle.attempts",
        "oracle.successes",
        "oracle.transient_failures",
        "oracle.permanent_failures",
        "oracle.exhausted",
        "oracle.retries",
        "oracle.virtual_backoff_ms",
        "sim.evals",
        "surrogate.inferences",
        "gnn.forwards",
        "train.epochs",
        "dse.points_explored",
        "dse.candidates_returned",
        "rounds.completed",
        "rounds.designs_added",
        "rounds.validations_lost",
    ];
    let work = |snap: &gdse_obs::MetricsSnapshot| -> Vec<(String, u64)> {
        DETERMINISTIC
            .iter()
            .map(|&n| (n.to_string(), snap.counter(n).unwrap_or(0)))
            .collect()
    };

    // Uninterrupted campaign, fresh registry.
    metrics::reset();
    let mut db_full = base.clone();
    let h1 = fault_injected_harness(faults, policy);
    serial_campaign(&mut db_full, &ks, &cfg, &h1, None, false).unwrap();
    let full = work(&metrics::snapshot());

    // Same campaign killed after round 1; the checkpoint carries the metric
    // registry of everything up to the kill...
    let ck = dir.join("metrics_ck.json");
    std::fs::remove_file(&ck).ok();
    metrics::reset();
    let mut db_killed = base.clone();
    let h2 = fault_injected_harness(faults, policy);
    let killed_cfg = RoundsConfig { stop_after: Some(1), ..cfg.clone() };
    serial_campaign(&mut db_killed, &ks, &killed_cfg, &h2, Some(&ck), false).unwrap();

    // ...so a resume in a fresh process (registry wiped) still reports the
    // whole campaign, not just the post-crash rounds.
    metrics::reset();
    let mut db_resumed = base.clone();
    let h3 = fault_injected_harness(faults, policy);
    serial_campaign(&mut db_resumed, &ks, &cfg, &h3, Some(&ck), true).unwrap();
    let resumed = work(&metrics::snapshot());

    assert!(
        full.iter().any(|(_, v)| *v > 0),
        "campaign must record work counters: {full:?}"
    );
    assert_eq!(resumed, full, "resumed campaign must report the same work");
    std::fs::remove_file(&ck).ok();
}

#[test]
fn corrupted_database_file_fails_with_an_actionable_error() {
    let dir = std::env::temp_dir().join("gnn_dse_resilience_db_err");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("truncated.json");
    // Simulate the torn write that non-atomic persistence would leave.
    std::fs::write(&path, "{\"entries\":[{\"kernel\":\"aes\",\"po").unwrap();
    let err = Database::load(&path).unwrap_err().to_string();
    assert!(err.contains("truncated.json"), "error must name the file: {err}");
    std::fs::remove_file(&path).ok();
}
