//! Cross-crate parallel-execution integration: jobs-invariant outputs and
//! fault-stat merging across workers — all through the public API.
//!
//! `GNNDSE_JOBS` sets the high worker count these tests compare against
//! serial (default 8).

use design_space::{DesignPoint, DesignSpace};
use gdse_obs::metrics;
use gnn_dse::dbgen::{self, fault_injected_harness};
use gnn_dse::dse::{run_dse_with_engine, DseConfig};
use gnn_dse::harness::{EvalBackend, RetryPolicy};
use gnn_dse::objective::ObjectiveKind;
use gnn_dse::rounds::{run_rounds_with_engine, RoundsConfig};
use gnn_dse::trainer::TrainConfig;
use gnn_dse::{ExecEngine, Prediction, Predictor};
use hls_ir::kernels;
use merlin_sim::FaultConfig;
use proggraph::build_graph_bidirectional;
use std::time::Duration;

fn high_jobs() -> usize {
    match std::env::var("GNNDSE_JOBS") {
        Ok(s) => s.parse().expect("GNNDSE_JOBS must be a worker count"),
        Err(_) => 8,
    }
}

/// (a) Database generation is byte-identical at any worker count, and a
/// full rounds campaign lands on the same reports and the same database.
#[test]
fn jobs_one_and_jobs_n_produce_byte_identical_campaigns() {
    let dir = std::env::temp_dir().join("gnn_dse_parallel_it");
    std::fs::create_dir_all(&dir).unwrap();
    let jobs = high_jobs();
    let ks = vec![kernels::gemm_ncubed(), kernels::spmv_crs()];
    let cfg = RoundsConfig { rounds: 2, ..RoundsConfig::quick() };
    let faults = FaultConfig::uniform(0.15, 23);
    let policy = RetryPolicy::with_max_retries(3);

    let mut outputs = Vec::new();
    for (label, n) in [("serial", 1), ("parallel", jobs)] {
        let engine = ExecEngine::with_jobs(n);
        let h = fault_injected_harness(faults, policy);
        let mut db = dbgen::generate_database_par(&engine, &h, &ks, &[], 30, 5);
        let gen_path = dir.join(format!("gen_{label}.json"));
        db.save(&gen_path).unwrap();

        let reports = run_rounds_with_engine(&mut db, &ks, &cfg, &h, None, false, &engine).unwrap();
        let rounds_path = dir.join(format!("rounds_{label}.json"));
        db.save(&rounds_path).unwrap();
        outputs.push((
            std::fs::read(&gen_path).unwrap(),
            std::fs::read(&rounds_path).unwrap(),
            reports,
        ));
        std::fs::remove_file(&gen_path).ok();
        std::fs::remove_file(&rounds_path).ok();
    }

    let (gen_a, rounds_a, reports_a) = &outputs[0];
    let (gen_b, rounds_b, reports_b) = &outputs[1];
    assert_eq!(gen_a, gen_b, "generated databases must be byte-identical at jobs=1 vs {jobs}");
    assert_eq!(rounds_a, rounds_b, "post-rounds databases must be byte-identical");
    assert_eq!(reports_a, reports_b, "round reports (incl. best configs) must match");
}

/// (a, DSE flavor) The surrogate-driven search returns bit-identical top
/// configurations and Pareto front at any worker count. Each worker scores
/// its own chunk of every batch, and which points share a chunk decides
/// which rows `infer` computes once; no predicted bit may depend on it. The
/// model is the benchmark's M7 (hidden 32, 4 GNN + 4 MLP layers) on 2mm.
#[test]
fn dse_top_configs_are_jobs_invariant() {
    let k = kernels::mm2();
    let space = DesignSpace::from_kernel(&k);
    let graph = build_graph_bidirectional(&k, &space);
    // Briefly trained, so that some predictions are usable and the front
    // is not empty.
    let ks = vec![k.clone()];
    let db = dbgen::generate_database(&ks, &[], 24, 5);
    let (p, _) = Predictor::train(
        &db,
        &ks,
        gdse_gnn::ModelKind::Full,
        gdse_gnn::ModelConfig { hidden: 32, gnn_layers: 4, mlp_layers: 4, seed: 42 },
        &TrainConfig::quick().with_epochs(20),
    );
    // No wall-clock cut: every run scores the same points.
    let cfg = DseConfig {
        kind: ObjectiveKind::Pareto,
        time_limit: Duration::from_secs(3600),
        ..DseConfig::quick()
    };
    let bits = |entries: &[(DesignPoint, Prediction)]| -> Vec<(DesignPoint, [u64; 6])> {
        entries
            .iter()
            .map(|(pt, p)| {
                let u = &p.util;
                let valid = p.valid_prob.to_bits();
                let util = [u.dsp, u.lut, u.ff, u.bram].map(f64::to_bits);
                (pt.clone(), [valid, p.cycles, util[0], util[1], util[2], util[3]])
            })
            .collect()
    };
    let serial = run_dse_with_engine(&p, &k, &space, &graph, &cfg, &ExecEngine::with_jobs(1));
    assert!(!serial.top.is_empty() && !serial.front.is_empty());
    for jobs in [2, 3] {
        let par = run_dse_with_engine(&p, &k, &space, &graph, &cfg, &ExecEngine::with_jobs(jobs));
        assert_eq!(par.inferences, serial.inferences, "jobs={jobs}");
        assert_eq!(bits(&par.top), bits(&serial.top), "jobs={jobs}: top configs");
        assert_eq!(bits(&par.front), bits(&serial.front), "jobs={jobs}: Pareto front");
    }
}

/// (b) Worker-local `oracle.*` counters merge to the same totals as one
/// serial loop over the whole batch: partitioning the workload across the
/// pool's workers loses nothing.
#[test]
fn fault_stats_merge_correctly_across_workers() {
    let k = kernels::gemm_ncubed();
    let space = DesignSpace::from_kernel(&k);
    let faults = FaultConfig::uniform(0.3, 41);
    let policy = RetryPolicy::with_max_retries(4);
    let points: Vec<_> = (0..40u64)
        .map(|i| {
            space.point_at(u128::from(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % space.size())
        })
        .collect();

    let oracle_counters = || -> Vec<(String, u64)> {
        metrics::snapshot()
            .counters
            .into_iter()
            .filter(|(name, _)| name.starts_with("oracle.") || name.starts_with("harness.faults"))
            .collect()
    };

    // A serial loop sees everything...
    metrics::reset();
    let whole = fault_injected_harness(faults, policy);
    for p in &points {
        let _ = whole.try_evaluate(&k, &space, p);
    }
    let expected = oracle_counters();
    assert!(
        metrics::counter_value("oracle.transient_failures") > 0,
        "the fault injector should have fired"
    );

    // ...and the pool's workers see a share each; fault decisions are a
    // stateless function of (seed, point, attempt), so the merged counters
    // must be identical regardless of the partitioning.
    for jobs in [1, high_jobs()] {
        metrics::reset();
        let engine = ExecEngine::with_jobs(jobs);
        let h = fault_injected_harness(faults, policy);
        let _ = engine.evaluate_ordered(&h, &k, &space, &points);
        assert_eq!(oracle_counters(), expected, "jobs={jobs} oracle counters must match serial");
    }
    metrics::reset();
}
