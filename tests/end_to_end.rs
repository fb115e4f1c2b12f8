//! End-to-end integration: database generation -> training -> inference ->
//! DSE -> validation, across crates, at a tiny but complete scale.

use design_space::DesignSpace;
use gnn_dse::dse::{run_dse_with_engine, DseConfig, DseOutcome};
use gnn_dse::rounds::{run_rounds_with_engine, RoundsConfig};
use gnn_dse::trainer::{
    eval_classifier, eval_regression, train_classifier, train_regression, TrainConfig,
};
use gnn_dse::dataset::{Dataset, MAIN_TARGETS};
use gnn_dse::{dbgen, ExecEngine, Predictor};
use gdse_gnn::{ModelConfig, ModelKind, PredictionModel};
use hls_ir::kernels;
use merlin_sim::MerlinSimulator;
use proggraph::build_graph_bidirectional;

fn small_db() -> (Vec<hls_ir::Kernel>, gnn_dse::Database) {
    let ks = vec![kernels::gemm_ncubed(), kernels::spmv_ellpack(), kernels::stencil()];
    let budgets = [("gemm-ncubed", 70), ("spmv-ellpack", 40), ("stencil", 90)];
    let db = dbgen::generate_database(&ks, &budgets, 60, 2024);
    (ks, db)
}

/// The surrogate search on a single-worker engine.
fn serial_dse(
    predictor: &Predictor,
    kernel: &hls_ir::Kernel,
    space: &DesignSpace,
    cfg: &DseConfig,
) -> DseOutcome {
    let graph = build_graph_bidirectional(kernel, space);
    run_dse_with_engine(predictor, kernel, space, &graph, cfg, &ExecEngine::serial())
}

#[test]
fn full_pipeline_produces_usable_designs() {
    let (ks, db) = small_db();
    let (predictor, _) = Predictor::train(
        &db,
        &ks,
        ModelKind::Transformer,
        ModelConfig::small(),
        &TrainConfig::quick().with_epochs(8),
    );

    // DSE on one of the training kernels.
    let kernel = kernels::gemm_ncubed();
    let space = DesignSpace::from_kernel(&kernel);
    let outcome = serial_dse(&predictor, &kernel, &space, &DseConfig::quick());
    assert!(!outcome.top.is_empty(), "DSE must propose candidates");

    // Validate: the best proposed design must beat the default by a wide
    // margin once checked with the ground-truth tool.
    let sim = MerlinSimulator::new();
    let default = sim.evaluate(&kernel, &space, &space.default_point());
    let best_true = outcome
        .top
        .iter()
        .map(|(p, _)| sim.evaluate(&kernel, &space, p))
        .filter(|r| r.is_valid() && r.util.fits(0.8))
        .map(|r| r.cycles)
        .min();
    let best_true = best_true.expect("at least one top design should be truly valid");
    assert!(
        best_true * 5 < default.cycles,
        "top design should be >5x better than default: {best_true} vs {}",
        default.cycles
    );
}

#[test]
fn surrogate_beats_trivial_predictor_on_held_out_designs() {
    let (ks, db) = small_db();
    let ds = Dataset::from_database(&db, &ks);
    let (train, test) = ds.split(0.8, 5);
    let train_valid: Vec<usize> =
        train.iter().copied().filter(|&i| ds.samples()[i].valid).collect();
    let test_valid: Vec<usize> =
        test.iter().copied().filter(|&i| ds.samples()[i].valid).collect();

    let mut model = PredictionModel::new(
        ModelKind::Transformer,
        ModelConfig::small(),
        &MAIN_TARGETS,
    );
    train_regression(&mut model, &ds, &train_valid, &TrainConfig::quick().with_epochs(12));
    let metrics = eval_regression(&model, &ds, &test_valid);

    // Trivial predictor: always predict the training-set mean latency.
    let mean: f64 = train_valid
        .iter()
        .map(|&i| f64::from(ds.samples()[i].main_targets[0]))
        .sum::<f64>()
        / train_valid.len() as f64;
    let trivial_rmse = (test_valid
        .iter()
        .map(|&i| {
            let d = f64::from(ds.samples()[i].main_targets[0]) - mean;
            d * d
        })
        .sum::<f64>()
        / test_valid.len() as f64)
        .sqrt();

    let lat = metrics.rmse_of("latency").unwrap();
    assert!(
        lat < trivial_rmse,
        "GNN ({lat:.3}) must beat mean-predictor ({trivial_rmse:.3}) on held-out designs"
    );
}

#[test]
fn classifier_learns_validity_signal() {
    let (ks, db) = small_db();
    let ds = Dataset::from_database(&db, &ks);
    let (train, test) = ds.split(0.8, 6);
    let mut cls =
        PredictionModel::new(ModelKind::Transformer, ModelConfig::small(), &["valid"]);
    train_classifier(&mut cls, &ds, &train, &TrainConfig::quick().with_epochs(30));
    let m = eval_classifier(&cls, &ds, &test);
    assert!(m.accuracy > 0.65, "validity accuracy too low: {}", m.accuracy);
    assert!(m.f1 > 0.65, "validity F1 too low: {}", m.f1);
}

#[test]
fn dse_rounds_never_regress() {
    let ks = vec![kernels::spmv_ellpack()];
    let mut db = dbgen::generate_database(&ks, &[("spmv-ellpack", 30)], 30, 77);
    let sim = MerlinSimulator::new();
    let reports = run_rounds_with_engine(
        &mut db,
        &ks,
        &RoundsConfig::quick(),
        &sim,
        None,
        false,
        &ExecEngine::serial(),
    )
    .unwrap();
    assert_eq!(reports.len(), 2);
    assert!(reports[1].avg_speedup >= reports[0].avg_speedup);
    // Round designs were committed with true evaluations.
    assert!(db.len() > 30);
}

#[test]
fn unseen_kernel_transfer_finds_good_designs() {
    // Train WITHOUT gesummv, then optimize it (the §5.4 scenario).
    let train_ks = vec![kernels::gemm_ncubed(), kernels::atax(), kernels::mvt()];
    let db = dbgen::generate_database(
        &train_ks,
        &[("gemm-ncubed", 60), ("atax", 60), ("mvt", 60)],
        60,
        7,
    );
    let (predictor, _) = Predictor::train(
        &db,
        &train_ks,
        ModelKind::Transformer,
        ModelConfig::small(),
        &TrainConfig::quick().with_epochs(10),
    );

    let unseen = kernels::gesummv();
    let space = DesignSpace::from_kernel(&unseen);
    let outcome = serial_dse(&predictor, &unseen, &space, &DseConfig::quick());
    assert!(!outcome.top.is_empty(), "transfer DSE should propose candidates");

    let sim = MerlinSimulator::new();
    let default = sim.evaluate(&unseen, &space, &space.default_point());
    let best = outcome
        .top
        .iter()
        .map(|(p, _)| sim.evaluate(&unseen, &space, p))
        .filter(|r| r.is_valid() && r.util.fits(0.8))
        .map(|r| r.cycles)
        .min();
    if let Some(best) = best {
        assert!(
            best < default.cycles,
            "unseen-kernel design should beat the default: {best} vs {}",
            default.cycles
        );
    }
}
