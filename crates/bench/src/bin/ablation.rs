//! **Ablations** — the design choices DESIGN.md calls out, beyond the
//! M1..M7 comparison of Table 2:
//!
//! 1. *BRAM split model* (§5.2.1): predicting BRAM with its own model vs
//!    folding it into the main 5-head regressor.
//! 2. *Ordered-pragma DSE* (§4.4): the innermost-first priority sweep vs a
//!    naive slot-order enumeration, on the `mvt` space (too large to
//!    enumerate), measured by the best *true* design found per inference
//!    budget.

use design_space::DesignSpace;
use gnn_dse::dataset::{Dataset, MAIN_TARGETS};
use gnn_dse::dse::{run_dse_with_engine, DseConfig};
use gnn_dse::trainer::{eval_regression, train_regression};
use gnn_dse::{ExecEngine, Predictor};
use gnn_dse_bench::{rule, training_setup, Scale};
use gdse_gnn::{ModelKind, PredictionModel};
use hls_ir::kernels;
use merlin_sim::MerlinSimulator;
use gnn_dse_bench::{init_obs_from_env, out};

fn main() {
    init_obs_from_env();
    let scale = Scale::from_env();
    out!("Ablations (scale: {})", scale.label());
    out!();

    let (kernels_train, db) = training_setup(scale, 42);
    let ds = Dataset::from_database(&db, &kernels_train);
    let (train, test) = ds.split(0.8, 99);
    let train_valid: Vec<usize> =
        train.iter().copied().filter(|&i| ds.samples()[i].valid).collect();
    let test_valid: Vec<usize> =
        test.iter().copied().filter(|&i| ds.samples()[i].valid).collect();

    ablation_bram_split(&ds, &train_valid, &test_valid, scale);
    out!();
    ablation_dse_order(&kernels_train, &db, scale);
}

/// §5.2.1: "BRAM utilization has a weak correlation with the rest of the
/// objectives. Consequently, we train two models."
fn ablation_bram_split(ds: &Dataset, train: &[usize], test: &[usize], scale: Scale) {
    out!("[1] BRAM split-model ablation");
    rule(72);
    let cfg = scale.model_config();
    let tcfg = scale.train_config();

    // Joint: one 5-head model.
    let mut joint = PredictionModel::new(
        ModelKind::TransformerJkn,
        cfg.clone(),
        &["latency", "dsp", "lut", "ff", "bram"],
    );
    train_regression(&mut joint, ds, train, &tcfg);
    let jm = eval_regression(&joint, ds, test);

    // Split: 4-head main + dedicated BRAM model (the paper's choice).
    let mut main = PredictionModel::new(ModelKind::TransformerJkn, cfg.clone(), &MAIN_TARGETS);
    train_regression(&mut main, ds, train, &tcfg);
    let mm = eval_regression(&main, ds, test);
    let mut bram = PredictionModel::new(ModelKind::TransformerJkn, cfg.with_seed(7), &["bram"]);
    train_regression(&mut bram, ds, train, &tcfg);
    let bm = eval_regression(&bram, ds, test);

    out!(
        "joint 5-head : latency {:.4}  bram {:.4}  all {:.4}",
        jm.rmse_of("latency").unwrap(),
        jm.rmse_of("bram").unwrap(),
        jm.total()
    );
    out!(
        "split (paper): latency {:.4}  bram {:.4}  all {:.4}",
        mm.rmse_of("latency").unwrap(),
        bm.rmse_of("bram").unwrap(),
        mm.total() + bm.total()
    );
}

/// §4.4 ordering ablation on mvt: both DSE variants get the same inference
/// budget; compare the best *tool-validated* design found.
fn ablation_dse_order(kernels_train: &[hls_ir::Kernel], db: &gnn_dse::Database, scale: Scale) {
    out!("[2] DSE candidate-ordering ablation on mvt (same inference budget)");
    rule(72);
    let (predictor, _) = Predictor::train(
        db,
        kernels_train,
        ModelKind::Full,
        scale.model_config(),
        &scale.train_config(),
    );
    let kernel = kernels::mvt();
    let space = DesignSpace::from_kernel(&kernel);
    let sim = MerlinSimulator::new();
    let budget = match scale {
        Scale::Tiny => 1_500,
        _ => 8_000,
    };

    // Ordered (the paper's heuristic): force the heuristic path.
    let ordered_cfg = DseConfig {
        exhaustive_limit: 1,
        max_inferences: budget,
        ..DseConfig::default()
    };
    let graph = proggraph::build_graph_bidirectional(&kernel, &space);
    let ordered = run_dse_with_engine(
        &predictor,
        &kernel,
        &space,
        &graph,
        &ordered_cfg,
        &ExecEngine::serial(),
    );
    let best_ordered = validate_best(&sim, &kernel, &space, &ordered.top);

    // Naive: plain index order over the first `budget` canonical points.
    let naive_top = naive_sweep(&predictor, &kernel, &space, budget);
    let best_naive = validate_best(&sim, &kernel, &space, &naive_top);

    out!(
        "ordered sweep (§4.4): best true design {:?} cycles ({} inferences)",
        best_ordered, ordered.inferences
    );
    out!("naive index sweep   : best true design {best_naive:?} cycles");
    match (best_ordered, best_naive) {
        (Some(o), Some(n)) => out!(
            "ordered/naive quality: {:.2}x {}",
            n as f64 / o as f64,
            if o <= n { "(ordering helps or ties — matches the paper's motivation)" } else { "" }
        ),
        _ => out!("one of the sweeps found no valid design"),
    }
}

fn naive_sweep(
    predictor: &Predictor,
    kernel: &hls_ir::Kernel,
    space: &DesignSpace,
    budget: usize,
) -> Vec<(design_space::DesignPoint, gnn_dse::Prediction)> {
    let graph = proggraph::build_graph_bidirectional(kernel, space);
    let mut top = Vec::new();
    let mut batch = Vec::new();
    for i in (0..space.size()).take(budget) {
        batch.push(space.point_at(i));
        if batch.len() == 64 {
            let preds = predictor.predict_batch(&graph, &batch);
            for (p, pr) in batch.drain(..).zip(preds) {
                if pr.usable(0.8) {
                    top.push((p, pr));
                }
            }
        }
    }
    if !batch.is_empty() {
        let preds = predictor.predict_batch(&graph, &batch);
        for (p, pr) in batch.drain(..).zip(preds) {
            if pr.usable(0.8) {
                top.push((p, pr));
            }
        }
    }
    top.sort_by_key(|(_, pr)| pr.cycles);
    top.truncate(10);
    top
}

fn validate_best(
    sim: &MerlinSimulator,
    kernel: &hls_ir::Kernel,
    space: &DesignSpace,
    top: &[(design_space::DesignPoint, gnn_dse::Prediction)],
) -> Option<u64> {
    top.iter()
        .map(|(p, _)| sim.evaluate(kernel, space, p))
        .filter(|r| r.is_valid() && r.util.fits(0.8))
        .map(|r| r.cycles)
        .min()
}
