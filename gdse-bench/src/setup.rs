//! The set-up every workload shares: a seeded database of evaluated designs
//! and the M7 predictor trained on it with a fixed seed.

use crate::report::Outcome;
use design_space::DesignSpace;
use gdse_gnn::{ModelConfig, ModelKind};
use gnn_dse::trainer::TrainConfig;
use gnn_dse::{dbgen, Database, Prediction, Predictor};
use hls_ir::{kernels, Kernel};
use std::time::Instant;

/// The model `gnndse train` ships: M7 with 4 GNN layers of width 32 and
/// 4-layer MLP heads.
pub fn model_config() -> ModelConfig {
    ModelConfig {
        hidden: 32,
        gnn_layers: 4,
        mlp_layers: 4,
        seed: 42,
    }
}

/// `TrainConfig::paper()` (batch 32, lr 1e-3) with the epoch count cut to
/// what a set-up can afford.
pub fn train_config(smoke: bool) -> TrainConfig {
    TrainConfig::paper().with_epochs(if smoke { 1 } else { 2 })
}

/// The shared set-up products.
pub struct Base {
    /// The nine training kernels.
    pub kernels: Vec<Kernel>,
    /// The database the predictor was trained on (seeded by `--seed`).
    pub db: Database,
    /// The trained surrogate.
    pub predictor: Predictor,
}

/// Generates the seeded database and trains the predictor on it.
pub fn base(seed: u64, smoke: bool) -> Base {
    let kernels = kernels::training_kernels();
    let db = dbgen::generate_database(&kernels, &[], if smoke { 6 } else { 15 }, seed);
    let (predictor, _) = Predictor::train(
        &db,
        &kernels,
        ModelKind::Full,
        model_config(),
        &train_config(smoke),
    );
    Base {
        kernels,
        db,
        predictor,
    }
}

/// Runs `setup` and returns its result with its wall time in seconds.
pub fn timed<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let began = Instant::now();
    let made = setup();
    (made, began.elapsed().as_secs_f64())
}

/// Every field of a prediction as raw bits, for bitwise comparisons.
pub fn bits(p: &Prediction) -> [u64; 6] {
    [
        p.valid_prob.to_bits(),
        p.cycles,
        p.util.dsp.to_bits(),
        p.util.lut.to_bits(),
        p.util.ff.to_bits(),
        p.util.bram.to_bits(),
    ]
}

/// Whether every field of a prediction is finite.
pub fn finite(p: &Prediction) -> bool {
    p.valid_prob.is_finite()
        && p.util.dsp.is_finite()
        && p.util.lut.is_finite()
        && p.util.ff.is_finite()
        && p.util.bram.is_finite()
}

/// Correctness check shared by every workload: `predict_batch` on a batch
/// of 2mm points equals per-point `predict` bit for bit, and is finite.
/// The batch's digest is the exact result `model.probe`: any change to
/// database generation, training or inference moves it.
pub fn check_batch_matches_single(predictor: &Predictor, out: &mut Outcome) {
    let k = kernels::mm2();
    let space = DesignSpace::from_kernel(&k);
    let graph = proggraph::build_graph_bidirectional(&k, &space);
    let points: Vec<_> = (0..8u128)
        .map(|i| space.point_at(i * 7919 % space.size()))
        .collect();
    let batch = predictor.predict_batch(&graph, &points);
    for (i, (p, b)) in points.iter().zip(&batch).enumerate() {
        let single = predictor.predict(&graph, p);
        out.check(bits(&single) == bits(b), || {
            format!("predict_batch row {i} differs from predict: {b:?} vs {single:?}")
        });
        out.check(finite(b), || format!("non-finite prediction {b:?}"));
    }
    let rows: Vec<[u64; 6]> = batch.iter().map(bits).collect();
    out.exact_digest("model.probe", &rows);
}
