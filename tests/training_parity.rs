//! Training stays bit-identical across refactors of the tape: two epochs of
//! regression (4 heads) and validity-classifier training of every model
//! kind, in the small test configuration and in the benchmark's 32 x 4
//! configuration, must hash to digests recorded before the training step
//! was optimized. A digest covers every parameter's bits after training
//! plus the per-epoch mean losses, so any change to a float-op sequence in
//! forward, backward or Adam shows up here.

use gdse_gnn::{ModelConfig, ModelKind, PredictionModel};
use gnn_dse::dataset::{CLASS_TARGET, MAIN_TARGETS};
use gnn_dse::trainer::{train_classifier, train_regression, TrainConfig};
use gnn_dse::{dbgen, Dataset};
use hls_ir::kernels;

/// The model `gnndse train` ships and the benchmark trains.
fn bench_config() -> ModelConfig {
    ModelConfig {
        hidden: 32,
        gnn_layers: 4,
        mlp_layers: 4,
        seed: 42,
    }
}

/// A fixed 4-kernel database with one-hot node features and both valid
/// and invalid designs.
fn dataset() -> Dataset {
    let ks = vec![
        kernels::gemm_ncubed(),
        kernels::spmv_ellpack(),
        kernels::atax(),
        kernels::stencil(),
    ];
    let db = dbgen::generate_database(&ks, &[], 20, 17);
    Dataset::from_database(&db, &ks)
}

/// FNV-1a over every parameter's bits, in store order, then every loss.
fn digest(model: &PredictionModel, losses: &[f32]) -> u64 {
    let store = model.store();
    let bits = store
        .ids()
        .flat_map(|id| store.value(id).as_slice().iter())
        .chain(losses)
        .map(|v| v.to_bits());
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bits.flat_map(u32::to_le_bytes) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `(regression, classifier)` digests of one model kind in one
/// configuration, seeded the way `Predictor::untrained` seeds them.
fn train_both(ds: &Dataset, kind: ModelKind, config: &ModelConfig) -> (u64, u64) {
    let cfg = TrainConfig::quick().with_epochs(2);
    let all: Vec<usize> = (0..ds.len()).collect();
    let valid = ds.valid_indices();

    let mut reg = PredictionModel::new(kind, config.clone(), &MAIN_TARGETS);
    let reg_losses = train_regression(&mut reg, ds, &valid, &cfg);
    let cls_cfg = config.clone().with_seed(config.seed ^ 1);
    let mut cls = PredictionModel::new(kind, cls_cfg, &CLASS_TARGET);
    let cls_losses = train_classifier(&mut cls, ds, &all, &cfg);
    (digest(&reg, &reg_losses), digest(&cls, &cls_losses))
}

/// Digests recorded with the tape as it was before adjoint pruning,
/// `gemm_tn`, the matrix-vector path and the zero-skipping loops: one
/// `(regression, classifier)` pair per kind in `ModelKind::ALL` order.
const SMALL: [(u64, u64); 7] = [
    (0x7f9203e836e3e14c, 0x49aadde5aabf5e88), // MlpPragma
    (0x941870582215a16a, 0x8680c5e22aee0714), // MlpContext
    (0x8c8292d9830dc872, 0xc9988f05f4b3a3af), // Gcn
    (0x3b5fa37d3464b017, 0xd91731dfa4fab7bc), // Gat
    (0xdf867cf134a4a538, 0x060994209cd5056a), // Transformer
    (0xd53362eb6a234084, 0xa57d1f58e6680b41), // TransformerJkn
    (0x320f9e8c757c9658, 0x58e82ca04d8f0c1b), // Full
];
const BENCH: [(u64, u64); 7] = [
    (0x6e24729c8987a1c4, 0x5515352db7c34d58), // MlpPragma
    (0x7168f384f63a7770, 0xe396bfa96f5636f1), // MlpContext
    (0xe33db9e0d314be4b, 0xc7dff2b564e9a011), // Gcn
    (0x9573c206225ef910, 0xc333e00a76e9cfad), // Gat
    (0x8bdc578560a16878, 0xc21757e0ab03c17d), // Transformer
    (0x7ae066965446d340, 0xe67da14dda3c43cf), // TransformerJkn
    (0x823fba2d59c3f0c9, 0x2c685a50bf17502c), // Full
];

fn check(config: &ModelConfig, expected: &[(u64, u64); 7], label: &str) {
    let ds = dataset();
    assert!(
        ds.valid_indices().len() < ds.len(),
        "the classifier needs invalid designs"
    );
    let got: Vec<(u64, u64)> = ModelKind::ALL
        .iter()
        .map(|&kind| train_both(&ds, kind, config))
        .collect();
    for ((kind, g), e) in ModelKind::ALL.iter().zip(&got).zip(expected) {
        assert!(
            g == e,
            "{label} {kind:?}: (regression, classifier) digests moved to ({:#018x}, {:#018x})",
            g.0,
            g.1
        );
    }
}

#[test]
fn small_config_trains_bit_identically() {
    check(&ModelConfig::small(), &SMALL, "small");
}

#[test]
fn bench_config_trains_bit_identically() {
    check(&bench_config(), &BENCH, "bench");
}
