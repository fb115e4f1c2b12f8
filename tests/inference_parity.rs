//! The tape-free `PredictionModel::infer` against the tape `forward`: bit
//! for bit, on every model kind and every kernel, at batch sizes that take
//! both GEMM kernels, before and after training, and through a template
//! kept across calls.

use design_space::{order::ordered_slots, rules, DesignPoint, DesignSpace};
use gdse_gnn::{
    GraphBatch, GraphInput, KernelBatch, KernelTemplate, ModelConfig, ModelKind, ModelTemplate,
    PredictionModel,
};
use gdse_obs::metrics;
use gdse_tensor::Matrix;
use gnn_dse::dataset::MAIN_TARGETS;
use gnn_dse::trainer::{train_regression, TrainConfig};
use gnn_dse::{dbgen, Dataset, Normalizer, Prediction, Predictor, Template};
use hls_ir::kernels;
use proggraph::{build_graph_bidirectional, ProgramGraph};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::OnceLock;

const BATCH_SIZES: [usize; 3] = [1, 2, 64];

/// Every kernel's design space and program graph.
fn targets() -> &'static [(String, DesignSpace, ProgramGraph)] {
    static TARGETS: OnceLock<Vec<(String, DesignSpace, ProgramGraph)>> = OnceLock::new();
    TARGETS.get_or_init(|| {
        kernels::all_kernels()
            .iter()
            .map(|k| {
                let space = DesignSpace::from_kernel(k);
                let graph = build_graph_bidirectional(k, &space);
                (k.name().to_string(), space, graph)
            })
            .collect()
    })
}

/// One model of each kind, in the configuration `gnndse train` ships.
fn untrained() -> Vec<PredictionModel> {
    let config = ModelConfig {
        hidden: 32,
        gnn_layers: 4,
        mlp_layers: 4,
        seed: 42,
    };
    ModelKind::ALL
        .iter()
        .map(|&kind| PredictionModel::new(kind, config.clone(), &MAIN_TARGETS))
        .collect()
}

/// The paper's M7 (§5.1: 6 layers, width 64): deeper than some kernels have
/// distinct layouts, so its last layers read the layout past the last one.
fn deep() -> Vec<PredictionModel> {
    vec![PredictionModel::new(ModelKind::Full, ModelConfig::paper(), &MAIN_TARGETS)]
}

/// One model of each kind after two epochs of regression training.
fn trained() -> &'static [PredictionModel] {
    static MODELS: OnceLock<Vec<PredictionModel>> = OnceLock::new();
    MODELS.get_or_init(|| {
        let ks = vec![kernels::gemm_ncubed(), kernels::spmv_ellpack()];
        let db = dbgen::generate_database(&ks, &[], 16, 5);
        let ds = Dataset::from_database(&db, &ks);
        let valid = ds.valid_indices();
        ModelKind::ALL
            .iter()
            .map(|&kind| {
                let mut m = PredictionModel::new(kind, ModelConfig::small(), &MAIN_TARGETS);
                train_regression(&mut m, &ds, &valid, &TrainConfig::quick().with_epochs(2));
                m
            })
            .collect()
    })
}

fn random_points(space: &DesignSpace, n: usize, seed: u64) -> Vec<DesignPoint> {
    let mut z = seed;
    (0..n)
        .map(|_| {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            space.point_at(u128::from(x ^ (x >> 31)) % space.size())
        })
        .collect()
}

/// The deepest of `models`: the layouts a batch they all read must hold.
fn depth(models: &[PredictionModel]) -> usize {
    models.iter().map(PredictionModel::convolutions).max().unwrap_or(0)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `graph` lowered once for `models`, with each model's template of it.
fn templates(
    graph: &ProgramGraph,
    models: &[PredictionModel],
) -> (KernelTemplate, Vec<ModelTemplate>) {
    let kernel = KernelTemplate::new(graph, depth(models));
    let per_model = models.iter().map(|m| m.template(&kernel)).collect();
    (kernel, per_model)
}

/// The tape's forward of `points` on `graph`.
fn tape_batch(graph: &ProgramGraph, points: &[DesignPoint]) -> GraphBatch {
    let inputs: Vec<GraphInput> =
        points.iter().map(|p| GraphInput::from_graph(graph, Some(p))).collect();
    let refs: Vec<(&GraphInput, &DesignPoint)> = inputs.iter().zip(points).collect();
    GraphBatch::new(&refs)
}

/// Asserts `infer` equals the tape on every head of every model, on every
/// kernel, at every batch size.
fn assert_parity(models: &[PredictionModel], seed: u64) {
    for (name, space, graph) in targets() {
        let (kernel, per_model) = templates(graph, models);
        for (bi, &b) in BATCH_SIZES.iter().enumerate() {
            let points = random_points(space, b, seed ^ ((bi as u64) << 32));
            let tape_batch = tape_batch(graph, &points);
            let kernel_batch = KernelBatch::new(&kernel, &points);
            for (model, template) in models.iter().zip(&per_model) {
                let tape = model.forward(&tape_batch);
                let free = model.infer(template, &kernel_batch);
                assert_eq!(free.len(), tape.outputs.len());
                for (head, (got, &want)) in free.iter().zip(&tape.outputs).enumerate() {
                    assert_eq!(
                        bits(got),
                        bits(tape.graph.value(want)),
                        "{:?} on {name}, B = {b}, head {head}",
                        model.kind()
                    );
                }
            }
        }
    }
}

/// A batch of `b` points shaped like a DSE sweep's: a base point with 1–3
/// slots varied over their options, the last varied slot fastest (`shape`
/// 0); the same with every point twice (`shape` 1); or `b` copies of the
/// base point (`shape` 2).
fn sweep_points(space: &DesignSpace, b: usize, seed: u64, shape: usize) -> Vec<DesignPoint> {
    let base = random_points(space, 1, seed).remove(0);
    let slots = space.slots();
    let varied: Vec<usize> = (0..1 + seed as usize % 3)
        .map(|j| (seed as usize / 3 + j * 7) % slots.len())
        .collect();
    let at = |mut k: usize| {
        let mut point = base.clone();
        for &slot in varied.iter().rev() {
            let options = &slots[slot].options;
            point.set_value(slot, options[k % options.len()]);
            k /= options.len();
        }
        point
    };
    (0..b)
        .map(|k| match shape {
            0 => at(k),
            1 => at(k / 2),
            _ => base.clone(),
        })
        .collect()
}

/// On sweep-shaped batches of one kernel, `infer` equals the tape, and each
/// point's `predict_batch` row equals its own `predict`, bit for bit, on
/// every model kind.
fn assert_sweep_parity(kernel: usize, seed: u64) {
    let (name, space, graph) = &targets()[kernel];
    let models = untrained();
    let predictors: Vec<Predictor> = models
        .iter()
        .map(|m| Predictor::untrained(m.kind(), m.config().clone(), Normalizer::with_factor(1e6)))
        .collect();
    let (kernel, per_model) = templates(graph, &models);
    for (shape, b) in (0..3).flat_map(|shape| [2, 3, 17, 64].map(|b| (shape, b))) {
        let points = sweep_points(space, b, seed, shape);
        let tape_batch = tape_batch(graph, &points);
        let kernel_batch = KernelBatch::new(&kernel, &points);
        for ((model, template), predictor) in models.iter().zip(&per_model).zip(&predictors) {
            let tape = model.forward(&tape_batch);
            let free = model.infer(template, &kernel_batch);
            for (head, (got, &want)) in free.iter().zip(&tape.outputs).enumerate() {
                assert_eq!(
                    bits(got),
                    bits(tape.graph.value(want)),
                    "{:?} on {name}, B = {b}, shape {shape}, head {head}",
                    model.kind()
                );
            }
            let batch = predictor.predict_batch(graph, &points);
            for (k, (row, point)) in batch.iter().zip(&points).enumerate() {
                let one = predictor.predict(graph, point);
                assert_eq!(
                    prediction_bits(row),
                    prediction_bits(&one),
                    "{:?} on {name}, B = {b}, shape {shape}, point {k}",
                    model.kind()
                );
            }
        }
    }
}

/// The first `n` canonical candidates that DSE scores on kernel `name`:
/// its priority sweep (the highest-priority slot fastest) when the space is
/// too large to enumerate, its enumeration order otherwise.
fn dse_stream(name: &str, space: &DesignSpace, n: usize) -> Vec<DesignPoint> {
    let kernel = kernels::kernel_by_name(name).expect("built-in kernel");
    let exhaustive = space.size() <= gnn_dse::DseConfig::default().exhaustive_limit;
    let order = ordered_slots(&kernel, space);
    let at = |i: u128| {
        if exhaustive {
            return space.point_at(i);
        }
        let (mut point, mut rem) = (space.default_point(), i);
        for &slot in &order {
            let options = &space.slots()[slot].options;
            point.set_value(slot, options[(rem % options.len() as u128) as usize]);
            rem /= options.len() as u128;
            if rem == 0 {
                break;
            }
        }
        point
    };
    let mut seen = HashSet::new();
    (0..space.size())
        .map(|i| rules::canonicalize(&kernel, space, &at(i)))
        .filter(|p| seen.insert(p.clone()))
        .take(n)
        .collect()
}

/// A DSE scoring window of 512 points from the sweeps of 2mm and mvt and
/// from gemm-ncubed's enumeration: `infer` equals the tape on every model
/// kind, and each point's `predict_batch` row equals its own `predict` on
/// M7, the model DSE runs, bit for bit. (Single-point predicts of every
/// kind would take several times as long.)
#[test]
fn infer_matches_the_tape_on_dse_windows() {
    let models = untrained();
    for name in ["2mm", "mvt", "gemm-ncubed"] {
        let (_, space, graph) = targets().iter().find(|(n, ..)| n == name).expect("kernel");
        let points = dse_stream(name, space, 512);
        assert_eq!(points.len(), 512, "{name}");
        let tape_batch = tape_batch(graph, &points);
        let (kernel, per_model) = templates(graph, &models);
        let kernel_batch = KernelBatch::new(&kernel, &points);
        for (model, template) in models.iter().zip(&per_model) {
            let tape = model.forward(&tape_batch);
            let free = model.infer(template, &kernel_batch);
            for (head, (got, &want)) in free.iter().zip(&tape.outputs).enumerate() {
                assert_eq!(
                    bits(got),
                    bits(tape.graph.value(want)),
                    "{:?} on {name}, head {head}",
                    model.kind()
                );
            }
            if model.kind() != ModelKind::Full {
                continue;
            }
            let predictor = Predictor::untrained(
                model.kind(),
                model.config().clone(),
                Normalizer::with_factor(1e6),
            );
            let batch = predictor.predict_batch(graph, &points);
            for (k, (row, point)) in batch.iter().zip(&points).enumerate() {
                assert_eq!(
                    prediction_bits(row),
                    prediction_bits(&predictor.predict(graph, point)),
                    "{:?} on {name}, point {k}",
                    model.kind()
                );
            }
        }
    }
}

fn prediction_bits(p: &Prediction) -> [u64; 6] {
    let u = &p.util;
    [
        p.valid_prob.to_bits(),
        p.cycles,
        u.dsp.to_bits(),
        u.lut.to_bits(),
        u.ff.to_bits(),
        u.bram.to_bits(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn infer_matches_the_tape_on_sweep_shaped_batches(
        kernel in 0..targets().len(),
        seed in any::<u64>(),
    ) {
        assert_sweep_parity(kernel, seed);
    }

    #[test]
    fn infer_matches_the_tape_on_untrained_models(seed in any::<u64>()) {
        assert_parity(&untrained(), seed);
    }

    #[test]
    fn infer_matches_the_tape_on_trained_models(seed in any::<u64>()) {
        assert_parity(trained(), seed);
    }

    #[test]
    fn infer_matches_the_tape_on_the_deep_paper_model(seed in any::<u64>()) {
        assert_parity(&deep(), seed);
    }
}

#[test]
fn predict_batch_books_three_forwards_and_one_inference_per_point() {
    let predictor = Predictor::untrained(
        ModelKind::Full,
        ModelConfig::small(),
        Normalizer::with_factor(1.0),
    );
    let (_, space, graph) = &targets()[0];
    for b in BATCH_SIZES {
        let points = random_points(space, b, b as u64);
        let forwards = metrics::counter_value("gnn.forwards");
        let inferences = metrics::counter_value("surrogate.inferences");
        let preds = predictor.predict_batch(graph, &points);
        assert_eq!(preds.len(), b);
        assert_eq!(
            metrics::counter_value("gnn.forwards"),
            forwards + 3,
            "B = {b}"
        );
        assert_eq!(
            metrics::counter_value("surrogate.inferences"),
            inferences + b as u64,
            "B = {b}"
        );
    }
}

/// One template per kernel and model, kept across calls of B = 1, 2 and 17
/// points: every call's `infer` equals the tape, and every row of a
/// resident `Template` equals the point's own `predict`, bit for bit, on
/// all 13 kernels and 7 model kinds.
#[test]
fn a_resident_template_answers_every_call_bit_for_bit() {
    let models = untrained();
    let predictors: Vec<Predictor> = models
        .iter()
        .map(|m| Predictor::untrained(m.kind(), m.config().clone(), Normalizer::with_factor(1e6)))
        .collect();
    for (k, (name, space, graph)) in targets().iter().enumerate() {
        let (kernel, per_model) = templates(graph, &models);
        let resident: Vec<Template<&Predictor>> =
            predictors.iter().map(|p| Template::new(p, graph)).collect();
        for (call, b) in [1, 2, 17, 1, 2, 17].into_iter().enumerate() {
            let points = random_points(space, b, (k as u64) << 8 | call as u64);
            let tape_batch = tape_batch(graph, &points);
            let kernel_batch = KernelBatch::new(&kernel, &points);
            for (model, template) in models.iter().zip(&per_model) {
                let tape = model.forward(&tape_batch);
                let free = model.infer(template, &kernel_batch);
                for (head, (got, &want)) in free.iter().zip(&tape.outputs).enumerate() {
                    assert_eq!(
                        bits(got),
                        bits(tape.graph.value(want)),
                        "{:?} on {name}, call {call}, B = {b}, head {head}",
                        model.kind()
                    );
                }
            }
            for (predictor, template) in predictors.iter().zip(&resident) {
                let rows = template.predict_batch(&points);
                for (i, (row, point)) in rows.iter().zip(&points).enumerate() {
                    assert_eq!(
                        prediction_bits(row),
                        prediction_bits(&predictor.predict(graph, point)),
                        "{:?} on {name}, call {call}, B = {b}, point {i}",
                        predictor.regressor().kind()
                    );
                }
            }
        }
    }
}

/// A call on a resident template computes only the rows a pragma node can
/// reach: on gemm-ncubed, M7's four convolutions have 112 rows per point,
/// 30 of which no pragma node reaches, so each of the three models books
/// 82 rows at B = 1, and the template books the 30 once.
#[test]
fn a_batch_of_one_computes_only_the_rows_a_point_can_change() {
    let config = ModelConfig {
        hidden: 32,
        gnn_layers: 4,
        mlp_layers: 4,
        seed: 42,
    };
    let predictor = Predictor::untrained(ModelKind::Full, config, Normalizer::with_factor(1e6));
    let (_, space, graph) = targets()
        .iter()
        .find(|(name, ..)| name == "gemm-ncubed")
        .expect("gemm-ncubed");
    let count = metrics::counter_value;
    let (templates, template_rows) = (count("gnn.templates"), count("gnn.template_rows"));
    let template = Template::new(&predictor, graph);
    assert_eq!(count("gnn.templates") - templates, 3);
    assert_eq!(count("gnn.template_rows") - template_rows, 3 * 30);
    for point in random_points(space, 4, 9) {
        let (rows, unshared) = (count("gnn.infer_rows"), count("gnn.infer_rows_unshared"));
        let got = template.predict_batch(std::slice::from_ref(&point));
        assert_eq!(count("gnn.infer_rows") - rows, 3 * 82);
        assert_eq!(count("gnn.infer_rows_unshared") - unshared, 3 * 112);
        assert_eq!(prediction_bits(&got[0]), prediction_bits(&predictor.predict(graph, &point)));
    }
    assert_eq!(count("gnn.templates") - templates, 3 + 4 * 3, "one template per predict");
}
