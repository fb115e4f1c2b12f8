//! The trained surrogate: millisecond QoR prediction without the HLS tool.

use crate::dataset::{Dataset, Normalizer, BRAM_TARGET, CLASS_TARGET, MAIN_TARGETS};
use crate::db::Database;
use crate::trainer::{train_classifier, train_regression, TrainConfig};
use design_space::DesignPoint;
use gdse_gnn::{
    GraphBatch, GraphInput, KernelBatch, KernelTemplate, ModelConfig, ModelKind, ModelTemplate,
    PredictionModel,
};
use gdse_obs as obs;
use gdse_tensor::{arena, Matrix, QuantParamSet};
use hls_ir::Kernel;
use merlin_sim::Utilization;
use proggraph::ProgramGraph;
use serde::{Deserialize, Serialize};
use std::ops::Deref;
use std::sync::Arc;
use std::time::Instant;

/// Predicted quality of one design point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Probability the design synthesizes successfully.
    pub valid_prob: f64,
    /// Predicted latency in cycles (inverse of eq. 11).
    pub cycles: u64,
    /// Predicted resource utilization.
    pub util: Utilization,
}

impl Prediction {
    /// Whether the surrogate considers the design usable: predicted valid
    /// and every utilization under `threshold`.
    pub fn usable(&self, threshold: f64) -> bool {
        self.valid_prob >= 0.5 && self.util.fits(threshold)
    }
}

/// The GNN-DSE surrogate of the HLS tool: a validity classifier, a main
/// regressor (latency/DSP/LUT/FF) and a separate BRAM regressor (§5.2.1).
#[derive(Debug, Clone, Serialize)]
pub struct Predictor {
    classifier: PredictionModel,
    regressor: PredictionModel,
    bram_model: PredictionModel,
    normalizer: Normalizer,
}

impl Predictor {
    /// Builds an untrained predictor of the given model kind.
    pub fn untrained(kind: ModelKind, config: ModelConfig, normalizer: Normalizer) -> Self {
        let cls_cfg = config.clone().with_seed(config.seed ^ 1);
        let bram_cfg = config.clone().with_seed(config.seed ^ 2);
        Self {
            classifier: PredictionModel::new(kind, cls_cfg, &CLASS_TARGET),
            regressor: PredictionModel::new(kind, config, &MAIN_TARGETS),
            bram_model: PredictionModel::new(kind, bram_cfg, &BRAM_TARGET),
            normalizer,
        }
    }

    /// Trains classifier + regressors from a database (the "Trainer" box of
    /// Fig. 1a). Returns the predictor and the dataset it was trained on.
    pub fn train(
        db: &Database,
        kernels: &[Kernel],
        kind: ModelKind,
        model_cfg: ModelConfig,
        train_cfg: &TrainConfig,
    ) -> (Self, Dataset) {
        let ds = Dataset::from_database(db, kernels);
        let mut p = Self::untrained(kind, model_cfg, *ds.normalizer());
        let all: Vec<usize> = (0..ds.len()).collect();
        let valid = ds.valid_indices();
        train_classifier(&mut p.classifier, &ds, &all, train_cfg);
        train_regression(&mut p.regressor, &ds, &valid, train_cfg);
        train_regression(&mut p.bram_model, &ds, &valid, train_cfg);
        (p, ds)
    }

    /// Trains `n_seeds` predictors with different initializations and keeps
    /// the one with the lowest validation RMSE (internal 90/10 split) plus
    /// classifier accuracy. CPU-scale training of deep attention stacks has
    /// seed variance that GPU-scale budgets hide; model selection restores
    /// the paper's effective behaviour.
    pub fn train_best_of(
        db: &Database,
        kernels: &[Kernel],
        kind: ModelKind,
        model_cfg: ModelConfig,
        train_cfg: &TrainConfig,
        n_seeds: u64,
    ) -> (Self, Dataset) {
        assert!(n_seeds >= 1, "need at least one seed");
        let ds = Dataset::from_database(db, kernels);
        let (train, val) = ds.split(0.9, train_cfg.seed ^ 0xD5);
        let train_valid: Vec<usize> =
            train.iter().copied().filter(|&i| ds.samples()[i].valid).collect();
        let val_valid: Vec<usize> =
            val.iter().copied().filter(|&i| ds.samples()[i].valid).collect();

        let mut best: Option<(f64, Predictor)> = None;
        for s in 0..n_seeds {
            let cfg = model_cfg.clone().with_seed(model_cfg.seed.wrapping_add(s * 101));
            let mut p = Self::untrained(kind, cfg, *ds.normalizer());
            train_classifier(&mut p.classifier, &ds, &train, train_cfg);
            train_regression(&mut p.regressor, &ds, &train_valid, train_cfg);
            train_regression(&mut p.bram_model, &ds, &train_valid, train_cfg);
            let score = if val_valid.is_empty() {
                0.0
            } else {
                crate::trainer::eval_regression(&p.regressor, &ds, &val_valid).total()
                    + crate::trainer::eval_regression(&p.bram_model, &ds, &val_valid).total()
                    + (1.0 - crate::trainer::eval_classifier(&p.classifier, &ds, &val).accuracy)
            };
            if best.as_ref().map(|(b, _)| score < *b).unwrap_or(true) {
                best = Some((score, p));
            }
        }
        (best.expect("n_seeds >= 1").1, ds)
    }

    /// Continues training this predictor on a (typically augmented)
    /// database — the cheap alternative to retraining from scratch that the
    /// rounds loop (§4.4) and cross-application transfer use. The latency
    /// normalizer is kept (targets must stay comparable across rounds).
    ///
    /// The regressors learn only from valid designs. With none (a replay
    /// window of validated top-M picks can hold only invalid ones), only the
    /// classifier trains and both regressors keep their weights; with no
    /// design at all, nothing trains. Either case logs a warning.
    pub fn fine_tune(
        &mut self,
        db: &Database,
        kernels: &[Kernel],
        train_cfg: &TrainConfig,
    ) -> Dataset {
        let ds = Dataset::from_database_with_normalizer(db, kernels, self.normalizer);
        if ds.is_empty() {
            obs::warn!("train.fine_tune_skipped", "fine-tune set is empty; the model is unchanged");
            return ds;
        }
        let all: Vec<usize> = (0..ds.len()).collect();
        train_classifier(&mut self.classifier, &ds, &all, train_cfg);
        let valid = ds.valid_indices();
        if valid.is_empty() {
            obs::warn!(
                "train.fine_tune_regressors_skipped",
                "fine-tune set holds no valid design ({} invalid); only the classifier trained",
                ds.len();
                designs = ds.len(),
            );
            return ds;
        }
        train_regression(&mut self.regressor, &ds, &valid, train_cfg);
        train_regression(&mut self.bram_model, &ds, &valid, train_cfg);
        ds
    }

    /// Reassembles a predictor from its three models and normalizer — the
    /// loading half of the binary artifact path (see [`crate::artifact`]).
    pub fn from_parts(
        classifier: PredictionModel,
        regressor: PredictionModel,
        bram_model: PredictionModel,
        normalizer: Normalizer,
    ) -> Self {
        Self { classifier, regressor, bram_model, normalizer }
    }

    /// The latency normalizer.
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// The validity classifier.
    pub fn classifier(&self) -> &PredictionModel {
        &self.classifier
    }

    /// The main (latency/DSP/LUT/FF) regressor.
    pub fn regressor(&self) -> &PredictionModel {
        &self.regressor
    }

    /// The BRAM regressor.
    pub fn bram_model(&self) -> &PredictionModel {
        &self.bram_model
    }

    /// Predicts a batch of design points of one kernel through a
    /// [`Template`] built for this call: the kernel is lowered once, for the
    /// deepest of the three models, and all three run the tape-free
    /// [`PredictionModel::infer`]. A caller that predicts one kernel again
    /// and again keeps a [`Template`] instead.
    pub fn predict_batch(&self, graph: &ProgramGraph, points: &[DesignPoint]) -> Vec<Prediction> {
        if points.is_empty() {
            return Vec::new();
        }
        let started = Instant::now();
        Template::new(self, graph).predict_since(points, started)
    }

    /// Predicts a single design point.
    pub fn predict(&self, graph: &ProgramGraph, point: &DesignPoint) -> Prediction {
        self.predict_batch(graph, std::slice::from_ref(point))[0]
    }

    /// The deepest of the three models' convolutions.
    fn depth(&self) -> usize {
        [&self.classifier, &self.regressor, &self.bram_model]
            .map(PredictionModel::convolutions)
            .into_iter()
            .max()
            .unwrap_or(0)
    }
}

/// A predictor's resident template of one kernel: the kernel lowered once
/// ([`KernelTemplate`]) and, for each of the three models, every row no
/// design point can change ([`ModelTemplate`]). Each call then lowers only
/// its points' pragma rows and computes only the rows within reach of a
/// pragma node, with the same bits as a call that computes them all.
///
/// The template holds the predictor that built it (`P` is a `&Predictor` or
/// an `Arc<Predictor>`), and predicting through it is the only way to read
/// its rows, so it cannot be used with another model.
/// [`PredictService`](crate::serving::PredictService) keeps one per kernel
/// for the life of its model, a DSE run one per run, and
/// [`Predictor::predict_batch`] one per call.
#[derive(Debug)]
pub struct Template<P: Deref<Target = Predictor>> {
    predictor: P,
    kernel: KernelTemplate,
    /// The classifier's, the main regressor's and the BRAM regressor's.
    models: [ModelTemplate; 3],
}

impl<P: Deref<Target = Predictor>> Template<P> {
    /// Lowers `graph` for `predictor` and computes each model's resident
    /// rows.
    pub fn new(predictor: P, graph: &ProgramGraph) -> Self {
        let kernel = KernelTemplate::new(graph, predictor.depth());
        let p = &*predictor;
        let models = [&p.classifier, &p.regressor, &p.bram_model].map(|m| m.template(&kernel));
        Template { predictor, kernel, models }
    }

    /// Predicts a batch of design points of the template's kernel,
    /// bit-identically to [`Predictor::predict_batch`].
    pub fn predict_batch(&self, points: &[DesignPoint]) -> Vec<Prediction> {
        if points.is_empty() {
            return Vec::new();
        }
        self.predict_since(points, Instant::now())
    }

    /// [`predict_batch`](Self::predict_batch) of a non-empty batch for a
    /// call that began at `started`.
    fn predict_since(&self, points: &[DesignPoint], started: Instant) -> Vec<Prediction> {
        let p = &*self.predictor;
        let batch = KernelBatch::new(&self.kernel, points);
        let [cls, reg, bram] = &self.models;
        let cls = p.classifier.infer(cls, &batch);
        let reg = p.regressor.infer(reg, &batch);
        let bram = p.bram_model.infer(bram, &batch);
        let heads = [&cls, &reg, &bram].map(|m| m.iter().collect::<Vec<_>>());
        let preds = readout(&p.normalizer, &heads, started, false);
        // The heads' outputs came from this thread's arena: give them back,
        // so a thread that predicts call after call keeps finding buffers.
        for m in cls.into_iter().chain(reg).chain(bram) {
            arena::recycle(m);
        }
        preds
    }
}

/// The int8 twin of a [`Predictor`]: the same three models with every
/// weight matrix calibrated to per-tensor symmetric int8
/// ([`gdse_gnn::PredictionModel::quantize`]), run through the packed FMA
/// kernel in `gdse_tensor::quant`.
///
/// The quantized path is **forward-only** and stays on the tape, so it runs
/// slower than the tape-free f32 [`Predictor::predict_batch`] while adding
/// a bounded prediction drift (tested per kernel in the repo's
/// quantization suite). No command or server uses it: it remains only as
/// the subject of the benchmark's int8 measurement.
#[derive(Debug, Clone)]
pub struct QuantPredictor {
    base: Predictor,
    classifier_q: Arc<QuantParamSet>,
    regressor_q: Arc<QuantParamSet>,
    bram_q: Arc<QuantParamSet>,
}

impl QuantPredictor {
    /// Calibrates int8 weights from a trained f32 predictor.
    pub fn quantize(p: &Predictor) -> Self {
        QuantPredictor {
            classifier_q: Arc::new(p.classifier.quantize()),
            regressor_q: Arc::new(p.regressor.quantize()),
            bram_q: Arc::new(p.bram_model.quantize()),
            base: p.clone(),
        }
    }

    /// Predicts a batch of design points of one kernel through the int8
    /// kernels — the quantized mirror of [`Predictor::predict_batch`].
    pub fn predict_batch(&self, graph: &ProgramGraph, points: &[DesignPoint]) -> Vec<Prediction> {
        if points.is_empty() {
            return Vec::new();
        }
        let started = Instant::now();
        let inputs: Vec<(GraphInput, &DesignPoint)> = points
            .iter()
            .map(|p| (GraphInput::from_graph(graph, Some(p)), p))
            .collect();
        let refs: Vec<(&GraphInput, &DesignPoint)> =
            inputs.iter().map(|(gi, p)| (gi, *p)).collect();
        let batch = GraphBatch::new(&refs);

        let cls = self.base.classifier.forward_quant(&batch, &self.classifier_q);
        let reg = self.base.regressor.forward_quant(&batch, &self.regressor_q);
        let bram = self.base.bram_model.forward_quant(&batch, &self.bram_q);
        let heads = [&cls, &reg, &bram]
            .map(|o| o.outputs.iter().map(|&id| o.graph.value(id)).collect::<Vec<_>>());
        readout(&self.base.normalizer, &heads, started, true)
    }

    /// Predicts a single design point through the int8 kernels.
    pub fn predict(&self, graph: &ProgramGraph, point: &DesignPoint) -> Prediction {
        self.predict_batch(graph, std::slice::from_ref(point))[0]
    }
}

/// Turns the `[B, 1]` head outputs of the classifier, the main regressor
/// and the BRAM regressor, in that order, into one [`Prediction`] per point,
/// and books the `surrogate.*` counters of the call that began at
/// `started`.
fn readout(
    normalizer: &Normalizer,
    [cls, reg, bram]: &[Vec<&Matrix>; 3],
    started: Instant,
    quantized: bool,
) -> Vec<Prediction> {
    let points = cls[0].rows();
    let preds: Vec<Prediction> = (0..points)
        .map(|i| {
            let logit = cls[0].get(i, 0);
            let valid_prob = f64::from(1.0 / (1.0 + (-logit).exp()));
            let t_lat = f64::from(reg[0].get(i, 0));
            let util = Utilization {
                dsp: f64::from(reg[1].get(i, 0)),
                lut: f64::from(reg[2].get(i, 0)),
                ff: f64::from(reg[3].get(i, 0)),
                bram: f64::from(bram[0].get(i, 0)),
            };
            Prediction { valid_prob, cycles: normalizer.inverse(t_lat), util }
        })
        .collect();
    gdse_obs::metrics::counter_add("surrogate.inferences", points as u64);
    if quantized {
        gdse_obs::metrics::counter_add("surrogate.quant_inferences", points as u64);
    }
    gdse_obs::metrics::counter_add("surrogate.busy_us", started.elapsed().as_micros() as u64);
    preds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbgen::generate_database;
    use design_space::DesignSpace;
    use hls_ir::kernels;
    use proggraph::build_graph_bidirectional;

    #[test]
    fn trained_predictor_produces_sane_predictions() {
        let ks = vec![kernels::gemm_ncubed()];
        let db = generate_database(&ks, &[], 50, 17);
        let (p, _) = Predictor::train(
            &db,
            &ks,
            ModelKind::Transformer,
            ModelConfig::small(),
            &TrainConfig::quick().with_epochs(4),
        );
        let space = DesignSpace::from_kernel(&ks[0]);
        let graph = build_graph_bidirectional(&ks[0], &space);
        let preds = p.predict_batch(&graph, &[space.default_point(), space.point_at(7)]);
        assert_eq!(preds.len(), 2);
        for pr in preds {
            assert!(pr.valid_prob >= 0.0 && pr.valid_prob <= 1.0);
            assert!(pr.cycles >= 1);
            assert!(pr.util.dsp.is_finite());
        }
    }

    #[test]
    fn best_of_seeds_never_worse_than_single_on_validation() {
        use crate::trainer::eval_regression;
        let ks = vec![kernels::spmv_ellpack(), kernels::gemm_ncubed()];
        let db = generate_database(&ks, &[], 40, 37);
        let tcfg = TrainConfig::quick().with_epochs(3);
        let (single, ds) =
            Predictor::train(&db, &ks, ModelKind::Transformer, ModelConfig::small(), &tcfg);
        let (best, _) = Predictor::train_best_of(
            &db,
            &ks,
            ModelKind::Transformer,
            ModelConfig::small(),
            &tcfg,
            2,
        );
        let valid = ds.valid_indices();
        let rs = eval_regression(single.regressor(), &ds, &valid).total();
        let rb = eval_regression(best.regressor(), &ds, &valid).total();
        // Model selection optimizes a validation score; on the full dataset
        // it should land in the same regime or better — never catastrophic.
        assert!(rb < rs * 2.0 + 1.0, "best-of ({rb}) far worse than single ({rs})");
    }

    #[test]
    fn fine_tuning_improves_fit_on_new_data() {
        use crate::trainer::eval_regression;
        let ks = vec![kernels::gemm_ncubed()];
        let db = generate_database(&ks, &[], 40, 29);
        let (mut p, _) = Predictor::train(
            &db,
            &ks,
            ModelKind::Transformer,
            ModelConfig::small(),
            &TrainConfig::quick().with_epochs(4),
        );
        // Augment with fresh designs from a different region of the space.
        let mut db2 = db.clone();
        let extra = generate_database(&ks, &[], 40, 31);
        db2.merge(&extra);
        let ds = Dataset::from_database_with_normalizer(&db2, &ks, *p.normalizer());
        let valid = ds.valid_indices();
        let before = eval_regression(p.regressor(), &ds, &valid).total();
        p.fine_tune(&db2, &ks, &TrainConfig::quick().with_epochs(8));
        let after = eval_regression(p.regressor(), &ds, &valid).total();
        assert!(after < before, "fine-tuning should reduce error: {after} !< {before}");
    }

    /// Every parameter's bits, in store order.
    fn weight_bits(model: &PredictionModel) -> Vec<u32> {
        let store = model.store();
        store.ids().flat_map(|id| store.value(id).as_slice().iter().map(|v| v.to_bits())).collect()
    }

    #[test]
    fn fine_tuning_on_no_valid_design_trains_only_the_classifier() {
        let ks = vec![kernels::gemm_ncubed()];
        let db = generate_database(&ks, &[], 40, 29);
        let mut invalid = Database::new();
        for e in db.entries().iter().filter(|e| !e.result.is_valid()) {
            invalid.insert(&e.kernel, e.point.clone(), e.result);
        }
        assert!(!invalid.is_empty() && invalid.valid_count() == 0);
        let untrained = || {
            Predictor::untrained(ModelKind::Full, ModelConfig::small(), Normalizer::with_factor(1e6))
        };
        let cfg = TrainConfig::quick().with_epochs(2);

        let mut p = untrained();
        let ds = p.fine_tune(&invalid, &ks, &cfg);
        assert_eq!(ds.len(), invalid.len());
        let before = untrained();
        assert_ne!(weight_bits(p.classifier()), weight_bits(before.classifier()));
        assert_eq!(weight_bits(p.regressor()), weight_bits(before.regressor()));
        assert_eq!(weight_bits(p.bram_model()), weight_bits(before.bram_model()));

        // No design at all: nothing trains.
        let mut p = untrained();
        assert!(p.fine_tune(&Database::new(), &ks, &cfg).is_empty());
        for (a, b) in [
            (p.classifier(), before.classifier()),
            (p.regressor(), before.regressor()),
            (p.bram_model(), before.bram_model()),
        ] {
            assert_eq!(weight_bits(a), weight_bits(b));
        }
    }

    #[test]
    fn quantized_predictor_tracks_f32_predictions() {
        let ks = vec![kernels::gemm_ncubed()];
        let db = generate_database(&ks, &[], 40, 23);
        let (p, _) = Predictor::train(
            &db,
            &ks,
            ModelKind::Transformer,
            ModelConfig::small(),
            &TrainConfig::quick().with_epochs(3),
        );
        let qp = QuantPredictor::quantize(&p);
        let space = DesignSpace::from_kernel(&ks[0]);
        let graph = build_graph_bidirectional(&ks[0], &space);
        let points: Vec<_> = (0..6u128).map(|i| space.point_at(i * 13 % space.size())).collect();

        obs::metrics::reset();
        let f = p.predict_batch(&graph, &points);
        let q = qp.predict_batch(&graph, &points);
        assert_eq!(f.len(), q.len());
        for (a, b) in f.iter().zip(&q) {
            assert!((a.valid_prob - b.valid_prob).abs() < 0.25, "{a:?} vs {b:?}");
            let (ca, cb) = (a.cycles as f64, b.cycles as f64);
            let ratio = ca.max(cb) / ca.min(cb).max(1.0);
            assert!(ratio < 1.5, "cycles drifted {ca} vs {cb}");
            assert!(b.util.dsp.is_finite() && b.util.bram.is_finite());
        }
        let snap = obs::metrics::snapshot();
        assert_eq!(snap.counter("surrogate.quant_inferences"), Some(points.len() as u64));
        assert!(snap.counter("infer.quant_calls").unwrap_or(0) > 0, "int8 kernel must run");
    }

    #[test]
    fn quantized_predict_single_matches_its_batch() {
        let ks = vec![kernels::spmv_ellpack()];
        let db = generate_database(&ks, &[], 25, 41);
        let (p, _) = Predictor::train(
            &db,
            &ks,
            ModelKind::Gcn,
            ModelConfig::small(),
            &TrainConfig::quick().with_epochs(2),
        );
        let qp = QuantPredictor::quantize(&p);
        let space = DesignSpace::from_kernel(&ks[0]);
        let graph = build_graph_bidirectional(&ks[0], &space);
        let pt = space.point_at(4);
        let single = qp.predict(&graph, &pt);
        let batch = qp.predict_batch(&graph, &[pt.clone(), space.default_point()]);
        assert_eq!(single.cycles, batch[0].cycles);
        assert_eq!(single.valid_prob.to_bits(), batch[0].valid_prob.to_bits());
    }

    #[test]
    fn predict_single_matches_batch() {
        let ks = vec![kernels::spmv_ellpack()];
        let db = generate_database(&ks, &[], 30, 19);
        let (p, _) = Predictor::train(
            &db,
            &ks,
            ModelKind::Gcn,
            ModelConfig::small(),
            &TrainConfig::quick().with_epochs(2),
        );
        let space = DesignSpace::from_kernel(&ks[0]);
        let graph = build_graph_bidirectional(&ks[0], &space);
        let pt = space.point_at(5);
        let single = p.predict(&graph, &pt);
        let batch = p.predict_batch(&graph, &[pt.clone(), space.default_point()]);
        assert_eq!(single.cycles, batch[0].cycles);
    }
}
