//! The predictive models of Table 2 (M1-M7) and their forward passes.

use crate::encoder::{ConvKind, EncoderOutput, GnnEncoder};
use crate::input::{GraphBatch, GraphInput};
use crate::layers::mlp::Mlp;
use design_space::{DesignPoint, PragmaValue};
use gdse_tensor::{Graph, Matrix, NodeId, ParamStore, QuantMatrix, QuantParamSet};
use proggraph::{EDGE_FEATS, NODE_FEATS};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Model variants evaluated in Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// M1: MLP on pragma settings only (Kwon et al. style).
    MlpPragma,
    /// M2: MLP on pragma settings + program-context node features (no
    /// message passing).
    MlpContext,
    /// M3: GCN encoder, sum readout.
    Gcn,
    /// M4: GAT encoder, sum readout.
    Gat,
    /// M5: TransformerConv encoder, sum readout.
    Transformer,
    /// M6: TransformerConv + Jumping Knowledge, sum readout.
    TransformerJkn,
    /// M7: the full GNN-DSE model — TransformerConv + JKN + node attention.
    Full,
}

impl ModelKind {
    /// All variants in Table 2 order.
    pub const ALL: [ModelKind; 7] = [
        ModelKind::MlpPragma,
        ModelKind::MlpContext,
        ModelKind::Gcn,
        ModelKind::Gat,
        ModelKind::Transformer,
        ModelKind::TransformerJkn,
        ModelKind::Full,
    ];

    /// The paper's row label.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::MlpPragma => "M1 MLP-pragma",
            ModelKind::MlpContext => "M2 MLP-pragma-program context",
            ModelKind::Gcn => "M3 GNN-DSE-GCN",
            ModelKind::Gat => "M4 GNN-DSE-GAT",
            ModelKind::Transformer => "M5 GNN-DSE-TransformerConv",
            ModelKind::TransformerJkn => "M6 GNN-DSE-TransformerConv+JKN",
            ModelKind::Full => "M7 GNN-DSE (full)",
        }
    }
}

/// Hyperparameters of a prediction model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// GNN hidden width (paper: 64).
    pub hidden: usize,
    /// Number of GNN layers (paper: 6).
    pub gnn_layers: usize,
    /// Number of MLP prediction layers (paper: 4).
    pub mlp_layers: usize,
    /// RNG seed for weight initialization.
    pub seed: u64,
}

impl ModelConfig {
    /// The paper's configuration (§5.1): 6 GNN layers, 64 features, 4 MLP
    /// prediction layers.
    pub fn paper() -> Self {
        Self { hidden: 64, gnn_layers: 6, mlp_layers: 4, seed: 42 }
    }

    /// A small configuration for fast tests and examples.
    pub fn small() -> Self {
        Self { hidden: 16, gnn_layers: 3, mlp_layers: 2, seed: 42 }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn head_dims(&self) -> Vec<usize> {
        // Halving pyramid: hidden -> hidden/2 -> ... -> 1.
        let mut dims = vec![self.hidden];
        let mut d = self.hidden;
        for _ in 1..self.mlp_layers {
            d = (d / 2).max(2);
            dims.push(d);
        }
        dims.push(1);
        dims
    }
}

/// Maximum pragma slots the M1 encoding supports (2mm has 14).
pub const MAX_SLOTS: usize = 16;
/// Per-slot width of the M1 pragma encoding.
pub const SLOT_FEATS: usize = 2;

/// Encodes a design point as a fixed-width vector for the MLP-pragma
/// baseline (M1, Kwon et al. style): *only the pragma settings*, per slot
/// `[setting, ln(factor)]` where `setting` is the pipeline ordinal (0/0.5/1)
/// or the normalized factor. No pragma-kind or program information is
/// included — that is exactly the limitation §5.2.2 attributes to this
/// baseline.
pub fn encode_pragmas(point: &DesignPoint) -> Matrix {
    let mut m = Matrix::zeros(1, MAX_SLOTS * SLOT_FEATS);
    for (i, &v) in point.values().iter().take(MAX_SLOTS).enumerate() {
        let row = m.row_mut(0);
        let o = i * SLOT_FEATS;
        match v {
            PragmaValue::Pipeline(opt) => {
                row[o] = match opt {
                    design_space::PipelineOpt::Off => 0.0,
                    design_space::PipelineOpt::Coarse => 0.5,
                    design_space::PipelineOpt::Fine => 1.0,
                };
                row[o + 1] = 0.0;
            }
            PragmaValue::Tile(f) | PragmaValue::Parallel(f) => {
                row[o] = f as f32 / 64.0;
                row[o + 1] = (f as f32).ln_1p();
            }
        }
    }
    m
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum Body {
    /// M1: pragma vector -> MLP trunk.
    PragmaMlp(Mlp),
    /// M2: per-node MLP -> sum pool (+ pragma vector concatenated).
    ContextMlp { node_mlp: Mlp },
    /// M3-M7: GNN encoder.
    Gnn(GnnEncoder),
}

/// One forward pass's output handles.
#[derive(Debug)]
pub struct ModelOutput {
    /// The tape; keep it to run `backward`.
    pub graph: Graph,
    /// One `[B, 1]` prediction per head, in head order.
    pub outputs: Vec<NodeId>,
    /// Per-graph embeddings `[B, D]` (for t-SNE, Fig. 6).
    pub graph_emb: NodeId,
    /// Node attention scores (M7 only; Fig. 5).
    pub attention: Option<NodeId>,
}

impl ModelOutput {
    /// Predicted scalars of a single-sample batch, in head order.
    ///
    /// # Panics
    ///
    /// Panics if the batch had more than one graph.
    pub fn values(&self) -> Vec<f32> {
        self.outputs.iter().map(|&o| self.graph.value(o).scalar()).collect()
    }

    /// Predictions for sample `i` of the batch, in head order.
    pub fn values_of(&self, i: usize) -> Vec<f32> {
        self.outputs.iter().map(|&o| self.graph.value(o).get(i, 0)).collect()
    }
}

/// A Table-2 prediction model: a body (MLP baseline or GNN encoder) plus one
/// MLP head per target.
///
/// The model owns its [`ParamStore`]; training code accesses it through
/// [`PredictionModel::store`] / [`PredictionModel::store_mut`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictionModel {
    kind: ModelKind,
    config: ModelConfig,
    head_names: Vec<String>,
    pub(crate) body: Body,
    pub(crate) heads: Vec<Mlp>,
    store: ParamStore,
}

impl PredictionModel {
    /// Builds a model of the given kind with one head per target name
    /// (e.g. `["latency", "dsp", "lut", "ff"]`, `["bram"]`, or `["valid"]`).
    pub fn new(kind: ModelKind, config: ModelConfig, head_names: &[&str]) -> Self {
        assert!(!head_names.is_empty(), "a model needs at least one head");
        let mut store = ParamStore::new(config.seed);
        let hidden = config.hidden;
        let body = match kind {
            ModelKind::MlpPragma => Body::PragmaMlp(Mlp::new(
                &mut store,
                "trunk",
                &[MAX_SLOTS * SLOT_FEATS, hidden * 2, hidden],
            )),
            ModelKind::MlpContext => Body::ContextMlp {
                node_mlp: Mlp::new(&mut store, "node_mlp", &[NODE_FEATS, hidden * 2, hidden]),
            },
            ModelKind::Gcn => Body::Gnn(GnnEncoder::new(
                &mut store,
                ConvKind::Gcn,
                NODE_FEATS,
                hidden,
                config.gnn_layers,
                false,
                false,
            )),
            ModelKind::Gat => Body::Gnn(GnnEncoder::new(
                &mut store,
                ConvKind::Gat,
                NODE_FEATS,
                hidden,
                config.gnn_layers,
                false,
                false,
            )),
            ModelKind::Transformer => Body::Gnn(GnnEncoder::new(
                &mut store,
                ConvKind::Transformer,
                NODE_FEATS,
                hidden,
                config.gnn_layers,
                false,
                false,
            )),
            ModelKind::TransformerJkn => Body::Gnn(GnnEncoder::new(
                &mut store,
                ConvKind::Transformer,
                NODE_FEATS,
                hidden,
                config.gnn_layers,
                true,
                false,
            )),
            ModelKind::Full => Body::Gnn(GnnEncoder::new(
                &mut store,
                ConvKind::Transformer,
                NODE_FEATS,
                hidden,
                config.gnn_layers,
                true,
                true,
            )),
        };
        let dims = config.head_dims();
        let heads = head_names
            .iter()
            .map(|n| Mlp::new(&mut store, &format!("head.{n}"), &dims))
            .collect();
        Self {
            kind,
            config,
            head_names: head_names.iter().map(|s| s.to_string()).collect(),
            body,
            heads,
            store,
        }
    }

    /// The number of `f32` weights [`PredictionModel::new`] registers for
    /// this architecture, counted without building it. The arithmetic
    /// saturates, so a decoder can check an untrusted declaration against
    /// the bytes that claim to hold it before allocating anything.
    pub fn weight_count(kind: ModelKind, config: &ModelConfig, heads: usize) -> u64 {
        let h = config.hidden as u64;
        let (h2, h4) = (h.saturating_mul(2), h.saturating_mul(4));
        let linear = |d_in: u64, d_out: u64| d_in.saturating_mul(d_out).saturating_add(d_out);
        let mlp = |dims: &[u64]| {
            dims.windows(2).fold(0u64, |n, w| n.saturating_add(linear(w[0], w[1])))
        };
        let body = match kind {
            ModelKind::MlpPragma => mlp(&[(MAX_SLOTS * SLOT_FEATS) as u64, h2, h]),
            ModelKind::MlpContext => mlp(&[NODE_FEATS as u64, h2, h]),
            _ => {
                let conv = |d_in: u64| match kind {
                    ModelKind::Gcn => linear(d_in, h),
                    ModelKind::Gat => linear(d_in, h).saturating_add(h2),
                    // query, key, value and root projections, the edge
                    // projection, the gate and the bias.
                    _ => d_in
                        .saturating_mul(h4)
                        .saturating_add(h.saturating_mul(EDGE_FEATS as u64))
                        .saturating_add(h4),
                };
                let rest = (config.gnn_layers as u64).saturating_sub(1);
                let convs = conv(NODE_FEATS as u64).saturating_add(rest.saturating_mul(conv(h)));
                let pool = match kind {
                    ModelKind::Full => mlp(&[h, h / 2, 1]).saturating_add(mlp(&[h, h])),
                    _ => 0,
                };
                convs.saturating_add(pool)
            }
        };
        // Each head is `config.head_dims()`'s halving pyramid, counted
        // without materializing it: once the width reaches 2 it stays there.
        let (mut d, mut left, mut head) = (h, (config.mlp_layers as u64).saturating_sub(1), 0u64);
        while left > 0 && d != 2 {
            let next = (d / 2).max(2);
            head = head.saturating_add(linear(d, next));
            (d, left) = (next, left - 1);
        }
        head = head.saturating_add(left.saturating_mul(linear(2, 2))).saturating_add(linear(d, 1));
        body.saturating_add((heads as u64).saturating_mul(head))
    }

    /// The model variant.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The number of graph convolutions: [`infer`](Self::infer) reads the
    /// [`KernelBatch`](crate::KernelBatch) layouts up to this one (0 for
    /// the MLP bodies), so its [`KernelTemplate`](crate::KernelTemplate)
    /// must be lowered for at least this depth.
    pub fn convolutions(&self) -> usize {
        match &self.body {
            Body::Gnn(enc) => enc.convs.len(),
            Body::PragmaMlp(_) | Body::ContextMlp { .. } => 0,
        }
    }

    /// The hyperparameters.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Head (target) names, in output order.
    pub fn head_names(&self) -> &[String] {
        &self.head_names
    }

    /// The parameter store.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable access to the parameter store (for optimizers).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Re-creates the model's weights from scratch with a new seed, keeping
    /// the architecture. Used by the trainer's stall-recovery: some
    /// initializations of deep attention stacks start in a collapsed basin.
    pub fn reinitialize(&mut self, seed: u64) {
        let heads: Vec<&str> = self.head_names.iter().map(String::as_str).collect();
        *self = PredictionModel::new(self.kind, self.config.clone().with_seed(seed), &heads);
    }

    /// Runs a forward pass on a batch of designs (M1 reads only the pragma
    /// encodings; M2-M7 read the graphs), recording the tape that training
    /// differentiates. Prediction without gradients runs through the
    /// tape-free [`infer`](Self::infer) instead.
    pub fn forward(&self, batch: &GraphBatch) -> ModelOutput {
        self.forward_on(Graph::new(), batch)
    }

    /// Calibrates an int8 [`QuantParamSet`] from the current weights.
    ///
    /// Every weight matrix (`rows >= 2`) gets per-tensor symmetric int8
    /// quantization; biases and any other `[1, F]` parameters stay f32 —
    /// they are tiny, and keeping them exact costs nothing while removing a
    /// quantization error term from every layer.
    pub fn quantize(&self) -> QuantParamSet {
        let mut qs = QuantParamSet::new();
        for id in self.store.ids() {
            let v = self.store.value(id);
            if v.rows() >= 2 {
                qs.insert(id, QuantMatrix::quantize(v));
            }
        }
        qs
    }

    /// Forward pass routing every calibrated weight through the int8
    /// kernel. The returned tape is **forward-only**: quantized ops record
    /// no gradient function, so `backward` on it stops at every such op.
    /// Use [`quantize`](Self::quantize) to build the set once and share it
    /// across calls.
    pub fn forward_quant(&self, batch: &GraphBatch, quant: &Arc<QuantParamSet>) -> ModelOutput {
        self.forward_on(Graph::with_quant(Arc::clone(quant)), batch)
    }

    fn forward_on(&self, mut g: Graph, batch: &GraphBatch) -> ModelOutput {
        let started = std::time::Instant::now();
        let (graph_emb, attention) = match &self.body {
            Body::PragmaMlp(trunk) => {
                let x = g.input(batch.pragma_x.clone());
                let h = trunk.forward(&mut g, &self.store, x);
                let h = g.relu(h);
                (h, None)
            }
            Body::ContextMlp { node_mlp } => {
                let x = g.input(batch.x.clone());
                let h = node_mlp.forward(&mut g, &self.store, x);
                let h = g.relu(h);
                let pooled = crate::layers::pool::sum_pool(
                    &mut g,
                    h,
                    &batch.node_graph,
                    batch.num_graphs,
                );
                (pooled, None)
            }
            Body::Gnn(enc) => {
                let EncoderOutput { graph_emb, attention, .. } =
                    enc.forward(&mut g, &self.store, batch);
                (graph_emb, attention)
            }
        };
        let outputs = self
            .heads
            .iter()
            .map(|head| head.forward(&mut g, &self.store, graph_emb))
            .collect();
        gdse_obs::metrics::counter_inc("gnn.forwards");
        gdse_obs::metrics::observe_us(
            "gnn.forward_us",
            started.elapsed().as_micros() as u64,
        );
        ModelOutput { graph: g, outputs, graph_emb, attention }
    }

    /// Convenience forward pass on a single design.
    pub fn forward_single(&self, input: &GraphInput, point: &DesignPoint) -> ModelOutput {
        self.forward(&GraphBatch::single(input, point))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use design_space::DesignSpace;
    use hls_ir::kernels;
    use proggraph::build_graph_bidirectional;

    fn sample() -> (GraphInput, DesignPoint, DesignPoint) {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let graph = build_graph_bidirectional(&k, &space);
        let p0 = space.default_point();
        let p1 = space.point_at(space.size() - 1);
        // Lowered with p0's pragma fill; M1 ignores it anyway.
        (GraphInput::from_graph(&graph, Some(&p0)), p0, p1)
    }

    #[test]
    fn a_second_training_step_backward_takes_no_fresh_buffer() {
        let (input, p0, _) = sample();
        let model = PredictionModel::new(ModelKind::Full, ModelConfig::small(), &["latency"]);
        let batch = GraphBatch::new(&[(&input, &p0), (&input, &p0)]);
        let mut grads = model.store().zero_grads();
        let mut step = || {
            let mut out = model.forward(&batch);
            let loss = out.graph.mse_loss(out.outputs[0], Matrix::filled(2, 1, 0.5));
            let (takes, hits) = gdse_tensor::arena::stats();
            out.graph.backward(loss, &mut grads);
            let (takes_after, hits_after) = gdse_tensor::arena::stats();
            (takes_after - takes, hits_after - hits)
        };
        let (first, _) = step();
        assert!(first > 0, "backward takes buffers from the arena");
        // The first step's consumed adjoints went back to the arena, so the
        // second step's backward finds a buffer for every take.
        let (takes, hits) = step();
        assert_eq!(takes, first);
        assert_eq!(hits, takes, "a fresh buffer in the second backward");
    }

    #[test]
    fn every_kind_produces_all_heads() {
        let (input, p0, _) = sample();
        for kind in ModelKind::ALL {
            let model = PredictionModel::new(kind, ModelConfig::small(), &["latency", "dsp"]);
            let out = model.forward_single(&input, &p0);
            assert_eq!(out.values().len(), 2, "{kind:?}");
            assert!(out.values().iter().all(|v| v.is_finite()), "{kind:?}");
        }
    }

    #[test]
    fn m1_depends_on_point_not_graph() {
        let (input, p0, p1) = sample();
        let model = PredictionModel::new(ModelKind::MlpPragma, ModelConfig::small(), &["latency"]);
        let a = model.forward_single(&input, &p0).values();
        let b = model.forward_single(&input, &p1).values();
        assert_ne!(a, b, "different pragma settings must change M1's output");
    }

    #[test]
    fn full_model_exposes_attention() {
        let (input, p0, _) = sample();
        let model = PredictionModel::new(ModelKind::Full, ModelConfig::small(), &["latency"]);
        let out = model.forward_single(&input, &p0);
        assert!(out.attention.is_some());
        let others = PredictionModel::new(ModelKind::Transformer, ModelConfig::small(), &["latency"]);
        assert!(others.forward_single(&input, &p0).attention.is_none());
    }

    #[test]
    fn pragma_encoding_shapes() {
        let (_, p0, p1) = sample();
        let a = encode_pragmas(&p0);
        assert_eq!(a.shape(), (1, MAX_SLOTS * SLOT_FEATS));
        assert_ne!(a, encode_pragmas(&p1));
    }

    #[test]
    fn paper_config_matches_section_5_1() {
        let c = ModelConfig::paper();
        assert_eq!(c.hidden, 64);
        assert_eq!(c.gnn_layers, 6);
        assert_eq!(c.mlp_layers, 4);
    }

    #[test]
    fn head_dims_end_at_one() {
        let c = ModelConfig::paper();
        let dims = c.head_dims();
        assert_eq!(dims[0], 64);
        assert_eq!(*dims.last().unwrap(), 1);
        assert_eq!(dims.len(), c.mlp_layers + 1);
    }

    #[test]
    fn quantize_covers_weights_and_skips_biases() {
        let model = PredictionModel::new(ModelKind::Full, ModelConfig::small(), &["latency"]);
        let qs = model.quantize();
        assert!(!qs.is_empty());
        for id in model.store().ids() {
            let v = model.store().value(id);
            if v.rows() >= 2 {
                assert!(qs.get(id).is_some(), "weight {} not calibrated", model.store().name(id));
            } else {
                assert!(qs.get(id).is_none(), "bias {} must stay f32", model.store().name(id));
            }
        }
    }

    #[test]
    fn quantized_forward_tracks_f32_on_every_kind() {
        let (input, p0, _) = sample();
        for kind in ModelKind::ALL {
            let model = PredictionModel::new(kind, ModelConfig::small(), &["latency", "dsp"]);
            let qs = Arc::new(model.quantize());
            let batch = GraphBatch::single(&input, &p0);
            let f = model.forward(&batch).values();
            let q = model.forward_quant(&batch, &qs).values();
            assert_eq!(f.len(), q.len(), "{kind:?}");
            for (a, b) in f.iter().zip(&q) {
                assert!(b.is_finite(), "{kind:?}");
                assert!(
                    (a - b).abs() < 0.25 * (1.0 + a.abs()),
                    "{kind:?}: f32 {a} vs quant {b} drift too large"
                );
            }
        }
    }

    #[test]
    fn weight_count_matches_the_built_architecture() {
        let configs = [
            ModelConfig::small(),
            ModelConfig::paper(),
            ModelConfig { hidden: 5, gnn_layers: 1, mlp_layers: 1, seed: 1 },
            ModelConfig { hidden: 1, gnn_layers: 2, mlp_layers: 0, seed: 2 },
            ModelConfig { hidden: 2, gnn_layers: 1, mlp_layers: 6, seed: 3 },
            ModelConfig { hidden: 33, gnn_layers: 2, mlp_layers: 9, seed: 4 },
        ];
        for kind in ModelKind::ALL {
            for config in &configs {
                for heads in [&["valid"][..], &["latency", "dsp", "lut", "ff"]] {
                    let model = PredictionModel::new(kind, config.clone(), heads);
                    assert_eq!(
                        PredictionModel::weight_count(kind, config, heads.len()),
                        model.store().num_weights() as u64,
                        "{kind:?} {config:?} {} head(s)",
                        heads.len()
                    );
                }
            }
        }
    }

    #[test]
    fn same_seed_same_prediction() {
        let (input, p0, _) = sample();
        let m1 = PredictionModel::new(ModelKind::Gcn, ModelConfig::small(), &["latency"]);
        let m2 = PredictionModel::new(ModelKind::Gcn, ModelConfig::small(), &["latency"]);
        assert_eq!(m1.forward_single(&input, &p0).values(), m2.forward_single(&input, &p0).values());
    }
}
