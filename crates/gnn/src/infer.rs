//! The tape-free forward pass: [`PredictionModel::infer`].
//!
//! Prediction needs no gradients, so this path records no tape: every layer
//! writes plain [`Matrix`] values, and the edge work of a convolution walks
//! each node's incoming edges ([`KernelBatch`]'s stable CSR) instead of
//! materializing per-edge gather/add/product tensors. Work that is the same
//! for every design point of a kernel runs once per call: the edge
//! projection of each TransformerConv, and every row-wise transform of
//! layer 0 on the rows of the non-pragma nodes.
//!
//! **Bit-identity with the tape.** Results equal [`PredictionModel::forward`]
//! on a [`GraphBatch`](crate::GraphBatch) of the same points bit for bit:
//!
//! - each GEMM output row depends only on its input row, and both GEMM
//!   kernels sum in increasing-`k` order, so splitting rows between the
//!   template and the pragma rows (or between batches) changes no bit;
//! - layer 0's one-hot rows take the zero-skipping kernel: a sum that
//!   starts at +0.0 is unchanged by adding `0 * w` for finite `w`;
//! - the CSR keeps every node's incoming edges in edge-list order, the order
//!   the tape's scatter-add and segment softmax visit them in;
//! - activations, dot products and LayerNorm call the same
//!   [`gdse_tensor::scalar`] functions as the tape, and every other
//!   expression below is written as the tape op it replaces computes it.
//!
//! A layer runs in phases over all rows (edge logits, per-node softmax and
//! aggregation, gate, activation) rather than one node at a time: short
//! loops over independent rows let the CPU overlap the rows' sequential
//! sums.

use crate::encoder::{Conv, GnnEncoder, Readout, LAYER_NORM_EPS};
use crate::input::{InEdges, KernelBatch};
use crate::layers::gat::{GatConv, LEAKY_SLOPE};
use crate::layers::gcn::GcnConv;
use crate::layers::mlp::Mlp;
use crate::layers::pool::AttentionPool;
use crate::layers::transformer::TransformerConv;
use crate::model::{Body, PredictionModel};
use gdse_tensor::gemm::{gemm, gemm_bias_act};
use gdse_tensor::scalar::{dot, elu, layer_norm_row, leaky_relu, stable_sigmoid};
use gdse_tensor::{arena, Activation, Matrix, ParamStore};

impl PredictionModel {
    /// Tape-free forward pass over `batch`: one `[B, 1]` prediction per
    /// head, in head order.
    ///
    /// Bit-identical to [`forward`](Self::forward) on a
    /// [`GraphBatch`](crate::GraphBatch) of the same points (see the module
    /// docs), and books `gnn.forwards` / `gnn.forward_us` the same way.
    pub fn infer(&self, batch: &KernelBatch) -> Vec<Matrix> {
        let started = std::time::Instant::now();
        let store = self.store();
        let graph_emb = match &self.body {
            Body::PragmaMlp(trunk) => relu(trunk.infer(store, &batch.pragma_enc)),
            Body::ContextMlp { node_mlp } => {
                let h = relu(per_node(batch, |x| node_mlp.infer(store, x)));
                sum_pool(batch, h)
            }
            Body::Gnn(enc) => enc.infer(store, batch),
        };
        let outputs = self
            .heads
            .iter()
            .map(|head| head.infer(store, &graph_emb))
            .collect();
        arena::recycle(graph_emb);
        gdse_obs::metrics::counter_inc("gnn.forwards");
        gdse_obs::metrics::observe_us("gnn.forward_us", started.elapsed().as_micros() as u64);
        outputs
    }
}

/// `f` over the layer-0 node rows of `batch`: once on the non-pragma rows
/// every point shares, once on all points' pragma rows, assembled into the
/// batched `[B * N, F]` node matrix. `f` must be row-wise.
fn per_node(batch: &KernelBatch, f: impl Fn(&Matrix) -> Matrix) -> Matrix {
    let template = f(&batch.template_x);
    let pragma = f(&batch.pragma_x);
    let out = batch.assemble(&template, &pragma);
    arena::recycle(template);
    arena::recycle(pragma);
    out
}

/// The tape's `relu`.
fn relu(mut m: Matrix) -> Matrix {
    for x in m.as_mut_slice() {
        *x = x.max(0.0);
    }
    m
}

/// The tape's `segment_softmax` over one segment: running max by `>`,
/// `exp(x - max)`, a left-to-right sum, then one division per entry.
fn softmax_in_place(xs: &mut [f32]) {
    let mut max = f32::NEG_INFINITY;
    for &x in xs.iter() {
        if x > max {
            max = x;
        }
    }
    let mut sum = 0.0f32;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    for x in xs.iter_mut() {
        *x /= sum;
    }
}

/// ELU then LayerNorm on every row, as the encoder applies them after each
/// convolution.
fn activate(m: &mut Matrix) {
    for x in m.as_mut_slice() {
        *x = elu(*x, 1.0);
    }
    for r in 0..m.rows() {
        layer_norm_row(m.row_mut(r), LAYER_NORM_EPS);
    }
}

/// Sum of each graph's node rows, in node order: `[B * N, D] -> [B, D]`.
fn sum_pool(batch: &KernelBatch, h: Matrix) -> Matrix {
    let n = batch.num_nodes;
    let mut out = arena::zeros(batch.num_graphs, h.cols());
    for b in 0..batch.num_graphs {
        let o = out.row_mut(b);
        for i in 0..n {
            for (acc, x) in o.iter_mut().zip(h.row(b * n + i)) {
                *acc += x;
            }
        }
    }
    arena::recycle(h);
    out
}

/// A convolution's input rows.
enum LayerInput<'a> {
    /// The batch's node features (layer 0): the non-pragma rows are shared
    /// by every point.
    Features,
    /// The previous layer's `[B * N, D]` output.
    Hidden(&'a Matrix),
}

impl LayerInput<'_> {
    /// `x · w` over every node of the batch.
    ///
    /// Node features are one-hot and mostly zero, so layer 0 runs the
    /// zero-skipping kernel, which for finite weights gives the same bits
    /// as the GEMM (see [`Matrix::matmul_reference`]).
    fn project(&self, batch: &KernelBatch, w: &Matrix) -> Matrix {
        match self {
            LayerInput::Features => per_node(batch, |x| x.matmul_reference(w)),
            LayerInput::Hidden(h) => gemm(h, w),
        }
    }
}

impl Mlp {
    /// The tape's `forward`: one fused `linear` per layer, ReLU between.
    fn infer(&self, store: &ParamStore, x: &Matrix) -> Matrix {
        let last = self.weights.len() - 1;
        let mut h: Option<Matrix> = None;
        for (i, (&w, &b)) in self.weights.iter().zip(&self.biases).enumerate() {
            let act = if i < last {
                Activation::Relu
            } else {
                Activation::None
            };
            let input = h.as_ref().unwrap_or(x);
            let next = gemm_bias_act(input, store.value(w), Some(store.value(b).row(0)), act);
            if let Some(prev) = h.replace(next) {
                arena::recycle(prev);
            }
        }
        h.expect("an MLP has at least one layer")
    }
}

impl GnnEncoder {
    /// Graph embeddings `[B, D]`.
    fn infer(&self, store: &ParamStore, batch: &KernelBatch) -> Matrix {
        let jkn = self.use_jkn && self.convs.len() > 1;
        let mut h: Option<Matrix> = None;
        let mut jk: Option<Matrix> = None;
        for conv in &self.convs {
            let x = h.as_ref().map_or(LayerInput::Features, LayerInput::Hidden);
            let next = match conv {
                Conv::Gcn(c) => c.infer(store, batch, x),
                Conv::Gat(c) => c.infer(store, batch, x),
                Conv::Transformer(c) => c.infer(store, batch, x),
            };
            if jkn {
                // The tape's `max_stack`: a later layer wins only where it is
                // strictly greater.
                match &mut jk {
                    None => jk = Some(next.clone()),
                    Some(m) => {
                        for (best, &c) in m.as_mut_slice().iter_mut().zip(next.as_slice()) {
                            if c > *best {
                                *best = c;
                            }
                        }
                    }
                }
            }
            if let Some(prev) = h.replace(next) {
                arena::recycle(prev);
            }
        }
        let h = h.expect("an encoder has at least one layer");
        let node_embs = match jk {
            Some(m) => {
                arena::recycle(h);
                m
            }
            None => h,
        };
        match &self.readout {
            Readout::Sum => sum_pool(batch, node_embs),
            Readout::Attention(pool) => pool.infer(store, batch, node_embs),
        }
    }
}

impl AttentionPool {
    /// Per-graph softmax of the score MLP over the graph's nodes, weighting
    /// the value MLP's rows.
    fn infer(&self, store: &ParamStore, batch: &KernelBatch, node_embs: Matrix) -> Matrix {
        let n = batch.num_nodes;
        let mut scores = self.score_mlp.infer(store, &node_embs);
        let values = self.value_mlp.infer(store, &node_embs);
        arena::recycle(node_embs);
        let mut out = arena::zeros(batch.num_graphs, values.cols());
        for b in 0..batch.num_graphs {
            let att = &mut scores.as_mut_slice()[b * n..(b + 1) * n];
            softmax_in_place(att);
            let o = out.row_mut(b);
            for (i, &a) in att.iter().enumerate() {
                for (acc, v) in o.iter_mut().zip(values.row(b * n + i)) {
                    *acc += v * a;
                }
            }
        }
        arena::recycle(scores);
        arena::recycle(values);
        out
    }
}

impl TransformerConv {
    /// The layer, ELU and LayerNorm.
    fn infer(&self, store: &ParamStore, batch: &KernelBatch, x: LayerInput) -> Matrix {
        let d = self.out_dim;
        let q = x.project(batch, store.value(self.w_query));
        let k = x.project(batch, store.value(self.w_key));
        let v = x.project(batch, store.value(self.w_value));
        let root = x.project(batch, store.value(self.w_root));
        // The same for every point: one row per edge of the kernel.
        let e = gemm(&batch.edge_attr, store.value(self.w_edge));
        let w_gate = store.value(self.w_gate).as_slice();
        let bias = store.value(self.b).row(0);
        let scale = 1.0 / (d as f32).sqrt();

        let n = batch.num_nodes;
        let InEdges {
            offsets,
            edge,
            src,
            dst,
        } = &batch.in_edges;
        let mut aggr = arena::zeros(q.rows(), d);
        let mut scores = vec![0.0f32; edge.len()];
        let mut key = vec![0.0f32; d];
        for base in (0..batch.num_graphs).map(|b| b * n) {
            // Attention logits of every edge: `q[dst] · (k[src] + e)`.
            for (s, score) in scores.iter_mut().enumerate() {
                for ((o, kv), ev) in key.iter_mut().zip(k.row(base + src[s])).zip(e.row(edge[s])) {
                    *o = kv + ev;
                }
                *score = dot(q.row(base + dst[s]), &key) * scale;
            }
            // Softmax over each node's edges, then the weighted sum of
            // `v[src] + e`.
            for i in 0..n {
                let slots = offsets[i]..offsets[i + 1];
                let alpha = &mut scores[slots.clone()];
                softmax_in_place(alpha);
                let row = aggr.row_mut(base + i);
                for (s, &a) in slots.zip(alpha.iter()) {
                    for ((o, vv), ev) in
                        row.iter_mut().zip(v.row(base + src[s])).zip(e.row(edge[s]))
                    {
                        *o += (vv + ev) * a;
                    }
                }
            }
        }
        // Gated residual. The logit is the tape's
        // `[aggr | root | aggr - root] · W_gate`: a GEMM sum from +0.0 in
        // increasing-k order.
        let mut out = arena::zeros(q.rows(), d);
        for r in 0..out.rows() {
            let (a, rt) = (aggr.row(r), root.row(r));
            let mut logit = 0.0f32;
            for (x, w) in a.iter().zip(&w_gate[..d]) {
                logit += x * w;
            }
            for (x, w) in rt.iter().zip(&w_gate[d..2 * d]) {
                logit += x * w;
            }
            for ((x, y), w) in a.iter().zip(rt).zip(&w_gate[2 * d..]) {
                logit += (x - y) * w;
            }
            let beta = stable_sigmoid(logit);
            let inv_beta = 1.0 - beta;
            for (c, o) in out.row_mut(r).iter_mut().enumerate() {
                *o = rt[c] * beta + a[c] * inv_beta + bias[c];
            }
        }
        activate(&mut out);
        for m in [q, k, v, root, e, aggr] {
            arena::recycle(m);
        }
        out
    }
}

impl GatConv {
    /// The layer, ELU and LayerNorm; each node attends to its incoming
    /// edges, then to itself (the tape appends self-loops after all edges).
    fn infer(&self, store: &ParamStore, batch: &KernelBatch, x: LayerInput) -> Matrix {
        let h = x.project(batch, store.value(self.w));
        let score_dst = gemm(&h, store.value(self.a_dst));
        let score_src = gemm(&h, store.value(self.a_src));
        let bias = store.value(self.b).row(0);

        let n = batch.num_nodes;
        let mut out = arena::zeros(h.rows(), h.cols());
        let mut alpha = Vec::new();
        for base in (0..batch.num_graphs).map(|b| b * n) {
            for i in 0..n {
                let srcs = batch.in_edges.sources(i);
                let sd = score_dst.get(base + i, 0);
                alpha.clear();
                for &s in srcs.iter().chain(std::iter::once(&i)) {
                    alpha.push(leaky_relu(sd + score_src.get(base + s, 0), LEAKY_SLOPE));
                }
                softmax_in_place(&mut alpha);
                let row = out.row_mut(base + i);
                for (&s, &a) in srcs.iter().chain(std::iter::once(&i)).zip(&alpha) {
                    for (o, hv) in row.iter_mut().zip(h.row(base + s)) {
                        *o += hv * a;
                    }
                }
                for (o, b) in row.iter_mut().zip(bias) {
                    *o += b;
                }
            }
        }
        activate(&mut out);
        for m in [h, score_dst, score_src] {
            arena::recycle(m);
        }
        out
    }
}

impl GcnConv {
    /// The layer, ELU and LayerNorm: symmetric-normalized aggregation over
    /// incoming edges then the self-loop, then the linear transform.
    fn infer(&self, store: &ParamStore, batch: &KernelBatch, x: LayerInput) -> Matrix {
        let n = batch.num_nodes;
        let full;
        let x = match x {
            LayerInput::Features => {
                full = batch.assemble(&batch.template_x, &batch.pragma_x);
                &full
            }
            LayerInput::Hidden(h) => h,
        };
        // In-degree plus the self-loop (small integers: exact in f32).
        let deg: Vec<f32> = (0..n)
            .map(|i| (batch.in_edges.sources(i).len() + 1) as f32)
            .collect();
        let mut agg = arena::zeros(x.rows(), x.cols());
        for base in (0..batch.num_graphs).map(|b| b * n) {
            for i in 0..n {
                let srcs = batch.in_edges.sources(i);
                let row = agg.row_mut(base + i);
                for &s in srcs.iter().chain(std::iter::once(&i)) {
                    let coeff = 1.0 / (deg[s] * deg[i]).sqrt();
                    for (o, xv) in row.iter_mut().zip(x.row(base + s)) {
                        *o += xv * coeff;
                    }
                }
            }
        }
        let bias = store.value(self.b).row(0);
        let mut out = gemm_bias_act(&agg, store.value(self.w), Some(bias), Activation::None);
        arena::recycle(agg);
        activate(&mut out);
        out
    }
}
