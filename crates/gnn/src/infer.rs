//! The tape-free forward pass: [`PredictionModel::infer`].
//!
//! Prediction needs no gradients, so this path records no tape: every layer
//! writes plain [`Matrix`] values, and the edge work of a convolution walks
//! each node's incoming edges ([`KernelBatch`]'s stable CSR) instead of
//! materializing per-edge gather/add/product tensors.
//!
//! **Receptive-field reuse by row groups.** The design points of one
//! kernel differ only in their pragma-node features, so a node's layer-`l`
//! row is the same at two points that agree on every pragma node within
//! `l` hops of it. [`KernelBatch`] groups each node's points that way, layer
//! by layer, and each layer's node matrix is one matrix in that layer's
//! [`Layout`]: one row per group, numbered point by point, so the rows
//! first needed at point `b` follow those of points `0..b`. A row is
//! computed once, at the first point of its group, from the input rows at
//! that point ([`blocks`]). Projections, edge logits, softmax and
//! aggregation, the gate, ELU + LayerNorm, the JKN max and the attention
//! pool's MLPs run on those rows instead of `B * N`; pooling reads each
//! point's `N` rows through the layout. A convolution reads its input in
//! layout `l` and writes its output in layout `l + 1`. The edge projection
//! of each TransformerConv is the same for every point and runs once per
//! call. Each call books `gnn.infer_rows`, the rows its convolutions
//! computed, beside `gnn.infer_rows_unshared`, the `B * N` per convolution
//! of a forward per point.
//!
//! **Bit-identity with the tape.** Results equal [`PredictionModel::forward`]
//! on a [`GraphBatch`](crate::GraphBatch) of the same points bit for bit:
//!
//! - each output row depends only on its own input row and its sources'
//!   input rows, summed in the same order, and points in one group have
//!   bit-identical input rows there, so computing the row once per group
//!   changes no bit; in particular each GEMM output row depends only on its
//!   input row, and both GEMM kernels sum in increasing-`k` order, so which
//!   rows share a GEMM call changes no bit;
//! - layer 0's one-hot rows take the zero-skipping kernel: a sum that
//!   starts at +0.0 is unchanged by adding `0 * w` for finite `w`;
//! - the CSR keeps every node's incoming edges in edge-list order, the order
//!   the tape's scatter-add and segment softmax visit them in;
//! - activations, dot products, LayerNorm, the segment softmax and the
//!   TransformerConv gate call the same [`gdse_tensor::scalar`] functions
//!   as the tape, and every other expression below is written as the tape
//!   op it replaces computes it.
//!
//! A layer runs in phases over each block of rows (edge logits, per-node
//! softmax and aggregation, gate, activation) rather than one node at a
//! time: short loops over independent rows let the CPU overlap the rows'
//! sequential sums.

use crate::encoder::{Conv, GnnEncoder, Readout, LAYER_NORM_EPS};
use crate::input::{KernelBatch, Layout};
use crate::layers::gat::{GatConv, LEAKY_SLOPE};
use crate::layers::gcn::GcnConv;
use crate::layers::mlp::Mlp;
use crate::layers::pool::AttentionPool;
use crate::layers::transformer::TransformerConv;
use crate::model::{Body, PredictionModel};
use gdse_tensor::gemm::{gemm, gemm_bias_act};
use gdse_tensor::scalar::{
    dot, elu, gate_logit, gated_row, layer_norm_row, leaky_relu, softmax_in_place, stable_sigmoid,
};
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
                let h = relu(node_mlp.infer(store, &batch.x));
                sum_pool(batch, batch.layout(0), h)
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

/// The tape's `relu`.
fn relu(mut m: Matrix) -> Matrix {
    for x in m.as_mut_slice() {
        *x = x.max(0.0);
    }
    m
}

/// ELU then LayerNorm on rows `rows` of `m`, as the encoder applies them
/// after each convolution.
fn activate(m: &mut Matrix, rows: std::ops::Range<usize>) {
    let d = m.cols();
    let block = &mut m.as_mut_slice()[rows.start * d..rows.end * d];
    for x in block.iter_mut() {
        *x = elu(*x, 1.0);
    }
    for row in block.chunks_exact_mut(d) {
        layer_norm_row(row, LAYER_NORM_EPS);
    }
}

/// Sum of each graph's node rows, in node order: `h` in `layout` to `[B, D]`.
fn sum_pool(batch: &KernelBatch, layout: &Layout, h: Matrix) -> Matrix {
    let mut out = arena::zeros(batch.num_graphs, h.cols());
    for b in 0..batch.num_graphs {
        let o = out.row_mut(b);
        for i in 0..batch.num_nodes {
            for (acc, x) in o.iter_mut().zip(h.row(layout.row(i, b))) {
                *acc += x;
            }
        }
    }
    arena::recycle(h);
    out
}

/// `x · w` on layer `l`'s input rows.
///
/// Node features are one-hot and mostly zero, so layer 0 runs the
/// zero-skipping kernel, which for finite weights gives the same bits as
/// the GEMM (see [`Matrix::matmul_reference`]).
fn project(l: usize, x: &Matrix, w: &Matrix) -> Matrix {
    if l == 0 {
        x.matmul_reference(w)
    } else {
        gemm(x, w)
    }
}

/// A block of rows of a matrix in some layout: node `nodes[r]` of design
/// point `point` is row `first + r`.
struct Block<'a> {
    nodes: &'a [u32],
    first: usize,
    point: usize,
}

impl Block<'_> {
    fn rows(&self) -> std::ops::Range<usize> {
        self.first..self.first + self.nodes.len()
    }
}

/// The blocks of a matrix in `layout`: the rows first needed at each
/// point. A row reads its inputs at the point that first needs it; every
/// point in its group has the same inputs (see
/// [`Layouts`](crate::input::Layouts)).
fn blocks(layout: &Layout) -> impl Iterator<Item = Block<'_>> {
    (0..layout.points()).map(|point| {
        let (first, nodes) = layout.first_needed(point);
        Block { nodes, first, point }
    })
}

/// `m`, a matrix in layout `from`, copied into the later layout `to`, which
/// refines it: a row of `from` is copied into each of its groups in `to`.
fn relayout(m: Matrix, from: &Layout, to: &Layout) -> Matrix {
    // Past the last layout, both layers read the same one.
    if std::ptr::eq(from, to) {
        return m;
    }
    let mut out = arena::zeros(to.num_rows(), m.cols());
    for block in blocks(to) {
        for (r, &i) in block.nodes.iter().enumerate() {
            let row = from.row(i as usize, block.point);
            out.row_mut(block.first + r).copy_from_slice(m.row(row));
        }
    }
    arena::recycle(m);
    out
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
        let convs = self.convs.len();
        assert!(
            convs <= batch.depth,
            "a model of {convs} convolutions reads a batch lowered for {}",
            batch.depth
        );
        let rows: usize = (1..=convs).map(|l| batch.layout(l).num_rows()).sum();
        gdse_obs::metrics::counter_add("gnn.infer_rows", rows as u64);
        let unshared = convs * batch.num_graphs * batch.num_nodes;
        gdse_obs::metrics::counter_add("gnn.infer_rows_unshared", unshared as u64);
        let jkn = self.use_jkn && convs > 1;
        let mut h: Option<Matrix> = None;
        let mut jk: Option<Matrix> = None;
        for (l, conv) in self.convs.iter().enumerate() {
            let x = h.as_ref().unwrap_or(&batch.x);
            let next = match conv {
                Conv::Gcn(c) => c.infer(store, batch, l, x),
                Conv::Gat(c) => c.infer(store, batch, l, x),
                Conv::Transformer(c) => c.infer(store, batch, l, x),
            };
            if jkn {
                // The tape's `max_stack`: a later layer wins only where it is
                // strictly greater.
                jk = Some(match jk.take() {
                    None => next.clone(),
                    Some(best) => {
                        let mut m = relayout(best, batch.layout(l), batch.layout(l + 1));
                        for (best, &c) in m.as_mut_slice().iter_mut().zip(next.as_slice()) {
                            if c > *best {
                                *best = c;
                            }
                        }
                        m
                    }
                });
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
        let layout = batch.layout(convs);
        match &self.readout {
            Readout::Sum => sum_pool(batch, layout, node_embs),
            Readout::Attention(pool) => pool.infer(store, batch, layout, node_embs),
        }
    }
}

impl AttentionPool {
    /// Per-graph softmax of the score MLP over the graph's nodes, weighting
    /// the value MLP's rows; both MLPs run once per row of `layout`.
    fn infer(
        &self,
        store: &ParamStore,
        batch: &KernelBatch,
        layout: &Layout,
        node_embs: Matrix,
    ) -> Matrix {
        let scores = self.score_mlp.infer(store, &node_embs);
        let values = self.value_mlp.infer(store, &node_embs);
        arena::recycle(node_embs);
        let mut out = arena::zeros(batch.num_graphs, values.cols());
        let mut att = vec![0.0f32; batch.num_nodes];
        for b in 0..batch.num_graphs {
            for (i, a) in att.iter_mut().enumerate() {
                *a = scores.get(layout.row(i, b), 0);
            }
            softmax_in_place(&mut att);
            let o = out.row_mut(b);
            for (i, &a) in att.iter().enumerate() {
                for (acc, v) in o.iter_mut().zip(values.row(layout.row(i, b))) {
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
    /// Layer `l`, ELU and LayerNorm: `x` in layout `l`, the output in
    /// layout `l + 1`.
    fn infer(&self, store: &ParamStore, batch: &KernelBatch, l: usize, x: &Matrix) -> Matrix {
        let d = self.out_dim;
        let q = project(l, x, store.value(self.w_query));
        let k = project(l, x, store.value(self.w_key));
        let v = project(l, x, store.value(self.w_value));
        let root = project(l, x, store.value(self.w_root));
        // The same for every point: one row per edge of the kernel.
        let e = gemm(&batch.edge_attr, store.value(self.w_edge));
        let w_gate = store.value(self.w_gate).as_slice();
        let bias = store.value(self.b).row(0);
        let scale = 1.0 / (d as f32).sqrt();

        let (input, output) = (batch.layout(l), batch.layout(l + 1));
        let in_edges = &batch.in_edges;
        let (edge, src) = (in_edges.edges(), in_edges.all_sources());
        let mut aggr = arena::zeros(output.num_rows(), d);
        let mut out = arena::zeros(aggr.rows(), d);
        let mut scores = vec![0.0f32; edge.len()];
        let mut key = vec![0.0f32; d];
        for block in blocks(output) {
            // The input row of every node at the block's point.
            let at = input.rows_at(block.point);
            // Attention logits of the block's edges: `q[dst] · (k[src] + e)`.
            for &i in block.nodes {
                let i = i as usize;
                let qi = q.row(at[i] as usize);
                for s in in_edges.entries(i) {
                    let ks = k.row(at[src[s]] as usize);
                    for ((o, kv), ev) in key.iter_mut().zip(ks).zip(e.row(edge[s])) {
                        *o = kv + ev;
                    }
                    scores[s] = dot(qi, &key) * scale;
                }
            }
            // Softmax over each node's edges, then the weighted sum of
            // `v[src] + e`.
            for (r, &i) in block.nodes.iter().enumerate() {
                let slots = in_edges.entries(i as usize);
                let alpha = &mut scores[slots.clone()];
                softmax_in_place(alpha);
                let row = aggr.row_mut(block.first + r);
                for (s, &a) in slots.zip(alpha.iter()) {
                    let vs = v.row(at[src[s]] as usize);
                    for ((o, vv), ev) in row.iter_mut().zip(vs).zip(e.row(edge[s])) {
                        *o += (vv + ev) * a;
                    }
                }
            }
            // Gated residual. The logit is the tape's
            // `[aggr | root | aggr - root] · W_gate`: a GEMM sum from +0.0 in
            // increasing-k order.
            for (r, &i) in block.nodes.iter().enumerate() {
                let (a, rt) = (aggr.row(block.first + r), root.row(at[i as usize] as usize));
                let beta = stable_sigmoid(gate_logit(a, rt, w_gate));
                gated_row(out.row_mut(block.first + r), a, rt, beta, bias);
            }
            activate(&mut out, block.rows());
        }
        for m in [q, k, v, root, e, aggr] {
            arena::recycle(m);
        }
        out
    }
}

impl GatConv {
    /// Layer `l`, ELU and LayerNorm (`x` in layout `l`, the output in
    /// layout `l + 1`); each node attends to its incoming edges, then to
    /// itself (the tape appends self-loops after all edges).
    fn infer(&self, store: &ParamStore, batch: &KernelBatch, l: usize, x: &Matrix) -> Matrix {
        let h = project(l, x, store.value(self.w));
        let score_dst = gemm(&h, store.value(self.a_dst));
        let score_src = gemm(&h, store.value(self.a_src));
        let bias = store.value(self.b).row(0);

        let (input, output) = (batch.layout(l), batch.layout(l + 1));
        let mut out = arena::zeros(output.num_rows(), h.cols());
        let mut alpha = Vec::new();
        for block in blocks(output) {
            // The input row of every node at the block's point.
            let at = input.rows_at(block.point);
            for (r, &i) in block.nodes.iter().enumerate() {
                let i = i as usize;
                let srcs = batch.in_edges.sources(i);
                let sd = score_dst.get(at[i] as usize, 0);
                alpha.clear();
                for &s in srcs.iter().chain(std::iter::once(&i)) {
                    alpha.push(leaky_relu(sd + score_src.get(at[s] as usize, 0), LEAKY_SLOPE));
                }
                softmax_in_place(&mut alpha);
                let row = out.row_mut(block.first + r);
                for (&s, &a) in srcs.iter().chain(std::iter::once(&i)).zip(&alpha) {
                    for (o, hv) in row.iter_mut().zip(h.row(at[s] as usize)) {
                        *o += hv * a;
                    }
                }
                for (o, c) in row.iter_mut().zip(bias) {
                    *o += c;
                }
            }
            activate(&mut out, block.rows());
        }
        for m in [h, score_dst, score_src] {
            arena::recycle(m);
        }
        out
    }
}

impl GcnConv {
    /// Layer `l`, ELU and LayerNorm (`x` in layout `l`, the output in
    /// layout `l + 1`): symmetric-normalized aggregation over incoming
    /// edges then the self-loop, then the linear transform.
    fn infer(&self, store: &ParamStore, batch: &KernelBatch, l: usize, x: &Matrix) -> Matrix {
        let (input, output) = (batch.layout(l), batch.layout(l + 1));
        // In-degree plus the self-loop (small integers: exact in f32).
        let deg: Vec<f32> = (0..batch.num_nodes)
            .map(|i| (batch.in_edges.sources(i).len() + 1) as f32)
            .collect();
        let mut agg = arena::zeros(output.num_rows(), x.cols());
        for block in blocks(output) {
            // The input row of every node at the block's point.
            let at = input.rows_at(block.point);
            for (r, &i) in block.nodes.iter().enumerate() {
                let i = i as usize;
                let srcs = batch.in_edges.sources(i);
                let row = agg.row_mut(block.first + r);
                for &s in srcs.iter().chain(std::iter::once(&i)) {
                    let coeff = 1.0 / (deg[s] * deg[i]).sqrt();
                    for (o, xv) in row.iter_mut().zip(x.row(at[s] as usize)) {
                        *o += xv * coeff;
                    }
                }
            }
        }
        let bias = store.value(self.b).row(0);
        let mut out = gemm_bias_act(&agg, store.value(self.w), Some(bias), Activation::None);
        arena::recycle(agg);
        let rows = out.rows();
        activate(&mut out, 0..rows);
        out
    }
}
