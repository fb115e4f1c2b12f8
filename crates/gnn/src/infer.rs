//! The tape-free forward pass: [`PredictionModel::template`] and
//! [`PredictionModel::infer`].
//!
//! Prediction needs no gradients, so this path records no tape: every layer
//! writes plain [`Matrix`] values, and the edge work of a convolution walks
//! each node's incoming edges ([`KernelTemplate`]'s stable CSR) instead of
//! materializing per-edge gather/add/product tensors.
//!
//! **Receptive-field reuse by row groups.** The design points of one
//! kernel differ only in their pragma-node features, so a node's layer-`l`
//! row is the same at two points that agree on every pragma node within
//! `l` hops of it, and the same at every point if no pragma node is that
//! close. Each layer's node matrix is one matrix in that layer's
//! [`Layout`], held in two parts. The *resident* rows, those of the nodes
//! out of every pragma node's reach, a model computes once per kernel, with
//! their projections and the edge projection of each TransformerConv, in
//! its [`ModelTemplate`]. A call ([`KernelBatch`]) computes the rest: one
//! row per group of points, numbered point by point, so the rows first
//! needed at point `b` follow those of points `0..b`. A row is computed
//! once, at the first point of its group, from the input rows at that
//! point ([`blocks`]), each read from the template or from the call
//! ([`Rows`]). Projections, edge logits, softmax and aggregation, the gate,
//! ELU + LayerNorm, the JKN max and the attention pool's MLPs run on the
//! call's rows instead of `B * N`; pooling reads each point's `N` rows
//! through the layout. A convolution reads its input in layout `l` and
//! writes its output in layout `l + 1`. The template runs the same layers
//! over its own layouts, which hold only the resident rows. Each call books
//! `gnn.infer_rows`, the rows its convolutions computed, beside
//! `gnn.infer_rows_unshared`, the `B * N` per convolution of a forward per
//! point; each template books `gnn.templates` and its rows in
//! `gnn.template_rows`.
//!
//! **Bit-identity with the tape.** Results equal [`PredictionModel::forward`]
//! on a [`GraphBatch`](crate::GraphBatch) of the same points bit for bit:
//!
//! - each output row depends only on its own input row and its sources'
//!   input rows, summed in the same order, and points in one group have
//!   bit-identical input rows there, so computing the row once per group,
//!   or once per kernel, changes no bit; in particular each GEMM output row
//!   depends only on its input row, and both GEMM kernels sum in
//!   increasing-`k` order, so which rows share a GEMM call changes no bit;
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
use crate::input::{KernelBatch, KernelTemplate, Layout};
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
use gdse_tensor::{arena, Activation, InEdges, Matrix, ParamStore};

/// One model's resident rows on a [`KernelTemplate`]: every row of every
/// layer that no design point changes, with what the next layer reads of
/// it. Built by [`PredictionModel::template`] and read by each
/// [`PredictionModel::infer`] of the same model on a batch of that
/// kernel template, which `infer` checks; a template of another model gives
/// wrong predictions, so `gnn_dse::Template` keeps each model template with
/// the model that built it.
#[derive(Debug)]
pub struct ModelTemplate {
    /// The [`KernelTemplate`] it was built on.
    kernel: u64,
    /// One per convolution.
    layers: Vec<LayerRows>,
    /// The readout's inputs on the resident rows: the attention pool's
    /// score and value MLPs on the last layout, or M2's node MLP on layout
    /// 0; empty for the other readouts.
    readout: Vec<Matrix>,
}

/// A convolution's resident rows.
#[derive(Debug)]
struct LayerRows {
    /// The projections of its resident input rows, as [`Conv::project`]
    /// returns them.
    proj: Vec<Matrix>,
    /// The TransformerConv edge projection, one row per edge of the kernel.
    edges: Option<Matrix>,
    /// Its resident output rows.
    out: Matrix,
    /// The resident rows of the JKN running max through it (empty without
    /// JKN).
    jk: Matrix,
}

impl PredictionModel {
    /// This model's resident rows on `kernel`, for every
    /// [`infer`](Self::infer) of this model on the kernel's points.
    ///
    /// # Panics
    ///
    /// Panics if the model has more convolutions than `kernel` was lowered
    /// for.
    pub fn template(&self, kernel: &KernelTemplate) -> ModelTemplate {
        let store = self.store();
        let (layers, readout) = match &self.body {
            Body::PragmaMlp(_) => (Vec::new(), Vec::new()),
            Body::ContextMlp { node_mlp } => {
                (Vec::new(), vec![relu(node_mlp.infer(store, &kernel.x))])
            }
            Body::Gnn(enc) => enc.template(store, kernel),
        };
        ModelTemplate { kernel: kernel.id, layers, readout }
    }

    /// Tape-free forward pass over `batch`, reading this model's `template`
    /// of the batch's kernel: one `[B, 1]` prediction per head, in head
    /// order.
    ///
    /// Bit-identical to [`forward`](Self::forward) on a
    /// [`GraphBatch`](crate::GraphBatch) of the same points (see the module
    /// docs), and books `gnn.forwards` / `gnn.forward_us` the same way.
    ///
    /// # Panics
    ///
    /// Panics if `template` was built on another [`KernelTemplate`] than
    /// the batch's, or by a model of other convolutions.
    pub fn infer(&self, template: &ModelTemplate, batch: &KernelBatch) -> Vec<Matrix> {
        assert_eq!(
            template.kernel, batch.template.id,
            "a model template of another kernel template"
        );
        let started = std::time::Instant::now();
        let store = self.store();
        let graph_emb = match &self.body {
            Body::PragmaMlp(trunk) => relu(trunk.infer(store, &batch.pragma_enc)),
            Body::ContextMlp { node_mlp } => {
                let h = relu(node_mlp.infer(store, &batch.x));
                let pooled = sum_pool(batch, batch.layout(0), Rows::new(&template.readout[0], &h));
                arena::recycle(h);
                pooled
            }
            Body::Gnn(enc) => enc.infer(store, template, batch),
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

/// A copy of `m` in a buffer from the arena, which every buffer of a call
/// comes from and goes back to: a thread that serves calls one after
/// another then finds a buffer for each.
fn arena_copy(m: &Matrix) -> Matrix {
    let mut copy = arena::zeros(m.rows(), m.cols());
    copy.as_mut_slice().copy_from_slice(m.as_slice());
    copy
}

/// A matrix in some [`Layout`], in its two parts: row `r` is the
/// template's `resident` row `r` below the layout's resident count, and
/// the call's `own` row `r - resident` from there.
#[derive(Clone, Copy)]
struct Rows<'a> {
    resident: &'a Matrix,
    own: &'a Matrix,
}

impl<'a> Rows<'a> {
    fn new(resident: &'a Matrix, own: &'a Matrix) -> Self {
        Rows { resident, own }
    }

    fn row(&self, r: u32) -> &'a [f32] {
        let (r, resident) = (r as usize, self.resident.rows());
        if r < resident {
            self.resident.row(r)
        } else {
            self.own.row(r - resident)
        }
    }
}

/// Sum of each graph's node rows, in node order: `h` in `layout` to `[B, D]`.
fn sum_pool(batch: &KernelBatch, layout: &Layout, h: Rows) -> Matrix {
    let mut out = arena::zeros(batch.num_graphs, h.own.cols());
    for b in 0..batch.num_graphs {
        let o = out.row_mut(b);
        for &r in layout.rows_at(b) {
            for (acc, x) in o.iter_mut().zip(h.row(r)) {
                *acc += x;
            }
        }
    }
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

/// A block of a matrix's own rows in some layout: node `nodes[r]` of
/// design point `point` is own row `first + r`.
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

/// The blocks of a matrix's own rows in `layout`: the rows first needed at
/// each point. A row reads its inputs at the point that first needs it;
/// every point in its group has the same inputs (see
/// [`Layouts`](crate::input::Layouts)).
fn blocks(layout: &Layout) -> impl Iterator<Item = Block<'_>> {
    let resident = layout.resident();
    (0..layout.points()).map(move |point| {
        let (first, nodes) = layout.first_needed(point);
        Block { nodes, first: first - resident, point }
    })
}

/// The own rows `own` of a matrix in layout `from` whose resident rows are
/// `resident`, copied into the own rows of the later layout `to`, which
/// refines it: a row of `from` is copied into each of its groups in `to`.
fn relayout(own: Matrix, resident: &Matrix, from: &Layout, to: &Layout) -> Matrix {
    // Past the last layout, both layers read the same one.
    if std::ptr::eq(from, to) {
        return own;
    }
    let rows = Rows::new(resident, &own);
    let mut out = arena::zeros(to.num_rows() - to.resident(), own.cols());
    for block in blocks(to) {
        for (r, &i) in block.nodes.iter().enumerate() {
            let row = from.row(i as usize, block.point) as u32;
            out.row_mut(block.first + r).copy_from_slice(rows.row(row));
        }
    }
    arena::recycle(own);
    out
}

/// The tape's `max_stack` of the JKN running max, `best` (own rows in
/// layout `from`, resident rows `resident`), and a layer's output `next`
/// (own rows in layout `to`): a later layer wins only where it is strictly
/// greater.
fn jk_max(best: Matrix, resident: &Matrix, from: &Layout, to: &Layout, next: &Matrix) -> Matrix {
    let mut m = relayout(best, resident, from, to);
    for (best, &c) in m.as_mut_slice().iter_mut().zip(next.as_slice()) {
        if c > *best {
            *best = c;
        }
    }
    m
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
    fn check_depth(&self, depth: usize) {
        let convs = self.convs.len();
        assert!(
            convs <= depth,
            "a model of {convs} convolutions reads a batch lowered for {depth}"
        );
    }

    /// The resident rows of every layer on `kernel`: the layers
    /// [`infer`](Self::infer) runs, over the template's layouts, whose rows
    /// are all resident, with nothing resident to read. Returns each
    /// layer's rows and the readout's (see [`ModelTemplate`]).
    fn template(
        &self,
        store: &ParamStore,
        kernel: &KernelTemplate,
    ) -> (Vec<LayerRows>, Vec<Matrix>) {
        self.check_depth(kernel.depth);
        let none = Matrix::zeros(0, 0);
        let jkn = self.use_jkn && self.convs.len() > 1;
        let mut layers: Vec<LayerRows> = Vec::with_capacity(self.convs.len());
        for (l, conv) in self.convs.iter().enumerate() {
            let (input, output) = (kernel.layout(l), kernel.layout(l + 1));
            let x = layers.last().map_or(&kernel.x, |prev| &prev.out);
            let edges = conv.edge_projection(store, &kernel.edge_attr);
            let proj = conv.project(store, l, x);
            let p: Vec<Rows> = proj.iter().map(|m| Rows::new(&none, m)).collect();
            let inputs = (Rows::new(&none, x), &p[..], edges.as_ref());
            let out = conv.aggregate(store, &kernel.in_edges, input, output, inputs);
            let jk = match layers.last() {
                Some(prev) if jkn => jk_max(arena_copy(&prev.jk), &none, input, output, &out),
                None if jkn => arena_copy(&out),
                _ => Matrix::zeros(0, 0),
            };
            layers.push(LayerRows { proj, edges, out, jk });
        }
        let last = layers.last().expect("an encoder has at least one layer");
        let node_embs = if jkn { &last.jk } else { &last.out };
        let readout = match &self.readout {
            Readout::Sum => Vec::new(),
            Readout::Attention(pool) => [&pool.score_mlp, &pool.value_mlp]
                .map(|mlp| mlp.infer(store, node_embs))
                .into(),
        };
        let rows: usize = layers.iter().map(|layer| layer.out.rows()).sum();
        gdse_obs::metrics::counter_inc("gnn.templates");
        gdse_obs::metrics::counter_add("gnn.template_rows", rows as u64);
        (layers, readout)
    }

    /// Graph embeddings `[B, D]`.
    fn infer(&self, store: &ParamStore, template: &ModelTemplate, batch: &KernelBatch) -> Matrix {
        let kernel = batch.template;
        self.check_depth(kernel.depth);
        let convs = self.convs.len();
        assert_eq!(template.layers.len(), convs, "a template of a model of other convolutions");
        let own = |l: usize| batch.layout(l).num_rows() - batch.layout(l).resident();
        let rows: usize = (1..=convs).map(own).sum();
        gdse_obs::metrics::counter_add("gnn.infer_rows", rows as u64);
        let unshared = convs * batch.num_graphs * kernel.num_nodes();
        gdse_obs::metrics::counter_add("gnn.infer_rows_unshared", unshared as u64);
        let jkn = self.use_jkn && convs > 1;
        let mut h: Option<Matrix> = None;
        let mut jk: Option<Matrix> = None;
        for (l, (conv, resident)) in self.convs.iter().zip(&template.layers).enumerate() {
            let (input, output) = (batch.layout(l), batch.layout(l + 1));
            let before = l.checked_sub(1).map(|p| &template.layers[p]);
            let x = h.as_ref().unwrap_or(&batch.x);
            let proj = conv.project(store, l, x);
            let p: Vec<Rows> =
                resident.proj.iter().zip(&proj).map(|(r, o)| Rows::new(r, o)).collect();
            let x = Rows::new(before.map_or(&kernel.x, |b| &b.out), x);
            let inputs = (x, &p[..], resident.edges.as_ref());
            let next = conv.aggregate(store, &kernel.in_edges, input, output, inputs);
            for m in proj {
                arena::recycle(m);
            }
            if jkn {
                jk = Some(match (jk.take(), before) {
                    (Some(best), Some(b)) => jk_max(best, &b.jk, input, output, &next),
                    _ => arena_copy(&next),
                });
            }
            if let Some(prev) = h.replace(next) {
                arena::recycle(prev);
            }
        }
        let h = h.expect("an encoder has at least one layer");
        let last = template.layers.last().expect("an encoder has at least one layer");
        let (node_embs, resident) = match jk {
            Some(m) => {
                arena::recycle(h);
                (m, &last.jk)
            }
            None => (h, &last.out),
        };
        let layout = batch.layout(convs);
        match &self.readout {
            Readout::Sum => {
                let pooled = sum_pool(batch, layout, Rows::new(resident, &node_embs));
                arena::recycle(node_embs);
                pooled
            }
            Readout::Attention(pool) => {
                pool.infer(store, batch, layout, node_embs, &template.readout)
            }
        }
    }
}

impl AttentionPool {
    /// Per-graph softmax of the score MLP over the graph's nodes, weighting
    /// the value MLP's rows; both MLPs run once per own row of `layout`,
    /// and the template's `resident` rows hold their resident rows.
    fn infer(
        &self,
        store: &ParamStore,
        batch: &KernelBatch,
        layout: &Layout,
        node_embs: Matrix,
        resident: &[Matrix],
    ) -> Matrix {
        let scores = self.score_mlp.infer(store, &node_embs);
        let values = self.value_mlp.infer(store, &node_embs);
        arena::recycle(node_embs);
        let (score, value) = (Rows::new(&resident[0], &scores), Rows::new(&resident[1], &values));
        let mut out = arena::zeros(batch.num_graphs, values.cols());
        let mut att = vec![0.0f32; layout.rows_at(0).len()];
        for b in 0..batch.num_graphs {
            let rows = layout.rows_at(b);
            for (a, &r) in att.iter_mut().zip(rows) {
                *a = score.row(r)[0];
            }
            softmax_in_place(&mut att);
            let o = out.row_mut(b);
            for (&a, &r) in att.iter().zip(rows) {
                for (acc, v) in o.iter_mut().zip(value.row(r)) {
                    *acc += v * a;
                }
            }
        }
        arena::recycle(scores);
        arena::recycle(values);
        out
    }
}

/// What a convolution reads: its input rows, their projections, and the
/// edge projection of a TransformerConv.
type Inputs<'a, 'b> = (Rows<'a>, &'b [Rows<'a>], Option<&'a Matrix>);

impl Conv {
    /// The TransformerConv edge projection of the kernel's edge features
    /// `edge_attr`: the same for every point.
    fn edge_projection(&self, store: &ParamStore, edge_attr: &Matrix) -> Option<Matrix> {
        match self {
            Conv::Transformer(c) => Some(gemm(edge_attr, store.value(c.w_edge))),
            Conv::Gat(_) | Conv::Gcn(_) => None,
        }
    }

    /// The per-row projections of layer `l`'s input rows `x` that the
    /// aggregation reads: a TransformerConv's query, key, value and root, a
    /// GAT's transform and its two attention scores; none for a GCN, which
    /// aggregates its input rows.
    fn project(&self, store: &ParamStore, l: usize, x: &Matrix) -> Vec<Matrix> {
        match self {
            Conv::Transformer(c) => [c.w_query, c.w_key, c.w_value, c.w_root]
                .map(|w| project(l, x, store.value(w)))
                .into(),
            Conv::Gat(c) => {
                let h = project(l, x, store.value(c.w));
                let score_dst = gemm(&h, store.value(c.a_dst));
                let score_src = gemm(&h, store.value(c.a_src));
                vec![h, score_dst, score_src]
            }
            Conv::Gcn(_) => Vec::new(),
        }
    }

    /// The layer, ELU and LayerNorm on the own rows of `output`, reading
    /// its inputs in layout `input`, over the kernel's `in_edges`.
    fn aggregate(
        &self,
        store: &ParamStore,
        in_edges: &InEdges,
        input: &Layout,
        output: &Layout,
        (x, p, edges): Inputs,
    ) -> Matrix {
        match self {
            Conv::Transformer(c) => {
                let e = edges.expect("a TransformerConv has an edge projection");
                c.aggregate(store, in_edges, input, output, [p[0], p[1], p[2], p[3]], e)
            }
            Conv::Gat(c) => c.aggregate(store, in_edges, input, output, [p[0], p[1], p[2]]),
            Conv::Gcn(c) => c.aggregate(store, in_edges, input, output, x),
        }
    }
}

impl TransformerConv {
    /// Attention over each node's incoming edges, from the projections
    /// `[q, k, v, root]` in layout `input` and the edge projection `e` (one
    /// row per edge), then the gated residual.
    fn aggregate(
        &self,
        store: &ParamStore,
        in_edges: &InEdges,
        input: &Layout,
        output: &Layout,
        [q, k, v, root]: [Rows; 4],
        e: &Matrix,
    ) -> Matrix {
        let d = self.out_dim;
        let w_gate = store.value(self.w_gate).as_slice();
        let bias = store.value(self.b).row(0);
        let scale = 1.0 / (d as f32).sqrt();

        let (edge, src) = (in_edges.edges(), in_edges.all_sources());
        let mut aggr = arena::zeros(output.num_rows() - output.resident(), d);
        let mut out = arena::zeros(aggr.rows(), d);
        let mut scores = vec![0.0f32; edge.len()];
        let mut key = vec![0.0f32; d];
        for block in blocks(output) {
            // The input row of every node at the block's point.
            let at = input.rows_at(block.point);
            // Attention logits of the block's edges: `q[dst] · (k[src] + e)`.
            for &i in block.nodes {
                let i = i as usize;
                let qi = q.row(at[i]);
                for s in in_edges.entries(i) {
                    let ks = k.row(at[src[s]]);
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
                    let vs = v.row(at[src[s]]);
                    for ((o, vv), ev) in row.iter_mut().zip(vs).zip(e.row(edge[s])) {
                        *o += (vv + ev) * a;
                    }
                }
            }
            // Gated residual. The logit is the tape's
            // `[aggr | root | aggr - root] · W_gate`: a GEMM sum from +0.0 in
            // increasing-k order.
            for (r, &i) in block.nodes.iter().enumerate() {
                let (a, rt) = (aggr.row(block.first + r), root.row(at[i as usize]));
                let beta = stable_sigmoid(gate_logit(a, rt, w_gate));
                gated_row(out.row_mut(block.first + r), a, rt, beta, bias);
            }
            activate(&mut out, block.rows());
        }
        arena::recycle(aggr);
        out
    }
}

impl GatConv {
    /// Each node attends to its incoming edges, then to itself (the tape
    /// appends self-loops after all edges), from the projections
    /// `[h, score_dst, score_src]` in layout `input`.
    fn aggregate(
        &self,
        store: &ParamStore,
        in_edges: &InEdges,
        input: &Layout,
        output: &Layout,
        [h, score_dst, score_src]: [Rows; 3],
    ) -> Matrix {
        let bias = store.value(self.b).row(0);
        let mut out = arena::zeros(output.num_rows() - output.resident(), bias.len());
        let mut alpha = Vec::new();
        for block in blocks(output) {
            // The input row of every node at the block's point.
            let at = input.rows_at(block.point);
            for (r, &i) in block.nodes.iter().enumerate() {
                let i = i as usize;
                let srcs = in_edges.sources(i);
                let sd = score_dst.row(at[i])[0];
                alpha.clear();
                for &s in srcs.iter().chain(std::iter::once(&i)) {
                    alpha.push(leaky_relu(sd + score_src.row(at[s])[0], LEAKY_SLOPE));
                }
                softmax_in_place(&mut alpha);
                let row = out.row_mut(block.first + r);
                for (&s, &a) in srcs.iter().chain(std::iter::once(&i)).zip(&alpha) {
                    for (o, hv) in row.iter_mut().zip(h.row(at[s])) {
                        *o += hv * a;
                    }
                }
                for (o, c) in row.iter_mut().zip(bias) {
                    *o += c;
                }
            }
            activate(&mut out, block.rows());
        }
        out
    }
}

impl GcnConv {
    /// Symmetric-normalized aggregation of the input rows `x` (layout
    /// `input`) over incoming edges then the self-loop, then the linear
    /// transform.
    fn aggregate(
        &self,
        store: &ParamStore,
        in_edges: &InEdges,
        input: &Layout,
        output: &Layout,
        x: Rows,
    ) -> Matrix {
        // In-degree plus the self-loop (small integers: exact in f32).
        let deg: Vec<f32> = (0..in_edges.num_nodes())
            .map(|i| (in_edges.sources(i).len() + 1) as f32)
            .collect();
        let mut agg = arena::zeros(output.num_rows() - output.resident(), x.own.cols());
        for block in blocks(output) {
            // The input row of every node at the block's point.
            let at = input.rows_at(block.point);
            for (r, &i) in block.nodes.iter().enumerate() {
                let i = i as usize;
                let srcs = in_edges.sources(i);
                let row = agg.row_mut(block.first + r);
                for &s in srcs.iter().chain(std::iter::once(&i)) {
                    let coeff = 1.0 / (deg[s] * deg[i]).sqrt();
                    for (o, xv) in row.iter_mut().zip(x.row(at[s])) {
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
