//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] records an eager forward computation over [`Matrix`] values.
//! Every operation immediately computes its result and pushes a tape node;
//! [`Graph::backward`] then walks the tape in reverse, accumulating gradients
//! into a [`GradStore`] for the parameters that participated.
//!
//! Backward does only the work that reaches a parameter. Each node records
//! at push whether a parameter lies upstream of it, and an op computes an
//! input's adjoint only for such inputs: constant inputs (the node and edge
//! features), quantized results and everything computed from them alone
//! get none. Weight gradients come from [`gemm::gemm_tn`], which reads the
//! activations in place instead of transposing them, or from the
//! [`Nonzeros`] of a one-hot input.
//!
//! The op set is exactly what graph neural networks over sparse edge lists
//! need: dense matmul and elementwise math, plus `gather`/`scatter`,
//! segment-softmax (per-destination attention normalization), row-dot
//! (per-edge attention scores), column-broadcast multiply, concatenation and
//! elementwise max over a set of tensors (Jumping Knowledge). TransformerConv
//! records two fused ops instead of chains of those: its attention
//! aggregation and its gated residual.

use crate::arena;
use crate::fused;
use crate::gemm::{self, Activation, Nonzeros};
use crate::matrix::Matrix;
use crate::params::{GradStore, ParamId, ParamStore};
use crate::quant::{self, QuantParamSet};
use crate::scalar::{self, stable_sigmoid};
use std::sync::Arc;

/// Handle to a value recorded on a [`Graph`] tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

#[derive(Debug)]
enum Backward {
    /// Constant input; gradient is discarded. Keeps its nonzeros when fewer
    /// than a quarter of its entries are nonzero (the one-hot features).
    Leaf(Option<Nonzeros>),
    /// Leaf tied to a trainable parameter; gradient is routed to the store.
    Param(ParamId),
    Matmul { a: NodeId, b: NodeId },
    /// Fused `act(a * w + bias)`; gradients mirror the unfused
    /// matmul / add_bias / activation chain exactly.
    Linear { a: NodeId, w: NodeId, bias: NodeId, act: Activation },
    /// Result of the int8 serving kernel; forward-only, no gradient.
    Quantized,
    Add { a: NodeId, b: NodeId },
    Sub { a: NodeId, b: NodeId },
    Mul { a: NodeId, b: NodeId },
    /// `a[N,D] * col[N,1]`, broadcasting the column across D.
    MulColBroadcast { a: NodeId, col: NodeId },
    /// `a[N,F] + bias[1,F]`, broadcasting the bias across rows.
    AddBias { a: NodeId, bias: NodeId },
    Scale { a: NodeId, k: f32 },
    Relu { a: NodeId },
    LeakyRelu { a: NodeId, slope: f32 },
    Elu { a: NodeId, alpha: f32 },
    Sigmoid { a: NodeId },
    Tanh { a: NodeId },
    /// `out[r] = a[idx[r]]`.
    GatherRows { a: NodeId, idx: Vec<usize> },
    /// `out[idx[r]] += a[r]`, output has `rows` rows.
    ScatterAddRows { a: NodeId, idx: Vec<usize> },
    /// Column-wise softmax within row segments.
    SegmentSoftmax { a: NodeId, seg: Vec<usize> },
    /// `out[r,0] = dot(a.row(r), b.row(r))`.
    RowDot { a: NodeId, b: NodeId },
    ConcatCols { parts: Vec<NodeId> },
    /// Elementwise max across same-shaped tensors; `argmax` saved from forward.
    MaxStack { parts: Vec<NodeId>, argmax: Vec<u32> },
    /// Fused attention aggregation over an edge list; `alpha` is each
    /// edge's attention weight, saved from the forward.
    AttentionAggregate {
        qkve: [NodeId; 4],
        src: Vec<usize>,
        dst: Vec<usize>,
        scale: f32,
        alpha: Vec<f32>,
    },
    /// Fused gated residual; `beta` is each row's gate, saved from the
    /// forward.
    GatedResidual { aggr: NodeId, root: NodeId, w: NodeId, bias: NodeId, beta: Vec<f32> },
    /// Sum over rows: `[N,D] -> [1,D]`.
    SumRows { a: NodeId },
    /// Mean over rows: `[N,D] -> [1,D]`.
    MeanRows { a: NodeId },
    /// Row-wise layer normalization; saved stats from the forward pass.
    LayerNorm { a: NodeId, inv_std: Vec<f32> },
    /// Scalar mean-squared-error against a constant target.
    MseLoss { pred: NodeId, target: Matrix },
    /// Scalar binary-cross-entropy on logits against a constant target.
    BceLogitsLoss { logits: NodeId, target: Matrix },
}

impl Backward {
    /// Whether any tape input of this op satisfies `f`.
    fn any_input(&self, f: impl Fn(NodeId) -> bool) -> bool {
        match self {
            Backward::Leaf(_) | Backward::Param(_) | Backward::Quantized => false,
            Backward::Matmul { a, b }
            | Backward::Add { a, b }
            | Backward::Sub { a, b }
            | Backward::Mul { a, b }
            | Backward::RowDot { a, b }
            | Backward::MulColBroadcast { a, col: b }
            | Backward::AddBias { a, bias: b } => f(*a) || f(*b),
            Backward::Linear { a, w, bias, .. } => f(*a) || f(*w) || f(*bias),
            Backward::GatedResidual { aggr, root, w, bias, .. } => {
                f(*aggr) || f(*root) || f(*w) || f(*bias)
            }
            Backward::AttentionAggregate { qkve, .. } => qkve.iter().any(|&p| f(p)),
            Backward::Scale { a, .. }
            | Backward::Relu { a }
            | Backward::LeakyRelu { a, .. }
            | Backward::Elu { a, .. }
            | Backward::Sigmoid { a }
            | Backward::Tanh { a }
            | Backward::GatherRows { a, .. }
            | Backward::ScatterAddRows { a, .. }
            | Backward::SegmentSoftmax { a, .. }
            | Backward::SumRows { a }
            | Backward::MeanRows { a }
            | Backward::LayerNorm { a, .. }
            | Backward::MseLoss { pred: a, .. }
            | Backward::BceLogitsLoss { logits: a, .. } => f(*a),
            Backward::ConcatCols { parts } | Backward::MaxStack { parts, .. } => {
                parts.iter().any(|&p| f(p))
            }
        }
    }
}

#[derive(Debug)]
struct Node {
    value: Matrix,
    back: Backward,
    /// Whether a parameter lies upstream: only such nodes get an adjoint.
    needs_grad: bool,
}

/// A dynamically built computation graph (tape).
///
/// # Examples
///
/// Differentiate `loss = mse(x * w, y)` with respect to `w`:
///
/// ```
/// use gdse_tensor::{Graph, Init, Matrix, ParamStore};
///
/// let mut store = ParamStore::new(0);
/// let w = store.add("w", 2, 1, Init::XavierUniform);
///
/// let mut g = Graph::new();
/// let x = g.input(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
/// let wv = g.param(&store, w);
/// let pred = g.matmul(x, wv);
/// let loss = g.mse_loss(pred, Matrix::col_vector(&[1.0, 2.0]));
///
/// let mut grads = store.zero_grads();
/// g.backward(loss, &mut grads);
/// assert_eq!(grads.grad(w).shape(), (2, 1));
/// ```
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    quant: Option<Arc<QuantParamSet>>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::new(), quant: None }
    }

    /// Creates an empty tape with room for `cap` nodes.
    pub fn with_capacity(cap: usize) -> Self {
        Self { nodes: Vec::with_capacity(cap), quant: None }
    }

    /// Creates a tape that serves [`matmul`](Self::matmul) /
    /// [`linear`](Self::linear) calls whose right-hand side is a parameter in
    /// `quant` through the int8 kernel.
    ///
    /// Quantized results record no gradient function, so a tape built this
    /// way is **forward-only**: calling [`backward`](Self::backward) will
    /// silently stop gradient flow at every quantized op.
    pub fn with_quant(quant: Arc<QuantParamSet>) -> Self {
        Self { nodes: Vec::new(), quant: Some(quant) }
    }

    /// Whether this tape dispatches quantized parameters to the int8 kernel.
    pub fn is_quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// The quantized weights of parameter `rhs`, when this tape carries a
    /// [`QuantParamSet`] that calibrated it.
    fn quant_weights(&self, rhs: NodeId) -> Option<(Arc<QuantParamSet>, ParamId)> {
        let qs = self.quant.as_ref()?;
        if let Backward::Param(pid) = self.nodes[rhs.0].back {
            if qs.get(pid).is_some() {
                return Some((Arc::clone(qs), pid));
            }
        }
        None
    }

    fn push(&mut self, value: Matrix, back: Backward) -> NodeId {
        let needs_grad = matches!(back, Backward::Param(_))
            || back.any_input(|id| self.nodes[id.0].needs_grad);
        self.nodes.push(Node { value, back, needs_grad });
        NodeId(self.nodes.len() - 1)
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// Number of nodes recorded on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a constant input (no gradient).
    ///
    /// An input with fewer than a quarter nonzero (the one-hot node and
    /// edge features) keeps its [`Nonzeros`], found once here: its products
    /// and their weight gradients visit only those.
    pub fn input(&mut self, value: Matrix) -> NodeId {
        let nonzeros = Nonzeros::of(&value);
        self.push(value, Backward::Leaf(nonzeros))
    }

    /// The nonzeros of `id` when it is a mostly-zero input.
    fn nonzeros(&self, id: NodeId) -> Option<&Nonzeros> {
        match &self.nodes[id.0].back {
            Backward::Leaf(nonzeros) => nonzeros.as_ref(),
            _ => None,
        }
    }

    /// The weight gradient `aᵀ · g` of a product `a · w`.
    fn weight_grad(&self, a: NodeId, g: &Matrix) -> Matrix {
        match self.nonzeros(a) {
            Some(nz) => nz.tn(g),
            None => gemm::gemm_tn(&self.nodes[a.0].value, g),
        }
    }

    /// Leafs a parameter's current value into the graph so gradients reach it.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        self.push(store.value(id).clone(), Backward::Param(id))
    }

    /// Matrix product.
    ///
    /// A mostly-zero input on the left (see [`input`](Self::input)) sums
    /// over its nonzeros as the zero-skipping [`Matrix::matmul_reference`]
    /// does, which gives the GEMM's bits for finite inputs.
    ///
    /// On a tape built with [`with_quant`](Self::with_quant), a product whose
    /// right-hand side is a calibrated parameter runs through the int8 kernel
    /// instead (forward-only).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let Some((qs, pid)) = self.quant_weights(b) {
            let qw = qs.get(pid).expect("quant_weights checked presence");
            let v = quant::linear(self.value(a), qw, None, Activation::None);
            return self.push(v, Backward::Quantized);
        }
        let bv = self.value(b);
        let v = match self.nonzeros(a) {
            Some(nz) => nz.matmul(bv),
            None => self.value(a).matmul(bv),
        };
        self.push(v, Backward::Matmul { a, b })
    }

    /// Fused linear layer `act(a * w + bias)` — one kernel call instead of
    /// the `matmul` / `add_bias` / activation chain, with no intermediate
    /// tensors materialized. Values and gradients are bit-identical to the
    /// unfused chain.
    ///
    /// On a tape built with [`with_quant`](Self::with_quant), a calibrated
    /// `w` routes the whole fused op through the int8 kernel (forward-only).
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != w.rows()` or `bias` is not `[1, w.cols()]`.
    pub fn linear(&mut self, a: NodeId, w: NodeId, bias: NodeId, act: Activation) -> NodeId {
        let bv = self.value(bias);
        assert_eq!(
            bv.shape(),
            (1, self.value(w).cols()),
            "linear: bias must be [1, F]"
        );
        if let Some((qs, pid)) = self.quant_weights(w) {
            let qw = qs.get(pid).expect("quant_weights checked presence");
            let v = quant::linear(
                self.value(a),
                qw,
                Some(self.value(bias).row(0)),
                act,
            );
            return self.push(v, Backward::Quantized);
        }
        let v = gemm::gemm_bias_act(
            self.value(a),
            self.value(w),
            Some(self.value(bias).row(0)),
            act,
        );
        self.push(v, Backward::Linear { a, w, bias, act })
    }

    /// Elementwise sum of two same-shape nodes.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).zip_map(self.value(b), |x, y| x + y);
        self.push(v, Backward::Add { a, b })
    }

    /// Elementwise difference `a - b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).zip_map(self.value(b), |x, y| x - y);
        self.push(v, Backward::Sub { a, b })
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).zip_map(self.value(b), |x, y| x * y);
        self.push(v, Backward::Mul { a, b })
    }

    /// Broadcasted product of `a: [N, D]` with a column `col: [N, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is not `[a.rows(), 1]`.
    pub fn mul_col_broadcast(&mut self, a: NodeId, col: NodeId) -> NodeId {
        let (av, cv) = (self.value(a), self.value(col));
        assert_eq!(cv.shape(), (av.rows(), 1), "mul_col_broadcast: col must be [N,1]");
        let mut v = av.clone();
        for r in 0..v.rows() {
            let k = cv.get(r, 0);
            for x in v.row_mut(r) {
                *x *= k;
            }
        }
        self.push(v, Backward::MulColBroadcast { a, col })
    }

    /// Adds a `[1, F]` bias row to every row of `a: [N, F]`.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `[1, a.cols()]`.
    pub fn add_bias(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let (av, bv) = (self.value(a), self.value(bias));
        assert_eq!(bv.shape(), (1, av.cols()), "add_bias: bias must be [1,F]");
        let mut v = av.clone();
        for r in 0..v.rows() {
            for (x, b) in v.row_mut(r).iter_mut().zip(bv.row(0)) {
                *x += b;
            }
        }
        self.push(v, Backward::AddBias { a, bias })
    }

    /// Multiplies every entry by the constant `k`.
    pub fn scale(&mut self, a: NodeId, k: f32) -> NodeId {
        let v = self.value(a).map(|x| x * k);
        self.push(v, Backward::Scale { a, k })
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(v, Backward::Relu { a })
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&mut self, a: NodeId, slope: f32) -> NodeId {
        let v = self.value(a).map(|x| scalar::leaky_relu(x, slope));
        self.push(v, Backward::LeakyRelu { a, slope })
    }

    /// Exponential linear unit.
    pub fn elu(&mut self, a: NodeId, alpha: f32) -> NodeId {
        let v = self.value(a).map(|x| scalar::elu(x, alpha));
        self.push(v, Backward::Elu { a, alpha })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(stable_sigmoid);
        self.push(v, Backward::Sigmoid { a })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(f32::tanh);
        self.push(v, Backward::Tanh { a })
    }

    /// Row-wise layer normalization: each row is shifted to zero mean and
    /// scaled to unit variance (`eps` keeps constant rows finite).
    ///
    /// Stabilizes deep message-passing stacks the same way LayerNorm does in
    /// Transformers.
    pub fn layer_norm(&mut self, a: NodeId, eps: f32) -> NodeId {
        let mut v = self.value(a).clone();
        let inv_std = (0..v.rows()).map(|r| scalar::layer_norm_row(v.row_mut(r), eps)).collect();
        self.push(v, Backward::LayerNorm { a, inv_std })
    }

    /// Gathers rows: `out[r] = a[idx[r]]`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&mut self, a: NodeId, idx: &[usize]) -> NodeId {
        let av = self.value(a);
        let mut v = Matrix::zeros(idx.len(), av.cols());
        for (r, &i) in idx.iter().enumerate() {
            assert!(i < av.rows(), "gather_rows: index {i} out of {} rows", av.rows());
            v.row_mut(r).copy_from_slice(av.row(i));
        }
        self.push(v, Backward::GatherRows { a, idx: idx.to_vec() })
    }

    /// Scatter-add of rows: `out[idx[r]] += a[r]`; output has `rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= rows` or `idx.len() != a.rows()`.
    pub fn scatter_add_rows(&mut self, a: NodeId, idx: &[usize], rows: usize) -> NodeId {
        let av = self.value(a);
        assert_eq!(idx.len(), av.rows(), "scatter_add_rows: one index per input row");
        let mut v = Matrix::zeros(rows, av.cols());
        for (r, &i) in idx.iter().enumerate() {
            assert!(i < rows, "scatter_add_rows: index {i} out of {rows} rows");
            for (o, x) in v.row_mut(i).iter_mut().zip(av.row(r)) {
                *o += x;
            }
        }
        self.push(v, Backward::ScatterAddRows { a, idx: idx.to_vec() })
    }

    /// Column-wise softmax within row segments.
    ///
    /// Rows sharing `seg[r]` form one softmax group per column. This is the
    /// attention normalization of GAT/TransformerConv when `seg` is the edge
    /// destination array, and a global softmax when all segments are equal.
    ///
    /// # Panics
    ///
    /// Panics if `seg.len() != a.rows()`.
    pub fn segment_softmax(&mut self, a: NodeId, seg: &[usize]) -> NodeId {
        let av = self.value(a);
        assert_eq!(seg.len(), av.rows(), "segment_softmax: one segment per row");
        let v = segment_softmax_forward(av, seg);
        self.push(v, Backward::SegmentSoftmax { a, seg: seg.to_vec() })
    }

    /// Per-row dot product: `out[r, 0] = dot(a.row(r), b.row(r))`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn row_dot(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (av, bv) = (self.value(a), self.value(b));
        assert_eq!(av.shape(), bv.shape(), "row_dot shape mismatch");
        let mut v = Matrix::zeros(av.rows(), 1);
        for r in 0..av.rows() {
            v.set(r, 0, av.row_dot(r, bv, r));
        }
        self.push(v, Backward::RowDot { a, b })
    }

    /// Fused attention aggregation (TransformerConv, eq. 8): for each node
    /// `i`, `Σ_s α_s (v[src_s] + e_s)` over its in-edges `s` (`dst_s == i`),
    /// where `α` is the softmax over those edges of
    /// `q[i] · (k[src_s] + e_s) * scale`. A node with no in-edge gets a zero
    /// row.
    ///
    /// One tape node in place of the chain gather → add → row-dot → scale
    /// → segment softmax → gather → add → broadcast multiply → scatter-add,
    /// bit-identical to it in values and adjoints (DESIGN.md, "Fused message
    /// passing"). It keeps only `α`, not the chain's `[E, D]` tensors.
    ///
    /// # Panics
    ///
    /// Panics unless `q`, `k` and `v` are `[N, D]`, `e` is `[E, D]`, `src`
    /// and `dst` hold `E` node indices each, and every index is below `N`.
    pub fn attention_aggregate(
        &mut self,
        [q, k, v, e]: [NodeId; 4],
        src: &[usize],
        dst: &[usize],
        scale: f32,
    ) -> NodeId {
        let values = [q, k, v, e].map(|id| self.value(id));
        let (n, d) = values[0].shape();
        assert!(
            values[1].shape() == (n, d) && values[2].shape() == (n, d),
            "attention_aggregate: q, k and v must share a shape"
        );
        assert_eq!(values[3].shape(), (src.len(), d), "attention_aggregate: e must be [E, D]");
        assert_eq!(src.len(), dst.len(), "attention_aggregate: one source per destination");
        assert!(
            src.iter().chain(dst).all(|&i| i < n),
            "attention_aggregate: edge endpoint out of {n} nodes"
        );
        let (out, alpha) = fused::attention_forward(values, src, dst, scale);
        let back = Backward::AttentionAggregate {
            qkve: [q, k, v, e],
            src: src.to_vec(),
            dst: dst.to_vec(),
            scale,
            alpha,
        };
        self.push(out, back)
    }

    /// Fused gated residual (TransformerConv): for each row,
    /// `β = sigmoid([aggr | root | aggr - root] · w)` and
    /// `root·β + aggr·(1 - β) + bias`.
    ///
    /// One tape node in place of the chain sub → concat → gate product →
    /// sigmoid → `1 - β` → two broadcast multiplies → add → bias,
    /// bit-identical to it in values and adjoints (DESIGN.md, "Fused message
    /// passing"). It keeps only `β`.
    ///
    /// # Panics
    ///
    /// Panics unless `aggr` and `root` are `[N, D]`, `w` is `[3D, 1]` and
    /// `bias` is `[1, D]`.
    pub fn gated_residual(&mut self, aggr: NodeId, root: NodeId, w: NodeId, bias: NodeId) -> NodeId {
        let (av, rv) = (self.value(aggr), self.value(root));
        let (wv, bv) = (self.value(w), self.value(bias));
        let d = av.cols();
        assert_eq!(av.shape(), rv.shape(), "gated_residual: aggr and root must share a shape");
        assert_eq!(wv.shape(), (3 * d, 1), "gated_residual: w must be [3D, 1]");
        assert_eq!(bv.shape(), (1, d), "gated_residual: bias must be [1, D]");
        let (out, beta) = fused::gate_forward(av, rv, wv.as_slice(), bv.row(0));
        self.push(out, Backward::GatedResidual { aggr, root, w, bias, beta })
    }

    /// Concatenates nodes along columns.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        let values: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Matrix::hcat(&values);
        self.push(v, Backward::ConcatCols { parts: parts.to_vec() })
    }

    /// Elementwise maximum across same-shaped nodes (Jumping Knowledge "max").
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or shapes differ.
    pub fn max_stack(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "max_stack requires at least one part");
        let shape = self.value(parts[0]).shape();
        for &p in parts {
            assert_eq!(self.value(p).shape(), shape, "max_stack shape mismatch");
        }
        let mut v = self.value(parts[0]).clone();
        let mut argmax = vec![0u32; v.len()];
        for (pi, &p) in parts.iter().enumerate().skip(1) {
            // A later part wins only where it is strictly greater.
            let winners = v.as_mut_slice().iter_mut().zip(&mut argmax);
            for ((m, am), &c) in winners.zip(self.value(p).as_slice()) {
                if c > *m {
                    *m = c;
                    *am = pi as u32;
                }
            }
        }
        self.push(v, Backward::MaxStack { parts: parts.to_vec(), argmax })
    }

    /// Sums over rows: `[N, D] -> [1, D]`.
    pub fn sum_rows(&mut self, a: NodeId) -> NodeId {
        let av = self.value(a);
        let mut v = Matrix::zeros(1, av.cols());
        for r in 0..av.rows() {
            for (o, x) in v.row_mut(0).iter_mut().zip(av.row(r)) {
                *o += x;
            }
        }
        self.push(v, Backward::SumRows { a })
    }

    /// Averages over rows: `[N, D] -> [1, D]`.
    ///
    /// # Panics
    ///
    /// Panics if `a` has no rows.
    pub fn mean_rows(&mut self, a: NodeId) -> NodeId {
        let av = self.value(a);
        assert!(av.rows() > 0, "mean_rows on empty matrix");
        let n = av.rows() as f32;
        let mut v = Matrix::zeros(1, av.cols());
        for r in 0..av.rows() {
            for (o, x) in v.row_mut(0).iter_mut().zip(av.row(r)) {
                *o += x / n;
            }
        }
        self.push(v, Backward::MeanRows { a })
    }

    /// Scalar mean-squared-error loss against a constant target.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mse_loss(&mut self, pred: NodeId, target: Matrix) -> NodeId {
        let pv = self.value(pred);
        assert_eq!(pv.shape(), target.shape(), "mse_loss shape mismatch");
        let n = pv.len() as f32;
        let loss: f32 = pv
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f32>()
            / n;
        self.push(Matrix::filled(1, 1, loss), Backward::MseLoss { pred, target })
    }

    /// Scalar binary-cross-entropy loss on logits against constant 0/1 targets.
    ///
    /// Uses the numerically stable formulation
    /// `max(z, 0) - z*y + ln(1 + exp(-|z|))`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn bce_logits_loss(&mut self, logits: NodeId, target: Matrix) -> NodeId {
        let zv = self.value(logits);
        assert_eq!(zv.shape(), target.shape(), "bce_logits_loss shape mismatch");
        let n = zv.len() as f32;
        let loss: f32 = zv
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(&z, &y)| z.max(0.0) - z * y + (-z.abs()).exp().ln_1p())
            .sum::<f32>()
            / n;
        self.push(Matrix::filled(1, 1, loss), Backward::BceLogitsLoss { logits, target })
    }

    /// Runs the backward pass from `root` (typically a `1 x 1` loss),
    /// accumulating parameter gradients into `grads`.
    ///
    /// Only adjoints that reach a parameter are computed (see the module
    /// docs); the gradients are bit-identical to computing all of them.
    ///
    /// Gradients of multiple `backward` calls accumulate, enabling
    /// mini-batching across separately built graphs.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not on this tape.
    pub fn backward(&self, root: NodeId, grads: &mut GradStore) {
        assert!(root.0 < self.nodes.len(), "backward root not on tape");
        let mut adj: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        let rv = &self.nodes[root.0].value;
        self.send(&mut adj, root, || Matrix::filled(rv.rows(), rv.cols(), 1.0));

        for i in (0..=root.0).rev() {
            let Some(g) = adj[i].take() else { continue };
            let adj = &mut adj;
            // The arm returns `g`, or the buffer it turned `g` into, unless
            // it passed it on as an adjoint; a spent one goes back to the
            // arena.
            let spent = match &self.nodes[i].back {
                Backward::Leaf(_) | Backward::Quantized => Some(g),
                Backward::Param(pid) => {
                    grads.accumulate(*pid, &g);
                    Some(g)
                }
                Backward::Linear { a, w, bias, act } => {
                    // Same float ops as the unfused chain: activation mask
                    // (derivable from the output: y > 0 iff pre-act > 0),
                    // then the two matmul adjoints and the bias column-sum.
                    let gz = match act {
                        Activation::Relu => {
                            let y = &self.nodes[i].value;
                            let gz = g.zip_map(y, |gy, yv| if yv > 0.0 { gy } else { 0.0 });
                            arena::recycle(g);
                            gz
                        }
                        Activation::None => g,
                    };
                    let wv = &self.nodes[w.0].value;
                    self.send(adj, *a, || times_transpose(&gz, wv));
                    self.send(adj, *w, || self.weight_grad(*a, &gz));
                    self.send(adj, *bias, || column_sums(&gz));
                    Some(gz)
                }
                Backward::Matmul { a, b } => {
                    let bv = &self.nodes[b.0].value;
                    self.send(adj, *a, || times_transpose(&g, bv));
                    self.send(adj, *b, || self.weight_grad(*a, &g));
                    Some(g)
                }
                Backward::Add { a, b } => {
                    self.send(adj, *a, || g.clone());
                    self.send(adj, *b, || g);
                    None
                }
                Backward::Sub { a, b } => {
                    self.send(adj, *a, || g.clone());
                    self.send(adj, *b, || {
                        let mut gn = g;
                        gn.scale_in_place(-1.0);
                        gn
                    });
                    None
                }
                Backward::Mul { a, b } => {
                    self.send(adj, *a, || g.zip_map(&self.nodes[b.0].value, |x, y| x * y));
                    self.send(adj, *b, || g.zip_map(&self.nodes[a.0].value, |x, y| x * y));
                    Some(g)
                }
                Backward::MulColBroadcast { a, col } => {
                    let av = &self.nodes[a.0].value;
                    let cv = &self.nodes[col.0].value;
                    self.send(adj, *a, || {
                        let mut ga = g.clone();
                        for r in 0..ga.rows() {
                            let k = cv.get(r, 0);
                            for x in ga.row_mut(r) {
                                *x *= k;
                            }
                        }
                        ga
                    });
                    self.send(adj, *col, || {
                        let mut gc = Matrix::zeros(av.rows(), 1);
                        for r in 0..av.rows() {
                            let s: f32 = g.row(r).iter().zip(av.row(r)).map(|(x, y)| x * y).sum();
                            gc.set(r, 0, s);
                        }
                        gc
                    });
                    Some(g)
                }
                Backward::AddBias { a, bias } => {
                    let gb = self.nodes[bias.0].needs_grad.then(|| column_sums(&g));
                    self.send(adj, *a, || g);
                    if let Some(gb) = gb {
                        self.send(adj, *bias, || gb);
                    }
                    None
                }
                Backward::Scale { a, k } => {
                    self.send(adj, *a, || {
                        let mut ga = g;
                        ga.scale_in_place(*k);
                        ga
                    });
                    None
                }
                Backward::Relu { a } => {
                    self.send(adj, *a, || {
                        g.zip_map(&self.nodes[a.0].value, |gy, x| if x > 0.0 { gy } else { 0.0 })
                    });
                    Some(g)
                }
                Backward::LeakyRelu { a, slope } => {
                    let s = *slope;
                    self.send(adj, *a, || {
                        g.zip_map(&self.nodes[a.0].value, |gy, x| if x > 0.0 { gy } else { s * gy })
                    });
                    Some(g)
                }
                Backward::Elu { a, alpha } => {
                    let al = *alpha;
                    // For x <= 0 the output is alpha*(e^x - 1), so dy/dx = y + alpha.
                    self.send(adj, *a, || {
                        g.zip_map(&self.nodes[i].value, |gy, y| if y > 0.0 { gy } else { gy * (y + al) })
                    });
                    Some(g)
                }
                Backward::Sigmoid { a } => {
                    self.send(adj, *a, || g.zip_map(&self.nodes[i].value, |gy, y| gy * y * (1.0 - y)));
                    Some(g)
                }
                Backward::Tanh { a } => {
                    self.send(adj, *a, || g.zip_map(&self.nodes[i].value, |gy, y| gy * (1.0 - y * y)));
                    Some(g)
                }
                Backward::GatherRows { a, idx } => {
                    self.send(adj, *a, || {
                        let av = &self.nodes[a.0].value;
                        let mut ga = Matrix::zeros(av.rows(), av.cols());
                        for (r, &srci) in idx.iter().enumerate() {
                            for (o, x) in ga.row_mut(srci).iter_mut().zip(g.row(r)) {
                                *o += x;
                            }
                        }
                        ga
                    });
                    Some(g)
                }
                Backward::ScatterAddRows { a, idx } => {
                    self.send(adj, *a, || {
                        let av = &self.nodes[a.0].value;
                        let mut ga = Matrix::zeros(av.rows(), av.cols());
                        for (r, &dsti) in idx.iter().enumerate() {
                            ga.row_mut(r).copy_from_slice(g.row(dsti));
                        }
                        ga
                    });
                    Some(g)
                }
                Backward::SegmentSoftmax { a, seg } => {
                    self.send(adj, *a, || segment_softmax_backward(&self.nodes[i].value, &g, seg));
                    Some(g)
                }
                Backward::RowDot { a, b } => {
                    // `0.0 + g[r] * other[r][c]`: the sum into a zeroed
                    // buffer turns a -0.0 product into +0.0.
                    let scaled = |other: &Matrix| {
                        let mut out = Matrix::zeros(other.rows(), other.cols());
                        for (r, &gr) in g.as_slice().iter().enumerate() {
                            for (o, &x) in out.row_mut(r).iter_mut().zip(other.row(r)) {
                                *o += gr * x;
                            }
                        }
                        out
                    };
                    self.send(adj, *a, || scaled(&self.nodes[b.0].value));
                    self.send(adj, *b, || scaled(&self.nodes[a.0].value));
                    Some(g)
                }
                Backward::ConcatCols { parts } => {
                    let mut offset = 0;
                    for &p in parts {
                        let pv = &self.nodes[p.0].value;
                        self.send(adj, p, || {
                            let mut gp = Matrix::zeros(pv.rows(), pv.cols());
                            for r in 0..pv.rows() {
                                gp.row_mut(r).copy_from_slice(&g.row(r)[offset..offset + pv.cols()]);
                            }
                            gp
                        });
                        offset += pv.cols();
                    }
                    Some(g)
                }
                Backward::MaxStack { parts, argmax } => {
                    // One walk over argmax routes each entry to its part.
                    let zeros = || arena::zeros(g.rows(), g.cols());
                    let mut gps: Vec<Option<Matrix>> =
                        parts.iter().map(|&p| self.nodes[p.0].needs_grad.then(zeros)).collect();
                    for (j, (&am, &gy)) in argmax.iter().zip(g.as_slice()).enumerate() {
                        if let Some(gp) = &mut gps[am as usize] {
                            gp.as_mut_slice()[j] = gy;
                        }
                    }
                    for (&p, gp) in parts.iter().zip(gps) {
                        if let Some(gp) = gp {
                            self.send(adj, p, || gp);
                        }
                    }
                    Some(g)
                }
                Backward::AttentionAggregate { qkve, src, dst, scale, alpha } => {
                    let need = qkve.map(|p| self.nodes[p.0].needs_grad);
                    let values = qkve.map(|p| &self.nodes[p.0].value);
                    let grads =
                        fused::attention_backward(&g, values, (src, dst), alpha, *scale, need);
                    for (&p, gp) in qkve.iter().zip(grads) {
                        if let Some(gp) = gp {
                            self.send(adj, p, || gp);
                        }
                    }
                    Some(g)
                }
                Backward::GatedResidual { aggr, root, w, bias, beta } => {
                    let need = [*aggr, *root, *w].map(|p| self.nodes[p.0].needs_grad);
                    let (av, rv) = (&self.nodes[aggr.0].value, &self.nodes[root.0].value);
                    let wv = self.nodes[w.0].value.as_slice();
                    let grads = fused::gate_backward(&g, av, rv, wv, beta, need);
                    for (&p, gp) in [aggr, root, w].into_iter().zip(grads) {
                        if let Some(gp) = gp {
                            self.send(adj, p, || gp);
                        }
                    }
                    self.send(adj, *bias, || column_sums(&g));
                    Some(g)
                }
                Backward::SumRows { a } => {
                    self.send(adj, *a, || {
                        let av = &self.nodes[a.0].value;
                        let mut ga = Matrix::zeros(av.rows(), av.cols());
                        for r in 0..av.rows() {
                            ga.row_mut(r).copy_from_slice(g.row(0));
                        }
                        ga
                    });
                    Some(g)
                }
                Backward::MeanRows { a } => {
                    self.send(adj, *a, || {
                        let av = &self.nodes[a.0].value;
                        let n = av.rows() as f32;
                        let mut ga = Matrix::zeros(av.rows(), av.cols());
                        for r in 0..av.rows() {
                            for (o, x) in ga.row_mut(r).iter_mut().zip(g.row(0)) {
                                *o = x / n;
                            }
                        }
                        ga
                    });
                    Some(g)
                }
                Backward::LayerNorm { a, inv_std } => {
                    // dL/dx = istd * (g - mean(g) - y * mean(g * y)) per row.
                    self.send(adj, *a, || {
                        let y = &self.nodes[i].value;
                        let d = y.cols() as f32;
                        let mut ga = Matrix::zeros(y.rows(), y.cols());
                        for (r, istd) in inv_std.iter().enumerate().take(y.rows()) {
                            let gr = g.row(r);
                            let yr = y.row(r);
                            let mean_g: f32 = gr.iter().sum::<f32>() / d;
                            let mean_gy: f32 =
                                gr.iter().zip(yr).map(|(gi, yi)| gi * yi).sum::<f32>() / d;
                            for (c, out) in ga.row_mut(r).iter_mut().enumerate() {
                                *out = istd * (gr[c] - mean_g - yr[c] * mean_gy);
                            }
                        }
                        ga
                    });
                    Some(g)
                }
                Backward::MseLoss { pred, target } => {
                    self.send(adj, *pred, || {
                        let pv = &self.nodes[pred.0].value;
                        let n = pv.len() as f32;
                        let gy = g.scalar();
                        pv.zip_map(target, |p, t| gy * 2.0 * (p - t) / n)
                    });
                    Some(g)
                }
                Backward::BceLogitsLoss { logits, target } => {
                    self.send(adj, *logits, || {
                        let zv = &self.nodes[logits.0].value;
                        let n = zv.len() as f32;
                        let gy = g.scalar();
                        zv.zip_map(target, |z, y| gy * (stable_sigmoid(z) - y) / n)
                    });
                    Some(g)
                }
            };
            if let Some(g) = spent {
                arena::recycle(g);
            }
        }
    }

    /// Adds `grad()` into `id`'s adjoint, computing it only when a
    /// parameter lies upstream of `id`.
    fn send(&self, adj: &mut [Option<Matrix>], id: NodeId, grad: impl FnOnce() -> Matrix) {
        if !self.nodes[id.0].needs_grad {
            return;
        }
        let g = grad();
        match &mut adj[id.0] {
            Some(existing) => {
                existing.add_assign(&g);
                arena::recycle(g);
            }
            slot @ None => *slot = Some(g),
        }
    }
}

/// `g · bᵀ`, the left adjoint of a product with `b`; the transposed copy
/// goes back to the arena.
fn times_transpose(g: &Matrix, b: &Matrix) -> Matrix {
    let bt = b.transpose();
    let out = g.matmul(&bt);
    arena::recycle(bt);
    out
}

/// `[1, F]` column sums of `g`, summed into a zeroed row in row order.
fn column_sums(g: &Matrix) -> Matrix {
    let mut sums = Matrix::zeros(1, g.cols());
    for r in 0..g.rows() {
        for (o, x) in sums.row_mut(0).iter_mut().zip(g.row(r)) {
            *o += x;
        }
    }
    sums
}

impl Drop for Graph {
    /// Retires every node buffer into the thread-local [`arena`] so the next
    /// forward pass on this thread reuses the allocations.
    fn drop(&mut self) {
        for node in self.nodes.drain(..) {
            arena::recycle(node.value);
        }
    }
}

fn segment_softmax_forward(a: &Matrix, seg: &[usize]) -> Matrix {
    let num_seg = seg.iter().copied().max().map_or(0, |m| m + 1);
    let cols = a.cols();
    // Per-segment, per-column max for numerical stability.
    let mut seg_max = Matrix::filled(num_seg, cols, f32::NEG_INFINITY);
    for (r, &s) in seg.iter().enumerate() {
        for c in 0..cols {
            let v = a.get(r, c);
            if v > seg_max.get(s, c) {
                seg_max.set(s, c, v);
            }
        }
    }
    let mut out = Matrix::zeros(a.rows(), cols);
    let mut seg_sum = Matrix::zeros(num_seg, cols);
    for (r, &s) in seg.iter().enumerate() {
        for c in 0..cols {
            let e = (a.get(r, c) - seg_max.get(s, c)).exp();
            out.set(r, c, e);
            seg_sum.add_at(s, c, e);
        }
    }
    for (r, &s) in seg.iter().enumerate() {
        for c in 0..cols {
            let denom = seg_sum.get(s, c);
            out.set(r, c, out.get(r, c) / denom);
        }
    }
    out
}

fn segment_softmax_backward(y: &Matrix, g: &Matrix, seg: &[usize]) -> Matrix {
    let num_seg = seg.iter().copied().max().map_or(0, |m| m + 1);
    let cols = y.cols();
    // dot[s][c] = sum_{r in s} y[r,c] * g[r,c]
    let mut dot = Matrix::zeros(num_seg, cols);
    for (r, &s) in seg.iter().enumerate() {
        for c in 0..cols {
            dot.add_at(s, c, y.get(r, c) * g.get(r, c));
        }
    }
    let mut ga = Matrix::zeros(y.rows(), cols);
    for (r, &s) in seg.iter().enumerate() {
        for c in 0..cols {
            ga.set(r, c, y.get(r, c) * (g.get(r, c) - dot.get(s, c)));
        }
    }
    ga
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Init;

    /// Finite-difference check of d loss / d param for a builder closure.
    fn check_grad(
        build: impl Fn(&mut Graph, &ParamStore, ParamId) -> NodeId,
        rows: usize,
        cols: usize,
        seed: u64,
    ) {
        let mut store = ParamStore::new(seed);
        let w = store.add("w", rows, cols, Init::Uniform(0.8));

        let mut g = Graph::new();
        let loss = build(&mut g, &store, w);
        let mut grads = store.zero_grads();
        g.backward(loss, &mut grads);

        let eps = 3e-3f32;
        for r in 0..rows {
            for c in 0..cols {
                let orig = store.value(w).get(r, c);
                store.value_mut(w).set(r, c, orig + eps);
                let mut gp = Graph::new();
                let lp = build(&mut gp, &store, w);
                let fp = gp.value(lp).scalar();

                store.value_mut(w).set(r, c, orig - eps);
                let mut gm = Graph::new();
                let lm = build(&mut gm, &store, w);
                let fm = gm.value(lm).scalar();
                store.value_mut(w).set(r, c, orig);

                let numeric = (fp - fm) / (2.0 * eps);
                let analytic = grads.grad(w).get(r, c);
                let denom = numeric.abs().max(analytic.abs()).max(1.0);
                assert!(
                    (numeric - analytic).abs() / denom < 3e-2,
                    "grad mismatch at ({r},{c}): numeric={numeric} analytic={analytic}"
                );
            }
        }
    }

    #[test]
    fn grad_matmul_mse() {
        check_grad(
            |g, store, w| {
                let x = g.input(Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[1.5, 0.3, -0.7]]));
                let wv = g.param(store, w);
                let y = g.matmul(x, wv);
                g.mse_loss(y, Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]))
            },
            3,
            2,
            11,
        );
    }

    #[test]
    fn grad_activations_chain() {
        check_grad(
            |g, store, w| {
                let x = g.input(Matrix::from_rows(&[&[0.4, -0.8], &[1.2, 0.1]]));
                let wv = g.param(store, w);
                let h = g.matmul(x, wv);
                let h = g.relu(h);
                let h = g.elu(h, 1.0);
                let h = g.tanh(h);
                let h = g.sigmoid(h);
                g.mse_loss(h, Matrix::from_rows(&[&[0.3, 0.7], &[0.9, 0.2]]))
            },
            2,
            2,
            13,
        );
    }

    #[test]
    fn grad_leaky_relu() {
        check_grad(
            |g, store, w| {
                let wv = g.param(store, w);
                let h = g.leaky_relu(wv, 0.2);
                g.mse_loss(h, Matrix::from_rows(&[&[1.0, -1.0]]))
            },
            1,
            2,
            17,
        );
    }

    #[test]
    fn grad_gather_scatter() {
        check_grad(
            |g, store, w| {
                let wv = g.param(store, w);
                let gathered = g.gather_rows(wv, &[0, 1, 1, 2]);
                let scattered = g.scatter_add_rows(gathered, &[0, 0, 1, 1], 2);
                g.mse_loss(scattered, Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]))
            },
            3,
            2,
            19,
        );
    }

    #[test]
    fn grad_segment_softmax() {
        check_grad(
            |g, store, w| {
                let wv = g.param(store, w);
                let sm = g.segment_softmax(wv, &[0, 0, 1, 1, 1]);
                g.mse_loss(
                    sm,
                    Matrix::from_rows(&[&[0.7], &[0.3], &[0.2], &[0.5], &[0.3]]),
                )
            },
            5,
            1,
            23,
        );
    }

    #[test]
    fn grad_row_dot_and_col_broadcast() {
        check_grad(
            |g, store, w| {
                let wv = g.param(store, w);
                let other = g.input(Matrix::from_rows(&[&[0.2, 0.9, -0.4], &[1.1, -0.6, 0.8]]));
                let dots = g.row_dot(wv, other);
                let scaled = g.mul_col_broadcast(wv, dots);
                g.mse_loss(scaled, Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 1.0]]))
            },
            2,
            3,
            29,
        );
    }

    #[test]
    fn grad_concat_max_stack() {
        check_grad(
            |g, store, w| {
                let wv = g.param(store, w);
                let doubled = g.scale(wv, 2.0);
                let halved = g.scale(wv, 0.5);
                let m = g.max_stack(&[wv, doubled, halved]);
                let cc = g.concat_cols(&[m, wv]);
                let s = g.sum_rows(cc);
                g.mse_loss(s, Matrix::from_rows(&[&[1.0, 1.0, 1.0, 1.0]]))
            },
            3,
            2,
            31,
        );
    }

    /// A fixed `[rows, cols]` input, distinct per `seed`.
    fn fixed(g: &mut Graph, rows: usize, cols: usize, seed: usize) -> NodeId {
        g.input(Matrix::from_fn(rows, cols, |i, j| ((i * cols + j + 5 * seed) as f32 * 0.7).sin()))
    }

    #[test]
    fn grad_attention_aggregate() {
        // Node 0 has one in-edge, node 1 two (one a duplicate source), node
        // 2 a self-loop among its two, node 3 none.
        let (src, dst) = ([0, 1, 2, 0, 2, 1], [1, 1, 0, 2, 2, 1]);
        for slot in 0..4 {
            // The parameter stands in for q, k, v or e.
            let rows = if slot == 3 { src.len() } else { 4 };
            check_grad(
                |g, store, w| {
                    let inputs: [NodeId; 4] = std::array::from_fn(|s| match s {
                        _ if s == slot => g.param(store, w),
                        3 => fixed(g, src.len(), 3, s),
                        _ => fixed(g, 4, 3, s),
                    });
                    let out = g.attention_aggregate(inputs, &src, &dst, 0.8);
                    g.mse_loss(out, Matrix::filled(4, 3, 0.25))
                },
                rows,
                3,
                61 + slot as u64,
            );
        }
    }

    #[test]
    fn grad_gated_residual() {
        let shapes = [(4, 3), (4, 3), (9, 1), (1, 3)];
        for (slot, &(rows, cols)) in shapes.iter().enumerate() {
            // The parameter stands in for aggr, root, the gate weights or
            // the bias.
            check_grad(
                |g, store, w| {
                    let inputs: [NodeId; 4] = std::array::from_fn(|s| match s {
                        _ if s == slot => g.param(store, w),
                        _ => fixed(g, shapes[s].0, shapes[s].1, s),
                    });
                    let [aggr, root, wg, bias] = inputs;
                    let out = g.gated_residual(aggr, root, wg, bias);
                    g.mse_loss(out, Matrix::filled(4, 3, -0.5))
                },
                rows,
                cols,
                71 + slot as u64,
            );
        }
    }

    #[test]
    fn grad_bias_and_mean_rows() {
        check_grad(
            |g, store, w| {
                let x = g.input(Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 0.5], &[2.0, 1.0]]));
                let b = g.param(store, w);
                let h = g.add_bias(x, b);
                let m = g.mean_rows(h);
                g.mse_loss(m, Matrix::from_rows(&[&[0.0, 0.0]]))
            },
            1,
            2,
            37,
        );
    }

    #[test]
    fn grad_bce_logits() {
        check_grad(
            |g, store, w| {
                let wv = g.param(store, w);
                g.bce_logits_loss(wv, Matrix::from_rows(&[&[1.0, 0.0, 1.0]]))
            },
            1,
            3,
            41,
        );
    }

    #[test]
    fn grad_sub_mul() {
        check_grad(
            |g, store, w| {
                let wv = g.param(store, w);
                let x = g.input(Matrix::from_rows(&[&[0.3, -0.9], &[1.4, 0.2]]));
                let d = g.sub(wv, x);
                let p = g.mul(d, wv);
                g.mse_loss(p, Matrix::from_rows(&[&[0.1, 0.1], &[0.1, 0.1]]))
            },
            2,
            2,
            43,
        );
    }

    #[test]
    fn grad_layer_norm() {
        check_grad(
            |g, store, w| {
                let wv = g.param(store, w);
                let n = g.layer_norm(wv, 1e-5);
                g.mse_loss(n, Matrix::from_rows(&[&[0.5, -0.5, 0.2], &[-0.1, 0.3, 0.9]]))
            },
            2,
            3,
            53,
        );
    }

    #[test]
    fn layer_norm_rows_have_zero_mean_unit_var() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[-5.0, 0.0, 5.0, 10.0]]));
        let n = g.layer_norm(x, 1e-6);
        let v = g.value(n);
        for r in 0..2 {
            let mean: f32 = v.row(r).iter().sum::<f32>() / 4.0;
            let var: f32 = v.row(r).iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn layer_norm_constant_row_is_finite() {
        let mut g = Graph::new();
        let x = g.input(Matrix::filled(1, 4, 7.0));
        let n = g.layer_norm(x, 1e-5);
        assert!(!g.value(n).has_non_finite());
    }

    #[test]
    fn segment_softmax_sums_to_one_per_segment() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[&[1.0], &[2.0], &[0.5], &[3.0], &[-1.0]]));
        let sm = g.segment_softmax(x, &[0, 0, 1, 1, 1]);
        let y = g.value(sm);
        let s0 = y.get(0, 0) + y.get(1, 0);
        let s1 = y.get(2, 0) + y.get(3, 0) + y.get(4, 0);
        assert!((s0 - 1.0).abs() < 1e-6);
        assert!((s1 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn segment_softmax_extreme_values_stable() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[&[1000.0], &[999.0], &[-1000.0]]));
        let sm = g.segment_softmax(x, &[0, 0, 0]);
        assert!(!g.value(sm).has_non_finite());
    }

    #[test]
    fn backward_accumulates_across_graphs() {
        let mut store = ParamStore::new(5);
        let w = store.add("w", 1, 1, Init::Zeros);
        let mut grads = store.zero_grads();
        for _ in 0..3 {
            let mut g = Graph::new();
            let wv = g.param(&store, w);
            let loss = g.mse_loss(wv, Matrix::filled(1, 1, 1.0));
            g.backward(loss, &mut grads);
        }
        // d/dw (w-1)^2 = 2(w-1) = -2 at w=0, accumulated 3 times.
        assert!((grads.grad(w).scalar() + 6.0).abs() < 1e-5);
    }

    #[test]
    fn backward_computes_only_the_weight_gradient_of_an_input_product() {
        let mut store = ParamStore::new(71);
        let w = store.add("w", 3, 2, Init::XavierUniform);
        let xv = Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[1.5, 0.3, -0.7]]);
        let target = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);

        let mut g = Graph::new();
        let x = g.input(xv.clone());
        let wv = g.param(&store, w);
        let y = g.matmul(x, wv);
        let loss = g.mse_loss(y, target.clone());
        assert!(!g.nodes[x.0].needs_grad);
        assert!([wv, y, loss].iter().all(|id| g.nodes[id.0].needs_grad));

        // `x`'s adjoint would be a GEMM (`dy · wᵀ`); the weight gradient
        // goes through `gemm_tn`, which books no GEMM call.
        let gemms = gdse_obs::metrics::counter_value("infer.gemm_calls");
        let mut grads = store.zero_grads();
        g.backward(loss, &mut grads);
        assert_eq!(gdse_obs::metrics::counter_value("infer.gemm_calls"), gemms);

        let dy = g.value(y).zip_map(&target, |p, t| 1.0 * 2.0 * (p - t) / 4.0);
        let expect = xv.transpose().matmul_reference(&dy);
        for (a, b) in grads.grad(w).as_slice().iter().zip(expect.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn grad_linear_fused() {
        check_grad(
            |g, store, w| {
                let x = g.input(Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[1.5, 0.3, -0.7]]));
                let wv = g.param(store, w);
                let b = g.input(Matrix::from_rows(&[&[0.1, -0.2]]));
                let y = g.linear(x, wv, b, Activation::Relu);
                g.mse_loss(y, Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]))
            },
            3,
            2,
            59,
        );
    }

    #[test]
    fn linear_matches_unfused_chain_bitwise() {
        let mut store = ParamStore::new(61);
        let w = store.add("w", 5, 4, Init::XavierUniform);
        let b = store.add("b", 1, 4, Init::Uniform(0.3));
        let x = Matrix::from_fn(7, 5, |i, j| ((i * 3 + j) as f32 * 0.37).sin());

        let mut g1 = Graph::new();
        let x1 = g1.input(x.clone());
        let wv = g1.param(&store, w);
        let bv = g1.param(&store, b);
        let fused = g1.linear(x1, wv, bv, Activation::Relu);

        let mut g2 = Graph::new();
        let x2 = g2.input(x.clone());
        let wv2 = g2.param(&store, w);
        let bv2 = g2.param(&store, b);
        let mm = g2.matmul(x2, wv2);
        let ab = g2.add_bias(mm, bv2);
        let unfused = g2.relu(ab);

        for (a, b) in g1.value(fused).as_slice().iter().zip(g2.value(unfused).as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // Gradients match bitwise too.
        let loss1 = {
            let t = Matrix::filled(7, 4, 0.5);
            g1.mse_loss(fused, t)
        };
        let loss2 = {
            let t = Matrix::filled(7, 4, 0.5);
            g2.mse_loss(unfused, t)
        };
        let mut grads1 = store.zero_grads();
        g1.backward(loss1, &mut grads1);
        let mut grads2 = store.zero_grads();
        g2.backward(loss2, &mut grads2);
        for id in store.ids() {
            for (a, b) in grads1.grad(id).as_slice().iter().zip(grads2.grad(id).as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "param {}", store.name(id));
            }
        }
    }

    #[test]
    fn quant_tape_dispatches_param_matmuls() {
        use crate::quant::{QuantMatrix, QuantParamSet};

        let mut store = ParamStore::new(67);
        let w = store.add("w", 6, 4, Init::XavierUniform);
        let b = store.add("b", 1, 4, Init::Uniform(0.2));
        let mut qs = QuantParamSet::new();
        qs.insert(w, QuantMatrix::quantize(store.value(w)));
        let qs = Arc::new(qs);

        let x = Matrix::from_fn(3, 6, |i, j| ((i + j) as f32 * 0.21).cos());

        let mut gq = Graph::with_quant(Arc::clone(&qs));
        assert!(gq.is_quantized());
        let xq = gq.input(x.clone());
        let wq = gq.param(&store, w);
        let bq = gq.param(&store, b);
        let yq = gq.linear(xq, wq, bq, Activation::Relu);

        let mut gf = Graph::new();
        let xf = gf.input(x.clone());
        let wf = gf.param(&store, w);
        let bf = gf.param(&store, b);
        let yf = gf.linear(xf, wf, bf, Activation::Relu);

        // Quantized output approximates the f32 output but is not (in
        // general) identical; with 8 bits over small Xavier weights the
        // relative drift stays small.
        let vq = gq.value(yq);
        let vf = gf.value(yf);
        let num: f32 = vq
            .as_slice()
            .iter()
            .zip(vf.as_slice())
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        let den: f32 = vf.as_slice().iter().map(|v| v * v).sum::<f32>().max(1e-12);
        assert!((num / den).sqrt() < 0.05, "rel rmse {}", (num / den).sqrt());

        // Matmul with a non-quantized rhs still runs in f32 on a quant tape
        // and records a differentiable Matmul node.
        let rhs = gq.input(Matrix::from_fn(6, 2, |i, j| (i + j) as f32 * 0.1));
        let plain = gq.matmul(xq, rhs);
        assert!(!gq.value(plain).has_non_finite());
    }

    #[test]
    fn graph_drop_recycles_node_buffers() {
        arena::clear();
        {
            let mut g = Graph::new();
            let a = g.input(Matrix::filled(8, 8, 1.0));
            let b = g.input(Matrix::filled(8, 8, 2.0));
            let _ = g.matmul(a, b);
        }
        let (_, hits_before) = arena::stats();
        // A fresh same-shape graph reuses the retired buffers: the matmul
        // output comes from the arena, and the dropped tape refilled it.
        let mut g = Graph::new();
        let a = g.input(Matrix::filled(8, 8, 1.0));
        let b = g.input(Matrix::filled(8, 8, 2.0));
        let m = g.matmul(a, b);
        assert_eq!(g.value(m).get(0, 0), 16.0);
        let (_, hits_after) = arena::stats();
        assert!(hits_after > hits_before, "matmul output should reuse a retired buffer");
    }

    #[test]
    fn value_is_forward_result() {
        let mut g = Graph::new();
        let a = g.input(Matrix::from_rows(&[&[2.0, 3.0]]));
        let b = g.scale(a, 2.0);
        assert_eq!(g.value(b), &Matrix::from_rows(&[&[4.0, 6.0]]));
    }
}
