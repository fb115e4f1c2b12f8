//! Graph Attention Network layer (eqs. 2-3 of the paper; Veličković et al.).

use gdse_tensor::{Graph, Init, NodeId, ParamId, ParamStore};
use serde::{Deserialize, Serialize};

/// Negative slope of the LeakyReLU in the attention logits (GAT default).
pub(crate) const LEAKY_SLOPE: f32 = 0.2;

/// GAT convolution: attention coefficients
/// `alpha_ij = softmax_j(LeakyReLU(a^T [W h_i || W h_j]))` weight the
/// aggregation of transformed neighbors.
///
/// The concatenated form `a^T [W h_i || W h_j]` is computed as
/// `a1^T W h_i + a2^T W h_j` with `a = [a1; a2]`, like PyTorch Geometric.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GatConv {
    pub(crate) w: ParamId,
    pub(crate) a_dst: ParamId,
    pub(crate) a_src: ParamId,
    pub(crate) b: ParamId,
}

impl GatConv {
    /// Registers a single-head GAT layer mapping `in_dim -> out_dim`.
    pub fn new(store: &mut ParamStore, name: &str, in_dim: usize, out_dim: usize) -> Self {
        Self {
            w: store.add(format!("{name}.weight"), in_dim, out_dim, Init::XavierUniform),
            a_dst: store.add(format!("{name}.att_dst"), out_dim, 1, Init::XavierUniform),
            a_src: store.add(format!("{name}.att_src"), out_dim, 1, Init::XavierUniform),
            b: store.add(format!("{name}.bias"), 1, out_dim, Init::Zeros),
        }
    }

    /// Forward pass over an edge list (activation applied by the caller).
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: NodeId,
        src: &[usize],
        dst: &[usize],
    ) -> NodeId {
        let n = g.value(x).rows();
        // Self-loops so every node attends to itself (N(i) ∪ {i}).
        let mut s: Vec<usize> = src.to_vec();
        let mut d: Vec<usize> = dst.to_vec();
        s.extend(0..n);
        d.extend(0..n);

        let wv = g.param(store, self.w);
        let h = g.matmul(x, wv); // [N, out]
        let a_dst = g.param(store, self.a_dst);
        let a_src = g.param(store, self.a_src);
        let score_dst = g.matmul(h, a_dst); // [N, 1]
        let score_src = g.matmul(h, a_src); // [N, 1]

        let e_dst = g.gather_rows(score_dst, &d);
        let e_src = g.gather_rows(score_src, &s);
        let logits = g.add(e_dst, e_src);
        let logits = g.leaky_relu(logits, LEAKY_SLOPE);
        let alpha = g.segment_softmax(logits, &d); // normalized over incoming edges

        let msgs = g.gather_rows(h, &s);
        let weighted = g.mul_col_broadcast(msgs, alpha);
        let agg = g.scatter_add_rows(weighted, &d, n);
        let bv = g.param(store, self.b);
        g.add_bias(agg, bv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdse_tensor::Matrix;

    #[test]
    fn forward_shape() {
        let mut store = ParamStore::new(4);
        let conv = GatConv::new(&mut store, "gat0", 6, 8);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_fn(4, 6, |i, j| ((i * 7 + j) % 5) as f32 * 0.2));
        let y = conv.forward(&mut g, &store, x, &[0, 1, 2], &[1, 2, 3]);
        assert_eq!(g.value(y).shape(), (4, 8));
        assert!(!g.value(y).has_non_finite());
    }

    #[test]
    fn attention_weights_depend_on_features() {
        let mut store = ParamStore::new(5);
        let conv = GatConv::new(&mut store, "gat0", 2, 4);
        // Node 2 aggregates from nodes 0 and 1; changing node 1's features
        // changes both the message and the attention split.
        let out = |v: f32| {
            let mut g = Graph::new();
            let x = g.input(Matrix::from_rows(&[&[1.0, 2.0], &[v, -v], &[0.5, 0.5]]));
            let y = conv.forward(&mut g, &store, x, &[0, 1], &[2, 2]);
            g.value(y).row(2).to_vec()
        };
        assert_ne!(out(0.1), out(3.0));
    }

    #[test]
    fn gradient_flows_to_attention_params() {
        let mut store = ParamStore::new(6);
        let conv = GatConv::new(&mut store, "gat0", 3, 3);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_fn(3, 3, |i, j| (i as f32 - j as f32) * 0.3));
        let y = conv.forward(&mut g, &store, x, &[0, 1], &[2, 2]);
        let s = g.sum_rows(y);
        let loss = g.mse_loss(s, Matrix::zeros(1, 3));
        let mut grads = store.zero_grads();
        g.backward(loss, &mut grads);
        let att_grad_norm = grads.grad(conv.a_src).frobenius_norm()
            + grads.grad(conv.a_dst).frobenius_norm();
        assert!(att_grad_norm > 0.0, "attention parameters must receive gradient");
    }
}
