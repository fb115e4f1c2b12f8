//! TransformerConv layer (eq. 8 of the paper; Shi et al. 2021) with edge
//! embeddings and a gated residual connection.

use gdse_tensor::{Graph, Init, NodeId, ParamId, ParamStore};
use serde::{Deserialize, Serialize};

/// Transformer-style graph convolution:
///
/// `alpha_ij = softmax((W1 h_i)^T (W2 h_j + W3 e_ij) / sqrt(D))`
///
/// with messages `W2 h_j + W3 e_ij` aggregated by attention, and a gated
/// residual `out = beta * (W_r h_i) + (1 - beta) * aggregated` where
/// `beta = sigmoid(W_g [aggr || root || aggr - root])` — the mechanism the
/// paper credits with preventing over-smoothing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransformerConv {
    pub(crate) w_query: ParamId,
    pub(crate) w_key: ParamId,
    pub(crate) w_value: ParamId,
    pub(crate) w_edge: ParamId,
    pub(crate) w_root: ParamId,
    pub(crate) w_gate: ParamId,
    pub(crate) b: ParamId,
    pub(crate) out_dim: usize,
}

impl TransformerConv {
    /// Registers a TransformerConv layer mapping `in_dim -> out_dim` with
    /// `edge_dim`-dimensional edge features.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        edge_dim: usize,
    ) -> Self {
        Self {
            w_query: store.add(format!("{name}.lin_query"), in_dim, out_dim, Init::XavierUniform),
            w_key: store.add(format!("{name}.lin_key"), in_dim, out_dim, Init::XavierUniform),
            w_value: store.add(format!("{name}.lin_value"), in_dim, out_dim, Init::XavierUniform),
            w_edge: store.add(format!("{name}.lin_edge"), edge_dim, out_dim, Init::XavierUniform),
            w_root: store.add(format!("{name}.lin_skip"), in_dim, out_dim, Init::XavierUniform),
            w_gate: store.add(format!("{name}.lin_beta"), 3 * out_dim, 1, Init::XavierUniform),
            b: store.add(format!("{name}.bias"), 1, out_dim, Init::Zeros),
            out_dim,
        }
    }

    /// Forward pass with edge attributes (activation applied by the caller).
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: NodeId,
        edge_attr: NodeId,
        src: &[usize],
        dst: &[usize],
    ) -> NodeId {
        let wq = g.param(store, self.w_query);
        let wk = g.param(store, self.w_key);
        let wv = g.param(store, self.w_value);
        let we = g.param(store, self.w_edge);
        let wr = g.param(store, self.w_root);

        let q = g.matmul(x, wq); // [N, D]
        let k = g.matmul(x, wk); // [N, D]
        let v = g.matmul(x, wv); // [N, D]
        let e = g.matmul(edge_attr, we); // [E, D]
        let scale = 1.0 / (self.out_dim as f32).sqrt();
        let aggr = g.attention_aggregate([q, k, v, e], src, dst, scale); // [N, D]

        // Gated residual.
        let root = g.matmul(x, wr);
        let wg = g.param(store, self.w_gate);
        let bv = g.param(store, self.b);
        g.gated_residual(aggr, root, wg, bv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdse_tensor::Matrix;

    fn toy_forward(edge_val: f32, store_seed: u64) -> Vec<f32> {
        let mut store = ParamStore::new(store_seed);
        let conv = TransformerConv::new(&mut store, "t0", 4, 8, 3);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_fn(3, 4, |i, j| ((i + 2 * j) % 3) as f32 * 0.4));
        let e = g.input(Matrix::from_fn(2, 3, |_, j| edge_val * (j as f32 + 1.0)));
        let y = conv.forward(&mut g, &store, x, e, &[0, 1], &[2, 2]);
        g.value(y).row(2).to_vec()
    }

    #[test]
    fn forward_shape() {
        let mut store = ParamStore::new(7);
        let conv = TransformerConv::new(&mut store, "t0", 4, 8, 3);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_fn(5, 4, |i, j| (i * j) as f32 * 0.1));
        let e = g.input(Matrix::zeros(4, 3));
        let y = conv.forward(&mut g, &store, x, e, &[0, 1, 2, 3], &[1, 2, 3, 4]);
        assert_eq!(g.value(y).shape(), (5, 8));
        assert!(!g.value(y).has_non_finite());
    }

    #[test]
    fn edge_features_influence_output() {
        // Unlike GCN/GAT, edge embeddings must matter (the paper's reason
        // for choosing TransformerConv).
        assert_ne!(toy_forward(0.0, 7), toy_forward(2.0, 7));
    }

    #[test]
    fn nodes_without_incoming_edges_keep_root_path() {
        let mut store = ParamStore::new(8);
        let conv = TransformerConv::new(&mut store, "t0", 2, 4, 2);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[&[1.0, -1.0], &[0.3, 0.7]]));
        let e = g.input(Matrix::from_rows(&[&[1.0, 0.0]]));
        // Only node 1 receives a message; node 0 must still produce output
        // through the gated residual (root) path.
        let y = conv.forward(&mut g, &store, x, e, &[0], &[1]);
        assert!(g.value(y).row(0).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let mut store = ParamStore::new(9);
        let conv = TransformerConv::new(&mut store, "t0", 3, 4, 2);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_fn(4, 3, |i, j| (i as f32 * 0.3) - (j as f32 * 0.2)));
        let e = g.input(Matrix::from_fn(4, 2, |i, _| i as f32 * 0.5));
        // Destinations with several in-edges, so the attention softmax is
        // non-degenerate and the query weights receive gradient.
        let y = conv.forward(&mut g, &store, x, e, &[0, 1, 2, 0], &[3, 3, 3, 2]);
        let s = g.sum_rows(y);
        let loss = g.mse_loss(s, Matrix::filled(1, 4, 1.0));
        let mut grads = store.zero_grads();
        g.backward(loss, &mut grads);
        for id in store.ids() {
            assert!(
                grads.grad(id).frobenius_norm() > 0.0,
                "no gradient for {}",
                store.name(id)
            );
        }
    }
}
