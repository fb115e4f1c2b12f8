//! Graph-level readout: sum pooling and the node-attention pooling of
//! eq. 10, both over batched (disjoint-union) graphs.

use crate::layers::mlp::Mlp;
use gdse_tensor::{Graph, NodeId, ParamStore};
use serde::{Deserialize, Serialize};

/// Sum of node embeddings per graph: `[N_total, D] -> [B, D]` where
/// `node_graph[i]` is the graph each node belongs to.
pub fn sum_pool(
    g: &mut Graph,
    node_embs: NodeId,
    node_graph: &[usize],
    num_graphs: usize,
) -> NodeId {
    g.scatter_add_rows(node_embs, node_graph, num_graphs)
}

/// Node-attention pooling (eq. 10):
/// `h_G = sum_i softmax(MLP1(h_i)) * MLP2(h_i)`, with the softmax taken
/// within each graph of the batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttentionPool {
    pub(crate) score_mlp: Mlp,
    pub(crate) value_mlp: Mlp,
}

/// Result of attention pooling: per-graph embeddings plus the per-node
/// attention scores (used for Fig. 5).
#[derive(Debug, Clone, Copy)]
pub struct PooledGraph {
    /// Graph-level embeddings `[B, D]`.
    pub graph_emb: NodeId,
    /// Per-node attention `[N_total, 1]`, summing to 1 within each graph.
    pub attention: NodeId,
}

impl AttentionPool {
    /// Registers an attention pool over `dim`-dimensional node embeddings.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        Self {
            score_mlp: Mlp::new(store, &format!("{name}.score"), &[dim, dim / 2, 1]),
            value_mlp: Mlp::new(store, &format!("{name}.value"), &[dim, dim]),
        }
    }

    /// Pools node embeddings `[N_total, D]` into per-graph embeddings
    /// `[B, D]`.
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        node_embs: NodeId,
        node_graph: &[usize],
        num_graphs: usize,
    ) -> PooledGraph {
        let scores = self.score_mlp.forward(g, store, node_embs); // [N, 1]
        let attention = g.segment_softmax(scores, node_graph);
        let values = self.value_mlp.forward(g, store, node_embs); // [N, D]
        let weighted = g.mul_col_broadcast(values, attention);
        let graph_emb = g.scatter_add_rows(weighted, node_graph, num_graphs);
        PooledGraph { graph_emb, attention }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdse_tensor::Matrix;

    #[test]
    fn attention_sums_to_one_per_graph() {
        let mut store = ParamStore::new(11);
        let pool = AttentionPool::new(&mut store, "pool", 8);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_fn(6, 8, |i, j| ((i * j) % 4) as f32 * 0.25));
        let seg = [0, 0, 0, 1, 1, 1];
        let out = pool.forward(&mut g, &store, x, &seg, 2);
        assert_eq!(g.value(out.graph_emb).shape(), (2, 8));
        let att = g.value(out.attention);
        let s0: f32 = (0..3).map(|i| att.get(i, 0)).sum();
        let s1: f32 = (3..6).map(|i| att.get(i, 0)).sum();
        assert!((s0 - 1.0).abs() < 1e-5);
        assert!((s1 - 1.0).abs() < 1e-5);
    }

    #[test]
    fn sum_pool_segments_rows() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[10.0, 20.0]]));
        let s = sum_pool(&mut g, x, &[0, 0, 1], 2);
        assert_eq!(g.value(s), &Matrix::from_rows(&[&[4.0, 6.0], &[10.0, 20.0]]));
    }

    #[test]
    fn attention_pooling_differs_from_sum() {
        let mut store = ParamStore::new(12);
        let pool = AttentionPool::new(&mut store, "pool", 4);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_fn(3, 4, |i, j| (i + j) as f32));
        let seg = [0, 0, 0];
        let att = pool.forward(&mut g, &store, x, &seg, 1);
        let sum = sum_pool(&mut g, x, &seg, 1);
        assert_ne!(g.value(att.graph_emb), g.value(sum));
    }
}
