//! Graph Convolutional Network layer (eq. 1 of the paper; Kipf & Welling).

use gdse_tensor::{Graph, Init, Matrix, NodeId, ParamId, ParamStore};
use serde::{Deserialize, Serialize};

/// GCN convolution: `h' = sigma(W * sum_j 1/sqrt(d_i d_j) h_j)` over the
/// neighborhood including a self-loop.
///
/// Edge features are ignored — one of the drawbacks motivating
/// TransformerConv in §4.3.1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GcnConv {
    pub(crate) w: ParamId,
    pub(crate) b: ParamId,
}

impl GcnConv {
    /// Registers a GCN layer mapping `in_dim -> out_dim`.
    pub fn new(store: &mut ParamStore, name: &str, in_dim: usize, out_dim: usize) -> Self {
        Self {
            w: store.add(format!("{name}.weight"), in_dim, out_dim, Init::XavierUniform),
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
        // Self-loops.
        let mut s: Vec<usize> = src.to_vec();
        let mut d: Vec<usize> = dst.to_vec();
        s.extend(0..n);
        d.extend(0..n);

        // Symmetric normalization from in-degrees (with self-loops).
        let mut deg = vec![0.0f32; n];
        for &i in &d {
            deg[i] += 1.0;
        }
        let coeffs: Vec<f32> = s
            .iter()
            .zip(&d)
            .map(|(&si, &di)| 1.0 / (deg[si] * deg[di]).sqrt())
            .collect();
        let coeff_col = g.input(Matrix::col_vector(&coeffs));

        let msgs = g.gather_rows(x, &s);
        let weighted = g.mul_col_broadcast(msgs, coeff_col);
        let agg = g.scatter_add_rows(weighted, &d, n);
        let wv = g.param(store, self.w);
        let bv = g.param(store, self.b);
        let lin = g.matmul(agg, wv);
        g.add_bias(lin, bv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_finite() {
        let mut store = ParamStore::new(1);
        let conv = GcnConv::new(&mut store, "gcn0", 4, 8);
        let mut g = Graph::new();
        let x = g.input(Matrix::from_fn(3, 4, |i, j| (i + j) as f32 * 0.1));
        let y = conv.forward(&mut g, &store, x, &[0, 1], &[1, 2]);
        assert_eq!(g.value(y).shape(), (3, 8));
        assert!(!g.value(y).has_non_finite());
    }

    #[test]
    fn isolated_node_still_gets_self_message() {
        let mut store = ParamStore::new(1);
        let conv = GcnConv::new(&mut store, "gcn0", 2, 2);
        let mut g = Graph::new();
        // Node 2 has no edges; with self-loops its output is W x_2 (+b).
        let x = g.input(Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[5.0, -3.0]]));
        let y = conv.forward(&mut g, &store, x, &[0], &[1]);
        let row2 = g.value(y).row(2).to_vec();
        assert!(row2.iter().any(|&v| v != 0.0), "self-loop must propagate node 2");
    }

    #[test]
    fn messages_flow_along_edges() {
        let mut store = ParamStore::new(2);
        let conv = GcnConv::new(&mut store, "gcn0", 2, 2);
        // Two graphs identical except node 0's features; node 1 receives
        // from node 0, so its output must differ.
        let make = |v: f32| {
            let mut g = Graph::new();
            let x = g.input(Matrix::from_rows(&[&[v, v], &[1.0, 1.0]]));
            let y = conv.forward(&mut g, &store, x, &[0], &[1]);
            g.value(y).row(1).to_vec()
        };
        assert_ne!(make(0.0), make(9.0));
    }
}
