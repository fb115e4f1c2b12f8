//! Multi-layer perceptron.

use gdse_tensor::{Activation, Graph, Init, NodeId, ParamId, ParamStore};
use serde::{Deserialize, Serialize};

/// A stack of linear layers with ReLU between them (none after the last).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    pub(crate) weights: Vec<ParamId>,
    pub(crate) biases: Vec<ParamId>,
}

impl Mlp {
    /// Registers an MLP with the given layer widths, e.g. `[64, 32, 1]` for
    /// a two-layer head.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given.
    pub fn new(store: &mut ParamStore, name: &str, dims: &[usize]) -> Self {
        assert!(dims.len() >= 2, "an MLP needs at least input and output dims");
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for (i, w) in dims.windows(2).enumerate() {
            weights.push(store.add(format!("{name}.w{i}"), w[0], w[1], Init::XavierUniform));
            biases.push(store.add(format!("{name}.b{i}"), 1, w[1], Init::Zeros));
        }
        Self { weights, biases }
    }

    /// Applies the MLP row-wise to `x: [N, dims[0]]`.
    ///
    /// Each layer is one fused [`Graph::linear`] call (`act(x*W + b)`), which
    /// is bit-identical to the `matmul` / `add_bias` / `relu` chain it
    /// replaces but materializes no intermediate tensors.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let mut h = x;
        let last = self.weights.len() - 1;
        for (i, (&w, &b)) in self.weights.iter().zip(&self.biases).enumerate() {
            let wv = g.param(store, w);
            let bv = g.param(store, b);
            let act = if i < last { Activation::Relu } else { Activation::None };
            h = g.linear(h, wv, bv, act);
        }
        h
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.weights.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdse_tensor::{Adam, Matrix};

    #[test]
    fn forward_shape() {
        let mut store = ParamStore::new(0);
        let mlp = Mlp::new(&mut store, "head", &[8, 16, 1]);
        assert_eq!(mlp.num_layers(), 2);
        let mut g = Graph::new();
        let x = g.input(Matrix::zeros(5, 8));
        let y = mlp.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), (5, 1));
    }

    #[test]
    fn mlp_learns_xor_like_function() {
        let mut store = ParamStore::new(3);
        let mlp = Mlp::new(&mut store, "m", &[2, 16, 1]);
        let mut adam = Adam::new(0.02);
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let t = Matrix::col_vector(&[0.0, 1.0, 1.0, 0.0]);
        let mut final_loss = f32::MAX;
        for _ in 0..800 {
            let mut g = Graph::new();
            let xv = g.input(x.clone());
            let y = mlp.forward(&mut g, &store, xv);
            let loss = g.mse_loss(y, t.clone());
            final_loss = g.value(loss).scalar();
            let mut grads = store.zero_grads();
            g.backward(loss, &mut grads);
            adam.step(&mut store, &grads);
        }
        assert!(final_loss < 0.05, "XOR not learned: loss {final_loss}");
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn single_dim_rejected() {
        let mut store = ParamStore::new(0);
        let _ = Mlp::new(&mut store, "bad", &[4]);
    }
}
