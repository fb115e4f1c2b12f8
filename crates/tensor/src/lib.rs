//! # gdse-tensor
//!
//! Dense `f32` matrices with tape-based reverse-mode automatic
//! differentiation and the Adam optimizer — the numeric substrate of the
//! GNN-DSE (DAC 2022) reproduction.
//!
//! The design follows how graph neural networks over sparse edge lists are
//! actually computed: dense matmuls for per-node linear transforms, plus
//! gather / scatter-add / segment-softmax ops for message passing and
//! attention. Graphs are *dynamic*: every program graph builds a fresh
//! [`Graph`] tape, and gradients accumulate into a [`GradStore`] aligned with
//! a shared [`ParamStore`], which is what enables mini-batching over
//! variable-sized graphs.
//!
//! ## Quickstart
//!
//! ```
//! use gdse_tensor::{Adam, Graph, Init, Matrix, ParamStore};
//!
//! // One linear regression step.
//! let mut store = ParamStore::new(7);
//! let w = store.add("w", 2, 1, Init::XavierUniform);
//! let mut adam = Adam::new(0.01);
//!
//! let mut g = Graph::new();
//! let x = g.input(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
//! let wv = g.param(&store, w);
//! let pred = g.matmul(x, wv);
//! let loss = g.mse_loss(pred, Matrix::col_vector(&[5.0, 11.0]));
//!
//! let mut grads = store.zero_grads();
//! g.backward(loss, &mut grads);
//! adam.step(&mut store, &grads);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
mod fused;
pub mod gemm;
mod graph;
mod in_edges;
mod matrix;
mod optim;
mod params;
pub mod quant;
pub mod scalar;

pub use gemm::Activation;
pub use graph::{Graph, NodeId};
pub use in_edges::InEdges;
pub use matrix::Matrix;
pub use optim::{Adam, Sgd};
pub use params::{GradStore, Init, ParamId, ParamStore};
pub use quant::{QuantMatrix, QuantParamSet};
