//! # gdse-gnn
//!
//! Graph neural network layers and the M1-M7 predictive models of GNN-DSE
//! (DAC 2022), built on [`gdse_tensor`]'s tape autodiff.
//!
//! The full model (M7) is a stack of [`layers::transformer::TransformerConv`]
//! layers with ELU activations, a Jumping-Knowledge max combination, a
//! node-attention graph readout, and per-objective MLP prediction heads —
//! exactly the architecture of Fig. 4.
//!
//! Every model has two forward passes: [`PredictionModel::forward`] records
//! a tape for training, and [`PredictionModel::infer`] predicts a
//! [`KernelBatch`] of design points without one, bit-identically, reading
//! the rows no design point changes from the model's [`ModelTemplate`] of
//! the kernel's [`KernelTemplate`].
//!
//! ## Quickstart
//!
//! ```
//! use design_space::DesignSpace;
//! use gdse_gnn::{GraphInput, ModelConfig, ModelKind, PredictionModel};
//! use hls_ir::kernels;
//! use proggraph::build_graph_bidirectional;
//!
//! let kernel = kernels::gemm_ncubed();
//! let space = DesignSpace::from_kernel(&kernel);
//! let graph = build_graph_bidirectional(&kernel, &space);
//! let point = space.default_point();
//! let input = GraphInput::from_graph(&graph, Some(&point));
//!
//! let model = PredictionModel::new(ModelKind::Full, ModelConfig::small(), &["latency"]);
//! let out = model.forward_single(&input, &point);
//! assert!(out.values()[0].is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
mod encoder;
mod infer;
mod input;
pub mod layers;
mod model;

pub use artifact::{Artifact, ArtifactError};
pub use encoder::{ConvKind, EncoderOutput, GnnEncoder};
pub use infer::ModelTemplate;
pub use input::{GraphBatch, GraphInput, KernelBatch, KernelTemplate};
pub use model::{
    encode_pragmas, ModelConfig, ModelKind, ModelOutput, PredictionModel, MAX_SLOTS, SLOT_FEATS,
};
