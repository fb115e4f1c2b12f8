//! # proggraph
//!
//! ProGraML-style program graphs extended with pragma nodes — the program
//! representation of GNN-DSE (§4.2).
//!
//! A [`ProgramGraph`] has three node families (LLVM-like instructions,
//! variables/constants, and pragma placeholders) and four edge flows
//! (control, data, call, pragma). The graph of a kernel is built **once**;
//! different design configurations of the same application differ only in
//! the pragma nodes' option values, which are filled in at feature-encoding
//! time ([`node_features`]).
//!
//! ## Quickstart
//!
//! ```
//! use design_space::DesignSpace;
//! use hls_ir::kernels;
//! use proggraph::{build_graph_bidirectional, edge_features, node_features};
//!
//! let kernel = kernels::stencil();
//! let space = DesignSpace::from_kernel(&kernel);
//! let graph = build_graph_bidirectional(&kernel, &space);
//!
//! let x = node_features(&graph, Some(&space.default_point()));
//! let e = edge_features(&graph);
//! assert_eq!(x.cols(), proggraph::NODE_FEATS);
//! assert_eq!(e.cols(), proggraph::EDGE_FEATS);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
pub mod dot;
mod features;
mod graph;
mod node;

pub use build::build_graph;
pub use features::{edge_features, node_features, node_row, EDGE_FEATS, NODE_FEATS};
pub use graph::ProgramGraph;
pub use node::{Edge, Flow, Node, NodeKind};

use design_space::DesignSpace;
use hls_ir::Kernel;

/// Builds the program graph and adds mirrored reverse edges so message
/// passing reaches both endpoints of every relation.
pub fn build_graph_bidirectional(kernel: &Kernel, space: &DesignSpace) -> ProgramGraph {
    let mut g = build_graph(kernel, space);
    g.add_reverse_edges();
    g
}
