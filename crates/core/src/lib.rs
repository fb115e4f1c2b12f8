//! # gnn-dse
//!
//! The GNN-DSE framework (DAC 2022): a graph-neural-network surrogate of the
//! HLS toolchain driving design-space exploration for FPGA accelerators.
//!
//! The crate ties the substrates together (Fig. 1a):
//!
//! * [`dbgen`] / [`explorer`] — build a [`db::Database`] of evaluated
//!   designs with the four explorers (bottleneck, hybrid, random and the
//!   GFlowNet-style trajectory sampler), all parameterized by an
//!   [`objective::Objective`];
//! * [`objective`] / [`pareto`] — what "better" means: scalar latency,
//!   weighted-sum, or true multi-objective Pareto search with per-device
//!   resource budgets, plus the incremental [`pareto::ParetoArchive`];
//! * [`dataset`] — pre-process targets (§5.2.1: eq. 11 latency transform,
//!   utilization fractions, BRAM split) into a trainable [`dataset::Dataset`];
//! * [`trainer`] — train/evaluate the Table 2 models (RMSE, accuracy, F1,
//!   k-fold cross-validation);
//! * [`inference`] — the millisecond [`inference::Predictor`] (classifier +
//!   regressor + BRAM model);
//! * [`dse`] — exhaustive or priority-ordered surrogate-driven search with
//!   the eq. 7 utilization constraint and Pareto utilities;
//! * [`rounds`] — the iterative DSE/database-augmentation loop of Fig. 7.
//!
//! ## Quickstart
//!
//! ```
//! use gnn_dse::{dbgen, dse, inference::Predictor, trainer::TrainConfig, ExecEngine};
//! use gdse_gnn::{ModelConfig, ModelKind};
//! use design_space::DesignSpace;
//! use hls_ir::kernels;
//! use proggraph::build_graph_bidirectional;
//!
//! // 1. Build a small database for one kernel.
//! let ks = vec![kernels::spmv_ellpack()];
//! let db = dbgen::generate_database(&ks, &[], 30, 7);
//!
//! // 2. Train the surrogate.
//! let (predictor, _) = Predictor::train(
//!     &db, &ks, ModelKind::Transformer, ModelConfig::small(),
//!     &TrainConfig::quick().with_epochs(3),
//! );
//!
//! // 3. Explore.
//! let space = DesignSpace::from_kernel(&ks[0]);
//! let graph = build_graph_bidirectional(&ks[0], &space);
//! let cfg = dse::DseConfig::quick();
//! let out =
//!     dse::run_dse_with_engine(&predictor, &ks[0], &space, &graph, &cfg, &ExecEngine::serial());
//! println!("explored {} candidates", out.inferences);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod daemon;
pub mod dataset;
pub mod db;
pub mod dbgen;
pub mod dse;
pub mod error;
pub mod evaluated;
pub mod explorer;
pub mod harness;
pub mod inference;
pub mod learn;
pub mod objective;
pub mod parallel;
pub mod pareto;
pub mod persist;
pub mod report;
pub mod rounds;
pub mod serving;
pub mod trainer;

pub use artifact::{decode_predictor, encode_predictor, ArtifactMeta, META_SCHEMA_VERSION};
pub use daemon::{Daemon, DaemonConfig, DaemonReport, DaemonStatus};
pub use dataset::{Dataset, Normalizer};
pub use db::{Database, DbEntry, DbError, UntrainableDb};
pub use dse::{pareto_front, run_dse_with_engine, CandidateSampler, DseConfig, DseOutcome};
pub use error::Error;
pub use evaluated::Evaluated;
pub use explorer::{Budget, Explorer, GFlowExplorer};
pub use harness::{EvalBackend, EvalError, Harness, RetryPolicy};
pub use inference::{Prediction, Predictor, QuantPredictor, Template};
pub use learn::{ReplayBuffer, ReplayStats};
pub use objective::{Objective, ObjectiveKind, ObjectiveWeights, ResourceBudget, Score};
pub use pareto::{hypervolume, ParetoArchive};
pub use parallel::ExecEngine;
pub use report::write_run_report;
pub use rounds::{run_rounds_with_engine, CampaignDriver, RoundReport, RoundsConfig};
pub use serving::{ArtifactProvider, PredictService};
pub use trainer::{ClassificationMetrics, RegressionMetrics, TrainConfig};
