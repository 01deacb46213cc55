//! # TransferGraph — model selection with a model zoo via graph learning
//!
//! A faithful Rust reproduction of *"Model Selection with Model Zoo via
//! Graph Learning"* (Li et al., ICDE 2024). Given a zoo of pre-trained
//! models and a new target dataset, TransferGraph predicts each model's
//! fine-tuning accuracy — without fine-tuning — by
//!
//! 1. **collecting** metadata, dataset representations, training history and
//!    transferability scores (§IV, steps ①–④ of Fig. 5);
//! 2. **constructing a graph** whose nodes are models and datasets and whose
//!    weighted edges encode dataset similarity, training performance, and
//!    transferability (§V, step ⑤);
//! 3. **learning node embeddings** with a graph learner (Node2Vec(+),
//!    GraphSAGE, GAT) trained for link prediction (step ⑥);
//! 4. **training a prediction model** (linear regression, random forest, or
//!    XGBoost-style GBDT) on [metadata ⊕ similarity ⊕ embeddings] →
//!    accuracy (steps ⑦–⑧), evaluated leave-one-out with Pearson
//!    correlation (Eq. 1).
//!
//! The hardware/data substrate (GPU fine-tuning, HuggingFace models) is
//! replaced by the deterministic simulator in [`tg_zoo`]; every algorithmic
//! component is implemented from scratch in the sibling crates.
//!
//! # Quickstart
//!
//! ```
//! use tg_zoo::{ModelZoo, ZooConfig, Modality};
//! use transfergraph::{Strategy, Workbench, EvalOptions};
//!
//! let zoo = ModelZoo::build(&ZooConfig::small(42));
//! let wb = Workbench::new(&zoo);
//! let target = zoo.targets_of(Modality::Image)[0];
//! let strategy = Strategy::transfer_graph_default();
//! let opts = EvalOptions::default();
//! let outcome = transfergraph::evaluate(&wb, &strategy, target, &opts);
//! // outcome.predictions ranks every model in the zoo for `target`.
//! assert_eq!(outcome.predictions.len(), zoo.models_of(Modality::Image).len());
//! ```

#![warn(missing_docs)]

pub mod artifacts;
pub mod coalesce;
pub mod config;
pub mod evaluate;
pub mod explain;
pub mod features;
pub(crate) mod format;
pub mod inductive;
pub mod metrics;
pub mod pipeline;
pub mod recommend;
pub mod registry;
pub mod report;
pub mod runner;
pub mod store;
pub mod strategy;
pub(crate) mod tier;

pub use artifacts::{Stage, Workbench, WorkbenchStats};
pub use coalesce::{CoalesceStats, Coalescer};
pub use config::{EdgeSource, EvalOptions, FeatureSet, Representation};
pub use evaluate::{evaluate, EvalOutcome};
pub use inductive::{InductiveConfig, InductiveEmbedder};
pub use registry::{
    RegistryOptions, RegistryStats, ZooHandle, ZooRegistry, REGISTRY_MAX_BYTES_ENV,
    REGISTRY_MAX_ZOOS_ENV,
};
pub use runner::{run_jobs, run_over_targets, EvalJob, RunSummary};
pub use store::{
    ArtifactKind, ArtifactStore, DiskStats, PersistStats, StoreOptions, ARTIFACT_DIR_ENV,
};
pub use strategy::Strategy;
