//! Graph learners for TransferGraph (§V-B): Node2Vec, Node2Vec+, GraphSAGE
//! and GAT, all trained for link prediction and all emitting 128-dimensional
//! node embeddings (§VI-B).
//!
//! * [`Node2Vec`] — random-walk learners: biased walks (from `tg-graph`)
//!   fed into a from-scratch skip-gram with negative sampling ([`sgns`]).
//!   Node2Vec sees only the link structure; Node2Vec+
//!   ([`Node2Vec::plus_with_dim`]) additionally consumes edge weights.
//! * [`GraphSage`] — mean-aggregator GNN (Hamilton et al. 2017, Eq. 4 of
//!   the paper) on the `tg-autograd` substrate, trained with a dot-product
//!   link-prediction head, full-batch or on neighbour-sampled minibatches.
//! * [`Gat`] — graph attention network (Veličković et al. 2018, Eq. 5 of
//!   the paper) with masked self-attention, same head.
//!
//! Every GNN trains through the one link-prediction step in [`linkpred`].
//! [`LearnerKind::embed`] is the dispatch the TransferGraph pipeline
//! consumes.
//!
//! # Example
//!
//! ```
//! use tg_embed::{LearnerKind, Node2Vec};
//! use tg_graph::{Graph, NodeKind, EdgeKind};
//! use tg_zoo::ModelId;
//! use tg_rng::Rng;
//!
//! let mut g = Graph::new();
//! for i in 0..6 {
//!     g.add_node(NodeKind::Model(ModelId(i)));
//! }
//! for i in 0..5 {
//!     g.add_edge(i, i + 1, 1.0, EdgeKind::DatasetDataset);
//! }
//! let emb = Node2Vec::with_dim(16).embed(&g, &mut Rng::seed_from_u64(1));
//! assert_eq!(emb.shape(), (6, 16));
//!
//! // The pipeline's dispatch: GNNs read the node features, walks do not.
//! let features = tg_linalg::Matrix::zeros(6, 1);
//! let emb = LearnerKind::Node2VecPlus.embed(16, &g, &features, &mut Rng::seed_from_u64(1));
//! assert_eq!(emb.shape(), (6, 16));
//! ```

pub mod blocks;
pub mod dynamic;
pub mod gat;
pub mod gcn;
pub mod learner;
pub mod linkpred;
pub mod node2vec;
pub mod sage;
pub mod sgns;

pub use blocks::MinibatchConfig;
pub use dynamic::DynamicEmbedder;
pub use gat::Gat;
pub use gcn::Gcn;
pub use learner::LearnerKind;
pub use node2vec::Node2Vec;
pub use sage::{GraphSage, TrainedSage};
pub use sgns::{train_sgns, SgnsConfig, SgnsModel};
