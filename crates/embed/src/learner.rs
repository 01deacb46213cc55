//! The [`GraphLearner`] interface.

use tg_graph::Graph;
use tg_linalg::Matrix;
use tg_rng::Rng;

/// A graph learner: consumes the constructed graph (and, for GNNs, node
/// features) and produces one embedding row per node.
pub trait GraphLearner {
    /// Human-readable name used in experiment tables (e.g. `N2V+`).
    fn name(&self) -> &'static str;

    /// Trains on `graph` and returns an `num_nodes × dim` embedding matrix.
    ///
    /// `features` is the node-feature matrix (`num_nodes × f`). Random-walk
    /// learners ignore it (the paper notes Node2Vec learns the link
    /// structure only); GraphSAGE and GAT consume it.
    fn embed(&self, graph: &Graph, features: &Matrix, rng: &mut Rng) -> Matrix;

    /// Output embedding dimension.
    fn dim(&self) -> usize;
}

/// Enumeration of the four learners for experiment dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LearnerKind {
    /// Node2Vec (structure only).
    Node2Vec,
    /// Node2Vec+ (edge-weight aware walks).
    Node2VecPlus,
    /// GraphSAGE mean aggregator.
    GraphSage,
    /// Graph attention network.
    Gat,
    /// Graph convolutional network (related-work extension; not in the
    /// paper's Fig. 9 line-up).
    Gcn,
    /// GraphSAGE trained on neighbour-sampled minibatches (same
    /// architecture as [`LearnerKind::GraphSage`], inductive inference).
    GraphSageMini,
}

impl LearnerKind {
    /// The paper's four learners, in the order Fig. 9 lists them.
    pub const ALL: [LearnerKind; 4] = [
        LearnerKind::GraphSage,
        LearnerKind::Gat,
        LearnerKind::Node2VecPlus,
        LearnerKind::Node2Vec,
    ];

    /// The paper's learners plus the GCN extension.
    pub const ALL_EXTENDED: [LearnerKind; 5] = [
        LearnerKind::GraphSage,
        LearnerKind::Gat,
        LearnerKind::Gcn,
        LearnerKind::Node2VecPlus,
        LearnerKind::Node2Vec,
    ];

    /// Short display name matching the paper's plots.
    pub fn name(&self) -> &'static str {
        match self {
            LearnerKind::Node2Vec => "N2V",
            LearnerKind::Node2VecPlus => "N2V+",
            LearnerKind::GraphSage => "GraphSAGE",
            LearnerKind::Gat => "GAT",
            LearnerKind::Gcn => "GCN",
            LearnerKind::GraphSageMini => "GraphSAGE-mb",
        }
    }

    /// Instantiates the learner with the given embedding dimension.
    pub fn build(&self, dim: usize) -> Box<dyn GraphLearner> {
        match self {
            LearnerKind::Node2Vec => Box::new(crate::Node2Vec::with_dim(dim)),
            LearnerKind::Node2VecPlus => Box::new(crate::Node2VecPlus::with_dim(dim)),
            LearnerKind::GraphSage => Box::new(crate::GraphSage::with_dim(dim)),
            LearnerKind::Gat => Box::new(crate::Gat::with_dim(dim)),
            LearnerKind::Gcn => Box::new(crate::Gcn::with_dim(dim)),
            LearnerKind::GraphSageMini => Box::new(crate::MiniGraphSage::with_dim(dim)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_match_paper_labels() {
        assert_eq!(LearnerKind::Node2Vec.name(), "N2V");
        assert_eq!(LearnerKind::Node2VecPlus.name(), "N2V+");
        assert_eq!(LearnerKind::GraphSage.name(), "GraphSAGE");
        assert_eq!(LearnerKind::Gat.name(), "GAT");
    }

    #[test]
    fn build_produces_requested_dim() {
        for kind in LearnerKind::ALL_EXTENDED {
            let l = kind.build(32);
            assert_eq!(l.dim(), 32, "{}", kind.name());
        }
    }

    #[test]
    fn minibatch_kinds_build_and_name() {
        let kind = LearnerKind::GraphSageMini;
        assert_eq!(kind.name(), "GraphSAGE-mb");
        let l = kind.build(16);
        assert_eq!(l.dim(), 16);
        assert_eq!(l.name(), "GraphSAGE-mb");
    }
}
