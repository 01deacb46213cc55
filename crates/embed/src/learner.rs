//! [`LearnerKind`]: the graph learners the TransferGraph pipeline can run,
//! and the one dispatch that trains them.

use crate::{Gat, Gcn, GraphSage, MinibatchConfig, Node2Vec};
use tg_graph::Graph;
use tg_linalg::Matrix;
use tg_rng::Rng;

/// Enumeration of the learners for experiment dispatch.
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

    /// Trains the learner's default configuration at embedding dimension
    /// `dim` on `graph` and returns a `num_nodes × dim` embedding matrix.
    ///
    /// `features` is the node-feature matrix (`num_nodes × f`). The walk
    /// learners ignore it (the paper notes Node2Vec learns the link
    /// structure only); the GNNs consume it. `GraphSAGE-mb` trains with
    /// [`MinibatchConfig::default`] and embeds every node inductively.
    pub fn embed(&self, dim: usize, graph: &Graph, features: &Matrix, rng: &mut Rng) -> Matrix {
        match self {
            LearnerKind::Node2Vec => Node2Vec::with_dim(dim).embed(graph, rng),
            LearnerKind::Node2VecPlus => Node2Vec::plus_with_dim(dim).embed(graph, rng),
            LearnerKind::GraphSage => GraphSage::with_dim(dim).embed(graph, features, rng),
            LearnerKind::Gat => Gat::with_dim(dim).embed(graph, features, rng),
            LearnerKind::Gcn => Gcn::with_dim(dim).embed(graph, features, rng),
            LearnerKind::GraphSageMini => {
                if graph.edges().is_empty() {
                    return Matrix::zeros(graph.num_nodes(), dim);
                }
                GraphSage::with_dim(dim)
                    .train_minibatch(graph, features, rng, &MinibatchConfig::default())
                    .embed_all(graph, features)
            }
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
        assert_eq!(LearnerKind::Gcn.name(), "GCN");
        assert_eq!(LearnerKind::GraphSageMini.name(), "GraphSAGE-mb");
    }

    #[test]
    fn embed_produces_requested_dim() {
        let g = tg_graph::fixtures::two_cliques();
        let features = Matrix::from_fn(8, 4, |r, c| ((r + c) as f64 * 0.37).sin());
        for kind in LearnerKind::ALL_EXTENDED
            .into_iter()
            .chain([LearnerKind::GraphSageMini])
        {
            let emb = kind.embed(12, &g, &features, &mut Rng::seed_from_u64(1));
            assert_eq!(emb.shape(), (8, 12), "{}", kind.name());
        }
    }
}
