//! Node2Vec (Grover & Leskovec, KDD 2016) and Node2Vec+ (Liu et al., 2023):
//! biased random walks + SGNS.

use crate::sgns::{train_sgns, SgnsConfig};
use tg_graph::{generate_walks, Graph, WalkConfig};
use tg_linalg::Matrix;
use tg_rng::Rng;

/// Node2Vec and Node2Vec+, told apart by `walks.weighted`. Node2Vec
/// learns the link structure only (walk transitions ignore edge weights,
/// per the paper's §VII-D discussion); in Node2Vec+ the transition
/// probabilities additionally scale with edge weights, so strong
/// (high-accuracy / high-similarity) edges are traversed more often.
#[derive(Clone, Debug)]
pub struct Node2Vec {
    /// Walk hyperparameters; `weighted` selects Node2Vec+.
    pub walks: WalkConfig,
    /// SGNS hyperparameters.
    pub sgns: SgnsConfig,
}

impl Node2Vec {
    /// Default Node2Vec (unweighted walks) with the given embedding
    /// dimension.
    pub fn with_dim(dim: usize) -> Self {
        Node2Vec {
            walks: WalkConfig {
                weighted: false,
                ..Default::default()
            },
            sgns: SgnsConfig {
                dim,
                ..Default::default()
            },
        }
    }

    /// Default Node2Vec+ (edge-weighted walks) with the given embedding
    /// dimension.
    pub fn plus_with_dim(dim: usize) -> Self {
        Node2Vec {
            walks: WalkConfig {
                weighted: true,
                ..Default::default()
            },
            ..Self::with_dim(dim)
        }
    }

    /// Walks `graph` and trains SGNS on the corpus; returns a
    /// `num_nodes × sgns.dim` embedding matrix.
    pub fn embed(&self, graph: &Graph, rng: &mut Rng) -> Matrix {
        let walks = generate_walks(graph, &self.walks, rng);
        train_sgns(&walks, graph.num_nodes(), &self.sgns, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_graph::{EdgeKind, NodeKind};
    use tg_linalg::distance::cosine_similarity;
    use tg_zoo::ModelId;

    /// Barbell: two triangles {0,1,2}, {3,4,5} joined by a weak bridge 2-3.
    fn barbell() -> Graph {
        let mut g = Graph::new();
        for i in 0..6 {
            g.add_node(NodeKind::Model(ModelId(i)));
        }
        let tri = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)];
        for (a, b) in tri {
            g.add_edge(a, b, 1.0, EdgeKind::DatasetDataset);
        }
        g.add_edge(2, 3, 0.05, EdgeKind::DatasetDataset);
        g
    }

    #[test]
    fn node2vec_embeds_communities() {
        let g = barbell();
        let learner = Node2Vec::with_dim(16);
        let emb = learner.embed(&g, &mut Rng::seed_from_u64(1));
        assert_eq!(emb.shape(), (6, 16));
        let within = cosine_similarity(emb.row(0), emb.row(1));
        let cross = cosine_similarity(emb.row(0), emb.row(5));
        assert!(within > cross, "within {within} cross {cross}");
    }

    #[test]
    fn node2vec_plus_respects_weak_bridge_more() {
        // With weighted walks the weak bridge (0.05) is rarely crossed, so
        // communities separate at least as well as for the unweighted walk.
        let g = barbell();
        let gap = |emb: &Matrix| {
            let within = (cosine_similarity(emb.row(0), emb.row(1))
                + cosine_similarity(emb.row(3), emb.row(4)))
                / 2.0;
            let cross = (cosine_similarity(emb.row(0), emb.row(4))
                + cosine_similarity(emb.row(1), emb.row(5)))
                / 2.0;
            within - cross
        };
        let e_plus = Node2Vec::plus_with_dim(16).embed(&g, &mut Rng::seed_from_u64(2));
        let gap_plus = gap(&e_plus);
        assert!(gap_plus > 0.2, "N2V+ community gap too small: {gap_plus}");
    }
}
