//! GCN (Kipf & Welling, ICLR 2017) — the representative convolutional
//! graph learner the paper's related work (§VIII-B2) cites alongside
//! GraphSAGE. Included so the learner comparison covers the full family.
//!
//! Layer rule: `H' = σ(D̂^{-1/2} Â D̂^{-1/2} H W)` with `Â = A + I`
//! (self-loops) and `D̂` its degree matrix. Trained with the same
//! link-prediction head as the other GNNs.

use crate::linkpred::train_full_batch;
use tg_autograd::xavier_init;
use tg_graph::adjacency::normalized_adjacency;
use tg_graph::Graph;
use tg_linalg::Matrix;
use tg_rng::Rng;

/// GCN configuration.
#[derive(Clone, Debug)]
pub struct Gcn {
    /// Output embedding dimension.
    pub dim: usize,
    /// Hidden width of the first layer.
    pub hidden: usize,
    /// Training epochs (full-batch Adam).
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
}

impl Gcn {
    /// Default configuration with the given output dimension.
    pub fn with_dim(dim: usize) -> Self {
        Gcn {
            dim,
            hidden: dim,
            epochs: 120,
            lr: 0.01,
        }
    }

    /// Trains on `graph` with `features` (`num_nodes × f`) and returns a
    /// `num_nodes × dim` embedding matrix.
    pub fn embed(&self, graph: &Graph, features: &Matrix, rng: &mut Rng) -> Matrix {
        assert_eq!(
            features.rows(),
            graph.num_nodes(),
            "Gcn: feature rows != nodes"
        );
        let a_norm = normalized_adjacency(graph);
        train_full_batch(
            graph,
            self.dim,
            self.epochs,
            self.lr,
            rng,
            |store, rng| {
                let w1 = store.add("gcn.w1", xavier_init(rng, features.cols(), self.hidden));
                let w2 = store.add("gcn.w2", xavier_init(rng, self.hidden, self.dim));
                (w1, w2)
            },
            |tape, store, &(w1, w2)| {
                let x = tape.constant(features.clone());
                let adj = tape.constant(a_norm.clone());
                let w1v = tape.param(store, w1);
                let w2v = tape.param(store, w2);
                // Layer 1: ReLU(Â X W1).
                let ax = tape.matmul(adj, x);
                let h1 = tape.matmul(ax, w1v);
                let h1 = tape.relu(h1);
                // Layer 2: Â H W2, row-normalised for the dot-product head.
                let ah = tape.matmul(adj, h1);
                let h2 = tape.matmul(ah, w2v);
                tape.row_l2_normalize(h2)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_graph::fixtures::two_cliques;
    use tg_linalg::distance::cosine_similarity;

    #[test]
    fn embedding_shape_and_finite() {
        let g = two_cliques();
        let features = Matrix::from_fn(8, 4, |r, c| ((r * 2 + c) as f64 * 0.53).sin());
        let gcn = Gcn {
            epochs: 30,
            ..Gcn::with_dim(8)
        };
        let emb = gcn.embed(&g, &features, &mut Rng::seed_from_u64(1));
        assert_eq!(emb.shape(), (8, 8));
        assert!(!emb.has_non_finite());
    }

    #[test]
    fn clique_members_embed_together() {
        let g = two_cliques();
        let features = Matrix::from_fn(8, 4, |r, c| {
            let side = if r < 4 { 1.0 } else { -1.0 };
            side * 0.5 + ((r * 4 + c) as f64 * 0.7).sin() * 0.3
        });
        let gcn = Gcn {
            epochs: 80,
            ..Gcn::with_dim(8)
        };
        let emb = gcn.embed(&g, &features, &mut Rng::seed_from_u64(2));
        let within = cosine_similarity(emb.row(0), emb.row(1));
        let cross = cosine_similarity(emb.row(0), emb.row(5));
        assert!(within > cross, "within {within} cross {cross}");
    }
}
