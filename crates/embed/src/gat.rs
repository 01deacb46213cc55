//! Graph attention network (Veličković et al., ICLR 2018) — the paper's
//! Eq. 5 — with masked self-attention, trained full-batch for link
//! prediction.

use crate::linkpred::train_full_batch;
use tg_autograd::{xavier_init, ParamStore, Tape, Var};
use tg_graph::adjacency::attention_mask;
use tg_graph::Graph;
use tg_linalg::Matrix;
use tg_rng::Rng;

/// GAT configuration. The first layer uses `heads` attention heads with
/// concatenated outputs (as in the original GAT); the output layer uses a
/// single head.
#[derive(Clone, Debug)]
pub struct Gat {
    /// Output embedding dimension.
    pub dim: usize,
    /// Hidden width *per head* of the first layer.
    pub hidden: usize,
    /// Attention heads in the first layer.
    pub heads: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// LeakyReLU slope in the attention logits (0.2 in the original GAT).
    pub leaky_slope: f64,
}

impl Gat {
    /// Default configuration with the given output dimension: 4 heads of
    /// `dim/4` hidden units each (so the concatenated width stays `dim`).
    pub fn with_dim(dim: usize) -> Self {
        let heads = 4;
        Gat {
            dim,
            hidden: (dim / heads).max(4),
            heads,
            epochs: 120,
            lr: 0.005,
            leaky_slope: 0.2,
        }
    }
}

struct GatLayer {
    w: tg_autograd::ParamId,
    a_src: tg_autograd::ParamId,
    a_dst: tg_autograd::ParamId,
}

impl GatLayer {
    fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        fan_in: usize,
        fan_out: usize,
    ) -> Self {
        GatLayer {
            w: store.add(format!("{name}.w"), xavier_init(rng, fan_in, fan_out)),
            a_src: store.add(format!("{name}.a_src"), xavier_init(rng, fan_out, 1)),
            a_dst: store.add(format!("{name}.a_dst"), xavier_init(rng, fan_out, 1)),
        }
    }

    /// One masked self-attention layer (Eq. 5):
    /// `α_ij = softmax_j(LeakyReLU(aᵀ[Wh_i ‖ Wh_j]))`, out `= α (W H)`.
    /// The bilinear form `aᵀ[x‖y]` decomposes as `a_srcᵀx + a_dstᵀy`, which
    /// is the `add_outer` of two projected column vectors.
    fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        h: Var,
        mask: &Matrix,
        slope: f64,
    ) -> Var {
        let w = tape.param(store, self.w);
        let a1 = tape.param(store, self.a_src);
        let a2 = tape.param(store, self.a_dst);
        let hp = tape.matmul(h, w);
        let s = tape.matmul(hp, a1);
        let t = tape.matmul(hp, a2);
        let e = tape.add_outer(s, t);
        let e = tape.leaky_relu(e, slope);
        let e = tape.masked_fill(e, mask.clone(), -1e30);
        let alpha = tape.row_softmax(e);
        tape.matmul(alpha, hp)
    }
}

impl Gat {
    /// Trains on `graph` with `features` (`num_nodes × f`) and returns a
    /// `num_nodes × dim` embedding matrix.
    pub fn embed(&self, graph: &Graph, features: &Matrix, rng: &mut Rng) -> Matrix {
        assert_eq!(
            features.rows(),
            graph.num_nodes(),
            "Gat: feature rows != nodes"
        );
        let mask = attention_mask(graph);
        train_full_batch(
            graph,
            self.dim,
            self.epochs,
            self.lr,
            rng,
            |store, rng| {
                let heads: Vec<GatLayer> = (0..self.heads.max(1))
                    .map(|h| {
                        GatLayer::new(
                            store,
                            rng,
                            &format!("gat.l1.h{h}"),
                            features.cols(),
                            self.hidden,
                        )
                    })
                    .collect();
                let l2 = GatLayer::new(store, rng, "gat.l2", self.hidden * heads.len(), self.dim);
                (heads, l2)
            },
            |tape, store, (heads, l2)| {
                let x = tape.constant(features.clone());
                // Multi-head layer 1: concatenate per-head outputs.
                let mut h1 = heads[0].forward(tape, store, x, &mask, self.leaky_slope);
                for head in &heads[1..] {
                    let hh = head.forward(tape, store, x, &mask, self.leaky_slope);
                    h1 = tape.concat_cols(h1, hh);
                }
                let h1 = tape.relu(h1);
                let h2 = l2.forward(tape, store, h1, &mask, self.leaky_slope);
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
    fn multi_head_and_single_head_both_work() {
        let g = two_cliques();
        let features = Matrix::from_fn(8, 4, |r, c| ((r + c) as f64 * 0.61).sin());
        for heads in [1, 2, 4] {
            let gat = Gat {
                heads,
                hidden: 4,
                epochs: 20,
                ..Gat::with_dim(8)
            };
            let emb = gat.embed(&g, &features, &mut Rng::seed_from_u64(3));
            assert_eq!(emb.shape(), (8, 8), "heads={heads}");
            assert!(!emb.has_non_finite(), "heads={heads}");
        }
    }

    #[test]
    fn embedding_shape_and_finite() {
        let g = two_cliques();
        let features = Matrix::from_fn(8, 4, |r, c| ((r * 3 + c) as f64 * 0.41).cos());
        let gat = Gat {
            epochs: 30,
            ..Gat::with_dim(8)
        };
        let emb = gat.embed(&g, &features, &mut Rng::seed_from_u64(1));
        assert_eq!(emb.shape(), (8, 8));
        assert!(!emb.has_non_finite());
    }

    #[test]
    fn clique_members_embed_together() {
        let g = two_cliques();
        let features = Matrix::from_fn(8, 4, |r, c| {
            let side = if r < 4 { 1.0 } else { -1.0 };
            side * 0.5 + ((r * 4 + c) as f64 * 1.3).sin() * 0.3
        });
        let gat = Gat {
            epochs: 80,
            ..Gat::with_dim(8)
        };
        let emb = gat.embed(&g, &features, &mut Rng::seed_from_u64(2));
        let within = cosine_similarity(emb.row(0), emb.row(1));
        let cross = cosine_similarity(emb.row(0), emb.row(5));
        assert!(within > cross, "within {within} cross {cross}");
    }
}
