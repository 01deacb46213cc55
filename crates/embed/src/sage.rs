//! GraphSAGE (Hamilton et al., NeurIPS 2017) with a mean aggregator — the
//! paper's Eq. 4 — trained full-batch for link prediction, plus a
//! neighbour-sampled minibatch driver and inductive inference.
//!
//! The full-graph [`GraphSage::embed`] path is the bit-identical parity
//! reference (locked by `tests/full_graph_bits.rs`); the minibatch path
//! trades exactness of the aggregation neighbourhood for bounded peak
//! memory: each minibatch builds its layered [`Block`]s and its own scoped
//! tape, so tape residency scales with the block size, not with n².
//! Inductive inference runs the same block forward on a tape of its own.

use crate::blocks::{block_mean_matrix, gather_rows, MinibatchConfig};
use crate::linkpred::{build_linkpred_set, linkpred_step, train_full_batch};
use std::collections::HashMap;
use tg_autograd::{xavier_init, Adam, ParamId, ParamStore, Tape, Var};
use tg_graph::adjacency::mean_adjacency;
use tg_graph::{Block, Csr, Graph, NeighborSampler};
use tg_linalg::Matrix;
use tg_rng::Rng;

/// GraphSAGE configuration.
#[derive(Clone, Debug)]
pub struct GraphSage {
    /// Output embedding dimension.
    pub dim: usize,
    /// Hidden width of the first layer.
    pub hidden: usize,
    /// Training epochs (full-batch Adam).
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
}

/// The four weights of a two-layer GraphSAGE, registered in a
/// [`ParamStore`] in this order.
#[derive(Clone, Copy, Debug)]
struct SageWeights {
    self1: ParamId,
    neigh1: ParamId,
    self2: ParamId,
    neigh2: ParamId,
}

impl GraphSage {
    /// Default configuration with the given output dimension.
    pub fn with_dim(dim: usize) -> Self {
        GraphSage {
            dim,
            hidden: dim,
            epochs: 120,
            lr: 0.01,
        }
    }

    /// Xavier-initialises the four layer weights for `f`-wide features.
    fn init_weights(&self, store: &mut ParamStore, rng: &mut Rng, f: usize) -> SageWeights {
        SageWeights {
            self1: store.add("sage.w_self1", xavier_init(rng, f, self.hidden)),
            neigh1: store.add("sage.w_neigh1", xavier_init(rng, f, self.hidden)),
            self2: store.add("sage.w_self2", xavier_init(rng, self.hidden, self.dim)),
            neigh2: store.add("sage.w_neigh2", xavier_init(rng, self.hidden, self.dim)),
        }
    }
}

/// A two-layer GraphSAGE trained by [`GraphSage::train_minibatch`]: its
/// parameter store, enough to embed any node of any graph inductively by
/// sampling its neighbourhood — the serving-side "embed a new node without
/// retraining" path.
pub struct TrainedSage {
    store: ParamStore,
    weights: SageWeights,
    fanouts: Vec<usize>,
    /// Seed of the deterministic inference-time neighbour sampler.
    infer_seed: u64,
}

/// The fixed inference-sampling seed: inference must be a pure function
/// of (weights, graph, nodes), so it cannot consume a caller RNG.
const INFER_SEED: u64 = 0x5a9e_cafe;

impl TrainedSage {
    /// Output embedding dimension.
    pub fn dim(&self) -> usize {
        self.store.value(self.weights.self2).cols()
    }

    /// Inductively embeds `nodes` of `graph` (any graph with the same
    /// feature width as training): samples their layered neighbourhood
    /// with the deterministic inference sampler and runs the training
    /// forward over it on a fresh tape. Rows are returned in `nodes` order.
    pub fn embed_nodes(&self, graph: &Graph, features: &Matrix, nodes: &[usize]) -> Matrix {
        assert_eq!(
            features.rows(),
            graph.num_nodes(),
            "TrainedSage: feature rows != nodes"
        );
        assert_eq!(
            features.cols(),
            self.store.value(self.weights.self1).rows(),
            "TrainedSage: feature width != trained width"
        );
        let csr = Csr::from_graph(graph);
        let sampler = NeighborSampler::new(self.fanouts.clone(), self.infer_seed);
        let blocks = sampler.sample_blocks(&csr, nodes);
        let mut tape = Tape::new();
        let emb = sage_forward_tape(&mut tape, &self.store, &self.weights, &blocks, features);
        tape.value(emb).clone()
    }

    /// Embeds every node of `graph` (inductive inference over the full
    /// node set; deterministic).
    pub fn embed_all(&self, graph: &Graph, features: &Matrix) -> Matrix {
        let nodes: Vec<usize> = (0..graph.num_nodes()).collect();
        self.embed_nodes(graph, features, &nodes)
    }
}

impl GraphSage {
    /// Minibatch training: neighbour-sampled blocks on one scoped tape
    /// per batch, Adam step per batch, against a shared `ParamStore`.
    /// Returns the trained weights for inductive inference.
    ///
    /// Peak tape residency is bounded by the largest sampled block (see
    /// `Tape::peak_bytes`), not by n² as in the full-graph driver.
    pub fn train_minibatch(
        &self,
        graph: &Graph,
        features: &Matrix,
        rng: &mut Rng,
        cfg: &MinibatchConfig,
    ) -> TrainedSage {
        let n = graph.num_nodes();
        assert_eq!(features.rows(), n, "GraphSage: feature rows != nodes");
        let fanouts = cfg.fanouts_for(2);
        let mut store = ParamStore::new();
        let weights = self.init_weights(&mut store, rng, features.cols());
        let set = build_linkpred_set(graph, rng);
        if !set.is_empty() {
            let csr = Csr::from_graph(graph);
            let sample_seed = rng.next_u64();
            let mut opt = Adam::new(self.lr);
            let mut tape = Tape::new();
            let epochs = cfg.epochs.unwrap_or(self.epochs);
            let mut order: Vec<usize> = (0..set.len()).collect();
            for epoch in 0..epochs {
                rng.shuffle(&mut order);
                for (batch_idx, chunk) in order.chunks(cfg.batch).enumerate() {
                    // One deterministic sampler stream per (epoch, batch).
                    let sampler = NeighborSampler::new(
                        fanouts.clone(),
                        sample_seed ^ ((epoch as u64) << 32) ^ batch_idx as u64,
                    );
                    let (seeds, u_loc, v_loc, labels) =
                        batch_pairs(&set.us, &set.vs, &set.labels, chunk);
                    let blocks = sampler.sample_blocks(&csr, &seeds);
                    let targets = Matrix::from_vec(labels.len(), 1, labels);
                    tape.scope(|t| {
                        let emb = sage_forward_tape(t, &store, &weights, &blocks, features);
                        linkpred_step(t, &mut store, &mut opt, emb, u_loc, v_loc, &targets);
                    });
                }
            }
        }
        TrainedSage {
            store,
            weights,
            fanouts,
            infer_seed: INFER_SEED,
        }
    }
}

/// Collects a batch's pair endpoints: unique seed nodes (first-appearance
/// order) plus the pairs' endpoint positions within them.
fn batch_pairs(
    us: &[usize],
    vs: &[usize],
    labels: &[f64],
    chunk: &[usize],
) -> (Vec<usize>, Vec<usize>, Vec<usize>, Vec<f64>) {
    let mut seeds = Vec::new();
    let mut pos: HashMap<usize, usize> = HashMap::new();
    let mut local = |node: usize, seeds: &mut Vec<usize>| -> usize {
        let next = seeds.len();
        *pos.entry(node).or_insert_with(|| {
            seeds.push(node);
            next
        })
    };
    let mut u_loc = Vec::with_capacity(chunk.len());
    let mut v_loc = Vec::with_capacity(chunk.len());
    let mut lab = Vec::with_capacity(chunk.len());
    for &i in chunk {
        u_loc.push(local(us[i], &mut seeds));
        v_loc.push(local(vs[i], &mut seeds));
        lab.push(labels[i]);
    }
    (seeds, u_loc, v_loc, lab)
}

/// Two-layer GraphSAGE forward over blocks on a tape, shared by minibatch
/// training and inductive inference. The seed nodes' embeddings come out
/// as the rows of the returned var, in the order of
/// `blocks.last().dst_nodes()`.
fn sage_forward_tape(
    tape: &mut Tape,
    store: &ParamStore,
    w: &SageWeights,
    blocks: &[Block],
    features: &Matrix,
) -> Var {
    let x = tape.constant(gather_rows(features, blocks[0].src_nodes()));
    let a0 = tape.constant(block_mean_matrix(&blocks[0]));
    let ws1 = tape.param(store, w.self1);
    let wn1 = tape.param(store, w.neigh1);
    let x_dst = tape.gather_rows(x, (0..blocks[0].num_dst()).collect());
    let self1 = tape.matmul(x_dst, ws1);
    let agg_in = tape.matmul(a0, x);
    let neigh1 = tape.matmul(agg_in, wn1);
    let h1 = tape.add(self1, neigh1);
    let h1 = tape.relu(h1);

    let a1 = tape.constant(block_mean_matrix(&blocks[1]));
    let ws2 = tape.param(store, w.self2);
    let wn2 = tape.param(store, w.neigh2);
    let h1_dst = tape.gather_rows(h1, (0..blocks[1].num_dst()).collect());
    let self2 = tape.matmul(h1_dst, ws2);
    let agg_h1 = tape.matmul(a1, h1);
    let neigh2 = tape.matmul(agg_h1, wn2);
    let h2 = tape.add(self2, neigh2);
    tape.row_l2_normalize(h2)
}

impl GraphSage {
    /// Trains full-batch on `graph` with `features` (`num_nodes × f`) and
    /// returns a `num_nodes × dim` embedding matrix.
    pub fn embed(&self, graph: &Graph, features: &Matrix, rng: &mut Rng) -> Matrix {
        assert_eq!(
            features.rows(),
            graph.num_nodes(),
            "GraphSage: feature rows != nodes"
        );
        let a_hat = mean_adjacency(graph);
        train_full_batch(
            graph,
            self.dim,
            self.epochs,
            self.lr,
            rng,
            |store, rng| self.init_weights(store, rng, features.cols()),
            |tape, store, w| {
                let x = tape.constant(features.clone());
                let adj = tape.constant(a_hat.clone());
                // Layer 1: h = ReLU(X W_s + Â X W_n)  (Eq. 4, sum combine).
                let ws1 = tape.param(store, w.self1);
                let wn1 = tape.param(store, w.neigh1);
                let self1 = tape.matmul(x, ws1);
                let agg_in = tape.matmul(adj, x);
                let neigh1 = tape.matmul(agg_in, wn1);
                let h1 = tape.add(self1, neigh1);
                let h1 = tape.relu(h1);
                // Layer 2, then row-L2 normalisation (standard GraphSAGE).
                let ws2 = tape.param(store, w.self2);
                let wn2 = tape.param(store, w.neigh2);
                let self2 = tape.matmul(h1, ws2);
                let agg_h1 = tape.matmul(adj, h1);
                let neigh2 = tape.matmul(agg_h1, wn2);
                let h2 = tape.add(self2, neigh2);
                tape.row_l2_normalize(h2)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_graph::fixtures::two_cliques;
    use tg_graph::NodeKind;
    use tg_linalg::distance::cosine_similarity;
    use tg_zoo::ModelId;

    #[test]
    fn embedding_shape_and_finite() {
        let g = two_cliques();
        let features = Matrix::from_fn(8, 4, |r, c| ((r + c) as f64 * 0.37).sin());
        let sage = GraphSage {
            epochs: 30,
            ..GraphSage::with_dim(8)
        };
        let emb = sage.embed(&g, &features, &mut Rng::seed_from_u64(1));
        assert_eq!(emb.shape(), (8, 8));
        assert!(!emb.has_non_finite());
    }

    #[test]
    fn clique_members_embed_together() {
        let g = two_cliques();
        // Features weakly indicate the clique.
        let features = Matrix::from_fn(8, 4, |r, c| {
            let side = if r < 4 { 1.0 } else { -1.0 };
            side * 0.5 + ((r * 4 + c) as f64 * 0.9).sin() * 0.3
        });
        let sage = GraphSage {
            epochs: 80,
            ..GraphSage::with_dim(8)
        };
        let emb = sage.embed(&g, &features, &mut Rng::seed_from_u64(2));
        let within = cosine_similarity(emb.row(0), emb.row(1));
        let cross = cosine_similarity(emb.row(0), emb.row(5));
        assert!(within > cross, "within {within} cross {cross}");
    }

    #[test]
    fn empty_linkpred_yields_zeros() {
        // Graph with nodes but no edges at all.
        let mut g = Graph::new();
        for i in 0..3 {
            g.add_node(NodeKind::Model(ModelId(i)));
        }
        let features = Matrix::zeros(3, 2);
        let sage = GraphSage::with_dim(4);
        let emb = sage.embed(&g, &features, &mut Rng::seed_from_u64(3));
        assert_eq!(emb.shape(), (3, 4));
    }

    #[test]
    fn minibatch_training_embeds_cliques_together() {
        let g = two_cliques();
        let features = Matrix::from_fn(8, 4, |r, c| {
            let side = if r < 4 { 1.0 } else { -1.0 };
            side * 0.5 + ((r * 4 + c) as f64 * 0.9).sin() * 0.3
        });
        let sage = GraphSage {
            epochs: 80,
            ..GraphSage::with_dim(8)
        };
        let cfg = MinibatchConfig {
            fanouts: vec![3, 3],
            batch: 8,
            epochs: None,
        };
        let trained = sage.train_minibatch(&g, &features, &mut Rng::seed_from_u64(2), &cfg);
        let emb = trained.embed_all(&g, &features);
        assert_eq!(emb.shape(), (8, 8));
        assert!(!emb.has_non_finite());
        let within = cosine_similarity(emb.row(0), emb.row(1));
        let cross = cosine_similarity(emb.row(0), emb.row(5));
        assert!(within > cross, "within {within} cross {cross}");
    }

    #[test]
    fn inductive_embedding_is_deterministic_and_matches_embed_all() {
        let g = two_cliques();
        let features = Matrix::from_fn(8, 4, |r, c| ((r * 2 + c) as f64 * 0.53).cos());
        let sage = GraphSage {
            epochs: 15,
            ..GraphSage::with_dim(8)
        };
        let cfg = MinibatchConfig::default();
        let trained = sage.train_minibatch(&g, &features, &mut Rng::seed_from_u64(5), &cfg);
        let all = trained.embed_all(&g, &features);
        let some = trained.embed_nodes(&g, &features, &[3, 6]);
        // Same node, same weights, same inference sampler → same row up to
        // summation-order rounding (the sampled frontier is ordered by
        // seed-set, so accumulation order differs between the two calls).
        for c in 0..8 {
            assert!((some.get(0, c) - all.get(3, c)).abs() < 1e-12);
            assert!((some.get(1, c) - all.get(6, c)).abs() < 1e-12);
        }
        // Identical call → bit-identical result.
        let again = trained.embed_nodes(&g, &features, &[3, 6]);
        assert_eq!(some.as_slice(), again.as_slice());
    }

    #[test]
    fn batch_pairs_maps_endpoints_consistently() {
        let us = vec![0, 2, 4];
        let vs = vec![2, 3, 0];
        let labels = vec![1.0, 0.0, 1.0];
        let (seeds, ul, vl, lab) = batch_pairs(&us, &vs, &labels, &[0, 1, 2]);
        assert_eq!(seeds, vec![0, 2, 3, 4]);
        assert_eq!(ul, vec![0, 1, 3]);
        assert_eq!(vl, vec![1, 2, 0]);
        assert_eq!(lab, labels);
    }
}
