//! GraphSAGE (Hamilton et al., NeurIPS 2017) with a mean aggregator — the
//! paper's Eq. 4 — trained full-batch for link prediction, plus a
//! neighbour-sampled minibatch driver and inductive inference.
//!
//! The full-graph [`GraphLearner::embed`] path is the bit-identical
//! parity reference (locked by `tests/full_graph_bits.rs`); the
//! minibatch path trades exactness of the aggregation neighbourhood for
//! bounded peak memory: each minibatch builds its layered [`Block`]s and
//! its own scoped tape, so tape residency scales with the block size,
//! not with n².

use crate::blocks::{
    block_mean_matrix, gather_rows, relu_inplace, row_l2_normalize_inplace, MinibatchConfig,
};
use crate::learner::GraphLearner;
use crate::linkpred::build_linkpred_set;
use std::collections::HashMap;
use tg_autograd::{xavier_init, Adam, Optimizer, ParamStore, Tape};
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
}

/// Weights of a trained two-layer GraphSAGE, detached from any tape:
/// enough to embed any node of any graph inductively by sampling its
/// neighbourhood — the serving-side "embed a new node without retraining"
/// path.
#[derive(Clone, Debug)]
pub struct TrainedSage {
    w_self1: Matrix,
    w_neigh1: Matrix,
    w_self2: Matrix,
    w_neigh2: Matrix,
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
        self.w_self2.cols()
    }

    /// Inductively embeds `nodes` of `graph` (any graph with the same
    /// feature width as training): samples their layered neighbourhood
    /// with the deterministic inference sampler and runs the trained
    /// layers tape-free. Rows are returned in `nodes` order.
    pub fn embed_nodes(&self, graph: &Graph, features: &Matrix, nodes: &[usize]) -> Matrix {
        assert_eq!(
            features.rows(),
            graph.num_nodes(),
            "TrainedSage: feature rows != nodes"
        );
        assert_eq!(
            features.cols(),
            self.w_self1.rows(),
            "TrainedSage: feature width != trained width"
        );
        let csr = Csr::from_graph(graph);
        let sampler = NeighborSampler::new(self.fanouts.clone(), self.infer_seed);
        let blocks = sampler.sample_blocks(&csr, nodes);
        self.forward_blocks(&blocks, features)
    }

    /// Embeds every node of `graph` (inductive inference over the full
    /// node set; deterministic).
    pub fn embed_all(&self, graph: &Graph, features: &Matrix) -> Matrix {
        let nodes: Vec<usize> = (0..graph.num_nodes()).collect();
        self.embed_nodes(graph, features, &nodes)
    }

    /// Tape-free forward over sampled blocks (input-first order).
    fn forward_blocks(&self, blocks: &[Block], features: &Matrix) -> Matrix {
        let x = gather_rows(features, blocks[0].src_nodes());
        let a0 = block_mean_matrix(&blocks[0]);
        let x_dst = gather_rows(&x, &(0..blocks[0].num_dst()).collect::<Vec<_>>());
        let mut h1 = x_dst.matmul(&self.w_self1);
        let agg = a0.matmul(&x).matmul(&self.w_neigh1);
        add_assign(&mut h1, &agg);
        relu_inplace(&mut h1);

        let a1 = block_mean_matrix(&blocks[1]);
        let h1_dst = gather_rows(&h1, &(0..blocks[1].num_dst()).collect::<Vec<_>>());
        let mut h2 = h1_dst.matmul(&self.w_self2);
        let agg2 = a1.matmul(&h1).matmul(&self.w_neigh2);
        add_assign(&mut h2, &agg2);
        row_l2_normalize_inplace(&mut h2);
        h2
    }
}

fn add_assign(dst: &mut Matrix, src: &Matrix) {
    debug_assert_eq!(dst.shape(), src.shape());
    for (d, s) in dst.as_mut_slice().iter_mut().zip(src.as_slice()) {
        *d += s;
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
        let f = features.cols();
        let fanouts = cfg.fanouts_for(2);

        let mut store = ParamStore::new();
        let w_self1 = store.add("sage.w_self1", xavier_init(rng, f, self.hidden));
        let w_neigh1 = store.add("sage.w_neigh1", xavier_init(rng, f, self.hidden));
        let w_self2 = store.add("sage.w_self2", xavier_init(rng, self.hidden, self.dim));
        let w_neigh2 = store.add("sage.w_neigh2", xavier_init(rng, self.hidden, self.dim));

        let set = build_linkpred_set(graph, rng);
        let trained = |store: &ParamStore| TrainedSage {
            w_self1: store.value(w_self1).clone(),
            w_neigh1: store.value(w_neigh1).clone(),
            w_self2: store.value(w_self2).clone(),
            w_neigh2: store.value(w_neigh2).clone(),
            fanouts: fanouts.clone(),
            infer_seed: INFER_SEED,
        };
        if set.is_empty() {
            return trained(&store);
        }

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
                tape.scope(|t| {
                    let emb = sage_forward_tape(
                        t, &store, &blocks, features, w_self1, w_neigh1, w_self2, w_neigh2,
                    );
                    let targets = Matrix::from_vec(labels.len(), 1, labels.clone());
                    let eu = t.gather_rows(emb, u_loc.clone());
                    let ev = t.gather_rows(emb, v_loc.clone());
                    let prod = t.mul_elem(eu, ev);
                    let raw = t.row_sum(prod);
                    let logits = t.scalar_mul(raw, 5.0);
                    let loss = t.bce_with_logits(logits, &targets);
                    t.backward(loss);
                    store.zero_grads();
                    t.accumulate_grads(&mut store);
                    store.clip_grad_norm(5.0);
                    opt.step(&mut store);
                });
            }
        }
        trained(&store)
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

/// Two-layer GraphSAGE forward over blocks on a tape. The seed nodes'
/// embeddings come out as the rows of the returned var, in the order of
/// `blocks.last().dst_nodes()`.
#[allow(
    clippy::too_many_arguments,
    reason = "the four layer weights are separate tape params; bundling them adds a type for one caller"
)]
fn sage_forward_tape(
    tape: &mut Tape,
    store: &ParamStore,
    blocks: &[Block],
    features: &Matrix,
    w_self1: tg_autograd::ParamId,
    w_neigh1: tg_autograd::ParamId,
    w_self2: tg_autograd::ParamId,
    w_neigh2: tg_autograd::ParamId,
) -> tg_autograd::Var {
    let x = tape.constant(gather_rows(features, blocks[0].src_nodes()));
    let a0 = tape.constant(block_mean_matrix(&blocks[0]));
    let ws1 = tape.param(store, w_self1);
    let wn1 = tape.param(store, w_neigh1);
    let x_dst = tape.gather_rows(x, (0..blocks[0].num_dst()).collect());
    let self1 = tape.matmul(x_dst, ws1);
    let agg_in = tape.matmul(a0, x);
    let neigh1 = tape.matmul(agg_in, wn1);
    let h1 = tape.add(self1, neigh1);
    let h1 = tape.relu(h1);

    let a1 = tape.constant(block_mean_matrix(&blocks[1]));
    let ws2 = tape.param(store, w_self2);
    let wn2 = tape.param(store, w_neigh2);
    let h1_dst = tape.gather_rows(h1, (0..blocks[1].num_dst()).collect());
    let self2 = tape.matmul(h1_dst, ws2);
    let agg_h1 = tape.matmul(a1, h1);
    let neigh2 = tape.matmul(agg_h1, wn2);
    let h2 = tape.add(self2, neigh2);
    tape.row_l2_normalize(h2)
}

impl GraphLearner for GraphSage {
    fn name(&self) -> &'static str {
        "GraphSAGE"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn embed(&self, graph: &Graph, features: &Matrix, rng: &mut Rng) -> Matrix {
        let n = graph.num_nodes();
        assert_eq!(features.rows(), n, "GraphSage: feature rows != nodes");
        let f = features.cols();
        let a_hat = mean_adjacency(graph);
        let set = build_linkpred_set(graph, rng);
        if set.is_empty() {
            return Matrix::zeros(n, self.dim);
        }
        let targets = Matrix::from_vec(set.len(), 1, set.labels.clone());

        let mut store = ParamStore::new();
        let w_self1 = store.add("sage.w_self1", xavier_init(rng, f, self.hidden));
        let w_neigh1 = store.add("sage.w_neigh1", xavier_init(rng, f, self.hidden));
        let w_self2 = store.add("sage.w_self2", xavier_init(rng, self.hidden, self.dim));
        let w_neigh2 = store.add("sage.w_neigh2", xavier_init(rng, self.hidden, self.dim));
        let mut opt = Adam::new(self.lr);

        let mut final_emb = Matrix::zeros(n, self.dim);
        for epoch in 0..=self.epochs {
            let mut tape = Tape::new();
            let x = tape.constant(features.clone());
            let adj = tape.constant(a_hat.clone());
            // Layer 1: h = ReLU(X W_s + Â X W_n)  (Eq. 4, sum combine).
            let ws1 = tape.param(&store, w_self1);
            let wn1 = tape.param(&store, w_neigh1);
            let self1 = tape.matmul(x, ws1);
            let agg_in = tape.matmul(adj, x);
            let neigh1 = tape.matmul(agg_in, wn1);
            let h1 = tape.add(self1, neigh1);
            let h1 = tape.relu(h1);
            // Layer 2, then row-L2 normalisation (standard GraphSAGE).
            let ws2 = tape.param(&store, w_self2);
            let wn2 = tape.param(&store, w_neigh2);
            let self2 = tape.matmul(h1, ws2);
            let agg_h1 = tape.matmul(adj, h1);
            let neigh2 = tape.matmul(agg_h1, wn2);
            let h2 = tape.add(self2, neigh2);
            let emb = tape.row_l2_normalize(h2);

            if epoch == self.epochs {
                final_emb = tape.value(emb).clone();
                break;
            }

            // Dot-product link prediction head.
            let eu = tape.gather_rows(emb, set.us.clone());
            let ev = tape.gather_rows(emb, set.vs.clone());
            let prod = tape.mul_elem(eu, ev);
            let raw = tape.row_sum(prod);
            // Temperature: unit-norm dots live in [-1,1]; scale so the
            // sigmoid can saturate.
            let logits = tape.scalar_mul(raw, 5.0);
            let loss = tape.bce_with_logits(logits, &targets);
            tape.backward(loss);
            store.zero_grads();
            tape.accumulate_grads(&mut store);
            store.clip_grad_norm(5.0);
            opt.step(&mut store);
        }
        final_emb
    }
}

/// [`GraphLearner`] adapter for the minibatch driver: trains with
/// neighbour-sampled blocks, then embeds every node inductively. Lets the
/// evaluation pipeline swap `GraphSage` for its minibatch twin without
/// other changes (used by the parity gate of the `minibatch` bench).
#[derive(Clone, Debug)]
pub struct MiniGraphSage {
    /// The underlying architecture/hyperparameters.
    pub inner: GraphSage,
    /// Sampling and batching configuration.
    pub cfg: MinibatchConfig,
}

impl MiniGraphSage {
    /// Minibatch GraphSAGE with the given output dimension and the
    /// default sampling config ([`MinibatchConfig::default`]).
    pub fn with_dim(dim: usize) -> Self {
        MiniGraphSage {
            inner: GraphSage::with_dim(dim),
            cfg: MinibatchConfig::default(),
        }
    }
}

impl GraphLearner for MiniGraphSage {
    fn name(&self) -> &'static str {
        "GraphSAGE-mb"
    }

    fn dim(&self) -> usize {
        self.inner.dim
    }

    fn embed(&self, graph: &Graph, features: &Matrix, rng: &mut Rng) -> Matrix {
        if graph.edges().is_empty() {
            return Matrix::zeros(graph.num_nodes(), self.inner.dim);
        }
        let trained = self.inner.train_minibatch(graph, features, rng, &self.cfg);
        trained.embed_all(graph, features)
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
