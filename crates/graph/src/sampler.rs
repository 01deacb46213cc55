//! Deterministic, seeded neighbour sampling for minibatched GNN training
//! (GraphSAGE-style layered blocks).
//!
//! # Blocks
//!
//! A [`Block`] is one layer of a sampled computation graph: a bipartite
//! mapping from `num_src` input nodes to `num_dst` output nodes, where
//! the destination nodes are always a **prefix** of the source nodes
//! (every node aggregates its own previous-layer state alongside its
//! sampled neighbours'). [`NeighborSampler::sample_blocks`] returns the
//! blocks **input-first**: `blocks[0]` consumes raw node features,
//! `blocks.last()` produces the seed nodes' outputs.
//!
//! # Determinism
//!
//! Each (sampler seed, layer, node) triple gets its own RNG stream, a
//! pure function of those three values — never of worker id, thread
//! interleaving, or the order in which minibatches are scheduled. On top
//! of the sorted neighbour runs of [`Csr`], this makes the sampled blocks
//! bit-identical at any thread count: two workers sampling the same seed
//! nodes with the same sampler produce the same blocks.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::csr::Csr;
use tg_rng::{splitmix64, Rng};

/// One sampled edge inside a block, in block-local coordinates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockEdge {
    /// Destination (output-side) node, indexing [`Block::dst_nodes`].
    pub dst: usize,
    /// Source (input-side) node, indexing [`Block::src_nodes`].
    pub src: usize,
    /// The underlying graph edge weight.
    pub weight: f64,
}

/// One layer of a sampled message-passing computation: `num_src` input
/// nodes feeding `num_dst` output nodes through the sampled edges.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    src_nodes: Vec<usize>,
    n_dst: usize,
    edges: Vec<BlockEdge>,
}

impl Block {
    /// Global node ids on the input side. The first
    /// [`Block::num_dst`] entries are the destination nodes.
    pub fn src_nodes(&self) -> &[usize] {
        &self.src_nodes
    }

    /// Global node ids on the output side (a prefix of the source side).
    pub fn dst_nodes(&self) -> &[usize] {
        &self.src_nodes[..self.n_dst]
    }

    /// Number of input-side nodes.
    pub fn num_src(&self) -> usize {
        self.src_nodes.len()
    }

    /// Number of output-side nodes.
    pub fn num_dst(&self) -> usize {
        self.n_dst
    }

    /// The sampled edges, grouped by destination in destination order,
    /// each destination's sources in ascending global-id order.
    pub fn edges(&self) -> &[BlockEdge] {
        &self.edges
    }
}

/// Fanout-per-layer neighbour sampler over a [`Csr`] view.
///
/// `fanouts[0]` caps the innermost layer (the one consuming raw
/// features); `fanouts.last()` caps the layer next to the seed nodes.
/// A node whose degree is at or under the cap keeps *all* neighbours
/// (no subsampling, no RNG draw); above the cap, the layer's per-node
/// stream picks a without-replacement subset, reported in ascending
/// neighbour order.
#[derive(Clone, Debug)]
pub struct NeighborSampler {
    fanouts: Vec<usize>,
    seed: u64,
}

/// Process-wide sampling telemetry: blocks and edges sampled since start
/// (monotone counters, `Relaxed` — they only feed run summaries).
static BLOCKS_SAMPLED: AtomicU64 = AtomicU64::new(0);
static EDGES_SAMPLED: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide sampler counters:
/// `(blocks_sampled, edges_sampled)`.
pub fn sampler_counters() -> (u64, u64) {
    (
        BLOCKS_SAMPLED.load(Ordering::Relaxed),
        EDGES_SAMPLED.load(Ordering::Relaxed),
    )
}

/// The RNG stream for one (seed, layer, node) triple — a pure function
/// of its inputs so sampling is reproducible at any worker count.
fn node_stream(seed: u64, layer: usize, node: usize) -> u64 {
    let mut s = seed
        ^ (layer as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15)
        ^ (node as u64 + 1).wrapping_mul(0xd1b54a32d192ed03);
    splitmix64(&mut s)
}

impl NeighborSampler {
    /// A sampler with the given per-layer fanouts and base seed.
    /// `fanouts` must be non-empty; each entry must be at least 1.
    pub fn new(fanouts: Vec<usize>, seed: u64) -> NeighborSampler {
        assert!(!fanouts.is_empty(), "NeighborSampler: empty fanouts");
        assert!(
            fanouts.iter().all(|&f| f >= 1),
            "NeighborSampler: zero fanout"
        );
        NeighborSampler { fanouts, seed }
    }

    /// Samples the layered blocks needed to compute outputs for `seeds`
    /// (which must be distinct node ids). Returned input-first; the last
    /// block's [`Block::dst_nodes`] equals `seeds`.
    pub fn sample_blocks(&self, csr: &Csr, seeds: &[usize]) -> Vec<Block> {
        let mut frontier: Vec<usize> = seeds.to_vec();
        {
            let mut seen = HashMap::new();
            for &s in seeds {
                assert!(
                    seen.insert(s, ()).is_none(),
                    "sample_blocks: duplicate seed node {s}"
                );
                assert!(s < csr.num_nodes(), "sample_blocks: seed out of range");
            }
        }
        let mut blocks = Vec::with_capacity(self.fanouts.len());
        // Outermost layer first (next to the seeds), then inward.
        for layer in (0..self.fanouts.len()).rev() {
            let fanout = self.fanouts[layer];
            let mut src = frontier.clone();
            let mut pos: HashMap<usize, usize> =
                src.iter().enumerate().map(|(i, &u)| (u, i)).collect();
            let mut edges = Vec::new();
            for (dst_local, &u) in frontier.iter().enumerate() {
                let ns = csr.neighbors(u);
                let ws = csr.weights(u);
                let deg = ns.len();
                let chosen: Vec<usize> = if deg <= fanout {
                    (0..deg).collect()
                } else {
                    let mut rng = Rng::seed_from_u64(node_stream(self.seed, layer, u));
                    let mut idx = rng.sample_indices(deg, fanout);
                    idx.sort_unstable();
                    idx
                };
                for i in chosen {
                    let v = ns[i];
                    let next = src.len();
                    let src_local = *pos.entry(v).or_insert_with(|| {
                        src.push(v);
                        next
                    });
                    edges.push(BlockEdge {
                        dst: dst_local,
                        src: src_local,
                        weight: ws[i],
                    });
                }
            }
            EDGES_SAMPLED.fetch_add(edges.len() as u64, Ordering::Relaxed);
            BLOCKS_SAMPLED.fetch_add(1, Ordering::Relaxed);
            blocks.push(Block {
                src_nodes: src.clone(),
                n_dst: frontier.len(),
                edges,
            });
            frontier = src;
        }
        blocks.reverse();
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::two_cliques;
    use crate::graph::{EdgeKind, Graph, NodeKind};
    use tg_zoo::ModelId;

    fn star(leaves: usize) -> Graph {
        let mut g = Graph::new();
        for i in 0..=leaves {
            g.add_node(NodeKind::Model(ModelId(i)));
        }
        for i in 1..=leaves {
            g.add_edge(0, i, 0.1 * i as f64, EdgeKind::DatasetDataset);
        }
        g
    }

    #[test]
    fn blocks_are_layered_with_dst_prefix() {
        let g = two_cliques();
        let csr = Csr::from_graph(&g);
        let sampler = NeighborSampler::new(vec![2, 2], 7);
        let blocks = sampler.sample_blocks(&csr, &[0, 5]);
        assert_eq!(blocks.len(), 2);
        // Last block's outputs are exactly the seeds.
        assert_eq!(blocks[1].dst_nodes(), &[0, 5]);
        // dst is a prefix of src in every block; the inner block's dst set
        // equals the outer block's src set.
        for b in &blocks {
            assert_eq!(&b.src_nodes()[..b.num_dst()], b.dst_nodes());
        }
        assert_eq!(blocks[0].dst_nodes(), blocks[1].src_nodes());
    }

    #[test]
    fn fanout_caps_are_respected_and_low_degree_keeps_all() {
        let g = star(10);
        let csr = Csr::from_graph(&g);
        let sampler = NeighborSampler::new(vec![4], 3);
        let blocks = sampler.sample_blocks(&csr, &[0]);
        // The hub has degree 10, capped at 4.
        assert_eq!(blocks[0].edges().len(), 4);
        // A leaf has degree 1 < 4: keeps its single neighbour.
        let leaf_blocks = sampler.sample_blocks(&csr, &[3]);
        assert_eq!(leaf_blocks[0].edges().len(), 1);
        assert_eq!(leaf_blocks[0].edges()[0].weight, 0.1 * 3.0);
    }

    #[test]
    fn same_seed_same_blocks_any_thread_count() {
        let g = two_cliques();
        let csr = std::sync::Arc::new(Csr::from_graph(&g));
        let sampler = NeighborSampler::new(vec![2, 3], 99);
        let seeds: Vec<Vec<usize>> = vec![vec![0, 3], vec![5], vec![1, 6, 7]];
        let sequential: Vec<Vec<Block>> = seeds
            .iter()
            .map(|s| sampler.sample_blocks(&csr, s))
            .collect();
        // Re-sample the same seed sets from many threads at once; every
        // thread must reproduce the sequential result bit-for-bit.
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let csr = std::sync::Arc::clone(&csr);
                let sampler = sampler.clone();
                let seeds = seeds.clone();
                std::thread::spawn(move || {
                    let i = t % seeds.len();
                    (i, sampler.sample_blocks(&csr, &seeds[i]))
                })
            })
            .collect();
        for h in handles {
            let (i, blocks) = h.join().expect("sampler thread panicked");
            assert_eq!(blocks, sequential[i], "seed set {i} diverged");
        }
    }

    #[test]
    fn distinct_streams_per_layer_and_node() {
        // With a high-degree hub, two layers of the same node should not
        // be forced to pick the same subset (streams differ by layer).
        let g = star(30);
        let csr = Csr::from_graph(&g);
        let a = NeighborSampler::new(vec![5, 5], 1).sample_blocks(&csr, &[0]);
        let picks: Vec<Vec<usize>> = a
            .iter()
            .map(|b| b.edges().iter().map(|e| b.src_nodes()[e.src]).collect())
            .collect();
        // Not a hard requirement of correctness, but with 30-choose-5 per
        // layer identical picks would indicate stream collision.
        assert_ne!(picks[0], picks[1], "layer streams collided");
    }

    #[test]
    #[should_panic(expected = "duplicate seed")]
    fn duplicate_seeds_are_rejected() {
        let g = two_cliques();
        let csr = Csr::from_graph(&g);
        NeighborSampler::new(vec![2], 0).sample_blocks(&csr, &[1, 1]);
    }

    #[test]
    fn counters_are_monotone() {
        let g = two_cliques();
        let csr = Csr::from_graph(&g);
        let (b0, e0) = sampler_counters();
        NeighborSampler::new(vec![2, 2], 5).sample_blocks(&csr, &[0]);
        let (b1, e1) = sampler_counters();
        assert!(b1 >= b0 + 2);
        assert!(e1 > e0);
    }
}
