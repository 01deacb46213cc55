//! Block-aware aggregation: the single place where sampled
//! [`Block`]s become the small dense operators the GNN layers consume.
//!
//! The full-graph GraphSAGE trainer builds its O(n²) mean-aggregation
//! operator from `tg_graph::adjacency::mean_adjacency`; the minibatch
//! driver builds the *same* operator restricted to a sampled block — a
//! `num_dst × num_src` matrix with the same edge-weight floor and row
//! normalisation.

use tg_graph::Block;
use tg_linalg::Matrix;

/// Configuration of the minibatch GraphSAGE driver
/// (`GraphSage::train_minibatch`).
#[derive(Clone, Debug, PartialEq)]
pub struct MinibatchConfig {
    /// Per-layer neighbour fanouts, innermost (feature-consuming) layer
    /// first. Adjusted to a driver's layer count by [`MinibatchConfig::fanouts_for`].
    pub fanouts: Vec<usize>,
    /// Link-prediction pairs per minibatch.
    pub batch: usize,
    /// Training epochs; `None` uses the learner's full-graph epoch count.
    pub epochs: Option<usize>,
}

impl Default for MinibatchConfig {
    fn default() -> Self {
        MinibatchConfig {
            fanouts: vec![10, 5],
            batch: 128,
            epochs: None,
        }
    }
}

impl MinibatchConfig {
    /// The fanout list adjusted to exactly `layers` entries: truncated if
    /// longer, extended with its last entry if shorter.
    pub fn fanouts_for(&self, layers: usize) -> Vec<usize> {
        let mut f = self.fanouts.clone();
        let last = *f.last().unwrap_or(&5);
        f.resize(layers, last);
        f.truncate(layers);
        f
    }
}

/// The block-restricted mean aggregator: `num_dst × num_src`, row `d`
/// holding `w(d,s) / Σ w(d,·)` over the block's sampled edges — the same
/// floor (`w.max(1e-9)`) and row-normalisation as
/// `tg_graph::adjacency::mean_adjacency`, restricted to the block.
pub(crate) fn block_mean_matrix(block: &Block) -> Matrix {
    let mut a = Matrix::zeros(block.num_dst(), block.num_src());
    for e in block.edges() {
        a.set(e.dst, e.src, a.get(e.dst, e.src) + e.weight.max(1e-9));
    }
    for d in 0..block.num_dst() {
        let s: f64 = a.row(d).iter().sum();
        if s > 0.0 {
            for c in 0..block.num_src() {
                a.set(d, c, a.get(d, c) / s);
            }
        }
    }
    a
}

/// Rows of `features` for the given global node ids.
pub(crate) fn gather_rows(features: &Matrix, nodes: &[usize]) -> Matrix {
    Matrix::from_fn(nodes.len(), features.cols(), |r, c| {
        features.get(nodes[r], c)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_graph::{Csr, NeighborSampler};

    fn sample_one() -> Block {
        let g = tg_graph::fixtures::two_cliques();
        let csr = Csr::from_graph(&g);
        let sampler = NeighborSampler::new(vec![2], 11);
        sampler
            .sample_blocks(&csr, &[0, 4])
            .pop()
            .expect("one block")
    }

    #[test]
    fn mean_matrix_rows_sum_to_one_where_edges_exist() {
        let b = sample_one();
        let a = block_mean_matrix(&b);
        assert_eq!(a.shape(), (b.num_dst(), b.num_src()));
        for d in 0..b.num_dst() {
            let s: f64 = a.row(d).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {d} sums {s}");
        }
    }

    #[test]
    fn fanouts_for_resizes_both_ways() {
        let cfg = MinibatchConfig {
            fanouts: vec![8, 4],
            ..MinibatchConfig::default()
        };
        assert_eq!(cfg.fanouts_for(2), vec![8, 4]);
        assert_eq!(cfg.fanouts_for(3), vec![8, 4, 4]);
        assert_eq!(cfg.fanouts_for(1), vec![8]);
    }

    #[test]
    fn default_config_samples_10_then_5_in_batches_of_128() {
        let cfg = MinibatchConfig::default();
        assert_eq!(cfg.fanouts, vec![10, 5]);
        assert_eq!(cfg.batch, 128);
    }
}
