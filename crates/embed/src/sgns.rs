//! Skip-gram with negative sampling (word2vec, Mikolov et al. 2013) over
//! random-walk corpora — the representation learner under Node2Vec.
//!
//! Implemented directly with hand-rolled SGD (the closed-form gradients of
//! the SGNS objective) rather than the autograd tape: SGNS updates touch
//! only two embedding rows per sample, which the tape cannot exploit.
//!
//! The loop's output is a contract, bit for bit: batching a pair's dot
//! products into independent chains, and applying a pair's updates in one
//! pass over the dimensions, must reproduce the one-sample-at-a-time loop
//! exactly, with the same rng stream, each dot summed in index order and
//! each element's updates added in sample order (DESIGN.md §3f, locked by
//! `tests/full_graph_bits.rs`).

use std::ops::Range;

use tg_linalg::Matrix;
use tg_rng::{AliasTable, Rng};

/// SGNS hyperparameters.
#[derive(Clone, Debug)]
pub struct SgnsConfig {
    /// Embedding dimension (the paper extracts 128-d node representations).
    pub dim: usize,
    /// Context window radius.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Passes over the walk corpus.
    pub epochs: usize,
    /// Initial learning rate, decayed linearly to 10%.
    pub lr: f64,
}

impl Default for SgnsConfig {
    fn default() -> Self {
        SgnsConfig {
            dim: 128,
            window: 5,
            negatives: 5,
            epochs: 3,
            lr: 0.025,
        }
    }
}

/// A trainable SGNS model whose embeddings can be refined incrementally —
/// the warm-start entry point used by the dynamic-graph extension.
pub struct SgnsModel {
    cfg: SgnsConfig,
    w_in: Matrix,
    w_out: Matrix,
}

impl SgnsModel {
    /// Fresh model: input ~ U(-0.5/dim, 0.5/dim), output zeros (word2vec
    /// defaults).
    pub fn new(num_nodes: usize, cfg: SgnsConfig, rng: &mut Rng) -> Self {
        assert!(num_nodes > 0, "SgnsModel: empty graph");
        let w_in = Matrix::from_fn(num_nodes, cfg.dim, |_, _| {
            rng.uniform_range(-0.5, 0.5) / cfg.dim as f64
        });
        let w_out = Matrix::zeros(num_nodes, cfg.dim);
        SgnsModel { cfg, w_in, w_out }
    }

    /// Current input embeddings (one row per node).
    pub fn embeddings(&self) -> &Matrix {
        &self.w_in
    }

    /// Consumes the model, returning the input embeddings.
    pub fn into_embeddings(self) -> Matrix {
        self.w_in
    }

    /// Grows the model to hold `num_nodes` rows (new nodes get fresh
    /// word2vec init). No-op if already large enough.
    pub fn grow_to(&mut self, num_nodes: usize, rng: &mut Rng) {
        let old = self.w_in.rows();
        if num_nodes <= old {
            return;
        }
        let dim = self.cfg.dim;
        let mut w_in = Matrix::zeros(num_nodes, dim);
        let mut w_out = Matrix::zeros(num_nodes, dim);
        for r in 0..old {
            w_in.row_mut(r).copy_from_slice(self.w_in.row(r));
            w_out.row_mut(r).copy_from_slice(self.w_out.row(r));
        }
        for r in old..num_nodes {
            for c in 0..dim {
                w_in.set(r, c, rng.uniform_range(-0.5, 0.5) / dim as f64);
            }
        }
        self.w_in = w_in;
        self.w_out = w_out;
    }

    /// Runs `cfg.epochs` passes of skip-gram with negative sampling over the
    /// walks, updating the embeddings in place. `lr_scale` rescales the
    /// configured learning rate (incremental refreshes use a smaller rate).
    ///
    /// The negative-sampling distribution is the unigram count of nodes in
    /// the corpus raised to 3/4, as in word2vec.
    pub fn train(&mut self, walks: &[Vec<usize>], rng: &mut Rng, lr_scale: f64) {
        self.train_with_epochs(walks, rng, lr_scale, self.cfg.epochs)
    }

    /// Like [`SgnsModel::train`] with an explicit epoch count (incremental
    /// refreshes run a single cheap pass).
    pub fn train_with_epochs(
        &mut self,
        walks: &[Vec<usize>],
        rng: &mut Rng,
        lr_scale: f64,
        epochs: usize,
    ) {
        let num_nodes = self.w_in.rows();
        let cfg = &self.cfg;
        // Unigram^0.75 negative table. Nodes never visited still need a
        // sampling weight floor so the table is well-formed.
        let mut counts = vec![0.0f64; num_nodes];
        for walk in walks {
            for &n in walk {
                counts[n] += 1.0;
            }
        }
        let weights: Vec<f64> = counts.iter().map(|&c| (c + 0.1).powf(0.75)).collect();
        let neg_table = AliasTable::new(&weights);

        let total_steps = (epochs * walks.len()).max(1);
        let mut step = 0usize;
        let mut grad_in = vec![0.0f64; cfg.dim];
        // One pair's samples: the context, then the negatives.
        let mut targets: Vec<usize> = Vec::with_capacity(cfg.negatives + 1);
        for _epoch in 0..epochs {
            for walk in walks {
                let progress = step as f64 / total_steps as f64;
                let lr = cfg.lr * lr_scale * (1.0 - 0.9 * progress);
                step += 1;
                for (i, &center) in walk.iter().enumerate() {
                    let lo = i.saturating_sub(cfg.window);
                    let hi = (i + cfg.window + 1).min(walk.len());
                    for j in lo..hi {
                        if j == i {
                            continue;
                        }
                        let context = walk[j];
                        // Nothing else in the pair reads `rng`, so drawing
                        // every negative up front keeps the stream. Draws
                        // equal to the context are accidental positives.
                        targets.clear();
                        targets.push(context);
                        targets.extend(
                            (0..cfg.negatives)
                                .map(|_| neg_table.sample(rng))
                                .filter(|&t| t != context),
                        );
                        let vi = self.w_in.row(center);
                        // One run of distinct rows (most default pairs)
                        // updates in one pass. Any other pair, or a failed
                        // borrow, takes the per-run loop below.
                        if targets.len() == CHAINS && run_end(&targets, 0) == CHAINS {
                            let dots = chain_dots(vi, &self.w_out, &targets);
                            let g: [f64; CHAINS] = std::array::from_fn(|k| {
                                let label = if k == 0 { 1.0 } else { 0.0 };
                                (sigmoid(dots[k]) - label) * lr
                            });
                            let rows: [Range<usize>; CHAINS] = std::array::from_fn(|k| {
                                targets[k] * cfg.dim..(targets[k] + 1) * cfg.dim
                            });
                            if let Ok(rows) = self.w_out.as_mut_slice().get_disjoint_mut(rows) {
                                update_run(self.w_in.row_mut(center), rows, &g);
                                continue;
                            }
                        }
                        grad_in.fill(0.0);
                        let mut start = 0;
                        while start < targets.len() {
                            let end = run_end(&targets, start);
                            let run = &targets[start..end];
                            // The rows of a run are distinct, so no update
                            // below changes a row a later dot reads.
                            let dots = chain_dots(vi, &self.w_out, run);
                            for (k, (&target, &dot)) in run.iter().zip(&dots).enumerate() {
                                let label = if start + k == 0 { 1.0 } else { 0.0 };
                                let g = (sigmoid(dot) - label) * lr;
                                // Accumulate the input grad; update the
                                // output row in place.
                                for ((gi, o), x) in
                                    grad_in.iter_mut().zip(self.w_out.row_mut(target)).zip(vi)
                                {
                                    *gi += g * *o;
                                    *o -= g * x;
                                }
                            }
                            start = end;
                        }
                        for (v, gi) in self.w_in.row_mut(center).iter_mut().zip(&grad_in) {
                            *v -= gi;
                        }
                    }
                }
            }
        }
    }
}

/// Dot products computed together in one pass by [`chain_dots`], and rows
/// updated together by [`update_run`]. The default pair (the context and 5
/// negatives) fills exactly one pass.
const CHAINS: usize = 6;

/// End of the run of samples that starts at `start`: the longest stretch of
/// distinct rows, at most [`CHAINS`] long. A repeated row starts a new run,
/// so its dot reads the row after the earlier sample's update.
fn run_end(targets: &[usize], start: usize) -> usize {
    let mut end = start + 1;
    while end < targets.len()
        && end - start < CHAINS
        && !targets[start..end].contains(&targets[end])
    {
        end += 1;
    }
    end
}

/// `x · m.row(t)` for every `t` in `run` (at most [`CHAINS`] rows), as
/// independent accumulator chains so that the adds of different rows
/// overlap. Each chain sums in index order from `-0.0`, exactly as
/// `x.iter().zip(row).map(|(a, b)| a * b).sum()` does. Chains past the end
/// of `run` dot `x` with itself and are ignored.
fn chain_dots(x: &[f64], m: &Matrix, run: &[usize]) -> [f64; CHAINS] {
    // Slicing every row to `x.len()` here lets the loop below drop its
    // bounds checks.
    let rows: [&[f64]; CHAINS] =
        std::array::from_fn(|c| &run.get(c).map_or(x, |&t| m.row(t))[..x.len()]);
    let mut acc = [-0.0f64; CHAINS];
    for (d, &xd) in x.iter().enumerate() {
        for (a, row) in acc.iter_mut().zip(&rows) {
            *a += xd * row[d];
        }
    }
    acc
}

/// Applies the updates of a pair whose samples are one run of [`CHAINS`]
/// distinct `rows` (`gs` their scaled gradients, context first) in one pass
/// over the dimensions. For each `d`, every row's update in sample order
/// adds its product onto `gi`, which starts at `+0.0` as `grad_in` does,
/// then the centre takes `gi`: each element gets the same products, added
/// in the same order, as the per-sample loops give it.
fn update_run(centre: &mut [f64], mut rows: [&mut [f64]; CHAINS], gs: &[f64; CHAINS]) {
    for (d, x) in centre.iter_mut().enumerate() {
        let mut gi = 0.0;
        for (row, &g) in rows.iter_mut().zip(gs) {
            let o = row[d];
            gi += g * o;
            row[d] = o - g * *x;
        }
        *x -= gi;
    }
}

/// Trains SGNS over the walks and returns the input-embedding matrix
/// (`num_nodes × dim`).
pub fn train_sgns(
    walks: &[Vec<usize>],
    num_nodes: usize,
    cfg: &SgnsConfig,
    rng: &mut Rng,
) -> Matrix {
    let mut model = SgnsModel::new(num_nodes, cfg.clone(), rng);
    model.train(walks, rng, 1.0);
    model.into_embeddings()
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_linalg::distance::cosine_similarity;

    /// Corpus from two disjoint "communities": {0,1,2} and {3,4,5}.
    fn community_walks(rng: &mut Rng, n_walks: usize, len: usize) -> Vec<Vec<usize>> {
        let mut walks = Vec::new();
        for w in 0..n_walks {
            let base = if w % 2 == 0 { 0 } else { 3 };
            let mut walk = Vec::with_capacity(len);
            for _ in 0..len {
                walk.push(base + rng.index(3));
            }
            walks.push(walk);
        }
        walks
    }

    #[test]
    fn output_shape() {
        let mut rng = Rng::seed_from_u64(1);
        let walks = community_walks(&mut rng, 10, 10);
        let cfg = SgnsConfig {
            dim: 16,
            epochs: 1,
            ..Default::default()
        };
        let emb = train_sgns(&walks, 6, &cfg, &mut rng);
        assert_eq!(emb.shape(), (6, 16));
        assert!(!emb.has_non_finite());
    }

    #[test]
    fn communities_separate_in_embedding_space() {
        let mut rng = Rng::seed_from_u64(2);
        let walks = community_walks(&mut rng, 200, 20);
        let cfg = SgnsConfig {
            dim: 16,
            epochs: 3,
            window: 3,
            negatives: 4,
            lr: 0.05,
        };
        let emb = train_sgns(&walks, 6, &cfg, &mut rng);
        // Within-community cosine must exceed cross-community cosine.
        let within = cosine_similarity(emb.row(0), emb.row(1));
        let cross = cosine_similarity(emb.row(0), emb.row(4));
        assert!(
            within > cross + 0.2,
            "within {within} should beat cross {cross}"
        );
    }

    #[test]
    fn unvisited_nodes_keep_init_scale() {
        // Node 9 never appears: its embedding stays near init.
        let mut rng = Rng::seed_from_u64(3);
        let walks = community_walks(&mut rng, 20, 10);
        let cfg = SgnsConfig {
            dim: 8,
            epochs: 1,
            ..Default::default()
        };
        let emb = train_sgns(&walks, 10, &cfg, &mut rng);
        let norm9 = tg_linalg::matrix::norm(emb.row(9));
        assert!(norm9 < 0.5 / 8.0 * (8.0f64).sqrt() + 1e-9);
    }

    #[test]
    fn deterministic_given_rng() {
        let walks = vec![vec![0, 1, 2, 1, 0], vec![2, 1, 0, 1, 2]];
        let cfg = SgnsConfig {
            dim: 4,
            epochs: 2,
            ..Default::default()
        };
        let e1 = train_sgns(&walks, 3, &cfg, &mut Rng::seed_from_u64(7));
        let e2 = train_sgns(&walks, 3, &cfg, &mut Rng::seed_from_u64(7));
        assert_eq!(e1.as_slice(), e2.as_slice());
    }
}
