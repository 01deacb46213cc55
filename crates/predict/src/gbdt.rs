//! XGBoost-style gradient-boosted trees (Chen & Guestrin, KDD 2016) with
//! second-order leaf weights and histogram split finding.
//!
//! The paper configures 500 trees with maximum depth 5 (§VI-C). With the
//! squared-error objective the gradients are `g = ŷ − y`, hessians `h = 1`;
//! gains and leaf weights use XGBoost's regularised formulas:
//!
//! * gain = ½ [G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ
//! * leaf weight = −G/(H+λ), scaled by the learning rate.
//!
//! Split candidates come from per-feature quantile histograms (XGBoost's
//! `hist` algorithm), which keeps a 500-tree fit over a few hundred features
//! fast. Columns whose bins group the training rows alike share one
//! histogram per node.
//!
//! The fit's output is a contract, bit for bit: a shared histogram must sum
//! the same rows in the same order as one histogram per column, and columns
//! and bins must be scanned in the same order, so ties break the same way
//! (DESIGN.md §3g, locked by `tests/gbdt_bits.rs`).

use crate::Regressor;
use std::collections::HashMap;
use tg_linalg::Matrix;
use tg_rng::Rng;

/// GBDT hyperparameters.
#[derive(Clone, Debug)]
pub struct Gbdt {
    /// Boosting rounds (trees).
    pub n_rounds: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Learning rate (shrinkage).
    pub eta: f64,
    /// L2 regularisation on leaf weights (XGBoost λ).
    pub lambda: f64,
    /// Minimum gain to split (XGBoost γ).
    pub gamma: f64,
    /// Minimum hessian sum per child (≈ min samples for squared error).
    pub min_child_weight: f64,
    /// Histogram bins per feature.
    pub n_bins: usize,
    /// Fraction of features sampled per tree.
    pub colsample_bytree: f64,
    base_score: f64,
    trees: Vec<GbdtTree>,
    /// Bin edges per feature, frozen at fit time.
    bin_edges: Vec<Vec<f64>>,
}

impl Default for Gbdt {
    fn default() -> Self {
        Gbdt {
            n_rounds: 500,
            max_depth: 5,
            eta: 0.05,
            lambda: 2.0,
            gamma: 0.0,
            min_child_weight: 4.0,
            n_bins: 32,
            colsample_bytree: 0.7,
            base_score: 0.0,
            trees: Vec::new(),
            bin_edges: Vec::new(),
        }
    }
}

impl Gbdt {
    /// GBDT with explicit rounds/depth (other knobs at defaults).
    pub fn new(n_rounds: usize, max_depth: usize) -> Self {
        Gbdt {
            n_rounds,
            max_depth,
            ..Default::default()
        }
    }

    /// Number of fitted trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Split-count feature importance: how often each feature was chosen as
    /// a split across all trees, normalised to sum to 1. Zero vector before
    /// `fit`.
    pub fn feature_importance(&self) -> Vec<f64> {
        let f = self.bin_edges.len();
        let mut counts = vec![0.0f64; f];
        for tree in &self.trees {
            for node in &tree.nodes {
                if let GNode::Split { feature, .. } = node {
                    counts[*feature] += 1.0;
                }
            }
        }
        let total: f64 = counts.iter().sum();
        if total > 0.0 {
            for c in &mut counts {
                *c /= total;
            }
        }
        counts
    }
}

#[derive(Clone, Debug)]
enum GNode {
    Leaf {
        weight: f64,
    },
    Split {
        feature: usize,
        /// Upper edge of the chosen bin: `x <= threshold` goes left.
        threshold: f64,
        left: usize,
        right: usize,
    },
}

#[derive(Clone, Debug)]
struct GbdtTree {
    nodes: Vec<GNode>,
}

impl GbdtTree {
    fn predict_row(&self, x: &Matrix, row: usize) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                GNode::Leaf { weight } => return *weight,
                GNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if x.get(row, *feature) <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// Quantile bin edges for one feature (at most `n_bins − 1` edges).
fn quantile_edges(values: &mut Vec<f64>, n_bins: usize) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    values.dedup();
    if values.len() <= n_bins {
        // Few distinct values: midpoints between consecutive ones.
        return values.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
    }
    let mut edges = Vec::with_capacity(n_bins - 1);
    for b in 1..n_bins {
        let idx = b * values.len() / n_bins;
        let e = (values[idx - 1] + values[idx]) / 2.0;
        if edges.last().is_none_or(|&l| e > l) {
            edges.push(e);
        }
    }
    edges
}

/// Bin index of a value given edges (first bin whose edge exceeds it).
#[inline]
fn bin_of(edges: &[f64], v: f64) -> usize {
    edges.partition_point(|&e| e < v)
}

impl Regressor for Gbdt {
    fn name(&self) -> &'static str {
        "XGB"
    }

    fn fit(&mut self, x: &Matrix, y: &[f64], rng: &mut Rng) {
        let (n, f) = x.shape();
        assert_eq!(n, y.len(), "Gbdt::fit: row/target mismatch");
        assert!(n > 0, "Gbdt::fit: empty input");
        assert!(f > 0, "Gbdt::fit: no feature columns");
        // Bin indices are stored as u16, and u16::MAX marks an unseen bin.
        assert!(
            (1..=u16::MAX as usize).contains(&self.n_bins),
            "Gbdt::fit: n_bins must be in 1..=65535"
        );

        // Freeze bin edges and pre-bin the training matrix.
        self.bin_edges = (0..f)
            .map(|j| {
                let mut col: Vec<f64> = (0..n).map(|i| x.get(i, j)).collect();
                quantile_edges(&mut col, self.n_bins)
            })
            .collect();
        let bins: Vec<Vec<u16>> = (0..f)
            .map(|j| {
                (0..n)
                    .map(|i| bin_of(&self.bin_edges[j], x.get(i, j)) as u16)
                    .collect()
            })
            .collect();

        self.base_score = tg_linalg::stats::mean(y);
        let n_cols = ((f as f64 * self.colsample_bytree).ceil() as usize).clamp(1, f);
        let mut grower = Grower::new(self, &bins, n);
        let trees = (0..self.n_rounds)
            .map(|_| {
                let cols = if n_cols < f {
                    rng.sample_indices(f, n_cols)
                } else {
                    (0..f).collect()
                };
                grower.grow(y, cols)
            })
            .collect();
        self.trees = trees;
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        assert!(!self.trees.is_empty(), "Gbdt::predict called before fit");
        (0..x.rows())
            .map(|r| {
                let mut s = self.base_score;
                for t in &self.trees {
                    s += self.eta * t.predict_row(x, r);
                }
                s
            })
            .collect()
    }
}

/// Columns whose bins split the training rows into the same groups hold the
/// same gradient sums under different bin labels. Each group's histogram is
/// built once per node, over the bins of its first column (the
/// representative), and every member scans it in its own bin order.
struct ColumnGroups {
    /// Representative column of each column.
    rep: Vec<usize>,
    /// Offset of each column's group histogram in `Grower::hist`.
    hist_at: Vec<usize>,
    /// Total histogram length over all groups.
    hist_len: usize,
    /// Per column, its split candidates: the bins below its last that
    /// training rows occupy, ascending, each as (representative's bin, own
    /// bin). The other bins are empty at every node.
    scan: Vec<Vec<(u16, u16)>>,
}

impl ColumnGroups {
    fn new(bins: &[Vec<u16>], edges: &[Vec<f64>]) -> Self {
        let mut first: HashMap<Vec<u16>, usize> = HashMap::new();
        let rep: Vec<usize> = bins
            .iter()
            .zip(edges)
            .enumerate()
            .map(|(j, (col, e))| {
                *first
                    .entry(first_seen_labels(col, e.len() + 1))
                    .or_insert(j)
            })
            .collect();

        let mut hist_at = Vec::with_capacity(bins.len());
        let mut hist_len = 0;
        for (j, &r) in rep.iter().enumerate() {
            if r == j {
                hist_at.push(hist_len);
                hist_len += edges[j].len() + 1;
            } else {
                hist_at.push(hist_at[r]);
            }
        }
        let scan = bins
            .iter()
            .zip(edges)
            .zip(&rep)
            .map(|((col, e), &r)| {
                let mut to_rep = vec![u16::MAX; e.len() + 1];
                for (&b, &rb) in col.iter().zip(&bins[r]) {
                    to_rep[b as usize] = rb;
                }
                (0..)
                    .zip(&to_rep[..e.len()])
                    .filter(|&(_, &rb)| rb != u16::MAX)
                    .map(|(b, &rb)| (rb, b))
                    .collect()
            })
            .collect();
        ColumnGroups {
            rep,
            hist_at,
            hist_len,
            scan,
        }
    }
}

/// A column's bins relabelled in order of first appearance down the rows;
/// two columns' labels are equal exactly when they group the rows alike.
fn first_seen_labels(col: &[u16], n_bins: usize) -> Vec<u16> {
    let mut label = vec![u16::MAX; n_bins];
    let mut next = 0;
    col.iter()
        .map(|&b| {
            let l = &mut label[b as usize];
            if *l == u16::MAX {
                *l = next;
                next += 1;
            }
            *l
        })
        .collect()
}

/// Grows one tree per round on a binned training matrix, reusing its
/// buffers across nodes and rounds, and keeps the training predictions.
struct Grower<'a> {
    gb: &'a Gbdt,
    bins: &'a [Vec<u16>],
    groups: ColumnGroups,
    /// Per group bin, the gradient sum and the hessian sum (the row count).
    hist: Vec<[f64; 2]>,
    pred: Vec<f64>,
    grad: Vec<f64>,
    /// The round's sampled columns, and the representatives of those with
    /// any split candidate.
    cols: Vec<usize>,
    reps: Vec<usize>,
    /// Training rows; each node owns a contiguous range, split stably so
    /// both children keep their parent's row order.
    rows: Vec<usize>,
    right: Vec<usize>,
}

impl<'a> Grower<'a> {
    fn new(gb: &'a Gbdt, bins: &'a [Vec<u16>], n: usize) -> Self {
        let groups = ColumnGroups::new(bins, &gb.bin_edges);
        Grower {
            gb,
            bins,
            hist: vec![[0.0; 2]; groups.hist_len],
            groups,
            pred: vec![gb.base_score; n],
            grad: vec![0.0; n],
            cols: Vec::new(),
            reps: Vec::new(),
            rows: Vec::with_capacity(n),
            right: Vec::with_capacity(n),
        }
    }

    /// Builds one tree on the squared-error gradients of the current
    /// predictions, over the sampled columns `cols`, and adds its
    /// shrunken leaf weights to the training predictions.
    fn grow(&mut self, y: &[f64], cols: Vec<usize>) -> GbdtTree {
        // Squared error: g = pred − y, h = 1.
        for ((g, p), t) in self.grad.iter_mut().zip(&self.pred).zip(y) {
            *g = p - t;
        }
        self.cols = cols;
        self.reps.clear();
        self.reps.extend(
            self.cols
                .iter()
                .filter(|&&c| !self.groups.scan[c].is_empty())
                .map(|&c| self.groups.rep[c]),
        );
        self.reps.sort_unstable();
        self.reps.dedup();
        self.rows.clear();
        self.rows.extend(0..y.len());
        let mut nodes = Vec::new();
        self.node(&mut nodes, 0, y.len(), 0);
        GbdtTree { nodes }
    }

    /// Grows the subtree over `rows[lo..hi]` and returns its root index.
    /// `h = 1` for every sample, so the hessian sum is the row count.
    fn node(&mut self, nodes: &mut Vec<GNode>, lo: usize, hi: usize, depth: usize) -> usize {
        let gb = self.gb;
        let rows = &self.rows[lo..hi];
        let g_total: f64 = rows.iter().map(|&i| self.grad[i]).sum();
        let h_total = rows.len() as f64;
        let weight = -g_total / (h_total + gb.lambda);
        let split = if depth >= gb.max_depth || h_total < 2.0 * gb.min_child_weight {
            None
        } else {
            self.best_split(lo, hi, g_total, h_total)
        };
        let Some((feature, bin)) = split else {
            for &i in &self.rows[lo..hi] {
                self.pred[i] += gb.eta * weight;
            }
            nodes.push(GNode::Leaf { weight });
            return nodes.len() - 1;
        };

        // Stable partition: left rows compact forward, right rows follow.
        let col = &self.bins[feature];
        self.right.clear();
        let mut mid = lo;
        for k in lo..hi {
            let i = self.rows[k];
            if col[i] <= bin {
                self.rows[mid] = i;
                mid += 1;
            } else {
                self.right.push(i);
            }
        }
        self.rows[mid..hi].copy_from_slice(&self.right);

        let idx = nodes.len();
        nodes.push(GNode::Leaf { weight }); // placeholder
        let left = self.node(nodes, lo, mid, depth + 1);
        let right = self.node(nodes, mid, hi, depth + 1);
        nodes[idx] = GNode::Split {
            feature,
            // Real-valued threshold: the bin's upper edge.
            threshold: gb.bin_edges[feature][bin as usize],
            left,
            right,
        };
        idx
    }

    /// The best (column, bin) split of `rows[lo..hi]`: the first candidate,
    /// in `cols` order and then ascending bin order, whose gain strictly
    /// beats every earlier one and 1e-12.
    fn best_split(
        &mut self,
        lo: usize,
        hi: usize,
        g_total: f64,
        h_total: f64,
    ) -> Option<(usize, u16)> {
        let gb = self.gb;
        let rows = &self.rows[lo..hi];
        for &r in &self.reps {
            let at = self.groups.hist_at[r];
            let len = gb.bin_edges[r].len() + 1;
            let hist = &mut self.hist[at..at + len];
            hist.fill([0.0; 2]);
            let col = &self.bins[r];
            for &i in rows {
                let bin = &mut hist[col[i] as usize];
                bin[0] += self.grad[i];
                bin[1] += 1.0;
            }
        }

        let parent_score = g_total * g_total / (h_total + gb.lambda);
        let mut best: Option<(usize, u16, f64)> = None;
        for &feat in &self.cols {
            let at = self.groups.hist_at[feat];
            let mut gl = 0.0;
            let mut hl = 0.0;
            for &(rb, b) in &self.groups.scan[feat] {
                let [bin_g, bin_h] = self.hist[at + rb as usize];
                gl += bin_g;
                hl += bin_h;
                let gr = g_total - gl;
                let hr = h_total - hl;
                // `hr` never grows along the scan.
                if hr < gb.min_child_weight {
                    break;
                }
                if hl < gb.min_child_weight {
                    continue;
                }
                let gain = 0.5
                    * (gl * gl / (hl + gb.lambda) + gr * gr / (hr + gb.lambda) - parent_score)
                    - gb.gamma;
                if gain > best.map_or(1e-12, |(_, _, g)| g) {
                    best = Some((feat, b, gain));
                }
            }
        }
        best.map(|(feat, b, _)| (feat, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{friedmanish, r2};

    #[test]
    fn fits_nonlinear_function_well() {
        let mut rng = Rng::seed_from_u64(1);
        let (x, y) = friedmanish(&mut rng, 500);
        let (xt, yt) = friedmanish(&mut rng, 200);
        let mut gb = Gbdt::new(200, 4);
        gb.fit(&x, &y, &mut rng);
        let score = r2(&yt, &gb.predict(&xt));
        assert!(score > 0.8, "r2 {score}");
    }

    #[test]
    fn more_rounds_reduce_training_error() {
        let mut rng = Rng::seed_from_u64(2);
        let (x, y) = friedmanish(&mut rng, 300);
        let err = |rounds: usize, rng: &mut Rng| {
            let mut gb = Gbdt::new(rounds, 3);
            gb.fit(&x, &y, rng);
            let pred = gb.predict(&x);
            y.iter()
                .zip(&pred)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
        };
        let e10 = err(10, &mut rng);
        let e200 = err(200, &mut rng);
        assert!(e200 < e10 / 2.0, "e10 {e10} e200 {e200}");
    }

    #[test]
    fn constant_target_predicts_constant() {
        let mut rng = Rng::seed_from_u64(3);
        let x = Matrix::from_fn(60, 4, |_, _| rng.uniform());
        let y = vec![1.25; 60];
        let mut gb = Gbdt::new(20, 3);
        gb.fit(&x, &y, &mut rng);
        assert!(gb.predict(&x).iter().all(|&p| (p - 1.25).abs() < 1e-9));
    }

    #[test]
    fn quantile_edges_monotone() {
        let mut vals: Vec<f64> = (0..1000).map(|i| ((i * 37) % 997) as f64).collect();
        let edges = quantile_edges(&mut vals, 32);
        assert!(edges.len() <= 31);
        for w in edges.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn bin_of_boundaries() {
        let edges = vec![1.0, 2.0, 3.0];
        assert_eq!(bin_of(&edges, 0.5), 0);
        assert_eq!(bin_of(&edges, 1.0), 0); // edge value goes left bin
        assert_eq!(bin_of(&edges, 1.5), 1);
        assert_eq!(bin_of(&edges, 9.0), 3);
    }

    #[test]
    fn feature_importance_finds_informative_columns() {
        let mut rng = Rng::seed_from_u64(9);
        // y depends only on column 1 of 6.
        let x = Matrix::from_fn(300, 6, |_, _| rng.uniform());
        let y: Vec<f64> = (0..300).map(|i| 3.0 * x.get(i, 1)).collect();
        let mut gb = Gbdt::new(60, 3);
        gb.fit(&x, &y, &mut rng);
        let imp = gb.feature_importance();
        assert_eq!(imp.len(), 6);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let max_idx = imp
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(max_idx, 1, "importances {imp:?}");
        assert!(imp[1] > 0.5, "importances {imp:?}");
    }

    #[test]
    #[should_panic(expected = "n_bins")]
    fn n_bins_beyond_u16_is_rejected() {
        let mut rng = Rng::seed_from_u64(5);
        let (x, y) = friedmanish(&mut rng, 20);
        let mut gb = Gbdt::new(1, 1);
        gb.n_bins = 70_000;
        gb.fit(&x, &y, &mut rng);
    }

    #[test]
    #[should_panic(expected = "Gbdt::fit: no feature columns")]
    fn zero_feature_columns_are_rejected() {
        let mut rng = Rng::seed_from_u64(6);
        let x = Matrix::zeros(5, 0);
        let mut gb = Gbdt::new(1, 1);
        gb.fit(&x, &[1.0; 5], &mut rng);
    }

    #[test]
    fn paper_hyperparameters_run() {
        // Smoke-test the full 500×5 configuration on a small input.
        let mut rng = Rng::seed_from_u64(4);
        let (x, y) = friedmanish(&mut rng, 150);
        let mut gb = Gbdt::default();
        gb.fit(&x, &y, &mut rng);
        assert_eq!(gb.num_trees(), 500);
        let pred = gb.predict(&x);
        assert!(pred.iter().all(|p| p.is_finite()));
    }
}
