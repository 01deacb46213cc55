//! The unified, fallible scorer API.
//!
//! Every transferability estimator in this crate is reachable through the
//! [`Scorer`] trait: `score(&features, &labels) -> Result<f64, ScoreError>`.
//! Input validation happens exactly once, up front, when constructing the
//! [`Labels`] view — scorers then assume labels are in range and only report
//! the failure modes they can actually hit (shape mismatch against the
//! feature matrix, too few samples, a numerical decomposition failing).

use std::fmt;

use tg_linalg::decomp::DecompError;
use tg_linalg::Matrix;

use crate::gbc::gbc_impl;
use crate::hscore::h_score_impl;
use crate::leep_nce::{leep_impl, nce_impl};
use crate::logme::log_me;
use crate::parc::parc_impl;
use crate::transrate::trans_rate_impl;

/// Why a transferability score could not be computed.
///
/// Returned by [`Scorer::score`] and [`Labels::new`] instead of panicking,
/// so serving paths can surface bad requests as errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScoreError {
    /// `labels.len()` does not match the number of feature rows.
    LabelCountMismatch {
        /// Number of labels supplied.
        labels: usize,
        /// Number of feature rows supplied.
        rows: usize,
    },
    /// Fewer than two target classes (or an empty source head for
    /// prediction-based estimators) — no ranking signal is definable.
    TooFewClasses {
        /// The class count that was supplied.
        num_classes: usize,
    },
    /// A label value is outside `0..num_classes`.
    LabelOutOfRange {
        /// Index of the offending label.
        index: usize,
        /// The offending label value.
        label: usize,
        /// The declared class count.
        num_classes: usize,
    },
    /// Fewer samples than the estimator's documented minimum.
    TooFewSamples {
        /// Number of samples supplied.
        rows: usize,
        /// Minimum the estimator requires.
        needed: usize,
    },
    /// The feature matrix contains NaN or infinite entries.
    NonFiniteInput,
    /// An underlying matrix decomposition (SVD / Cholesky) failed.
    Decomposition(DecompError),
}

impl fmt::Display for ScoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScoreError::LabelCountMismatch { labels, rows } => {
                write!(f, "label count {labels} does not match feature rows {rows}")
            }
            ScoreError::TooFewClasses { num_classes } => {
                write!(f, "need at least two classes, got {num_classes}")
            }
            ScoreError::LabelOutOfRange {
                index,
                label,
                num_classes,
            } => write!(
                f,
                "label {label} at index {index} is out of range for {num_classes} classes"
            ),
            ScoreError::TooFewSamples { rows, needed } => {
                write!(f, "need at least {needed} samples, got {rows}")
            }
            ScoreError::NonFiniteInput => write!(f, "features contain NaN or infinite values"),
            ScoreError::Decomposition(e) => write!(f, "decomposition failed: {e}"),
        }
    }
}

impl std::error::Error for ScoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScoreError::Decomposition(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecompError> for ScoreError {
    fn from(e: DecompError) -> Self {
        ScoreError::Decomposition(e)
    }
}

/// A validated view over integer target labels.
///
/// Construction checks — once — that `num_classes >= 2` and that every
/// label lies in `0..num_classes`. Scorers receive a `Labels` and only
/// verify the per-call invariant they cannot know in advance: that the
/// label count matches the feature-matrix row count
/// ([`Labels::check_rows`]).
///
/// ```
/// use tg_transfer::{Labels, ScoreError};
///
/// let labels = Labels::new(&[0, 1, 1, 0], 2).unwrap();
/// assert_eq!(labels.len(), 4);
/// assert_eq!(labels.class_counts(), vec![2, 2]);
/// assert_eq!(
///     Labels::new(&[0, 1], 1),
///     Err(ScoreError::TooFewClasses { num_classes: 1 })
/// );
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Labels<'a> {
    labels: &'a [usize],
    num_classes: usize,
}

impl<'a> Labels<'a> {
    /// Validates `labels` against `num_classes`.
    pub fn new(labels: &'a [usize], num_classes: usize) -> Result<Self, ScoreError> {
        if num_classes < 2 {
            return Err(ScoreError::TooFewClasses { num_classes });
        }
        for (index, &label) in labels.iter().enumerate() {
            if label >= num_classes {
                return Err(ScoreError::LabelOutOfRange {
                    index,
                    label,
                    num_classes,
                });
            }
        }
        Ok(Labels {
            labels,
            num_classes,
        })
    }

    /// The underlying label slice.
    pub fn as_slice(&self) -> &'a [usize] {
        self.labels
    }

    /// The declared class count (`>= 2`).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the label slice is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Errors unless the label count matches the feature-matrix row count.
    pub fn check_rows(&self, rows: usize) -> Result<(), ScoreError> {
        if self.labels.len() != rows {
            return Err(ScoreError::LabelCountMismatch {
                labels: self.labels.len(),
                rows,
            });
        }
        Ok(())
    }

    /// Per-class sample counts (length `num_classes`).
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Per-class sums of `x`'s rows (`num_classes × x.cols()`): row `c` is
    /// the sum of the rows labelled `c`, added in ascending row order onto
    /// `+0.0`. This is `Yᵀ X` for the one-hot label matrix `Y`, bit for
    /// bit, without building `Y`; a class with no rows sums to zeros.
    /// `x` must have one row per label.
    pub fn class_sums(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.rows(), self.labels.len(), "class_sums: one row per label");
        let mut sums = Matrix::zeros(self.num_classes, x.cols());
        for (r, &l) in self.labels.iter().enumerate() {
            for (s, &v) in sums.row_mut(l).iter_mut().zip(x.row(r)) {
                *s += v;
            }
        }
        sums
    }
}

/// A transferability estimator: features + validated labels in, scalar
/// score out, where **higher means more transferable**.
///
/// For feature-based estimators ([`LogMe`], [`Parc`], [`TransRate`],
/// [`HScore`], [`Gbc`]) `features` is the `n × D` penultimate-layer feature
/// matrix. For prediction-based estimators ([`Leep`], [`Nce`]) it is the
/// `n × Z` source-head probability matrix instead (rows sum to 1);
/// [`Nce`] derives hard pseudo-labels by row-wise argmax internally.
///
/// ```
/// use tg_transfer::{Labels, LogMe, Scorer};
/// use tg_linalg::Matrix;
///
/// let features = Matrix::from_fn(8, 3, |r, c| ((r * 3 + c) % 5) as f64);
/// let labels = Labels::new(&[0, 1, 0, 1, 0, 1, 0, 1], 2).unwrap();
/// let score = LogMe::default().score(&features, &labels).unwrap();
/// assert!(score.is_finite());
/// ```
pub trait Scorer {
    /// Display name of the estimator.
    fn name(&self) -> &'static str;

    /// Scores `features` against `labels`.
    fn score(&self, features: &Matrix, labels: &Labels) -> Result<f64, ScoreError>;
}

/// Which decomposition feeds the LogME kernel's spectrum and label
/// projections.
///
/// The evidence is mathematically identical along both paths (see the
/// `logme` module docs for the identity); they differ in cost and in
/// floating-point rounding. `Svd` is the bit-exactness reference — the
/// historical thin-SVD pipeline, bit-identical to the seed implementation
/// (the test-only `tg-logme-seed` crate). `Gram` agrees with it to ~1e-6,
/// asserted by property tests and the bench gates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DecompPath {
    /// Heuristic: `Gram` when `n >= 4·d` (the paper-scale regime), `Svd`
    /// otherwise. This is the default.
    #[default]
    Auto,
    /// `n × d` thin SVD (Gram eigendecomposition + `U = A V Σ⁻¹`): the
    /// bit-exactness reference path.
    Svd,
    /// `d × d` Gram eigendecomposition only — the label projections are
    /// computed as `z = Σ⁻¹ Vᵀ (Fᵀy)` without ever materialising `U`,
    /// removing the two `O(n·d²)` passes that dominate the SVD path when
    /// `n ≫ d`.
    Gram,
}

/// The decomposition a LogME score actually ran (the [`DecompPath::Auto`]
/// heuristic resolved), used to key per-arm telemetry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecompArm {
    /// Thin SVD reference.
    Svd,
    /// Gram-only projection path.
    Gram,
}

impl DecompArm {
    /// Every arm, in [`DecompArm::index`] order. Per-arm accumulators are
    /// sized from this array's length.
    pub const ALL: [DecompArm; 2] = [DecompArm::Svd, DecompArm::Gram];

    /// Dense index for per-arm accumulator arrays (`0..ALL.len()`).
    pub const fn index(self) -> usize {
        match self {
            DecompArm::Svd => 0,
            DecompArm::Gram => 1,
        }
    }

    /// Short lowercase label for telemetry rendering and bench JSON keys.
    pub const fn name(self) -> &'static str {
        match self {
            DecompArm::Svd => "svd",
            DecompArm::Gram => "gram",
        }
    }
}

/// What a LogME evaluation actually did, alongside the score: which
/// decomposition arm ran and how long it took. Returned by
/// [`LogMe::score_with_report`] and threaded into the workbench's per-arm
/// telemetry.
#[derive(Clone, Copy, Debug)]
pub struct LogMeReport {
    /// The decomposition arm that ran ([`DecompPath::Auto`] resolved).
    pub arm: DecompArm,
    /// Wall-clock spent inside the decomposition (spectrum + label
    /// projections), excluding the evidence fixed point.
    pub decomp: std::time::Duration,
}

/// Log maximum evidence (You et al., ICML 2021). See the `logme` module.
///
/// `LogMe::default()` follows the [`DecompPath::Auto`] heuristic;
/// [`LogMe::with_path`] pins a decomposition. On [`DecompPath::Svd`] the
/// score is bit-identical to the seed implementation (asserted in tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogMe {
    pub(crate) path: DecompPath,
}

impl LogMe {
    /// Selects the decomposition path.
    pub const fn with_path(self, path: DecompPath) -> Self {
        LogMe { path }
    }

    /// Which decomposition path this instance requests.
    pub const fn path(&self) -> DecompPath {
        self.path
    }

    /// [`Scorer::score`] plus a [`LogMeReport`] describing the
    /// decomposition arm that ran and what it cost.
    pub fn score_with_report(
        &self,
        features: &Matrix,
        labels: &Labels,
    ) -> Result<(f64, LogMeReport), ScoreError> {
        log_me(features, labels, self.path)
    }
}

impl Scorer for LogMe {
    fn name(&self) -> &'static str {
        "LogME"
    }

    fn score(&self, features: &Matrix, labels: &Labels) -> Result<f64, ScoreError> {
        self.score_with_report(features, labels)
            .map(|(score, _)| score)
    }
}

/// LEEP (Nguyen et al., ICML 2020); `features` is the source-head
/// probability matrix. See the `leep_nce` module.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Leep;

impl Scorer for Leep {
    fn name(&self) -> &'static str {
        "LEEP"
    }

    fn score(&self, features: &Matrix, labels: &Labels) -> Result<f64, ScoreError> {
        leep_impl(features, labels)
    }
}

/// NCE (Tran et al., ICCV 2019); `features` is the source-head probability
/// matrix, hard pseudo-labels are its row-wise argmax. See
/// the `leep_nce` module.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Nce;

impl Scorer for Nce {
    fn name(&self) -> &'static str {
        "NCE"
    }

    fn score(&self, features: &Matrix, labels: &Labels) -> Result<f64, ScoreError> {
        labels.check_rows(features.rows())?;
        let z_dim = features.cols();
        if z_dim == 0 {
            return Err(ScoreError::TooFewClasses { num_classes: 0 });
        }
        // Row-wise argmax with `total_cmp` (last maximum wins on exact
        // ties) — the same expression as `ForwardPass::source_labels`, so
        // scoring through the trait matches the historical hard labels.
        let source_labels: Vec<usize> = (0..features.rows())
            .map(|r| {
                features
                    .row(r)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect();
        nce_impl(&source_labels, labels, z_dim)
    }
}

/// PARC (Bolya et al., NeurIPS 2021). See the `parc` module.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Parc;

impl Scorer for Parc {
    fn name(&self) -> &'static str {
        "PARC"
    }

    fn score(&self, features: &Matrix, labels: &Labels) -> Result<f64, ScoreError> {
        parc_impl(features, labels)
    }
}

/// TransRate (Huang et al., ICML 2022). See the `transrate` module.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransRate;

impl Scorer for TransRate {
    fn name(&self) -> &'static str {
        "TransRate"
    }

    fn score(&self, features: &Matrix, labels: &Labels) -> Result<f64, ScoreError> {
        trans_rate_impl(features, labels)
    }
}

/// H-score (Bao et al., ICIP 2019). See the `hscore` module.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HScore;

impl Scorer for HScore {
    fn name(&self) -> &'static str {
        "H-score"
    }

    fn score(&self, features: &Matrix, labels: &Labels) -> Result<f64, ScoreError> {
        h_score_impl(features, labels)
    }
}

/// GBC (Pándy et al., CVPR 2022). See the `gbc` module.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gbc;

impl Scorer for Gbc {
    fn name(&self) -> &'static str {
        "GBC"
    }

    fn score(&self, features: &Matrix, labels: &Labels) -> Result<f64, ScoreError> {
        gbc_impl(features, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_validate_once() {
        assert!(Labels::new(&[0, 1, 2], 3).is_ok());
        assert_eq!(
            Labels::new(&[0, 1], 0),
            Err(ScoreError::TooFewClasses { num_classes: 0 })
        );
        assert_eq!(
            Labels::new(&[0, 1], 1),
            Err(ScoreError::TooFewClasses { num_classes: 1 })
        );
        assert_eq!(
            Labels::new(&[0, 3, 1], 3),
            Err(ScoreError::LabelOutOfRange {
                index: 1,
                label: 3,
                num_classes: 3
            })
        );
    }

    #[test]
    fn labels_accessors() {
        let l = Labels::new(&[1, 0, 1, 1], 2).unwrap();
        assert_eq!(l.len(), 4);
        assert!(!l.is_empty());
        assert_eq!(l.num_classes(), 2);
        assert_eq!(l.as_slice(), &[1, 0, 1, 1]);
        assert_eq!(l.class_counts(), vec![1, 3]);
        assert!(l.check_rows(4).is_ok());
        assert_eq!(
            l.check_rows(7),
            Err(ScoreError::LabelCountMismatch { labels: 4, rows: 7 })
        );
    }

    #[test]
    fn class_sums_match_a_naive_one_hot_product_bit_for_bit() {
        // Class 3 is absent, class 1 has a single sample, and the rows
        // mix signed zeros with values whose sums depend on the order.
        let labels = [0, 2, 0, 1, 2, 0, 2, 4, 4];
        let l = Labels::new(&labels, 5).unwrap();
        let x = Matrix::from_fn(labels.len(), 4, |r, c| match (r + c) % 4 {
            0 => -0.0,
            1 => 0.1 * (r as f64 + 1.0),
            2 => 1e16 / (c as f64 + 1.0) * if r % 2 == 0 { 1.0 } else { -1.0 },
            _ => 3.0 - r as f64,
        });
        // The naive `Yᵀ X`: every entry accumulates y[r][c] · x[r][j] over
        // all rows in ascending order, zero products included.
        let naive = Matrix::from_fn(5, 4, |c, j| {
            let mut s = 0.0;
            for (r, &label) in labels.iter().enumerate() {
                let y = if label == c { 1.0 } else { 0.0 };
                s += y * x.get(r, j);
            }
            s
        });
        let sums = l.class_sums(&x);
        assert_eq!(sums.shape(), (5, 4));
        for c in 0..5 {
            for j in 0..4 {
                assert_eq!(
                    sums.get(c, j).to_bits(),
                    naive.get(c, j).to_bits(),
                    "bit mismatch at ({c},{j})"
                );
            }
        }
        // The absent class sums to +0.0; the single-sample class is that
        // sample's row (its -0.0 summed onto +0.0).
        for j in 0..4 {
            assert_eq!(sums.get(3, j).to_bits(), 0);
            assert_eq!(sums.get(1, j), x.get(3, j));
        }
    }

    #[test]
    fn error_display_and_source() {
        let e = ScoreError::Decomposition(DecompError::NotPositiveDefinite);
        assert!(e.to_string().contains("decomposition failed"));
        assert!(std::error::Error::source(&e).is_some());
        let e = ScoreError::LabelCountMismatch { labels: 3, rows: 5 };
        assert!(std::error::Error::source(&e).is_none());
        assert!(e.to_string().contains('3') && e.to_string().contains('5'));
    }
}
