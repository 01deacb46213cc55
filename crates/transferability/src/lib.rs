//! Transferability estimators: LogME, LEEP, NCE, PARC, TransRate, H-score,
//! GBC.
//!
//! These are the feature-based model-selection baselines of the paper
//! (§II-A, "feature-based model selection"). Each consumes the result of a
//! forward pass of a candidate model over the target dataset — features
//! and/or source-head predictions plus the target labels — and returns a
//! scalar score where **higher means more transferable**.
//!
//! Every estimator is reachable through the unified, fallible [`Scorer`]
//! trait: construct a validated [`Labels`] view once, then call
//! `score(&features, &labels)`, which returns [`ScoreError`] instead of
//! panicking on bad input.
//!
//! * [`LogMe`] — the paper's primary baseline and the source of the
//!   transferability edges in the TransferGraph graph (§V-A3). One batched
//!   `Z = YᵀU` kernel; on [`DecompPath::Svd`] it scores bit for bit what the
//!   seed's per-class implementation (the test-only `tg-logme-seed` crate)
//!   scores.
//! * [`Leep`], [`Nce`] — pseudo-label transfer estimators (their `features`
//!   argument is the source-head probability matrix).
//! * [`Parc`], [`TransRate`], [`HScore`], [`Gbc`] — representation-analysis
//!   estimators, implemented for completeness of the related-work table.
//!
//! # Example
//!
//! ```
//! use tg_zoo::{ModelZoo, ZooConfig, Modality};
//! use tg_transfer::{Labels, Leep, LogMe, Scorer};
//!
//! let zoo = ModelZoo::build(&ZooConfig::small(3));
//! let m = zoo.models_of(Modality::Image)[0];
//! let d = zoo.targets_of(Modality::Image)[0];
//! let fp = zoo.forward_pass(m, d);
//! let labels = Labels::new(&fp.labels, fp.num_classes)?;
//! let s1 = LogMe::default().score(&fp.features, &labels)?;
//! let s2 = Leep.score(&fp.source_probs, &labels)?;
//! assert!(s1.is_finite() && s2.is_finite());
//! # Ok::<(), tg_transfer::ScoreError>(())
//! ```

mod gbc;
mod hscore;
mod leep_nce;
mod logme;
mod parc;
mod scorer;
mod transrate;

pub use scorer::{
    DecompArm, DecompPath, Gbc, HScore, Labels, Leep, LogMe, LogMeReport, Nce, Parc, ScoreError,
    Scorer, TransRate,
};

use tg_zoo::ForwardPass;

/// The estimators this crate implements, for uniform dispatch in
/// experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Estimator {
    /// Log maximum evidence (You et al., ICML 2021).
    LogMe,
    /// Log expected empirical prediction (Nguyen et al., ICML 2020).
    Leep,
    /// Negative conditional entropy (Tran et al., ICCV 2019).
    Nce,
    /// Pairwise annotation representation comparison (Bolya et al., 2021).
    Parc,
    /// TransRate (Huang et al., ICML 2022).
    TransRate,
    /// H-score (Bao et al., 2019).
    HScore,
    /// Gaussian Bhattacharyya Coefficient (Pándy et al., CVPR 2022).
    Gbc,
}

impl Estimator {
    /// All estimators.
    pub const ALL: [Estimator; 7] = [
        Estimator::LogMe,
        Estimator::Leep,
        Estimator::Nce,
        Estimator::Parc,
        Estimator::TransRate,
        Estimator::HScore,
        Estimator::Gbc,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        self.scorer().name()
    }

    /// The [`Scorer`] implementation behind this estimator (LogME on the
    /// default [`DecompPath::Auto`] heuristic).
    pub fn scorer(&self) -> &'static dyn Scorer {
        const LOGME: LogMe = LogMe {
            path: DecompPath::Auto,
        };
        match self {
            Estimator::LogMe => &LOGME,
            Estimator::Leep => &Leep,
            Estimator::Nce => &Nce,
            Estimator::Parc => &Parc,
            Estimator::TransRate => &TransRate,
            Estimator::HScore => &HScore,
            Estimator::Gbc => &Gbc,
        }
    }

    /// Scores one forward pass, routing the right input matrix (features
    /// for feature-based estimators, source-head probabilities for
    /// [`Estimator::Leep`]/[`Estimator::Nce`]) into [`Scorer::score`].
    pub fn score(&self, fp: &ForwardPass) -> Result<f64, ScoreError> {
        let labels = Labels::new(&fp.labels, fp.num_classes)?;
        let features = match self {
            Estimator::Leep | Estimator::Nce => &fp.source_probs,
            _ => &fp.features,
        };
        self.scorer().score(features, &labels)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use tg_linalg::Matrix;
    use tg_rng::Rng;

    /// Synthetic class-structured features: `sep` controls how separable the
    /// classes are.
    pub fn clustered_features(
        rng: &mut Rng,
        n: usize,
        dim: usize,
        classes: usize,
        sep: f64,
    ) -> (Matrix, Vec<usize>) {
        let protos: Vec<Vec<f64>> = (0..classes)
            .map(|_| {
                let v = rng.normal_vec(dim, 0.0, 1.0);
                let norm = tg_linalg::matrix::norm(&v).max(1e-12);
                v.into_iter().map(|x| x / norm).collect()
            })
            .collect();
        let mut f = Matrix::zeros(n, dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % classes;
            labels.push(c);
            for j in 0..dim {
                f.set(i, j, sep * protos[c][j] + rng.normal(0.0, 1.0));
            }
        }
        (f, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_zoo::{Modality, ModelZoo, ZooConfig};

    #[test]
    fn all_estimators_finite_on_zoo_forward_pass() {
        let zoo = ModelZoo::build(&ZooConfig::small(13));
        let m = zoo.models_of(Modality::Image)[1];
        let d = zoo.targets_of(Modality::Image)[2];
        let fp = zoo.forward_pass(m, d);
        for est in Estimator::ALL {
            let s = est.score(&fp).unwrap();
            assert!(s.is_finite(), "{} returned {s}", est.name());
        }
    }

    #[test]
    fn estimator_dispatch_matches_direct_scorers() {
        // `Estimator::score` must route the right matrix into each scorer.
        let zoo = ModelZoo::build(&ZooConfig::small(7));
        let m = zoo.models_of(Modality::Image)[0];
        let d = zoo.targets_of(Modality::Image)[1];
        let fp = zoo.forward_pass(m, d);
        let labels = Labels::new(&fp.labels, fp.num_classes).unwrap();
        let direct = LogMe::default().score(&fp.features, &labels).unwrap();
        assert_eq!(
            Estimator::LogMe.score(&fp).unwrap().to_bits(),
            direct.to_bits()
        );
        let direct = Leep.score(&fp.source_probs, &labels).unwrap();
        assert_eq!(
            Estimator::Leep.score(&fp).unwrap().to_bits(),
            direct.to_bits()
        );
    }

    #[test]
    fn estimators_correlate_with_ground_truth_across_models() {
        // The core sanity property of the whole simulation: feature-based
        // scores must positively correlate with fine-tune accuracy, but not
        // perfectly (they are a noisy channel).
        let zoo = ModelZoo::build(&ZooConfig::paper(17));
        let d = zoo.dataset_by_name("pets");
        let models = zoo.models_of(Modality::Image);
        let accs: Vec<f64> = models
            .iter()
            .map(|&m| zoo.fine_tune(m, d, tg_zoo::FineTuneMethod::Full))
            .collect();
        let sub: Vec<_> = models.iter().step_by(2).copied().collect();
        let sub_accs: Vec<f64> = sub
            .iter()
            .map(|&m| zoo.fine_tune(m, d, tg_zoo::FineTuneMethod::Full))
            .collect();
        let logme = LogMe::default();
        let logme_scores: Vec<f64> = sub
            .iter()
            .map(|&m| {
                let fp = zoo.forward_pass(m, d);
                let labels = Labels::new(&fp.labels, fp.num_classes).unwrap();
                logme.score(&fp.features, &labels).unwrap()
            })
            .collect();
        let r = tg_linalg::stats::pearson(&sub_accs, &logme_scores).unwrap();
        assert!(r > 0.2, "LogME should carry signal, r={r}");
        assert!(r < 0.98, "LogME must not be a perfect oracle, r={r}");
        // Keep accs used (full list sanity).
        assert_eq!(accs.len(), models.len());
    }
}
