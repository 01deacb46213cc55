//! H-score (Bao et al., ICIP 2019): `tr(cov(F)⁻¹ cov_between(F))`.
//!
//! The between-class scatter measured in the whitened feature space — large
//! when class means are far apart relative to overall feature variance.
//! We use a ridge-regularised covariance inverse (shrinkage) for numerical
//! robustness, as later work (e.g. the regularised H-score) recommends.

use tg_linalg::decomp::cholesky_solve;
use tg_linalg::Matrix;

use crate::scorer::{Labels, ScoreError};

/// Ridge added to the covariance diagonal (relative to mean variance).
const SHRINKAGE: f64 = 1e-3;

/// Fallible H-score implementation behind [`crate::HScore`].
pub(crate) fn h_score_impl(features: &Matrix, labels: &Labels) -> Result<f64, ScoreError> {
    let n = features.rows();
    labels.check_rows(n)?;
    if n < 2 {
        return Err(ScoreError::TooFewSamples { rows: n, needed: 2 });
    }
    let d = features.cols();
    let num_classes = labels.num_classes();

    let z = features.center_columns();
    // cov(F) = ZᵀZ / n, ridge-regularised.
    let mut cov = z.gram().scale(1.0 / n as f64);
    let mean_var: f64 = (0..d).map(|i| cov.get(i, i)).sum::<f64>() / d as f64;
    let ridge = (mean_var * SHRINKAGE).max(1e-9);
    for i in 0..d {
        cov.set(i, i, cov.get(i, i) + ridge);
    }

    // Class-conditional means (of centred features) and weights.
    let mut means = vec![vec![0.0; d]; num_classes];
    let mut counts = vec![0usize; num_classes];
    for (i, &c) in labels.as_slice().iter().enumerate() {
        for j in 0..d {
            means[c][j] += z.get(i, j);
        }
        counts[c] += 1;
    }
    for (m, &cnt) in means.iter_mut().zip(&counts) {
        if cnt > 0 {
            for x in m.iter_mut() {
                *x /= cnt as f64;
            }
        }
    }

    // cov_between = Σ_c w_c μ_c μ_cᵀ; tr(cov⁻¹ cov_between) =
    // Σ_c w_c μ_cᵀ cov⁻¹ μ_c — solve per class instead of inverting. The
    // shrinkage-regularised covariance is SPD by construction, so a
    // Cholesky failure surfaces as a (never-expected) ScoreError rather
    // than a panic.
    let mut score = 0.0;
    for (m, &cnt) in means.iter().zip(&counts) {
        if cnt == 0 {
            continue;
        }
        let w = cnt as f64 / n as f64;
        let x = cholesky_solve(&cov, m)?;
        let quad: f64 = m.iter().zip(&x).map(|(a, b)| a * b).sum();
        score += w * quad;
    }
    Ok(score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorer::{HScore, Scorer};
    use crate::testutil::clustered_features;
    use tg_rng::Rng;

    fn h_score(f: &Matrix, y: &[usize], c: usize) -> f64 {
        HScore.score(f, &Labels::new(y, c).unwrap()).unwrap()
    }

    #[test]
    fn separable_beats_noise() {
        let mut rng = Rng::seed_from_u64(1);
        let (f_good, y) = clustered_features(&mut rng, 240, 10, 4, 3.0);
        let (f_bad, _) = clustered_features(&mut rng, 240, 10, 4, 0.0);
        assert!(h_score(&f_good, &y, 4) > h_score(&f_bad, &y, 4));
    }

    #[test]
    fn nonnegative() {
        let mut rng = Rng::seed_from_u64(2);
        let (f, y) = clustered_features(&mut rng, 150, 8, 3, 1.0);
        assert!(h_score(&f, &y, 3) >= 0.0);
    }

    #[test]
    fn monotone_in_separation() {
        let mut rng = Rng::seed_from_u64(3);
        let mut last = f64::NEG_INFINITY;
        for sep in [0.0, 1.0, 2.0, 4.0] {
            let (f, y) = clustered_features(&mut rng, 300, 8, 3, sep);
            let s = h_score(&f, &y, 3);
            assert!(s > last, "sep {sep}: {s} <= {last}");
            last = s;
        }
    }

    #[test]
    fn handles_missing_classes() {
        let mut rng = Rng::seed_from_u64(4);
        let (f, y) = clustered_features(&mut rng, 90, 6, 3, 2.0);
        assert!(h_score(&f, &y, 8).is_finite());
    }

    #[test]
    fn scale_invariant() {
        // cov⁻¹ whitening makes the H-score invariant to feature scaling.
        let mut rng = Rng::seed_from_u64(5);
        let (f, y) = clustered_features(&mut rng, 200, 8, 3, 2.0);
        let s1 = h_score(&f, &y, 3);
        let s2 = h_score(&f.scale(7.0), &y, 3);
        assert!(
            (s1 - s2).abs() / s1.abs().max(1.0) < 0.02,
            "s1 {s1} s2 {s2}"
        );
    }

    #[test]
    fn too_few_samples_is_an_error() {
        let f = Matrix::zeros(1, 4);
        let labels = Labels::new(&[0], 2).unwrap();
        assert_eq!(
            HScore.score(&f, &labels),
            Err(ScoreError::TooFewSamples { rows: 1, needed: 2 })
        );
    }
}
