//! GBC: Gaussian Bhattacharyya Coefficient (Pándy et al., CVPR 2022).
//!
//! Models each class as a diagonal Gaussian in feature space and scores
//! transferability as `−Σ_{c≠c'} exp(−BD(c, c'))` — the negated sum of
//! pairwise Bhattacharyya overlaps. Well-separated classes ⇒ small overlap
//! ⇒ higher (less negative) score.

use tg_linalg::Matrix;

use crate::scorer::{Labels, ScoreError};

/// Variance floor to keep the Bhattacharyya distance defined for
//  near-degenerate dimensions.
const VAR_FLOOR: f64 = 1e-6;

/// Fallible GBC implementation behind [`crate::Gbc`].
pub(crate) fn gbc_impl(features: &Matrix, labels: &Labels) -> Result<f64, ScoreError> {
    let n = features.rows();
    labels.check_rows(n)?;
    if n == 0 {
        return Err(ScoreError::TooFewSamples { rows: 0, needed: 1 });
    }
    let d = features.cols();
    let num_classes = labels.num_classes();
    let label_slice = labels.as_slice();

    // Per-class diagonal Gaussians.
    let mut means = vec![vec![0.0; d]; num_classes];
    let mut counts = vec![0usize; num_classes];
    for (i, &c) in label_slice.iter().enumerate() {
        for j in 0..d {
            means[c][j] += features.get(i, j);
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
    let mut vars = vec![vec![VAR_FLOOR; d]; num_classes];
    for (i, &c) in label_slice.iter().enumerate() {
        for j in 0..d {
            let diff = features.get(i, j) - means[c][j];
            vars[c][j] += diff * diff;
        }
    }
    for (v, &cnt) in vars.iter_mut().zip(&counts) {
        if cnt > 1 {
            for x in v.iter_mut() {
                *x /= (cnt - 1) as f64;
            }
        }
    }

    // Pairwise Bhattacharyya distance for diagonal Gaussians:
    // BD = 1/8 Σ_j (μ1−μ2)²/σ̄² + 1/2 Σ_j ln(σ̄²/√(σ1² σ2²)),
    // σ̄² = (σ1² + σ2²)/2.
    let mut score = 0.0;
    for a in 0..num_classes {
        if counts[a] == 0 {
            continue;
        }
        for b in (a + 1)..num_classes {
            if counts[b] == 0 {
                continue;
            }
            let mut bd = 0.0;
            for j in 0..d {
                let va = vars[a][j].max(VAR_FLOOR);
                let vb = vars[b][j].max(VAR_FLOOR);
                let vm = (va + vb) / 2.0;
                let dm = means[a][j] - means[b][j];
                bd += 0.125 * dm * dm / vm + 0.5 * (vm / (va * vb).sqrt()).ln();
            }
            // Bhattacharyya coefficient = exp(−BD) ∈ (0, 1].
            score -= (-bd).exp();
        }
    }
    Ok(score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorer::{Gbc, Scorer};
    use crate::testutil::clustered_features;
    use tg_rng::Rng;

    fn gbc(f: &Matrix, y: &[usize], c: usize) -> f64 {
        Gbc.score(f, &Labels::new(y, c).unwrap()).unwrap()
    }

    #[test]
    fn separable_beats_noise() {
        let mut rng = Rng::seed_from_u64(1);
        let (f_good, y) = clustered_features(&mut rng, 240, 10, 4, 3.0);
        let (f_bad, _) = clustered_features(&mut rng, 240, 10, 4, 0.0);
        assert!(gbc(&f_good, &y, 4) > gbc(&f_bad, &y, 4));
    }

    #[test]
    fn bounded_by_pair_count() {
        // Score ∈ [−C(C,2), 0].
        let mut rng = Rng::seed_from_u64(2);
        let (f, y) = clustered_features(&mut rng, 200, 8, 5, 1.0);
        let s = gbc(&f, &y, 5);
        assert!(s <= 0.0);
        assert!(s >= -10.0); // C(5,2) = 10
    }

    #[test]
    fn monotone_in_separation() {
        let mut rng = Rng::seed_from_u64(3);
        let mut last = f64::NEG_INFINITY;
        for sep in [0.0, 1.5, 3.0, 6.0] {
            let (f, y) = clustered_features(&mut rng, 300, 8, 3, sep);
            let s = gbc(&f, &y, 3);
            assert!(s > last, "sep {sep}: {s} <= {last}");
            last = s;
        }
    }

    #[test]
    fn identical_classes_fully_overlap() {
        // All samples from one cluster but two labels: coefficient ≈ 1 per
        // pair → score ≈ −1.
        let mut rng = Rng::seed_from_u64(4);
        let (f, _) = clustered_features(&mut rng, 200, 6, 1, 2.0);
        let labels: Vec<usize> = (0..200).map(|i| i % 2).collect();
        let s = gbc(&f, &labels, 2);
        assert!(s < -0.8, "overlapping classes should score near −1: {s}");
    }

    #[test]
    fn handles_missing_classes() {
        let mut rng = Rng::seed_from_u64(5);
        let (f, y) = clustered_features(&mut rng, 90, 6, 3, 2.0);
        assert!(gbc(&f, &y, 10).is_finite());
    }

    #[test]
    fn label_count_mismatch_is_an_error() {
        let f = Matrix::zeros(5, 3);
        let labels = Labels::new(&[0, 1], 2).unwrap();
        assert_eq!(
            Gbc.score(&f, &labels),
            Err(ScoreError::LabelCountMismatch { labels: 2, rows: 5 })
        );
    }
}
