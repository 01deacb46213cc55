//! PARC: Pairwise Annotation Representation Comparison (Bolya et al.,
//! NeurIPS 2021).
//!
//! PARC compares the *geometry* of the feature space with the geometry of
//! the label space: it builds the pairwise Pearson-distance matrix of the
//! features and of the one-hot labels, then reports the Spearman correlation
//! between the two lower triangles (×100, as in the reference code).

use tg_linalg::stats::spearman;
use tg_linalg::Matrix;

use crate::scorer::{Labels, ScoreError};

/// Maximum number of samples used; PARC is O(n²) in memory so the reference
/// implementation subsamples.
const MAX_SAMPLES: usize = 256;

/// Fallible PARC implementation behind [`crate::Parc`].
pub(crate) fn parc_impl(features: &Matrix, labels: &Labels) -> Result<f64, ScoreError> {
    let n_total = features.rows();
    labels.check_rows(n_total)?;
    // Deterministic stride subsample.
    let stride = n_total.div_ceil(MAX_SAMPLES).max(1);
    let idx: Vec<usize> = (0..n_total).step_by(stride).collect();
    let n = idx.len();
    if n < 3 {
        return Err(ScoreError::TooFewSamples {
            rows: n_total,
            needed: 3,
        });
    }
    let label_slice = labels.as_slice();

    // Pearson-distance matrix of feature rows.
    let fdist = pearson_distance_rows(features, &idx);
    // One-hot label matrix and its Pearson-distance.
    let onehot = Matrix::from_fn(n, labels.num_classes(), |r, c| {
        if label_slice[idx[r]] == c {
            1.0
        } else {
            0.0
        }
    });
    let all: Vec<usize> = (0..n).collect();
    let ldist = pearson_distance_rows(&onehot, &all);

    // Spearman of the lower triangles.
    let mut xs = Vec::with_capacity(n * (n - 1) / 2);
    let mut ys = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in 0..i {
            xs.push(fdist.get(i, j));
            ys.push(ldist.get(i, j));
        }
    }
    Ok(spearman(&xs, &ys).unwrap_or(0.0) * 100.0)
}

/// `1 − pearson(row_i, row_j)` for the selected rows.
fn pearson_distance_rows(m: &Matrix, idx: &[usize]) -> Matrix {
    let n = idx.len();
    let d = m.cols();
    // Pre-centre rows.
    let centred: Vec<Vec<f64>> = idx
        .iter()
        .map(|&r| {
            let row = m.row(r);
            let mean = tg_linalg::stats::mean(row);
            row.iter().map(|&x| x - mean).collect()
        })
        .collect();
    let norms: Vec<f64> = centred.iter().map(|r| tg_linalg::matrix::norm(r)).collect();
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            return 0.0;
        }
        if norms[i] < 1e-12 || norms[j] < 1e-12 {
            return 1.0;
        }
        let mut dot = 0.0;
        for k in 0..d {
            dot += centred[i][k] * centred[j][k];
        }
        1.0 - (dot / (norms[i] * norms[j])).clamp(-1.0, 1.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorer::{Parc, Scorer};
    use crate::testutil::clustered_features;
    use tg_rng::Rng;

    fn parc(f: &Matrix, y: &[usize], c: usize) -> f64 {
        Parc.score(f, &Labels::new(y, c).unwrap()).unwrap()
    }

    #[test]
    fn separable_beats_noise() {
        let mut rng = Rng::seed_from_u64(1);
        let (f_good, y) = clustered_features(&mut rng, 180, 12, 3, 3.0);
        let (f_bad, _) = clustered_features(&mut rng, 180, 12, 3, 0.0);
        assert!(parc(&f_good, &y, 3) > parc(&f_bad, &y, 3));
    }

    #[test]
    fn bounded_by_100() {
        let mut rng = Rng::seed_from_u64(2);
        let (f, y) = clustered_features(&mut rng, 120, 8, 4, 5.0);
        let s = parc(&f, &y, 4);
        assert!((-100.0..=100.0).contains(&s));
        assert!(s > 20.0, "highly separable features should score well: {s}");
    }

    #[test]
    fn subsamples_large_inputs() {
        let mut rng = Rng::seed_from_u64(3);
        let (f, y) = clustered_features(&mut rng, 1000, 8, 4, 2.0);
        // Must not blow up; just checks it runs and is finite.
        assert!(parc(&f, &y, 4).is_finite());
    }

    #[test]
    fn random_features_near_zero() {
        let mut rng = Rng::seed_from_u64(4);
        let (f, y) = clustered_features(&mut rng, 240, 16, 4, 0.0);
        let s = parc(&f, &y, 4);
        assert!(
            s.abs() < 15.0,
            "uninformative features should be near 0: {s}"
        );
    }

    #[test]
    fn too_few_samples_is_an_error() {
        let f = Matrix::zeros(2, 4);
        let labels = Labels::new(&[0, 1], 2).unwrap();
        assert_eq!(
            Parc.score(&f, &labels),
            Err(ScoreError::TooFewSamples { rows: 2, needed: 3 })
        );
    }
}
