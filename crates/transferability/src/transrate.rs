//! TransRate: frustratingly easy transferability estimation (Huang et al.,
//! ICML 2022).
//!
//! TransRate is the mutual information between features and labels measured
//! through coding rate: `R(Z, ε) − R(Z|Y, ε)`, where
//! `R(Z, ε) = ½ log det(I + d/(nε²) ZᵀZ)` for mean-centred features `Z`.

use tg_linalg::decomp::{cholesky, DecompError};
use tg_linalg::Matrix;

use crate::scorer::{Labels, ScoreError};

/// Distortion parameter ε of the coding rate. The reference implementation
/// defaults to values in this ballpark; results are insensitive within an
/// order of magnitude.
const EPSILON: f64 = 1.0;

/// Coding rate of the (already centred) rows in `z`.
///
/// `I + cZᵀZ` with `c > 0` is SPD (identity plus a PSD Gram matrix), so a
/// Cholesky failure is never expected; it propagates as an error rather
/// than a panic.
fn coding_rate(z: &Matrix, eps: f64) -> Result<f64, DecompError> {
    let n = z.rows();
    let d = z.cols();
    if n == 0 {
        return Ok(0.0);
    }
    let scale = d as f64 / (n as f64 * eps * eps);
    let gram = z.gram(); // d×d
    let a = Matrix::from_fn(d, d, |i, j| {
        let idm = if i == j { 1.0 } else { 0.0 };
        idm + scale * gram.get(i, j)
    });
    // log det via Cholesky.
    let l = cholesky(&a)?;
    let mut logdet = 0.0;
    for i in 0..d {
        logdet += l.get(i, i).ln();
    }
    Ok(logdet) // = ½ log det(A) since det(A) = det(L)², so Σ ln L_ii = ½ ln det A
}

/// Fallible TransRate implementation behind [`crate::TransRate`].
pub(crate) fn trans_rate_impl(features: &Matrix, labels: &Labels) -> Result<f64, ScoreError> {
    let n = features.rows();
    labels.check_rows(n)?;
    if n == 0 {
        return Err(ScoreError::TooFewSamples { rows: 0, needed: 1 });
    }

    let z = features.center_columns();
    let whole = coding_rate(&z, EPSILON)?;

    let mut conditional = 0.0;
    for c in 0..labels.num_classes() {
        let rows: Vec<usize> = labels
            .as_slice()
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == c)
            .map(|(i, _)| i)
            .collect();
        if rows.is_empty() {
            continue;
        }
        let sub = Matrix::from_fn(rows.len(), z.cols(), |r, col| z.get(rows[r], col));
        conditional += (rows.len() as f64 / n as f64) * coding_rate(&sub, EPSILON)?;
    }
    Ok(whole - conditional)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorer::{Scorer, TransRate};
    use crate::testutil::clustered_features;
    use tg_rng::Rng;

    fn trans_rate(f: &Matrix, y: &[usize], c: usize) -> f64 {
        TransRate.score(f, &Labels::new(y, c).unwrap()).unwrap()
    }

    #[test]
    fn separable_beats_noise() {
        let mut rng = Rng::seed_from_u64(1);
        let (f_good, y) = clustered_features(&mut rng, 300, 10, 4, 3.0);
        let (f_bad, _) = clustered_features(&mut rng, 300, 10, 4, 0.0);
        assert!(trans_rate(&f_good, &y, 4) > trans_rate(&f_bad, &y, 4));
    }

    #[test]
    fn nonnegative_up_to_noise() {
        // R(Z) ≥ Σ w_c R(Z_c) approximately for class-structured data;
        // allow small negative slack from sampling noise.
        let mut rng = Rng::seed_from_u64(2);
        let (f, y) = clustered_features(&mut rng, 240, 8, 3, 1.0);
        assert!(trans_rate(&f, &y, 3) > -0.5);
    }

    #[test]
    fn monotone_in_separation() {
        let mut rng = Rng::seed_from_u64(3);
        let mut last = f64::NEG_INFINITY;
        for sep in [0.0, 1.5, 3.0] {
            let (f, y) = clustered_features(&mut rng, 300, 8, 3, sep);
            let s = trans_rate(&f, &y, 3);
            assert!(s > last, "sep {sep}: {s} <= {last}");
            last = s;
        }
    }

    #[test]
    fn coding_rate_zero_for_zero_features() {
        let z = Matrix::zeros(50, 6);
        assert!(coding_rate(&z, 1.0).unwrap().abs() < 1e-12);
    }

    #[test]
    fn handles_missing_classes() {
        // num_classes larger than observed labels.
        let mut rng = Rng::seed_from_u64(4);
        let (f, y) = clustered_features(&mut rng, 90, 6, 3, 2.0);
        assert!(trans_rate(&f, &y, 10).is_finite());
    }

    #[test]
    fn empty_input_is_an_error() {
        let f = Matrix::zeros(0, 4);
        let labels = Labels::new(&[], 2).unwrap();
        assert_eq!(
            TransRate.score(&f, &labels),
            Err(ScoreError::TooFewSamples { rows: 0, needed: 1 })
        );
    }
}
