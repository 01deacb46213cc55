//! LogME: practical assessment of pre-trained models for transfer learning
//! (You et al., ICML 2021).
//!
//! LogME scores a feature matrix `F` by the maximum marginal evidence of a
//! Bayesian linear regression from `F` to each one-vs-rest label column,
//! optimised over the prior precision `α` and noise precision `β` with
//! MacKay's fixed-point updates. The SVD of `F` makes each iteration O(D).
//!
//! # Kernel
//!
//! [`log_me`] computes all per-class projections at once as the class sums
//! `Z = YᵀU` for the one-hot label matrix `Y` ([`Labels::class_sums`]: each
//! row of `U` added onto its class's row, without building `Y`), then runs
//! the MacKay fixed point for every class simultaneously as a
//! struct-of-arrays sweep over `alpha[]/beta[]/gamma[]`.
//!
//! # Determinism and bit-identity
//!
//! On the SVD path the kernel scores **bit-identically** to the seed
//! implementation: one class at a time, a column-major `u.get(r, i)`
//! projection loop, kept verbatim as the test-only `tg-logme-seed` oracle
//! (asserted by unit and property tests, see `tests/property_tests.rs`,
//! and gated by the `logme` bench). The Gram arm is deterministic but
//! agrees to a tolerance rather than bits (see *Decomposition paths*
//! below). The bit-identity argument:
//!
//! * every reduction accumulates in ascending sample-row order `r`, as the
//!   seed's projection loop does;
//! * the class sums skip the seed's `u · 0.0` terms for rows of other
//!   classes and add `u` where the seed adds `u · 1.0`; both are
//!   bit-neutral for finite inputs (a `±0.0` added to a partial sum that
//!   started at `+0.0` never changes its bits, and `u · 1.0 == u`
//!   exactly), and non-finite features are rejected up front as
//!   [`ScoreError::NonFiniteInput`];
//! * `Σ_r 1.0` over a class (the seed's `‖y‖²`) equals `count as f64`
//!   exactly for any class size below 2⁵³;
//! * [`mackay_step`] and [`evidence`] are the seed's fixed-point update and
//!   evidence formula operation for operation, and per-class state is
//!   independent, so interleaving classes executes the same scalar
//!   operations in the same order per class as finishing one class at a
//!   time.
//!
//! Scores, and any disk-cached artifacts keyed on them, are therefore
//! unchanged since the seed.
//!
//! # Decomposition paths
//!
//! The kernel obtains its `(σ², z)` inputs along one of two arms
//! (selected by [`crate::DecompPath`], heuristically by default):
//!
//! * **Svd** — the historical thin SVD of `F` (`n × d`), projecting
//!   `z = Uᵀy`. Bit-exactness reference.
//! * **Gram** — for `n ≫ d` the same quantities come from the `d × d` Gram
//!   matrix alone: `FᵀF = V Σ² Vᵀ` gives the spectrum, and from
//!   `U = F V Σ⁻¹` follows `zᵢ = uᵢᵀy = vᵢᵀ(Fᵀy)/σᵢ` — so `Z = P V Σ⁻¹`
//!   with `P = YᵀF`, the `O(n·d)` class sums of `F`. The two `O(n·d²)`
//!   passes that materialise `U` (`A·V` plus normalisation) disappear;
//!   directions with `σ ≈ 0` get `z = 0`, which the evidence treats exactly
//!   like the SVD path's zeroed `U` columns (mass flows into the residual
//!   `r0`, and each contributes `ln α` to the log-determinant). The
//!   evidence is therefore *mathematically identical* for every shape —
//!   including `n < d`, where the Gram spectrum carries `d − n` exact
//!   zeros — and agrees with the SVD path to ~1e-6 in floating point
//!   (property-tested, bench-gated).
//!
//! Per-arm decomposition wall-clock is measured here (the module waives
//! clippy's `disallowed_methods` clock ban for exactly that) and reported
//! through [`crate::LogMeReport`] into the workbench telemetry.

#![expect(
    clippy::disallowed_methods,
    reason = "per-arm decomposition timing is telemetry; it never feeds back into the score"
)]

use std::time::Instant;

use tg_linalg::decomp::{symmetric_eigen, thin_svd, SIGMA_CLAMP};
use tg_linalg::Matrix;

use crate::scorer::{DecompArm, DecompPath, Labels, LogMeReport, ScoreError};

/// Number of fixed-point iterations; the original implementation uses 11
/// and observes convergence well before that.
const FIXED_POINT_ITERS: usize = 11;

/// Sample-to-dimension ratio above which [`DecompPath::Auto`] picks the
/// Gram path: the Gram arm saves two `O(n·d²)` passes but pays an extra
/// `O(C·d²)` projection, so it needs `n` comfortably above `d` to win.
const GRAM_RATIO: usize = 4;

/// Shape/finiteness validation, ahead of either decomposition path.
fn validate(features: &Matrix, labels: &Labels) -> Result<(), ScoreError> {
    labels.check_rows(features.rows())?;
    for r in 0..features.rows() {
        if features.row(r).iter().any(|v| !v.is_finite()) {
            return Err(ScoreError::NonFiniteInput);
        }
    }
    Ok(())
}

/// One MacKay fixed-point update for a single class.
///
/// Reads the current `(alpha, beta)`, accumulates `gamma`/`m2`/`res2` over
/// the shared σ² spectrum in ascending index order, and writes the clamped
/// next iterate back. Returns `false` (leaving the state untouched) when
/// the step goes non-finite, which freezes the class at its last finite
/// iterate — the historical `break` behaviour.
///
/// Operation for operation the seed implementation's update.
#[inline]
fn mackay_step(
    sigma2: &[f64],
    z_sq: &[f64],
    r0: f64,
    nf: f64,
    alpha: &mut f64,
    beta: &mut f64,
    gamma_out: &mut f64,
) -> bool {
    let a = *alpha;
    let b = *beta;
    let mut gamma = 0.0;
    let mut m2 = 0.0;
    let mut res2 = r0;
    for i in 0..sigma2.len() {
        let denom = a + b * sigma2[i];
        gamma += b * sigma2[i] / denom;
        m2 += b * b * sigma2[i] * z_sq[i] / (denom * denom);
        res2 += z_sq[i] * (a / denom) * (a / denom);
    }
    let new_alpha = if m2 > 1e-12 { gamma / m2 } else { a };
    let new_beta = if res2 > 1e-12 { (nf - gamma) / res2 } else { b };
    if !new_alpha.is_finite() || !new_beta.is_finite() {
        return false;
    }
    *alpha = new_alpha.clamp(1e-9, 1e12);
    *beta = new_beta.clamp(1e-9, 1e12);
    *gamma_out = gamma;
    true
}

/// Per-class log evidence at the optimised `(alpha, beta)`, **not** yet
/// divided by `n`. Operation for operation the seed implementation's
/// evidence.
#[inline]
fn evidence(
    sigma2: &[f64],
    z_sq: &[f64],
    r0: f64,
    alpha: f64,
    beta: f64,
    nf: f64,
    d: usize,
) -> f64 {
    let k = sigma2.len();
    let mut m2 = 0.0;
    let mut res2 = r0;
    let mut logdet = 0.0;
    for i in 0..k {
        let denom = alpha + beta * sigma2[i];
        m2 += beta * beta * sigma2[i] * z_sq[i] / (denom * denom);
        res2 += z_sq[i] * (alpha / denom) * (alpha / denom);
        logdet += denom.ln();
    }
    // Dimensions beyond the numerical rank contribute ln α each.
    logdet += (d.saturating_sub(k)) as f64 * alpha.ln();
    0.5 * (d as f64 * alpha.ln() + nf * beta.ln()
        - beta * res2
        - alpha * m2
        - logdet
        - nf * (2.0 * std::f64::consts::PI).ln())
}

/// The decomposition stage of the kernel: resolves the requested
/// path, produces the `σ²` spectrum plus the per-class projections
/// `Z = YᵀU` (`C × k`), and measures its own wall-clock for the per-arm
/// telemetry.
fn decompose(
    features: &Matrix,
    labels: &Labels,
    path: DecompPath,
) -> Result<(Vec<f64>, Matrix, LogMeReport), ScoreError> {
    let (n, d) = features.shape();
    let arm = match path {
        DecompPath::Auto => {
            if n >= GRAM_RATIO * d {
                DecompArm::Gram
            } else {
                DecompArm::Svd
            }
        }
        DecompPath::Svd => DecompArm::Svd,
        DecompPath::Gram => DecompArm::Gram,
    };
    let start = Instant::now();
    let (sigma2, z) = match arm {
        DecompArm::Svd => {
            let svd = thin_svd(features)?;
            let sigma2: Vec<f64> = svd.sigma.iter().map(|s| s * s).collect();
            (sigma2, labels.class_sums(&svd.u))
        }
        DecompArm::Gram => {
            let (evals, v) = symmetric_eigen(&features.gram())?;
            // The Gram eigenvalues *are* σ² (zero-clamped); keeping them
            // avoids the sqrt-then-square round trip of the SVD path.
            let sigma2: Vec<f64> = evals.iter().map(|e| e.max(0.0)).collect();
            // Z = P V Σ⁻¹ with P = YᵀF: each projection zᵢ = vᵢᵀ(Fᵀy)/σᵢ,
            // never materialising U. σ≈0 directions project to exactly 0,
            // matching the SVD path's zeroed U columns.
            let p = labels.class_sums(features);
            let pv = p.matmul(&v);
            let z = Matrix::from_fn(pv.rows(), pv.cols(), |r, c| {
                let sigma = sigma2[c].sqrt();
                if sigma > SIGMA_CLAMP {
                    pv.get(r, c) / sigma
                } else {
                    0.0
                }
            });
            (sigma2, z)
        }
    };
    let report = LogMeReport {
        arm,
        decomp: start.elapsed(),
    };
    Ok((sigma2, z, report))
}

/// The LogME kernel: all classes at once.
///
/// One pass of class sums `Z = YᵀU` (an `O(n·k)` scatter of `U` rows into
/// per-class `Z` rows) replaces `num_classes` separate projection passes,
/// then the MacKay fixed point runs for every class inside each sweep —
/// struct-of-arrays `alpha[]/beta[]/gamma[]` with a `frozen[]` mask
/// replacing the seed's per-class early `break`.
///
/// The `(σ², Z)` inputs come from whichever decomposition arm `path`
/// resolves to (see [`decompose`] and the module docs); the evidence stage
/// below is arm-independent.
pub(crate) fn log_me(
    features: &Matrix,
    labels: &Labels,
    path: DecompPath,
) -> Result<(f64, LogMeReport), ScoreError> {
    validate(features, labels)?;
    let (sigma2, z, report) = decompose(features, labels, path)?;
    let n = features.rows();
    let d = features.cols();
    let k = sigma2.len();
    let nf = n as f64;
    let num_classes = labels.num_classes();

    let counts = labels.class_counts();

    // z², plus the out-of-column-space residual r0 per class. The running
    // sum mirrors the seed's ascending-index `z_sq.iter().sum()`, and
    // `count as f64` is exactly the seed's Σ y_r² (a sum of 1.0s).
    let mut z_sq = vec![0.0; num_classes * k];
    let mut r0 = vec![0.0; num_classes];
    for (class, r0c) in r0.iter_mut().enumerate() {
        let mut sum = 0.0;
        for (zs, &zi) in z_sq[class * k..(class + 1) * k]
            .iter_mut()
            .zip(z.row(class))
        {
            *zs = zi * zi;
            sum += *zs;
        }
        *r0c = (counts[class] as f64 - sum).max(0.0);
    }

    // Struct-of-arrays MacKay sweep: iteration-outer, class-inner. Classes
    // are independent, so this interleaving is bit-identical to finishing
    // one class at a time.
    let mut alpha = vec![1.0f64; num_classes];
    let mut beta = vec![1.0f64; num_classes];
    let mut gamma = vec![0.0f64; num_classes];
    let mut frozen = vec![false; num_classes];
    for _ in 0..FIXED_POINT_ITERS {
        for class in 0..num_classes {
            if frozen[class] {
                continue;
            }
            if !mackay_step(
                &sigma2,
                &z_sq[class * k..(class + 1) * k],
                r0[class],
                nf,
                &mut alpha[class],
                &mut beta[class],
                &mut gamma[class],
            ) {
                frozen[class] = true;
            }
        }
    }

    let mut total = 0.0;
    for class in 0..num_classes {
        total += evidence(
            &sigma2,
            &z_sq[class * k..(class + 1) * k],
            r0[class],
            alpha[class],
            beta[class],
            nf,
            d,
        ) / nf;
    }
    Ok((total / num_classes as f64, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorer::{LogMe, Scorer};
    use crate::testutil::clustered_features;
    use tg_logme_seed::seed_log_me;
    use tg_rng::Rng;

    /// The SVD path is bit-identical to the seed implementation, which these
    /// tests pin explicitly (the default `Auto` heuristic may resolve to the
    /// Gram arm, which agrees to tolerance, not bits).
    fn both_identical(f: &Matrix, y: &[usize], c: usize) -> f64 {
        let labels = Labels::new(y, c).unwrap();
        let svd = LogMe::default()
            .with_path(DecompPath::Svd)
            .score(f, &labels)
            .unwrap();
        let seed = seed_log_me(f, y, c);
        assert_eq!(
            svd.to_bits(),
            seed.to_bits(),
            "svd {svd} != seed {seed} on {}x{}, {c} classes",
            f.rows(),
            f.cols()
        );
        svd
    }

    /// |a − b| within abs+rel tolerance.
    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol + tol * b.abs()
    }

    #[test]
    fn separable_scores_higher_than_noise() {
        let mut rng = Rng::seed_from_u64(1);
        let (f_good, y) = clustered_features(&mut rng, 200, 16, 4, 3.0);
        let (f_bad, _) = clustered_features(&mut rng, 200, 16, 4, 0.0);
        let good = both_identical(&f_good, &y, 4);
        let bad = both_identical(&f_bad, &y, 4);
        assert!(good > bad, "good {good} should beat bad {bad}");
    }

    #[test]
    fn monotone_in_separation() {
        let mut rng = Rng::seed_from_u64(2);
        let mut last = f64::NEG_INFINITY;
        for sep in [0.0, 1.0, 2.0, 4.0] {
            let (f, y) = clustered_features(&mut rng, 240, 12, 3, sep);
            let s = both_identical(&f, &y, 3);
            assert!(s > last, "sep {sep}: {s} <= {last}");
            last = s;
        }
    }

    #[test]
    fn scale_invariance_is_mild() {
        // LogME is not exactly scale-invariant but must not explode under
        // feature rescaling (the evidence adapts α, β).
        let mut rng = Rng::seed_from_u64(3);
        let (f, y) = clustered_features(&mut rng, 150, 8, 3, 2.0);
        let s1 = both_identical(&f, &y, 3);
        let s2 = both_identical(&f.scale(10.0), &y, 3);
        assert!((s1 - s2).abs() < 1.0, "s1 {s1} s2 {s2}");
    }

    #[test]
    fn handles_rank_deficient_features() {
        // Duplicate columns: rank D/2.
        let mut rng = Rng::seed_from_u64(4);
        let (half, y) = clustered_features(&mut rng, 120, 6, 3, 2.0);
        let f = half.hstack(&half);
        assert!(both_identical(&f, &y, 3).is_finite());
    }

    #[test]
    fn binary_case_works() {
        let mut rng = Rng::seed_from_u64(5);
        let (f, y) = clustered_features(&mut rng, 160, 10, 2, 2.5);
        assert!(both_identical(&f, &y, 2).is_finite());
    }

    #[test]
    fn single_sample_and_absent_classes() {
        // Class 2 has exactly one sample; class 3 never occurs.
        let mut rng = Rng::seed_from_u64(6);
        let (f, mut y) = clustered_features(&mut rng, 90, 6, 2, 2.0);
        y[17] = 2;
        assert!(both_identical(&f, &y, 4).is_finite());
    }

    #[test]
    fn wide_features_more_dims_than_samples() {
        // n < D exercises the k = n branch of the thin SVD.
        let mut rng = Rng::seed_from_u64(7);
        let (f, y) = clustered_features(&mut rng, 12, 20, 3, 2.0);
        assert!(both_identical(&f, &y, 3).is_finite());
    }

    #[test]
    fn mismatched_labels_error_instead_of_panic() {
        let f = Matrix::zeros(10, 4);
        let labels = Labels::new(&[0, 1], 2).unwrap();
        assert_eq!(
            LogMe::default().score(&f, &labels),
            Err(ScoreError::LabelCountMismatch {
                labels: 2,
                rows: 10
            })
        );
    }

    #[test]
    fn non_finite_features_error() {
        let mut f = Matrix::zeros(6, 2);
        f.set(3, 1, f64::NAN);
        let labels_vec: Vec<usize> = (0..6).map(|i| i % 2).collect();
        let labels = Labels::new(&labels_vec, 2).unwrap();
        assert_eq!(
            LogMe::default().score(&f, &labels),
            Err(ScoreError::NonFiniteInput)
        );
    }

    #[test]
    fn gram_path_matches_svd_path_within_tolerance() {
        let mut rng = Rng::seed_from_u64(40);
        for (n, d, c) in [(200, 16, 4), (150, 8, 3), (64, 16, 2)] {
            let (f, y) = clustered_features(&mut rng, n, d, c, 2.0);
            let labels = Labels::new(&y, c).unwrap();
            let svd = LogMe::default()
                .with_path(DecompPath::Svd)
                .score(&f, &labels)
                .unwrap();
            let gram = LogMe::default()
                .with_path(DecompPath::Gram)
                .score(&f, &labels)
                .unwrap();
            assert!(close(gram, svd, 1e-6), "gram {gram} vs svd {svd} at n={n}");
        }
    }

    #[test]
    fn auto_heuristic_resolves_by_aspect_ratio() {
        let mut rng = Rng::seed_from_u64(41);
        // n = 200 ≥ 4·16: Auto takes the Gram arm.
        let (f, y) = clustered_features(&mut rng, 200, 16, 3, 2.0);
        let labels = Labels::new(&y, 3).unwrap();
        let (_, report) = LogMe::default().score_with_report(&f, &labels).unwrap();
        assert_eq!(report.arm, DecompArm::Gram);
        // n = 12 < 4·20: Auto stays on the SVD reference.
        let (f, y) = clustered_features(&mut rng, 12, 20, 3, 2.0);
        let labels = Labels::new(&y, 3).unwrap();
        let (_, report) = LogMe::default().score_with_report(&f, &labels).unwrap();
        assert_eq!(report.arm, DecompArm::Svd);
    }

    #[test]
    fn forced_gram_path_handles_wide_features() {
        // n < d forced onto the Gram arm: the d × d spectrum carries d − n
        // exact zeros and the evidence still matches the SVD path.
        let mut rng = Rng::seed_from_u64(42);
        let (f, y) = clustered_features(&mut rng, 12, 20, 3, 2.0);
        let labels = Labels::new(&y, 3).unwrap();
        let svd = LogMe::default()
            .with_path(DecompPath::Svd)
            .score(&f, &labels)
            .unwrap();
        let gram = LogMe::default()
            .with_path(DecompPath::Gram)
            .score(&f, &labels)
            .unwrap();
        assert!(close(gram, svd, 1e-6), "gram {gram} vs svd {svd}");
    }

    #[test]
    fn sigma_zero_edge_case_gram_finite_and_agrees() {
        // Zero column + duplicated column: two σ≈0 directions. The Gram arm
        // must stay finite and agree with the reference to tolerance.
        let mut rng = Rng::seed_from_u64(45);
        let (base, y) = clustered_features(&mut rng, 60, 4, 2, 2.0);
        let f = Matrix::from_fn(60, 6, |r, c| match c {
            4 => 0.0,            // exactly zero column
            5 => base.get(r, 0), // duplicate of column 0
            _ => base.get(r, c),
        });
        let labels = Labels::new(&y, 2).unwrap();
        let svd = LogMe::default()
            .with_path(DecompPath::Svd)
            .score(&f, &labels)
            .unwrap();
        assert!(svd.is_finite());
        let gram = LogMe::default()
            .with_path(DecompPath::Gram)
            .score(&f, &labels)
            .unwrap();
        assert!(gram.is_finite(), "gram non-finite");
        assert!(close(gram, svd, 1e-6), "gram {gram} vs svd {svd}");
    }
}
