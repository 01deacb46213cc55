//! The original LogME implementation (You et al., ICML 2021) as this
//! reproduction first shipped it, before the batched kernel: one class at a
//! time, a one-hot label column, a column-major `u.get(r, i)` projection
//! loop and a scalar MacKay fixed point.
//!
//! It is the oracle, not a product path: `tg-transfer`'s unit tests, the
//! root property tests and the `logme` bench assert that
//! `LogMe::default().with_path(DecompPath::Svd)` scores bit for bit what
//! [`seed_log_me`] scores, and the bench times the batched kernel against
//! it. Only `tg-bench` depends on this crate outside dev-dependencies, so
//! no library or server links it. Keep the body unedited: the bit gates
//! are only as good as this copy is faithful.

use tg_linalg::decomp::thin_svd;
use tg_linalg::Matrix;

/// Fixed-point iterations of the seed implementation (unchanged since).
const FIXED_POINT_ITERS: usize = 11;

/// The seed implementation's mean per-class log evidence of `features`
/// against `labels` (values in `0..num_classes`).
///
/// # Panics
///
/// When `labels.len()` differs from the row count, or the thin SVD fails.
#[expect(
    clippy::expect_used,
    reason = "test and bench oracle, kept verbatim: it fails loudly on inputs the batched kernel reports as errors"
)]
pub fn seed_log_me(features: &Matrix, labels: &[usize], num_classes: usize) -> f64 {
    let n = features.rows();
    assert_eq!(n, labels.len(), "seed_log_me: feature/label count mismatch");
    let d = features.cols();

    let svd = thin_svd(features).expect("seed_log_me: SVD failed");
    let sigma2: Vec<f64> = svd.sigma.iter().map(|s| s * s).collect();
    let k = sigma2.len();

    let mut total = 0.0;
    for class in 0..num_classes {
        let y: Vec<f64> = labels
            .iter()
            .map(|&l| if l == class { 1.0 } else { 0.0 })
            .collect();
        let y_sq: f64 = y.iter().map(|v| v * v).sum();
        let z: Vec<f64> = (0..k)
            .map(|i| {
                let mut s = 0.0;
                for (r, &yr) in y.iter().enumerate() {
                    s += svd.u.get(r, i) * yr;
                }
                s
            })
            .collect();
        let z_sq: Vec<f64> = z.iter().map(|v| v * v).collect();
        let r0 = (y_sq - z_sq.iter().sum::<f64>()).max(0.0);

        let mut alpha = 1.0f64;
        let mut beta = 1.0f64;
        for _ in 0..FIXED_POINT_ITERS {
            let mut gamma = 0.0;
            let mut m2 = 0.0;
            let mut res2 = r0;
            for i in 0..k {
                let denom = alpha + beta * sigma2[i];
                gamma += beta * sigma2[i] / denom;
                m2 += beta * beta * sigma2[i] * z_sq[i] / (denom * denom);
                res2 += z_sq[i] * (alpha / denom) * (alpha / denom);
            }
            let new_alpha = if m2 > 1e-12 { gamma / m2 } else { alpha };
            let new_beta = if res2 > 1e-12 {
                (n as f64 - gamma) / res2
            } else {
                beta
            };
            if !new_alpha.is_finite() || !new_beta.is_finite() {
                break;
            }
            alpha = new_alpha.clamp(1e-9, 1e12);
            beta = new_beta.clamp(1e-9, 1e12);
        }

        let mut m2 = 0.0;
        let mut res2 = r0;
        let mut logdet = 0.0;
        for i in 0..k {
            let denom = alpha + beta * sigma2[i];
            m2 += beta * beta * sigma2[i] * z_sq[i] / (denom * denom);
            res2 += z_sq[i] * (alpha / denom) * (alpha / denom);
            logdet += denom.ln();
        }
        logdet += (d.saturating_sub(k)) as f64 * alpha.ln();
        let nf = n as f64;
        let evidence = 0.5
            * (d as f64 * alpha.ln() + nf * beta.ln()
                - beta * res2
                - alpha * m2
                - logdet
                - nf * (2.0 * std::f64::consts::PI).ln());
        total += evidence / nf;
    }
    total / num_classes as f64
}
