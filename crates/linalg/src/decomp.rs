//! Matrix decompositions: Cholesky, symmetric eigendecomposition (cyclic
//! Jacobi) and thin SVD.
//!
//! These are the numeric workhorses of the reproduction:
//! * ridge regression (`tg-predict`) solves normal equations with
//!   [`cholesky_solve`];
//! * LogME (`tg-transfer`) projects labels onto the left singular basis of
//!   the feature matrix, obtained with [`thin_svd`] (or, for tall inputs,
//!   from the Gram spectrum of [`symmetric_eigen`]);
//! * PARC and dataset-similarity computations use the eigen routines
//!   indirectly through correlation matrices.

use crate::matrix::Matrix;

/// Singular values at or below this absolute threshold are treated as zero:
/// the corresponding left singular vectors are not formed (columns of `U`
/// stay zero) and downstream projections through `Σ⁻¹` skip them.
pub const SIGMA_CLAMP: f64 = 1e-12;

/// Default sweep budget of every Jacobi iteration in this module.
pub const MAX_SWEEPS: usize = 64;

/// Errors from decomposition routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompError {
    /// The matrix is not square where a square matrix is required.
    NotSquare,
    /// Cholesky failed: the matrix is not (numerically) positive definite.
    NotPositiveDefinite,
    /// Jacobi sweep did not converge within the iteration budget.
    NoConvergence,
}

impl std::fmt::Display for DecompError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompError::NotSquare => write!(f, "matrix is not square"),
            DecompError::NotPositiveDefinite => {
                write!(f, "matrix is not positive definite")
            }
            DecompError::NoConvergence => write!(f, "iteration did not converge"),
        }
    }
}

impl std::error::Error for DecompError {}

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
///
/// `A` must be symmetric positive definite.
pub fn cholesky(a: &Matrix) -> Result<Matrix, DecompError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(DecompError::NotSquare);
    }
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = a.get(i, j);
            for k in 0..j {
                s -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if s <= 0.0 || !s.is_finite() {
                    return Err(DecompError::NotPositiveDefinite);
                }
                l.set(i, j, s.sqrt());
            } else {
                l.set(i, j, s / l.get(j, j));
            }
        }
    }
    Ok(l)
}

/// Solves `A x = b` for symmetric positive-definite `A` via Cholesky.
pub fn cholesky_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, DecompError> {
    let l = cholesky(a)?;
    let n = a.rows();
    assert_eq!(b.len(), n, "cholesky_solve: rhs length mismatch");
    // Forward substitution: L y = b.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l.get(i, k) * y[k];
        }
        y[i] = s / l.get(i, i);
    }
    // Back substitution: Lᵀ x = y.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = y[i];
        for k in (i + 1)..n {
            s -= l.get(k, i) * x[k];
        }
        x[i] = s / l.get(i, i);
    }
    Ok(x)
}

/// Symmetric eigendecomposition by the cyclic Jacobi method.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues sorted in
/// descending order; eigenvector `k` is column `k` of the returned matrix.
pub fn symmetric_eigen(a: &Matrix) -> Result<(Vec<f64>, Matrix), DecompError> {
    symmetric_eigen_with_sweeps(a, MAX_SWEEPS).map(|(vals, vecs, _)| (vals, vecs))
}

/// [`symmetric_eigen`] with an explicit sweep budget, additionally returning
/// the number of full sweeps that ran before convergence (0 for an already
/// diagonal input).
///
/// Convergence is checked once more *after* the final sweep — the historical
/// loop checked only before each sweep, so an input that reached tolerance
/// during its last allowed sweep was misreported as [`DecompError::NoConvergence`].
pub fn symmetric_eigen_with_sweeps(
    a: &Matrix,
    max_sweeps: usize,
) -> Result<(Vec<f64>, Matrix, usize), DecompError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(DecompError::NotSquare);
    }
    // The sweep maintains only the upper triangle of M (the lower triangle
    // goes stale after the first rotation and is never read): a two-sided
    // Jacobi rotation keeps M symmetric, so tracking one triangle halves
    // the matrix work per rotation, and the (p,p)/(q,q)/(p,q) entries have
    // exact closed forms (Golub & Van Loan §8.5). `sorted_eigen` reads
    // only the diagonal, and the convergence norm reads only the upper
    // triangle, so the stale half is never observed.
    // Eigenvectors are accumulated transposed (`vt` row k is eigenvector
    // k): a Givens update touches eigenvector *columns* p and q, which in
    // `vt` are two contiguous rows — the per-element arithmetic is
    // unchanged (bit-identical), but the accesses vectorize instead of
    // striding across every row. One exact transpose restores V at the end.
    let mut m = a.clone();
    let mut vt = Matrix::identity(n);
    for sweep in 0..=max_sweeps {
        // Off-diagonal Frobenius norm (upper triangle): convergence
        // criterion, scale-relative against the full Frobenius norm
        // reconstructed from the triangle.
        let mut off2 = 0.0;
        let mut diag2 = 0.0;
        for i in 0..n {
            let row = m.row(i);
            diag2 += row[i] * row[i];
            for x in &row[i + 1..] {
                off2 += x * x;
            }
        }
        let frob = (diag2 + 2.0 * off2).sqrt();
        if off2.sqrt() < 1e-12 * (1.0 + frob) {
            let (vals, vecs) = sorted_eigen(&m, &vt.transpose());
            return Ok((vals, vecs, sweep));
        }
        if sweep == max_sweeps {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m.get(p, q);
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                // Threshold Jacobi: an off-diagonal element already at
                // rounding level relative to its diagonal pair cannot be
                // improved by a rotation — its computed angle is pure
                // noise. Skipping it leaves off² contributions of at most
                // (ε·√|app·aqq|)² per entry, far inside the convergence
                // tolerance below, and makes late sweeps (where almost
                // every entry qualifies) nearly free.
                if apq * apq <= f64::EPSILON * f64::EPSILON * (app * aqq).abs() {
                    continue;
                }
                // Jacobi rotation angle.
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                rotate_upper(m.as_mut_slice(), n, p, q, t, c, s);
                // Accumulate eigenvectors: rows p and q of Vᵀ, contiguous.
                let (head, tail) = vt.as_mut_slice().split_at_mut(q * n);
                let rp = &mut head[p * n..p * n + n];
                let rq = &mut tail[..n];
                for (xp, xq) in rp.iter_mut().zip(rq.iter_mut()) {
                    let (x, y) = (*xp, *xq);
                    *xp = c * x - s * y;
                    *xq = s * x + c * y;
                }
            }
        }
    }
    Err(DecompError::NoConvergence)
}

/// Applies the two-sided Jacobi rotation `M ← JᵀMJ` for the pair `p < q`
/// to the upper triangle of a row-major `n × n` buffer, leaving the lower
/// triangle stale. Diagonal and pivot entries use the exact closed forms
/// `a_pp − t·a_pq` / `a_qq + t·a_pq` / `0`; every other affected entry
/// `(k,p)`/`(k,q)` lives in one of three triangle segments (`k < p`,
/// `p < k < q`, `k > q`) and is updated with the standard Givens formulas
/// in ascending-`k` order.
fn rotate_upper(data: &mut [f64], n: usize, p: usize, q: usize, t: f64, c: f64, s: f64) {
    debug_assert!(p < q);
    let apq = data[p * n + q];
    data[p * n + p] -= t * apq;
    data[q * n + q] += t * apq;
    data[p * n + q] = 0.0;
    // k < p: both entries are column reads a[k][p], a[k][q].
    for row in data[..p * n].chunks_exact_mut(n) {
        let (x, y) = (row[p], row[q]);
        row[p] = c * x - s * y;
        row[q] = s * x + c * y;
    }
    // Split so row p (in `head`) and rows p+1.. (in `tail`) borrow
    // disjointly; row p's tail holds a[p][k] for k > p, and column q of
    // the later rows holds a[k][q].
    let (head, tail) = data.split_at_mut((p + 1) * n);
    let rowp = &mut head[p * n..];
    // p < k < q: a[p][k] is contiguous in row p, a[k][q] is a column read.
    for (i, row) in tail.chunks_exact_mut(n).take(q - p - 1).enumerate() {
        let (x, y) = (rowp[p + 1 + i], row[q]);
        rowp[p + 1 + i] = c * x - s * y;
        row[q] = s * x + c * y;
    }
    // k > q: both entries are contiguous row reads a[p][k], a[q][k].
    let rowq = &mut tail[(q - p - 1) * n..(q - p) * n];
    for k in (q + 1)..n {
        let (x, y) = (rowp[k], rowq[k]);
        rowp[k] = c * x - s * y;
        rowq[k] = s * x + c * y;
    }
}

fn sorted_eigen(m: &Matrix, v: &Matrix) -> (Vec<f64>, Matrix) {
    let n = m.rows();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| m.get(b, b).total_cmp(&m.get(a, a)));
    let values: Vec<f64> = order.iter().map(|&i| m.get(i, i)).collect();
    let vectors = Matrix::from_fn(n, n, |r, c| v.get(r, order[c]));
    (values, vectors)
}

/// Thin singular value decomposition of an `n x d` matrix.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `n x k` (columns are u_i).
    pub u: Matrix,
    /// Singular values, descending, length `k = min(n, d)` (small values may
    /// be clamped to 0).
    pub sigma: Vec<f64>,
    /// Right singular vectors, `d x k` (columns are v_i).
    pub v: Matrix,
}

/// Thin SVD via eigendecomposition of the smaller Gram matrix.
///
/// For `n >= d` we decompose `AᵀA = V Σ² Vᵀ` and recover `U = A V Σ⁻¹`; for
/// `n < d` the roles are swapped. This is accurate enough for the
/// conditioning encountered here (feature matrices with moderate dynamic
/// range) and keeps the implementation compact.
pub fn thin_svd(a: &Matrix) -> Result<Svd, DecompError> {
    let (n, d) = a.shape();
    if n >= d {
        let (mut evals, v) = symmetric_eigen(&a.gram())?;
        for e in &mut evals {
            *e = e.max(0.0);
        }
        let sigma: Vec<f64> = evals.iter().map(|e| e.sqrt()).collect();
        // U = A V Σ⁻¹ (columns with σ≈0 are left as zero vectors).
        let av = a.matmul(&v);
        let u = Matrix::from_fn(n, d, |r, c| {
            if sigma[c] > SIGMA_CLAMP {
                av.get(r, c) / sigma[c]
            } else {
                0.0
            }
        });
        Ok(Svd { u, sigma, v })
    } else {
        let sv = thin_svd(&a.transpose())?;
        Ok(Svd {
            u: sv.v,
            sigma: sv.sigma,
            v: sv.u,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]]);
        let l = cholesky(&a).unwrap();
        let rec = l.matmul(&l.transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!(approx(rec.get(i, j), a.get(i, j), 1e-10));
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert_eq!(cholesky(&a), Err(DecompError::NotPositiveDefinite));
    }

    #[test]
    fn cholesky_rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert_eq!(cholesky(&a), Err(DecompError::NotSquare));
    }

    #[test]
    fn cholesky_solve_known_system() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let b = [1.0, 2.0];
        let x = cholesky_solve(&a, &b).unwrap();
        // Verify A x = b.
        let ax = a.matvec(&x);
        assert!(approx(ax[0], 1.0, 1e-12));
        assert!(approx(ax[1], 2.0, 1e-12));
    }

    #[test]
    fn eigen_diagonal_matrix() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 7.0]]);
        let (vals, _) = symmetric_eigen(&a).unwrap();
        assert!(approx(vals[0], 7.0, 1e-10));
        assert!(approx(vals[1], 3.0, 1e-10));
    }

    #[test]
    fn eigen_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let (vals, vecs) = symmetric_eigen(&a).unwrap();
        assert!(approx(vals[0], 3.0, 1e-10));
        assert!(approx(vals[1], 1.0, 1e-10));
        // Eigenvector for λ=3 is (1,1)/√2 up to sign.
        let v0 = (vecs.get(0, 0), vecs.get(1, 0));
        assert!(approx(v0.0.abs(), std::f64::consts::FRAC_1_SQRT_2, 1e-8));
        assert!(approx((v0.0 - v0.1).abs(), 0.0, 1e-8));
    }

    #[test]
    fn eigen_reconstructs_matrix() {
        let a = Matrix::from_rows(&[
            &[5.0, 1.0, 0.5, 0.2],
            &[1.0, 4.0, 0.3, 0.1],
            &[0.5, 0.3, 3.0, 0.4],
            &[0.2, 0.1, 0.4, 2.0],
        ]);
        let (vals, vecs) = symmetric_eigen(&a).unwrap();
        // A = V diag(λ) Vᵀ
        let lam = Matrix::from_fn(4, 4, |r, c| if r == c { vals[r] } else { 0.0 });
        let rec = vecs.matmul(&lam).matmul(&vecs.transpose());
        for i in 0..4 {
            for j in 0..4 {
                assert!(approx(rec.get(i, j), a.get(i, j), 1e-8));
            }
        }
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a = Matrix::from_fn(5, 5, |r, c| 1.0 / (1.0 + (r as f64 - c as f64).abs()));
        let (_, vecs) = symmetric_eigen(&a).unwrap();
        let vtv = vecs.transpose().matmul(&vecs);
        for i in 0..5 {
            for j in 0..5 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(approx(vtv.get(i, j), expect, 1e-8));
            }
        }
    }

    #[test]
    fn svd_reconstructs_tall_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0], &[7.0, 8.0]]);
        let svd = thin_svd(&a).unwrap();
        // A = U Σ Vᵀ
        let sig = Matrix::from_fn(2, 2, |r, c| if r == c { svd.sigma[r] } else { 0.0 });
        let rec = svd.u.matmul(&sig).matmul(&svd.v.transpose());
        for i in 0..4 {
            for j in 0..2 {
                assert!(approx(rec.get(i, j), a.get(i, j), 1e-8), "at ({i},{j})");
            }
        }
    }

    #[test]
    fn svd_reconstructs_wide_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 2.0, -1.0], &[0.5, 3.0, 1.0, 0.0]]);
        let svd = thin_svd(&a).unwrap();
        let k = svd.sigma.len();
        let sig = Matrix::from_fn(k, k, |r, c| if r == c { svd.sigma[r] } else { 0.0 });
        let rec = svd.u.matmul(&sig).matmul(&svd.v.transpose());
        for i in 0..2 {
            for j in 0..4 {
                assert!(approx(rec.get(i, j), a.get(i, j), 1e-8), "at ({i},{j})");
            }
        }
    }

    #[test]
    fn svd_singular_values_descending_nonnegative() {
        let a = Matrix::from_fn(6, 4, |r, c| ((r * 4 + c) as f64 * 0.7).cos());
        let svd = thin_svd(&a).unwrap();
        for w in svd.sigma.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(svd.sigma.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn eigen_reports_zero_sweeps_for_diagonal_input() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 7.0]]);
        let (vals, _, sweeps) = symmetric_eigen_with_sweeps(&a, MAX_SWEEPS).unwrap();
        assert_eq!(sweeps, 0);
        assert!(approx(vals[0], 7.0, 1e-12));
    }

    #[test]
    fn eigen_signals_no_convergence_on_exhausted_budget() {
        // A dense symmetric matrix needs at least one sweep; a zero budget
        // must surface as an error, not as silently unconverged factors.
        let a = Matrix::from_fn(5, 5, |r, c| 1.0 / (1.0 + (r as f64 - c as f64).abs()));
        assert_eq!(
            symmetric_eigen_with_sweeps(&a, 0),
            Err(DecompError::NoConvergence)
        );
        // The same matrix converges comfortably within the default budget,
        // in a nonzero number of sweeps.
        let (_, _, sweeps) = symmetric_eigen_with_sweeps(&a, MAX_SWEEPS).unwrap();
        assert!(sweeps > 0 && sweeps <= MAX_SWEEPS, "sweeps={sweeps}");
    }

    #[test]
    fn eigen_convergence_is_checked_after_the_final_sweep() {
        // Regression for the historical off-by-one: with a budget of
        // exactly `sweeps` (the count the default budget reports), the
        // convergence check after the last sweep must still fire — the old
        // loop only checked before each sweep and misreported this case as
        // NoConvergence.
        let a = Matrix::from_fn(6, 6, |r, c| {
            ((r * 6 + c).min(c * 6 + r) as f64 * 0.37).sin()
        });
        let sym = Matrix::from_fn(6, 6, |r, c| a.get(r, c) + a.get(c, r));
        let (_, _, sweeps) = symmetric_eigen_with_sweeps(&sym, MAX_SWEEPS).unwrap();
        assert!(sweeps > 1, "want a multi-sweep case, got {sweeps}");
        let (vals_tight, _, tight) = symmetric_eigen_with_sweeps(&sym, sweeps).unwrap();
        assert_eq!(tight, sweeps);
        // One sweep short must fail.
        assert_eq!(
            symmetric_eigen_with_sweeps(&sym, sweeps - 1),
            Err(DecompError::NoConvergence)
        );
        let (vals_default, _) = symmetric_eigen(&sym).unwrap();
        for (a, b) in vals_tight.iter().zip(&vals_default) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn svd_rank_deficient() {
        // Second column is 2x the first: rank 1.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let svd = thin_svd(&a).unwrap();
        assert!(
            svd.sigma[1] < 1e-8,
            "second singular value {}",
            svd.sigma[1]
        );
        let sig = Matrix::from_fn(2, 2, |r, c| if r == c { svd.sigma[r] } else { 0.0 });
        let rec = svd.u.matmul(&sig).matmul(&svd.v.transpose());
        for i in 0..3 {
            for j in 0..2 {
                assert!(approx(rec.get(i, j), a.get(i, j), 1e-7));
            }
        }
    }
}
