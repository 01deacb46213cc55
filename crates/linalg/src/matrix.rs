//! Row-major dense `f64` matrix.

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A dense, row-major matrix of `f64`.
///
/// Sizes in this workspace are small (hundreds of rows, at most a few
/// thousand), so the implementation favours clarity and cache-friendly
/// row-major loops over blocking or SIMD.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix({}x{})", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            let row: Vec<String> = (0..self.cols.min(8))
                .map(|c| format!("{:9.4}", self.get(r, c)))
                .collect();
            writeln!(
                f,
                "  [{}{}]",
                row.join(", "),
                if self.cols > 8 { ", …" } else { "" }
            )?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from a flat row-major vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} != {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row slices (all must have equal length).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows: no rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "from_rows: row {i} has ragged length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols, "get({r},{c}) out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols, "set({r},{c}) out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy of column `c`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Flat row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// Uses the i-k-j loop order so the inner loop streams both operand rows.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix-vector product.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec: dimension mismatch");
        (0..self.rows).map(|r| dot(self.row(r), v)).collect()
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Scales every element.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Gram matrix `selfᵀ * self` (symmetric, cols x cols), exploiting
    /// symmetry to halve the work.
    ///
    /// Streams one input row at a time: each row is rank-1-accumulated into
    /// the upper triangle, so the row stays in L1 across the whole `i, j`
    /// update instead of the column-strided walk a per-entry dot product
    /// would do. Each output entry still accumulates its `n` products in
    /// ascending row order, so the result is bit-identical to the naive
    /// per-entry loop.
    pub fn gram(&self) -> Matrix {
        let d = self.cols;
        let mut out = Matrix::zeros(d, d);
        for r in 0..self.rows {
            let row = self.row(r);
            for (i, &xi) in row.iter().enumerate() {
                let upper = &mut out.data[i * d + i..i * d + d];
                for (o, &xj) in upper.iter_mut().zip(&row[i..]) {
                    *o += xi * xj;
                }
            }
        }
        // Mirror the upper triangle (exact copies, same bits).
        for i in 0..d {
            for j in 0..i {
                let v = out.get(j, i);
                out.set(i, j, v);
            }
        }
        out
    }

    /// Vertically stacks two matrices with equal column counts.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack: column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Horizontally concatenates two matrices with equal row counts.
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hstack: row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Per-column means.
    pub fn col_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (m, &x) in means.iter_mut().zip(self.row(r)) {
                *m += x;
            }
        }
        let n = self.rows.max(1) as f64;
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// Returns a new matrix with each column mean-centred.
    pub fn center_columns(&self) -> Matrix {
        let means = self.col_means();
        Matrix::from_fn(self.rows, self.cols, |r, c| self.get(r, c) - means[c])
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, s: f64) -> Matrix {
        self.scale(s)
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `a += s * b` (axpy).
#[inline]
pub fn axpy(a: &mut [f64], s: f64, b: &[f64]) {
    debug_assert_eq!(a.len(), b.len(), "axpy: length mismatch");
    for (x, &y) in a.iter_mut().zip(b) {
        *x += s * y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_swaps_shape() {
        let a = Matrix::zeros(2, 7);
        assert_eq!(a.transpose().shape(), (7, 2));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, -1.0], &[0.5, 2.0]]);
        let v = vec![3.0, 4.0];
        let mv = a.matvec(&v);
        assert!(approx(mv[0], -1.0));
        assert!(approx(mv[1], 9.5));
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = a.gram();
        let g2 = a.transpose().matmul(&a);
        for i in 0..2 {
            for j in 0..2 {
                assert!(approx(g.get(i, j), g2.get(i, j)));
            }
        }
    }

    #[test]
    fn gram_row_streaming_is_bitwise_equal_to_naive_order() {
        // The row-streamed gram must accumulate each entry in the same
        // ascending-row order as the historical per-entry dot product, so
        // the two are bit-identical, not merely close.
        let a = Matrix::from_fn(37, 9, |r, c| ((r * 9 + c) as f64 * 0.7311).sin() * 10.0);
        let g = a.gram();
        for i in 0..9 {
            for j in i..9 {
                let mut s = 0.0;
                for r in 0..37 {
                    s += a.get(r, i) * a.get(r, j);
                }
                assert_eq!(g.get(i, j).to_bits(), s.to_bits(), "({i},{j})");
                assert_eq!(g.get(j, i).to_bits(), s.to_bits(), "({j},{i})");
            }
        }
    }

    #[test]
    fn gram_is_symmetric() {
        let a = Matrix::from_fn(4, 3, |r, c| ((r * 3 + c) as f64).sin());
        let g = a.gram();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(g.get(i, j), g.get(j, i));
            }
        }
    }

    #[test]
    fn center_columns_zero_mean() {
        let a = Matrix::from_rows(&[&[1.0, 10.0], &[3.0, 30.0], &[5.0, 20.0]]);
        let c = a.center_columns();
        let means = c.col_means();
        assert!(approx(means[0], 0.0));
        assert!(approx(means[1], 0.0));
    }

    #[test]
    fn hstack_vstack_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        assert_eq!(a.hstack(&b).shape(), (2, 7));
        let c = Matrix::zeros(5, 3);
        assert_eq!(a.vstack(&c).shape(), (7, 3));
    }

    #[test]
    fn hstack_preserves_values() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let h = a.hstack(&b);
        assert_eq!(h.row(0), &[1.0, 3.0, 4.0]);
        assert_eq!(h.row(1), &[2.0, 5.0, 6.0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_fn(3, 3, |r, c| (r + c) as f64);
        let b = Matrix::from_fn(3, 3, |r, c| (r * c) as f64);
        let s = &(&a + &b) - &b;
        for i in 0..3 {
            for j in 0..3 {
                assert!(approx(s.get(i, j), a.get(i, j)));
            }
        }
    }

    #[test]
    fn frobenius_norm_known() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!(approx(a.frobenius_norm(), 5.0));
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn has_non_finite_detects_nan() {
        let mut a = Matrix::zeros(2, 2);
        assert!(!a.has_non_finite());
        a.set(1, 1, f64::NAN);
        assert!(a.has_non_finite());
    }
}
