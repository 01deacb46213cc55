//! Ridge-regularised linear regression via the normal equations.

use crate::Regressor;
use tg_linalg::decomp::cholesky_solve;
use tg_linalg::Matrix;
use tg_rng::Rng;

/// Linear regression with L2 regularisation.
///
/// Features are standardised internally (zero mean, unit variance), which
/// makes one ridge strength work across the heterogeneous feature blocks
/// (binary one-hots next to 128-d embeddings). The intercept is recovered
/// from the means, not penalised.
#[derive(Clone, Debug)]
pub struct RidgeRegression {
    /// Ridge strength applied after standardisation.
    pub lambda: f64,
    weights: Option<Vec<f64>>,
    intercept: f64,
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Default for RidgeRegression {
    fn default() -> Self {
        RidgeRegression {
            lambda: 1e-2,
            weights: None,
            intercept: 0.0,
            means: Vec::new(),
            stds: Vec::new(),
        }
    }
}

impl RidgeRegression {
    /// Ridge regression with an explicit regularisation strength.
    pub fn new(lambda: f64) -> Self {
        RidgeRegression {
            lambda,
            ..Default::default()
        }
    }

    /// Fitted coefficient vector in the standardised space (None before
    /// `fit`).
    pub fn coefficients(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }
}

impl Regressor for RidgeRegression {
    fn name(&self) -> &'static str {
        "LR"
    }

    fn fit(&mut self, x: &Matrix, y: &[f64], _rng: &mut Rng) {
        let (n, f) = x.shape();
        assert_eq!(n, y.len(), "RidgeRegression::fit: row/target mismatch");
        assert!(n > 0, "RidgeRegression::fit: empty input");

        // Standardise.
        self.means = x.col_means();
        self.stds = (0..f)
            .map(|j| {
                let col: Vec<f64> = (0..n).map(|i| x.get(i, j)).collect();
                let s = tg_linalg::stats::std_dev(&col);
                if s > 1e-12 {
                    s
                } else {
                    1.0 // constant column: weight will be 0 anyway
                }
            })
            .collect();
        let z = Matrix::from_fn(n, f, |i, j| (x.get(i, j) - self.means[j]) / self.stds[j]);
        let y_mean = tg_linalg::stats::mean(y);
        let yc: Vec<f64> = y.iter().map(|v| v - y_mean).collect();

        // (ZᵀZ + λ n I) w = Zᵀ yc — λ scaled by n so it is per-sample.
        let mut a = z.gram();
        let reg = self.lambda * n as f64;
        for j in 0..f {
            a.set(j, j, a.get(j, j) + reg);
        }
        let b = z.transpose().matvec(&yc);
        #[expect(
            clippy::expect_used,
            reason = "ZᵀZ + λnI with λ > 0 is symmetric positive definite by construction"
        )]
        let w = cholesky_solve(&a, &b).expect("RidgeRegression: normal equations not SPD");
        self.weights = Some(w);
        self.intercept = y_mean;
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        #[expect(
            clippy::expect_used,
            reason = "documented Predictor contract: fit() precedes predict()"
        )]
        let w = self
            .weights
            .as_ref()
            .expect("RidgeRegression::predict called before fit");
        assert_eq!(
            x.cols(),
            w.len(),
            "RidgeRegression::predict: feature mismatch"
        );
        (0..x.rows())
            .map(|i| {
                let mut s = self.intercept;
                for j in 0..w.len() {
                    s += w[j] * (x.get(i, j) - self.means[j]) / self.stds[j];
                }
                s
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_linear_relationship() {
        let mut rng = Rng::seed_from_u64(1);
        let n = 200;
        let x = Matrix::from_fn(n, 3, |_, _| rng.normal(0.0, 1.0));
        let y: Vec<f64> = (0..n)
            .map(|i| 2.0 * x.get(i, 0) - 1.0 * x.get(i, 1) + 0.5 * x.get(i, 2) + 3.0)
            .collect();
        let mut lr = RidgeRegression::new(1e-6);
        lr.fit(&x, &y, &mut rng);
        let pred = lr.predict(&x);
        for (p, t) in pred.iter().zip(&y) {
            assert!((p - t).abs() < 1e-3, "pred {p} true {t}");
        }
    }

    #[test]
    fn handles_constant_columns() {
        let mut rng = Rng::seed_from_u64(2);
        let n = 50;
        let x = Matrix::from_fn(n, 2, |i, j| if j == 0 { 1.0 } else { i as f64 });
        let y: Vec<f64> = (0..n).map(|i| i as f64 * 2.0).collect();
        let mut lr = RidgeRegression::default();
        lr.fit(&x, &y, &mut rng);
        let pred = lr.predict(&x);
        assert!((pred[10] - 20.0).abs() < 0.5);
    }

    #[test]
    fn ridge_shrinks_collinear_weights() {
        let mut rng = Rng::seed_from_u64(3);
        let n = 100;
        // Two identical columns.
        let base: Vec<f64> = (0..n).map(|_| rng.normal(0.0, 1.0)).collect();
        let x = Matrix::from_fn(n, 2, |i, _| base[i]);
        let y: Vec<f64> = base.iter().map(|v| 4.0 * v).collect();
        let mut lr = RidgeRegression::new(1e-2);
        lr.fit(&x, &y, &mut rng);
        let w = lr.coefficients().unwrap();
        // Weight splits roughly evenly between the duplicates.
        assert!((w[0] - w[1]).abs() < 1e-6);
        let pred = lr.predict(&x);
        assert!((pred[0] - y[0]).abs() < 0.5);
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn predict_before_fit_panics() {
        let lr = RidgeRegression::default();
        lr.predict(&Matrix::zeros(1, 1));
    }

    #[test]
    fn intercept_only_for_constant_target() {
        let mut rng = Rng::seed_from_u64(4);
        let x = Matrix::from_fn(20, 2, |_, _| rng.normal(0.0, 1.0));
        let y = vec![7.0; 20];
        let mut lr = RidgeRegression::default();
        lr.fit(&x, &y, &mut rng);
        let pred = lr.predict(&x);
        assert!(pred.iter().all(|p| (p - 7.0).abs() < 1e-6));
    }
}
