//! Dense linear algebra, statistics, and distance functions for the
//! TransferGraph reproduction.
//!
//! This is the numeric substrate under the transferability estimators
//! (LogME needs an SVD and repeated projections), the graph learners
//! (embedding algebra), the prediction models (ridge regression solves a
//! normal-equations system via Cholesky), and the evaluation metrics
//! (Pearson / Spearman correlation — the paper's Eq. 1).
//!
//! Everything is `f64`, row-major, and implemented from scratch: the point of
//! the reproduction is to have no opaque numeric dependencies.
//!
//! # Example
//!
//! ```
//! use tg_linalg::{Matrix, stats};
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = a.matmul(&a.transpose());
//! assert_eq!(b.get(0, 0), 5.0);
//! let r = stats::pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]).unwrap();
//! assert!((r - 1.0).abs() < 1e-12);
//! ```

pub mod decomp;
pub mod distance;
pub mod matrix;
pub mod pca;
pub mod stats;

pub use matrix::Matrix;
