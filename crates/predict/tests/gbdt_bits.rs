//! Bit-identity locks on the XGB regressor ([`Gbdt`]).
//!
//! Any change to binning, histogram building, split finding, the training
//! prediction update or the rng stream shows here. The inputs have the
//! shape of TransferGraph's training set: one row per (model, dataset)
//! pair in model-major order, so whole blocks of columns split the rows
//! into the same groups. One matrix adds a duplicated, a negated and a
//! constant column; a continuous matrix has no two columns alike; and a
//! grid varies every hyperparameter split finding reads. Their expected
//! values were captured before split finding began sharing one histogram
//! among columns that group the rows alike (DESIGN.md §3g).
//!
//! Every expected value is an FNV-1a hash of the raw f64 bit patterns of
//! the predictions on the training rows and on held-out rows, then of
//! `feature_importance()`, then of the rng's next draw after `fit`.

use tg_linalg::Matrix;
use tg_predict::{Gbdt, Regressor};
use tg_rng::Rng;

const FAMILY_SLOTS: usize = 11;
const MODEL_COLS: usize = 10;
const DATASET_COLS: usize = 9;

/// Rows are (model, dataset) pairs in model-major order: a per-model random
/// block, a family one-hot (7 of 11 slots used), a per-dataset random block
/// and one per-pair column.
fn pair_matrix(models: usize, datasets: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = Rng::seed_from_u64(seed);
    let model_block: Vec<Vec<f64>> = (0..models)
        .map(|_| rng.normal_vec(MODEL_COLS, 0.0, 1.0))
        .collect();
    let dataset_block: Vec<Vec<f64>> = (0..datasets)
        .map(|_| rng.normal_vec(DATASET_COLS, 0.0, 1.0))
        .collect();
    let width = MODEL_COLS + FAMILY_SLOTS + DATASET_COLS + 1;
    let mut x = Matrix::zeros(models * datasets, width);
    let mut y = Vec::with_capacity(models * datasets);
    for (m, mb) in model_block.iter().enumerate() {
        for (d, db) in dataset_block.iter().enumerate() {
            let pair = rng.normal(0.0, 1.0);
            let row = x.row_mut(m * datasets + d);
            row[..MODEL_COLS].copy_from_slice(mb);
            row[MODEL_COLS + m % 7] = 1.0;
            row[MODEL_COLS + FAMILY_SLOTS..width - 1].copy_from_slice(db);
            row[width - 1] = pair;
            y.push(
                0.6 * mb[0] + 0.4 * mb[1] * db[0] - 0.3 * db[2]
                    + 0.05 * (m % 7) as f64
                    + 0.1 * pair,
            );
        }
    }
    (x, y)
}

/// The pair matrix plus a copy of column 0, the negation of column 1 (the
/// same row groups in reversed bin order) and a constant column.
fn with_shared_columns(x: &Matrix) -> Matrix {
    let f = x.cols();
    Matrix::from_fn(x.rows(), f + 3, |r, c| match c {
        c if c < f => x.get(r, c),
        c if c == f => x.get(r, 0),
        c if c == f + 1 => -x.get(r, 1),
        _ => 3.5,
    })
}

fn fnv(h: &mut u64, bits: u64) {
    for b in bits.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// Fits `gb` on `(x, y)` and hashes what the fit determines.
fn fit_hash(mut gb: Gbdt, x: &Matrix, y: &[f64], held_out: &Matrix) -> u64 {
    let mut rng = Rng::seed_from_u64(17);
    gb.fit(x, y, &mut rng);
    let mut h: u64 = 0xcbf29ce484222325;
    let values = gb
        .predict(x)
        .into_iter()
        .chain(gb.predict(held_out))
        .chain(gb.feature_importance());
    for v in values {
        fnv(&mut h, v.to_bits());
    }
    fnv(&mut h, rng.next_u64());
    h
}

fn tweaked(f: impl FnOnce(&mut Gbdt)) -> Gbdt {
    let mut gb = Gbdt::default();
    f(&mut gb);
    gb
}

#[test]
fn pair_matrix_default_fit_is_bit_identical() {
    let (x, y) = pair_matrix(24, 11, 1);
    let (held_out, _) = pair_matrix(6, 11, 2);
    let h = fit_hash(Gbdt::default(), &x, &y, &held_out);
    assert_eq!(h, PAIR_DEFAULT, "pair-matrix XGB drifted: {h:#018x}");
}

#[test]
fn duplicated_negated_and_constant_columns_are_bit_identical() {
    let (x, y) = pair_matrix(24, 11, 1);
    let (held_out, _) = pair_matrix(6, 11, 2);
    let (x, held_out) = (with_shared_columns(&x), with_shared_columns(&held_out));
    let h = fit_hash(Gbdt::default(), &x, &y, &held_out);
    assert_eq!(h, SHARED_COLUMNS, "shared-column XGB drifted: {h:#018x}");
}

#[test]
fn continuous_matrix_is_bit_identical() {
    let mut rng = Rng::seed_from_u64(5);
    let x = Matrix::from_fn(300, 5, |_, _| rng.uniform());
    let y: Vec<f64> = (0..300)
        .map(|i| 3.0 * x.get(i, 1) + (4.0 * x.get(i, 0)).sin() + 0.1 * rng.normal(0.0, 1.0))
        .collect();
    let held_out = Matrix::from_fn(50, 5, |_, _| rng.uniform());
    let h = fit_hash(Gbdt::new(60, 3), &x, &y, &held_out);
    assert_eq!(h, CONTINUOUS, "continuous XGB drifted: {h:#018x}");
}

#[test]
fn hyperparameter_grid_is_bit_identical() {
    let (x, y) = pair_matrix(24, 11, 1);
    let (held_out, _) = pair_matrix(6, 11, 2);
    let grid: [(&str, Gbdt, u64); 8] = [
        ("n_bins 4", tweaked(|g| g.n_bins = 4), GRID[0]),
        ("n_bins 63", tweaked(|g| g.n_bins = 63), GRID[1]),
        (
            "min_child_weight 0",
            tweaked(|g| g.min_child_weight = 0.0),
            GRID[2],
        ),
        ("lambda 0", tweaked(|g| g.lambda = 0.0), GRID[3]),
        ("gamma 0.01", tweaked(|g| g.gamma = 0.01), GRID[4]),
        (
            "colsample_bytree 1",
            tweaked(|g| g.colsample_bytree = 1.0),
            GRID[5],
        ),
        ("max_depth 0", tweaked(|g| g.max_depth = 0), GRID[6]),
        ("max_depth 1", tweaked(|g| g.max_depth = 1), GRID[7]),
    ];
    let drifted: Vec<String> = grid
        .into_iter()
        .filter_map(|(name, gb, want)| {
            let h = fit_hash(gb, &x, &y, &held_out);
            (h != want).then(|| format!("{name}: {h:#018x}"))
        })
        .collect();
    assert!(drifted.is_empty(), "XGB drifted at {drifted:?}");
}

const PAIR_DEFAULT: u64 = 0x034c8cd57c959d35;
const SHARED_COLUMNS: u64 = 0x129adbf9173d5a39;
const CONTINUOUS: u64 = 0xe8100ebbe9b7e0e2;
/// In the order of the grid's rows.
const GRID: [u64; 8] = [
    0xae3eb878ed078d1a,
    0xe87a95617fca2cba,
    0x4c91a9479e091fc6,
    0x9f51d50b7977b6da,
    0x02bc0945db1afe06,
    0x5ca479c29aab66d5,
    0x9c8fbaa09c461ebc,
    0x60e6932307844d58,
];
