//! Criterion bench: prediction-model fit/predict cost on a tabular task
//! with the shape of the TransferGraph training set (≈2000 rows, metadata ⊕
//! 2×128-d embeddings ≈ 276 features).
//!
//! `regressor_fit_2000x276` fits i.i.d. normal columns; `regressor_fit_pairs`
//! fits the pipeline's row structure, one row per (model, dataset) pair,
//! where whole blocks of columns group the rows alike.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tg_linalg::Matrix;
use tg_predict::RegressorKind;
use tg_rng::Rng;

fn synthetic(rows: usize, cols: usize) -> (Matrix, Vec<f64>) {
    let mut rng = Rng::seed_from_u64(3);
    let x = Matrix::from_fn(rows, cols, |_, _| rng.normal(0.0, 1.0));
    let y: Vec<f64> = (0..rows)
        .map(|i| 0.4 * x.get(i, 0) + 0.3 * x.get(i, 5) * x.get(i, 6) + rng.normal(0.0, 0.1))
        .collect();
    (x, y)
}

/// Rows are (model, dataset) pairs in model-major order: a per-model block
/// (scalars ⊕ embedding), an 11-slot family one-hot, a per-dataset block
/// (scalars ⊕ embedding) and one per-pair column, 276 features in all.
fn pairs(models: usize, datasets: usize) -> (Matrix, Vec<f64>) {
    const MODEL_COLS: usize = 134;
    const FAMILY_SLOTS: usize = 11;
    const DATASET_COLS: usize = 130;
    let mut rng = Rng::seed_from_u64(6);
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
            y.push(0.6 * mb[0] + 0.4 * mb[1] * db[0] - 0.3 * db[2] + 0.1 * pair);
        }
    }
    (x, y)
}

fn bench_regressors(c: &mut Criterion) {
    let (x, y) = synthetic(2000, 276);
    let mut group = c.benchmark_group("regressor_fit_2000x276");
    group.sample_size(10);
    for kind in RegressorKind::ALL {
        group.bench_function(kind.name(), |b| {
            b.iter(|| {
                let mut model = kind.build();
                let mut rng = Rng::seed_from_u64(4);
                model.fit(&x, &y, &mut rng);
                model.predict(&x)
            })
        });
    }
    group.finish();

    // The pipeline's shapes: a `small` zoo's 24 models and a paper-scale
    // zoo's 185, against 11 datasets.
    let mut group = c.benchmark_group("regressor_fit_pairs");
    group.sample_size(10);
    for models in [24, 185] {
        let (x, y) = pairs(models, 11);
        for kind in RegressorKind::ALL {
            let id = BenchmarkId::new(kind.name(), format!("{}x276", x.rows()));
            group.bench_function(id, |b| {
                b.iter(|| {
                    let mut model = kind.build();
                    let mut rng = Rng::seed_from_u64(4);
                    model.fit(&x, &y, &mut rng);
                    model.predict(&x)
                })
            });
        }
    }
    group.finish();

    // Predict-only latency (the online model-recommendation step).
    let mut group = c.benchmark_group("regressor_predict_185x276");
    let (px, _) = synthetic(185, 276);
    for kind in RegressorKind::ALL {
        let mut model = kind.build();
        let mut rng = Rng::seed_from_u64(5);
        model.fit(&x, &y, &mut rng);
        group.bench_function(kind.name(), |b| b.iter(|| model.predict(&px)));
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_regressors
}
criterion_main!(benches);
