//! Leave-one-out evaluation (§VII-A, "Evaluation"): run a strategy against
//! one target dataset and score its predictions against the fine-tuning
//! ground truth.

use crate::artifacts::{Stage, Workbench};
use crate::config::EvalOptions;
use crate::features::pair_features;
use crate::format::key_hash;
use crate::metrics::{pearson, spearman, top_k_accuracy};
use crate::pipeline::learn_loo_graph;
use crate::strategy::Strategy;
use tg_linalg::Matrix;
use tg_predict::{Regressor, RegressorKind};
use tg_rng::{splitmix64, Rng};
use tg_zoo::{DatasetId, DatasetRole, ModelId};

/// Result of one (strategy, target) evaluation.
#[derive(Clone, Debug)]
pub struct EvalOutcome {
    /// Target dataset.
    pub dataset: DatasetId,
    /// Strategy label.
    pub strategy: String,
    /// Predicted score per model (aligned with `models`).
    pub predictions: Vec<f64>,
    /// Ground-truth fine-tune accuracy per model (under
    /// [`EvalOptions::eval_method`]).
    pub ground_truth: Vec<f64>,
    /// Models in prediction order.
    pub models: Vec<ModelId>,
    /// Pearson correlation τ between predictions and ground truth (Eq. 1);
    /// `None` if degenerate.
    pub pearson: Option<f64>,
    /// Spearman rank correlation.
    pub spearman: Option<f64>,
    /// Mean realised accuracy of the top-5 recommendations (Fig. 2).
    pub top5_accuracy: f64,
}

/// A strategy fitted to one leave-one-out target: what prediction needs.
pub(crate) enum Fit {
    /// The finished scores of a strategy without a feature matrix (Random,
    /// LogME, history NN).
    Scores(Vec<f64>),
    /// A learned strategy's trained regressor and its prediction matrix,
    /// one row per model.
    Regressor {
        model: Box<dyn Regressor>,
        x: Matrix,
    },
}

/// Derives the deterministic per-(strategy, target, seed) evaluation RNG.
///
/// The stream depends only on `(seed, target, label)`, never on execution
/// order — which is what lets the parallel runner ([`crate::runner`])
/// schedule evaluations in any order and still reproduce sequential
/// results bit-for-bit. The label is mixed in by its FNV-1a hash.
pub(crate) fn eval_rng(seed: u64, target: DatasetId, label: &str) -> Rng {
    let mut st = seed ^ (target.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut st = splitmix64(&mut st) ^ key_hash(label.as_bytes());
    Rng::seed_from_u64(splitmix64(&mut st))
}

/// Evaluates one strategy on one target dataset, leave-one-out.
///
/// Takes the workbench by shared reference: all caching is interior, so any
/// number of evaluations may run concurrently against one `Workbench`.
pub fn evaluate(
    wb: &Workbench,
    strategy: &Strategy,
    target: DatasetId,
    opts: &EvalOptions,
) -> EvalOutcome {
    let (models, fit) = fit(wb, strategy, target, opts);
    let predictions = match fit {
        Fit::Scores(scores) => scores,
        Fit::Regressor { model, x } => wb.telemetry().time(Stage::Regression, || model.predict(&x)),
    };
    let ground_truth = ground_truth(wb, target, &models, opts);
    let top5 = top_k_accuracy(&predictions, &ground_truth, 5);
    EvalOutcome {
        dataset: target,
        strategy: strategy.label(),
        pearson: pearson(&ground_truth, &predictions),
        spearman: spearman(&ground_truth, &predictions),
        top5_accuracy: top5,
        predictions,
        ground_truth,
        models,
    }
}

/// Fits `strategy` to `target`, with stage timers, and returns the target
/// modality's models (in [`EvalOutcome::models`] order) with the fit.
pub(crate) fn fit(
    wb: &Workbench,
    strategy: &Strategy,
    target: DatasetId,
    opts: &EvalOptions,
) -> (Vec<ModelId>, Fit) {
    strategy.validate();
    let zoo = wb.zoo();
    let target_info = zoo.dataset(target);
    assert_eq!(
        target_info.role,
        DatasetRole::Target,
        "evaluate: {} is not a target dataset",
        target_info.name
    );
    let models = zoo.models_of(target_info.modality);
    let mut rng = eval_rng(opts.seed, target, &strategy.label());
    let fit = match strategy {
        Strategy::Random => Fit::Scores(models.iter().map(|_| rng.uniform()).collect()),
        Strategy::LogMe => Fit::Scores(models.iter().map(|&m| wb.logme(m, target)).collect()),
        Strategy::HistoryNn => {
            let history = training_history(wb, target, opts);
            Fit::Scores(history_nn_predictions(wb, &history, &models, target, opts))
        }
        Strategy::Learned {
            regressor,
            features,
        }
        | Strategy::TransferGraph {
            regressor,
            features,
            ..
        } => {
            let history = training_history(wb, target, opts);
            let loo = match strategy {
                Strategy::TransferGraph { learner, .. } => {
                    Some(wb.telemetry().time(Stage::GraphLearning, || {
                        learn_loo_graph(wb, target, &history, *learner, opts, &mut rng)
                    }))
                }
                _ => None,
            };
            let embeddings = loo.as_ref().map(|l| &l.embeddings);
            let pair = |m, d| {
                let (mn, dn) = match &loo {
                    Some(l) => (l.model_node(m), l.dataset_node(d)),
                    None => (None, None),
                };
                pair_features(wb, m, d, *features, opts.representation, embeddings, mn, dn)
            };
            // Training rows: fine-tune records on non-target targets.
            let rows = regression_rows(wb, &history);
            wb.telemetry().time(Stage::Regression, || {
                fit_regressor(*regressor, &rows, &models, target, pair, &mut rng)
            })
        }
    };
    (models, fit)
}

/// Ground-truth fine-tune accuracy of each of `models` on `target`.
pub(crate) fn ground_truth(
    wb: &Workbench,
    target: DatasetId,
    models: &[ModelId],
    opts: &EvalOptions,
) -> Vec<f64> {
    models
        .iter()
        .map(|&m| wb.zoo().fine_tune(m, target, opts.eval_method))
        .collect()
}

/// Similarity-weighted nearest-neighbour scores: for each model, average
/// its (per-dataset min-max normalised) historical accuracy over other
/// target datasets, weighted by `max(0, φ(d, target) − 0.5)²` so only
/// positively related datasets vote.
fn history_nn_predictions(
    wb: &Workbench,
    history: &tg_zoo::TrainingHistory,
    models: &[ModelId],
    target: DatasetId,
    opts: &EvalOptions,
) -> Vec<f64> {
    // Per-dataset normalisation of the historical accuracies.
    let rows = regression_rows(wb, history);
    let mut per_dataset: std::collections::BTreeMap<DatasetId, Vec<(ModelId, f64)>> =
        std::collections::BTreeMap::new();
    for &(m, d, acc) in &rows {
        per_dataset.entry(d).or_default().push((m, acc));
    }
    let mut normed: std::collections::HashMap<(ModelId, DatasetId), f64> =
        std::collections::HashMap::new();
    for (d, entries) in &per_dataset {
        let raw: Vec<f64> = entries.iter().map(|&(_, a)| a).collect();
        let n = tg_linalg::stats::min_max_normalize(&raw);
        for (&(m, _), &v) in entries.iter().zip(&n) {
            normed.insert((m, *d), v);
        }
    }
    models
        .iter()
        .map(|&m| {
            let mut num = 0.0;
            let mut den = 0.0;
            for d in per_dataset.keys() {
                if let Some(&v) = normed.get(&(m, *d)) {
                    let sim = wb.similarity(*d, target, opts.representation);
                    let w = (sim - 0.5).max(0.0).powi(2);
                    num += w * v;
                    den += w;
                }
            }
            if den > 0.0 {
                num / den
            } else {
                0.5
            }
        })
        .collect()
}

/// The leave-one-out training history: full history of the modality with
/// the target's records removed, optionally subsampled (Fig. 13).
fn training_history(
    wb: &Workbench,
    target: DatasetId,
    opts: &EvalOptions,
) -> tg_zoo::TrainingHistory {
    let modality = wb.zoo().dataset(target).modality;
    let full = wb
        .zoo()
        .full_history(modality, opts.train_method)
        .excluding_dataset(target);
    if opts.history_ratio < 1.0 {
        full.subsample(opts.history_ratio, opts.seed ^ 0x5a5a)
    } else {
        full
    }
}

/// Supervised rows: (model, dataset, label accuracy) for fine-tune records
/// on *target-role* datasets (pre-train records feed the graph, not the
/// regressor, per §VI-C).
fn regression_rows(
    wb: &Workbench,
    history: &tg_zoo::TrainingHistory,
) -> Vec<(ModelId, DatasetId, f64)> {
    history
        .records()
        .iter()
        .filter(|r| wb.zoo().dataset(r.dataset).role == DatasetRole::Target)
        .map(|r| (r.model, r.dataset, r.accuracy))
        .collect()
}

/// Fits `regressor` on the training `rows` and builds its prediction
/// matrix: every model against the target, one `pair` feature row each.
fn fit_regressor(
    regressor: RegressorKind,
    rows: &[(ModelId, DatasetId, f64)],
    models: &[ModelId],
    target: DatasetId,
    pair: impl Fn(ModelId, DatasetId) -> Vec<f64>,
    rng: &mut Rng,
) -> Fit {
    assert!(!rows.is_empty(), "fit_regressor: empty training history");
    let x_rows: Vec<Vec<f64>> = rows.iter().map(|&(m, d, _)| pair(m, d)).collect();
    let y: Vec<f64> = rows.iter().map(|&(_, _, acc)| acc).collect();
    let width = x_rows[0].len();
    let x = Matrix::from_fn(x_rows.len(), width, |r, c| x_rows[r][c]);
    let mut model = regressor.build();
    model.fit(&x, &y, rng);

    let p_rows: Vec<Vec<f64>> = models.iter().map(|&m| pair(m, target)).collect();
    let x = Matrix::from_fn(p_rows.len(), width, |r, c| p_rows[r][c]);
    Fit::Regressor { model, x }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FeatureSet;
    use tg_zoo::{Modality, ModelZoo, ZooConfig};

    fn setup() -> ModelZoo {
        ModelZoo::build(&ZooConfig::small(11))
    }

    #[test]
    fn eval_rng_stream_is_locked() {
        // Every Random score and every learned fit draws from this stream,
        // so a change to how it is derived (the label hash, the mixing)
        // reseeds every result while each seed-agnostic test still passes.
        let seed = EvalOptions::default().seed;
        for (label, expected) in [
            (
                "Random",
                [
                    0xc39a_b33e_0c5b_e048,
                    0x3a17_aec4_3dfc_4f64,
                    0x0924_078f_02ee_66bc,
                    0x7548_1232_d538_bd28,
                ],
            ),
            (
                "TG:XGB,N2V+,all",
                [
                    0x75d8_16de_9043_2bd5,
                    0xe111_8738_e0e8_6f86,
                    0xb707_fade_a2e7_7614,
                    0x1077_4edd_c547_4c67,
                ],
            ),
        ] {
            let mut rng = eval_rng(seed, DatasetId(7), label);
            let draws: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
            assert_eq!(draws, expected, "{label}");
        }
    }

    #[test]
    fn random_strategy_shapes() {
        let zoo = setup();
        let wb = Workbench::new(&zoo);
        let target = zoo.targets_of(Modality::Image)[0];
        let out = evaluate(&wb, &Strategy::Random, target, &EvalOptions::default());
        assert_eq!(out.predictions.len(), zoo.models_of(Modality::Image).len());
        assert_eq!(out.ground_truth.len(), out.predictions.len());
        assert!(out.pearson.is_some());
        assert!((0.0..=1.0).contains(&out.top5_accuracy));
    }

    #[test]
    fn evaluate_is_deterministic() {
        let zoo = setup();
        let target = zoo.targets_of(Modality::Image)[1];
        let run = || {
            let wb = Workbench::new(&zoo);
            evaluate(
                &wb,
                &Strategy::lr_baseline(),
                target,
                &EvalOptions::default(),
            )
            .predictions
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn warm_cache_does_not_change_predictions() {
        // The same workbench reused across evaluations (all-hits cache) must
        // produce exactly the cold-cache result: cached artefacts are pure.
        let zoo = setup();
        let target = zoo.targets_of(Modality::Image)[0];
        let strategy = Strategy::lr_baseline();
        let opts = EvalOptions::default();
        let cold = evaluate(&Workbench::new(&zoo), &strategy, target, &opts).predictions;
        let wb = Workbench::new(&zoo);
        let first = evaluate(&wb, &strategy, target, &opts).predictions;
        let second = evaluate(&wb, &strategy, target, &opts).predictions;
        assert_eq!(cold, first);
        assert_eq!(first, second);
    }

    #[test]
    fn learned_lr_beats_random_on_average() {
        let zoo = ModelZoo::build(&ZooConfig::small(13));
        let wb = Workbench::new(&zoo);
        let opts = EvalOptions::default();
        let mut lr_sum = 0.0;
        let mut rnd_sum = 0.0;
        let targets = zoo.targets_of(Modality::Image);
        for &t in &targets {
            lr_sum += evaluate(&wb, &Strategy::lr_baseline(), t, &opts)
                .pearson
                .unwrap_or(0.0);
            rnd_sum += evaluate(&wb, &Strategy::Random, t, &opts)
                .pearson
                .unwrap_or(0.0);
        }
        assert!(
            lr_sum > rnd_sum,
            "LR {lr_sum} should beat Random {rnd_sum} summed over targets"
        );
    }

    #[test]
    fn transfer_graph_runs_end_to_end() {
        let zoo = setup();
        let wb = Workbench::new(&zoo);
        let target = zoo.targets_of(Modality::Image)[0];
        let strategy = Strategy::TransferGraph {
            regressor: RegressorKind::Linear,
            learner: tg_embed::LearnerKind::Node2Vec,
            features: FeatureSet::All,
        };
        let opts = EvalOptions {
            embed_dim: 16,
            ..Default::default()
        };
        let out = evaluate(&wb, &strategy, target, &opts);
        assert!(out.pearson.is_some());
        assert!(out.predictions.iter().all(|p| p.is_finite()));
        // Stage attribution: a TransferGraph evaluation must book time to
        // both the graph-learning and regression stages.
        let stats = wb.stats();
        assert!(stats.stage(Stage::GraphLearning) > std::time::Duration::ZERO);
        assert!(stats.stage(Stage::Regression) > std::time::Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "is not a target dataset")]
    fn rejects_source_dataset_targets() {
        let zoo = setup();
        let wb = Workbench::new(&zoo);
        let src = zoo.sources_of(Modality::Image)[0];
        evaluate(&wb, &Strategy::Random, src, &EvalOptions::default());
    }

    #[test]
    fn history_ratio_changes_outcome() {
        let zoo = setup();
        let target = zoo.targets_of(Modality::Image)[0];
        let strategy = Strategy::lr_baseline();
        let full = {
            let wb = Workbench::new(&zoo);
            evaluate(&wb, &strategy, target, &EvalOptions::default()).predictions
        };
        let third = {
            let wb = Workbench::new(&zoo);
            let opts = EvalOptions {
                history_ratio: 0.3,
                ..Default::default()
            };
            evaluate(&wb, &strategy, target, &opts).predictions
        };
        assert_ne!(full, third);
    }
}

#[cfg(test)]
mod history_nn_tests {
    use super::*;
    use crate::config::EvalOptions;
    use crate::strategy::Strategy;
    use tg_zoo::{Modality, ModelZoo, ZooConfig};

    #[test]
    fn history_nn_runs_and_carries_signal() {
        let zoo = ModelZoo::build(&ZooConfig::small(41));
        let wb = Workbench::new(&zoo);
        let targets = zoo.targets_of(Modality::Image);
        let mut nn_sum = 0.0;
        let mut rnd_sum = 0.0;
        for &t in &targets {
            let opts = EvalOptions::default();
            nn_sum += evaluate(&wb, &Strategy::HistoryNn, t, &opts)
                .pearson
                .unwrap_or(0.0);
            rnd_sum += evaluate(&wb, &Strategy::Random, t, &opts)
                .pearson
                .unwrap_or(0.0);
        }
        assert!(
            nn_sum > rnd_sum + 0.3,
            "HistoryNN {nn_sum} should clearly beat Random {rnd_sum} summed"
        );
    }

    #[test]
    fn history_nn_label() {
        assert_eq!(Strategy::HistoryNn.label(), "HistoryNN");
    }

    #[test]
    fn history_nn_is_deterministic() {
        let zoo = ModelZoo::build(&ZooConfig::small(42));
        let t = zoo.targets_of(Modality::Text)[0];
        let run = || {
            let wb = Workbench::new(&zoo);
            evaluate(&wb, &Strategy::HistoryNn, t, &EvalOptions::default()).predictions
        };
        assert_eq!(run(), run());
    }
}
