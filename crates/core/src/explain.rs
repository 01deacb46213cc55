//! Explainability for model-selection predictions — the paper's §VII-G
//! names interpretability of the graph-learning pipeline as future work;
//! this module provides the standard tool: **permutation importance** at the
//! feature-block level.
//!
//! We fit a (strategy, target) evaluation once, then shuffle one block of
//! its prediction matrix at a time (family one-hot, scalar metadata,
//! similarity, LogME, model embedding, dataset embedding) and measure how
//! much the Pearson correlation with the ground truth drops. Blocks whose
//! permutation destroys the correlation are the ones the recommendation
//! actually relies on.

use crate::artifacts::Workbench;
use crate::config::{EvalOptions, FeatureSet};
use crate::evaluate::{fit, ground_truth, Fit};
use crate::features::{feature_width, FAMILY_SLOTS};
use crate::strategy::Strategy;
use std::ops::Range;
use tg_linalg::stats::pearson;
use tg_linalg::Matrix;
use tg_rng::Rng;
use tg_zoo::DatasetId;

/// Importance of one feature block.
#[derive(Clone, Debug)]
pub struct BlockImportance {
    /// Block name.
    pub block: String,
    /// Baseline Pearson τ minus the mean τ after permuting the block
    /// (higher = the predictions depend more on this block).
    pub tau_drop: f64,
}

/// Named column ranges of the feature layout produced by
/// [`crate::features::pair_features`] for a given feature set.
pub fn feature_blocks(set: FeatureSet, embed_dim: usize) -> Vec<(String, Range<usize>)> {
    let mut blocks = Vec::new();
    let mut at = 0;
    if set.has_metadata() {
        blocks.push(("architecture one-hot".to_string(), at..at + FAMILY_SLOTS));
        at += FAMILY_SLOTS;
        blocks.push(("model/dataset scalars".to_string(), at..at + 8));
        at += 8;
    }
    if set.has_similarity() {
        blocks.push(("dataset similarity φ".to_string(), at..at + 1));
        at += 1;
    }
    if set.has_logme() {
        blocks.push(("LogME score".to_string(), at..at + 1));
        at += 1;
    }
    if set.has_graph() {
        blocks.push(("model embedding".to_string(), at..at + embed_dim));
        at += embed_dim;
        blocks.push(("dataset embedding".to_string(), at..at + embed_dim));
        at += embed_dim;
    }
    debug_assert_eq!(at, feature_width(set, embed_dim));
    blocks
}

/// Permutation importance of each feature block for a learned strategy on
/// one target, averaged over `repeats` shuffles; `None` for a strategy that
/// has no feature blocks (LogME, history NN, random).
///
/// Fits the strategy once, as [`crate::evaluate::evaluate`] does, and
/// predicts again from copies of that fit's prediction matrix with one
/// block shuffled across models.
pub fn block_importance(
    wb: &Workbench,
    strategy: &Strategy,
    target: DatasetId,
    opts: &EvalOptions,
    repeats: usize,
) -> Option<Vec<BlockImportance>> {
    let set = match strategy {
        Strategy::Learned { features, .. } | Strategy::TransferGraph { features, .. } => *features,
        _ => return None,
    };
    let (models, Fit::Regressor { model, x }) = fit(wb, strategy, target, opts) else {
        return None;
    };
    let truth = ground_truth(wb, target, &models, opts);
    let base_tau = pearson(&truth, &model.predict(&x)).unwrap_or(0.0);

    // τ(base) − mean τ(permuted) measures how much the ranking depends on
    // each block.
    let mut out = Vec::new();
    let mut rng = Rng::seed_from_u64(opts.seed ^ 0xB10C);
    for (name, range) in feature_blocks(set, opts.embed_dim) {
        let mut taus = Vec::with_capacity(repeats);
        for _ in 0..repeats.max(1) {
            let permuted = model.predict(&permute_block(&x, &range, &mut rng));
            taus.push(pearson(&truth, &permuted).unwrap_or(0.0));
        }
        out.push(BlockImportance {
            block: name,
            tau_drop: base_tau - tg_linalg::stats::mean(&taus),
        });
    }
    out.sort_by(|a, b| b.tau_drop.total_cmp(&a.tau_drop));
    Some(out)
}

/// A copy of `x` whose `block` columns are shuffled across rows by one
/// permutation drawn from `rng`.
fn permute_block(x: &Matrix, block: &Range<usize>, rng: &mut Rng) -> Matrix {
    assert!(block.end <= x.cols(), "permute_block: block out of bounds");
    let mut perm: Vec<usize> = (0..x.rows()).collect();
    rng.shuffle(&mut perm);
    let mut px = x.clone();
    for (r, &from) in perm.iter().enumerate() {
        px.row_mut(r)[block.clone()].copy_from_slice(&x.row(from)[block.clone()]);
    }
    px
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_zoo::{Modality, ModelZoo, ZooConfig};

    #[test]
    fn blocks_tile_the_feature_vector() {
        for set in [
            FeatureSet::MetadataOnly,
            FeatureSet::MetadataSimLogme,
            FeatureSet::GraphOnly,
            FeatureSet::All,
        ] {
            let blocks = feature_blocks(set, 32);
            let total: usize = blocks.iter().map(|(_, r)| r.len()).sum();
            assert_eq!(total, feature_width(set, 32), "{set:?}");
            // Contiguous and non-overlapping.
            let mut at = 0;
            for (_, r) in &blocks {
                assert_eq!(r.start, at);
                at = r.end;
            }
        }
    }

    #[test]
    fn importance_bits_are_locked() {
        // Captured while every shuffle still refitted the whole pipeline:
        // one fit must give the same bits, in the same block order.
        let zoo = ModelZoo::build(&ZooConfig::small(33));
        let wb = Workbench::new(&zoo);
        let target = zoo.targets_of(Modality::Image)[0];
        let opts = EvalOptions {
            embed_dim: 16,
            ..Default::default()
        };
        let tg = Strategy::TransferGraph {
            regressor: tg_predict::RegressorKind::Linear,
            learner: tg_embed::LearnerKind::Node2Vec,
            features: FeatureSet::All,
        };
        for (strategy, expected) in [
            (
                Strategy::lr_all_logme(),
                vec![
                    ("architecture one-hot", 0x3fd9_3cbb_1d0f_e054),
                    ("dataset similarity φ", 0x3fd6_5b05_77e8_6587),
                    ("LogME score", 0xbf35_79a4_0447_7800),
                    ("model/dataset scalars", 0xbf9a_7552_d074_d1a0),
                ],
            ),
            (
                tg,
                vec![
                    ("dataset similarity φ", 0x3fd2_fafe_26d4_9c99),
                    ("model/dataset scalars", 0x3fc9_c834_e0b0_4ed6),
                    ("model embedding", 0x3fc3_ca5e_ae66_fc26),
                    ("architecture one-hot", 0x3fb7_994c_53ec_06d8),
                    ("dataset embedding", 0x0000_0000_0000_0000),
                ],
            ),
        ] {
            let imp = block_importance(&wb, &strategy, target, &opts, 2).unwrap();
            let bits: Vec<(&str, u64)> = imp
                .iter()
                .map(|b| (b.block.as_str(), b.tau_drop.to_bits()))
                .collect();
            assert_eq!(bits, expected, "{}", strategy.label());
        }
    }

    #[test]
    fn permuting_an_empty_block_reproduces_evaluate_bit_for_bit() {
        let zoo = ModelZoo::build(&ZooConfig::small(11));
        let wb = Workbench::new(&zoo);
        let target = zoo.targets_of(Modality::Image)[2];
        let opts = EvalOptions {
            embed_dim: 16,
            ..Default::default()
        };
        let tg = Strategy::TransferGraph {
            regressor: tg_predict::RegressorKind::Linear,
            learner: tg_embed::LearnerKind::Node2Vec,
            features: FeatureSet::All,
        };
        for strategy in [Strategy::lr_baseline(), tg] {
            let base = crate::evaluate::evaluate(&wb, &strategy, target, &opts);
            let (_, Fit::Regressor { model, x }) = fit(&wb, &strategy, target, &opts) else {
                panic!("{} has no prediction matrix", strategy.label());
            };
            let empty = permute_block(&x, &(4..4), &mut Rng::seed_from_u64(3));
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&model.predict(&empty)),
                bits(&base.predictions),
                "{}",
                strategy.label()
            );
        }
    }

    #[test]
    fn rejects_non_learned_strategies() {
        let zoo = ModelZoo::build(&ZooConfig::small(34));
        let wb = Workbench::new(&zoo);
        let target = zoo.targets_of(Modality::Image)[0];
        for strategy in [Strategy::LogMe, Strategy::HistoryNn, Strategy::Random] {
            let imp = block_importance(&wb, &strategy, target, &EvalOptions::default(), 1);
            assert!(imp.is_none(), "{}", strategy.label());
        }
    }
}
