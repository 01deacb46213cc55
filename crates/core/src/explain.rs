//! Explainability for model-selection predictions — the paper's §VII-G
//! names interpretability of the graph-learning pipeline as future work;
//! this module provides the standard tool: **permutation importance** at the
//! feature-block level.
//!
//! For a fitted (strategy, target) evaluation we shuffle one block of the
//! prediction-time features at a time (family one-hot, scalar metadata,
//! similarity, LogME, model embedding, dataset embedding) and measure how
//! much the Pearson correlation with the ground truth drops. Blocks whose
//! permutation destroys the correlation are the ones the recommendation
//! actually relies on.

use crate::artifacts::Workbench;
use crate::config::{EvalOptions, FeatureSet};
use crate::evaluate::evaluate;
use crate::features::{feature_width, FAMILY_SLOTS};
use crate::strategy::Strategy;
use tg_linalg::stats::pearson;
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
pub fn feature_blocks(set: FeatureSet, embed_dim: usize) -> Vec<(String, std::ops::Range<usize>)> {
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
/// Works by re-running the full evaluation with a *feature-permuting* hook:
/// because the pipeline is deterministic in `opts.seed`, the baseline and
/// permuted runs share everything except the shuffled block.
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
    let baseline = evaluate(wb, strategy, target, opts);
    let base_tau = baseline.pearson.unwrap_or(0.0);
    let truth = &baseline.ground_truth;

    let blocks = feature_blocks(set, opts.embed_dim);
    // Standard permutation importance, applied at prediction time: the
    // fitted model is identical to the baseline (same seeds), but one block
    // of the prediction matrix is shuffled across models before predicting.
    // τ(base) − mean τ(permuted) measures how much the ranking depends on
    // that block.
    let mut out = Vec::new();
    let mut rng = Rng::seed_from_u64(opts.seed ^ 0xB10C);
    for (name, range) in blocks {
        let mut taus = Vec::with_capacity(repeats);
        for _ in 0..repeats.max(1) {
            let permuted = crate::evaluate::predict(
                wb,
                strategy,
                target,
                &baseline.models,
                opts,
                Some((&range, &mut rng)),
            );
            taus.push(pearson(truth, &permuted).unwrap_or(0.0));
        }
        out.push(BlockImportance {
            block: name,
            tau_drop: base_tau - tg_linalg::stats::mean(&taus),
        });
    }
    out.sort_by(|a, b| b.tau_drop.total_cmp(&a.tau_drop));
    Some(out)
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
    fn importance_finds_the_logme_block_matters() {
        let zoo = ModelZoo::build(&ZooConfig::small(33));
        let wb = Workbench::new(&zoo);
        let target = zoo.targets_of(Modality::Image)[0];
        let opts = EvalOptions {
            embed_dim: 16,
            ..Default::default()
        };
        let imp = block_importance(&wb, &Strategy::lr_all_logme(), target, &opts, 2).unwrap();
        assert_eq!(imp.len(), 4);
        // Every block has a finite importance; at least one is positive.
        assert!(imp.iter().all(|b| b.tau_drop.is_finite()));
        assert!(imp.iter().any(|b| b.tau_drop > 0.0));
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
