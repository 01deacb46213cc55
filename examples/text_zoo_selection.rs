//! Text-zoo scenario: selecting among 163 NLP models (BERT, RoBERTa,
//! ELECTRA, FNet, …) for tweet classification — the modality where the
//! paper sees the largest gains from combining metadata, dataset distance,
//! and graph features.
//!
//! Also demonstrates using the lower-level estimator APIs directly.
//!
//! ```sh
//! cargo run --release --example text_zoo_selection
//! ```

#![allow(
    clippy::expect_used,
    reason = "example: unwraps keep the walkthrough short"
)]

use transfergraph_repro::core::{evaluate, EvalOptions, FeatureSet, Strategy, Workbench};
use transfergraph_repro::embed::LearnerKind;
use transfergraph_repro::predict::RegressorKind;
use transfergraph_repro::transfer::{Labels, Leep, LogMe, Nce, Scorer};
use transfergraph_repro::zoo::{Modality, ModelZoo, ZooConfig};

fn main() {
    let zoo = ModelZoo::build(&ZooConfig::paper(2024));
    let target = zoo.dataset_by_name("tweet_eval/irony");
    let models = zoo.models_of(Modality::Text);

    // Direct use of the transferability estimators on one candidate, via
    // the unified `Scorer` trait: validate the labels once, then score.
    // LEEP and NCE consume the source-head probabilities as their matrix.
    let candidate = models[0];
    let fp = zoo.forward_pass(candidate, target);
    let labels = Labels::new(&fp.labels, fp.num_classes).expect("valid forward-pass labels");
    println!(
        "candidate {}: LogME {:.3}, LEEP {:.3}, NCE {:.3}\n",
        zoo.model(candidate).name,
        LogMe::default()
            .score(&fp.features, &labels)
            .expect("LogME scores valid features"),
        Leep.score(&fp.source_probs, &labels)
            .expect("LEEP scores valid probabilities"),
        Nce.score(&fp.source_probs, &labels)
            .expect("NCE scores valid probabilities"),
    );

    // Compare TransferGraph variants on the irony-detection target.
    let opts = EvalOptions::default();
    let wb = Workbench::new(&zoo);
    println!("tweet_eval/irony — correlation with true fine-tune accuracy:");
    for (label, strategy) in [
        ("feature-based", Strategy::LogMe),
        ("metadata LR", Strategy::lr_baseline()),
        ("LR{all,LogME}", Strategy::lr_all_logme()),
        (
            "TG graph-only",
            Strategy::TransferGraph {
                regressor: RegressorKind::Linear,
                learner: LearnerKind::Node2VecPlus,
                features: FeatureSet::GraphOnly,
            },
        ),
        (
            "TG all features",
            Strategy::TransferGraph {
                regressor: RegressorKind::Linear,
                learner: LearnerKind::Node2VecPlus,
                features: FeatureSet::All,
            },
        ),
    ] {
        let out = evaluate(&wb, &strategy, target, &opts);
        println!(
            "  {:<16} τ {}   top-5 accuracy {:.3}",
            label,
            transfergraph_repro::core::report::fmt_corr(out.pearson),
            out.top5_accuracy
        );
    }
}
