//! Quickstart: rank a model zoo for a new target dataset in ~30 lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![allow(
    clippy::unwrap_used,
    reason = "example: unwraps keep the walkthrough short"
)]

use transfergraph_repro::core::{evaluate, EvalOptions, Strategy, Workbench};
use transfergraph_repro::zoo::{Modality, ModelZoo, ZooConfig};

fn main() {
    // 1. A model zoo. Here the bundled simulator; in a real deployment this
    //    is your registry of pre-trained models + training history.
    let zoo = ModelZoo::build(&ZooConfig::small(42));

    // 2. Pick the target dataset you want to fine-tune on.
    let target = zoo.dataset_by_name("stanfordcars");

    // 3. Run TransferGraph: graph construction → Node2Vec+ embeddings →
    //    XGBoost prediction, leave-one-out safe (no peeking at the target's
    //    fine-tuning results).
    let wb = Workbench::new(&zoo);
    let outcome = evaluate(
        &wb,
        &Strategy::transfer_graph_default(),
        target,
        &EvalOptions::default(),
    );

    // 4. The predictions rank every model in the zoo.
    let mut ranked: Vec<(usize, f64)> = outcome.predictions.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());

    println!("Top-5 recommendations for `stanfordcars`:");
    for (rank, (idx, score)) in ranked.iter().take(5).enumerate() {
        let model = zoo.model(outcome.models[*idx]);
        println!(
            "  {}. {:<40} predicted {:.3}   (actual fine-tune accuracy {:.3})",
            rank + 1,
            model.name,
            score,
            outcome.ground_truth[*idx],
        );
    }
    println!(
        "\nPearson correlation with ground truth over all {} models: {}",
        outcome.models.len(),
        transfergraph_repro::core::report::fmt_corr(outcome.pearson)
    );
    let _ = Modality::Image; // re-exported for downstream users
}
