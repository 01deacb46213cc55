//! LoRA robustness study (the paper's §VII-F): does the recommendation
//! pipeline still work when the user fine-tunes with LoRA instead of full
//! fine-tuning — and when the training history was collected with a
//! *different* method than the one being deployed?
//!
//! ```sh
//! cargo run --release --example lora_study
//! ```

#![allow(
    clippy::unwrap_used,
    reason = "example: unwraps keep the walkthrough short"
)]

use transfergraph_repro::core::{evaluate, EvalOptions, Strategy, Workbench};
use transfergraph_repro::zoo::{FineTuneMethod, Modality, ModelZoo, ZooConfig};

fn main() {
    let zoo = ModelZoo::build(&ZooConfig::paper(2024));
    let target = zoo.dataset_by_name("tweet_eval/sentiment");
    let models = zoo.models_of(Modality::Text);

    // How different are the two fine-tuning channels on this dataset?
    let full: Vec<f64> = models
        .iter()
        .map(|&m| zoo.fine_tune(m, target, FineTuneMethod::Full))
        .collect();
    let lora: Vec<f64> = models
        .iter()
        .map(|&m| zoo.fine_tune(m, target, FineTuneMethod::Lora))
        .collect();
    println!(
        "full-FT vs LoRA on tweet_eval/sentiment: corr {:.3}, mean gap {:+.4}\n",
        tg_linalg::stats::pearson(&full, &lora).unwrap(),
        tg_linalg::stats::mean(&full) - tg_linalg::stats::mean(&lora),
    );

    let strategy = Strategy::transfer_graph_default();
    let settings = [
        (
            "history full  / deploy full",
            FineTuneMethod::Full,
            FineTuneMethod::Full,
        ),
        (
            "history lora  / deploy lora",
            FineTuneMethod::Lora,
            FineTuneMethod::Lora,
        ),
        (
            "history full  / deploy lora",
            FineTuneMethod::Full,
            FineTuneMethod::Lora,
        ),
        (
            "history lora  / deploy full",
            FineTuneMethod::Lora,
            FineTuneMethod::Full,
        ),
    ];
    println!("TG:XGB,N2V+,all under method mismatch:");
    for (label, train, eval_m) in settings {
        let opts = EvalOptions {
            train_method: train,
            eval_method: eval_m,
            ..Default::default()
        };
        let wb = Workbench::new(&zoo);
        let out = evaluate(&wb, &strategy, target, &opts);
        println!(
            "  {label}: τ {}   top-5 {:.3}",
            transfergraph_repro::core::report::fmt_corr(out.pearson),
            out.top5_accuracy
        );
    }
    println!("\nTakeaway (matches §VII-F): method mismatch costs a little correlation but");
    println!("does not change which strategy family you should use.");
}
