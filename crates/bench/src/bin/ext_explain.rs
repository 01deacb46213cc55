//! **Extension**: explainability (§VII-G future work) — block-level
//! permutation importance of the prediction model's features, for the
//! LR{all,LogME} baseline and the TransferGraph headline variant.

#![allow(
    clippy::expect_used,
    reason = "experiment binary: a failed setup step aborts the run loudly"
)]

use tg_bench::{persist_artifacts, zoo_handle_from_env};
use transfergraph::explain::block_importance;
use transfergraph::{report::Table, EvalOptions, Strategy};

fn main() {
    let handle = zoo_handle_from_env();
    let zoo = handle.zoo();
    let wb = handle.workbench();
    let opts = EvalOptions::default();
    for (name, strategy, dataset) in [
        (
            "LR{all,LogME} on stanfordcars",
            Strategy::lr_all_logme(),
            "stanfordcars",
        ),
        (
            "TG:XGB,N2V+,all on stanfordcars",
            Strategy::transfer_graph_default(),
            "stanfordcars",
        ),
        (
            "TG:XGB,N2V+,all on tweet_eval/irony",
            Strategy::transfer_graph_default(),
            "tweet_eval/irony",
        ),
    ] {
        let target = zoo.dataset_by_name(dataset);
        let imp = block_importance(wb, &strategy, target, &opts, 3)
            .expect("both strategies are learned, so they have feature blocks");
        println!("Permutation importance — {name}\n");
        let mut table = Table::new(vec!["feature block", "τ drop when permuted"]);
        for b in &imp {
            table.row(vec![b.block.clone(), format!("{:+.3}", b.tau_drop)]);
        }
        println!("{}", table.render());
    }
    println!("reading: large τ drops mark the information the recommendation actually uses;");
    println!("for TG variants the model-embedding block should matter alongside similarity.");

    persist_artifacts(wb);
}
