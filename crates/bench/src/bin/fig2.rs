//! **Figure 2**: average fine-tuned accuracy of the top-5 selected models
//! on `stanfordcars`, comparing the random selection strategy, LogME, and
//! TransferGraph.
//!
//! Paper values: Random ≈ 0.52; TransferGraph clearly higher, near the best
//! achievable. Our absolute accuracies live in the simulator's bands; the
//! *ordering* and the random-vs-learned gap are the reproduced shape.

#![allow(
    clippy::unwrap_used,
    reason = "experiment binary: a failed setup step aborts the run loudly"
)]

use tg_bench::{persist_artifacts, summaries_enabled, zoo_handle_from_env};
use tg_zoo::FineTuneMethod;
use transfergraph::runner::{run_jobs, EvalJob};
use transfergraph::{report::Table, EvalOptions, Strategy};

fn main() {
    let handle = zoo_handle_from_env();
    let zoo = handle.zoo();
    let wb = handle.workbench();
    let target = zoo.dataset_by_name("stanfordcars");
    let models = zoo.models_of(tg_zoo::Modality::Image);
    let accs: Vec<f64> = models
        .iter()
        .map(|&m| zoo.fine_tune(m, target, FineTuneMethod::Full))
        .collect();
    let best5: f64 = {
        let mut sorted = accs.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        tg_linalg::stats::mean(&sorted[..5])
    };

    println!("Figure 2 — top-5 mean fine-tuned accuracy on stanfordcars\n");
    let opts = EvalOptions::default();
    let jobs: Vec<EvalJob> = [
        Strategy::Random,
        Strategy::LogMe,
        Strategy::lr_baseline(),
        Strategy::lr_all_logme(),
        Strategy::transfer_graph_default(),
    ]
    .into_iter()
    .map(|strategy| EvalJob { strategy, target })
    .collect();
    let mut summary = run_jobs(wb, &jobs, &opts);
    tg_bench::attach_registry_stats(&mut summary);
    if summaries_enabled() {
        eprintln!("[fig2] {}", summary.render());
    }
    let mut table = Table::new(vec!["strategy", "top-5 mean accuracy", "pearson"]);
    for out in &summary.outcomes {
        table.row(vec![
            out.strategy.clone(),
            format!("{:.3}", out.top5_accuracy),
            transfergraph::report::fmt_corr(out.pearson),
        ]);
    }
    table.row(vec![
        "(oracle best-5)".to_string(),
        format!("{best5:.3}"),
        "—".to_string(),
    ]);
    println!("{}", table.render());
    println!(
        "dataset stats: {} models, accuracy in [{:.3}, {:.3}], mean {:.3}",
        models.len(),
        tg_linalg::stats::min_max(&accs).unwrap().0,
        tg_linalg::stats::min_max(&accs).unwrap().1,
        tg_linalg::stats::mean(&accs),
    );

    persist_artifacts(wb);
}
