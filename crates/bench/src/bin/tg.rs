//! `tg` — the user-facing CLI of the TransferGraph reproduction.
//!
//! ```text
//! tg rank    --dataset <name> [--strategy tg|lr|logme|nn] [--top <k>] [--csv <path>]
//! tg explain --dataset <name> [--strategy tg|lr]
//! tg budget  --dataset <name> --hours <h> [--policy greedy|halving]
//! tg list    [--modality image|text]
//! ```
//!
//! Environment: `TG_SEED`, `TG_SCALE` as for the experiment binaries.

#![allow(
    clippy::expect_used,
    reason = "CLI binary: a failed setup step exits with its message"
)]

use std::collections::HashMap;
use tg_zoo::{DatasetId, DatasetRole, FineTuneMethod, Modality, ModelZoo};
use transfergraph::recommend::{greedy_top_k, successive_halving};
use transfergraph::{evaluate, explain::block_importance, report::Table, EvalOptions, Strategy};

fn parse_args(args: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            let val = args.get(i + 1).cloned().unwrap_or_default();
            out.insert(key.to_string(), val);
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

fn strategy_by_name(name: &str) -> Strategy {
    match name {
        "tg" | "" => Strategy::transfer_graph_default(),
        "lr" => Strategy::lr_all_logme(),
        "logme" => Strategy::LogMe,
        "nn" => Strategy::HistoryNn,
        "random" => Strategy::Random,
        other => {
            eprintln!("unknown strategy `{other}` (expected tg|lr|logme|nn|random)");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        eprintln!("usage: tg <rank|explain|budget|list> [options]");
        std::process::exit(2);
    };
    let opts_map = parse_args(&args[1..]);
    let handle = tg_bench::zoo_handle_from_env();
    let zoo = handle.zoo();
    // One workbench for whichever subcommand runs; with TG_ARTIFACT_DIR set
    // it starts warm from persisted collection artifacts.
    let wb = handle.workbench();

    match command.as_str() {
        "list" => {
            let want = opts_map.get("modality").map(String::as_str);
            let mut table = Table::new(vec!["dataset", "modality", "role", "samples", "classes"]);
            for d in &zoo.datasets {
                let modality = d.modality.to_string();
                if want.is_some_and(|w| w != modality) {
                    continue;
                }
                table.row(vec![
                    d.name.clone(),
                    modality,
                    match d.role {
                        DatasetRole::Target => "target".to_string(),
                        DatasetRole::Source => "source".to_string(),
                    },
                    d.num_samples.to_string(),
                    d.num_classes.to_string(),
                ]);
            }
            println!("{}", table.render());
            println!(
                "{} image models, {} text models in the zoo",
                zoo.models_of(Modality::Image).len(),
                zoo.models_of(Modality::Text).len()
            );
        }
        "rank" => {
            let dataset = require(&opts_map, "dataset");
            let strategy = strategy_by_name(opts_map.get("strategy").map_or("", String::as_str));
            let top: usize = opts_map
                .get("top")
                .and_then(|s| s.parse().ok())
                .unwrap_or(10);
            let target = target_by_name(zoo, &dataset);
            let out = evaluate(wb, &strategy, target, &EvalOptions::default());
            let order = tg_linalg::stats::top_k_indices(&out.predictions, top);
            let mut table = Table::new(vec!["rank", "model", "architecture", "predicted score"]);
            for (rank, &idx) in order.iter().enumerate() {
                let model = zoo.model(out.models[idx]);
                table.row(vec![
                    (rank + 1).to_string(),
                    model.name.clone(),
                    model.architecture.clone(),
                    format!("{:.4}", out.predictions[idx]),
                ]);
            }
            println!(
                "{} ranking for `{dataset}` (leave-one-out; τ vs ground truth {}):\n",
                out.strategy,
                transfergraph::report::fmt_corr(out.pearson)
            );
            println!("{}", table.render());
            if let Some(path) = opts_map.get("csv") {
                table
                    .save_csv(std::path::Path::new(path))
                    .expect("failed to write CSV");
                println!("wrote {path}");
            }
        }
        "explain" => {
            let dataset = require(&opts_map, "dataset");
            let name = opts_map.get("strategy").map_or("", String::as_str);
            let strategy = strategy_by_name(name);
            let target = target_by_name(zoo, &dataset);
            let Some(imp) = block_importance(wb, &strategy, target, &EvalOptions::default(), 3)
            else {
                eprintln!("strategy `{name}` has no feature blocks to explain (expected tg|lr)");
                std::process::exit(2);
            };
            let mut table = Table::new(vec!["feature block", "τ drop when permuted"]);
            for b in &imp {
                table.row(vec![b.block.clone(), format!("{:+.3}", b.tau_drop)]);
            }
            println!(
                "what `{}` relies on when ranking models for `{dataset}`:\n",
                strategy.label()
            );
            println!("{}", table.render());
        }
        "budget" => {
            let dataset = require(&opts_map, "dataset");
            let hours: f64 = require(&opts_map, "hours").parse().unwrap_or_else(|_| {
                eprintln!("--hours must be a number");
                std::process::exit(2);
            });
            let policy = opts_map.get("policy").map_or("greedy", String::as_str);
            let target = target_by_name(zoo, &dataset);
            let out = evaluate(
                wb,
                &Strategy::transfer_graph_default(),
                target,
                &EvalOptions::default(),
            );
            let plan = match policy {
                "halving" => successive_halving(zoo, &out, FineTuneMethod::Full, hours, 4),
                _ => greedy_top_k(zoo, &out, FineTuneMethod::Full, hours),
            };
            println!(
                "{policy} plan for `{dataset}` with {hours:.1} h: tried {} models, spent {:.2} h",
                plan.tried.len(),
                plan.spent
            );
            match plan.best_accuracy {
                Some(a) => println!(
                    "best fully fine-tuned accuracy: {a:.3} (regret {:.3})",
                    plan.regret
                ),
                None => println!("budget too small to finish any model"),
            }
        }
        other => {
            eprintln!("unknown command `{other}` (expected rank|explain|budget|list)");
            std::process::exit(2);
        }
    }

    tg_bench::persist_artifacts(wb);
}

/// The target dataset named `name`; exits with status 2 and a message when
/// the zoo has no dataset of that name or it is a pre-training source.
fn target_by_name(zoo: &ModelZoo, name: &str) -> DatasetId {
    match zoo.find_dataset(name) {
        Some(d) if zoo.dataset(d).role == DatasetRole::Target => d,
        Some(_) => {
            eprintln!("dataset `{name}` is a source, not a target (see `tg list`)");
            std::process::exit(2);
        }
        None => {
            eprintln!("unknown dataset `{name}` (see `tg list`)");
            std::process::exit(2);
        }
    }
}

fn require(map: &HashMap<String, String>, key: &str) -> String {
    match map.get(key) {
        Some(v) if !v.is_empty() => v.clone(),
        _ => {
            eprintln!("missing required option --{key}");
            std::process::exit(2);
        }
    }
}
