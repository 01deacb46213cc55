//! **Extension**: related-work estimator shootout — correlation of all six
//! implemented transferability estimators (LogME, LEEP, NCE, PARC,
//! TransRate, H-score) with true fine-tuning accuracy per image target.
//! Completes the paper's §II-A related-work table with measured numbers on
//! the simulated zoo.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment binary: a failed setup step aborts the run loudly"
)]

use std::sync::Mutex;
use tg_bench::{reported_targets, zoo_handle_from_env};
use tg_transfer::Estimator;
use tg_zoo::{FineTuneMethod, Modality};
use transfergraph::report::Table;

fn main() {
    let handle = zoo_handle_from_env();
    let zoo = handle.zoo();
    let targets = reported_targets(zoo, Modality::Image);
    let models = zoo.models_of(Modality::Image);
    println!(
        "Estimator shootout — Pearson τ with fine-tune accuracy ({} image targets × {} models)\n",
        targets.len(),
        models.len()
    );

    // score[target][estimator]
    let rows: Mutex<Vec<Option<Vec<f64>>>> = Mutex::new(vec![None; targets.len()]);
    std::thread::scope(|scope| {
        for (ti, &t) in targets.iter().enumerate() {
            let rows = &rows;
            let models = &models;
            let zoo = &zoo;
            scope.spawn(move || {
                let accs: Vec<f64> = models
                    .iter()
                    .map(|&m| zoo.fine_tune(m, t, FineTuneMethod::Full))
                    .collect();
                let mut taus = Vec::new();
                for est in Estimator::ALL {
                    let scores: Vec<f64> = models
                        .iter()
                        .map(|&m| {
                            est.score(&zoo.forward_pass(m, t))
                                .expect("simulator forward passes are valid scorer input")
                        })
                        .collect();
                    taus.push(tg_linalg::stats::pearson(&accs, &scores).unwrap_or(0.0));
                }
                rows.lock().unwrap()[ti] = Some(taus);
            });
        }
    });
    let rows: Vec<Vec<f64>> = rows
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("worker finished"))
        .collect();

    let mut header = vec!["dataset".to_string()];
    header.extend(Estimator::ALL.iter().map(|e| e.name().to_string()));
    let mut table = Table::new(header);
    let mut means = vec![0.0; Estimator::ALL.len()];
    for (ti, &t) in targets.iter().enumerate() {
        let mut row = vec![zoo.dataset(t).name.clone()];
        for (ei, &tau) in rows[ti].iter().enumerate() {
            means[ei] += tau / targets.len() as f64;
            row.push(format!("{tau:+.3}"));
        }
        table.row(row);
    }
    let mut mean_row = vec!["MEAN".to_string()];
    for m in &means {
        mean_row.push(format!("{m:+.3}"));
    }
    table.row(mean_row);
    println!("{}", table.render());
}
