//! Calibration diagnostic: per-channel signal strengths and the strategy
//! ordering on a subset of targets. Not a paper figure — used to verify
//! that the simulated world reproduces the information structure the paper
//! relies on (see DESIGN.md §2).

#![allow(
    clippy::unwrap_used,
    reason = "experiment binary: a failed setup step aborts the run loudly"
)]

use tg_bench::{
    evaluate_over_targets_on, mean_pearson, persist_artifacts, reported_targets,
    zoo_handle_from_env,
};
use tg_zoo::{FineTuneMethod, Modality};
use transfergraph::{report::Table, EvalOptions, Strategy};

fn main() {
    let handle = zoo_handle_from_env();
    let zoo = handle.zoo();
    let wb = handle.workbench();
    let modality = Modality::Image;
    let targets = reported_targets(zoo, modality);
    println!("reported image targets: {}", targets.len());

    // Channel diagnostics on one hard dataset.
    let cars = zoo.dataset_by_name("stanfordcars");
    let models = zoo.models_of(modality);
    let accs: Vec<f64> = models
        .iter()
        .map(|&m| zoo.fine_tune(m, cars, FineTuneMethod::Full))
        .collect();
    let logme: Vec<f64> = models.iter().map(|&m| wb.logme(m, cars)).collect();
    let pre: Vec<f64> = models
        .iter()
        .map(|&m| zoo.model(m).pretrain_accuracy)
        .collect();
    let sim: Vec<f64> = models
        .iter()
        .map(|&m| {
            wb.similarity(
                zoo.model(m).source_dataset,
                cars,
                transfergraph::Representation::DomainSimilarity,
            )
        })
        .collect();
    println!(
        "stanfordcars channels: corr(acc, logme)={:.3} corr(acc, pretrain)={:.3} corr(acc, sim)={:.3} acc range=[{:.3},{:.3}] std={:.3}",
        tg_linalg::stats::pearson(&accs, &logme).unwrap_or(0.0),
        tg_linalg::stats::pearson(&accs, &pre).unwrap_or(0.0),
        tg_linalg::stats::pearson(&accs, &sim).unwrap_or(0.0),
        tg_linalg::stats::min_max(&accs).unwrap().0,
        tg_linalg::stats::min_max(&accs).unwrap().1,
        tg_linalg::stats::std_dev(&accs),
    );

    // Mechanism ceiling: similarity-weighted history average — how much
    // signal do other-dataset accuracies carry about the target?
    {
        use tg_zoo::DatasetRole;
        let others: Vec<_> = zoo
            .targets_of(modality)
            .into_iter()
            .filter(|&d| d != cars && zoo.dataset(d).role == DatasetRole::Target)
            .collect();
        let mut preds = Vec::new();
        for &m in &models {
            let mut num = 0.0;
            let mut den = 0.0;
            for &d in &others {
                let sim = wb.similarity(d, cars, transfergraph::Representation::DomainSimilarity);
                let w = (sim - 0.5).max(0.0).powi(2);
                // normalise accuracy within dataset d
                num += w * zoo.fine_tune(m, d, FineTuneMethod::Full);
                den += w;
            }
            preds.push(if den > 0.0 { num / den } else { 0.0 });
        }
        println!(
            "history-NN ceiling on stanfordcars: corr={:.3}",
            tg_linalg::stats::pearson(&accs, &preds).unwrap_or(0.0)
        );
        // Embedding dot-product probe: does emb_m . emb_target carry it?
        let history = zoo
            .full_history(modality, FineTuneMethod::Full)
            .excluding_dataset(cars);
        let opts = EvalOptions::default();
        let mut rng = tg_rng::Rng::seed_from_u64(123);
        let loo = transfergraph::pipeline::learn_loo_graph(
            wb,
            cars,
            &history,
            tg_embed::LearnerKind::Node2VecPlus,
            &opts,
            &mut rng,
        );
        let tnode = loo.dataset_node(cars).unwrap();
        let dots: Vec<f64> = models
            .iter()
            .map(|&m| {
                let mn = loo.model_node(m).unwrap();
                tg_linalg::matrix::dot(loo.embeddings.row(mn), loo.embeddings.row(tnode))
            })
            .collect();
        println!(
            "emb dot-product probe on stanfordcars: corr={:.3}",
            tg_linalg::stats::pearson(&accs, &dots).unwrap_or(0.0)
        );
    }

    // Strategy ordering over the first 4 reported targets (fast pass).
    let subset = &targets[..targets.len().min(4)];
    let opts = EvalOptions::default();
    let strategies = vec![
        Strategy::Random,
        Strategy::LogMe,
        Strategy::lr_baseline(),
        Strategy::lr_all_logme(),
        Strategy::TransferGraph {
            regressor: tg_predict::RegressorKind::Linear,
            learner: tg_embed::LearnerKind::Node2VecPlus,
            features: transfergraph::FeatureSet::All,
        },
        Strategy::transfer_graph_default(),
    ];
    let mut table = Table::new(vec!["strategy", "mean pearson", "per-target"]);
    for s in &strategies {
        let outs = evaluate_over_targets_on(wb, s, subset, &opts).outcomes;
        let per: Vec<String> = outs
            .iter()
            .map(|o| format!("{:+.2}", o.pearson.unwrap_or(0.0)))
            .collect();
        table.row(vec![
            s.label(),
            format!("{:+.3}", mean_pearson(&outs)),
            per.join(" "),
        ]);
    }
    println!("{}", table.render());

    persist_artifacts(wb);
}
