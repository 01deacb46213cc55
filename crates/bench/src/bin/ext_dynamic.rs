//! **Extension**: dynamic graph learning (§VII-G future work, citing
//! ROLAND) — measure incremental embedding refresh against full retraining
//! when new fine-tuning records stream into the zoo.
//!
//! Protocol: build the image graph with 70% of the history, then stream in
//! the remaining records one dataset at a time. After each batch compare
//! (a) full Node2Vec+ retrain and (b) warm-start refresh, on wall time and
//! on the dot-product ranking signal for stanfordcars.

#![allow(
    clippy::disallowed_methods,
    clippy::unwrap_used,
    reason = "benchmark binary: times its own run and aborts loudly on a failed step"
)]

use std::time::Instant;
use tg_embed::{DynamicEmbedder, SgnsConfig};
use tg_graph::{EdgeKind, NodeKind, WalkConfig};
use tg_rng::Rng;
use tg_zoo::{FineTuneMethod, Modality};
use transfergraph::{pipeline, report::Table, EvalOptions};

fn main() {
    let handle = tg_bench::zoo_handle_from_env();
    let zoo = handle.zoo();
    let wb = handle.workbench();
    let target = zoo.dataset_by_name("stanfordcars");
    let models = zoo.models_of(Modality::Image);
    let accs: Vec<f64> = models
        .iter()
        .map(|&m| zoo.fine_tune(m, target, FineTuneMethod::Full))
        .collect();

    // Base graph from 70% of the history (excluding the target, as in LOO).
    let opts = EvalOptions {
        history_ratio: 0.7,
        ..Default::default()
    };
    let base_history = zoo
        .full_history(Modality::Image, FineTuneMethod::Full)
        .excluding_dataset(target)
        .subsample(0.7, 99);
    let full_history = zoo
        .full_history(Modality::Image, FineTuneMethod::Full)
        .excluding_dataset(target);
    let inputs = pipeline::build_loo_graph_inputs(wb, target, &base_history, &opts);
    let graph = tg_graph::build_graph(&inputs, &tg_graph::GraphConfig::default());

    let walk_cfg = WalkConfig {
        weighted: true,
        ..Default::default()
    };
    let sgns_cfg = SgnsConfig::default();

    let mut rng = Rng::seed_from_u64(5);
    let t0 = Instant::now();
    let mut dynamic =
        DynamicEmbedder::new(graph.clone(), walk_cfg.clone(), sgns_cfg.clone(), &mut rng);
    let initial_train = t0.elapsed();

    // Stream the held-out records (those in full but not base).
    let streamed: Vec<_> = full_history
        .records()
        .iter()
        .filter(|r| base_history.accuracy(r.model, r.dataset).is_none())
        .take(200)
        .copied()
        .collect();
    println!(
        "streaming {} new fine-tune records into a {}-node graph (initial train {:.2?})\n",
        streamed.len(),
        graph.num_nodes(),
        initial_train
    );

    let signal = |emb: &tg_linalg::Matrix, g: &tg_graph::Graph| -> f64 {
        let t = g.node_index(NodeKind::Dataset(target)).unwrap();
        let dots: Vec<f64> = models
            .iter()
            .map(|&m| {
                let mn = g.node_index(NodeKind::Model(m)).unwrap();
                tg_linalg::matrix::dot(emb.row(mn), emb.row(t))
            })
            .collect();
        tg_linalg::stats::pearson(&accs, &dots).unwrap_or(0.0)
    };

    let mut table = Table::new(vec![
        "records streamed",
        "incremental refresh time",
        "incremental signal τ",
        "full retrain time",
        "full retrain signal τ",
    ]);
    let mut streamed_so_far = 0;
    for chunk in streamed.chunks(50) {
        let t = Instant::now();
        // Stream as positive edges when the accuracy clears the raw 0.5
        // threshold (online setting: no per-dataset renormalising), with
        // one batched refresh per chunk — the economical streaming mode.
        let edges: Vec<(usize, usize, f64, EdgeKind)> = chunk
            .iter()
            .filter(|r| r.accuracy >= 0.5)
            .filter_map(|r| {
                let a = dynamic.graph().node_index(NodeKind::Model(r.model))?;
                let b = dynamic.graph().node_index(NodeKind::Dataset(r.dataset))?;
                Some((a, b, r.accuracy, EdgeKind::ModelDatasetAccuracy))
            })
            .collect();
        dynamic.insert_edges(&edges, &mut rng);
        let inc_time = t.elapsed();
        streamed_so_far += chunk.len();
        let inc_tau = signal(dynamic.embeddings(), dynamic.graph());

        // Full retrain on the same (updated) graph.
        let t = Instant::now();
        let retrained = tg_embed::train_sgns(
            &tg_graph::generate_walks(dynamic.graph(), &walk_cfg, &mut Rng::seed_from_u64(6)),
            dynamic.graph().num_nodes(),
            &sgns_cfg,
            &mut Rng::seed_from_u64(6),
        );
        let full_time = t.elapsed();
        let full_tau = signal(&retrained, dynamic.graph());

        table.row(vec![
            format!("{streamed_so_far}"),
            format!("{inc_time:.2?}"),
            format!("{inc_tau:+.3}"),
            format!("{full_time:.2?}"),
            format!("{full_tau:+.3}"),
        ]);
    }
    println!("{}", table.render());
    println!("shape: incremental refresh keeps most of the retrained signal at a small");
    println!("fraction of the cost — the §VII-G 'timely update' property.");

    tg_bench::persist_artifacts(wb);
}
