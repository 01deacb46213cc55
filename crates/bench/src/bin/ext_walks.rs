//! **Extension**: walk-hyperparameter ablation for Node2Vec+ — the paper's
//! §VII-D notes it does not explore p/q/walk-length/window and leaves the
//! search to complementary work; this binary is that search at small scale.
//!
//! Grid: return parameter p, in-out parameter q, walk length, window —
//! evaluated on the dot-product ranking signal (cheap proxy that needs no
//! regressor) over two image targets.

#![allow(
    clippy::unwrap_used,
    reason = "experiment binary: a failed setup step aborts the run loudly"
)]

use tg_embed::Node2Vec;
use tg_graph::{NodeKind, WalkConfig};
use tg_rng::Rng;
use tg_zoo::{FineTuneMethod, Modality};
use transfergraph::{pipeline, report::Table, EvalOptions};

fn main() {
    let handle = tg_bench::zoo_handle_from_env();
    let zoo = handle.zoo();
    let wb = handle.workbench();
    let targets = ["stanfordcars", "pets"];
    let opts = EvalOptions::default();

    // The graph does not depend on the walk parameters, so build it once
    // per target and sweep the configurations over it.
    struct TargetCtx {
        graph: tg_graph::Graph,
        accs: Vec<f64>,
        models: Vec<tg_zoo::ModelId>,
        target: tg_zoo::DatasetId,
    }
    let contexts: Vec<TargetCtx> = targets
        .iter()
        .map(|name| {
            let target = zoo.dataset_by_name(name);
            let models = zoo.models_of(Modality::Image);
            let accs: Vec<f64> = models
                .iter()
                .map(|&m| zoo.fine_tune(m, target, FineTuneMethod::Full))
                .collect();
            let history = zoo
                .full_history(Modality::Image, FineTuneMethod::Full)
                .excluding_dataset(target);
            let inputs = pipeline::build_loo_graph_inputs(wb, target, &history, &opts);
            let graph = tg_graph::build_graph(&inputs, &tg_graph::GraphConfig::default());
            TargetCtx {
                graph,
                accs,
                models,
                target,
            }
        })
        .collect();

    let mut table = Table::new(vec![
        "p",
        "q",
        "walk len",
        "window",
        "τ(stanfordcars)",
        "τ(pets)",
        "mean",
    ]);
    let grid_pq = [(1.0, 1.0), (0.25, 1.0), (4.0, 1.0), (1.0, 0.25), (1.0, 4.0)];
    let grid_len = [(40usize, 5usize), (80, 10)];
    for &(p, q) in &grid_pq {
        for &(walk_length, window) in &grid_len {
            let mut taus = Vec::new();
            for ctx in &contexts {
                let learner = Node2Vec {
                    walks: WalkConfig {
                        walks_per_node: 10,
                        walk_length,
                        p,
                        q,
                        weighted: true,
                    },
                    sgns: tg_embed::SgnsConfig {
                        window,
                        ..Default::default()
                    },
                };
                let emb = learner.embed(&ctx.graph, &mut Rng::seed_from_u64(17));
                let t_node = ctx.graph.node_index(NodeKind::Dataset(ctx.target)).unwrap();
                let dots: Vec<f64> = ctx
                    .models
                    .iter()
                    .map(|&m| {
                        let mn = ctx.graph.node_index(NodeKind::Model(m)).unwrap();
                        tg_linalg::matrix::dot(emb.row(mn), emb.row(t_node))
                    })
                    .collect();
                taus.push(tg_linalg::stats::pearson(&ctx.accs, &dots).unwrap_or(0.0));
            }
            table.row(vec![
                format!("{p}"),
                format!("{q}"),
                format!("{walk_length}"),
                format!("{window}"),
                format!("{:+.3}", taus[0]),
                format!("{:+.3}", taus[1]),
                format!("{:+.3}", (taus[0] + taus[1]) / 2.0),
            ]);
        }
    }
    println!("Walk-hyperparameter ablation (N2V+ dot-product ranking signal)\n");
    println!("{}", table.render());

    tg_bench::persist_artifacts(wb);
}
