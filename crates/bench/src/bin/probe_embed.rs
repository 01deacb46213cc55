//! Diagnostic sweep: how well do graph-learner embeddings capture the
//! history signal, across walk/SGNS hyperparameters? Not a paper figure.

#![allow(
    clippy::unwrap_used,
    reason = "experiment binary: a failed setup step aborts the run loudly"
)]

use tg_embed::Node2Vec;
use tg_graph::WalkConfig;
use tg_rng::Rng;
use tg_zoo::{FineTuneMethod, Modality};
use transfergraph::{pipeline, EvalOptions};

fn main() {
    let handle = tg_bench::zoo_handle_from_env();
    let zoo = handle.zoo();
    let modality = Modality::Image;
    let cars = zoo.dataset_by_name("stanfordcars");
    let models = zoo.models_of(modality);
    let accs: Vec<f64> = models
        .iter()
        .map(|&m| zoo.fine_tune(m, cars, FineTuneMethod::Full))
        .collect();
    let history = zoo
        .full_history(modality, FineTuneMethod::Full)
        .excluding_dataset(cars);
    let opts = EvalOptions::default();

    let wb = handle.workbench();
    let inputs = pipeline::build_loo_graph_inputs(wb, cars, &history, &opts);

    for (label, sim_th) in [("simth0.0", 0.0), ("simth0.6", 0.6), ("simth0.75", 0.75)] {
        let cfg = tg_graph::GraphConfig {
            similarity_threshold: sim_th,
            ..Default::default()
        };
        let graph = tg_graph::build_graph(&inputs, &cfg);
        for (wlabel, walks, len, window, epochs, p, q) in [
            (
                "w10x40 win5 e3 p1q1",
                10usize,
                40usize,
                5usize,
                3usize,
                1.0,
                1.0,
            ),
            ("w20x80 win10 e5 p1q1", 20, 80, 10, 5, 1.0, 1.0),
            ("w20x80 win10 e5 p4q1", 20, 80, 10, 5, 4.0, 1.0),
            ("w20x80 win3 e5 p1q0.5", 20, 80, 3, 5, 1.0, 0.5),
        ] {
            let learner = Node2Vec {
                walks: WalkConfig {
                    walks_per_node: walks,
                    walk_length: len,
                    p,
                    q,
                    weighted: true,
                },
                sgns: tg_embed::SgnsConfig {
                    dim: 128,
                    window,
                    negatives: 5,
                    epochs,
                    lr: 0.025,
                },
            };
            let emb = learner.embed(&graph, &mut Rng::seed_from_u64(7));
            let tnode = graph.node_index(tg_graph::NodeKind::Dataset(cars)).unwrap();
            let dots: Vec<f64> = models
                .iter()
                .map(|&m| {
                    let mn = graph.node_index(tg_graph::NodeKind::Model(m)).unwrap();
                    tg_linalg::matrix::dot(emb.row(mn), emb.row(tnode))
                })
                .collect();
            let cosines: Vec<f64> = models
                .iter()
                .map(|&m| {
                    let mn = graph.node_index(tg_graph::NodeKind::Model(m)).unwrap();
                    tg_linalg::distance::cosine_similarity(emb.row(mn), emb.row(tnode))
                })
                .collect();
            println!(
                "{label:10} {wlabel:22} dot-corr={:+.3} cos-corr={:+.3}",
                tg_linalg::stats::pearson(&accs, &dots).unwrap_or(0.0),
                tg_linalg::stats::pearson(&accs, &cosines).unwrap_or(0.0),
            );
        }
    }

    tg_bench::persist_artifacts(wb);
}
