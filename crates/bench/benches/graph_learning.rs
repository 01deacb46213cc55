//! Criterion bench: graph-learning costs — walk generation, SGNS training,
//! GNN embedding — on the paper-scale image graph. Backs the §VII-D
//! observation that Node2Vec-family learners are the practical choice at
//! this graph size.

use criterion::{criterion_group, criterion_main, Criterion};
use tg_embed::LearnerKind;
use tg_graph::{generate_walks, WalkConfig};
use tg_rng::Rng;
use tg_zoo::{FineTuneMethod, Modality, ModelZoo, ZooConfig};
use transfergraph::{pipeline, EvalOptions, Workbench};

fn bench_graph_learning(c: &mut Criterion) {
    let zoo = ModelZoo::build(&ZooConfig::paper(1));
    let target = zoo.dataset_by_name("pets");
    let history = zoo
        .full_history(Modality::Image, FineTuneMethod::Full)
        .excluding_dataset(target);
    let opts = EvalOptions::default();
    let wb = Workbench::new(&zoo);
    let inputs = pipeline::build_loo_graph_inputs(&wb, target, &history, &opts);
    let graph = tg_graph::build_graph(&inputs, &tg_graph::GraphConfig::default());
    let features = transfergraph::features::node_feature_matrix(&wb, &graph, opts.representation);

    c.bench_function("walk_generation_paper_graph", |b| {
        b.iter(|| {
            let mut rng = Rng::seed_from_u64(1);
            generate_walks(&graph, &WalkConfig::default(), &mut rng)
        })
    });

    let mut group = c.benchmark_group("graph_learner_embed_dim32");
    group.sample_size(10);
    for kind in LearnerKind::ALL {
        group.bench_function(kind.name(), |b| {
            b.iter(|| {
                let mut rng = Rng::seed_from_u64(2);
                kind.embed(32, &graph, &features, &mut rng)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_graph_learning
}
criterion_main!(benches);
