//! The graph-construction + graph-learning stage of the pipeline (Fig. 5,
//! steps ⑤–⑥), run once per leave-one-out target.

use crate::artifacts::Workbench;
use crate::config::{EdgeSource, EvalOptions};
use crate::features::node_feature_matrix;
use tg_embed::LearnerKind;
use tg_graph::{build_graph, Graph, GraphConfig, GraphInputs, NodeKind};
use tg_linalg::Matrix;
use tg_rng::Rng;
use tg_zoo::{DatasetId, Modality, TrainingHistory};

/// The constructed leave-one-out graph plus learned node embeddings.
pub struct LooGraph {
    /// The graph (model–target edges removed).
    pub graph: Graph,
    /// Node embeddings, `num_nodes × embed_dim`.
    pub embeddings: Matrix,
}

impl LooGraph {
    /// Graph node index of a model.
    pub fn model_node(&self, m: tg_zoo::ModelId) -> Option<usize> {
        self.graph.node_index(NodeKind::Model(m))
    }

    /// Graph node index of a dataset.
    pub fn dataset_node(&self, d: DatasetId) -> Option<usize> {
        self.graph.node_index(NodeKind::Dataset(d))
    }
}

/// Builds the leave-one-out graph for `target`:
/// * dataset nodes for every dataset of the modality, model nodes for every
///   model;
/// * D-D similarity edges over **all** dataset pairs (including the target
///   — "while maintaining the edges between datasets", §VII-A);
/// * M-D accuracy edges from the (possibly subsampled) history, which the
///   caller has already restricted to exclude the target;
/// * M-D transferability edges (LogME) for model × non-target pairs.
pub fn build_loo_graph_inputs(
    wb: &Workbench,
    target: DatasetId,
    history: &TrainingHistory,
    opts: &EvalOptions,
) -> GraphInputs {
    let zoo = wb.zoo();
    let modality: Modality = zoo.dataset(target).modality;
    let datasets = zoo.datasets_of(modality);
    let models = zoo.models_of(modality);

    let mut dd_similarity = Vec::new();
    for (i, &a) in datasets.iter().enumerate() {
        for &b in &datasets[i + 1..] {
            let sim = wb.similarity(a, b, opts.representation);
            dd_similarity.push((a, b, sim));
        }
    }

    let md_accuracy = match opts.edge_source {
        EdgeSource::TransferabilityOnly => Vec::new(),
        _ => history
            .records()
            .iter()
            .map(|r| (r.model, r.dataset, r.accuracy))
            .collect(),
    };

    let md_transferability = match opts.edge_source {
        EdgeSource::AccuracyOnly => Vec::new(),
        _ => {
            let targets = wb.zoo().targets_of(modality);
            let mut v = Vec::new();
            for &m in &models {
                for &d in &targets {
                    if d == target {
                        continue; // LOO: no model–target edges of any kind
                    }
                    v.push((m, d, wb.logme(m, d)));
                }
            }
            // Fig. 13's input ratio limits the collected prior knowledge as
            // a whole: subsample transferability pairs at the same rate.
            if opts.history_ratio < 1.0 {
                let mut rng = Rng::seed_from_u64(opts.seed ^ 0x7ea7);
                let k = ((v.len() as f64) * opts.history_ratio).round() as usize;
                let mut idx = rng.sample_indices(v.len(), k.min(v.len()));
                idx.sort_unstable();
                v = idx.into_iter().map(|i| v[i]).collect();
            }
            v
        }
    };

    GraphInputs {
        datasets,
        models,
        dd_similarity,
        md_accuracy,
        md_transferability,
    }
}

/// Runs steps ⑤–⑥: builds the graph and trains the chosen graph learner,
/// returning 128-d (by default) node embeddings.
pub fn learn_loo_graph(
    wb: &Workbench,
    target: DatasetId,
    history: &TrainingHistory,
    learner: LearnerKind,
    opts: &EvalOptions,
    rng: &mut Rng,
) -> LooGraph {
    let inputs = build_loo_graph_inputs(wb, target, history, opts);
    let graph = build_graph(&inputs, &GraphConfig::default());
    let features = node_feature_matrix(wb, &graph, opts.representation);
    let embeddings = learner.embed(opts.embed_dim, &graph, &features, rng);
    LooGraph { graph, embeddings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_zoo::{FineTuneMethod, ModelZoo, ZooConfig};

    fn setup() -> ModelZoo {
        ModelZoo::build(&ZooConfig::small(7))
    }

    #[test]
    fn loo_graph_has_no_model_target_edges() {
        let zoo = setup();
        let wb = Workbench::new(&zoo);
        let target = zoo.targets_of(Modality::Image)[0];
        let history = zoo
            .full_history(Modality::Image, FineTuneMethod::Full)
            .excluding_dataset(target);
        let opts = EvalOptions::default();
        let inputs = build_loo_graph_inputs(&wb, target, &history, &opts);
        let graph = build_graph(&inputs, &tg_graph::GraphConfig::default());
        let t_node = graph.node_index(NodeKind::Dataset(target)).unwrap();
        for (nbr, _) in graph.neighbors(t_node) {
            assert!(
                !graph.node(nbr).is_model(),
                "target must not connect to any model in LOO"
            );
        }
        // But it keeps its dataset-dataset edges.
        assert!(graph.degree(t_node) > 0);
    }

    #[test]
    fn transferability_only_mode_drops_accuracy_edges() {
        let zoo = setup();
        let wb = Workbench::new(&zoo);
        let target = zoo.targets_of(Modality::Image)[0];
        let history = zoo
            .full_history(Modality::Image, FineTuneMethod::Full)
            .excluding_dataset(target);
        let opts = EvalOptions {
            edge_source: EdgeSource::TransferabilityOnly,
            ..Default::default()
        };
        let inputs = build_loo_graph_inputs(&wb, target, &history, &opts);
        assert!(inputs.md_accuracy.is_empty());
        assert!(!inputs.md_transferability.is_empty());
    }

    #[test]
    fn embeddings_cover_all_nodes() {
        let zoo = setup();
        let wb = Workbench::new(&zoo);
        let target = zoo.targets_of(Modality::Image)[1];
        let history = zoo
            .full_history(Modality::Image, FineTuneMethod::Full)
            .excluding_dataset(target);
        let opts = EvalOptions {
            embed_dim: 16,
            ..Default::default()
        };
        let mut rng = Rng::seed_from_u64(1);
        let loo = learn_loo_graph(
            &wb,
            target,
            &history,
            LearnerKind::Node2Vec,
            &opts,
            &mut rng,
        );
        assert_eq!(loo.embeddings.rows(), loo.graph.num_nodes());
        assert_eq!(loo.embeddings.cols(), 16);
        assert!(loo.model_node(zoo.models_of(Modality::Image)[0]).is_some());
        assert!(loo.dataset_node(target).is_some());
    }
}
