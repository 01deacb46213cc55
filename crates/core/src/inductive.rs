//! Inductive dataset admission: embed a freshly arrived dataset node
//! without retraining the graph learner.
//!
//! The paper's serving premise is a zoo queried repeatedly as new target
//! datasets arrive. The transductive learners (Node2Vec, full-graph GNN
//! training) must relearn the whole graph per target; the minibatch
//! GraphSAGE driver ([`tg_embed::GraphSage::train_minibatch`]) instead
//! produces weights that are a pure function of *features and sampled
//! structure*, so a node the trainer never saw can be embedded by running
//! the trained aggregators over its sampled neighbourhood
//! ([`tg_embed::TrainedSage::embed_nodes`]).
//!
//! This module wires that capability into the serving stack:
//!
//! * [`Workbench::train_inductive`] trains a [`TrainedSage`] on the
//!   modality graph with a set of datasets *held out entirely* (their
//!   nodes absent — the strongest "unseen" condition);
//! * [`InductiveEmbedder::embed_dataset`] then admits a held-out dataset
//!   by rebuilding the graph with its node present (dataset-similarity and
//!   transferability edges only — a fresh dataset has no fine-tuning
//!   history yet) and inductively embedding just that node;
//! * [`ZooHandle::inductive_embedder`](crate::registry::ZooHandle::inductive_embedder)
//!   caches one trained embedder per `(modality, representation)`, so a
//!   registry can admit datasets between requests at sampling cost rather
//!   than training cost.

use crate::artifacts::{Stage, Workbench};
use crate::config::Representation;
use crate::features::node_feature_matrix;
use tg_embed::{GraphSage, MinibatchConfig, TrainedSage};
use tg_graph::{build_graph, GraphConfig, GraphInputs, NodeKind};
use tg_rng::Rng;
use tg_zoo::{DatasetId, FineTuneMethod, Modality};

/// Configuration of inductive training and admission.
#[derive(Clone, Debug, PartialEq)]
pub struct InductiveConfig {
    /// Dataset representation for similarity edges and node features.
    pub representation: Representation,
    /// Embedding dimension of the trained GraphSAGE.
    pub embed_dim: usize,
    /// Minibatch sampling/batching knobs (fanouts, batch size, epochs).
    pub minibatch: MinibatchConfig,
    /// Seed for weight initialisation and pair sampling.
    pub seed: u64,
}

impl Default for InductiveConfig {
    fn default() -> Self {
        InductiveConfig {
            representation: Representation::DomainSimilarity,
            embed_dim: 32,
            minibatch: MinibatchConfig::default(),
            seed: 0x1d_5eed,
        }
    }
}

/// Inputs for the full (non-LOO) modality graph, with dataset-similarity
/// edges under `representation`. Datasets in `exclude` are absent
/// entirely — no node, no edges. Datasets in `no_history` are present with
/// dataset-similarity and transferability edges but no accuracy edges (the
/// shape of a freshly admitted dataset: LogME needs only a forward pass,
/// fine-tuning history does not exist yet).
fn modality_graph_inputs(
    wb: &Workbench,
    modality: Modality,
    representation: Representation,
    exclude: &[DatasetId],
    no_history: &[DatasetId],
) -> GraphInputs {
    let zoo = wb.zoo();
    let datasets: Vec<DatasetId> = zoo
        .datasets_of(modality)
        .into_iter()
        .filter(|d| !exclude.contains(d))
        .collect();
    let models = zoo.models_of(modality);

    let mut dd_similarity = Vec::new();
    for (i, &a) in datasets.iter().enumerate() {
        for &b in &datasets[i + 1..] {
            dd_similarity.push((a, b, wb.similarity(a, b, representation)));
        }
    }

    let history = zoo.full_history(modality, FineTuneMethod::Full);
    let md_accuracy = history
        .records()
        .iter()
        .filter(|r| !exclude.contains(&r.dataset) && !no_history.contains(&r.dataset))
        .map(|r| (r.model, r.dataset, r.accuracy))
        .collect();

    let mut md_transferability = Vec::new();
    for &m in &models {
        for &d in &zoo.targets_of(modality) {
            if exclude.contains(&d) {
                continue;
            }
            md_transferability.push((m, d, wb.logme(m, d)));
        }
    }

    GraphInputs {
        datasets,
        models,
        dd_similarity,
        md_accuracy,
        md_transferability,
    }
}

/// A GraphSAGE trained on a modality graph, able to embed datasets the
/// training never saw. Produced by [`Workbench::train_inductive`].
pub struct InductiveEmbedder {
    modality: Modality,
    config: InductiveConfig,
    trained: TrainedSage,
    excluded: Vec<DatasetId>,
}

impl InductiveEmbedder {
    /// Output embedding dimension.
    pub fn dim(&self) -> usize {
        self.trained.dim()
    }

    /// The modality this embedder was trained on.
    pub fn modality(&self) -> Modality {
        self.modality
    }

    /// The configuration this embedder was trained with.
    pub(crate) fn config(&self) -> &InductiveConfig {
        &self.config
    }

    /// Datasets held out of the training graph.
    pub fn excluded(&self) -> &[DatasetId] {
        &self.excluded
    }

    /// Admits dataset `d`: rebuilds the modality graph with `d`'s node
    /// present (held-out datasets carry no accuracy edges — a fresh
    /// dataset has no fine-tuning history) and inductively embeds just
    /// that node with the trained weights. No retraining happens; the
    /// cost is graph assembly plus one sampled forward pass, attributed
    /// to the graph-learning stage.
    ///
    /// # Panics
    ///
    /// Panics when `d`'s modality differs from the embedder's.
    pub fn embed_dataset(&self, wb: &Workbench, d: DatasetId) -> Vec<f64> {
        let modality = wb.zoo().dataset(d).modality;
        assert_eq!(
            modality, self.modality,
            "InductiveEmbedder: dataset modality mismatch"
        );
        wb.telemetry().time(Stage::GraphLearning, || {
            let representation = self.config.representation;
            let inputs = modality_graph_inputs(wb, self.modality, representation, &[], &self.excluded);
            let graph = build_graph(&inputs, &GraphConfig::default());
            let features = node_feature_matrix(wb, &graph, representation);
            #[expect(
                clippy::expect_used,
                reason = "every modality dataset is a node of the exclude-free graph by construction"
            )]
            let node = graph
                .node_index(NodeKind::Dataset(d))
                .expect("admitted dataset is a node of the full modality graph");
            let emb = self.trained.embed_nodes(&graph, &features, &[node]);
            emb.row(0).to_vec()
        })
    }
}

impl Workbench<'_> {
    /// Trains an inductive GraphSAGE on this zoo's modality graph with
    /// `exclude`d datasets held out entirely (node absent). The returned
    /// embedder admits any dataset of the modality — held-out or not —
    /// via [`InductiveEmbedder::embed_dataset`] without retraining.
    ///
    /// Training is deterministic in `cfg.seed` and attributed to the
    /// graph-learning stage; peak tape residency and sampler traffic show
    /// up in [`WorkbenchStats`](crate::artifacts::WorkbenchStats).
    pub fn train_inductive(
        &self,
        modality: Modality,
        exclude: &[DatasetId],
        cfg: &InductiveConfig,
    ) -> InductiveEmbedder {
        self.telemetry().time(Stage::GraphLearning, || {
            let inputs = modality_graph_inputs(self, modality, cfg.representation, exclude, &[]);
            let graph = build_graph(&inputs, &GraphConfig::default());
            let features = node_feature_matrix(self, &graph, cfg.representation);
            let sage = GraphSage::with_dim(cfg.embed_dim);
            let mut rng = Rng::seed_from_u64(cfg.seed);
            let trained = sage.train_minibatch(&graph, &features, &mut rng, &cfg.minibatch);
            InductiveEmbedder {
                modality,
                config: cfg.clone(),
                trained,
                excluded: exclude.to_vec(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_zoo::{ModelZoo, ZooConfig};

    const DOMAIN: Representation = Representation::DomainSimilarity;

    fn cfg() -> InductiveConfig {
        InductiveConfig {
            embed_dim: 16,
            minibatch: MinibatchConfig {
                fanouts: vec![5, 3],
                batch: 64,
                epochs: Some(8),
            },
            ..InductiveConfig::default()
        }
    }

    #[test]
    fn held_out_dataset_is_absent_from_the_training_graph() {
        let zoo = ModelZoo::build(&ZooConfig::small(11));
        let wb = Workbench::new(&zoo);
        let fresh = zoo.targets_of(Modality::Image)[0];
        let inputs = modality_graph_inputs(&wb, Modality::Image, DOMAIN, &[fresh], &[]);
        assert!(!inputs.datasets.contains(&fresh));
        assert!(inputs.md_accuracy.iter().all(|&(_, d, _)| d != fresh));
        assert!(inputs
            .md_transferability
            .iter()
            .all(|&(_, d, _)| d != fresh));
        assert!(inputs
            .dd_similarity
            .iter()
            .all(|&(a, b, _)| a != fresh && b != fresh));
    }

    #[test]
    fn admitted_dataset_has_no_accuracy_edges_but_keeps_similarity() {
        let zoo = ModelZoo::build(&ZooConfig::small(11));
        let wb = Workbench::new(&zoo);
        let fresh = zoo.targets_of(Modality::Image)[0];
        let inputs = modality_graph_inputs(&wb, Modality::Image, DOMAIN, &[], &[fresh]);
        assert!(inputs.datasets.contains(&fresh));
        assert!(inputs.md_accuracy.iter().all(|&(_, d, _)| d != fresh));
        assert!(inputs
            .md_transferability
            .iter()
            .any(|&(_, d, _)| d == fresh));
        assert!(inputs
            .dd_similarity
            .iter()
            .any(|&(a, b, _)| a == fresh || b == fresh));
    }

    #[test]
    fn similarity_edges_follow_the_configured_representation() {
        let zoo = ModelZoo::build(&ZooConfig::small(11));
        let wb = Workbench::new(&zoo);
        let t2v = Representation::Task2Vec;
        let inputs = modality_graph_inputs(&wb, Modality::Image, t2v, &[], &[]);
        assert!(!inputs.dd_similarity.is_empty());
        let mut differs = false;
        for &(a, b, sim) in &inputs.dd_similarity {
            assert_eq!(sim.to_bits(), wb.similarity(a, b, t2v).to_bits());
            differs |= sim != wb.similarity(a, b, DOMAIN);
        }
        assert!(
            differs,
            "Task2Vec edges must not be the domain-similarity edges"
        );
    }

    #[test]
    fn admit_embeds_a_never_seen_dataset_deterministically() {
        let zoo = ModelZoo::build(&ZooConfig::small(12));
        let wb = Workbench::new(&zoo);
        let fresh = zoo.targets_of(Modality::Image)[1];
        let embedder = wb.train_inductive(Modality::Image, &[fresh], &cfg());
        assert_eq!(embedder.excluded(), &[fresh]);
        let v1 = embedder.embed_dataset(&wb, fresh);
        let v2 = embedder.embed_dataset(&wb, fresh);
        assert_eq!(v1.len(), 16);
        assert_eq!(v1, v2, "admission is deterministic");
        assert!(v1.iter().all(|x| x.is_finite()));
        assert!(v1.iter().any(|&x| x != 0.0), "embedding is non-trivial");
    }

    #[test]
    fn training_moves_the_tape_and_sampler_telemetry() {
        let zoo = ModelZoo::build(&ZooConfig::small(13));
        let wb = Workbench::new(&zoo);
        let before = wb.stats();
        let fresh = zoo.targets_of(Modality::Image)[0];
        let embedder = wb.train_inductive(Modality::Image, &[fresh], &cfg());
        let _ = embedder.embed_dataset(&wb, fresh);
        let delta = wb.stats().delta_since(&before);
        assert!(delta.peak_tape_bytes > 0, "training recorded tape peaks");
        assert!(delta.sampler_blocks > 0, "training sampled blocks");
        assert!(delta.sampler_edges > 0, "blocks carried edges");
    }

    #[test]
    #[should_panic(expected = "modality mismatch")]
    fn admitting_across_modalities_panics() {
        let zoo = ModelZoo::build(&ZooConfig::small(14));
        let wb = Workbench::new(&zoo);
        let embedder = wb.train_inductive(Modality::Image, &[], &cfg());
        let text = zoo.targets_of(Modality::Text)[0];
        let _ = embedder.embed_dataset(&wb, text);
    }
}
