//! Tabular feature assembly for the prediction model (§VI-C): each training
//! or prediction row describes one (model, dataset) pair.

use crate::artifacts::Workbench;
use crate::config::{FeatureSet, Representation};
use tg_linalg::Matrix;
use tg_zoo::{DatasetId, ModelId};

/// Number of architecture-family one-hot slots. Both modalities have at
/// most 11 families; a fixed width keeps feature vectors aligned.
pub const FAMILY_SLOTS: usize = 11;

/// Scalar metadata features of a (model, dataset) pair: the §IV-A list —
/// model capacity proxy, #params, input size, memory, pre-train accuracy;
/// dataset #samples, #classes — plus the family one-hot.
pub fn metadata_features(wb: &Workbench, m: ModelId, d: DatasetId) -> Vec<f64> {
    let zoo = wb.zoo();
    let model = zoo.model(m);
    let data = zoo.dataset(d);
    let mut v = Vec::with_capacity(FAMILY_SLOTS + 8);
    for slot in 0..FAMILY_SLOTS {
        v.push(if model.family == slot { 1.0 } else { 0.0 });
    }
    v.push(model.capacity);
    v.push((model.num_params as f64).ln());
    v.push(model.input_size as f64 / 512.0);
    v.push(model.memory_mb / 1000.0);
    v.push(model.pretrain_accuracy);
    v.push((data.num_samples as f64).ln());
    v.push((data.num_classes as f64).ln());
    v.push(zoo.dataset(model.source_dataset).num_classes as f64 / 100.0);
    v
}

/// Full feature row for a (model, dataset) pair under a [`FeatureSet`].
///
/// `embeddings` are the graph-learner node embeddings (one row per graph
/// node); `node_of` maps a zoo entity to its graph node index. Pairs whose
/// entity is missing from the graph (never happens in the standard
/// pipeline) get zero embeddings.
#[allow(
    clippy::too_many_arguments,
    reason = "one argument per feature source of the pair row; all are needed together"
)]
pub fn pair_features(
    wb: &Workbench,
    m: ModelId,
    d: DatasetId,
    set: FeatureSet,
    rep: Representation,
    embeddings: Option<&Matrix>,
    model_node: Option<usize>,
    dataset_node: Option<usize>,
) -> Vec<f64> {
    let mut v = Vec::new();
    if set.has_metadata() {
        v.extend(metadata_features(wb, m, d));
    }
    if set.has_similarity() {
        let src = wb.zoo().model(m).source_dataset;
        v.push(wb.similarity(src, d, rep));
    }
    if set.has_logme() {
        v.push(wb.logme(m, d));
    }
    if set.has_graph() {
        #[expect(
            clippy::expect_used,
            reason = "every caller that enables graph features threads embeddings; a None here is a pipeline wiring bug"
        )]
        let emb = embeddings.expect("pair_features: graph features requested without embeddings");
        for node in [model_node, dataset_node] {
            match node {
                Some(i) => v.extend_from_slice(emb.row(i)),
                None => v.extend(std::iter::repeat_n(0.0, emb.cols())),
            }
        }
    }
    v
}

/// Feature width for a given set and embedding dimension (sanity checks in
/// tests and benches).
pub fn feature_width(set: FeatureSet, embed_dim: usize) -> usize {
    let mut w = 0;
    if set.has_metadata() {
        w += FAMILY_SLOTS + 8;
    }
    if set.has_similarity() {
        w += 1;
    }
    if set.has_logme() {
        w += 1;
    }
    if set.has_graph() {
        w += 2 * embed_dim;
    }
    w
}

/// Builds the GNN node-feature matrix: dataset nodes carry their
/// representation embedding; model nodes carry their metadata vector,
/// zero-padded to the same width (§V-A2).
pub fn node_feature_matrix(wb: &Workbench, graph: &tg_graph::Graph, rep: Representation) -> Matrix {
    use tg_graph::NodeKind;
    let zoo = wb.zoo();
    // Determine widths.
    let first_ds = graph.nodes().iter().find_map(|n| match n {
        NodeKind::Dataset(d) => Some(*d),
        _ => None,
    });
    let ds_width = match first_ds {
        Some(d) => wb.representation(d, rep).len(),
        None => 0,
    };
    let model_width = FAMILY_SLOTS + 4;
    let width = ds_width.max(model_width).max(1);
    let n = graph.num_nodes();
    let mut x = Matrix::zeros(n, width);
    for i in 0..n {
        match graph.node(i) {
            NodeKind::Dataset(d) => {
                let e = wb.representation(d, rep).to_vec();
                x.row_mut(i)[..e.len()].copy_from_slice(&e);
            }
            NodeKind::Model(m) => {
                let model = zoo.model(m);
                let mut v = Vec::with_capacity(model_width);
                for slot in 0..FAMILY_SLOTS {
                    v.push(if model.family == slot { 1.0 } else { 0.0 });
                }
                v.push(model.capacity);
                v.push((model.num_params as f64).ln() / 20.0);
                v.push(model.input_size as f64 / 512.0);
                v.push(model.pretrain_accuracy);
                x.row_mut(i)[..v.len()].copy_from_slice(&v);
            }
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_zoo::{Modality, ModelZoo, ZooConfig};

    fn setup() -> ModelZoo {
        ModelZoo::build(&ZooConfig::small(5))
    }

    #[test]
    fn metadata_width_matches_constant() {
        let zoo = setup();
        let wb = Workbench::new(&zoo);
        let m = zoo.models_of(Modality::Image)[0];
        let d = zoo.targets_of(Modality::Image)[0];
        assert_eq!(metadata_features(&wb, m, d).len(), FAMILY_SLOTS + 8);
    }

    #[test]
    fn pair_features_widths_per_set() {
        let zoo = setup();
        let wb = Workbench::new(&zoo);
        let m = zoo.models_of(Modality::Image)[0];
        let d = zoo.targets_of(Modality::Image)[0];
        let rep = Representation::DomainSimilarity;
        let emb = Matrix::zeros(10, 16);
        for set in [
            FeatureSet::MetadataOnly,
            FeatureSet::MetadataSimLogme,
            FeatureSet::GraphOnly,
            FeatureSet::All,
        ] {
            let v = pair_features(&wb, m, d, set, rep, Some(&emb), Some(0), Some(1));
            assert_eq!(v.len(), feature_width(set, 16), "{set:?}");
            assert!(v.iter().all(|x| x.is_finite()), "{set:?}");
        }
    }

    #[test]
    fn one_hot_family_is_exclusive() {
        let zoo = setup();
        let wb = Workbench::new(&zoo);
        let d = zoo.targets_of(Modality::Image)[0];
        for &m in &zoo.models_of(Modality::Image) {
            let v = metadata_features(&wb, m, d);
            let ones = v[..FAMILY_SLOTS].iter().filter(|&&x| x == 1.0).count();
            assert_eq!(ones, 1);
        }
    }

    #[test]
    fn missing_graph_node_yields_zero_block() {
        let zoo = setup();
        let wb = Workbench::new(&zoo);
        let m = zoo.models_of(Modality::Image)[0];
        let d = zoo.targets_of(Modality::Image)[0];
        let emb = Matrix::from_fn(4, 8, |_, _| 1.0);
        let v = pair_features(
            &wb,
            m,
            d,
            FeatureSet::GraphOnly,
            Representation::DomainSimilarity,
            Some(&emb),
            None,
            Some(2),
        );
        assert_eq!(v.len(), 16);
        assert!(v[..8].iter().all(|&x| x == 0.0));
        assert!(v[8..].iter().all(|&x| x == 1.0));
    }
}
