//! Link-prediction training for the GNN learners (§V-B): the pair set
//! (positive edges from the graph, negatives from below-threshold pairs
//! plus random non-edges), the one loss-and-step of every GNN, and the
//! full-batch loop the dense learners share.

use tg_autograd::{Adam, Optimizer, ParamStore, Tape, Var};
use tg_graph::Graph;
use tg_linalg::Matrix;
use tg_rng::Rng;

/// A labelled training set of node pairs for link prediction.
#[derive(Clone, Debug)]
pub struct LinkPredSet {
    /// First endpoints.
    pub us: Vec<usize>,
    /// Second endpoints.
    pub vs: Vec<usize>,
    /// Labels: 1.0 for positive edges, 0.0 for negatives.
    pub labels: Vec<f64>,
}

impl LinkPredSet {
    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.us.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.us.is_empty()
    }
}

/// Builds the training set: every positive edge of the graph, plus the
/// graph's below-threshold negative pairs, topped up with uniformly sampled
/// non-edges so positives and negatives are balanced.
pub fn build_linkpred_set(graph: &Graph, rng: &mut Rng) -> LinkPredSet {
    let mut us = Vec::new();
    let mut vs = Vec::new();
    let mut labels = Vec::new();
    for e in graph.edges() {
        us.push(e.a);
        vs.push(e.b);
        labels.push(1.0);
    }
    let n_pos = labels.len();
    for e in graph.negatives() {
        us.push(e.a);
        vs.push(e.b);
        labels.push(0.0);
    }
    let mut n_neg = graph.negatives().len();
    // Top up with random non-edges (rejection sampling, bounded tries).
    let n = graph.num_nodes();
    if n >= 2 {
        let mut tries = 0;
        while n_neg < n_pos && tries < 20 * n_pos {
            tries += 1;
            let a = rng.index(n);
            let b = rng.index(n);
            if a == b || graph.has_edge(a, b) {
                continue;
            }
            us.push(a);
            vs.push(b);
            labels.push(0.0);
            n_neg += 1;
        }
    }
    LinkPredSet { us, vs, labels }
}

/// One link-prediction step on `tape`: the dot-product head over the
/// `(us[i], vs[i])` rows of `emb`, BCE against `targets`, backward, a
/// global gradient clip and one Adam update of `store`.
pub(crate) fn linkpred_step(
    tape: &mut Tape,
    store: &mut ParamStore,
    opt: &mut Adam,
    emb: Var,
    us: Vec<usize>,
    vs: Vec<usize>,
    targets: &Matrix,
) {
    let eu = tape.gather_rows(emb, us);
    let ev = tape.gather_rows(emb, vs);
    let prod = tape.mul_elem(eu, ev);
    let raw = tape.row_sum(prod);
    // Temperature: unit-norm dots live in [-1,1]; scale so the sigmoid can
    // saturate.
    let logits = tape.scalar_mul(raw, 5.0);
    let loss = tape.bce_with_logits(logits, targets);
    tape.backward(loss);
    store.zero_grads();
    tape.accumulate_grads(store);
    store.clip_grad_norm(5.0);
    opt.step(store);
}

/// Full-batch link-prediction training: draws the pair set, then lets
/// `init` register the weights (in that rng order), then runs `epochs`
/// Adam steps of `forward` on a fresh tape each, and returns the value of
/// one final forward: one `dim`-wide row per node. A graph with no
/// training pairs embeds as zeros.
pub(crate) fn train_full_batch<W>(
    graph: &Graph,
    dim: usize,
    epochs: usize,
    lr: f64,
    rng: &mut Rng,
    init: impl FnOnce(&mut ParamStore, &mut Rng) -> W,
    forward: impl Fn(&mut Tape, &ParamStore, &W) -> Var,
) -> Matrix {
    let set = build_linkpred_set(graph, rng);
    if set.is_empty() {
        return Matrix::zeros(graph.num_nodes(), dim);
    }
    let targets = Matrix::from_vec(set.len(), 1, set.labels.clone());
    let mut store = ParamStore::new();
    let weights = init(&mut store, rng);
    let mut opt = Adam::new(lr);
    for _ in 0..epochs {
        let mut tape = Tape::new();
        let emb = forward(&mut tape, &store, &weights);
        let (us, vs) = (set.us.clone(), set.vs.clone());
        linkpred_step(&mut tape, &mut store, &mut opt, emb, us, vs, &targets);
    }
    let mut tape = Tape::new();
    let emb = forward(&mut tape, &store, &weights);
    tape.value(emb).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_graph::{EdgeKind, NodeKind};
    use tg_zoo::ModelId;

    fn graph() -> Graph {
        let mut g = Graph::new();
        for i in 0..8 {
            g.add_node(NodeKind::Model(ModelId(i)));
        }
        for i in 0..4 {
            g.add_edge(i, i + 1, 0.8, EdgeKind::ModelDatasetAccuracy);
        }
        g.add_negative(6, 7, 0.1, EdgeKind::ModelDatasetAccuracy);
        g
    }

    #[test]
    fn balanced_labels() {
        let g = graph();
        let set = build_linkpred_set(&g, &mut Rng::seed_from_u64(1));
        let pos = set.labels.iter().filter(|&&l| l == 1.0).count();
        let neg = set.labels.iter().filter(|&&l| l == 0.0).count();
        assert_eq!(pos, 4);
        assert!(neg >= 4, "negatives should be topped up: {neg}");
    }

    #[test]
    fn negatives_are_not_positive_edges() {
        let g = graph();
        let set = build_linkpred_set(&g, &mut Rng::seed_from_u64(2));
        for i in 0..set.len() {
            if set.labels[i] == 0.0 {
                assert!(!g.has_edge(set.us[i], set.vs[i]));
            }
        }
    }

    #[test]
    fn includes_threshold_negatives() {
        let g = graph();
        let set = build_linkpred_set(&g, &mut Rng::seed_from_u64(3));
        let found =
            (0..set.len()).any(|i| set.us[i] == 6 && set.vs[i] == 7 && set.labels[i] == 0.0);
        assert!(found);
    }
}
