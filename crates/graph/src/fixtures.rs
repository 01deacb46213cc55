//! Shared test fixtures for graph-consuming crates.
//!
//! The GNN modules each used to carry their own copy of the two-clique
//! graph; tests across the workspace now build it from here so fixture
//! drift can't silently change what a test exercises.

use crate::graph::{EdgeKind, Graph, NodeKind};
use tg_zoo::ModelId;

/// Two disjoint 4-cliques of model nodes (ids 0–3 and 4–7), every edge
/// weight 1.0 — the canonical "does the embedding separate communities"
/// fixture.
pub fn two_cliques() -> Graph {
    let mut g = Graph::new();
    for i in 0..8 {
        g.add_node(NodeKind::Model(ModelId(i)));
    }
    for a in 0..4 {
        for b in (a + 1)..4 {
            g.add_edge(a, b, 1.0, EdgeKind::DatasetDataset);
            g.add_edge(a + 4, b + 4, 1.0, EdgeKind::DatasetDataset);
        }
    }
    g
}

/// Two weighted 5-cliques of model nodes (ids 0–4 and 5–9) joined by one
/// bridge edge 2–7 — the fixture of the bit-identity locks, whose varied
/// weights exercise weighted aggregation and weighted walks.
pub fn bridged_cliques() -> Graph {
    let mut g = Graph::new();
    for i in 0..10 {
        g.add_node(NodeKind::Model(ModelId(i)));
    }
    for a in 0..5 {
        for b in (a + 1)..5 {
            let w = 0.5 + ((a * 5 + b) as f64) * 0.05;
            g.add_edge(a, b, w, EdgeKind::DatasetDataset);
            g.add_edge(
                a + 5,
                b + 5,
                1.0 - (b - a) as f64 * 0.07,
                EdgeKind::DatasetDataset,
            );
        }
    }
    g.add_edge(2, 7, 0.25, EdgeKind::DatasetDataset);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_of_the_fixture() {
        let g = two_cliques();
        assert_eq!(g.num_nodes(), 8);
        assert_eq!(g.edges().len(), 12);
        assert_eq!(g.connected_components(), 2);
    }
}
