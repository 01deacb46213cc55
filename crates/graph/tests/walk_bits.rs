//! Bit-identity lock on the biased second-order walk engine.
//!
//! Node2Vec and Node2Vec+ train on these corpora, so any change to how a
//! step weighs its candidates (the p/q bias, the Node2Vec+ in/out
//! smoothing, the rng draws) shows here. The fixture adds a parallel edge
//! (2–7 twice, the in-weight is the heavier one) and a zero-weight edge
//! (4–9, which counts as an edge for Node2Vec and as no tie for Node2Vec+).
//! The expected values are FNV-1a hashes of every visited index as `u64`
//! little-endian bytes, walks concatenated in order, captured before the
//! walk step learned the previous node's neighbours into scratch arrays
//! (DESIGN.md §3f).

use tg_graph::fixtures::bridged_cliques;
use tg_graph::{generate_walks, EdgeKind, WalkConfig};
use tg_rng::Rng;

/// FNV-1a over every index of every walk, in order.
fn walks_hash(walks: &[Vec<usize>]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &i in walks.iter().flatten() {
        for b in (i as u64).to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[test]
fn walk_corpora_are_bit_identical() {
    let mut g = bridged_cliques();
    g.add_edge(2, 7, 0.6, EdgeKind::DatasetDataset);
    g.add_edge(4, 9, 0.0, EdgeKind::DatasetDataset);
    for ((weighted, p, q), expected) in GRID.into_iter().zip(HASHES) {
        let cfg = WalkConfig {
            walks_per_node: 10,
            walk_length: 40,
            p,
            q,
            weighted,
        };
        let walks = generate_walks(&g, &cfg, &mut Rng::seed_from_u64(21));
        assert_eq!(
            walks_hash(&walks),
            expected,
            "walks drifted at weighted {weighted}, p {p}, q {q}"
        );
    }
}

/// (weighted, p, q) of each lock.
const GRID: [(bool, f64, f64); 4] = [
    (false, 1.0, 1.0),
    (true, 1.0, 1.0),
    (false, 0.25, 4.0),
    (true, 4.0, 0.25),
];
const HASHES: [u64; 4] = [
    0x232fa17f564db228,
    0x4c039ff8c05747c6,
    0x3388ea57b2c7e324,
    0x3beae9fb229b0207,
];
