//! Bit-identity locks on the graph learners.
//!
//! The full-graph GNN trainers: the minibatch/inductive drivers live
//! *next to* the full-graph path, which stays the parity reference: any
//! refactor that touches the dense builders or the training loop must
//! leave these embeddings bit-for-bit unchanged. Their expected values were
//! captured before the block-aware aggregation layer landed.
//!
//! The minibatch GraphSAGE driver: `train_minibatch`, inductive inference
//! over every node and over two chosen nodes, and `GraphSAGE-mb` through
//! [`LearnerKind::embed`]. Their expected values were captured while
//! inference still ran a tape-free copy of the block forward, so they also
//! pin that the taped forward computes the same bits.
//!
//! The walk learners: Node2Vec, Node2Vec+, the warm-started
//! [`DynamicEmbedder`] and the SGNS kernel under all three. Any change to
//! the walk engine or the SGNS loop (its rng stream, its summation order)
//! shows here. The first `train_sgns` corpus repeats nodes, so a pair's
//! negatives can repeat a row or hit the context; its grid spans
//! `negatives` 0..=8 and dims from 1 to 128. Their expected values were
//! captured before the SGNS kernel was restructured into independent
//! dot-product chains (DESIGN.md §3f). The second corpus walks a ring of
//! 100 nodes, so most pairs' six samples are distinct rows and take the
//! one-pass update, at dim 128 and at dim 13, which leaves a remainder past
//! any vector width. Its expected values were captured while every pair
//! still updated one sample at a time.
//!
//! Every expected value is an FNV-1a hash of the raw f64 bit patterns.

use tg_embed::{
    train_sgns, DynamicEmbedder, Gat, Gcn, GraphSage, LearnerKind, MinibatchConfig, Node2Vec,
    SgnsConfig,
};
use tg_graph::fixtures::bridged_cliques;
use tg_graph::{EdgeKind, WalkConfig};
use tg_linalg::Matrix;
use tg_rng::Rng;

/// FNV-1a over the exact bit patterns of every matrix entry, row-major.
fn bits_hash(m: &Matrix) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &x in m.as_slice() {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn features() -> Matrix {
    Matrix::from_fn(10, 6, |r, c| ((r * 7 + c * 3) as f64 * 0.29).sin())
}

#[test]
fn sage_full_graph_is_bit_identical() {
    let g = bridged_cliques();
    let sage = GraphSage {
        epochs: 25,
        ..GraphSage::with_dim(8)
    };
    let emb = sage.embed(&g, &features(), &mut Rng::seed_from_u64(42));
    assert_eq!(bits_hash(&emb), SAGE_HASH, "full-graph GraphSAGE drifted");
}

#[test]
fn gat_full_graph_is_bit_identical() {
    let g = bridged_cliques();
    let gat = Gat {
        epochs: 25,
        ..Gat::with_dim(8)
    };
    let emb = gat.embed(&g, &features(), &mut Rng::seed_from_u64(42));
    assert_eq!(bits_hash(&emb), GAT_HASH, "full-graph GAT drifted");
}

#[test]
fn gcn_full_graph_is_bit_identical() {
    let g = bridged_cliques();
    let gcn = Gcn {
        epochs: 25,
        ..Gcn::with_dim(8)
    };
    let emb = gcn.embed(&g, &features(), &mut Rng::seed_from_u64(42));
    assert_eq!(bits_hash(&emb), GCN_HASH, "full-graph GCN drifted");
}

#[test]
fn sage_minibatch_and_inductive_inference_are_bit_identical() {
    let g = bridged_cliques();
    let sage = GraphSage {
        epochs: 25,
        ..GraphSage::with_dim(8)
    };
    let cfg = MinibatchConfig {
        fanouts: vec![3, 3],
        batch: 8,
        epochs: None,
    };
    let trained = sage.train_minibatch(&g, &features(), &mut Rng::seed_from_u64(42), &cfg);
    assert_eq!(
        bits_hash(&trained.embed_all(&g, &features())),
        SAGE_MB_ALL_HASH,
        "minibatch GraphSAGE (embed_all) drifted"
    );
    assert_eq!(
        bits_hash(&trained.embed_nodes(&g, &features(), &[3, 7])),
        SAGE_MB_NODES_HASH,
        "minibatch GraphSAGE (embed_nodes) drifted"
    );
    let emb = LearnerKind::GraphSageMini.embed(8, &g, &features(), &mut Rng::seed_from_u64(42));
    assert_eq!(bits_hash(&emb), SAGE_MB_KIND_HASH, "GraphSAGE-mb drifted");
}

#[test]
fn node2vec_is_bit_identical() {
    let emb = Node2Vec::with_dim(8).embed(&bridged_cliques(), &mut Rng::seed_from_u64(11));
    assert_eq!(bits_hash(&emb), N2V_HASH, "Node2Vec drifted");
}

#[test]
fn node2vec_plus_is_bit_identical() {
    let emb = Node2Vec::plus_with_dim(8).embed(&bridged_cliques(), &mut Rng::seed_from_u64(11));
    assert_eq!(bits_hash(&emb), N2V_PLUS_HASH, "Node2Vec+ drifted");
}

#[test]
fn dynamic_embedder_is_bit_identical() {
    let mut rng = Rng::seed_from_u64(9);
    let walks = WalkConfig {
        weighted: true,
        ..Default::default()
    };
    let sgns = SgnsConfig {
        dim: 8,
        ..Default::default()
    };
    let mut e = DynamicEmbedder::new(bridged_cliques(), walks, sgns, &mut rng);
    e.insert_edge(0, 9, 0.7, EdgeKind::DatasetDataset, &mut rng);
    assert_eq!(
        bits_hash(e.embeddings()),
        DYNAMIC_HASH,
        "DynamicEmbedder (train + warm refresh) drifted"
    );
}

/// Walks of `len` steps over a ring of `nodes` nodes, each step moving
/// -3..=3 places: a corpus where most pairs' samples are distinct rows.
fn ring_walks(nodes: usize, walks: usize, len: usize) -> Vec<Vec<usize>> {
    let mut rng = Rng::seed_from_u64(17);
    (0..walks)
        .map(|w| {
            let mut node = w % nodes;
            (0..len)
                .map(|_| {
                    node = (node + nodes + rng.index(7) - 3) % nodes;
                    node
                })
                .collect()
        })
        .collect()
}

#[test]
fn sgns_kernel_is_bit_identical() {
    let repeating = vec![
        vec![0, 1, 2, 1, 0, 2],
        vec![2, 1, 0, 0, 1, 2],
        vec![1, 1, 2],
    ];
    let ring = ring_walks(RING_NODES, 50, 25);
    let corpora = [
        (&repeating, 3, &SGNS_GRID[..], &SGNS_HASHES[..]),
        (&ring, RING_NODES, &RING_GRID[..], &RING_HASHES[..]),
    ];
    for (walks, num_nodes, grid, hashes) in corpora {
        for (&(dim, negatives, window), &expected) in grid.iter().zip(hashes) {
            let cfg = SgnsConfig {
                dim,
                window,
                negatives,
                epochs: 2,
                lr: 0.05,
            };
            let emb = train_sgns(walks, num_nodes, &cfg, &mut Rng::seed_from_u64(5));
            assert_eq!(
                bits_hash(&emb),
                expected,
                "SGNS drifted on {num_nodes} nodes at dim {dim}, negatives {negatives}, window {window}"
            );
        }
    }
}

// Captured from the pre-refactor trainers; see module docs.
const SAGE_HASH: u64 = 12752504627612935361;
const GAT_HASH: u64 = 16642683965507637302;
const GCN_HASH: u64 = 4090431410780378604;

// Captured from the tape-free inference forward; see module docs.
const SAGE_MB_ALL_HASH: u64 = 0x7eaa17e5689b03e0;
const SAGE_MB_NODES_HASH: u64 = 0xac399117daae7c08;
const SAGE_MB_KIND_HASH: u64 = 0x86f062ff16d8340c;

// Captured from the sequential SGNS loop; see module docs.
const N2V_HASH: u64 = 0xa1a3770057c5710b;
const N2V_PLUS_HASH: u64 = 0x71b437a23c6dfb66;
const DYNAMIC_HASH: u64 = 0x525c1de55c8ea4e4;
/// (dim, negatives, window) of each `train_sgns` lock.
const SGNS_GRID: [(usize, usize, usize); 4] = [(1, 0, 1), (7, 1, 2), (13, 8, 3), (128, 5, 5)];
const SGNS_HASHES: [u64; 4] = [
    0xe8e214d594783eab,
    0x346d25b2b46bc33f,
    0x613c996bf19d9350,
    0xf7aa567dfc44fb66,
];

// Captured from the per-sample update loop; see module docs.
const RING_NODES: usize = 100;
/// (dim, negatives, window) of each `train_sgns` lock on the ring corpus.
const RING_GRID: [(usize, usize, usize); 2] = [(128, 5, 5), (13, 5, 5)];
const RING_HASHES: [u64; 2] = [0x83562715bed6fe23, 0x6869de3b368332d1];
