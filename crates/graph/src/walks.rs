//! Biased second-order random walks for Node2Vec and Node2Vec+ (§V-B1).

use crate::graph::Graph;
use tg_rng::Rng;

/// Walk generation hyperparameters.
#[derive(Clone, Debug)]
pub struct WalkConfig {
    /// Walks started from every node.
    pub walks_per_node: usize,
    /// Steps per walk.
    pub walk_length: usize,
    /// Return parameter `p`: small `p` keeps the walk local.
    pub p: f64,
    /// In-out parameter `q`: small `q` explores outward (DFS-like).
    pub q: f64,
    /// `false` = Node2Vec (link structure only, uniform over neighbors);
    /// `true` = Node2Vec+ (transition probability scaled by edge weight,
    /// with the weighted in/out smoothing of Liu et al. 2023).
    pub weighted: bool,
}

impl Default for WalkConfig {
    fn default() -> Self {
        WalkConfig {
            walks_per_node: 10,
            walk_length: 40,
            p: 1.0,
            q: 1.0,
            weighted: false,
        }
    }
}

/// Generates `walks_per_node` walks from every node. Isolated nodes yield
/// singleton walks (they still receive an embedding row, matching the
/// paper's observation that low input ratios fragment the graph).
pub fn generate_walks(g: &Graph, cfg: &WalkConfig, rng: &mut Rng) -> Vec<Vec<usize>> {
    assert!(cfg.walk_length >= 1, "walk_length must be >= 1");
    let n = g.num_nodes();
    // Mean incident edge weight per node, used by the Node2Vec+ in/out rule.
    let mean_weight: Vec<f64> = (0..n)
        .map(|i| {
            let d = g.degree(i);
            if d == 0 {
                0.0
            } else {
                g.weighted_degree(i) / d as f64
            }
        })
        .collect();

    let mut walks = Vec::with_capacity(n * cfg.walks_per_node);
    let mut order: Vec<usize> = (0..n).collect();
    let mut ties = PrevTies {
        weight: vec![0.0; n],
        adjacent: vec![false; n],
    };
    for _ in 0..cfg.walks_per_node {
        // Shuffle start order per round (standard node2vec practice).
        rng.shuffle(&mut order);
        for &start in &order {
            walks.push(single_walk(g, cfg, &mean_weight, &mut ties, start, rng));
        }
    }
    walks
}

/// How each node is tied to the previous node of a walk. Indexed by node,
/// so a step reads each candidate's tie in O(1) and costs
/// O(deg(cur) + deg(prev)). All zero between steps.
struct PrevTies {
    /// Heaviest edge to the previous node: `max` folded from 0.0 over
    /// parallel edges, so 0.0 when there is none.
    weight: Vec<f64>,
    /// Whether any edge joins the previous node; zero-weight edges count.
    adjacent: Vec<bool>,
}

impl PrevTies {
    fn fill(&mut self, g: &Graph, prev: usize) {
        for (nbr, w) in g.neighbors(prev) {
            self.weight[nbr] = self.weight[nbr].max(w);
            self.adjacent[nbr] = true;
        }
    }

    fn clear(&mut self, g: &Graph, prev: usize) {
        for (nbr, _) in g.neighbors(prev) {
            self.weight[nbr] = 0.0;
            self.adjacent[nbr] = false;
        }
    }
}

fn single_walk(
    g: &Graph,
    cfg: &WalkConfig,
    mean_weight: &[f64],
    ties: &mut PrevTies,
    start: usize,
    rng: &mut Rng,
) -> Vec<usize> {
    let mut walk = Vec::with_capacity(cfg.walk_length);
    walk.push(start);
    let mut prev: Option<usize> = None;
    let mut cur = start;
    // Scratch buffers reused across steps.
    let mut nexts: Vec<usize> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    while walk.len() < cfg.walk_length {
        nexts.clear();
        weights.clear();
        if let Some(t) = prev {
            ties.fill(g, t);
        }
        for (nbr, w) in g.neighbors(cur) {
            let base = if cfg.weighted { w.max(1e-6) } else { 1.0 };
            let bias = match prev {
                None => 1.0,
                Some(t) if nbr == t => 1.0 / cfg.p,
                Some(_) => {
                    if cfg.weighted {
                        // Node2Vec+ smoothing: how strongly is `nbr` tied to
                        // the previous node, relative to its typical edge?
                        let w_tn = ties.weight[nbr];
                        let thresh = mean_weight[nbr];
                        if w_tn >= thresh && thresh > 0.0 {
                            1.0 // effectively distance-1: in-neighbor
                        } else if w_tn <= 0.0 {
                            1.0 / cfg.q // true out-neighbor
                        } else {
                            // Loose tie: interpolate between out and in.
                            let r = w_tn / thresh;
                            (1.0 / cfg.q) + (1.0 - 1.0 / cfg.q) * r
                        }
                    } else if ties.adjacent[nbr] {
                        1.0
                    } else {
                        1.0 / cfg.q
                    }
                }
            };
            nexts.push(nbr);
            weights.push(base * bias);
        }
        if let Some(t) = prev {
            ties.clear(g, t);
        }
        if nexts.is_empty() || weights.iter().sum::<f64>() <= 0.0 {
            break; // dangling node: truncate the walk
        }
        let pick = rng.categorical(&weights);
        prev = Some(cur);
        cur = nexts[pick];
        walk.push(cur);
    }
    walk
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeKind, NodeKind};
    use tg_zoo::ModelId;

    /// Path graph 0-1-2-3-4.
    fn path_graph() -> Graph {
        let mut g = Graph::new();
        for i in 0..5 {
            g.add_node(NodeKind::Model(ModelId(i)));
        }
        for i in 0..4 {
            g.add_edge(i, i + 1, 1.0, EdgeKind::DatasetDataset);
        }
        g
    }

    #[test]
    fn walk_count_and_length() {
        let g = path_graph();
        let cfg = WalkConfig {
            walks_per_node: 3,
            walk_length: 7,
            ..Default::default()
        };
        let mut rng = Rng::seed_from_u64(1);
        let walks = generate_walks(&g, &cfg, &mut rng);
        assert_eq!(walks.len(), 15);
        assert!(walks.iter().all(|w| w.len() == 7));
    }

    #[test]
    fn walks_follow_edges() {
        let g = path_graph();
        let mut rng = Rng::seed_from_u64(2);
        let walks = generate_walks(&g, &WalkConfig::default(), &mut rng);
        for w in &walks {
            for pair in w.windows(2) {
                assert!(g.has_edge(pair[0], pair[1]), "invalid step {pair:?}");
            }
        }
    }

    #[test]
    fn isolated_node_yields_singleton() {
        let mut g = path_graph();
        g.add_node(NodeKind::Model(ModelId(99)));
        let mut rng = Rng::seed_from_u64(3);
        let walks = generate_walks(&g, &WalkConfig::default(), &mut rng);
        let singleton = walks.iter().filter(|w| w.len() == 1).count();
        assert_eq!(singleton, WalkConfig::default().walks_per_node);
    }

    #[test]
    fn small_p_increases_backtracking() {
        // On a path graph, count immediate backtracks w[i] == w[i-2].
        let g = path_graph();
        let backtrack_rate = |p: f64| {
            let cfg = WalkConfig {
                walks_per_node: 50,
                walk_length: 20,
                p,
                q: 1.0,
                weighted: false,
            };
            let mut rng = Rng::seed_from_u64(4);
            let walks = generate_walks(&g, &cfg, &mut rng);
            let mut total = 0usize;
            let mut back = 0usize;
            for w in &walks {
                for i in 2..w.len() {
                    total += 1;
                    if w[i] == w[i - 2] {
                        back += 1;
                    }
                }
            }
            back as f64 / total as f64
        };
        assert!(backtrack_rate(0.1) > backtrack_rate(10.0) + 0.1);
    }

    #[test]
    fn weighted_walks_prefer_heavy_edges() {
        // Star: 0 connected to 1 (weight 0.9) and 2 (weight 0.1).
        let mut g = Graph::new();
        for i in 0..3 {
            g.add_node(NodeKind::Model(ModelId(i)));
        }
        g.add_edge(0, 1, 0.9, EdgeKind::DatasetDataset);
        g.add_edge(0, 2, 0.1, EdgeKind::DatasetDataset);
        let cfg = WalkConfig {
            walks_per_node: 200,
            walk_length: 2,
            weighted: true,
            ..Default::default()
        };
        let mut rng = Rng::seed_from_u64(5);
        let walks = generate_walks(&g, &cfg, &mut rng);
        let firsts: Vec<usize> = walks
            .iter()
            .filter(|w| w[0] == 0 && w.len() > 1)
            .map(|w| w[1])
            .collect();
        let to1 = firsts.iter().filter(|&&x| x == 1).count() as f64;
        let to2 = firsts.iter().filter(|&&x| x == 2).count() as f64;
        assert!(to1 > 4.0 * to2, "to1 {to1} to2 {to2}");
    }

    #[test]
    fn unweighted_walks_ignore_weights() {
        let mut g = Graph::new();
        for i in 0..3 {
            g.add_node(NodeKind::Model(ModelId(i)));
        }
        g.add_edge(0, 1, 0.9, EdgeKind::DatasetDataset);
        g.add_edge(0, 2, 0.1, EdgeKind::DatasetDataset);
        let cfg = WalkConfig {
            walks_per_node: 300,
            walk_length: 2,
            weighted: false,
            ..Default::default()
        };
        let mut rng = Rng::seed_from_u64(6);
        let walks = generate_walks(&g, &cfg, &mut rng);
        let firsts: Vec<usize> = walks
            .iter()
            .filter(|w| w[0] == 0 && w.len() > 1)
            .map(|w| w[1])
            .collect();
        let to1 = firsts.iter().filter(|&&x| x == 1).count() as f64;
        let frac = to1 / firsts.len() as f64;
        assert!((frac - 0.5).abs() < 0.1, "frac {frac}");
    }
}
