//! **Extension**: a 2-D PCA map of the learned node embeddings, rendered as
//! ASCII — a qualitative check that the graph learner separates dataset
//! domains (the structure Fig. 4 sketches) and places models near the
//! datasets they transfer to.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment binary: a failed setup step aborts the run loudly"
)]

use tg_linalg::pca::Pca;
use tg_rng::Rng;
use tg_zoo::{FineTuneMethod, Modality};
use transfergraph::{pipeline, EvalOptions};

const W: usize = 100;
const H: usize = 30;

fn main() {
    let handle = tg_bench::zoo_handle_from_env();
    let zoo = handle.zoo();
    let target = zoo.dataset_by_name("stanfordcars");
    let history = zoo
        .full_history(Modality::Image, FineTuneMethod::Full)
        .excluding_dataset(target);
    let opts = EvalOptions::default();
    let wb = handle.workbench();
    let loo = pipeline::learn_loo_graph(
        wb,
        target,
        &history,
        tg_embed::LearnerKind::Node2VecPlus,
        &opts,
        &mut Rng::seed_from_u64(11),
    );

    // Project dataset nodes only (models would clutter the map).
    let dataset_rows: Vec<usize> = (0..loo.graph.num_nodes())
        .filter(|&i| !loo.graph.node(i).is_model())
        .collect();
    let emb = &loo.embeddings;
    let sub = tg_linalg::Matrix::from_fn(dataset_rows.len(), emb.cols(), |r, c| {
        emb.get(dataset_rows[r], c)
    });
    let pca = Pca::fit(&sub, 2).expect("PCA failed");
    let z = pca.transform(&sub);

    // Normalise to the canvas.
    let xs: Vec<f64> = z.col(0);
    let ys: Vec<f64> = z.col(1);
    let (x0, x1) = tg_linalg::stats::min_max(&xs).unwrap();
    let (y0, y1) = tg_linalg::stats::min_max(&ys).unwrap();
    let mut canvas = vec![vec![' '; W]; H];
    let domains = tg_zoo::datasets::IMAGE_DOMAINS;
    let glyphs = ['n', 'f', 't', 'd', 's', '3', 'm'];
    for (ri, &node) in dataset_rows.iter().enumerate() {
        let tg_graph::NodeKind::Dataset(id) = loo.graph.node(node) else {
            continue;
        };
        let info = zoo.dataset(id);
        let gx = (((xs[ri] - x0) / (x1 - x0).max(1e-9)) * (W - 1) as f64) as usize;
        let gy = (((ys[ri] - y0) / (y1 - y0).max(1e-9)) * (H - 1) as f64) as usize;
        let glyph = if id == target {
            '*'
        } else {
            glyphs[info.domain % glyphs.len()]
        };
        canvas[gy][gx] = glyph;
    }

    println!("PCA map of dataset-node embeddings (N2V+, stanfordcars LOO graph)\n");
    for row in &canvas {
        println!("{}", row.iter().collect::<String>());
    }
    println!();
    for (g, d) in glyphs.iter().zip(domains) {
        println!("  {g} = {d}");
    }
    println!("  * = stanfordcars (the held-out target)");
    let total_var: f64 = {
        let centred = sub.center_columns();
        centred.gram().scale(1.0 / (sub.rows() as f64 - 1.0));
        (0..sub.cols())
            .map(|j| {
                let col: Vec<f64> = (0..sub.rows()).map(|i| sub.get(i, j)).collect();
                tg_linalg::stats::variance(&col) * sub.rows() as f64 / (sub.rows() as f64 - 1.0)
            })
            .sum()
    };
    println!(
        "\nvariance explained by the 2-D projection: {:.0}%",
        pca.explained_ratio(total_var) * 100.0
    );

    // Quantitative clustering check: within-domain vs cross-domain distance
    // in the full embedding space.
    let mut within = Vec::new();
    let mut cross = Vec::new();
    for (i, &a) in dataset_rows.iter().enumerate() {
        for &b in &dataset_rows[i + 1..] {
            let (tg_graph::NodeKind::Dataset(da), tg_graph::NodeKind::Dataset(db)) =
                (loo.graph.node(a), loo.graph.node(b))
            else {
                continue;
            };
            let dist = tg_linalg::distance::cosine_similarity(emb.row(a), emb.row(b));
            if zoo.dataset(da).domain == zoo.dataset(db).domain {
                within.push(dist);
            } else {
                cross.push(dist);
            }
        }
    }
    println!(
        "mean cosine similarity: within-domain {:.3} vs cross-domain {:.3}",
        tg_linalg::stats::mean(&within),
        tg_linalg::stats::mean(&cross)
    );

    tg_bench::persist_artifacts(wb);
}
