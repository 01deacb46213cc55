//! Minibatched GNN training benchmark: peak tape residency, inductive
//! admission latency, and end-to-end parity of the neighbour-sampled
//! GraphSAGE driver against the full-graph reference.
//!
//! Four arms over the image modality's leave-one-out serving graph:
//!
//! * **full** — `GraphSage::embed`, the full-batch reference (every epoch
//!   keeps one tape over all n nodes); reports wall time and the peak
//!   tape gauge;
//! * **minibatch** — `GraphSage::train_minibatch` with
//!   `MinibatchConfig::default()` (fanouts `10,5`, batch `128`), then
//!   inductive `embed_all`; reports wall time, peak tape bytes, and the
//!   sampler's block/edge counters;
//! * **inductive** — `Workbench::train_inductive` with a reported target
//!   held out entirely, then `InductiveEmbedder::embed_dataset` admits it;
//!   reports retrain-vs-admit wall times and checks the admission is
//!   bit-deterministic across repeated calls;
//! * **parity** — the full pipeline (`TG:XGB,GraphSAGE,all` vs
//!   `TG:XGB,GraphSAGE-mb,all`) over the paper's reported targets, gated
//!   on mean-Pearson agreement.
//!
//! Gates (nonzero exit on violation): peak-tape reduction ≥ 4× at paper
//! scale (≥ 2× at the small smoke scale, where blocks cover most of the
//! tiny graph); admitting a new dataset ≥ 20× faster than retraining at
//! paper scale (≥ 3× small); admission bit-deterministic; mean Pearson of
//! the minibatch arm within [`PARITY_TOL`] of the full-graph arm. Results
//! land in `results/BENCH_minibatch.json`.

#![allow(
    clippy::disallowed_methods,
    clippy::expect_used,
    clippy::let_underscore_must_use,
    reason = "benchmark binary: times its own run, aborts loudly on a failed step and cleans scratch dirs best-effort"
)]

use std::fs;
use std::time::{Duration, Instant};

use tg_autograd::{global_peak_tape_bytes, reset_global_peak_tape_bytes};
use tg_bench::json::JsonObject;
use tg_bench::{
    evaluate_over_targets_on, mean_pearson, persist_artifacts, reported_targets, seed_from_env,
    zoo_handle_from_env,
};
use tg_embed::{GraphSage, LearnerKind, MinibatchConfig};
use tg_graph::{build_graph, sampler_counters, GraphConfig};
use tg_predict::RegressorKind;
use tg_rng::Rng;
use tg_zoo::{FineTuneMethod, Modality};
use transfergraph::pipeline::build_loo_graph_inputs;
use transfergraph::{EvalOptions, FeatureSet, InductiveConfig, Strategy};

/// Documented parity tolerance: the minibatch learner trades the exact
/// full-graph aggregation neighbourhood for sampled blocks, so its mean
/// Pearson over the reported targets may drift from the full-graph arm by
/// at most this much in either direction.
const PARITY_TOL: f64 = 0.15;

/// Admission timing repetitions; the minimum is kept (the first call runs
/// on warm workbench caches already — training warmed them).
const ADMIT_REPS: usize = 3;

/// Cap on reported targets in the parity arm: each target is a complete
/// LOO pipeline run (graph learning + XGB) per arm, so the arm's cost is
/// `2 × targets × pipeline`; the cap keeps the bench minutes, not hours.
const PARITY_TARGETS: usize = 6;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn main() {
    let handle = zoo_handle_from_env();
    let zoo = handle.zoo();
    let wb = handle.workbench();
    let scale = match std::env::var("TG_SCALE").as_deref() {
        Ok("small") => "small",
        _ => "paper",
    };
    // Peak-tape bar: the tentpole claim is >=4x at paper scale. At the
    // small smoke scale a minibatch's sampled blocks cover most of the
    // tiny graph, so the residency win shrinks.
    let peak_bar = if scale == "paper" { 4.0 } else { 2.0 };
    // Admission-vs-retrain bar: >=20x at paper scale; small-scale training
    // is itself only milliseconds, so the ratio compresses.
    let inductive_bar = if scale == "paper" { 20.0 } else { 3.0 };
    let seed = seed_from_env();

    let targets = reported_targets(zoo, Modality::Image);
    let fresh = *targets.first().expect("reported targets are non-empty");

    // The serving graph both memory arms train on: the leave-one-out graph
    // of the first reported target — the exact shape every pipeline run
    // builds — with the environment's default 128-d embeddings.
    let opts = EvalOptions::default();
    let history = zoo
        .full_history(Modality::Image, FineTuneMethod::Full)
        .excluding_dataset(fresh);
    wb.warm_logme(Modality::Image);
    let inputs = build_loo_graph_inputs(wb, fresh, &history, &opts);
    let graph = build_graph(&inputs, &GraphConfig::default());
    let features = transfergraph::features::node_feature_matrix(wb, &graph, opts.representation);
    let sage = GraphSage::with_dim(opts.embed_dim);

    // Arm 1: full-graph reference. One tape spans all n nodes per epoch.
    reset_global_peak_tape_bytes();
    let mut rng = Rng::seed_from_u64(seed);
    let start = Instant::now();
    let full_emb = sage.embed(&graph, &features, &mut rng);
    let full_train = start.elapsed();
    let peak_full = global_peak_tape_bytes();

    // Arm 2: minibatch driver, same epoch count, default fanouts and batch
    // size. Peak residency scales with the block size, not n².
    let mb_cfg = MinibatchConfig::default();
    reset_global_peak_tape_bytes();
    let (blocks_before, edges_before) = sampler_counters();
    let mut rng = Rng::seed_from_u64(seed);
    let start = Instant::now();
    let trained = sage.train_minibatch(&graph, &features, &mut rng, &mb_cfg);
    let mini_train = start.elapsed();
    let peak_mini = global_peak_tape_bytes();
    let (blocks_after, edges_after) = sampler_counters();
    let mini_emb = trained.embed_all(&graph, &features);
    assert_eq!(mini_emb.rows(), full_emb.rows());
    assert_eq!(mini_emb.cols(), full_emb.cols());
    let peak_reduction = peak_full as f64 / (peak_mini as f64).max(1.0);

    // Arm 3: inductive admission. Train with `fresh` held out entirely
    // (node absent), then admit it without retraining. Retrain cost is the
    // training call itself; admission is graph assembly plus one sampled
    // forward pass on warm caches.
    let ind_cfg = InductiveConfig {
        seed,
        ..InductiveConfig::default()
    };
    let start = Instant::now();
    let embedder = wb.train_inductive(Modality::Image, &[fresh], &ind_cfg);
    let retrain = start.elapsed();
    let mut admit = Duration::MAX;
    let mut first: Option<Vec<f64>> = None;
    let mut deterministic = true;
    for _ in 0..ADMIT_REPS {
        let start = Instant::now();
        let v = embedder.embed_dataset(wb, fresh);
        admit = admit.min(start.elapsed());
        match &first {
            None => first = Some(v),
            Some(f) => deterministic &= f == &v,
        }
    }
    let inductive_speedup = secs(retrain) / secs(admit).max(1e-12);

    // Arm 4: end-to-end parity over the reported targets (capped — each
    // target is a complete LOO pipeline run per arm).
    let parity_targets: Vec<_> = targets.iter().copied().take(PARITY_TARGETS).collect();
    let full_strategy = Strategy::TransferGraph {
        regressor: RegressorKind::Xgb,
        learner: LearnerKind::GraphSage,
        features: FeatureSet::All,
    };
    let mini_strategy = Strategy::TransferGraph {
        regressor: RegressorKind::Xgb,
        learner: LearnerKind::GraphSageMini,
        features: FeatureSet::All,
    };
    let full_run = evaluate_over_targets_on(wb, &full_strategy, &parity_targets, &opts);
    let mini_run = evaluate_over_targets_on(wb, &mini_strategy, &parity_targets, &opts);
    let pearson_full = mean_pearson(&full_run.outcomes);
    let pearson_mini = mean_pearson(&mini_run.outcomes);
    let parity_diff = (pearson_full - pearson_mini).abs();
    persist_artifacts(wb);

    let json = JsonObject::new()
        .str("scale", scale)
        .u64("seed", seed)
        .object(
            "graph",
            JsonObject::new()
                .usize("nodes", graph.num_nodes())
                .usize("edges", graph.edges().len())
                .usize("embed_dim", opts.embed_dim),
        )
        .object(
            "full",
            JsonObject::new()
                .f64("train_s", secs(full_train))
                .u64("peak_tape_bytes", peak_full),
        )
        .object(
            "minibatch",
            JsonObject::new()
                .f64("train_s", secs(mini_train))
                .u64("peak_tape_bytes", peak_mini)
                .str("fanouts", &format!("{:?}", mb_cfg.fanouts))
                .usize("batch", mb_cfg.batch)
                .u64("sampler_blocks", blocks_after - blocks_before)
                .u64("sampler_edges", edges_after - edges_before),
        )
        .f64("peak_reduction", peak_reduction)
        .object(
            "inductive",
            JsonObject::new()
                .f64("retrain_s", secs(retrain))
                .f64("admit_ms", secs(admit) * 1e3)
                .f64("speedup", inductive_speedup)
                .bool("deterministic", deterministic),
        )
        .object(
            "parity",
            JsonObject::new()
                .usize("targets", parity_targets.len())
                .f64("pearson_full", pearson_full)
                .f64("pearson_minibatch", pearson_mini)
                .f64("abs_diff", parity_diff)
                .f64("tolerance", PARITY_TOL),
        )
        .render();
    let out_path =
        std::env::var("TG_BENCH_JSON").unwrap_or_else(|_| "results/BENCH_minibatch.json".into());
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = fs::create_dir_all(dir);
    }
    fs::write(&out_path, &json).expect("write BENCH_minibatch.json");

    println!(
        "[minibatch] nodes={} peak_tape_bytes full={peak_full} mini={peak_mini} \
         reduction={peak_reduction:.2}x train full={:.3}s mini={:.3}s \
         inductive_ms={:.2} retrain={:.3}s speedup={inductive_speedup:.1}x \
         deterministic={} parity full={pearson_full:.4} mini={pearson_mini:.4} \
         diff={parity_diff:.4} (tol {PARITY_TOL}) -> {out_path}",
        graph.num_nodes(),
        secs(full_train),
        secs(mini_train),
        secs(admit) * 1e3,
        secs(retrain),
        if deterministic { "yes" } else { "no" },
    );

    let mut failed = false;
    if peak_reduction < peak_bar {
        eprintln!(
            "[minibatch] FAIL: peak tape reduction {peak_reduction:.2}x \
             below the {peak_bar}x bar ({peak_full} -> {peak_mini} bytes)"
        );
        failed = true;
    }
    if inductive_speedup < inductive_bar {
        eprintln!(
            "[minibatch] FAIL: admission only {inductive_speedup:.1}x faster than \
             retraining (bar {inductive_bar}x; retrain {:.3}s, admit {:.3}s)",
            secs(retrain),
            secs(admit),
        );
        failed = true;
    }
    if !deterministic {
        eprintln!("[minibatch] FAIL: repeated admission of the same dataset disagreed bitwise");
        failed = true;
    }
    if parity_diff > PARITY_TOL {
        eprintln!(
            "[minibatch] FAIL: mean Pearson drifted {parity_diff:.4} \
             (full {pearson_full:.4} vs minibatch {pearson_mini:.4}, tol {PARITY_TOL})"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
