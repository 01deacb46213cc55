//! Shared harness code for the experiment binaries (one per paper
//! table/figure) and the Criterion benches.
//!
//! Every binary accepts these optional environment variables:
//! * `TG_SEED` — world seed (default 2024, the paper's venue year);
//! * `TG_SCALE` — `paper` (default; 185 + 163 models) or `small` (fast
//!   smoke-test scale);
//! * `TG_ARTIFACT_DIR` — directory for cross-run artifact persistence:
//!   collection artifacts (LogME, embeddings, similarities) are warmed from
//!   it at startup and written back on exit, so a second run of the same
//!   world recomputes nothing;
//! * `TG_REGISTRY_MAX_ZOOS` / `TG_REGISTRY_MAX_BYTES` — memory-tier bounds
//!   of the process-wide [`ZooRegistry`] every binary routes through (see
//!   [`registry`]); unset or `0` means unbounded;
//! * `TG_RUNNER_SUMMARY` — `1`/`0` forces run-summary printing on/off
//!   (default: on in release builds, off in debug builds).

// The JSON writer moved to its own crate so the serving front-end can
// render responses without depending on the bench harness; this re-export
// keeps every `tg_bench::json::JsonObject` call site compiling unchanged.
pub use tg_json as json;

use std::sync::{Arc, OnceLock};

use tg_zoo::{Modality, ModelZoo, ZooConfig};
use transfergraph::runner::{run_over_targets, RunSummary};
use transfergraph::{EvalOptions, EvalOutcome, Strategy, Workbench, ZooHandle, ZooRegistry};

/// Default world seed used by all experiment binaries.
pub const DEFAULT_SEED: u64 = 2024;

/// Reads the world seed from `TG_SEED`.
pub fn seed_from_env() -> u64 {
    std::env::var("TG_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// The zoo configuration requested via `TG_SEED` / `TG_SCALE`.
pub fn zoo_config_from_env() -> ZooConfig {
    let seed = seed_from_env();
    match std::env::var("TG_SCALE").as_deref() {
        Ok("small") => ZooConfig::small(seed),
        _ => ZooConfig::paper(seed),
    }
}

/// The process-wide [`ZooRegistry`], built on first use from the
/// environment: artifact directory from `TG_ARTIFACT_DIR`, memory-tier
/// bounds from `TG_REGISTRY_MAX_ZOOS` / `TG_REGISTRY_MAX_BYTES`.
///
/// Every experiment binary routes through this registry — the single-zoo
/// binaries are simply its N=1 case — so run summaries can report routing
/// and eviction telemetry uniformly.
pub fn registry() -> &'static ZooRegistry {
    REGISTRY.get_or_init(ZooRegistry::from_env)
}

static REGISTRY: OnceLock<ZooRegistry> = OnceLock::new();

/// Routes the environment's zoo configuration through the process-wide
/// [`registry`], building (and warming from `TG_ARTIFACT_DIR`) on first
/// touch. The handle owns the zoo, its artifact store and a shared
/// [`Workbench`] view:
///
/// ```no_run
/// let handle = tg_bench::zoo_handle_from_env();
/// let zoo = handle.zoo();
/// let wb = handle.workbench();
/// # let _ = (zoo, wb);
/// ```
pub fn zoo_handle_from_env() -> Arc<ZooHandle> {
    registry().get_or_build(&zoo_config_from_env())
}

/// The datasets the paper reports on: targets whose fine-tune accuracy
/// actually varies (§VII-A drops near-constant datasets like eurosat),
/// ordered by descending standard deviation as in Fig. 6.
pub fn reported_targets(zoo: &ModelZoo, modality: Modality) -> Vec<tg_zoo::DatasetId> {
    let models = zoo.models_of(modality);
    let mut with_std: Vec<(tg_zoo::DatasetId, f64)> = zoo
        .targets_of(modality)
        .into_iter()
        .map(|d| {
            let accs: Vec<f64> = models
                .iter()
                .map(|&m| zoo.fine_tune(m, d, tg_zoo::FineTuneMethod::Full))
                .collect();
            (d, tg_linalg::stats::std_dev(&accs))
        })
        .collect();
    with_std.sort_by(|a, b| b.1.total_cmp(&a.1));
    with_std
        .into_iter()
        .filter(|&(_, s)| s > 0.02)
        .map(|(d, _)| d)
        .collect()
}

/// Attaches the process-wide [`registry`]'s telemetry to a summary
/// produced by a direct `runner` call ([`evaluate_over_targets_on`] does
/// this itself). Leaves `None` when nothing has routed through the
/// registry yet.
pub fn attach_registry_stats(summary: &mut RunSummary) {
    summary.registry = REGISTRY.get().map(ZooRegistry::stats);
}

/// Persists the workbench's collection artifacts to `TG_ARTIFACT_DIR` (a
/// no-op without it), reporting what was written when summaries are on.
/// Binaries call this once, after their last evaluation.
pub fn persist_artifacts(wb: &Workbench) {
    match wb.persist() {
        Ok(stats) => {
            if let Some(dir) = wb.artifact_dir().filter(|_| summaries_enabled()) {
                eprintln!(
                    "[artifacts] persisted {} entries ({}B) to {}",
                    stats.entries,
                    stats.bytes,
                    dir.display()
                );
            }
        }
        Err(e) => eprintln!("[artifacts] persist failed (continuing): {e}"),
    }
}

/// Whether run summaries go to stderr: `TG_RUNNER_SUMMARY=1`/`0` decides
/// explicitly; unset defaults to on in `--release` and off in debug (so
/// test output stays quiet).
pub fn summaries_enabled() -> bool {
    match std::env::var_os("TG_RUNNER_SUMMARY") {
        Some(v) => v != "0",
        None => !cfg!(debug_assertions),
    }
}

/// Evaluates one strategy over a list of targets in parallel on a shared
/// caller-owned workbench (the runner's work-stealing pool; results keep
/// input order), returning the full [`RunSummary`]. Binaries that sweep
/// many configurations reuse one warm workbench across sweeps instead of
/// re-collecting features.
///
/// The summary's stats and wall time span the *whole* call including the
/// LogME warm-up, so cold-cache compute (and disk-tier hits, with
/// `TG_ARTIFACT_DIR`) are attributed to the run that paid for them. The
/// process-wide peak-tape gauge is reset first, so the summary's
/// `peak_tape_bytes` is this sweep's own high-water mark, not an earlier
/// one's. The summary is printed to stderr when [`summaries_enabled`].
pub fn evaluate_over_targets_on(
    wb: &Workbench,
    strategy: &Strategy,
    targets: &[tg_zoo::DatasetId],
    opts: &EvalOptions,
) -> RunSummary {
    tg_autograd::reset_global_peak_tape_bytes();
    let before = wb.stats();
    #[expect(
        clippy::disallowed_methods,
        reason = "run-summary wall time is reporting-only telemetry, never an input to predictions"
    )]
    let start = std::time::Instant::now();
    // Warm the expensive shared artefacts (LogME over every model × target
    // pair) once; afterwards every worker thread hits the shared cache.
    if let Some(&first) = targets.first() {
        wb.warm_logme(wb.zoo().dataset(first).modality);
    }
    let mut summary = run_over_targets(wb, strategy, targets, opts);
    summary.stats = wb.stats().delta_since(&before);
    summary.wall_time = start.elapsed();
    // When this process routes through the serving registry, report its
    // telemetry alongside the cache stats (None before first routing).
    attach_registry_stats(&mut summary);
    if summaries_enabled() {
        eprintln!("[{}] {}", strategy.label(), summary.render());
    }
    summary
}

/// Mean Pearson correlation over outcomes (missing correlations count 0,
/// matching how a degenerate prediction contributes nothing).
pub fn mean_pearson(outcomes: &[EvalOutcome]) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    outcomes
        .iter()
        .map(|o| o.pearson.unwrap_or(0.0))
        .sum::<f64>()
        / outcomes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(pearson: Option<f64>) -> EvalOutcome {
        EvalOutcome {
            dataset: tg_zoo::DatasetId(0),
            strategy: "test".to_string(),
            predictions: vec![0.0, 1.0],
            ground_truth: vec![0.0, 1.0],
            models: vec![tg_zoo::ModelId(0), tg_zoo::ModelId(1)],
            pearson,
            spearman: pearson,
            top5_accuracy: 0.5,
        }
    }

    #[test]
    fn mean_pearson_averages_and_defaults_missing_to_zero() {
        let outs = vec![outcome(Some(0.8)), outcome(None), outcome(Some(0.4))];
        assert!((mean_pearson(&outs) - 0.4).abs() < 1e-12);
        assert_eq!(mean_pearson(&[]), 0.0);
    }

    #[test]
    fn sweep_reports_its_own_peak_tape() {
        // An earlier tape raises the process-wide gauge...
        let mut tape = tg_autograd::Tape::new();
        tape.constant(tg_linalg::Matrix::zeros(4, 4));
        assert!(tg_autograd::global_peak_tape_bytes() > 0);
        // ...which a LogME sweep, recording no tape, must not report.
        let zoo = ModelZoo::build(&ZooConfig::small(3));
        let wb = Workbench::new(&zoo);
        let target = zoo.targets_of(Modality::Image)[0];
        let run =
            evaluate_over_targets_on(&wb, &Strategy::LogMe, &[target], &EvalOptions::default());
        assert_eq!(run.stats.peak_tape_bytes, 0);
    }

    #[test]
    fn seed_default() {
        std::env::remove_var("TG_SEED");
        assert_eq!(seed_from_env(), DEFAULT_SEED);
    }

    #[test]
    fn reported_targets_excludes_low_variance() {
        let zoo = ModelZoo::build(&ZooConfig::small(3));
        let reported = reported_targets(&zoo, Modality::Image);
        let all = zoo.targets_of(Modality::Image);
        assert!(reported.len() < all.len(), "low-variance targets dropped");
        // mnist-like datasets (spread 0.02-0.04) must be excluded.
        let names: Vec<&str> = reported
            .iter()
            .map(|&d| zoo.dataset(d).name.as_str())
            .collect();
        assert!(!names.contains(&"mnist"));
        assert!(names.contains(&"stanfordcars"));
    }
}
