//! `multizoo` — serving-layer stress bench for the [`ZooRegistry`].
//!
//! Round-robins evaluation jobs across three structurally distinct zoo
//! configurations from concurrent workers, all routed through the
//! process-wide registry under a memory-tier bound small enough to force
//! evictions (defaults to `TG_REGISTRY_MAX_ZOOS=2` when unset). Verifies:
//!
//! 1. **routing** — every job lands on the zoo it asked for (fingerprint
//!    and model-count checks): must be 0 wrong routes;
//! 2. **eviction** — with fewer resident slots than configurations, the
//!    registry must evict at least once;
//! 3. **purity** — every job's predictions are bit-identical to a cold
//!    registry-free baseline, so evict-then-reroute changes nothing.
//!
//! Prints one greppable `[multizoo]` summary line and exits nonzero on any
//! violation. Respects `TG_SEED`, `TG_ARTIFACT_DIR`,
//! `TG_REGISTRY_MAX_ZOOS` / `TG_REGISTRY_MAX_BYTES`.
//!
//! [`ZooRegistry`]: transfergraph::ZooRegistry

#![allow(
    clippy::unwrap_used,
    reason = "experiment binary: a failed setup step aborts the run loudly"
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tg_bench::{registry, seed_from_env, summaries_enabled};
use tg_zoo::{Modality, ModelZoo, ZooConfig};
use transfergraph::{evaluate, EvalOptions, Strategy, Workbench, REGISTRY_MAX_ZOOS_ENV};

/// Evaluation rounds; each round queues one job per configuration.
const ROUNDS: usize = 4;
/// Concurrent workers draining the job queue.
const WORKERS: usize = 4;

/// Three structurally distinct small zoos: different seeds *and* different
/// model counts, so a mis-routed job is detectable from the shape of its
/// outcome, not just the fingerprint.
fn configs(seed: u64) -> Vec<ZooConfig> {
    (0..3u64)
        .map(|i| {
            let mut c = ZooConfig::small(seed + i);
            c.n_image_models += 4 * i as usize;
            c
        })
        .collect()
}

fn main() {
    // Guarantee the memory tier is tighter than the config count unless the
    // caller chose a bound; this must happen before first registry() touch.
    if std::env::var_os(REGISTRY_MAX_ZOOS_ENV).is_none() {
        std::env::set_var(REGISTRY_MAX_ZOOS_ENV, "2");
    }
    let seed = seed_from_env();
    let configs = configs(seed);
    let strategy = Strategy::lr_baseline();
    let opts = EvalOptions::default();

    // Cold registry-free baselines: one (target, predictions) per config.
    let baselines: Vec<(tg_zoo::DatasetId, Vec<f64>, usize)> = configs
        .iter()
        .map(|c| {
            let zoo = ModelZoo::build(c);
            let target = zoo.targets_of(Modality::Image)[0];
            let outcome = evaluate(&Workbench::new(&zoo), &strategy, target, &opts);
            (
                target,
                outcome.predictions,
                zoo.models_of(Modality::Image).len(),
            )
        })
        .collect();

    // Round-robin job queue, each config twice per round (0,0,1,1,2,2,...):
    // back-to-back repeats produce route hits, while cycling three configs
    // through two resident slots forces LRU evictions.
    let jobs: Mutex<Vec<usize>> = Mutex::new(
        (0..ROUNDS)
            .flat_map(|_| (0..configs.len()).flat_map(|i| [i, i]))
            .rev()
            .collect(),
    );
    let wrong_routes = AtomicUsize::new(0);
    let impure = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| loop {
                let Some(i) = jobs.lock().unwrap().pop() else {
                    return;
                };
                let config = &configs[i];
                let handle = registry().get_or_build(config);
                let (target, baseline, n_models) = &baselines[i];
                if handle.fingerprint() != config.fingerprint()
                    || handle.zoo().models_of(Modality::Image).len() != *n_models
                {
                    wrong_routes.fetch_add(1, Ordering::Relaxed);
                    done.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let outcome = evaluate(handle.workbench(), &strategy, *target, &opts);
                if outcome.predictions != *baseline {
                    impure.fetch_add(1, Ordering::Relaxed);
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
    });

    if let Ok(stats) = registry().persist_all() {
        if stats.entries > 0 && summaries_enabled() {
            eprintln!(
                "[multizoo] persisted {} entries ({}B) from resident handles",
                stats.entries, stats.bytes
            );
        }
    }

    let stats = registry().stats();
    let wrong = wrong_routes.load(Ordering::Relaxed);
    let impure = impure.load(Ordering::Relaxed);
    let bound = registry().options().max_zoos;
    let need_eviction = bound.is_some_and(|m| m < configs.len());
    println!(
        "[multizoo] jobs={} configs={} wrong_routes={wrong} impure={impure} | {}",
        done.load(Ordering::Relaxed),
        configs.len(),
        stats.render(),
    );

    let mut failed = false;
    if wrong > 0 {
        eprintln!("[multizoo] FAIL: {wrong} job(s) routed to the wrong zoo");
        failed = true;
    }
    if impure > 0 {
        eprintln!("[multizoo] FAIL: {impure} job(s) diverged from the cold baseline");
        failed = true;
    }
    if need_eviction && stats.evictions == 0 {
        eprintln!(
            "[multizoo] FAIL: bound {:?} < {} configs but no evictions",
            bound,
            configs.len()
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
