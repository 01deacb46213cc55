//! Parallel leave-one-out evaluation runner.
//!
//! The paper's experiment grids (Table 2, Figs. 6–13) evaluate many
//! (strategy, target) combinations that are mutually independent: each
//! derives its RNG stream from `(seed, target, strategy label)` alone
//! (`evaluate::eval_rng`), so execution order cannot influence any
//! result. The runner exploits that by draining a job list over a scoped
//! thread pool sharing one [`Workbench`] — no per-thread cache clones —
//! and returning outcomes in job order, bit-identical to a sequential loop
//! of [`evaluate`] calls.
//!
//! Each run also reports observability data: wall-clock split by pipeline
//! stage (feature collection / graph learning / regression) and per-cache
//! hit rates over the run ([`RunSummary`]).

#![expect(
    clippy::disallowed_methods,
    reason = "run summaries report wall time; it never feeds back into predictions"
)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::artifacts::{Workbench, WorkbenchStats};
use crate::config::EvalOptions;
use crate::evaluate::{evaluate, EvalOutcome};
use crate::registry::RegistryStats;
use crate::strategy::Strategy;
use tg_sync::unpoisoned;
use tg_zoo::DatasetId;

/// One independent unit of runner work.
#[derive(Clone, Debug)]
pub struct EvalJob {
    /// Strategy to evaluate.
    pub strategy: Strategy,
    /// Target dataset (leave-one-out).
    pub target: DatasetId,
}

/// Outcomes plus run-level observability.
#[derive(Debug)]
pub struct RunSummary {
    /// One outcome per job, in the order the jobs were given (independent
    /// of which worker finished first).
    pub outcomes: Vec<EvalOutcome>,
    /// Worker threads used.
    pub workers: usize,
    /// End-to-end wall-clock of the run.
    pub wall_time: Duration,
    /// Cache and stage-timer movement during this run (a delta, so a warm
    /// workbench reused across runs reports per-run numbers). Stage times
    /// are summed across workers and may exceed `wall_time` under
    /// parallelism.
    pub stats: WorkbenchStats,
    /// Snapshot of the serving registry's telemetry, when the run went
    /// through a [`ZooRegistry`](crate::registry::ZooRegistry) (the bench
    /// harness fills this in); `None` for registry-free runs.
    pub registry: Option<RegistryStats>,
}

impl RunSummary {
    /// Multi-line human-readable report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} evaluations on {} worker(s) in {:.3?}\n{}",
            self.outcomes.len(),
            self.workers,
            self.wall_time,
            self.stats.render(),
        );
        if let Some(registry) = &self.registry {
            out.push('\n');
            out.push_str(&registry.render());
        }
        out
    }
}

/// Default worker count: one per available core, capped by the job count.
pub fn default_workers(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(jobs.max(1))
}

/// Drains `count` independent work items across `workers` scoped threads,
/// each item claimed from an atomic counter so a slow item never stalls the
/// rest behind a static partition. `workers <= 1` (or a single item)
/// degenerates to a sequential loop.
///
/// Items must be order-insensitive: the runner writes results into
/// per-index slots and `Workbench::warm_logme` fills a deterministic cache,
/// so both are safe under any interleaving.
pub fn drain_indexed(count: usize, workers: usize, work: impl Fn(usize) + Sync) {
    let workers = workers.clamp(1, count.max(1));
    if workers == 1 {
        for i in 0..count {
            work(i);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                work(i);
            });
        }
    });
}

/// Runs every job against the shared workbench, in parallel, with
/// [`default_workers`] threads.
pub fn run_jobs(wb: &Workbench, jobs: &[EvalJob], opts: &EvalOptions) -> RunSummary {
    run_jobs_on(wb, jobs, opts, default_workers(jobs.len()))
}

/// [`run_jobs`] with an explicit worker count (`workers == 1` degenerates
/// to a sequential loop with the same result ordering).
pub fn run_jobs_on(
    wb: &Workbench,
    jobs: &[EvalJob],
    opts: &EvalOptions,
    workers: usize,
) -> RunSummary {
    let workers = workers.clamp(1, jobs.len().max(1));
    let before = wb.stats();
    let start = Instant::now();
    #[expect(
        clippy::expect_used,
        reason = "the claim counter hands out every index in 0..jobs.len() before any worker exits the scope"
    )]
    let outcomes = if workers == 1 {
        jobs.iter()
            .map(|j| evaluate(wb, &j.strategy, j.target, opts))
            .collect()
    } else {
        let slots: Mutex<Vec<Option<EvalOutcome>>> = Mutex::new(vec![None; jobs.len()]);
        drain_indexed(jobs.len(), workers, |i| {
            let job = &jobs[i];
            let out = evaluate(wb, &job.strategy, job.target, opts);
            unpoisoned(slots.lock())[i] = Some(out);
        });
        unpoisoned(slots.into_inner())
            .into_iter()
            .map(|o| o.expect("every job index was claimed"))
            .collect()
    };
    RunSummary {
        outcomes,
        workers,
        wall_time: start.elapsed(),
        stats: wb.stats().delta_since(&before),
        registry: None,
    }
}

/// Convenience: one strategy across many targets (the shape of every
/// per-figure experiment loop).
pub fn run_over_targets(
    wb: &Workbench,
    strategy: &Strategy,
    targets: &[DatasetId],
    opts: &EvalOptions,
) -> RunSummary {
    let jobs: Vec<EvalJob> = targets
        .iter()
        .map(|&target| EvalJob {
            strategy: strategy.clone(),
            target,
        })
        .collect();
    run_jobs(wb, &jobs, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_zoo::{Modality, ModelZoo, ZooConfig};

    fn jobs_for(zoo: &ModelZoo) -> Vec<EvalJob> {
        zoo.targets_of(Modality::Image)
            .into_iter()
            .flat_map(|target| {
                [Strategy::Random, Strategy::lr_baseline()]
                    .into_iter()
                    .map(move |strategy| EvalJob { strategy, target })
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let zoo = ModelZoo::build(&ZooConfig::small(21));
        let jobs = jobs_for(&zoo);
        let opts = EvalOptions::default();
        let sequential = run_jobs_on(&Workbench::new(&zoo), &jobs, &opts, 1);
        let parallel = run_jobs_on(&Workbench::new(&zoo), &jobs, &opts, 4);
        assert_eq!(parallel.workers, 4);
        for (s, p) in sequential.outcomes.iter().zip(&parallel.outcomes) {
            assert_eq!(s.dataset, p.dataset);
            assert_eq!(s.strategy, p.strategy);
            assert_eq!(
                s.predictions, p.predictions,
                "{}@{:?}",
                s.strategy, s.dataset
            );
            assert_eq!(s.pearson, p.pearson);
        }
    }

    #[test]
    fn outcomes_keep_job_order() {
        let zoo = ModelZoo::build(&ZooConfig::small(22));
        let jobs = jobs_for(&zoo);
        let summary = run_jobs(&Workbench::new(&zoo), &jobs, &EvalOptions::default());
        assert_eq!(summary.outcomes.len(), jobs.len());
        for (job, out) in jobs.iter().zip(&summary.outcomes) {
            assert_eq!(job.target, out.dataset);
            assert_eq!(job.strategy.label(), out.strategy);
        }
    }

    #[test]
    fn summary_reports_cache_and_worker_counts() {
        let zoo = ModelZoo::build(&ZooConfig::small(23));
        let wb = Workbench::new(&zoo);
        let targets = zoo.targets_of(Modality::Image);
        let first = run_over_targets(&wb, &Strategy::LogMe, &targets, &EvalOptions::default());
        // A cold LogMe run is all misses on the logme cache.
        assert_eq!(first.stats.logme.0, 0);
        assert!(first.stats.logme.1 > 0);
        // Re-running on the warm workbench is all hits — and the delta
        // accounting keeps the first run's misses out of the second report.
        let second = run_over_targets(&wb, &Strategy::LogMe, &targets, &EvalOptions::default());
        assert_eq!(second.stats.logme.1, 0);
        assert_eq!(second.stats.hit_rate(), 1.0);
        assert!(second.render().contains("worker(s)"));
    }

    #[test]
    fn drain_indexed_visits_every_index_exactly_once() {
        use std::sync::atomic::AtomicU32;
        for workers in [1, 4, 16] {
            let counts: Vec<AtomicU32> = (0..53).map(|_| AtomicU32::new(0)).collect();
            drain_indexed(counts.len(), workers, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
        // Zero items: must not spin or panic.
        drain_indexed(0, 8, |_| unreachable!());
    }

    #[test]
    fn empty_job_list_is_fine() {
        let zoo = ModelZoo::build(&ZooConfig::small(24));
        let summary = run_jobs(&Workbench::new(&zoo), &[], &EvalOptions::default());
        assert!(summary.outcomes.is_empty());
        assert_eq!(summary.workers, 1);
    }
}
