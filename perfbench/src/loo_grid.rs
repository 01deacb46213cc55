//! `loo_grid`: leave-one-out evaluation of the paper's headline strategy,
//! `TG:XGB,N2V+,all`, over the first eight reported image targets of
//! `ZooConfig::small(seed)` (`tg_bench::reported_targets`).
//!
//! Two closed-loop client threads each make one `runner::run_jobs_on`
//! call per job (one worker each), so every evaluation's latency is
//! observable. About 80% of an evaluation is graph learning (`tg-embed`
//! over `tg-graph`) and 20% XGB regression (`tg-predict`); the feature
//! caches are filled during setup, so serving, registry, disk and LogME do
//! nothing in the timed phase.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tg_bench::reported_targets;
use tg_graph::{build_graph, GraphConfig};
use tg_rng::Rng;
use tg_zoo::{Modality, ModelZoo, ZooConfig};
use transfergraph::pipeline::build_loo_graph_inputs;
use transfergraph::runner::run_jobs_on;
use transfergraph::{ArtifactStore, EvalJob, EvalOptions, Stage, Strategy, Workbench};

use crate::answers::{bits, Answers};
use crate::report::{ratio, setup_layers, time_setup, zoo_build_us, Layers, Outcome};
use crate::trace::{merge, root_ns, Span, Tracer};
use crate::{alloc, Traced};

/// Targets in the grid, taken from the reported image targets (those
/// whose fine-tune accuracy varies, most varied first).
const TARGETS: usize = 8;
/// Closed-loop clients, one per core of the 2-vCPU reference host.
const CLIENTS: usize = 2;

pub struct Size {
    /// Evaluations in the timed phase (whole passes over the targets).
    pub evals: usize,
    /// Setup repetitions before the timed phase, and again after it.
    pub setups: usize,
    /// Flips one bit of the expected answer, to prove the check fires.
    pub corrupt: bool,
}

impl Size {
    /// About 0.75 evaluations per second on the reference host: one pass
    /// over the eight targets per ten seconds, and never fewer than two.
    /// `peak_heap_mb` is set by the largest overlap of the two clients'
    /// evaluations; one pass gives too few overlaps to reach it reliably.
    pub fn for_seconds(seconds: u64) -> Size {
        let passes = ((seconds as f64 * 0.75 / TARGETS as f64).round() as usize).max(2);
        Size {
            evals: passes * TARGETS,
            setups: 6,
            corrupt: false,
        }
    }
}

/// Builds the zoo and fills every feature cache an evaluation reads,
/// through the same `Workbench` calls `evaluate` makes.
fn setup(seed: u64, opts: &EvalOptions) -> Workbench<'static> {
    let config = ZooConfig::small(seed);
    let zoo = Arc::new(ModelZoo::build(&config));
    let wb = Workbench::from_parts(
        Arc::clone(&zoo),
        Arc::new(ArtifactStore::new(config.fingerprint())),
    );
    for t in zoo.targets_of(Modality::Image) {
        for m in zoo.models_of(Modality::Image) {
            wb.logme(m, t);
        }
    }
    let datasets = zoo.datasets_of(Modality::Image);
    for (i, &a) in datasets.iter().enumerate() {
        for &b in &datasets[i + 1..] {
            wb.similarity(a, b, opts.representation);
        }
    }
    wb
}

type Answer = (Vec<u64>, Option<u64>);

struct Pass {
    latencies: Vec<Duration>,
    wall: Duration,
    answers: Answers<Answer>,
    spans: Vec<Span>,
}

fn timed(wb: &Workbench, jobs: &[EvalJob], opts: &EvalOptions, evals: usize, trace: bool) -> Pass {
    let next = AtomicUsize::new(0);
    let merged = Mutex::new((Vec::new(), Answers::new(jobs.len()), Vec::new()));
    let epoch = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut tracer = Tracer::new(epoch, trace);
                let mut latencies = Vec::new();
                let mut answers = Answers::new(jobs.len());
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= evals {
                        break;
                    }
                    let job = std::slice::from_ref(&jobs[k % jobs.len()]);
                    let start = Instant::now();
                    let summary = tracer.span("runner.run_jobs_on", k as u64, |_| {
                        run_jobs_on(wb, job, opts, 1)
                    });
                    latencies.push(start.elapsed());
                    let out = &summary.outcomes[0];
                    answers.record(
                        k % jobs.len(),
                        (bits(&out.predictions), out.pearson.map(f64::to_bits)),
                    );
                }
                let mut all = merged.lock().expect("a client thread panicked");
                all.0.extend(latencies);
                all.1.merge(answers);
                merge(&mut all.2, tracer.into_spans());
            });
        }
    });
    let wall = epoch.elapsed();
    let (latencies, answers, spans) = merged.into_inner().expect("a client thread panicked");
    Pass {
        latencies,
        wall,
        answers,
        spans,
    }
}

/// Re-evaluates one seed-chosen job sequentially with `evaluate` and
/// requires bit-identical predictions and Pearson; every repeated
/// evaluation of a target must also agree with the others.
fn check(
    seed: u64,
    size: &Size,
    wb: &Workbench,
    jobs: &[EvalJob],
    opts: &EvalOptions,
    pass: &Pass,
    out: &mut Outcome,
) {
    let evaluated: Vec<usize> = pass.answers.keys().collect();
    let Some(&pick) =
        evaluated.get(Rng::seed_from_u64(seed ^ 0x6c6f_6f5f).index(evaluated.len().max(1)))
    else {
        return;
    };
    let direct = transfergraph::evaluate(wb, &jobs[pick].strategy, jobs[pick].target, opts);
    let mut expected: Answer = (bits(&direct.predictions), direct.pearson.map(f64::to_bits));
    if size.corrupt {
        expected.0[0] ^= 1;
    }
    out.fail(
        pass.answers.mismatches(pick, &expected),
        format!("job {pick}: run_jobs_on predictions differ from a sequential evaluate"),
    );
    for key in pass.answers.keys() {
        let seen = pass.answers.seen(key);
        let total: u64 = seen.iter().map(|(_, c)| c).sum();
        let agreeing = seen.iter().map(|(_, c)| *c).max().unwrap_or(0);
        out.fail(
            total - agreeing,
            format!("job {key}: repeated evaluations disagree"),
        );
    }
}

pub fn run(seed: u64, size: &Size, trace: bool) -> (Outcome, Option<Traced>) {
    let opts = EvalOptions::default();
    alloc::reset_peak();
    let mut out = Outcome::default();
    let mut wb = None;
    for _ in 0..size.setups {
        drop(wb.take());
        wb = Some(time_setup(&mut out.setups, || setup(seed, &opts)));
    }
    let wb = wb.expect("at least one setup");
    let setup_stats = wb.stats();
    let jobs: Vec<EvalJob> = reported_targets(wb.zoo(), Modality::Image)
        .into_iter()
        .take(TARGETS)
        .map(|target| EvalJob {
            strategy: Strategy::transfer_graph_default(),
            target,
        })
        .collect();

    let pass = timed(&wb, &jobs, &opts, size.evals, false);
    out.peak_heap = alloc::peak_bytes();
    out.wall = pass.wall;
    out.attempted = size.evals as u64;
    out.latencies = pass.latencies.clone();
    out.fail(
        (size.evals - pass.latencies.len()) as u64,
        "evaluations did not complete".into(),
    );
    check(seed, size, &wb, &jobs, &opts, &pass, &mut out);
    for _ in 0..size.setups {
        drop(time_setup(&mut out.setups, || setup(seed, &opts)));
    }
    if !trace {
        return (out, None);
    }

    alloc::reset_peak();
    let before = wb.stats();
    let traced = timed(&wb, &jobs, &opts, size.evals, true);
    let peak = alloc::peak_bytes();
    let during = wb.stats().delta_since(&before);
    let mut t_out = Outcome {
        setups: out.setups.clone(),
        wall: traced.wall,
        latencies: traced.latencies.clone(),
        peak_heap: peak,
        attempted: size.evals as u64,
        ..Outcome::default()
    };
    check(seed, size, &wb, &jobs, &opts, &traced, &mut t_out);

    let unattributed = 100.0
        * (1.0 - root_ns(&traced.spans) as f64 / (traced.wall.as_nanos() as f64 * CLIENTS as f64));
    let mut spans = traced.spans;
    let mut tracer = Tracer::new(Instant::now(), true);
    let zoo = wb.zoo();
    let mut build_ns = 0u128;
    for job in &jobs {
        let history = zoo
            .full_history(Modality::Image, opts.train_method)
            .excluding_dataset(job.target);
        let start = Instant::now();
        tracer.span("pipeline.build_loo_graph_inputs", 0, |t| {
            let inputs = build_loo_graph_inputs(&wb, job.target, &history, &opts);
            t.span("graph.build_graph", 0, |_| {
                build_graph(&inputs, &GraphConfig::default())
            })
        });
        build_ns += start.elapsed().as_nanos();
    }
    let build_us = zoo_build_us(&ZooConfig::small(seed), &mut tracer);
    merge(&mut spans, tracer.into_spans());

    let evals = size.evals as f64;
    let per_eval_ms = |d: Duration| d.as_secs_f64() * 1e3 / evals;
    let graph_learning_ms = per_eval_ms(during.stage(Stage::GraphLearning));
    let graph_build_ms = build_ns as f64 / 1e6 / jobs.len() as f64;
    let busy: Duration = traced.latencies.iter().sum();
    let mut layers = Layers::new();
    layers.insert("evaluate.graph_learning_ms", graph_learning_ms);
    layers.insert(
        "evaluate.regression_ms",
        per_eval_ms(during.stage(Stage::Regression)),
    );
    layers.insert("pipeline.graph_build_ms", graph_build_ms);
    layers.insert("embed.learner_ms", graph_learning_ms - graph_build_ms);
    layers.insert(
        "runner.busy_ratio",
        busy.as_secs_f64() / (traced.wall.as_secs_f64() * CLIENTS as f64),
    );
    layers.insert(
        "artifacts.logme_hit_ratio",
        ratio(during.logme.0, during.logme.1),
    );
    layers.insert(
        "artifacts.sim_hit_ratio",
        ratio(during.similarity.0, during.similarity.1),
    );
    layers.insert("zoo.build_us", build_us);
    layers.insert("trace.unattributed_pct", unattributed);
    setup_layers(&setup_stats, &mut layers);
    let stages = format!(
        "per evaluation: graph build {graph_build_ms:.1} ms (probe), learner {:.1} ms, regression {:.1} ms, \
         rest {:.1} ms (latency minus graph learning and regression)",
        graph_learning_ms - graph_build_ms,
        per_eval_ms(during.stage(Stage::Regression)),
        busy.as_secs_f64() * 1e3 / evals
            - graph_learning_ms
            - per_eval_ms(during.stage(Stage::Regression)),
    );
    (
        out,
        Some(Traced {
            timed: t_out,
            layers,
            spans,
            notes: vec![stages],
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(corrupt: bool) -> Size {
        Size {
            evals: TARGETS,
            setups: 1,
            corrupt,
        }
    }

    #[test]
    fn smoke_run_passes_and_its_check_fires_on_a_corrupted_expected_value() {
        let (out, traced) = run(5, &tiny(false), true);
        let traced = traced.expect("a traced run");
        assert_eq!((out.attempted, out.failed, traced.timed.failed), (8, 0, 0));
        assert_eq!(traced.layers["artifacts.logme_hit_ratio"], 1.0);
        let (out, traced) = run(5, &tiny(true), true);
        assert_eq!(out.failed, 1, "{:?}", out.failures);
        assert_eq!(traced.expect("a traced run").timed.failed, 1);
    }
}
