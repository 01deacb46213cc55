//! What a workload run produced, the metrics derived from it, and the
//! table of per-layer metrics with the end-to-end metric each should move.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tg_zoo::{ModelZoo, ZooConfig};
use transfergraph::{Stage, WorkbenchStats};

use crate::stats::{median, sorted, tail_p99};
use crate::trace::Tracer;

/// One phase of measured work: the setups that preceded it, its closed-loop
/// per-op latencies, and the failures found by the output checks.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall-clock of each setup repetition: those before the timed phase
    /// (the last of which fed it), then those after it.
    pub setups: Vec<Duration>,
    /// Timed-phase wall-clock.
    pub wall: Duration,
    /// One latency per completed operation.
    pub latencies: Vec<Duration>,
    /// Peak live heap over the setups and the timed phase, in bytes.
    pub peak_heap: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reason for each kind of failure found.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, count: u64, why: String) {
        if count > 0 {
            self.failed += count;
            self.failures.push(why);
        }
    }
}

/// The end-to-end metrics of one outcome.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub p50_ms: f64,
    /// The p99, or `None` when fewer than ten samples lie beyond it.
    pub tail_ms: Option<f64>,
    pub peak_heap_mb: f64,
    pub samples: usize,
}

impl EndToEnd {
    pub fn of(outcome: &Outcome) -> EndToEnd {
        let ms = sorted(
            outcome
                .latencies
                .iter()
                .map(|d| d.as_secs_f64() * 1e3)
                .collect(),
        );
        let setups = sorted(outcome.setups.iter().map(Duration::as_secs_f64).collect());
        EndToEnd {
            setup_s: median(&setups).unwrap_or(0.0),
            ops_per_s: ms.len() as f64 / outcome.wall.as_secs_f64().max(1e-9),
            p50_ms: median(&ms).unwrap_or(0.0),
            tail_ms: tail_p99(&ms),
            peak_heap_mb: outcome.peak_heap as f64 / 1e6,
            samples: ms.len(),
        }
    }

    /// `(name, value, unit)` of the gated metrics, in the order
    /// BENCHMARK.json lists them. `tail_ms` is printed but not gated: its
    /// run-to-run spread on `serve_mix` exceeds the largest allowed bound.
    pub fn metrics(&self) -> [(&'static str, f64, &'static str); 4] {
        [
            ("setup_s", self.setup_s, "s"),
            ("ops_per_s", self.ops_per_s, "1/s"),
            ("p50_ms", self.p50_ms, "ms"),
            ("peak_heap_mb", self.peak_heap_mb, "MB"),
        ]
    }
}

/// Per-layer readings of one traced run, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One per-layer metric: name, unit, which direction is better, and the
/// end-to-end metric and workload(s) it should move.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
    pub on: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
        on,
    }
}

/// Every per-layer metric a traced run prints, in BENCHMARK.json order.
/// A workload that does not exercise a layer reports it as 0 ("n/a").
pub const LAYER_METRICS: &[LayerMetric] = &[
    m("serve.parse_us", "us", "lower", "p50_ms", "serve_mix"),
    m("serve.write_us", "us", "lower", "p50_ms", "serve_mix"),
    m(
        "serve.transport_us",
        "us",
        "lower",
        "p50_ms, ops_per_s",
        "serve_mix",
    ),
    m(
        "serve.shed",
        "count",
        "lower",
        "failed ops (must stay 0)",
        "serve_mix",
    ),
    m(
        "serve.client_errors",
        "count",
        "lower",
        "failed ops (must stay 0)",
        "serve_mix",
    ),
    m("json.parse_us", "us", "lower", "p50_ms", "serve_mix"),
    m(
        "json.render_us",
        "us",
        "lower",
        "p50_ms (/score), tail_ms (/recommend)",
        "serve_mix",
    ),
    m("registry.route_us", "us", "lower", "p50_ms", "serve_mix"),
    m(
        "registry.hit_ratio",
        "ratio",
        "higher",
        "p50_ms",
        "serve_mix",
    ),
    m(
        "registry.builds_per_op",
        "count/op",
        "lower",
        "ops_per_s",
        "zoo_churn (traced with serve_mix)",
    ),
    m(
        "registry.evictions_per_op",
        "count/op",
        "lower",
        "ops_per_s",
        "zoo_churn (traced with serve_mix)",
    ),
    m(
        "registry.resident_mb",
        "MB",
        "lower",
        "peak_heap_mb",
        "serve_mix",
    ),
    m(
        "coalesce.evaluate_us",
        "us",
        "lower",
        "tail_ms",
        "serve_mix",
    ),
    m(
        "coalesce.follower_ratio",
        "ratio",
        "higher",
        "tail_ms",
        "serve_mix",
    ),
    m(
        "zoo.build_us",
        "us",
        "lower",
        "p50_ms; setup_s",
        "zoo_churn (traced with serve_mix); all",
    ),
    m(
        "store.warm_us",
        "us",
        "lower",
        "p50_ms",
        "zoo_churn (traced with serve_mix)",
    ),
    m(
        "store.bytes_read",
        "B/op",
        "lower",
        "p50_ms",
        "zoo_churn (traced with serve_mix)",
    ),
    m(
        "store.disk_hit_ratio",
        "ratio",
        "higher",
        "p50_ms",
        "zoo_churn (traced with serve_mix)",
    ),
    m(
        "store.persist_us",
        "us",
        "lower",
        "p50_ms, ops_per_s",
        "zoo_churn (traced with serve_mix)",
    ),
    m(
        "store.bytes_written",
        "B/op",
        "lower",
        "p50_ms, ops_per_s",
        "zoo_churn (traced with serve_mix)",
    ),
    m(
        "store.rejected",
        "count",
        "lower",
        "failed ops (must stay 0)",
        "zoo_churn (traced with serve_mix)",
    ),
    m(
        "artifacts.logme_hit_ratio",
        "ratio",
        "higher",
        "p50_ms (timed phase reads 1.0)",
        "serve_mix, loo_grid",
    ),
    m(
        "artifacts.sim_hit_ratio",
        "ratio",
        "higher",
        "p50_ms (timed phase reads 1.0)",
        "serve_mix, loo_grid",
    ),
    m(
        "artifacts.collection_ms",
        "ms",
        "lower",
        "setup_s",
        "serve_mix, loo_grid",
    ),
    m(
        "transfer.logme_calls",
        "count",
        "lower",
        "setup_s",
        "serve_mix, loo_grid",
    ),
    m(
        "transfer.logme_ms",
        "ms",
        "lower",
        "setup_s",
        "serve_mix, loo_grid",
    ),
    m(
        "linalg.decomp_calls.gram",
        "count",
        "lower",
        "setup_s",
        "serve_mix, loo_grid",
    ),
    m(
        "linalg.decomp_ms.gram",
        "ms",
        "lower",
        "setup_s",
        "serve_mix, loo_grid",
    ),
    m(
        "linalg.decomp_calls.svd",
        "count",
        "lower",
        "setup_s",
        "serve_mix, loo_grid",
    ),
    m(
        "linalg.decomp_ms.svd",
        "ms",
        "lower",
        "setup_s",
        "serve_mix, loo_grid",
    ),
    m(
        "evaluate.graph_learning_ms",
        "ms",
        "lower",
        "p50_ms, ops_per_s",
        "loo_grid",
    ),
    m(
        "evaluate.regression_ms",
        "ms",
        "lower",
        "p50_ms, ops_per_s; tail_ms",
        "loo_grid; serve_mix",
    ),
    m(
        "pipeline.graph_build_ms",
        "ms",
        "lower",
        "p50_ms",
        "loo_grid",
    ),
    m(
        "embed.learner_ms",
        "ms",
        "lower",
        "p50_ms, ops_per_s",
        "loo_grid",
    ),
    m(
        "runner.busy_ratio",
        "ratio",
        "higher",
        "ops_per_s",
        "loo_grid",
    ),
    m(
        "inductive.train_ms",
        "ms",
        "lower",
        "setup_s",
        "admit (traced with loo_grid)",
    ),
    m(
        "graph.sampler_blocks",
        "count",
        "lower",
        "setup_s",
        "admit (traced with loo_grid)",
    ),
    m(
        "graph.sampler_edges",
        "count",
        "lower",
        "setup_s",
        "admit (traced with loo_grid)",
    ),
    m(
        "autograd.peak_tape_mb",
        "MB",
        "lower",
        "peak_heap_mb, setup_s",
        "admit (traced with loo_grid)",
    ),
    m(
        "inductive.admit_us",
        "us",
        "lower",
        "p50_ms, ops_per_s",
        "admit (traced with loo_grid)",
    ),
    m(
        "trace.unattributed_pct",
        "%",
        "lower",
        "(share of traced thread time outside every span)",
        "all",
    ),
    m(
        "trace.overhead_pct",
        "%",
        "lower",
        "(traced minus untraced p50_ms, as % of untraced)",
        "all",
    ),
];

/// Adds the feature-collection readings of one cold setup: collection
/// stage, LogME kernel and the decomposition arms `auto` picks between.
pub fn setup_layers(stats: &WorkbenchStats, layers: &mut Layers) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut add = |name: &'static str, value: f64| *layers.entry(name).or_insert(0.0) += value;
    add(
        "artifacts.collection_ms",
        ms(stats.stage(Stage::FeatureCollection)),
    );
    add("transfer.logme_calls", stats.logme_kernel.0 as f64);
    add("transfer.logme_ms", ms(stats.logme_kernel.1));
    for arm in tg_transfer::DecompArm::ALL {
        let (calls, took) = stats.decomp[arm.index()];
        let (calls_name, ms_name) = match arm.name() {
            "gram" => ("linalg.decomp_calls.gram", "linalg.decomp_ms.gram"),
            "svd" => ("linalg.decomp_calls.svd", "linalg.decomp_ms.svd"),
            _ => continue,
        };
        add(calls_name, calls as f64);
        add(ms_name, ms(took));
    }
}

/// Wall-clock of one call.
/// One latency slot per operation of a timed phase. Allocated before the
/// heap's peak is reset, so the benchmark's own per-op bookkeeping stays out
/// of `peak_heap_mb`; clients write slot `i` for op `i` and allocate
/// nothing. A slot left empty marks an op that did not complete.
pub struct Slots(Vec<AtomicU64>);

impl Slots {
    const EMPTY: u64 = u64::MAX;

    pub fn new(ops: usize) -> Slots {
        Slots((0..ops).map(|_| AtomicU64::new(Self::EMPTY)).collect())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn record(&self, op: usize, took: Duration) {
        let ns = u64::try_from(took.as_nanos()).unwrap_or(Self::EMPTY - 1);
        self.0[op].store(ns, Ordering::Relaxed);
    }

    /// The recorded latencies in op order, leaving every slot empty.
    pub fn take(&self) -> Vec<Duration> {
        self.0
            .iter()
            .map(|slot| slot.swap(Self::EMPTY, Ordering::Relaxed))
            .filter(|&ns| ns != Self::EMPTY)
            .map(Duration::from_nanos)
            .collect()
    }
}

/// Runs one setup repetition, appending its wall-clock to `setups`.
/// Workloads repeat their setup before the timed phase and again after
/// it, so the median `setup_s` samples the host at both ends of the run
/// rather than at one instant.
pub fn time_setup<T>(setups: &mut Vec<Duration>, setup: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let built = setup();
    setups.push(start.elapsed());
    built
}

pub fn timed<R>(f: impl FnOnce() -> R) -> Duration {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed()
}

/// Median of `reps` timings, in microseconds.
pub fn median_us(reps: usize, mut f: impl FnMut() -> Duration) -> f64 {
    let us = sorted((0..reps).map(|_| f().as_secs_f64() * 1e6).collect());
    median(&us).unwrap_or(0.0)
}

/// Median wall-clock of `ModelZoo::build(config)` over five builds, in
/// microseconds, each in a `zoo.build` span.
pub fn zoo_build_us(config: &ZooConfig, tracer: &mut Tracer) -> f64 {
    median_us(5, || {
        timed(|| tracer.span("zoo.build", 0, |_| ModelZoo::build(config)))
    })
}

/// `hits / (hits + misses)`, or 1.0 when nothing was looked up (the
/// convention of `WorkbenchStats::hit_rate`).
pub fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        1.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_skip_ops_that_did_not_complete_and_empty_on_take() {
        let slots = Slots::new(4);
        slots.record(2, Duration::from_nanos(7));
        slots.record(0, Duration::from_micros(3));
        assert_eq!(
            slots.take(),
            [Duration::from_micros(3), Duration::from_nanos(7)]
        );
        assert!(slots.take().is_empty());
    }

    #[test]
    fn end_to_end_omits_the_tail_without_ten_samples_beyond_p99() {
        let outcome = Outcome {
            setups: vec![
                Duration::from_secs(3),
                Duration::from_secs(1),
                Duration::from_secs(2),
            ],
            wall: Duration::from_secs(4),
            latencies: (1..=8).map(Duration::from_millis).collect(),
            peak_heap: 5_000_000,
            ..Outcome::default()
        };
        let e = EndToEnd::of(&outcome);
        assert_eq!(e.setup_s, 2.0);
        assert_eq!(e.ops_per_s, 2.0);
        assert_eq!(e.p50_ms, 4.5);
        assert_eq!(e.tail_ms, None);
        assert_eq!(e.peak_heap_mb, 5.0);
        assert_eq!(e.samples, 8);
    }

    #[test]
    fn end_to_end_reports_p99_with_ten_samples_beyond() {
        let outcome = Outcome {
            wall: Duration::from_secs(1),
            latencies: (1..=1000).map(Duration::from_millis).collect(),
            ..Outcome::default()
        };
        let e = EndToEnd::of(&outcome);
        assert_eq!(e.tail_ms, Some(990.0));
    }

    #[test]
    fn layer_table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let json = tg_json::JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            json.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let ours: Vec<_> = LAYER_METRICS
            .iter()
            .map(|l| (l.name.to_string(), l.unit.to_string(), l.better.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), ours);
        let e2e: Vec<_> = EndToEnd::of(&Outcome::default())
            .metrics()
            .iter()
            .map(|&(n, _, u)| (n.to_string(), u.to_string()))
            .collect();
        let json_e2e: Vec<_> = listed("end_to_end")
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect();
        assert_eq!(json_e2e, e2e);
    }
}
