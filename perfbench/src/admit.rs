//! `admit`: inductive dataset admission on `ZooConfig::small(seed)`.
//!
//! Setup trains the minibatch GraphSAGE embedder through
//! `ZooHandle::inductive_embedder`; this is the only place the `tg-graph`
//! neighbour sampler and the `tg-autograd` tape run, so their cost shows in
//! `setup_s`. The timed phase admits image datasets in a seed-shuffled
//! cyclic order through `ZooHandle::admit_dataset` from two closed-loop
//! client threads; each admission rebuilds the modality graph from `Workbench`
//! cache hits and embeds one node.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tg_rng::Rng;
use tg_zoo::{DatasetId, Modality, ZooConfig};
use transfergraph::{InductiveConfig, InductiveEmbedder, RegistryOptions, ZooHandle, ZooRegistry};

use crate::answers::{bits, Answers};
use crate::report::{ratio, time_setup, zoo_build_us, Layers, Outcome, Slots};
use crate::stats::median;
use crate::trace::{merge, root_ns, Span, Tracer};
use crate::{alloc, Traced};

/// Closed-loop clients, one per core of the 2-vCPU reference host.
const CLIENTS: usize = 2;

pub struct Size {
    pub admissions: usize,
    /// Setup repetitions before the timed phase, and again after it.
    pub setups: usize,
    /// Flips one bit of an expected embedding, to prove the check fires.
    pub corrupt: bool,
}

impl Size {
    /// About 2,000 admissions per second on the reference host.
    pub fn for_seconds(seconds: u64) -> Size {
        Size {
            admissions: seconds as usize * 2000,
            setups: 2,
            corrupt: false,
        }
    }
}

struct Live {
    handle: Arc<ZooHandle>,
    embedder: Arc<InductiveEmbedder>,
    train: Duration,
    sampler: (u64, u64),
    peak_tape: u64,
}

fn setup(seed: u64, cfg: &InductiveConfig) -> Live {
    let registry = ZooRegistry::new(RegistryOptions::default());
    let handle = registry.get_or_build(&ZooConfig::small(seed));
    tg_autograd::reset_global_peak_tape_bytes();
    let sampled = tg_graph::sampler_counters();
    let start = Instant::now();
    let embedder = handle.inductive_embedder(Modality::Image, cfg);
    let train = start.elapsed();
    let after = tg_graph::sampler_counters();
    Live {
        handle,
        embedder,
        train,
        sampler: (after.0 - sampled.0, after.1 - sampled.1),
        peak_tape: tg_autograd::global_peak_tape_bytes(),
    }
}

/// `CLIENTS` closed-loop threads admit datasets in the shared cyclic order,
/// recording each admission's latency in `slots`.
fn timed(
    live: &Live,
    order: &[DatasetId],
    cfg: &InductiveConfig,
    slots: &Slots,
    trace: bool,
) -> (Outcome, Answers<Vec<u64>>, Vec<Span>) {
    let n = slots.len();
    let next = AtomicUsize::new(0);
    let merged = Mutex::new((Answers::new(order.len()), Vec::new()));
    let epoch = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut tracer = Tracer::new(epoch, trace);
                let mut answers = Answers::new(order.len());
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= n {
                        break;
                    }
                    let d = order[k % order.len()];
                    let start = Instant::now();
                    let embedding = tracer.span("zoo_handle.admit_dataset", k as u64, |_| {
                        live.handle.admit_dataset(d, cfg)
                    });
                    slots.record(k, start.elapsed());
                    answers.record(k % order.len(), bits(&embedding));
                }
                let mut all = merged.lock().expect("a client thread panicked");
                all.0.merge(answers);
                merge(&mut all.1, tracer.into_spans());
            });
        }
    });
    let wall = epoch.elapsed();
    let (answers, spans) = merged.into_inner().expect("a client thread panicked");
    let out = Outcome {
        wall,
        attempted: n as u64,
        ..Outcome::default()
    };
    (out, answers, spans)
}

/// Each admitted embedding must equal, bit for bit, what
/// `InductiveEmbedder::embed_dataset` gives on the same embedder.
fn check(
    live: &Live,
    order: &[DatasetId],
    answers: &Answers<Vec<u64>>,
    corrupt: bool,
    out: &mut Outcome,
) {
    let mut bad = 0;
    for key in answers.keys() {
        let mut expected = bits(
            &live
                .embedder
                .embed_dataset(live.handle.workbench(), order[key]),
        );
        if corrupt && key == 0 {
            expected[0] ^= 1;
        }
        bad += answers.mismatches(key, &expected);
    }
    out.fail(
        bad,
        format!("{bad} admissions differ from embed_dataset on the same embedder"),
    );
}

pub fn run(seed: u64, size: &Size, trace: bool) -> (Outcome, Option<Traced>) {
    let cfg = InductiveConfig::default();
    let slots = Slots::new(size.admissions);
    alloc::reset_peak();
    let (mut setups, mut trains) = (Vec::new(), Vec::new());
    let mut live = None;
    for _ in 0..size.setups {
        drop(live.take());
        let fresh = time_setup(&mut setups, || setup(seed, &cfg));
        trains.push(fresh.train.as_secs_f64() * 1e3);
        live = Some(fresh);
    }
    let live = live.expect("at least one setup");
    let mut order = live.handle.zoo().datasets_of(Modality::Image);
    Rng::seed_from_u64(seed ^ 0x0061_646d_6974).shuffle(&mut order);

    let (mut out, answers, _) = timed(&live, &order, &cfg, &slots, false);
    out.peak_heap = alloc::peak_bytes();
    out.latencies = slots.take();
    check(&live, &order, &answers, size.corrupt, &mut out);
    for _ in 0..size.setups {
        let again = time_setup(&mut setups, || setup(seed, &cfg));
        trains.push(again.train.as_secs_f64() * 1e3);
    }
    out.setups = setups;
    trains.sort_by(f64::total_cmp);
    let train_ms = median(&trains).unwrap_or(0.0);
    if !trace {
        return (out, None);
    }

    let before = live.handle.workbench().stats();
    alloc::reset_peak();
    let (mut t_out, answers, spans) = timed(&live, &order, &cfg, &slots, true);
    t_out.peak_heap = alloc::peak_bytes();
    t_out.latencies = slots.take();
    let during = live.handle.workbench().stats().delta_since(&before);
    check(&live, &order, &answers, size.corrupt, &mut t_out);

    let mut probe = Tracer::new(Instant::now(), true);
    let build_us = zoo_build_us(&ZooConfig::small(seed), &mut probe);

    let admit_us =
        t_out.latencies.iter().sum::<Duration>().as_secs_f64() * 1e6 / size.admissions as f64;
    let mut layers = Layers::new();
    for (name, value) in [
        ("inductive.train_ms", train_ms),
        ("graph.sampler_blocks", live.sampler.0 as f64),
        ("graph.sampler_edges", live.sampler.1 as f64),
        ("autograd.peak_tape_mb", live.peak_tape as f64 / 1e6),
        ("inductive.admit_us", admit_us),
        (
            "artifacts.logme_hit_ratio",
            ratio(during.logme.0, during.logme.1),
        ),
        (
            "artifacts.sim_hit_ratio",
            ratio(during.similarity.0, during.similarity.1),
        ),
        ("zoo.build_us", build_us),
        (
            "trace.unattributed_pct",
            100.0
                * (1.0 - root_ns(&spans) as f64 / (t_out.wall.as_nanos() as f64 * CLIENTS as f64)),
        ),
    ] {
        layers.insert(name, value);
    }
    let mut all = spans;
    merge(&mut all, probe.into_spans());
    let notes = vec![format!(
        "training: median {train_ms:.1} ms over {} setups; last setup {} sampler blocks / {} edges, peak tape {:.2} MB",
        trains.len(),
        live.sampler.0,
        live.sampler.1,
        live.peak_tape as f64 / 1e6
    )];
    (
        out,
        Some(Traced {
            timed: t_out,
            layers,
            spans: all,
            notes,
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_passes_and_its_check_fires_on_a_corrupted_expected_value() {
        let tiny = |corrupt| Size {
            admissions: 100,
            setups: 1,
            corrupt,
        };
        let (out, traced) = run(7, &tiny(false), true);
        let traced = traced.expect("a traced run");
        assert_eq!(
            (out.attempted, out.failed, traced.timed.failed),
            (100, 0, 0)
        );
        assert!(traced.layers["graph.sampler_edges"] > 0.0);
        let (out, _) = run(7, &tiny(true), false);
        assert!(
            out.failed > 0 && out.failures[0].contains("embed_dataset"),
            "{:?}",
            out.failures
        );
    }
}
