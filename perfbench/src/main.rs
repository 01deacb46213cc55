//! `perfbench` — the end-to-end and per-layer benchmark of the TransferGraph
//! reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <loo_grid|serve_mix|zoo_churn|admit> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `BENCHMARK.json` gates `loo_grid` and `serve_mix`. `zoo_churn` and
//! `admit` run the same way by hand; their run-to-run spread on the
//! reference host exceeds every allowed bound, so the traced runs of the
//! gated workloads trace them as companions (see [`companion`]).
//!
//! Every workload is a closed loop from this one process with at most two
//! threads or connections (one per core of the 2-vCPU reference host). It
//! does a fixed number of operations in a fixed order derived from
//! `--seed`, sized by `--seconds` at the reference host's nominal rate;
//! no run is time-bounded. Setup (zoo builds, cache fills, server start,
//! embedder training) runs several times before the timed phase and as
//! many times after it, and `setup_s` is the median.
//! Every output is checked against a direct computation after the timed
//! phase, and a mismatch counts as a failed operation and makes the exit
//! code nonzero.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` the run also repeats the timed phase with spans around
//! the benchmark's calls into each layer (plus an in-process replay for the
//! server workloads), reads the layers' own counters as deltas, prints
//! per-layer self times and the tracing overhead, writes the spans to
//! `.perfbench/spans/`, and the last line carries the per-layer metrics.
//! `report::LAYER_METRICS` lists which end-to-end metric and workload each
//! per-layer metric should move.

mod admit;
mod alloc;
mod answers;
mod loo_grid;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{EndToEnd, Layers, Outcome, LAYER_METRICS};
use tg_json::JsonObject;
use trace::{layer_times, Span};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The traced repetition of a workload's timed phase.
pub struct Traced {
    /// End-to-end readings of the traced pass (compared with the untraced
    /// pass for the tracing overhead) and its failed operations.
    pub timed: Outcome,
    pub layers: Layers,
    pub spans: Vec<Span>,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
}

const WORKLOADS: [&str; 4] = ["loo_grid", "serve_mix", "zoo_churn", "admit"];
const USAGE: &str = "usage: perfbench --workload <loo_grid|serve_mix|zoo_churn|admit> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?).filter(|s| (1..=600).contains(s)),
            "--trace" => trace = Some(number()?).filter(|&t| t <= 1).map(|t| t == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds must be 1..=600")?,
        trace: trace.ok_or("--trace must be 0 or 1")?,
    })
}

/// FNV-1a over the program's sources (`crates/**/*.{rs,toml}`): the record
/// of which code ran, where the checkout carries no git metadata.
fn source_digest(root: &Path) -> Option<u64> {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, files)?;
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files).ok()?;
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let bytes = std::fs::read(&path).ok()?;
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    Some(h)
}

fn commit() -> String {
    if !Path::new(".git").exists() {
        return "n/a".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("n/a".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn envelope(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# commit {} | source fnv64 {} | {} | nproc {nproc}",
        commit(),
        source_digest(Path::new(".")).map_or("n/a".into(), |h| format!("{h:016x}")),
        env!("PERFBENCH_RUSTC"),
    );
}

fn print_end_to_end(e: &EndToEnd, out: &Outcome, clients: &str) {
    let setups: Vec<String> = out
        .setups
        .iter()
        .map(|d| format!("{:.3}", d.as_secs_f64()))
        .collect();
    let tail = match e.tail_ms {
        Some(p99) => format!("{p99:>12.4} ms   p99, at least 10 samples beyond it"),
        None => format!(
            "{:>12} ms   fewer than 10 of {} samples lie beyond the p99",
            "n/a", e.samples
        ),
    };
    println!(
        "setup_s       {:>12.4} s    median of {} setups, half before and half after the timed phase [{}]",
        e.setup_s,
        setups.len(),
        setups.join(", ")
    );
    println!(
        "ops_per_s     {:>12.4} 1/s  {} ops in {:.3} s, {clients}",
        e.ops_per_s,
        e.samples,
        out.wall.as_secs_f64()
    );
    println!(
        "p50_ms        {:>12.4} ms   {} samples",
        e.p50_ms, e.samples
    );
    println!("tail_ms       {tail}; printed, not gated");
    println!(
        "peak_heap_mb  {:>12.4} MB   peak live heap over setup and timed phase, above what was live before setup",
        e.peak_heap_mb
    );
    println!("# attempted {} failed {}", out.attempted, out.failed);
    for why in &out.failures {
        println!("# FAILED: {why}");
    }
}

fn print_trace(args: &Args, untraced: &EndToEnd, traced: &Traced, layers: &Layers) {
    let t = EndToEnd::of(&traced.timed);
    println!("# tracing overhead (traced minus untraced timed phase):");
    for (name, u, v) in [
        ("ops_per_s", untraced.ops_per_s, t.ops_per_s),
        ("p50_ms", untraced.p50_ms, t.p50_ms),
        (
            "tail_ms",
            untraced.tail_ms.unwrap_or(0.0),
            t.tail_ms.unwrap_or(0.0),
        ),
    ] {
        let (diff, pct) = stats::overhead(u, v);
        println!("#   {name:<10} untraced {u:.4} traced {v:.4} diff {diff:+.4} ({pct:+.2}%)");
    }
    println!("# per-layer metrics: value unit (better) | end-to-end metric it should move | on");
    for l in LAYER_METRICS {
        let shown = layers
            .get(l.name)
            .map_or("n/a".to_string(), |v| format!("{v:.4}"));
        println!(
            "{:<28} {shown:>14} {:<8} ({}) | {} | {}",
            l.name, l.unit, l.better, l.moves, l.on
        );
    }
    if let Some(pct) = layers.get("trace.unattributed_pct") {
        println!(
            "# unattributed: {pct:.2}% of the traced thread time lies outside every layer span"
        );
    }
    print_spans(&args.workload, args.seed, traced);
}

/// The self-time table of a traced run, its notes, and the spans file.
fn print_spans(workload: &str, seed: u64, traced: &Traced) {
    let rows = layer_times(&traced.spans);
    let total_self: u64 = rows.iter().map(|r| r.self_ns).sum();
    println!("# {workload} self time by span: count, mean duration us, mean self us, share of all self time");
    for r in &rows {
        println!(
            "#   {:<34} {:>8} {:>12.2} {:>12.2} {:>6.1}%",
            r.name,
            r.count,
            r.total_ns as f64 / 1e3 / r.count as f64,
            r.self_ns as f64 / 1e3 / r.count as f64,
            100.0 * r.self_ns as f64 / total_self.max(1) as f64
        );
    }
    for note in &traced.notes {
        println!("# {note}");
    }
    let path = PathBuf::from(format!(".perfbench/spans/{workload}-seed{seed}.tsv"));
    match trace::write_spans(&path, &traced.spans) {
        Ok(()) => println!(
            "# {} spans written to {}",
            traced.spans.len(),
            path.display()
        ),
        Err(e) => println!("# could not write spans to {}: {e}", path.display()),
    }
}

/// `zoo_churn` and `admit` swing more between runs on the reference host
/// than any bound allows, so they are not gated workloads; their layers
/// still are. The traced run of `serve_mix` also traces a short
/// `zoo_churn`, that of `loo_grid` a short `admit`, and each takes the
/// metrics of the layers only its companion exercises.
fn companion(workload: &str, seed: u64, seconds: u64) -> Result<Option<Companion>, String> {
    let seconds = (seconds / 6).max(1);
    Ok(Some(match workload {
        "serve_mix" => {
            let mut size = serve::Size::for_seconds(serve::Shape::Churn, seconds);
            size.setups = 1;
            let (out, traced) = serve::run(serve::Shape::Churn, seed, &size, true)?;
            Companion {
                name: "zoo_churn",
                out,
                traced: traced.ok_or("no traced zoo_churn run")?,
                takes: &[
                    "registry.builds_per_op",
                    "registry.evictions_per_op",
                    "zoo.build_us",
                    "store.warm_us",
                    "store.bytes_read",
                    "store.disk_hit_ratio",
                    "store.persist_us",
                    "store.bytes_written",
                    "store.rejected",
                ],
            }
        }
        "loo_grid" => {
            let mut size = admit::Size::for_seconds(seconds);
            size.setups = 1;
            let (out, traced) = admit::run(seed, &size, true);
            Companion {
                name: "admit",
                out,
                traced: traced.ok_or("no traced admit run")?,
                takes: &[
                    "inductive.train_ms",
                    "graph.sampler_blocks",
                    "graph.sampler_edges",
                    "autograd.peak_tape_mb",
                    "inductive.admit_us",
                ],
            }
        }
        _ => return Ok(None),
    }))
}

struct Companion {
    name: &'static str,
    out: Outcome,
    traced: Traced,
    /// The per-layer metrics read from the companion's traced run.
    takes: &'static [&'static str],
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    envelope(&args);
    let result = match args.workload.as_str() {
        "loo_grid" => Ok((
            loo_grid::run(
                args.seed,
                &loo_grid::Size::for_seconds(args.seconds),
                args.trace,
            ),
            "2 client threads, one run_jobs_on call (1 worker) per evaluation",
        )),
        "serve_mix" | "zoo_churn" => {
            let shape = if args.workload == "serve_mix" {
                serve::Shape::Mix
            } else {
                serve::Shape::Churn
            };
            serve::run(
                shape,
                args.seed,
                &serve::Size::for_seconds(shape, args.seconds),
                args.trace,
            )
            .map(|r| (r, "2 client connections, 2 server workers"))
        }
        _ => Ok((
            admit::run(
                args.seed,
                &admit::Size::for_seconds(args.seconds),
                args.trace,
            ),
            "2 client threads",
        )),
    };
    let ((out, traced), clients) = match result {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {} could not run: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let e2e = EndToEnd::of(&out);
    print_end_to_end(&e2e, &out, clients);

    let (mut attempted, mut failed) = (out.attempted, out.failed);
    let mut metrics = JsonObject::new();
    match &traced {
        None => {
            for (name, value, unit) in e2e.metrics() {
                metrics = metrics.object(
                    name,
                    JsonObject::new().f64("value", value).str("unit", unit),
                );
            }
        }
        Some(traced) => {
            attempted += traced.timed.attempted;
            failed += traced.timed.failed;
            for why in &traced.timed.failures {
                println!("# FAILED (traced run): {why}");
            }
            let mut layers = traced.layers.clone();
            let (_, pct) = stats::overhead(e2e.p50_ms, EndToEnd::of(&traced.timed).p50_ms);
            layers.insert("trace.overhead_pct", pct);
            match companion(&args.workload, args.seed, args.seconds) {
                Ok(None) => {}
                Ok(Some(c)) => {
                    println!(
                        "# companion {} (traced for the layers only it exercises):",
                        c.name
                    );
                    print_end_to_end(&EndToEnd::of(&c.out), &c.out, "2 clients");
                    print_spans(c.name, args.seed, &c.traced);
                    for run in [&c.out, &c.traced.timed] {
                        attempted += run.attempted;
                        failed += run.failed;
                    }
                    for why in &c.traced.timed.failures {
                        println!("# FAILED (traced {}): {why}", c.name);
                    }
                    for name in c.takes {
                        layers.insert(name, c.traced.layers.get(name).copied().unwrap_or(0.0));
                    }
                }
                Err(e) => {
                    println!("# FAILED: companion run: {e}");
                    failed += 1;
                }
            }
            print_trace(&args, &e2e, traced, &layers);
            for l in LAYER_METRICS {
                let value = layers.get(l.name).copied().unwrap_or(0.0);
                metrics = metrics.object(
                    l.name,
                    JsonObject::new().f64("value", value).str("unit", l.unit),
                );
            }
        }
    }
    let correct = failed == 0;
    println!(
        "{}",
        JsonObject::new()
            .bool("correct", correct)
            .u64("attempted", attempted)
            .u64("failed", failed)
            .object("metrics", metrics)
            .render_compact()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
