//! Batched-LogME decomposition benchmark: cold-cache feature-collection
//! timings across every decomposition arm.
//!
//! Three arms score the identical forward passes of every (image model,
//! image target) pair:
//!
//! * **seed** — `tg_logme_seed::seed_log_me`, the pre-batching
//!   implementation (per-class one-hot columns, column-major `u.get(r, i)`
//!   projection loop), the historical baseline and the bit oracle;
//! * **svd** — `LogMe::default()` pinned to [`DecompPath::Svd`], the
//!   bit-exactness reference arm;
//! * **auto** — `LogMe::default()` on the default heuristic (resolves to
//!   the Gram path at the simulator's tall shapes) — the production
//!   configuration whose end-to-end win the bench gates.
//!
//! Gates (nonzero exit on violation): seed ≡ svd bit for bit; auto within
//! `1e-6` of svd; kernel speedup vs seed ≥ 2×; end-to-end auto-vs-seed
//! speedup ≥ 3× at paper scale (≥ 2× at small scale). The
//! bench also times the `Workbench` cold/warm collection paths and reports
//! the worker count the warm-up pool *actually* used (returned by
//! `warm_logme`, not re-derived). Results land in
//! `results/BENCH_logme.json` with per-arm total and decomposition time.

#![allow(
    clippy::disallowed_methods,
    clippy::expect_used,
    clippy::let_underscore_must_use,
    clippy::panic,
    reason = "benchmark binary: times its own run, aborts loudly on a failed step and cleans scratch dirs best-effort"
)]

use std::fs;
use std::time::{Duration, Instant};

use tg_bench::json::JsonObject;
use tg_bench::zoo_handle_from_env;
use tg_linalg::decomp::thin_svd;
use tg_linalg::Matrix;
use tg_logme_seed::seed_log_me;
use tg_transfer::{DecompArm, DecompPath, Labels, LogMe, ScoreError};
use tg_zoo::Modality;
use transfergraph::Workbench;

/// Timing repetitions per pair and arm; the minimum is kept.
const REPS: usize = 3;

/// Parity tolerance of the auto arm (the Gram path at these shapes)
/// against the SVD reference arm.
const EXACT_TOL: f64 = 1e-6;

/// Minimum wall-clock of [`REPS`] runs of `f`, and `f`'s (stable) value.
fn time_min<R>(mut f: impl FnMut() -> R) -> (Duration, R) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let v = f();
        best = best.min(start.elapsed());
        out = Some(v);
    }
    (best, out.expect("REPS >= 1"))
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Relative-or-absolute deviation of `b` from the reference `a`:
/// `|a − b| / max(1, |a|)`, so scores near zero fall back to absolute.
fn deviation(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(1.0)
}

/// One scored decomposition arm: accumulated wall-clock, accumulated
/// decomposition time (from the kernel's own report), and per-resolved-arm
/// call counts (interesting for the auto arm).
#[derive(Default)]
struct ArmTotals {
    total: Duration,
    decomp: Duration,
    resolved: [u64; DecompArm::ALL.len()],
}

impl ArmTotals {
    /// Accumulates the best-of-[`REPS`] total and decomposition time of one
    /// pair (both minimised independently, so `decomp <= total` holds).
    fn measure(&mut self, arm: &LogMe, features: &Matrix, labels: &Labels) -> f64 {
        let mut best_total = Duration::MAX;
        let mut best_decomp = Duration::MAX;
        let mut score = 0.0;
        let mut report = None;
        for _ in 0..REPS {
            let start = Instant::now();
            let (s, rep) = arm
                .score_with_report(features, labels)
                .unwrap_or_else(|e: ScoreError| panic!("{} arm failed: {e}", arm.name_of_path()));
            best_total = best_total.min(start.elapsed());
            best_decomp = best_decomp.min(rep.decomp);
            score = s;
            report = Some(rep);
        }
        self.total += best_total;
        self.decomp += best_decomp;
        self.resolved[report.expect("REPS >= 1").arm.index()] += 1;
        score
    }

    fn json(&self) -> JsonObject {
        JsonObject::new()
            .f64("total_s", secs(self.total))
            .f64("decomp_s", secs(self.decomp))
    }
}

fn main() {
    let handle = zoo_handle_from_env();
    let zoo = handle.zoo();
    let scale = match std::env::var("TG_SCALE").as_deref() {
        Ok("small") => "small",
        _ => "paper",
    };
    // The gated end-to-end bar: the tentpole claim is >=3x at paper scale;
    // the small smoke scale has smaller n where the Gram win shrinks.
    let end_to_end_bar = if scale == "paper" { 3.0 } else { 2.0 };

    let models = zoo.models_of(Modality::Image);
    let targets = zoo.targets_of(Modality::Image);
    let pairs: Vec<_> = models
        .iter()
        .flat_map(|&m| targets.iter().map(move |&d| (m, d)))
        .collect();

    let svd_arm = LogMe::default().with_path(DecompPath::Svd);
    let auto_arm = LogMe::default();

    let mut t_seed = Duration::ZERO;
    let mut t_shared_svd = Duration::ZERO;
    let (mut svd, mut auto) = (ArmTotals::default(), ArmTotals::default());
    let mut mismatches = 0usize;
    let mut dev_auto = 0f64;

    for &(m, d) in &pairs {
        let fp = zoo.forward_pass(m, d);
        let labels = Labels::new(&fp.labels, fp.num_classes).expect("valid forward-pass labels");

        let s_svd = svd.measure(&svd_arm, &fp.features, &labels);
        let s_auto = auto.measure(&auto_arm, &fp.features, &labels);
        let (dt, s_seed) = time_min(|| seed_log_me(&fp.features, &fp.labels, fp.num_classes));
        t_seed += dt;
        let (dt, _) = time_min(|| thin_svd(&fp.features).expect("SVD of valid features"));
        t_shared_svd += dt;

        if s_svd.to_bits() != s_seed.to_bits() {
            mismatches += 1;
            eprintln!("[logme] MISMATCH at ({m:?}, {d:?}): svd {s_svd:?} seed {s_seed:?}");
        }
        dev_auto = dev_auto.max(deviation(s_svd, s_auto));
    }

    // Workbench collection paths: cold parallel warm-up (runner pool), cold
    // sequential loop, then the fully warm cache. Fresh memory-only
    // workbenches so `TG_ARTIFACT_DIR` cannot pre-warm them. The worker
    // count comes back from `warm_logme` itself — the pool size the warm-up
    // actually ran with, not a post-hoc re-derivation.
    let wb_par = Workbench::new(zoo);
    let start = Instant::now();
    let workers = wb_par.warm_logme(Modality::Image);
    let cold_parallel = start.elapsed();

    let wb_seq = Workbench::new(zoo);
    let start = Instant::now();
    for &(m, d) in &pairs {
        wb_seq.logme(m, d);
    }
    let cold_sequential = start.elapsed();

    let start = Instant::now();
    let warm_workers = wb_par.warm_logme(Modality::Image);
    let warm = start.elapsed();
    assert_eq!(workers, warm_workers, "same grid, same pool size");

    let bit_identical = mismatches == 0;
    let end_to_end = secs(t_seed) / secs(auto.total).max(1e-12);
    // Kernel-only view of the svd arm: subtract the shared thin-SVD time
    // that arm and the seed both pay.
    let kernel_svd = (secs(svd.total) - secs(t_shared_svd)).max(1e-12);
    let kernel_seed = (secs(t_seed) - secs(t_shared_svd)).max(0.0);
    let kernel_speedup_seed = kernel_seed / kernel_svd;
    let parallel_speedup = secs(cold_sequential) / secs(cold_parallel).max(1e-12);

    // Per-arm decomposition telemetry of the parallel warm-up workbench —
    // what production collection actually ran (the auto heuristic).
    let wb_decomp = wb_par.stats().decomp;
    let mut wb_decomp_json = JsonObject::new();
    for arm in DecompArm::ALL {
        let (calls, took) = wb_decomp[arm.index()];
        if calls > 0 {
            wb_decomp_json = wb_decomp_json.object(
                arm.name(),
                JsonObject::new()
                    .u64("calls", calls)
                    .f64("total_s", secs(took)),
            );
        }
    }

    let auto_resolved = DecompArm::ALL.iter().fold(JsonObject::new(), |obj, arm| {
        obj.u64(arm.name(), auto.resolved[arm.index()])
    });
    let json = JsonObject::new()
        .str("scale", scale)
        .str("modality", "image")
        .usize("pairs", pairs.len())
        .usize("reps", REPS)
        .bool("bit_identical", bit_identical)
        .object(
            "arms",
            JsonObject::new()
                .object(
                    "seed_column_major",
                    JsonObject::new().f64("total_s", secs(t_seed)),
                )
                .object("svd", svd.json())
                .object("auto", auto.json().object("resolved", auto_resolved)),
        )
        .f64("shared_svd_s", secs(t_shared_svd))
        .object(
            "parity_max_deviation",
            JsonObject::new().f64("auto_vs_svd", dev_auto),
        )
        .f64("end_to_end_speedup_vs_seed", end_to_end)
        .f64("kernel_speedup_vs_seed", kernel_speedup_seed)
        .object(
            "collection",
            JsonObject::new()
                .usize("workers", workers)
                .f64("cold_parallel_s", secs(cold_parallel))
                .f64("cold_sequential_s", secs(cold_sequential))
                .f64("warm_s", secs(warm))
                .f64("parallel_speedup", parallel_speedup)
                .object("decomp", wb_decomp_json),
        )
        .render();
    let out_path =
        std::env::var("TG_BENCH_JSON").unwrap_or_else(|_| "results/BENCH_logme.json".into());
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = fs::create_dir_all(dir);
    }
    fs::write(&out_path, &json).expect("write BENCH_logme.json");

    println!(
        "[logme] pairs={} bit_identical={} svd={:.3}s auto={:.3}s \
         seed={:.3}s shared_svd={:.3}s end_to_end_vs_seed={end_to_end:.2}x \
         kernel_speedup_seed={kernel_speedup_seed:.2}x dev_auto={dev_auto:.2e} \
         cold_par={:.3}s cold_seq={:.3}s warm={:.4}s \
         par_speedup={parallel_speedup:.2}x workers={workers} -> {out_path}",
        pairs.len(),
        if bit_identical { "yes" } else { "no" },
        secs(svd.total),
        secs(auto.total),
        secs(t_seed),
        secs(t_shared_svd),
        secs(cold_parallel),
        secs(cold_sequential),
        secs(warm),
    );

    let mut failed = false;
    if !bit_identical {
        eprintln!("[logme] FAIL: {mismatches} pair(s) disagree between seed and svd");
        failed = true;
    }
    if dev_auto > EXACT_TOL {
        eprintln!("[logme] FAIL: auto arm deviates {dev_auto:.3e} from svd (tol {EXACT_TOL:.0e})");
        failed = true;
    }
    if kernel_speedup_seed < 2.0 {
        eprintln!(
            "[logme] FAIL: kernel speedup vs seed ({kernel_speedup_seed:.2}x) under the 2x bar"
        );
        failed = true;
    }
    if end_to_end < end_to_end_bar {
        eprintln!(
            "[logme] FAIL: end-to-end auto-vs-seed speedup ({end_to_end:.2}x) under the \
             {end_to_end_bar:.1}x bar at {scale} scale"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

/// Small display helper so arm panics name the path they ran.
trait PathName {
    fn name_of_path(&self) -> &'static str;
}

impl PathName for LogMe {
    fn name_of_path(&self) -> &'static str {
        match self.path() {
            DecompPath::Auto => "auto",
            DecompPath::Svd => "svd",
            DecompPath::Gram => "gram",
        }
    }
}
