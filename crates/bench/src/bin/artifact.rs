//! Artifact-format benchmark: `TGARTv2` warm start plus a multi-process
//! persist storm.
//!
//! Two phases:
//!
//! * **format** — builds the environment's zoo (`TG_SEED` / `TG_SCALE`,
//!   paper scale by default), fills every artifact cache (LogME over both
//!   modalities, probe embeddings, pairwise similarities), persists, then
//!   times the warm start (`ArtifactStore::open`: one read per file plus
//!   an index check, best of [`REPS`]) and checks that a warm workbench
//!   serves the whole LogME grid bit-identically from disk.
//! * **storm** — always at the small smoke scale: [`STORM_CHILDREN`]
//!   child *processes* (re-exec of this binary with the `storm-child`
//!   argv) hammer persist on one shared directory, each computing a
//!   disjoint slice of the LogME grid and persisting in
//!   [`STORM_ROUNDS`] partial rounds. The parent then asserts the union
//!   survived (zero lost entries), that a warm reload serves every value
//!   bit-identical to a cold in-memory recompute with zero disk-tier
//!   misses, and that re-persisting the unchanged union rewrites
//!   byte-identical files (the v2 encoder sorts its index, so equal
//!   content means equal bytes).
//!
//! Gates (nonzero exit on violation): the warm start loads every
//! persisted entry, `lost_entries=0`, `bit_identical=true` and
//! deterministic re-persist. Results land in
//! `results/BENCH_artifact.json`.

#![allow(
    clippy::disallowed_methods,
    clippy::expect_used,
    clippy::let_underscore_must_use,
    reason = "benchmark binary: times its own run, aborts loudly on a failed step and cleans scratch dirs best-effort"
)]

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tg_bench::json::JsonObject;
use tg_bench::{seed_from_env, zoo_config_from_env};
use tg_zoo::{DatasetId, Modality, ModelId, ModelZoo, ZooConfig};
use transfergraph::{ArtifactKind, ArtifactStore, Representation, StoreOptions, Workbench};

/// Warm-start timing repetitions; the minimum is kept.
const REPS: usize = 5;

/// Child processes in the persist storm.
const STORM_CHILDREN: usize = 4;

/// Partial persists per storm child: each child persists after every
/// third of its slice, so writers interleave mid-computation.
const STORM_ROUNDS: usize = 3;

/// The storm world: fixed small scale regardless of `TG_SCALE`, so the
/// storm stays seconds and the parent/child grids agree byte-for-byte.
const STORM_SEED: u64 = 777;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tg-artifact-bench-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create bench artifact dir");
    dir
}

/// The storm's LogME work list: every (model, target) pair of the image
/// modality, in a fixed order shared by parent and children.
fn storm_pairs(zoo: &ModelZoo) -> Vec<(ModelId, DatasetId)> {
    let targets = zoo.targets_of(Modality::Image);
    zoo.models_of(Modality::Image)
        .iter()
        .flat_map(|&m| targets.iter().map(move |&d| (m, d)))
        .collect()
}

/// Storm child: compute the pairs whose index ≡ `slot` (mod `children`)
/// and persist in partial rounds. Invoked as
/// `artifact storm-child <slot> <children> <dir>`.
fn run_storm_child(slot: usize, children: usize, dir: &Path) {
    let zoo = ModelZoo::build(&ZooConfig::small(STORM_SEED));
    let wb = Workbench::open(&zoo, StoreOptions::in_dir(dir));
    let mine: Vec<_> = storm_pairs(&zoo)
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % children == slot)
        .map(|(_, p)| p)
        .collect();
    let round_len = mine.len().div_ceil(STORM_ROUNDS);
    for round in mine.chunks(round_len.max(1)) {
        for &(m, d) in round {
            wb.logme(m, d);
        }
        wb.persist().expect("storm child persist");
    }
}

/// Fills every artifact cache of `wb`: the full LogME grid of both
/// modalities, both probe representations per target, and all pairwise
/// similarities. Returns the LogME pair list for bit-identity checks.
fn fill_all_caches(wb: &Workbench) -> Vec<(ModelId, DatasetId)> {
    let mut pairs = Vec::new();
    for modality in [Modality::Image, Modality::Text] {
        wb.warm_logme(modality);
        let targets = wb.zoo().targets_of(modality);
        for &m in &wb.zoo().models_of(modality) {
            for &d in &targets {
                pairs.push((m, d));
            }
        }
        for rep in [Representation::DomainSimilarity, Representation::Task2Vec] {
            for &d in &targets {
                wb.representation(d, rep);
            }
            for (i, &a) in targets.iter().enumerate() {
                for &b in &targets[i + 1..] {
                    wb.similarity(a, b, rep);
                }
            }
        }
    }
    pairs
}

/// Best-of-[`REPS`] wall time of one warm start under `options`, plus
/// the entry count the last warm start loaded.
fn time_warm(fingerprint: u64, options: &StoreOptions) -> (Duration, u64) {
    let mut best = Duration::MAX;
    let mut entries = 0;
    for _ in 0..REPS {
        let start = Instant::now();
        let store = ArtifactStore::open(fingerprint, options.clone());
        let took = start.elapsed();
        entries = ArtifactKind::ALL
            .iter()
            .map(|&kind| store.warm_entries(kind) as u64)
            .sum();
        best = best.min(took);
    }
    (best, entries)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("storm-child") {
        let slot: usize = args[2].parse().expect("storm-child slot");
        let children: usize = args[3].parse().expect("storm-child count");
        run_storm_child(slot, children, Path::new(&args[4]));
        return;
    }

    let scale = match std::env::var("TG_SCALE").as_deref() {
        Ok("small") => "small",
        _ => "paper",
    };
    let seed = seed_from_env();
    let mut failed = false;

    // ---- Phase 1: format (warm start) ----
    let config = zoo_config_from_env();
    let zoo = ModelZoo::build(&config);
    let fingerprint = config.fingerprint();
    let dir = temp_dir("format");
    let wb = Workbench::open(&zoo, StoreOptions::in_dir(&dir));
    let pairs = fill_all_caches(&wb);
    let logme_bits: Vec<u64> = pairs
        .iter()
        .map(|&(m, d)| wb.logme(m, d).to_bits())
        .collect();
    let persisted = wb.persist().expect("persist artifacts");

    let in_dir = StoreOptions::in_dir(&dir);
    let (warm, warm_entries) = time_warm(fingerprint, &in_dir);
    if warm_entries != persisted.entries {
        eprintln!(
            "[artifact] FAIL: warm start loaded {warm_entries} of {} persisted entries",
            persisted.entries
        );
        failed = true;
    }

    // Bit-identity at scale: a fresh warm workbench serves the whole
    // LogME grid from disk (zero misses) with the exact source bits.
    let warm_wb = Workbench::open(&zoo, in_dir.clone());
    let mut format_identical = true;
    for (&(m, d), &bits) in pairs.iter().zip(&logme_bits) {
        format_identical &= warm_wb.logme(m, d).to_bits() == bits;
    }
    let warm_stats = warm_wb.stats();
    if !format_identical || warm_stats.logme.1 != 0 {
        eprintln!(
            "[artifact] FAIL: warm reload not served bit-identically from disk \
             (identical={format_identical}, logme misses={})",
            warm_stats.logme.1
        );
        failed = true;
    }
    let _ = fs::remove_dir_all(&dir);

    // ---- Phase 2: multi-process persist storm (small scale) ----
    let storm_dir = temp_dir("storm");
    let exe = std::env::current_exe().expect("current_exe for storm children");
    let children: Vec<_> = (0..STORM_CHILDREN)
        .map(|slot| {
            std::process::Command::new(&exe)
                .arg("storm-child")
                .arg(slot.to_string())
                .arg(STORM_CHILDREN.to_string())
                .arg(&storm_dir)
                .spawn()
                .expect("spawn storm child")
        })
        .collect();
    for mut child in children {
        let status = child.wait().expect("wait for storm child");
        assert!(status.success(), "storm child failed: {status}");
    }

    let storm_zoo = ModelZoo::build(&ZooConfig::small(STORM_SEED));
    let storm_fp = ZooConfig::small(STORM_SEED).fingerprint();
    let expected = storm_pairs(&storm_zoo);
    let merged = ArtifactStore::open(storm_fp, StoreOptions::in_dir(&storm_dir));
    let survived = merged.warm_entries(ArtifactKind::LogMe) as u64;
    let lost_entries = (expected.len() as u64).saturating_sub(survived);
    if lost_entries > 0 {
        eprintln!(
            "[artifact] FAIL: storm lost {lost_entries} of {} entries across \
             {STORM_CHILDREN} writer processes",
            expected.len()
        );
        failed = true;
    }

    // Bit-identity: warm reload vs a cold in-memory recompute.
    let cold_wb = Workbench::new(&storm_zoo);
    let warm_storm = Workbench::open(&storm_zoo, StoreOptions::in_dir(&storm_dir));
    let mut bit_identical = true;
    for &(m, d) in &expected {
        bit_identical &= warm_storm.logme(m, d).to_bits() == cold_wb.logme(m, d).to_bits();
    }
    bit_identical &= warm_storm.stats().logme.1 == 0;
    if !bit_identical {
        eprintln!("[artifact] FAIL: storm warm reload disagrees with a cold recompute");
        failed = true;
    }

    // Determinism: re-persisting the unchanged union must rewrite the
    // exact same bytes (the v2 index is sorted, so content determines
    // layout).
    let logme_path = storm_dir.join(format!("{storm_fp:016x}.logme.bin"));
    let before = fs::read(&logme_path).expect("read storm logme file");
    warm_storm.persist().expect("re-persist unchanged union");
    let after = fs::read(&logme_path).expect("re-read storm logme file");
    let deterministic_repersist = before == after;
    if !deterministic_repersist {
        eprintln!("[artifact] FAIL: re-persisting an unchanged union changed the file bytes");
        failed = true;
    }
    let _ = fs::remove_dir_all(&storm_dir);

    // ---- Report + gates ----
    let json = JsonObject::new()
        .str("scale", scale)
        .u64("seed", seed)
        .object(
            "format",
            JsonObject::new()
                .u64("entries", persisted.entries)
                .u64("bytes", persisted.bytes)
                .f64("warm_ms", secs(warm) * 1e3)
                .bool("bit_identical", format_identical),
        )
        .object(
            "storm",
            JsonObject::new()
                .usize("children", STORM_CHILDREN)
                .usize("rounds", STORM_ROUNDS)
                .usize("expected_entries", expected.len())
                .u64("survived_entries", survived)
                .u64("lost_entries", lost_entries)
                .bool("bit_identical", bit_identical)
                .bool("deterministic_repersist", deterministic_repersist),
        )
        .render();
    let out_path =
        std::env::var("TG_BENCH_JSON").unwrap_or_else(|_| "results/BENCH_artifact.json".into());
    if let Some(parent) = Path::new(&out_path).parent() {
        let _ = fs::create_dir_all(parent);
    }
    fs::write(&out_path, &json).expect("write BENCH_artifact.json");

    println!(
        "[artifact] entries={} bytes={} warm_ms={:.3} \
         storm children={STORM_CHILDREN} lost_entries={lost_entries} \
         bit_identical={} deterministic_repersist={deterministic_repersist} -> {out_path}",
        persisted.entries,
        persisted.bytes,
        secs(warm) * 1e3,
        format_identical && bit_identical,
    );

    if failed {
        std::process::exit(1);
    }
}
