//! Cross-process persist-storm integration test: several OS *processes*
//! (not threads) hammer `ArtifactStore::persist` on one shared artifact
//! directory, and the advisory file-lock + merge-on-persist protocol must
//! keep the union intact.
//!
//! The child processes are this test binary re-executed with `--exact`
//! on the child test function; the child function does the work only
//! when the `STORM_ROLE` environment variable marks it as a spawned
//! worker (it is a silent no-op in a normal `cargo test` run). The env
//! variables are deliberately *not* `TG_*`-prefixed: they are a private
//! parent→child channel of this test, not user-facing knobs.

#![allow(
    clippy::let_underscore_must_use,
    reason = "temp-dir cleanup is best-effort; a leftover directory cannot fail a test"
)]

use std::path::PathBuf;
use std::process::Command;

use tg_zoo::{DatasetId, ModelId, ModelZoo, ZooConfig};
use transfergraph::{ArtifactKind, ArtifactStore, StoreOptions, Workbench};

/// Fixed storm world: parent and children must agree on the zoo (and so
/// on the fingerprint and the value bits) without passing it around.
const STORM_SEED: u64 = 4242;

/// Writer processes and partial persists per writer.
const CHILDREN: usize = 3;
const ROUNDS: usize = 2;

const ROLE_ENV: &str = "STORM_ROLE";
const SLOT_ENV: &str = "STORM_SLOT";
const DIR_ENV: &str = "STORM_DIR";

fn storm_zoo() -> ModelZoo {
    ModelZoo::build(&ZooConfig::small(STORM_SEED))
}

/// The work list every participant derives identically: the image
/// modality's full (model, target) LogME grid.
fn storm_pairs(zoo: &ModelZoo) -> Vec<(ModelId, DatasetId)> {
    let targets = zoo.targets_of(tg_zoo::Modality::Image);
    zoo.models_of(tg_zoo::Modality::Image)
        .iter()
        .flat_map(|&m| targets.iter().map(move |&d| (m, d)))
        .collect()
}

/// Child worker: computes the slice `index % CHILDREN == slot` and
/// persists after each half, interleaving with its sibling processes.
/// A plain no-op (and a pass) unless spawned by the parent test below.
#[test]
fn persist_storm_child_worker() {
    let Ok(role) = std::env::var(ROLE_ENV) else {
        return; // normal test run: nothing to do
    };
    assert_eq!(role, "writer", "unexpected {ROLE_ENV} value");
    let slot: usize = std::env::var(SLOT_ENV)
        .expect("spawned child must receive a slot")
        .parse()
        .expect("slot must be an index");
    let dir = PathBuf::from(std::env::var(DIR_ENV).expect("spawned child must receive a dir"));

    let zoo = storm_zoo();
    let wb = Workbench::open(&zoo, StoreOptions::in_dir(&dir));
    let mine: Vec<_> = storm_pairs(&zoo)
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % CHILDREN == slot)
        .map(|(_, p)| p)
        .collect();
    assert!(!mine.is_empty(), "every slot must own part of the grid");
    let half = mine.len().div_ceil(ROUNDS);
    for round in mine.chunks(half.max(1)) {
        for &(m, d) in round {
            wb.logme(m, d);
        }
        wb.persist().expect("child persist must succeed");
    }
}

#[test]
fn concurrent_processes_persisting_one_dir_lose_nothing() {
    let dir = std::env::temp_dir().join(format!("tg-persist-storm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create storm dir");

    // Re-exec this test binary, targeting the child worker test, once per
    // writer slot. The children run concurrently as real OS processes, so
    // the only thing serialising their persists is the advisory file lock.
    let exe = std::env::current_exe().expect("test binary path");
    let children: Vec<_> = (0..CHILDREN)
        .map(|slot| {
            Command::new(&exe)
                .args(["--exact", "persist_storm_child_worker", "--quiet"])
                .env(ROLE_ENV, "writer")
                .env(SLOT_ENV, slot.to_string())
                .env(DIR_ENV, &dir)
                .spawn()
                .expect("spawn storm child process")
        })
        .collect();
    for mut child in children {
        let status = child.wait().expect("wait for storm child");
        assert!(status.success(), "storm child exited with {status}");
    }

    // The union of all writers' disjoint slices must have survived.
    let zoo = storm_zoo();
    let expected = storm_pairs(&zoo);
    let store = ArtifactStore::open(
        ZooConfig::small(STORM_SEED).fingerprint(),
        StoreOptions::in_dir(&dir),
    );
    assert_eq!(
        store.warm_entries(ArtifactKind::LogMe),
        expected.len(),
        "merge-on-persist must keep every writer's entries"
    );
    assert_eq!(store.disk_stats().rejected, 0, "no file was corrupted");

    // Warm reload is bit-identical to a cold in-memory recompute, and
    // every value comes from the disk tier (zero LogME misses).
    let cold = Workbench::new(&zoo);
    let warm = Workbench::open(&zoo, StoreOptions::in_dir(&dir));
    for &(m, d) in &expected {
        assert_eq!(
            warm.logme(m, d).to_bits(),
            cold.logme(m, d).to_bits(),
            "warm value for {m:?}/{d:?} must match the cold recompute bitwise"
        );
    }
    let stats = warm.stats();
    assert_eq!(stats.logme.1, 0, "warm run must not recompute anything");
    assert!(stats.disk.hits > 0, "values must come from the disk tier");

    // Reloading twice parses the same file into the same entries: the v2
    // encoder sorts its index, so a re-persist of the unchanged union
    // rewrites byte-identical files.
    let path = {
        let fp = ZooConfig::small(STORM_SEED).fingerprint();
        dir.join(format!("{fp:016x}.logme.bin"))
    };
    let before = std::fs::read(&path).expect("storm logme file exists");
    warm.persist().expect("re-persist unchanged union");
    let after = std::fs::read(&path).expect("storm logme file still exists");
    assert_eq!(
        before, after,
        "unchanged union must re-persist bit-identically"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
