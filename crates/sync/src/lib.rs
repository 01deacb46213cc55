//! Workspace-wide lock-order tracking and poison recovery.
//!
//! The reproduction holds a small family of locks with one declared
//! partial order (see `tg-check.toml` at the repo root and DESIGN.md
//! §4b). The table spans two crates — `transfergraph` and `tg-serve`,
//! which sits above it — so the tracker lives in this leaf crate, where
//! both can reach it:
//!
//! | rank | class        | locks                                          |
//! |------|--------------|------------------------------------------------|
//! | 0    | `registry`   | `ZooRegistry::inner` routing table             |
//! | 1    | `coalesce`   | `Coalescer::passes` map of in-flight passes    |
//! | 2    | `file_lock`  | per-fingerprint advisory file lock ([`LockFile`]) |
//! | 3    | `cache_shard`| `ShardedCache` shard `RwLock`s                 |
//! | 4    | `conn_queue` | `tg-serve`'s admission lock (slots + queue)    |
//!
//! A thread may only acquire locks in non-decreasing rank order (equal
//! ranks may nest). Any thread obeying the order can never participate
//! in a deadlock cycle across these locks. The `file_lock` rank is
//! special in one way: it is backed by an OS advisory lock, so it also
//! serialises against *other processes* — but the rank rules it obeys
//! inside a process are exactly those of any other class.
//!
//! Build-once and compute-once waits (a zoo build, an inductive
//! embedder's training, a coalesced evaluation) are `std::sync::OnceLock`
//! cells, not ranked locks: the rule they need — release every ranked
//! guard before parking on one — is `tg-check`'s TG07 lint. The workspace
//! has no condition variable (clippy's `disallowed_types` bans std's), so
//! no ranked guard is ever released and re-taken inside a wait.
//!
//! Two layers enforce the order: statically, `tg-check`'s TG04 lint
//! (intra-function) plus its cross-function call-graph pass; and
//! dynamically in debug builds, [`rank_guard`] keeps a thread-local
//! stack of held ranks and asserts monotonicity on every acquisition.
//! Release builds compile the guard to nothing.
//!
//! Call sites take the rank guard immediately before the matching lock
//! call and keep it alive exactly as long as the lock guard:
//!
//! ```ignore
//! let _rank = rank_guard(Rank::Registry);
//! let inner = unpoisoned(self.inner.lock());
//! ```

#![warn(missing_docs)]

use std::sync::PoisonError;

/// The lock classes of the workspace, in declared acquisition order.
/// The discriminant is the rank: a thread holding rank `r` may only
/// acquire ranks `>= r`. The same table, by the same class names, is
/// checked statically from `tg-check.toml` — keep the two in sync
/// (a unit test in this crate cross-checks them).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rank {
    /// `ZooRegistry::inner` — the routing table.
    Registry = 0,
    /// `Coalescer::passes` — the map routing concurrent identical
    /// evaluations to one in-flight pass. Held only to look a pass up,
    /// insert it or retire it, never across the evaluation.
    Coalesce = 1,
    /// The per-fingerprint advisory *file* lock ([`LockFile`]) guarding
    /// the persist path's read-union-write sequence. Backed by the OS,
    /// so it also serialises persists across processes; within a
    /// process it ranks below `CacheShard` because persist reads the
    /// memory shards while holding it.
    FileLock = 2,
    /// One shard of a `ShardedCache`.
    CacheShard = 3,
    /// `tg-serve`'s admission lock: its serving-slot count and queue of
    /// waiting connections. Held only to take or give back a slot and to
    /// queue or pop a connection, never across I/O or a wait, and nothing
    /// else is acquired under it: the final leaf rank.
    ConnQueue = 4,
}

impl Rank {
    /// Every rank, in declared acquisition order.
    pub const ALL: [Rank; 5] = [
        Rank::Registry,
        Rank::Coalesce,
        Rank::FileLock,
        Rank::CacheShard,
        Rank::ConnQueue,
    ];

    /// The class name this rank carries in `tg-check.toml`'s
    /// `[lock_order] order` list.
    pub fn class(self) -> &'static str {
        match self {
            Rank::Registry => "registry",
            Rank::Coalesce => "coalesce",
            Rank::FileLock => "file_lock",
            Rank::CacheShard => "cache_shard",
            Rank::ConnQueue => "conn_queue",
        }
    }
}

/// Recovers the guard from a possibly poisoned lock result.
///
/// Every value behind the ranked locks is a pure function of its key
/// (cached artifacts) or simple bookkeeping that stays internally
/// consistent under panic (routing tables, queues, counters), so
/// observing the state a panicking thread left behind is
/// always safe — unlike propagating the poison, which turns one
/// worker's panic into a process-wide outage.
pub fn unpoisoned<G>(result: Result<G, PoisonError<G>>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

#[cfg(debug_assertions)]
mod tracker {
    use super::Rank;
    use std::cell::RefCell;

    thread_local! {
        /// Ranks currently held by this thread, in acquisition order.
        static HELD: RefCell<Vec<Rank>> = const { RefCell::new(Vec::new()) };
    }

    /// RAII token pairing one lock acquisition with its rank. Dropping
    /// it un-registers the rank, so it must live exactly as long as the
    /// lock guard it shadows (bind it immediately before the lock
    /// call).
    pub struct RankGuard {
        rank: Rank,
    }

    /// Registers the intent to acquire a lock of class `rank`,
    /// asserting the declared order: `rank` must be >= every rank this
    /// thread already holds.
    #[track_caller]
    pub fn rank_guard(rank: Rank) -> RankGuard {
        // `try_with` so guards created during thread-local teardown
        // degrade to untracked instead of aborting the process.
        #[expect(
            clippy::let_underscore_must_use,
            reason = "AccessError only during TLS teardown; untracked is the intended fallback"
        )]
        let _ = HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&max) = held.iter().max() {
                assert!(
                    rank >= max,
                    "lock-order violation: acquiring {:?} (rank {}) while holding \
                     {:?} (rank {}); declared order is {}",
                    rank,
                    rank as u8,
                    max,
                    max as u8,
                    Rank::ALL.map(Rank::class).join(" -> "),
                );
            }
            held.push(rank);
        });
        RankGuard { rank }
    }

    impl Drop for RankGuard {
        fn drop(&mut self) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "AccessError only during TLS teardown; untracked is the intended fallback"
            )]
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                // Guards may drop out of acquisition order; release the
                // most recent entry of this guard's rank.
                if let Some(i) = held.iter().rposition(|&r| r == self.rank) {
                    held.remove(i);
                }
            });
        }
    }
}

#[cfg(not(debug_assertions))]
mod tracker {
    use super::Rank;

    /// Release builds: a zero-sized no-op token.
    pub struct RankGuard;

    /// Release builds: no tracking, no cost.
    #[inline(always)]
    pub fn rank_guard(_rank: Rank) -> RankGuard {
        RankGuard
    }
}

pub use tracker::{rank_guard, RankGuard};

/// A cross-process advisory file lock, rank [`Rank::FileLock`].
///
/// Thin RAII over std's [`std::fs::File::lock`] (flock semantics on
/// unix: the lock belongs to the open file description, so two threads
/// that each `LockFile::open` the same path serialise exactly like two
/// processes would). The artifact store takes one of these per zoo
/// fingerprint around its persist sequence — lock, re-read the current
/// file, union, write temp, rename — which is what makes
/// merge-on-persist safe when several server processes share one
/// `TG_ARTIFACT_DIR`.
///
/// The lock file itself carries no data; only its advisory lock
/// matters. Crashed holders are harmless: the OS drops the lock with
/// the file descriptor.
pub struct LockFile {
    file: std::fs::File,
}

impl LockFile {
    /// Opens (creating if absent) the lock file at `path`. Opening does
    /// not lock; call [`LockFile::lock`] for that.
    pub fn open(path: &std::path::Path) -> std::io::Result<LockFile> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(LockFile { file })
    }

    /// Takes the exclusive advisory lock, blocking until granted, and
    /// registers rank [`Rank::FileLock`] with the runtime tracker for
    /// the guard's lifetime. The rank is asserted *before* blocking on
    /// the OS lock, matching every other call site's
    /// rank-then-acquire shape.
    pub fn lock(&self) -> std::io::Result<LockGuard<'_>> {
        let rank = rank_guard(Rank::FileLock);
        self.file.lock()?;
        Ok(LockGuard {
            file: &self.file,
            _rank: rank,
        })
    }
}

/// RAII guard for a held [`LockFile`]; unlocks on drop.
pub struct LockGuard<'a> {
    file: &'a std::fs::File,
    _rank: RankGuard,
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        // An unlock failure leaves the lock to be released when the
        // descriptor closes; Drop cannot report it and nothing useful
        // could be done with it.
        #[expect(
            clippy::let_underscore_must_use,
            reason = "unlock failure falls back to release-on-close; Drop cannot propagate"
        )]
        let _ = self.file.unlock();
    }
}

#[cfg(test)]
#[expect(
    clippy::let_underscore_must_use,
    reason = "the poisoning thread panics on purpose; its join error is the expected outcome"
)]
mod tests {
    use super::*;

    #[test]
    fn unpoisoned_passes_healthy_guards_through() {
        let m = std::sync::Mutex::new(41);
        *unpoisoned(m.lock()) += 1;
        assert_eq!(*unpoisoned(m.lock()), 42);
    }

    #[test]
    fn unpoisoned_recovers_a_poisoned_lock() {
        let m = std::sync::Arc::new(std::sync::Mutex::new(7));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.lock().is_err(), "lock must actually be poisoned");
        assert_eq!(*unpoisoned(m.lock()), 7);
    }

    #[test]
    fn ordered_acquisition_is_accepted() {
        let _guards: Vec<RankGuard> = Rank::ALL.into_iter().map(rank_guard).collect();
    }

    #[test]
    fn equal_ranks_may_nest() {
        let _a = rank_guard(Rank::Coalesce);
        let _b = rank_guard(Rank::Coalesce);
        let _c = rank_guard(Rank::ConnQueue);
    }

    #[test]
    fn release_then_lower_rank_is_accepted() {
        {
            let _high = rank_guard(Rank::ConnQueue);
        }
        let _low = rank_guard(Rank::Registry);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn out_of_order_drops_release_correctly() {
        let a = rank_guard(Rank::FileLock);
        let b = rank_guard(Rank::CacheShard);
        drop(a); // dropped before `b`: still holding rank 3 only
        let c = rank_guard(Rank::CacheShard);
        drop(b);
        drop(c); // everything released, in neither acquisition order
        let _d = rank_guard(Rank::Registry);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation: acquiring Registry (rank 0) while \
                               holding CacheShard (rank 3); declared order is registry -> \
                               coalesce -> file_lock -> cache_shard -> conn_queue")]
    fn inversion_trips_the_tracker() {
        let _shard = rank_guard(Rank::CacheShard);
        let _registry = rank_guard(Rank::Registry);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn leaf_rank_inversions_trip_the_tracker() {
        let _queue = rank_guard(Rank::ConnQueue);
        let _shard = rank_guard(Rank::CacheShard);
    }

    #[test]
    fn ranks_are_thread_local() {
        let _high = rank_guard(Rank::CacheShard);
        // Another thread holds nothing; low ranks are fine there.
        std::thread::spawn(|| {
            let _low = rank_guard(Rank::Registry);
        })
        .join()
        .expect("spawned thread must not observe this thread's ranks");
    }

    fn lock_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tg-sync-flock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create lock dir");
        dir.join(name)
    }

    #[test]
    fn lock_file_excludes_a_second_holder_until_dropped() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let path = lock_path("exclusive.lock");
        let a = LockFile::open(&path).expect("open a");
        let b = LockFile::open(&path).expect("open b");
        let released = Arc::new(AtomicBool::new(false));
        let guard = a.lock().expect("lock a");

        let (tx, rx) = std::sync::mpsc::channel();
        let released2 = Arc::clone(&released);
        let contender = std::thread::spawn(move || {
            tx.send(()).expect("signal started");
            let _guard = b.lock().expect("lock b");
            // One-sided check: a correctly blocking lock can only be
            // granted after the holder set the flag and dropped; a
            // non-blocking bug acquires early and sees `false`.
            released2.load(Ordering::Relaxed)
        });
        rx.recv().expect("contender started");
        // Give the contender scheduling opportunities to reach the
        // blocked acquisition before the release.
        for _ in 0..200 {
            std::thread::yield_now();
        }
        released.store(true, Ordering::Relaxed);
        drop(guard);
        assert!(
            contender.join().expect("contender thread"),
            "second holder must block until the first guard drops"
        );
    }

    #[test]
    fn lock_file_reacquires_after_guard_drop() {
        let path = lock_path("reacquire.lock");
        let lockfile = LockFile::open(&path).expect("open");
        drop(lockfile.lock().expect("first"));
        drop(lockfile.lock().expect("second"));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn file_lock_under_a_store_rank_trips_the_tracker() {
        let path = lock_path("inversion.lock");
        let lockfile = LockFile::open(&path).expect("open");
        let _shard = rank_guard(Rank::CacheShard);
        let _guard = lockfile.lock();
    }

    #[test]
    fn file_lock_then_store_ranks_is_the_declared_order() {
        let path = lock_path("persist-shape.lock");
        let lockfile = LockFile::open(&path).expect("open");
        let _guard = lockfile.lock().expect("lock");
        // The persist path's shape: memory shards under the file lock.
        let _shard = rank_guard(Rank::CacheShard);
    }

    /// The numeric table here and the `[lock_order] order` list in
    /// `tg-check.toml` are two spellings of one declaration; this test
    /// fails if they drift.
    #[test]
    fn rank_table_matches_tg_check_toml() {
        let toml = include_str!("../../../tg-check.toml");
        let mut in_section = false;
        let mut order: Option<Vec<String>> = None;
        for line in toml.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                in_section = line == "[lock_order]";
                continue;
            }
            if in_section {
                if let Some(rest) = line.strip_prefix("order") {
                    let list = rest
                        .trim_start()
                        .strip_prefix('=')
                        .and_then(|r| r.trim().strip_prefix('['))
                        .and_then(|r| r.split(']').next())
                        .expect("order is a string array");
                    order = Some(
                        list.split(',')
                            .map(|s| s.trim().trim_matches('"').to_string())
                            .collect(),
                    );
                }
            }
        }
        let order = order.expect("tg-check.toml declares [lock_order] order");
        let classes: Vec<&str> = Rank::ALL.iter().map(|r| r.class()).collect();
        assert_eq!(order, classes, "tg-check.toml and tg_sync::Rank disagree");
    }
}
