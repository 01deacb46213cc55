//! Workspace-wide lock discipline and poison recovery.
//!
//! The reproduction's locks follow one rule: **no lock is taken while
//! another is held**. A thread that holds at most one lock at a time never
//! waits on a second while keeping the first, so no cycle of waiting
//! threads, and therefore no lock-order deadlock, can form, whatever the
//! order in which threads take the locks. The rule needs no declared
//! order and no table to keep in sync. It spans two crates —
//! `transfergraph` and `tg-serve`, which sits above it — so the runtime
//! check lives in this leaf crate, where both can reach it. The lock
//! classes (receiver names per class, see `tg-check.toml` at the repo root
//! and DESIGN.md §4b) are:
//!
//! | class         | locks                                             |
//! |---------------|---------------------------------------------------|
//! | `registry`    | `ZooRegistry::inner` routing table                |
//! | `coalesce`    | `Coalescer::passes` map of in-flight passes       |
//! | `file_lock`   | per-fingerprint advisory file lock ([`LockFile`]) |
//! | `cache_shard` | `ShardedCache` shard `RwLock`s                    |
//! | `conn_queue`  | `tg-serve`'s admission lock (slots + queue)       |
//!
//! The `file_lock` class is special in one way: it is backed by an OS
//! advisory lock, so it also serialises against *other processes* — but
//! inside a process it obeys the rule like any other lock.
//!
//! Build-once and compute-once waits (a zoo build, an inductive
//! embedder's training, a coalesced evaluation) are `std::sync::OnceLock`
//! cells, not locks: the rule they need — release every guard before
//! parking on one — is `tg-check`'s TG07 lint. The workspace has no
//! condition variable (clippy's `disallowed_types` bans std's), so no
//! guard is ever released and re-taken inside a wait.
//!
//! Two layers enforce the rule: statically, `tg-check`'s TG04 lint (within
//! a function and across call edges); and dynamically in debug
//! builds, [`hold_lock`] keeps one thread-local slot holding the call site
//! of the lock this thread holds, and panics, naming both call sites, when
//! a second lock is taken while the slot is full. Release builds compile
//! the token to nothing.
//!
//! Call sites take the token immediately before the lock call and keep it
//! alive exactly as long as the lock guard:
//!
//! ```ignore
//! let _held = hold_lock();
//! let inner = unpoisoned(self.inner.lock());
//! ```

#![warn(missing_docs)]

use std::sync::PoisonError;

/// Recovers the guard from a possibly poisoned lock result.
///
/// Every value behind the workspace's locks is a pure function of its key
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
    use std::cell::Cell;
    use std::panic::Location;

    thread_local! {
        /// Where this thread took the lock it holds, if it holds one.
        static HELD: Cell<Option<&'static Location<'static>>> = const { Cell::new(None) };
    }

    /// RAII token for one held lock. Dropping it empties the thread's
    /// slot, so it must live exactly as long as the lock guard it shadows
    /// (bind it immediately before the lock call).
    pub struct HeldLock(());

    /// Registers that this thread is about to take a lock, panicking when
    /// it already holds one: the message names the caller and the call
    /// site of the lock still held.
    #[track_caller]
    pub fn hold_lock() -> HeldLock {
        let here = Location::caller();
        // `try_with` so tokens created during thread-local teardown
        // degrade to untracked instead of aborting the process.
        #[expect(
            clippy::let_underscore_must_use,
            reason = "AccessError only during TLS teardown; untracked is the intended fallback"
        )]
        let _ = HELD.try_with(|held| {
            if let Some(outer) = held.get() {
                #[expect(
                    clippy::panic,
                    reason = "debug-only tracker: a nested lock is a deadlock hazard, fail loudly"
                )]
                {
                    panic!(
                        "nested lock: {here} takes a lock while this thread still holds \
                         the one taken at {outer}; no lock is taken while another is held"
                    );
                }
            }
            held.set(Some(here));
        });
        HeldLock(())
    }

    impl Drop for HeldLock {
        fn drop(&mut self) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "AccessError only during TLS teardown; untracked is the intended fallback"
            )]
            let _ = HELD.try_with(|held| held.set(None));
        }
    }
}

#[cfg(not(debug_assertions))]
mod tracker {
    /// Release builds: a zero-sized no-op token.
    pub struct HeldLock;

    /// Release builds: no tracking, no cost.
    #[inline(always)]
    pub fn hold_lock() -> HeldLock {
        HeldLock
    }
}

pub use tracker::{hold_lock, HeldLock};

/// A cross-process advisory file lock, class `file_lock`.
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
    /// fills this thread's [`hold_lock`] slot with the caller's location
    /// for the guard's lifetime. The slot is checked *before* blocking on
    /// the OS lock, matching every other call site's
    /// token-then-acquire shape.
    #[track_caller]
    pub fn lock(&self) -> std::io::Result<LockGuard<'_>> {
        let held = hold_lock();
        self.file.lock()?;
        Ok(LockGuard {
            file: &self.file,
            _held: held,
        })
    }
}

/// RAII guard for a held [`LockFile`]; unlocks on drop.
pub struct LockGuard<'a> {
    file: &'a std::fs::File,
    _held: HeldLock,
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

    /// Runs `f`, returning its panic message (`None` when it returns).
    #[cfg(debug_assertions)]
    fn panic_message(f: impl FnOnce()) -> Option<String> {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
        payload.downcast_ref::<String>().cloned()
    }

    /// Records the caller's location in `sites`, then takes the token
    /// there.
    #[cfg(debug_assertions)]
    #[track_caller]
    fn take(sites: &mut Vec<String>) -> HeldLock {
        sites.push(std::panic::Location::caller().to_string());
        hold_lock()
    }

    #[cfg(debug_assertions)]
    #[test]
    fn nested_acquisitions_trip_the_tracker_naming_both_call_sites() {
        let registry = std::sync::Mutex::new(0);
        let shards = [std::sync::RwLock::new(0), std::sync::RwLock::new(0)];
        let nests = |case: &dyn Fn(&mut Vec<String>)| {
            let mut sites = Vec::new();
            let message = panic_message(|| case(&mut sites)).expect("nested lock must panic");
            assert!(message.starts_with("nested lock: "), "{message}");
            assert_eq!(sites.len(), 2);
            assert_ne!(sites[0], sites[1]);
            assert!(
                message.contains(&format!("{} takes a lock", sites[1]))
                    && message.contains(&format!("the one taken at {}", sites[0])),
                "the message names both call sites {sites:?}: {message}"
            );
            // Unwinding dropped the outer token: the slot is empty again.
            let _held = hold_lock();
        };
        // A lock of another class under a shard.
        nests(&|sites| {
            let _held = take(sites);
            let _shard = unpoisoned(shards[0].read());
            let _held = take(sites);
            let _registry = unpoisoned(registry.lock());
        });
        // A second shard of the same class under the first.
        nests(&|sites| {
            let _held = take(sites);
            let _first = unpoisoned(shards[0].write());
            let _held = take(sites);
            let _second = unpoisoned(shards[1].write());
        });
    }

    #[test]
    fn release_then_reacquire_is_accepted() {
        for _ in 0..2 {
            let _held = hold_lock();
        }
        let _held = hold_lock();
    }

    #[test]
    fn the_slot_is_per_thread() {
        let _held = hold_lock();
        // Another thread holds nothing; it may take a lock while this
        // thread holds one.
        std::thread::spawn(|| {
            let _held = hold_lock();
        })
        .join()
        .expect("spawned thread must not observe this thread's slot");
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
    fn lock_file_under_a_held_lock_trips_the_tracker() {
        /// Records the caller's location in `sites`, then locks `lockfile`
        /// there: `LockFile::lock` is `#[track_caller]`, so the tracker
        /// must name this call's caller, not a line inside tg-sync.
        #[track_caller]
        fn lock_at<'a>(
            lockfile: &'a LockFile,
            sites: &mut Vec<String>,
        ) -> std::io::Result<LockGuard<'a>> {
            sites.push(std::panic::Location::caller().to_string());
            lockfile.lock()
        }

        let path = lock_path("nested.lock");
        let lockfile = LockFile::open(&path).expect("open");
        let mut sites = Vec::new();
        let message = panic_message(|| {
            let _held = take(&mut sites);
            let _guard = lock_at(&lockfile, &mut sites);
        })
        .expect("a file lock under a held lock must panic");
        assert!(
            message.contains(&format!("{} takes a lock", sites[1]))
                && message.contains(&format!("the one taken at {}", sites[0])),
            "the message names both call sites {sites:?}: {message}"
        );
        // The failed acquisition never reached the OS lock.
        drop(lockfile.lock().expect("lock after the panic"));
    }
}
