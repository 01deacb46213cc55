//! Lock-order tracking and poison recovery — re-exported from the
//! workspace-wide [`tg_sync`] leaf crate.
//!
//! The tracker used to live here, but the lock table spans crates on
//! both sides of this one: `tg-serve`'s admission lock (rank
//! `conn_queue`) sits above it. Extracting the tracker into `tg-sync`
//! (a dependency-free leaf) made that formerly static-only rank
//! runtime-enforced: every crate in the workspace takes the same
//! `rank_guard` before its ranked lock calls. The crate's build-once
//! and compute-once waits (zoo builds, inductive embedders, coalesced
//! passes) are `std::sync::OnceLock` cells and carry no rank.
//!
//! See `tg_sync`'s crate docs for the full rank table and the call-site
//! discipline, `tg-check.toml` for the static spelling of the same
//! table, and DESIGN.md §4b for the rationale.

pub(crate) use tg_sync::{rank_guard, unpoisoned, LockFile, Rank};

#[cfg(test)]
mod tests {
    use super::*;

    /// The serving layer's ranks thread through the re-export; the full
    /// tracker semantics are tested in `tg-sync` itself.
    #[test]
    fn core_ranks_are_orderable_through_the_reexport() {
        let _a = rank_guard(Rank::Registry);
        let _p = rank_guard(Rank::Coalesce);
        let _d = rank_guard(Rank::CacheShard);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn inversion_trips_the_tracker() {
        let _shard = rank_guard(Rank::CacheShard);
        let _registry = rank_guard(Rank::Registry);
    }

    #[test]
    fn unpoisoned_passes_healthy_guards_through() {
        let m = std::sync::Mutex::new(41);
        *unpoisoned(m.lock()) += 1;
        assert_eq!(*unpoisoned(m.lock()), 42);
    }
}
