//! Request coalescing for the serving layer: concurrent recommendations
//! for the same `(zoo fingerprint, target, strategy)` collapse into one
//! Workbench pass.
//!
//! A recommendation service sees bursts of identical work: many clients
//! asking for the same target's ranking at once (a fresh dataset just
//! landed, a dashboard fans out). Every [`evaluate`] call is a pure
//! function of `(zoo, strategy, target, options)`, so running it once per
//! burst and sharing the outcome is behaviour-preserving by construction —
//! the same argument that makes the registry's evict-then-rebuild
//! bit-identical.
//!
//! Each in-flight key maps to one pass, a `std::sync::OnceLock` — the same
//! shape as the registry's build slots. Every caller for the key runs
//! `get_or_init` on it: the caller whose initialiser runs is the
//! **leader** and computes; racers (**followers**) park inside
//! `get_or_init` until the leader's outcome is there, and all of them
//! return the same `Arc`. The leader then retires the key, so the next
//! burst starts a fresh pass. A configurable **batch window** makes the
//! leader wait briefly before computing, widening the net for followers
//! that arrive just behind it — worth it when the pass itself is much more
//! expensive than the window (cold caches), a no-op default otherwise.
//!
//! The pass map's lock (class `coalesce`, see `tg_sync` and
//! `tg-check.toml`) is held only to look a pass up, insert it or retire
//! it — never across the evaluation or a wait, so the evaluation takes
//! its store and cache locks with no coalescing lock held. If a leader
//! unwinds mid-pass, its `OnceLock` stays empty: a follower already parked
//! on it, or the next caller for the key, runs the pass again and becomes
//! its leader — a lost optimisation, never a hang.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use tg_zoo::DatasetId;

use crate::config::EvalOptions;
use crate::evaluate::{evaluate, EvalOutcome};
use crate::registry::ZooHandle;
use crate::strategy::Strategy;
use tg_sync::{hold_lock, unpoisoned};

/// One coalescing key: zoo fingerprint, target dataset, strategy label.
/// The strategy is part of the key because different strategies produce
/// different rankings — only *identical* work may share a pass.
type PassKey = (u64, DatasetId, String);

/// One in-flight pass: empty until its leader's evaluation returns.
type Pass = Arc<OnceLock<Arc<EvalOutcome>>>;

/// Per-request coalescing telemetry, surfaced by the server's `/stats`.
/// Every completed [`Coalescer::evaluate`] call counts once, so
/// `leaders + followers` is the number of calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Passes actually computed (one per burst, plus one for each re-run
    /// of a pass whose leader unwound).
    pub leaders: u64,
    /// Requests served from another request's in-flight pass.
    pub followers: u64,
}

impl CoalesceStats {
    /// One-line rendering for run summaries and server logs.
    pub fn render(&self) -> String {
        format!(
            "coalesce: {} passes, {} coalesced",
            self.leaders, self.followers
        )
    }
}

/// Coalesces concurrent identical evaluations into single shared passes.
/// See the [module docs](self) for the protocol.
///
/// ```
/// use std::time::Duration;
/// use tg_zoo::{Modality, ZooConfig};
/// use transfergraph::{Coalescer, EvalOptions, RegistryOptions, Strategy, ZooRegistry};
///
/// let registry = ZooRegistry::new(RegistryOptions::default());
/// let handle = registry.get_or_build(&ZooConfig::small(7));
/// let target = handle.zoo().targets_of(Modality::Image)[0];
/// let coalescer = Coalescer::new(Duration::ZERO);
/// let outcome = coalescer.evaluate(
///     &handle,
///     &Strategy::lr_baseline(),
///     target,
///     &EvalOptions::default(),
/// );
/// assert_eq!(outcome.dataset, target);
/// assert_eq!(coalescer.stats().leaders, 1);
/// ```
pub struct Coalescer {
    window: Duration,
    passes: Mutex<HashMap<PassKey, Pass>>,
    leaders: AtomicU64,
    followers: AtomicU64,
}

impl Coalescer {
    /// New coalescer. `window` is how long a leader waits before computing
    /// so followers can pile on; `Duration::ZERO` (the usual default)
    /// coalesces only requests that overlap an already-running pass.
    pub fn new(window: Duration) -> Self {
        Coalescer {
            window,
            passes: Mutex::new(HashMap::new()),
            leaders: AtomicU64::new(0),
            followers: AtomicU64::new(0),
        }
    }

    /// Telemetry snapshot.
    pub fn stats(&self) -> CoalesceStats {
        CoalesceStats {
            leaders: self.leaders.load(Ordering::Relaxed),
            followers: self.followers.load(Ordering::Relaxed),
        }
    }

    /// Evaluates `strategy` on `target` over `handle`'s workbench,
    /// coalescing with any concurrent call carrying the same
    /// `(fingerprint, target, strategy label)` key. Exactly one caller per
    /// burst computes; everyone receives the same `Arc`'d outcome,
    /// bit-identical to an uncoalesced [`evaluate`] call.
    pub fn evaluate(
        &self,
        handle: &ZooHandle,
        strategy: &Strategy,
        target: DatasetId,
        opts: &EvalOptions,
    ) -> Arc<EvalOutcome> {
        let key: PassKey = (handle.fingerprint(), target, strategy.label());
        let pass = {
            let _held = hold_lock();
            let mut passes = unpoisoned(self.passes.lock());
            Arc::clone(passes.entry(key.clone()).or_default())
        };

        // No coalescing lock is held from here on: the evaluation takes
        // its store and cache locks with none held, and followers park in
        // `get_or_init` rather than on the map.
        let mut led = false;
        let outcome = Arc::clone(pass.get_or_init(|| {
            led = true;
            if !self.window.is_zero() {
                std::thread::sleep(self.window);
            }
            Arc::new(evaluate(handle.workbench(), strategy, target, opts))
        }));
        if led {
            self.leaders.fetch_add(1, Ordering::Relaxed);
            // Retire the key so the next burst starts a fresh pass.
            let _held = hold_lock();
            unpoisoned(self.passes.lock()).remove(&key);
        } else {
            self.followers.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{RegistryOptions, ZooRegistry};
    use tg_zoo::{Modality, ZooConfig};

    fn setup(seed: u64) -> (ZooRegistry, Strategy, EvalOptions) {
        let registry = ZooRegistry::new(RegistryOptions::default());
        let _ = registry.get_or_build(&ZooConfig::small(seed));
        (registry, Strategy::lr_baseline(), EvalOptions::default())
    }

    #[test]
    fn single_call_matches_direct_evaluate_bitwise() {
        let (registry, strategy, opts) = setup(301);
        let handle = registry.get_or_build(&ZooConfig::small(301));
        let target = handle.zoo().targets_of(Modality::Image)[0];
        let coalescer = Coalescer::new(Duration::ZERO);
        let coalesced = coalescer.evaluate(&handle, &strategy, target, &opts);
        let direct = evaluate(handle.workbench(), &strategy, target, &opts);
        assert_eq!(coalesced.predictions, direct.predictions);
        assert_eq!(coalesced.pearson, direct.pearson);
        let stats = coalescer.stats();
        assert_eq!((stats.leaders, stats.followers), (1, 0));
    }

    #[test]
    fn concurrent_same_key_requests_share_one_pass() {
        let (registry, strategy, opts) = setup(302);
        let handle = registry.get_or_build(&ZooConfig::small(302));
        let target = handle.zoo().targets_of(Modality::Image)[0];
        // A wide window so every thread spawned below lands inside the
        // leader's wait, making follower counts deterministic.
        let coalescer = Coalescer::new(Duration::from_millis(300));
        let outcomes: Vec<Arc<EvalOutcome>> = std::thread::scope(|scope| {
            let spawned: Vec<_> = (0..6)
                .map(|_| scope.spawn(|| coalescer.evaluate(&handle, &strategy, target, &opts)))
                .collect();
            spawned.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for o in &outcomes[1..] {
            assert!(
                Arc::ptr_eq(&outcomes[0], o),
                "all coalesced callers share one outcome allocation"
            );
        }
        let stats = coalescer.stats();
        assert_eq!(stats.leaders, 1, "exactly one pass computed");
        assert_eq!(stats.followers, 5);
    }

    #[test]
    fn different_keys_do_not_coalesce() {
        let (registry, strategy, opts) = setup(303);
        let handle = registry.get_or_build(&ZooConfig::small(303));
        let targets = handle.zoo().targets_of(Modality::Image);
        let coalescer = Coalescer::new(Duration::ZERO);
        let a = coalescer.evaluate(&handle, &strategy, targets[0], &opts);
        let b = coalescer.evaluate(&handle, &strategy, targets[1], &opts);
        assert_ne!(a.dataset, b.dataset);
        assert_eq!(coalescer.stats().leaders, 2);
        // Different strategies on one target are distinct keys too.
        let c = coalescer.evaluate(&handle, &Strategy::LogMe, targets[0], &opts);
        assert_ne!(c.strategy, a.strategy);
        assert_eq!(coalescer.stats().leaders, 3);
    }

    #[test]
    fn sequential_bursts_start_fresh_passes() {
        let (registry, strategy, opts) = setup(304);
        let handle = registry.get_or_build(&ZooConfig::small(304));
        let target = handle.zoo().targets_of(Modality::Image)[0];
        let coalescer = Coalescer::new(Duration::ZERO);
        let first = coalescer.evaluate(&handle, &strategy, target, &opts);
        let second = coalescer.evaluate(&handle, &strategy, target, &opts);
        assert!(
            !Arc::ptr_eq(&first, &second),
            "completed passes are retired, not cached"
        );
        assert_eq!(first.predictions, second.predictions);
        assert_eq!(coalescer.stats().leaders, 2);
    }

    #[test]
    fn abandoned_pass_is_recomputed_and_retired() {
        let (registry, strategy, opts) = setup(305);
        let handle = registry.get_or_build(&ZooConfig::small(305));
        let target = handle.zoo().targets_of(Modality::Image)[0];
        let coalescer = Coalescer::new(Duration::ZERO);
        let key: PassKey = (handle.fingerprint(), target, strategy.label());

        // A leader that unwound mid-pass leaves its pass in the map, still
        // empty. The next caller must run the pass itself, as its leader.
        unpoisoned(coalescer.passes.lock()).insert(key, Pass::default());

        let outcome = coalescer.evaluate(&handle, &strategy, target, &opts);
        let direct = evaluate(handle.workbench(), &strategy, target, &opts);
        assert_eq!(outcome.predictions, direct.predictions);
        let stats = coalescer.stats();
        assert_eq!((stats.leaders, stats.followers), (1, 0));
        assert!(
            unpoisoned(coalescer.passes.lock()).is_empty(),
            "the re-run pass is retired from the map"
        );
    }
}
