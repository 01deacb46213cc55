//! The multi-zoo [`ZooRegistry`]: a process-wide serving layer that keeps
//! N `(ModelZoo, ArtifactStore, Workbench)` triples resident at once and
//! routes requests to them by [zoo fingerprint](ZooConfig::fingerprint).
//!
//! The paper's premise is a model zoo queried repeatedly for new target
//! datasets; a selection *service* extends that to many zoos (scales,
//! seeds, modalities) resident simultaneously. The registry is that layer:
//!
//! * **Routing** — [`ZooRegistry::get_or_build`] maps a [`ZooConfig`] to an
//!   [`Arc<ZooHandle>`]. A resident fingerprint is returned immediately
//!   (route hit); an absent one is built lazily, warming its
//!   [`ArtifactStore`] from the shared artifact directory on first touch
//!   (route miss).
//! * **Build-once coordination** — concurrent `get_or_build` calls for the
//!   same fingerprint share one per-fingerprint build slot, a
//!   `std::sync::OnceLock`: one caller's initialiser builds the zoo and
//!   the rest park in `get_or_init` until it is there, so the zoo is built
//!   exactly once no matter how many threads race for it. A build that
//!   panics leaves the slot empty, and the next caller builds instead.
//! * **Eviction** — the memory tier is bounded by a maximum resident zoo
//!   count ([`REGISTRY_MAX_ZOOS_ENV`]) and/or resident bytes
//!   ([`REGISTRY_MAX_BYTES_ENV`]). When an insert exceeds a bound, the
//!   least-recently-routed resident is evicted: it leaves the routing table
//!   under the registry lock, and its artifacts are persisted to the
//!   artifact directory after the lock is released (merge-on-persist, so
//!   nothing another writer computed is lost), so other zoos keep routing
//!   while the victim's files are written. Callers still holding the
//!   evicted `Arc` keep a fully functional handle; it is simply no longer
//!   served to new routes. Because every cached artifact is a pure
//!   function of the zoo, an evicted-then-rebuilt zoo returns
//!   bit-identical predictions — with a disk tier it even skips
//!   recomputation. A victim re-routed while its persist is still running
//!   warms from the older files and recomputes the rest.
//! * **Telemetry** — resident count/bytes, route hits/misses, builds and
//!   evictions ([`RegistryStats`]), threaded into the runner's
//!   [`RunSummary`](crate::runner::RunSummary) by the bench harness.
//!
//! Single-zoo callers are just the N=1 case: `tg_bench` binaries obtain
//! their one handle through the process-wide registry and never notice it.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use tg_zoo::{DatasetId, Modality, ModelZoo, ZooConfig};

use crate::artifacts::Workbench;
use crate::config::Representation;
use crate::inductive::{InductiveConfig, InductiveEmbedder};
use crate::store::{dir_from_env, ArtifactStore, PersistStats, StoreOptions};
use tg_sync::{hold_lock, unpoisoned};

/// Environment variable bounding the number of resident zoos. Unset, empty
/// or `0` means unbounded.
pub const REGISTRY_MAX_ZOOS_ENV: &str = "TG_REGISTRY_MAX_ZOOS";

/// Environment variable bounding the approximate resident artifact bytes
/// across all zoos. Unset, empty or `0` means unbounded.
pub const REGISTRY_MAX_BYTES_ENV: &str = "TG_REGISTRY_MAX_BYTES";

// ---------------------------------------------------------------------------
// Handle
// ---------------------------------------------------------------------------

/// One resident zoo: the built [`ModelZoo`], its [`ArtifactStore`] and a
/// ready [`Workbench`] view over both, owned together behind an `Arc`.
///
/// Handles are created by [`ZooRegistry::get_or_build`] and stay valid for
/// as long as the caller holds the `Arc` — eviction only removes them from
/// the registry's memory tier, it never invalidates them.
pub struct ZooHandle {
    zoo: Arc<ModelZoo>,
    /// `zoo.approx_resident_bytes()`, taken once: a zoo never changes
    /// after it is built.
    zoo_bytes: u64,
    store: Arc<ArtifactStore>,
    workbench: Workbench<'static>,
    /// Trained inductive embedders, one slot per `(modality,
    /// representation)` pair (see [`ZooHandle::inductive_embedder`]).
    inductive: [OnceLock<Arc<InductiveEmbedder>>; 4],
}

impl ZooHandle {
    fn build(config: &ZooConfig, store_options: StoreOptions) -> Arc<Self> {
        let fingerprint = config.fingerprint();
        let zoo = Arc::new(ModelZoo::build(config));
        let store = Arc::new(ArtifactStore::open(fingerprint, store_options));
        let workbench = Workbench::from_parts(Arc::clone(&zoo), Arc::clone(&store));
        Arc::new(ZooHandle {
            zoo_bytes: zoo.approx_resident_bytes(),
            zoo,
            store,
            workbench,
            inductive: Default::default(),
        })
    }

    /// The zoo this handle serves.
    pub fn zoo(&self) -> &ModelZoo {
        &self.zoo
    }

    /// The handle's artifact store.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// The handle's shared workbench view. Hand `&Workbench` to any number
    /// of worker threads; all of them share one cache.
    pub fn workbench(&self) -> &Workbench<'static> {
        &self.workbench
    }

    /// The fingerprint this handle is routed by.
    pub fn fingerprint(&self) -> u64 {
        self.store.fingerprint()
    }

    /// Approximate heap bytes held by this handle: the zoo's registries
    /// plus both tiers of the artifact store. Feeds the registry's
    /// byte-bounded eviction. Reads counters only, walking nothing and
    /// taking no lock, so the registry calls it under its own.
    pub fn resident_bytes(&self) -> u64 {
        self.zoo_bytes + self.store.resident_bytes()
    }

    /// The handle's inductive embedder for `modality`, trained once and
    /// cached per `(modality, representation)`. Concurrent first calls wait
    /// for one training run and all receive the same embedder. The slot
    /// keeps the first caller's configuration: a request whose `cfg`
    /// differs from it gets an embedder trained for that request, uncached.
    ///
    /// The embedder is trained on the *full* modality graph. To admit a
    /// dataset that training genuinely never saw, train a bespoke
    /// embedder with [`Workbench::train_inductive`] and an exclude list —
    /// the registry cache serves the steady-state shape, where new
    /// requests reuse weights trained before the dataset arrived.
    pub fn inductive_embedder(
        &self,
        modality: Modality,
        cfg: &InductiveConfig,
    ) -> Arc<InductiveEmbedder> {
        let slot = match (modality, cfg.representation) {
            (Modality::Image, Representation::DomainSimilarity) => 0,
            (Modality::Image, Representation::Task2Vec) => 1,
            (Modality::Text, Representation::DomainSimilarity) => 2,
            (Modality::Text, Representation::Task2Vec) => 3,
        };
        let train = || Arc::new(self.workbench.train_inductive(modality, &[], cfg));
        let cached = self.inductive[slot].get_or_init(train);
        if cached.config() == cfg {
            Arc::clone(cached)
        } else {
            train()
        }
    }

    /// Admits dataset `d` between requests: embeds its node with the
    /// cached inductive embedder for `d`'s modality (training it on first
    /// touch), at sampling cost rather than retraining cost.
    pub fn admit_dataset(&self, d: DatasetId, cfg: &InductiveConfig) -> Vec<f64> {
        let modality = self.zoo.dataset(d).modality;
        let embedder = self.inductive_embedder(modality, cfg);
        embedder.embed_dataset(&self.workbench, d)
    }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Point-in-time registry telemetry, surfaced in run summaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Zoos currently resident in the memory tier.
    pub resident: u64,
    /// Approximate heap bytes across all resident handles.
    pub resident_bytes: u64,
    /// Routes answered by a resident handle.
    pub route_hits: u64,
    /// Routes that found the fingerprint absent (triggering a build or a
    /// wait on a racing builder).
    pub route_misses: u64,
    /// Zoos actually built (each fingerprint at most once per residency).
    pub builds: u64,
    /// Handles evicted from the memory tier.
    pub evictions: u64,
}

impl RegistryStats {
    /// One-line rendering for run summaries.
    pub fn render(&self) -> String {
        format!(
            "registry: {} resident (~{}B), routes {}h/{}m, {} built, {} evicted",
            self.resident,
            self.resident_bytes,
            self.route_hits,
            self.route_misses,
            self.builds,
            self.evictions,
        )
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Bounds and disk configuration of a [`ZooRegistry`].
#[derive(Clone, Debug, Default)]
pub struct RegistryOptions {
    /// Shared artifact directory: evicted handles persist here, and new
    /// handles warm from it. `None` disables the disk tier (eviction then
    /// simply drops the cached artifacts — still correct, just colder).
    pub artifact_dir: Option<PathBuf>,
    /// Maximum resident zoos; `None` means unbounded. A bound of 0 is
    /// treated as 1 — the zoo being routed to is never evicted.
    pub max_zoos: Option<usize>,
    /// Maximum approximate resident bytes across handles; `None` means
    /// unbounded. The most recently routed handle is exempt, so one
    /// oversized zoo still serves.
    pub max_bytes: Option<u64>,
}

impl RegistryOptions {
    /// Options from the environment: artifact directory from
    /// `TG_ARTIFACT_DIR`, bounds from [`REGISTRY_MAX_ZOOS_ENV`] and
    /// [`REGISTRY_MAX_BYTES_ENV`].
    pub fn from_env() -> Self {
        let parse = |name: &str| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .filter(|&v| v > 0)
        };
        RegistryOptions {
            artifact_dir: dir_from_env(),
            max_zoos: parse(REGISTRY_MAX_ZOOS_ENV).map(|v| v as usize),
            max_bytes: parse(REGISTRY_MAX_BYTES_ENV),
        }
    }
}

/// A resident handle plus its last-route tick (the LRU key).
struct Resident {
    handle: Arc<ZooHandle>,
    last_route: u64,
}

#[derive(Default)]
struct Inner {
    resident: HashMap<u64, Resident>,
    /// Build slots of fingerprints routed but not yet resident: the first
    /// caller's initialiser builds, racers park in `get_or_init`.
    building: HashMap<u64, Arc<OnceLock<Arc<ZooHandle>>>>,
}

/// Thread-safe, fingerprint-routed registry of resident zoos with an
/// LRU/size-bounded memory tier. See the [module docs](self) for the
/// routing, build-once and eviction protocols.
///
/// ```
/// use tg_zoo::ZooConfig;
/// use transfergraph::{RegistryOptions, ZooRegistry};
///
/// let registry = ZooRegistry::new(RegistryOptions::default());
/// let config = ZooConfig::small(7);
/// let handle = registry.get_or_build(&config);
/// // Same config routes to the same resident handle — no rebuild.
/// let again = registry.get_or_build(&config);
/// assert!(std::sync::Arc::ptr_eq(&handle, &again));
/// let stats = registry.stats();
/// assert_eq!((stats.builds, stats.route_hits), (1, 1));
/// ```
pub struct ZooRegistry {
    options: RegistryOptions,
    inner: Mutex<Inner>,
    clock: AtomicU64,
    route_hits: AtomicU64,
    route_misses: AtomicU64,
    builds: AtomicU64,
    evictions: AtomicU64,
}

impl ZooRegistry {
    /// New registry with explicit options.
    pub fn new(options: RegistryOptions) -> Self {
        ZooRegistry {
            options,
            inner: Mutex::new(Inner::default()),
            clock: AtomicU64::new(0),
            route_hits: AtomicU64::new(0),
            route_misses: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// New registry configured from the environment
    /// ([`RegistryOptions::from_env`]).
    pub fn from_env() -> Self {
        Self::new(RegistryOptions::from_env())
    }

    /// The registry's options (bounds and artifact directory).
    pub fn options(&self) -> &RegistryOptions {
        &self.options
    }

    /// Routes `config` to its resident handle, building (and warming from
    /// the artifact directory) on first touch. Concurrent calls for the
    /// same fingerprint build the zoo exactly once; calls for different
    /// fingerprints build in parallel. May evict the least-recently-routed
    /// resident(s) to satisfy the configured bounds — never the handle
    /// being returned.
    pub fn get_or_build(&self, config: &ZooConfig) -> Arc<ZooHandle> {
        let fingerprint = config.fingerprint();
        let slot = {
            let _held = hold_lock();
            let mut inner = unpoisoned(self.inner.lock());
            if let Some(r) = inner.resident.get_mut(&fingerprint) {
                r.last_route = self.tick();
                self.route_hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&r.handle);
            }
            self.route_misses.fetch_add(1, Ordering::Relaxed);
            Arc::clone(inner.building.entry(fingerprint).or_default())
        };

        // Build outside the registry lock: other fingerprints keep routing
        // (and building) while this zoo constructs.
        let mut built = false;
        let handle = Arc::clone(slot.get_or_init(|| {
            built = true;
            let store_options = StoreOptions {
                dir: self.options.artifact_dir.clone(),
                ..StoreOptions::default()
            };
            let handle = ZooHandle::build(config, store_options);
            self.builds.fetch_add(1, Ordering::Relaxed);
            handle
        }));
        if !built {
            // A racer built it. It is already resident (or was evicted
            // again since — either way the handle is valid and
            // bit-identical to a rebuild).
            return handle;
        }

        // Racers that took the slot from `building` before it is removed
        // below find it filled and return the same handle.
        let victims = {
            let _held = hold_lock();
            let mut inner = unpoisoned(self.inner.lock());
            inner.resident.insert(
                fingerprint,
                Resident {
                    handle: Arc::clone(&handle),
                    last_route: self.tick(),
                },
            );
            // Future routes for this fingerprint must start a fresh slot
            // once the residency ends; drop the build slot now that the
            // handle is resident.
            inner.building.remove(&fingerprint);
            self.evict_over_bounds(&mut inner, fingerprint)
        };
        // Persist outside the registry lock, like the build: every other
        // fingerprint keeps routing while the victims' files are written. A
        // persist failure is reported and the eviction stands (artifacts
        // recompute on next touch — correctness never depends on the disk
        // tier).
        for victim in victims {
            if let Err(e) = victim.store().persist() {
                eprintln!(
                    "[registry] persist-on-evict failed for {:016x} (continuing): {e}",
                    victim.fingerprint()
                );
            }
        }
        handle
    }

    /// Persists every resident handle's artifacts (merge-on-persist). A
    /// no-op per handle when the registry has no artifact directory.
    pub fn persist_all(&self) -> io::Result<PersistStats> {
        let handles: Vec<Arc<ZooHandle>> = {
            let _held = hold_lock();
            let inner = unpoisoned(self.inner.lock());
            inner
                .resident
                .values()
                .map(|r| Arc::clone(&r.handle))
                .collect()
        };
        let mut total = PersistStats::default();
        for handle in handles {
            let stats = handle.store().persist()?;
            total.entries += stats.entries;
            total.bytes += stats.bytes;
        }
        Ok(total)
    }

    /// Fingerprints currently resident, in no particular order.
    pub fn resident_fingerprints(&self) -> Vec<u64> {
        let _held = hold_lock();
        unpoisoned(self.inner.lock())
            .resident
            .keys()
            .copied()
            .collect()
    }

    /// Telemetry snapshot.
    pub fn stats(&self) -> RegistryStats {
        let (resident, resident_bytes) = {
            let _held = hold_lock();
            let inner = unpoisoned(self.inner.lock());
            let bytes = inner
                .resident
                .values()
                .map(|r| r.handle.resident_bytes())
                .sum();
            (inner.resident.len() as u64, bytes)
        };
        RegistryStats {
            resident,
            resident_bytes,
            route_hits: self.route_hits.load(Ordering::Relaxed),
            route_misses: self.route_misses.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Removes least-recently-routed residents until both bounds hold,
    /// never evicting `protect` (the fingerprint just routed), and returns
    /// the victims' handles for the caller to persist once the registry
    /// lock is released.
    fn evict_over_bounds(&self, inner: &mut Inner, protect: u64) -> Vec<Arc<ZooHandle>> {
        let mut victims = Vec::new();
        loop {
            let over_count = self
                .options
                .max_zoos
                .is_some_and(|max| inner.resident.len() > max.max(1));
            let over_bytes = self.options.max_bytes.is_some_and(|max| {
                inner
                    .resident
                    .values()
                    .map(|r| r.handle.resident_bytes())
                    .sum::<u64>()
                    > max
            });
            if !over_count && !over_bytes {
                return victims;
            }
            let victim = inner
                .resident
                .iter()
                .filter(|(&fp, _)| fp != protect)
                .min_by_key(|(_, r)| r.last_route)
                .map(|(&fp, _)| fp);
            let Some(fp) = victim else {
                return victims; // only the protected handle remains
            };
            let Some(resident) = inner.resident.remove(&fp) else {
                return victims; // unreachable: `fp` was just selected from this map
            };
            self.evictions.fetch_add(1, Ordering::Relaxed);
            victims.push(resident.handle);
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::let_underscore_must_use,
    reason = "temp-dir cleanup is best-effort; a leftover directory cannot fail a test"
)]
mod tests {
    use super::*;
    use crate::config::EvalOptions;
    use crate::evaluate::evaluate;
    use crate::strategy::Strategy;
    use tg_zoo::Modality;

    fn temp_registry_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tg-registry-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn routes_hit_resident_handles_without_rebuilding() {
        let registry = ZooRegistry::new(RegistryOptions::default());
        let a = registry.get_or_build(&ZooConfig::small(31));
        let b = registry.get_or_build(&ZooConfig::small(31));
        assert!(Arc::ptr_eq(&a, &b));
        let other = registry.get_or_build(&ZooConfig::small(32));
        assert!(!Arc::ptr_eq(&a, &other));
        let stats = registry.stats();
        assert_eq!(stats.builds, 2);
        assert_eq!(stats.route_hits, 1);
        assert_eq!(stats.route_misses, 2);
        assert_eq!(stats.resident, 2);
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn concurrent_same_fingerprint_builds_exactly_once() {
        let registry = ZooRegistry::new(RegistryOptions::default());
        let config = ZooConfig::small(33);
        let handles: Vec<Arc<ZooHandle>> = std::thread::scope(|scope| {
            let spawned: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| registry.get_or_build(&config)))
                .collect();
            spawned.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for h in &handles[1..] {
            assert!(Arc::ptr_eq(&handles[0], h));
        }
        assert_eq!(registry.stats().builds, 1, "zoo built exactly once");
    }

    #[test]
    fn count_bound_evicts_least_recently_routed() {
        let registry = ZooRegistry::new(RegistryOptions {
            max_zoos: Some(2),
            ..RegistryOptions::default()
        });
        let a = registry.get_or_build(&ZooConfig::small(41));
        let _b = registry.get_or_build(&ZooConfig::small(42));
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        let a2 = registry.get_or_build(&ZooConfig::small(41));
        assert!(Arc::ptr_eq(&a, &a2));
        let _c = registry.get_or_build(&ZooConfig::small(43));
        let stats = registry.stats();
        assert_eq!(stats.resident, 2);
        assert_eq!(stats.evictions, 1);
        let resident = registry.resident_fingerprints();
        assert!(resident.contains(&ZooConfig::small(41).fingerprint()));
        assert!(resident.contains(&ZooConfig::small(43).fingerprint()));
        assert!(!resident.contains(&ZooConfig::small(42).fingerprint()));
    }

    #[test]
    fn byte_bound_keeps_only_the_protected_handle_when_tiny() {
        // A 1-byte budget forces every insert to evict all other residents,
        // but the handle being routed must survive.
        let registry = ZooRegistry::new(RegistryOptions {
            max_bytes: Some(1),
            ..RegistryOptions::default()
        });
        registry.get_or_build(&ZooConfig::small(51));
        registry.get_or_build(&ZooConfig::small(52));
        let stats = registry.stats();
        assert_eq!(stats.resident, 1);
        assert_eq!(stats.evictions, 1);
        assert_eq!(
            registry.resident_fingerprints(),
            vec![ZooConfig::small(52).fingerprint()]
        );
    }

    #[test]
    fn evicted_handle_persists_artifacts_and_rebuild_warms_from_them() {
        let dir = temp_registry_dir("evict-persist");
        let registry = ZooRegistry::new(RegistryOptions {
            artifact_dir: Some(dir.clone()),
            max_zoos: Some(1),
            ..RegistryOptions::default()
        });
        let config = ZooConfig::small(61);
        let target = {
            let handle = registry.get_or_build(&config);
            let target = handle.zoo().targets_of(Modality::Image)[0];
            handle
                .workbench()
                .logme(handle.zoo().models_of(Modality::Image)[0], target);
            target
        };
        // Routing a second config evicts (and persists) the first.
        registry.get_or_build(&ZooConfig::small(62));
        assert_eq!(registry.stats().evictions, 1);
        // Re-routing rebuilds the zoo but warms its store from disk: the
        // LogME value comes back without recomputation.
        let back = registry.get_or_build(&config);
        let m = back.zoo().models_of(Modality::Image)[0];
        back.workbench().logme(m, target);
        assert!(
            back.store().disk_stats().hits > 0,
            "rebuilt handle must serve persisted artifacts"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evict_then_reroute_predictions_bit_identical_to_cold_run() {
        let registry = ZooRegistry::new(RegistryOptions {
            max_zoos: Some(1),
            ..RegistryOptions::default() // no disk: eviction drops artifacts
        });
        let config = ZooConfig::small(71);
        let opts = EvalOptions::default();
        let strategy = Strategy::lr_baseline();

        let first = {
            let handle = registry.get_or_build(&config);
            let target = handle.zoo().targets_of(Modality::Image)[0];
            evaluate(handle.workbench(), &strategy, target, &opts)
        };
        registry.get_or_build(&ZooConfig::small(72)); // evicts `config`
        let rerouted = {
            let handle = registry.get_or_build(&config);
            let target = handle.zoo().targets_of(Modality::Image)[0];
            evaluate(handle.workbench(), &strategy, target, &opts)
        };
        assert!(registry.stats().evictions >= 1);
        assert_eq!(first.predictions, rerouted.predictions);
        assert_eq!(first.pearson, rerouted.pearson);

        // And both match a registry-free cold run.
        let zoo = ModelZoo::build(&config);
        let cold = evaluate(
            &Workbench::new(&zoo),
            &strategy,
            zoo.targets_of(Modality::Image)[0],
            &opts,
        );
        assert_eq!(first.predictions, cold.predictions);
    }

    /// A thread that routes while it still holds another lock would take
    /// the registry lock under it; the debug-build tracker must refuse it
    /// before a deadlock can form.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "nested lock")]
    fn routing_while_holding_a_lock_trips_the_tracker() {
        let registry = ZooRegistry::new(RegistryOptions::default());
        let _held = hold_lock();
        let _ = registry.get_or_build(&ZooConfig::small(81));
    }

    /// Multi-zoo serving under contention: racing routes across several
    /// fingerprints with eviction-persist and artifact lookups walk every
    /// lock path (shards during the build, and the file lock in the
    /// persist that follows an eviction once the registry lock is
    /// released). In debug builds the whole test runs under the tracker,
    /// so completing at all proves that no lock was taken under another.
    #[test]
    fn concurrent_multizoo_routing_with_eviction_never_nests_locks() {
        let dir = temp_registry_dir("race-order");
        let registry = ZooRegistry::new(RegistryOptions {
            artifact_dir: Some(dir.clone()),
            max_zoos: Some(2),
            ..RegistryOptions::default()
        });
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let registry = &registry;
                scope.spawn(move || {
                    for i in 0..6u64 {
                        let config = ZooConfig::small(90 + (t + i) % 3);
                        let handle = registry.get_or_build(&config);
                        let m = handle.zoo().models_of(Modality::Image)[0];
                        let target = handle.zoo().targets_of(Modality::Image)[0];
                        handle.workbench().logme(m, target);
                    }
                });
            }
        });
        let stats = registry.stats();
        assert!(stats.builds >= 3, "all three fingerprints were built");
        assert!(stats.evictions >= 1, "the bound forced eviction traffic");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An eviction persists its victim after the registry lock is
    /// released: while the victim's persist waits on its file lock, the
    /// registry still answers and the kept zoo still routes. Each probe
    /// runs on its own thread under a 10 s limit, so a route that waits
    /// for the persist fails the test instead of hanging it.
    #[test]
    fn routing_does_not_wait_for_an_eviction_persist() {
        use crate::store::ArtifactKind;
        use std::sync::mpsc;
        use std::time::Duration;
        use tg_sync::LockFile;

        fn within_10s<T: Send + 'static>(probe: impl FnOnce() -> T + Send + 'static) -> T {
            let (tx, rx) = mpsc::channel();
            let prober = std::thread::spawn(move || {
                let _ = tx.send(probe());
            });
            let value = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a route waited for another thread's eviction persist");
            prober.join().unwrap();
            value
        }

        let dir = temp_registry_dir("evict-unlocked");
        let registry = Arc::new(ZooRegistry::new(RegistryOptions {
            artifact_dir: Some(dir.clone()),
            max_zoos: Some(1),
            ..RegistryOptions::default()
        }));
        let victim = ZooConfig::small(111);
        let kept = ZooConfig::small(112);
        let handle = registry.get_or_build(&victim);
        let m = handle.zoo().models_of(Modality::Image)[0];
        let t = handle.zoo().targets_of(Modality::Image)[0];
        handle.workbench().logme(m, t);
        drop(handle);

        // Hold the victim's file lock so its persist blocks.
        std::fs::create_dir_all(&dir).unwrap();
        let lock_path = dir.join(format!("{:016x}.lock", victim.fingerprint()));
        let lockfile = LockFile::open(&lock_path).unwrap();
        let flock = lockfile.lock().unwrap();

        let evicting = {
            let registry = Arc::clone(&registry);
            let kept = kept.clone();
            std::thread::spawn(move || registry.get_or_build(&kept))
        };
        loop {
            let registry = Arc::clone(&registry);
            let resident = within_10s(move || registry.resident_fingerprints());
            if !resident.contains(&victim.fingerprint()) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let routed = {
            let registry = Arc::clone(&registry);
            let kept = kept.clone();
            within_10s(move || registry.get_or_build(&kept))
        };
        let evictions = {
            let registry = Arc::clone(&registry);
            within_10s(move || registry.stats().evictions)
        };
        assert_eq!(evictions, 1);
        assert!(
            !evicting.is_finished(),
            "the victim's persist is still waiting on its file lock"
        );

        drop(flock);
        let built = evicting.join().unwrap();
        assert!(Arc::ptr_eq(&built, &routed));
        // The persist ran once the lock was released.
        let store = ArtifactStore::open(victim.fingerprint(), StoreOptions::in_dir(&dir));
        assert!(store.warm_entries(ArtifactKind::LogMe) > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn small_inductive_cfg() -> InductiveConfig {
        InductiveConfig {
            embed_dim: 16,
            minibatch: tg_embed::MinibatchConfig {
                fanouts: vec![5, 3],
                batch: 64,
                epochs: Some(6),
            },
            ..InductiveConfig::default()
        }
    }

    #[test]
    fn inductive_embedder_trains_once_per_modality_and_representation() {
        let registry = ZooRegistry::new(RegistryOptions::default());
        let handle = registry.get_or_build(&ZooConfig::small(91));
        let cfg = small_inductive_cfg();
        let a = handle.inductive_embedder(Modality::Image, &cfg);
        let b = handle.inductive_embedder(Modality::Image, &cfg);
        assert!(
            Arc::ptr_eq(&a, &b),
            "second call reuses the cached embedder"
        );
        let text = handle.inductive_embedder(Modality::Text, &cfg);
        assert!(!Arc::ptr_eq(&a, &text));
    }

    #[test]
    fn inductive_embedder_serves_the_cache_only_for_its_config() {
        let registry = ZooRegistry::new(RegistryOptions::default());
        let handle = registry.get_or_build(&ZooConfig::small(91));
        let cfg16 = small_inductive_cfg();
        let cfg32 = InductiveConfig {
            embed_dim: 32,
            ..small_inductive_cfg()
        };
        let a = handle.inductive_embedder(Modality::Image, &cfg16);
        let b = handle.inductive_embedder(Modality::Image, &cfg32);
        assert_eq!((a.dim(), b.dim()), (16, 32));
        assert!(!Arc::ptr_eq(&a, &b));
        let again = handle.inductive_embedder(Modality::Image, &cfg16);
        assert!(Arc::ptr_eq(&a, &again), "the cached config still hits");
        let d = handle.zoo().targets_of(Modality::Image)[0];
        assert_eq!(handle.admit_dataset(d, &cfg32).len(), 32);
    }

    #[test]
    fn admit_dataset_embeds_between_requests_without_retraining() {
        let registry = ZooRegistry::new(RegistryOptions::default());
        let handle = registry.get_or_build(&ZooConfig::small(92));
        let cfg = small_inductive_cfg();
        let d = handle.zoo().targets_of(Modality::Image)[0];
        let before = handle.workbench().stats();
        let v1 = handle.admit_dataset(d, &cfg); // trains on first touch
        let v2 = handle.admit_dataset(d, &cfg); // reuses the weights
        assert_eq!(v1.len(), 16);
        assert_eq!(v1, v2, "admission is deterministic given fixed weights");
        assert!(v1.iter().all(|x| x.is_finite()));
        let delta = handle.workbench().stats().delta_since(&before);
        assert!(delta.sampler_blocks > 0, "admission sampled blocks");
    }

    #[test]
    fn options_from_env_parse_bounds() {
        // Serialise env mutation with a local lock-free approach: this test
        // is the only writer of these variables in the core suite.
        std::env::set_var(REGISTRY_MAX_ZOOS_ENV, "3");
        std::env::set_var(REGISTRY_MAX_BYTES_ENV, "1048576");
        let opts = RegistryOptions::from_env();
        assert_eq!(opts.max_zoos, Some(3));
        assert_eq!(opts.max_bytes, Some(1_048_576));
        std::env::set_var(REGISTRY_MAX_ZOOS_ENV, "0");
        std::env::remove_var(REGISTRY_MAX_BYTES_ENV);
        let opts = RegistryOptions::from_env();
        assert_eq!(opts.max_zoos, None);
        assert_eq!(opts.max_bytes, None);
        std::env::remove_var(REGISTRY_MAX_ZOOS_ENV);
    }
}
