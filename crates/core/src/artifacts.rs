//! The [`Workbench`]: cached expensive artefacts of the feature-collection
//! stage (Fig. 5, steps ①–④).
//!
//! LogME scores, probe embeddings and pairwise similarities are pure
//! functions of the zoo, so they are computed once and shared by every
//! strategy/target combination in an experiment run — mirroring the paper's
//! observation that collection "can be achieved offline".
//!
//! The caching spine itself lives in [`crate::store`]: a two-tier
//! [`ArtifactStore`] pairing in-memory sharded `RwLock<HashMap>`s with an
//! optional disk tier of fingerprint-keyed artifact files. The `Workbench`
//! is the thin view that binds a store to one zoo and supplies the compute
//! closures, so one workbench behind a shared reference serves any number
//! of worker threads: a value is computed at most once per cache *warm-up*
//! and every later lookup is a read-lock hit. Because every cached quantity
//! is a pure deterministic function of the zoo, a racing duplicate
//! computation on a cold cache produces a bit-identical value, and
//! whichever insert wins is indistinguishable from the other — the same
//! argument that makes disk-persisted artifacts safe to replay across runs.
//!
//! The workbench also carries the pipeline's observability spine: per-cache
//! hit/miss counters, disk-tier counters ([`DiskStats`]) and per-stage
//! wall-clock accumulators ([`Telemetry`]), surfaced by the parallel runner
//! ([`crate::runner`]) so experiment trajectories can attribute wins to the
//! stage that produced them.

#![expect(
    clippy::disallowed_methods,
    reason = "stage timers are telemetry; the wall-clock never feeds back into predictions"
)]

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tg_transfer::{DecompArm, Labels, LogMe};
use tg_zoo::{DatasetId, Modality, ModelId, ModelZoo};

use crate::config::Representation;
use crate::store::{ArtifactStore, DiskStats, PersistStats, StoreOptions};

/// Number of LogME decomposition arms: the length of every per-arm
/// accumulator, indexed by [`DecompArm::index`].
const ARMS: usize = DecompArm::ALL.len();

/// Pipeline stages the workbench attributes wall-clock time to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Computing collection artefacts on cache misses: forward passes +
    /// LogME evidence maximisation, probe embeddings, similarities.
    FeatureCollection,
    /// Graph construction + node-embedding training (steps ⑤–⑥).
    GraphLearning,
    /// Feature assembly, regressor fitting and prediction (steps ⑦–⑧).
    Regression,
}

impl Stage {
    fn index(self) -> usize {
        match self {
            Stage::FeatureCollection => 0,
            Stage::GraphLearning => 1,
            Stage::Regression => 2,
        }
    }

    /// Human-readable stage name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::FeatureCollection => "feature collection",
            Stage::GraphLearning => "graph learning",
            Stage::Regression => "regression",
        }
    }
}

/// Thread-safe wall-clock accumulators, one per [`Stage`].
///
/// Feature-collection time is recorded at the cache-miss site regardless of
/// which pipeline stage triggered the miss; graph-learning and regression
/// timings are end-to-end wall-clock of those calls and therefore *include*
/// any nested cold-cache collection work. On a warmed workbench the three
/// stages are effectively disjoint.
#[derive(Default)]
pub struct Telemetry {
    stage_nanos: [AtomicU64; 3],
    logme_kernel_nanos: AtomicU64,
    logme_kernel_calls: AtomicU64,
    decomp_nanos: [AtomicU64; ARMS],
    decomp_calls: [AtomicU64; ARMS],
}

impl Telemetry {
    /// Runs `f`, attributing its wall-clock time to `stage`.
    pub fn time<R>(&self, stage: Stage, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(stage, start.elapsed().as_nanos());
        out
    }

    /// Runs the batched LogME kernel closure, counting the call and its
    /// wall-clock in the dedicated kernel accumulators. Kernel time is a
    /// *subset* of the enclosing feature-collection stage time (the rest of
    /// that stage is forward passes and embeddings).
    pub fn time_logme_kernel<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.logme_kernel_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.logme_kernel_calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// `(calls, accumulated wall-clock)` of the batched LogME kernel.
    pub fn logme_kernel(&self) -> (u64, Duration) {
        (
            self.logme_kernel_calls.load(Ordering::Relaxed),
            Duration::from_nanos(self.logme_kernel_nanos.load(Ordering::Relaxed)),
        )
    }

    /// Credits one LogME decomposition to its arm's accumulators. The
    /// duration comes from the scorer's own [`tg_transfer::LogMeReport`]
    /// (measured inside the kernel, a subset of the LogME-kernel time).
    pub fn record_decomp(&self, arm: DecompArm, took: Duration) {
        let i = arm.index();
        let nanos = u64::try_from(took.as_nanos()).unwrap_or(u64::MAX);
        self.decomp_nanos[i].fetch_add(nanos, Ordering::Relaxed);
        self.decomp_calls[i].fetch_add(1, Ordering::Relaxed);
    }

    /// Per-arm `(calls, accumulated wall-clock)` of the LogME
    /// decompositions, indexed by [`DecompArm::index`] (see
    /// [`DecompArm::ALL`] for the order).
    pub fn decomp_arms(&self) -> [(u64, Duration); ARMS] {
        DecompArm::ALL.map(|arm| {
            let i = arm.index();
            (
                self.decomp_calls[i].load(Ordering::Relaxed),
                Duration::from_nanos(self.decomp_nanos[i].load(Ordering::Relaxed)),
            )
        })
    }

    /// Adds `nanos` to a stage accumulator, clamping to `u64::MAX` — an
    /// `as u64` cast would silently wrap an over-wide reading instead.
    fn record(&self, stage: Stage, nanos: u128) {
        let clamped = u64::try_from(nanos).unwrap_or(u64::MAX);
        self.stage_nanos[stage.index()].fetch_add(clamped, Ordering::Relaxed);
    }

    /// Accumulated time of one stage.
    pub fn stage_time(&self, stage: Stage) -> Duration {
        Duration::from_nanos(self.stage_nanos[stage.index()].load(Ordering::Relaxed))
    }
}

/// Point-in-time copy of the workbench's counters, used to compute deltas
/// over a run ([`WorkbenchStats::delta_since`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkbenchStats {
    /// (hits, misses) of the LogME cache.
    pub logme: (u64, u64),
    /// (hits, misses) of the two representation caches combined.
    pub representation: (u64, u64),
    /// (hits, misses) of the pairwise-similarity cache.
    pub similarity: (u64, u64),
    /// Disk-tier counters (all zero when no artifact directory is set).
    pub disk: DiskStats,
    /// Accumulated wall-clock per stage, in [`Stage`] declaration order.
    pub stage_time: [Duration; 3],
    /// `(calls, wall-clock)` of the batched LogME kernel — the evidence
    /// maximisation alone, a subset of the feature-collection stage time.
    pub logme_kernel: (u64, Duration),
    /// Per-arm `(calls, wall-clock)` of the LogME decompositions (a subset
    /// of the kernel time), indexed by
    /// [`DecompArm::index`](tg_transfer::DecompArm::index).
    pub decomp: [(u64, Duration); ARMS],
    /// High-water mark of autograd tape residency in bytes
    /// ([`tg_autograd::global_peak_tape_bytes`]). Process-global and a
    /// *gauge*, not a counter: [`WorkbenchStats::delta_since`] reports the
    /// later snapshot's value unchanged.
    pub peak_tape_bytes: u64,
    /// Blocks produced by the neighbour sampler
    /// ([`tg_graph::sampler_counters`]). Process-global monotone counter.
    pub sampler_blocks: u64,
    /// Sampled edges across those blocks. Process-global monotone counter.
    pub sampler_edges: u64,
}

impl WorkbenchStats {
    /// Counter movement between an earlier snapshot and this one.
    pub fn delta_since(&self, earlier: &WorkbenchStats) -> WorkbenchStats {
        let sub = |a: (u64, u64), b: (u64, u64)| (a.0 - b.0, a.1 - b.1);
        WorkbenchStats {
            logme: sub(self.logme, earlier.logme),
            representation: sub(self.representation, earlier.representation),
            similarity: sub(self.similarity, earlier.similarity),
            disk: self.disk.delta_since(&earlier.disk),
            stage_time: [
                self.stage_time[0] - earlier.stage_time[0],
                self.stage_time[1] - earlier.stage_time[1],
                self.stage_time[2] - earlier.stage_time[2],
            ],
            logme_kernel: (
                self.logme_kernel.0 - earlier.logme_kernel.0,
                self.logme_kernel.1 - earlier.logme_kernel.1,
            ),
            decomp: std::array::from_fn(|i| {
                (
                    self.decomp[i].0 - earlier.decomp[i].0,
                    self.decomp[i].1 - earlier.decomp[i].1,
                )
            }),
            // A high-water mark cannot be meaningfully subtracted; the
            // delta carries the later gauge reading as-is.
            peak_tape_bytes: self.peak_tape_bytes,
            sampler_blocks: self.sampler_blocks.saturating_sub(earlier.sampler_blocks),
            sampler_edges: self.sampler_edges.saturating_sub(earlier.sampler_edges),
        }
    }

    /// Total cache hits across all caches.
    pub fn hits(&self) -> u64 {
        self.logme.0 + self.representation.0 + self.similarity.0
    }

    /// Total cache misses across all caches.
    pub fn misses(&self) -> u64 {
        self.logme.1 + self.representation.1 + self.similarity.1
    }

    /// Overall hit rate in `[0, 1]`; 1.0 for an untouched workbench.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            1.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Wall-clock attributed to one stage.
    pub fn stage(&self, stage: Stage) -> Duration {
        self.stage_time[stage.index()]
    }

    /// One-line rendering for run summaries.
    pub fn render(&self) -> String {
        let pct = |(h, m): (u64, u64)| {
            if h + m == 0 {
                "n/a".to_string()
            } else {
                format!("{:.1}%", 100.0 * h as f64 / (h + m) as f64)
            }
        };
        let decomp = DecompArm::ALL
            .iter()
            .filter(|arm| self.decomp[arm.index()].0 > 0)
            .map(|arm| {
                let (calls, took) = self.decomp[arm.index()];
                format!("{} {calls}x {took:.3?}", arm.name())
            })
            .collect::<Vec<_>>()
            .join(", ");
        let decomp = if decomp.is_empty() {
            String::new()
        } else {
            format!(" | decomp: {decomp}")
        };
        let minibatch = if self.sampler_blocks > 0 || self.peak_tape_bytes > 0 {
            format!(
                " | minibatch: peak_tape_bytes {}, sampler {} blocks / {} edges",
                self.peak_tape_bytes, self.sampler_blocks, self.sampler_edges,
            )
        } else {
            String::new()
        };
        format!(
            "stages: collection {:.3?} (logme-kernel {}x {:.3?}), graph {:.3?}, \
             regression {:.3?} | \
             cache hit rates: logme {} ({}h/{}m), repr {} ({}h/{}m), sim {} ({}h/{}m) | \
             disk {}h/{}m/{}rej ({}B read, {}B written){}{}",
            self.stage(Stage::FeatureCollection),
            self.logme_kernel.0,
            self.logme_kernel.1,
            self.stage(Stage::GraphLearning),
            self.stage(Stage::Regression),
            pct(self.logme),
            self.logme.0,
            self.logme.1,
            pct(self.representation),
            self.representation.0,
            self.representation.1,
            pct(self.similarity),
            self.similarity.0,
            self.similarity.1,
            self.disk.hits,
            self.disk.misses,
            self.disk.rejected,
            self.disk.bytes_read,
            self.disk.bytes_written,
            decomp,
            minibatch,
        )
    }
}

/// How a workbench holds its zoo: borrowed from the caller (the classic
/// single-zoo shape) or shared via `Arc` (the registry shape, where the
/// [`ZooRegistry`](crate::registry::ZooRegistry) owns N zoos at once and
/// hands out `'static` workbench views).
enum ZooRef<'z> {
    Borrowed(&'z ModelZoo),
    Shared(Arc<ModelZoo>),
}

impl ZooRef<'_> {
    fn get(&self) -> &ModelZoo {
        match self {
            ZooRef::Borrowed(z) => z,
            ZooRef::Shared(z) => z,
        }
    }
}

/// Shared caches over one zoo: a thin view pairing an [`ArtifactStore`]
/// with the zoo whose artifacts it holds.
///
/// All lookup methods take `&self`: experiment harnesses warm one workbench
/// (e.g. [`Workbench::warm_logme`]) and hand `&Workbench` to every worker
/// thread. The workbench is deliberately *not* `Clone` — cloning a cache
/// per thread (the pre-parallel-runner design) silently forfeits sharing.
/// (Two *views* over the same `Arc`ed store, via
/// [`Workbench::from_parts`], do share — that is the registry's
/// [`ZooHandle`](crate::registry::ZooHandle) shape.)
///
/// With an artifact directory ([`Workbench::open`] with
/// [`StoreOptions::in_dir`], or `TG_ARTIFACT_DIR` via
/// [`Workbench::from_env`]) the store adds a disk tier: previously
/// [`persist`](Workbench::persist)ed collection artifacts of the *same zoo
/// fingerprint* are served instead of recomputed, making a warm re-run
/// collection-free while keeping results bit-identical. `TGARTv2` files
/// are read once when the store opens and served by index lookup; see
/// [`crate::store`] for the tiering and the cross-process
/// merge-on-persist protocol.
///
/// ```
/// use tg_zoo::{Modality, ModelZoo, ZooConfig};
/// use transfergraph::Workbench;
///
/// let zoo = ModelZoo::build(&ZooConfig::small(42));
/// let wb = Workbench::new(&zoo); // memory-only caches
/// let m = zoo.models_of(Modality::Image)[0];
/// let d = zoo.targets_of(Modality::Image)[0];
/// // Second lookup is a cache hit, bit-identical to the first.
/// assert_eq!(wb.logme(m, d), wb.logme(m, d));
/// assert_eq!(wb.stats().logme, (1, 1));
/// ```
pub struct Workbench<'z> {
    zoo: ZooRef<'z>,
    store: Arc<ArtifactStore>,
}

impl<'z> Workbench<'z> {
    /// New memory-only workbench over a zoo.
    pub fn new(zoo: &'z ModelZoo) -> Self {
        Workbench {
            store: Arc::new(ArtifactStore::new(zoo.config.fingerprint())),
            zoo: ZooRef::Borrowed(zoo),
        }
    }

    /// Workbench whose store is backed per `options` — the primary
    /// disk-backed constructor. Existing artifacts of this zoo's
    /// fingerprint are warmed immediately.
    pub fn open(zoo: &'z ModelZoo, options: StoreOptions) -> Self {
        Workbench {
            store: Arc::new(ArtifactStore::open(zoo.config.fingerprint(), options)),
            zoo: ZooRef::Borrowed(zoo),
        }
    }

    /// Workbench configured from the environment: disk-backed when
    /// `TG_ARTIFACT_DIR` is set and non-empty, memory-only otherwise.
    pub fn from_env(zoo: &'z ModelZoo) -> Self {
        Self::open(zoo, StoreOptions::from_env())
    }

    /// Workbench view over a shared zoo and a shared store — the ownership
    /// shape of the multi-zoo [`ZooRegistry`](crate::registry::ZooRegistry),
    /// whose handles own their zoo rather than borrowing it from a caller.
    /// Any number of views over the same `Arc`s share one cache.
    ///
    /// # Panics
    ///
    /// Panics when the store's fingerprint does not match the zoo's — a
    /// cross-wired pair would silently serve one world's artifacts to
    /// another.
    pub fn from_parts(zoo: Arc<ModelZoo>, store: Arc<ArtifactStore>) -> Workbench<'static> {
        assert_eq!(
            zoo.config.fingerprint(),
            store.fingerprint(),
            "Workbench::from_parts: store fingerprint does not match the zoo"
        );
        Workbench {
            zoo: ZooRef::Shared(zoo),
            store,
        }
    }

    /// The underlying zoo.
    pub fn zoo(&self) -> &ModelZoo {
        self.zoo.get()
    }

    /// The underlying artifact store.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// The artifact directory, when the disk tier is active.
    pub fn artifact_dir(&self) -> Option<&Path> {
        self.store.dir()
    }

    /// Writes every cached artifact to the store's disk tier (atomic,
    /// synced temp-file + rename per cache file). A no-op without an
    /// artifact directory.
    pub fn persist(&self) -> io::Result<PersistStats> {
        self.store.persist()
    }

    /// The workbench's stage timers (used by [`mod@crate::evaluate`] to
    /// attribute graph-learning and regression time).
    pub fn telemetry(&self) -> &Telemetry {
        &self.store.telemetry
    }

    /// LogME score of model `m` on dataset `d` (forward pass + batched
    /// evidence maximisation), cached. The kernel portion is additionally
    /// attributed to the dedicated LogME-kernel telemetry, and the
    /// decomposition inside it to the per-arm decomposition telemetry.
    ///
    /// Always [`LogMe::default`]: the auto heuristic, which picks the Gram
    /// path at the simulator's tall shapes. A fixed scorer keeps every
    /// cached (and persisted) value a pure function of its key.
    pub fn logme(&self, m: ModelId, d: DatasetId) -> f64 {
        let disk = self.store.disk_enabled();
        self.store.logme.get_or_insert_with((m, d), disk, || {
            self.telemetry().time(Stage::FeatureCollection, || {
                let fp = self.zoo.get().forward_pass(m, d);
                let scored = Labels::new(&fp.labels, fp.num_classes).and_then(|labels| {
                    self.telemetry().time_logme_kernel(|| {
                        LogMe::default().score_with_report(&fp.features, &labels)
                    })
                });
                if let Ok((_, report)) = &scored {
                    self.telemetry().record_decomp(report.arm, report.decomp);
                }
                // Simulator forward passes are valid by construction; a
                // score error here flags a zoo bug worth crashing on.
                assert!(
                    scored.is_ok(),
                    "workbench logme({m:?}, {d:?}): {}",
                    scored
                        .as_ref()
                        .err()
                        .map(|e| e.to_string())
                        .unwrap_or_default()
                );
                scored.map(|(score, _)| score).unwrap_or_default()
            })
        })
    }

    /// Dataset representation under the chosen scheme, cached. The returned
    /// `Arc` shares the cached buffer — cloning it is O(1).
    pub fn representation(&self, d: DatasetId, rep: Representation) -> Arc<[f64]> {
        let cache = match rep {
            Representation::DomainSimilarity => &self.store.ds_embed,
            Representation::Task2Vec => &self.store.t2v_embed,
        };
        cache.get_or_insert_with(d, self.store.disk_enabled(), || {
            self.telemetry().time(Stage::FeatureCollection, || {
                let v = match rep {
                    Representation::DomainSimilarity => {
                        self.zoo.get().domain_similarity_embedding(d)
                    }
                    Representation::Task2Vec => self.zoo.get().task2vec_embedding(d),
                };
                Arc::from(v)
            })
        })
    }

    /// Similarity `φ` between two datasets under the chosen representation
    /// (correlation similarity of the embeddings), cached and symmetric.
    pub fn similarity(&self, a: DatasetId, b: DatasetId, rep: Representation) -> f64 {
        let key = if a.0 <= b.0 { (rep, a, b) } else { (rep, b, a) };
        let disk = self.store.disk_enabled();
        self.store.similarity.get_or_insert_with(key, disk, || {
            let ea = self.representation(a, rep);
            let eb = self.representation(b, rep);
            self.telemetry().time(Stage::FeatureCollection, || {
                tg_linalg::distance::correlation_similarity(&ea, &eb)
            })
        })
    }

    /// Pre-computes LogME for every (model, target-dataset) pair of a
    /// modality through the runner's shared worker pool
    /// ([`crate::runner::drain_indexed`]), fanning out over all available
    /// cores. Called by experiment harnesses to front-load the expensive
    /// part before timing the pipeline; afterwards every worker thread hits
    /// a warm cache. Returns the number of worker threads actually used, so
    /// callers can report it truthfully instead of re-deriving it.
    pub fn warm_logme(&self, modality: Modality) -> usize {
        let models = self.zoo.get().models_of(modality);
        let targets = self.zoo.get().targets_of(modality);
        let pairs: Vec<(ModelId, DatasetId)> = models
            .iter()
            .flat_map(|&m| targets.iter().map(move |&d| (m, d)))
            .collect();
        let workers = crate::runner::default_workers(pairs.len());
        crate::runner::drain_indexed(pairs.len(), workers, |i| {
            let (m, d) = pairs[i];
            self.logme(m, d);
        });
        workers
    }

    /// Number of cached LogME entries (diagnostic).
    pub fn logme_cache_len(&self) -> usize {
        self.store.logme.len()
    }

    /// Snapshot of cache counters, disk-tier counters and stage timers.
    pub fn stats(&self) -> WorkbenchStats {
        let sum = |a: (u64, u64), b: (u64, u64)| (a.0 + b.0, a.1 + b.1);
        let (sampler_blocks, sampler_edges) = tg_graph::sampler_counters();
        WorkbenchStats {
            logme: self.store.logme.counters(),
            representation: sum(
                self.store.ds_embed.counters(),
                self.store.t2v_embed.counters(),
            ),
            similarity: self.store.similarity.counters(),
            disk: self.store.disk_stats(),
            stage_time: [
                self.telemetry().stage_time(Stage::FeatureCollection),
                self.telemetry().stage_time(Stage::GraphLearning),
                self.telemetry().stage_time(Stage::Regression),
            ],
            logme_kernel: self.telemetry().logme_kernel(),
            decomp: self.telemetry().decomp_arms(),
            peak_tape_bytes: tg_autograd::global_peak_tape_bytes(),
            sampler_blocks,
            sampler_edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_zoo::ZooConfig;

    #[test]
    fn telemetry_record_saturates_instead_of_truncating() {
        let t = Telemetry::default();
        t.record(Stage::Regression, 1_500);
        assert_eq!(t.stage_time(Stage::Regression), Duration::from_nanos(1_500));
        // A reading wider than u64 clamps to the maximum representable
        // duration; the old `as u64` cast wrapped it to near-zero garbage.
        let t = Telemetry::default();
        t.record(Stage::Regression, u128::from(u64::MAX) + 12_345);
        assert_eq!(
            t.stage_time(Stage::Regression),
            Duration::from_nanos(u64::MAX)
        );
    }

    #[test]
    fn logme_kernel_telemetry_counts_misses_only() {
        let zoo = ModelZoo::build(&ZooConfig::small(7));
        let wb = Workbench::new(&zoo);
        let m = zoo.models_of(Modality::Image)[0];
        let ds = zoo.targets_of(Modality::Image);
        wb.logme(m, ds[0]);
        wb.logme(m, ds[1]);
        wb.logme(m, ds[0]); // cache hit: no kernel invocation
        let stats = wb.stats();
        assert_eq!(stats.logme_kernel.0, 2);
        assert!(stats.logme_kernel.1 <= stats.stage(Stage::FeatureCollection));
        assert!(stats.render().contains("logme-kernel 2x"));
        // Deltas subtract kernel counters like every other counter.
        let before = wb.stats();
        wb.logme(m, ds[2]);
        let delta = wb.stats().delta_since(&before);
        assert_eq!(delta.logme_kernel.0, 1);
    }

    #[test]
    fn logme_is_cached_and_stable() {
        let zoo = ModelZoo::build(&ZooConfig::small(1));
        let wb = Workbench::new(&zoo);
        let m = zoo.models_of(Modality::Image)[0];
        let d = zoo.targets_of(Modality::Image)[0];
        let s1 = wb.logme(m, d);
        let s2 = wb.logme(m, d);
        assert_eq!(s1, s2);
        assert_eq!(wb.logme_cache_len(), 1);
        let stats = wb.stats();
        assert_eq!(stats.logme, (1, 1));
    }

    #[test]
    fn similarity_symmetric_via_cache() {
        let zoo = ModelZoo::build(&ZooConfig::small(2));
        let wb = Workbench::new(&zoo);
        let ds = zoo.targets_of(Modality::Image);
        let s1 = wb.similarity(ds[0], ds[1], Representation::DomainSimilarity);
        let s2 = wb.similarity(ds[1], ds[0], Representation::DomainSimilarity);
        assert_eq!(s1, s2);
    }

    #[test]
    fn representations_differ_by_scheme() {
        let zoo = ModelZoo::build(&ZooConfig::small(3));
        let wb = Workbench::new(&zoo);
        let d = zoo.targets_of(Modality::Image)[0];
        let a = wb.representation(d, Representation::DomainSimilarity);
        let b = wb.representation(d, Representation::Task2Vec);
        assert_ne!(a.len(), b.len());
    }

    #[test]
    fn concurrent_reads_agree_with_sequential() {
        let zoo = ModelZoo::build(&ZooConfig::small(4));
        let wb = Workbench::new(&zoo);
        let m = zoo.models_of(Modality::Image)[0];
        let ds = zoo.targets_of(Modality::Image);
        let sequential: Vec<f64> = ds.iter().map(|&d| wb.logme(m, d)).collect();
        let fresh = Workbench::new(&zoo);
        let fresh = &fresh;
        let concurrent: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = ds
                .iter()
                .map(|&d| scope.spawn(move || fresh.logme(m, d)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(sequential, concurrent);
    }

    #[test]
    fn warm_logme_fills_the_full_grid() {
        let zoo = ModelZoo::build(&ZooConfig::small(5));
        let wb = Workbench::new(&zoo);
        wb.warm_logme(Modality::Image);
        let expected = zoo.models_of(Modality::Image).len() * zoo.targets_of(Modality::Image).len();
        assert_eq!(wb.logme_cache_len(), expected);
        // Warming again is all hits: no new entries, no new misses.
        let misses_before = wb.stats().logme.1;
        wb.warm_logme(Modality::Image);
        assert_eq!(wb.logme_cache_len(), expected);
        assert_eq!(wb.stats().logme.1, misses_before);
    }

    #[test]
    fn warm_logme_reports_the_worker_count_it_used() {
        let zoo = ModelZoo::build(&ZooConfig::small(9));
        let wb = Workbench::new(&zoo);
        let workers = wb.warm_logme(Modality::Image);
        assert!(workers >= 1);
        let pairs = zoo.models_of(Modality::Image).len() * zoo.targets_of(Modality::Image).len();
        assert_eq!(workers, crate::runner::default_workers(pairs));
    }

    #[test]
    fn decomp_telemetry_credits_one_arm_per_miss() {
        let zoo = ModelZoo::build(&ZooConfig::small(8));
        let wb = Workbench::new(&zoo);
        let m = zoo.models_of(Modality::Image)[0];
        let d = zoo.targets_of(Modality::Image)[0];
        wb.logme(m, d);
        let stats = wb.stats();
        let calls: u64 = stats.decomp.iter().map(|(c, _)| c).sum();
        assert_eq!(calls, 1, "exactly one decomposition per cold miss");
        // A cache hit must not record another decomposition.
        wb.logme(m, d);
        let again: u64 = wb.stats().decomp.iter().map(|(c, _)| c).sum();
        assert_eq!(again, 1);
        // The active arm shows up in the rendered summary line.
        assert!(wb.stats().render().contains("decomp:"));
    }

    #[test]
    fn stats_delta_isolates_a_run() {
        let zoo = ModelZoo::build(&ZooConfig::small(6));
        let wb = Workbench::new(&zoo);
        let m = zoo.models_of(Modality::Image)[0];
        let d = zoo.targets_of(Modality::Image)[0];
        wb.logme(m, d);
        let before = wb.stats();
        wb.logme(m, d);
        wb.logme(m, d);
        let delta = wb.stats().delta_since(&before);
        assert_eq!(delta.logme, (2, 0));
        assert_eq!(delta.hit_rate(), 1.0);
    }

    #[test]
    fn workbench_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<Workbench<'_>>();
    }
}
