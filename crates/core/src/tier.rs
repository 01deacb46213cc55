//! The two tiers of the artifact store, with explicit per-tier
//! [`TierStats`].
//!
//! A [`TieredCache`] owns a [`MemoryTier`] plus one optional *warm
//! tier* slot holding the [`MappedTier`] a warm start produced: a
//! `TGARTv2` file served by index search + single-record decode, out of
//! a memory mapping or (mmap off or unavailable) owned bytes.
//!
//! Lock shape: the warm slot is an `RwLock<Option<Arc<MappedTier>>>` at
//! rank `store_shard`. Readers clone the `Arc` out under the read
//! guard and query the tier *outside* the lock — the tier is
//! immutable after construction (its stats are atomics), so the slot
//! guard is held only for the pointer copy.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::format::ArtifactView;
use crate::store::{ArtifactKind, DiskCodec};
use crate::sync::{rank_guard, unpoisoned, Rank};

/// Number of lock shards per in-memory cache. A small power of two: enough
/// to keep writer contention negligible for tens of worker threads without
/// bloating the struct.
const SHARDS: usize = 16;

/// Which backing a tier serves from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TierKind {
    /// The sharded in-memory maps every worker thread shares.
    Memory,
    /// A `TGARTv2` file read into owned bytes at warm start (mmap
    /// disabled via `TG_ARTIFACT_MMAP` or unavailable): served by the
    /// same index lookup as [`TierKind::MappedDisk`].
    DecodedDisk,
    /// A `TGARTv2` file served in place from a memory mapping: index
    /// binary search plus single-record decode, no up-front parse of
    /// the payload.
    MappedDisk,
}

impl TierKind {
    /// Stable lowercase name (used in stats rendering and bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            TierKind::Memory => "memory",
            TierKind::DecodedDisk => "decoded-disk",
            TierKind::MappedDisk => "mapped-disk",
        }
    }
}

/// Counters of one tier of one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Lookups this tier answered.
    pub hits: u64,
    /// Lookups that reached this tier and fell through.
    pub misses: u64,
    /// Entries the tier holds (memory: live map size; disk tiers: the
    /// record count of the backing artifact).
    pub entries: u64,
    /// Approximate bytes behind the tier (memory: estimated heap;
    /// disk: file size — page cache rather than heap when mapped, but
    /// it bounds what a reload would touch).
    pub bytes: u64,
}

// ---------------------------------------------------------------------------
// Memory tier
// ---------------------------------------------------------------------------

/// A concurrent map sharded across [`SHARDS`] reader-writer locks.
pub(crate) struct ShardedCache<K, V> {
    shards: Vec<RwLock<HashMap<K, V>>>,
}

impl<K: Eq + Hash, V: Clone> ShardedCache<K, V> {
    fn new() -> Self {
        ShardedCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    fn get(&self, key: &K) -> Option<V> {
        let _rank = rank_guard(Rank::CacheShard);
        unpoisoned(self.shard(key).read()).get(key).cloned()
    }

    /// Inserts `value` unless the key is already present (first insert wins —
    /// cached values are pure functions of the key, so a racing duplicate is
    /// bit-identical) and returns the stored value.
    fn insert(&self, key: K, value: V) -> V {
        let _rank = rank_guard(Rank::CacheShard);
        unpoisoned(self.shard(&key).write())
            .entry(key)
            .or_insert(value)
            .clone()
    }

    fn len(&self) -> usize {
        let _rank = rank_guard(Rank::CacheShard);
        self.shards
            .iter()
            .map(|shard| unpoisoned(shard.read()).len())
            .sum()
    }

    fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        let _rank = rank_guard(Rank::CacheShard);
        for shard in &self.shards {
            for (k, v) in unpoisoned(shard.read()).iter() {
                f(k, v);
            }
        }
    }
}

/// The memory tier: a [`ShardedCache`] plus its own hit/miss counters.
pub(crate) struct MemoryTier<K, V> {
    map: ShardedCache<K, V>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Per-entry byte cost for [`TierStats::bytes`]; set by the store,
    /// which knows each cache's value shape.
    cost: fn(&K, &V) -> u64,
}

impl<K: Eq + Hash + Clone, V: Clone> MemoryTier<K, V> {
    fn new(cost: fn(&K, &V) -> u64) -> Self {
        MemoryTier {
            map: ShardedCache::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            cost,
        }
    }

    fn insert(&self, key: K, value: V) -> V {
        self.map.insert(key, value)
    }

    /// Looks `key` up, counting a hit or miss.
    fn get(&self, key: &K) -> Option<V> {
        let found = self.map.get(key);
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn entries(&self) -> usize {
        self.map.len()
    }

    fn bytes(&self) -> u64 {
        let mut total = 0;
        self.map.for_each(|k, v| total += (self.cost)(k, v));
        total
    }

    fn for_each(&self, mut f: impl FnMut(K, V)) {
        self.map.for_each(|k, v| f(k.clone(), v.clone()));
    }

    fn stats(&self) -> TierStats {
        TierStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries() as u64,
            bytes: self.bytes(),
        }
    }
}

// ---------------------------------------------------------------------------
// Disk tier
// ---------------------------------------------------------------------------

/// A `TGARTv2` file served in place: every lookup encodes the key,
/// binary-searches the index, and decodes exactly one record. The
/// backing may be a memory mapping (zero-copy warm start) or owned
/// bytes (the portable fallback) — the tier is agnostic.
pub(crate) struct MappedTier<K, V> {
    view: ArtifactView,
    hits: AtomicU64,
    misses: AtomicU64,
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K, V> MappedTier<K, V> {
    pub(crate) fn new(view: ArtifactView) -> Self {
        MappedTier {
            view,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            _marker: PhantomData,
        }
    }
}

impl<K: DiskCodec, V: DiskCodec> MappedTier<K, V> {
    /// Which backing serves the file: a mapping, or owned bytes.
    fn kind(&self) -> TierKind {
        if self.view.is_mapped() {
            TierKind::MappedDisk
        } else {
            TierKind::DecodedDisk
        }
    }

    /// Looks `key` up, counting a hit or miss.
    fn get(&self, key: &K) -> Option<V> {
        let mut kb = Vec::new();
        key.encode(&mut kb);
        let decoded = self.view.lookup(&kb).and_then(|value_bytes| {
            let mut pos = 0;
            let v = V::decode(value_bytes, &mut pos)?;
            // A record with value bytes left over would be a codec
            // drift between writer and reader: refuse to serve it.
            (pos == value_bytes.len()).then_some(v)
        });
        match decoded {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        decoded
    }

    fn bytes(&self) -> u64 {
        self.view.byte_len() as u64
    }

    /// Visits every decodable entry (merge-on-persist input).
    pub(crate) fn for_each(&self, mut f: impl FnMut(K, V)) {
        for i in 0..self.view.count() {
            let record = self.view.record(i);
            let mut pos = 0;
            let Some(k) = K::decode(record, &mut pos) else {
                continue;
            };
            let Some(v) = V::decode(record, &mut pos) else {
                continue;
            };
            f(k, v);
        }
    }

    fn stats(&self) -> TierStats {
        TierStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.view.count() as u64,
            bytes: self.view.byte_len() as u64,
        }
    }
}

// ---------------------------------------------------------------------------
// Tiered cache
// ---------------------------------------------------------------------------

/// One typed cache with a memory tier, an optional warm (disk) tier
/// and fall-through counters.
///
/// A lookup falls through: memory hit → warm-tier hit (promoted into
/// memory) → compute (counted as a miss; a disk miss too when a disk
/// tier is enabled). The miss counter therefore equals the number of
/// *computations*, which is what makes "zero misses on a warm run" a
/// meaningful assertion.
pub(crate) struct TieredCache<K, V> {
    kind: ArtifactKind,
    mem: MemoryTier<K, V>,
    /// The warm tier swapped in at warm start; rank `store_shard`.
    /// Readers clone the `Arc` out and drop the guard before querying.
    warm: RwLock<Option<Arc<MappedTier<K, V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
}

impl<K, V> TieredCache<K, V>
where
    K: DiskCodec + Eq + Hash + Clone,
    V: DiskCodec + Clone,
{
    pub(crate) fn new(kind: ArtifactKind, cost: fn(&K, &V) -> u64) -> Self {
        TieredCache {
            kind,
            mem: MemoryTier::new(cost),
            warm: RwLock::new(None),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
        }
    }

    /// Which artifact this cache stores.
    pub(crate) fn kind(&self) -> ArtifactKind {
        self.kind
    }

    /// The current warm tier, if a warm start installed one.
    pub(crate) fn warm_tier(&self) -> Option<Arc<MappedTier<K, V>>> {
        let _rank = rank_guard(Rank::StoreShard);
        unpoisoned(self.warm.read()).clone()
    }

    /// Installs (or replaces) the warm tier.
    pub(crate) fn set_warm(&self, tier: Arc<MappedTier<K, V>>) {
        let _rank = rank_guard(Rank::StoreShard);
        *unpoisoned(self.warm.write()) = Some(tier);
    }

    /// Returns the cached value for `key`, computing and inserting it when
    /// every tier misses. `compute` runs *outside* any lock, and so do the
    /// warm-tier queries (the slot guard is held only to clone the `Arc`).
    pub(crate) fn get_or_insert_with(
        &self,
        key: K,
        disk_enabled: bool,
        compute: impl FnOnce() -> V,
    ) -> V {
        if let Some(v) = self.mem.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        if disk_enabled {
            if let Some(tier) = self.warm_tier() {
                if let Some(v) = tier.get(&key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    return self.mem.insert(key, v);
                }
            }
            self.disk_misses.fetch_add(1, Ordering::Relaxed);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = compute();
        self.mem.insert(key, v)
    }

    /// Entries in the memory tier.
    pub(crate) fn len(&self) -> usize {
        self.mem.entries()
    }

    /// Visits every memory-tier entry (merge-on-persist input).
    pub(crate) fn mem_for_each(&self, f: impl FnMut(K, V)) {
        self.mem.for_each(f);
    }

    /// Approximate bytes across both tiers. Entries promoted from disk
    /// into memory are counted twice — acceptable for an eviction
    /// heuristic, which only needs a stable over-estimate.
    pub(crate) fn approx_bytes(&self) -> u64 {
        let warm = self.warm_tier().map(|t| t.bytes()).unwrap_or(0);
        self.mem.bytes() + warm
    }

    /// Aggregate (hit, miss) counters — a disk-promoted hit counts as a
    /// hit here, so misses == computations.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// (hit, miss) counters of the warm tier fall-through.
    pub(crate) fn disk_counters(&self) -> (u64, u64) {
        (
            self.disk_hits.load(Ordering::Relaxed),
            self.disk_misses.load(Ordering::Relaxed),
        )
    }

    /// Per-tier stats, memory first, then the warm tier when present.
    pub(crate) fn tier_stats(&self) -> Vec<(TierKind, TierStats)> {
        let mut out = vec![(TierKind::Memory, self.mem.stats())];
        if let Some(tier) = self.warm_tier() {
            out.push((tier.kind(), tier.stats()));
        }
        out
    }
}
