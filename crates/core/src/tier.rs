//! The two tiers of one artifact cache.
//!
//! A [`TieredCache`] is a sharded memory map in front of an optional
//! [`DiskTier`]: the `TGARTv2` file the store read at open, served by
//! index binary search plus single-record decode. The disk tier is
//! fixed when the cache is built and never changes afterwards, so
//! lookups query it without a lock.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use crate::format::ArtifactView;
use crate::store::{ArtifactKind, DiskCodec};
use crate::sync::{rank_guard, unpoisoned, Rank};

/// Number of lock shards per in-memory cache. A small power of two: enough
/// to keep writer contention negligible for tens of worker threads without
/// bloating the struct.
const SHARDS: usize = 16;

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

// ---------------------------------------------------------------------------
// Disk tier
// ---------------------------------------------------------------------------

/// A `TGARTv2` file held as owned bytes: every lookup encodes the key,
/// binary-searches the index, and decodes exactly one record.
struct DiskTier<K, V> {
    view: ArtifactView,
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K: DiskCodec, V: DiskCodec> DiskTier<K, V> {
    fn get(&self, key: &K) -> Option<V> {
        let mut kb = Vec::new();
        key.encode(&mut kb);
        let value_bytes = self.view.lookup(&kb)?;
        let mut pos = 0;
        let v = V::decode(value_bytes, &mut pos)?;
        // A record with value bytes left over would be a codec drift
        // between writer and reader: refuse to serve it.
        (pos == value_bytes.len()).then_some(v)
    }

    /// Visits every decodable entry (merge-on-persist input).
    fn for_each(&self, mut f: impl FnMut(K, V)) {
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
}

// ---------------------------------------------------------------------------
// Tiered cache
// ---------------------------------------------------------------------------

/// One typed cache with a memory tier, an optional disk tier and
/// fall-through counters.
///
/// A lookup falls through: memory hit → disk-tier hit (promoted into
/// memory) → compute (counted as a miss; a disk miss too when a disk
/// tier is enabled). The miss counter therefore equals the number of
/// *computations*, which is what makes "zero misses on a warm run" a
/// meaningful assertion.
pub(crate) struct TieredCache<K, V> {
    kind: ArtifactKind,
    mem: ShardedCache<K, V>,
    /// Per-entry byte cost of a memory entry, for [`approx_bytes`](Self::approx_bytes).
    cost: fn(&K, &V) -> u64,
    disk: Option<DiskTier<K, V>>,
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
    /// A cache of `kind` whose disk tier, when present, serves `disk`.
    pub(crate) fn new(
        kind: ArtifactKind,
        cost: fn(&K, &V) -> u64,
        disk: Option<ArtifactView>,
    ) -> Self {
        TieredCache {
            kind,
            mem: ShardedCache::new(),
            cost,
            disk: disk.map(|view| DiskTier {
                view,
                _marker: PhantomData,
            }),
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

    /// Returns the cached value for `key`, computing and inserting it when
    /// every tier misses. `compute` runs *outside* any lock.
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
            if let Some(v) = self.disk.as_ref().and_then(|disk| disk.get(&key)) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                return self.mem.insert(key, v);
            }
            self.disk_misses.fetch_add(1, Ordering::Relaxed);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = compute();
        self.mem.insert(key, v)
    }

    /// Entries in the memory tier.
    pub(crate) fn len(&self) -> usize {
        self.mem.len()
    }

    /// Entries in the disk tier (0 when the store read no file for it).
    pub(crate) fn disk_len(&self) -> usize {
        self.disk.as_ref().map_or(0, |disk| disk.view.count())
    }

    /// Visits every disk-tier entry, then every memory-tier entry
    /// (merge-on-persist input).
    pub(crate) fn for_each(&self, mut f: impl FnMut(K, V)) {
        if let Some(disk) = &self.disk {
            disk.for_each(&mut f);
        }
        self.mem.for_each(|k, v| f(k.clone(), v.clone()));
    }

    /// Approximate bytes across both tiers. Entries promoted from disk
    /// into memory are counted twice — acceptable for an eviction
    /// heuristic, which only needs a stable over-estimate.
    pub(crate) fn approx_bytes(&self) -> u64 {
        let mut mem = 0;
        self.mem.for_each(|k, v| mem += (self.cost)(k, v));
        let disk = self.disk.as_ref().map_or(0, |disk| disk.view.byte_len());
        mem + disk as u64
    }

    /// Aggregate (hit, miss) counters — a disk-promoted hit counts as a
    /// hit here, so misses == computations.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// (hit, miss) counters of the disk-tier fall-through.
    pub(crate) fn disk_counters(&self) -> (u64, u64) {
        (
            self.disk_hits.load(Ordering::Relaxed),
            self.disk_misses.load(Ordering::Relaxed),
        )
    }
}
