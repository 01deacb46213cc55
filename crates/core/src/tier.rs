//! The two tiers of one artifact cache.
//!
//! A [`TieredCache`] is a sharded memory map in front of an optional
//! [`DiskTier`]: the `TGARTv2` file the store read at open, served by
//! index binary search plus single-record decode. The disk tier is
//! fixed when the cache is built and never changes afterwards, so
//! lookups query it without a lock. The memory tier is insert-only, so
//! its byte count is one counter bumped by each insert that wins, and
//! reading it takes no lock.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use crate::format::ArtifactView;
use crate::store::{ArtifactKind, DiskCodec};
use tg_sync::{hold_lock, unpoisoned};

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

impl<K: Eq + Hash + Clone, V: Clone> ShardedCache<K, V> {
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
        let _held = hold_lock();
        unpoisoned(self.shard(key).read()).get(key).cloned()
    }

    /// Inserts `value` unless the key is already present (first insert wins —
    /// cached values are pure functions of the key, so a racing duplicate is
    /// bit-identical) and returns the stored value and whether this call
    /// stored it.
    fn insert(&self, key: K, value: V) -> (V, bool) {
        let _held = hold_lock();
        match unpoisoned(self.shard(&key).write()).entry(key) {
            Entry::Occupied(stored) => (stored.get().clone(), false),
            Entry::Vacant(slot) => (slot.insert(value).clone(), true),
        }
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                let _held = hold_lock();
                unpoisoned(shard.read()).len()
            })
            .sum()
    }

    /// Clones every entry, one shard lock at a time.
    fn entries(&self) -> Vec<(K, V)> {
        let mut entries = Vec::new();
        for shard in &self.shards {
            let _held = hold_lock();
            let map = unpoisoned(shard.read());
            entries.extend(map.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        entries
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
    /// The cost summed over every memory entry: bumped by each insert
    /// that wins, never lowered (the memory tier is insert-only).
    mem_bytes: AtomicU64,
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
            mem_bytes: AtomicU64::new(0),
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
                return self.insert(key, v);
            }
            self.disk_misses.fetch_add(1, Ordering::Relaxed);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = compute();
        self.insert(key, v)
    }

    /// Inserts into the memory tier, counting the entry's bytes when this
    /// call stored it.
    fn insert(&self, key: K, value: V) -> V {
        let cost = (self.cost)(&key, &value);
        let (stored, won) = self.mem.insert(key, value);
        if won {
            self.mem_bytes.fetch_add(cost, Ordering::Relaxed);
        }
        stored
    }

    /// Entries in the memory tier.
    pub(crate) fn len(&self) -> usize {
        self.mem.len()
    }

    /// Entries in the disk tier (0 when the store read no file for it).
    pub(crate) fn disk_len(&self) -> usize {
        self.disk.as_ref().map_or(0, |disk| disk.view.count())
    }

    /// Visits every disk-tier entry (merge-on-persist input). The disk
    /// tier never changes after open, so this takes no lock.
    pub(crate) fn for_each_on_disk(&self, f: impl FnMut(K, V)) {
        if let Some(disk) = &self.disk {
            disk.for_each(f);
        }
    }

    /// A snapshot of the memory tier, taken one shard lock at a time
    /// (merge-on-persist input).
    pub(crate) fn entries(&self) -> Vec<(K, V)> {
        self.mem.entries()
    }

    /// Approximate bytes across both tiers, read without a lock. Entries
    /// promoted from disk into memory are counted twice — acceptable for
    /// an eviction heuristic, which only needs a stable over-estimate.
    pub(crate) fn approx_bytes(&self) -> u64 {
        let disk = self.disk.as_ref().map_or(0, |disk| disk.view.byte_len());
        self.mem_bytes.load(Ordering::Relaxed) + disk as u64
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::encode_v2;
    use std::sync::Arc;

    fn cost(_: &u64, v: &Arc<[f64]>) -> u64 {
        8 + 16 + v.len() as u64 * 8
    }

    /// The value cached under `key`: its length varies with the key.
    fn value(key: u64) -> Arc<[f64]> {
        Arc::from(vec![key as f64; (key % 7) as usize])
    }

    /// What the counter must read: the cost over a walk of the memory
    /// tier plus the disk tier's bytes.
    fn walked_bytes(cache: &TieredCache<u64, Arc<[f64]>>) -> u64 {
        let mem: u64 = cache.entries().iter().map(|(k, v)| cost(k, v)).sum();
        let disk = cache.disk.as_ref().map_or(0, |disk| disk.view.byte_len());
        mem + disk as u64
    }

    /// Two threads look up the same keys in lockstep. Each computation
    /// waits until the other thread has missed the same key too, so every
    /// computed key is inserted twice, and one of the two inserts loses.
    fn race(cache: &TieredCache<u64, Arc<[f64]>>, keys: std::ops::Range<u64>) {
        let both_missed = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let (keys, both_missed) = (keys.clone(), &both_missed);
                scope.spawn(move || {
                    for key in keys {
                        cache.get_or_insert_with(key, true, || {
                            both_missed.wait();
                            value(key)
                        });
                    }
                });
            }
        });
    }

    #[test]
    fn counted_bytes_equal_a_full_walk_after_racing_inserts() {
        let cache = TieredCache::new(ArtifactKind::DsEmbed, cost, None);
        assert_eq!(cache.approx_bytes(), 0);
        race(&cache, 0..64);
        assert_eq!(cache.len(), 64);
        assert_eq!(cache.counters().1, 2 * 64, "both threads computed each key");
        let each_once: u64 = (0..64).map(|key| cost(&key, &value(key))).sum();
        assert_eq!(cache.approx_bytes(), each_once);
        assert_eq!(cache.approx_bytes(), walked_bytes(&cache));
    }

    #[test]
    fn counted_bytes_equal_a_full_walk_after_disk_promotions() {
        let records = (0..32u64)
            .map(|key| {
                let (mut kb, mut vb) = (Vec::new(), Vec::new());
                key.encode(&mut kb);
                value(key).encode(&mut vb);
                (kb, vb)
            })
            .collect();
        let tag = ArtifactKind::DsEmbed.tag();
        let view = ArtifactView::parse(encode_v2(tag, 7, records), tag, 7).unwrap();
        let cache = TieredCache::new(ArtifactKind::DsEmbed, cost, Some(view));
        let on_disk = walked_bytes(&cache);
        assert!(on_disk > 0);
        assert_eq!(cache.approx_bytes(), on_disk);
        // Keys 16..32 promote from disk; both threads compute 32..48.
        race(&cache, 16..48);
        assert_eq!(cache.len(), 32);
        let (disk_hits, _) = cache.disk_counters();
        assert!(disk_hits >= 16, "every key on disk was promoted");
        assert_eq!(cache.counters().1, 2 * 16);
        assert_eq!(cache.approx_bytes(), walked_bytes(&cache));
        let promoted: u64 = (16..48).map(|key| cost(&key, &value(key))).sum();
        assert_eq!(cache.approx_bytes(), on_disk + promoted);
    }
}
