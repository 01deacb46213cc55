//! The tiered [`ArtifactStore`]: the caching spine behind the
//! [`Workbench`](crate::artifacts::Workbench).
//!
//! The paper observes that feature collection (Fig. 5, steps ①–④) "can be
//! achieved offline": LogME scores, probe embeddings and pairwise
//! similarities are pure functions of the zoo. The store exploits that with
//! a memory tier plus an optional disk tier per cache
//! (`crates/core/src/tier.rs`):
//!
//! * the **memory tier** — sharded `RwLock<HashMap>`s shared by every
//!   worker thread of a process;
//! * the **disk tier** — one artifact file per cache under
//!   `TG_ARTIFACT_DIR`, keyed by a
//!   [zoo fingerprint](tg_zoo::ZooConfig::fingerprint) so artifacts of one
//!   world are never replayed into another. [`ArtifactStore::open`] reads
//!   each `TGARTv2` file (format in `crates/core/src/format.rs` and
//!   DESIGN.md §3c) once, whole, and serves lookups from those bytes by
//!   index search. Any other bytes, legacy `TGARTv1` files included, are
//!   refused and replaced by the next [`persist`](ArtifactStore::persist).
//!
//! Persisting is coordinated *across processes*, not last-writer-wins:
//! writers of the same fingerprint serialise on a per-fingerprint advisory
//! file lock ([`tg_sync::LockFile`], class `file_lock`), and each write
//! *merges* with whatever the file currently holds — snapshot the memory
//! tiers → lock → re-read → union → temp-file + fsync + rename. Values are
//! pure functions of their key, so overlapping entries are bit-identical
//! and merge order is immaterial.
//!
//! [`StoreOptions::read_only`] turns `persist` into a no-op while warm
//! reads keep working, for a reader that must never write the shared
//! directory.
//!
//! A lookup falls through memory → disk tier → compute. Disk-tier hits,
//! misses, I/O volume and — new in v2 — *rejected files* (corrupt,
//! truncated, foreign) are counted ([`DiskStats`]) and surfaced in
//! [`WorkbenchStats`](crate::artifacts::WorkbenchStats) / the runner's
//! `RunSummary`, so a warm re-run is *verifiably* collection-free and a
//! corrupted artifact directory is distinguishable from a cold one.
//!
//! No serde: every record is a fixed little-endian layout (`u64` ids, `f64`
//! bits, length-prefixed slices), making the format trivially stable across
//! builds. Persisted values round-trip bit-identically, so a warm-from-disk
//! workbench produces predictions bit-identical to a cold one.

use std::collections::HashMap;
use std::hash::Hash;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tg_zoo::{DatasetId, ModelId};

use crate::artifacts::Telemetry;
use crate::config::Representation;
use crate::format::{encode_v2, ArtifactView};
use crate::tier::TieredCache;
use tg_sync::LockFile;

/// Environment variable naming the artifact directory. When set (and
/// non-empty), workbenches built via `Workbench::from_env` read previously
/// persisted collection artifacts from it and `persist()` writes into it.
pub const ARTIFACT_DIR_ENV: &str = "TG_ARTIFACT_DIR";

// ---------------------------------------------------------------------------
// Disk codec
// ---------------------------------------------------------------------------

/// Fixed little-endian binary encoding of cache keys and values.
///
/// Implementations must be injective and self-delimiting: `decode` consumes
/// exactly the bytes `encode` produced and returns `None` on truncation or
/// an invalid tag (the caller then discards the whole file). Every
/// encoding is a whole number of u64 words — that is what keeps `TGARTv2`
/// payload records 8-byte aligned for free.
pub trait DiskCodec: Sized {
    /// Appends the little-endian encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value starting at `*pos`, advancing `*pos` past it.
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self>;
}

fn take<const N: usize>(buf: &[u8], pos: &mut usize) -> Option<[u8; N]> {
    let bytes: [u8; N] = buf.get(*pos..*pos + N)?.try_into().ok()?;
    *pos += N;
    Some(bytes)
}

impl DiskCodec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        take::<8>(buf, pos).map(u64::from_le_bytes)
    }
}

impl DiskCodec for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        // Raw bit pattern: round-trips every value (including NaN payloads)
        // bit-identically.
        self.to_bits().encode(out);
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        u64::decode(buf, pos).map(f64::from_bits)
    }
}

impl DiskCodec for ModelId {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.0 as u64).encode(out);
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        u64::decode(buf, pos).map(|v| ModelId(v as usize))
    }
}

impl DiskCodec for DatasetId {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.0 as u64).encode(out);
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        u64::decode(buf, pos).map(|v| DatasetId(v as usize))
    }
}

impl DiskCodec for Representation {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u64 = match self {
            Representation::DomainSimilarity => 0,
            Representation::Task2Vec => 1,
        };
        tag.encode(out);
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        match u64::decode(buf, pos)? {
            0 => Some(Representation::DomainSimilarity),
            1 => Some(Representation::Task2Vec),
            _ => None,
        }
    }
}

impl DiskCodec for Arc<[f64]> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for v in self.iter() {
            v.encode(out);
        }
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let len = u64::decode(buf, pos)? as usize;
        // A length that exceeds the remaining bytes marks a truncated or
        // corrupted file; bail before attempting a huge allocation.
        if buf.len().saturating_sub(*pos) < len.checked_mul(8)? {
            return None;
        }
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(f64::decode(buf, pos)?);
        }
        Some(Arc::from(v))
    }
}

impl<A: DiskCodec, B: DiskCodec> DiskCodec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some((A::decode(buf, pos)?, B::decode(buf, pos)?))
    }
}

impl<A: DiskCodec, B: DiskCodec, C: DiskCodec> DiskCodec for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some((
            A::decode(buf, pos)?,
            B::decode(buf, pos)?,
            C::decode(buf, pos)?,
        ))
    }
}

// ---------------------------------------------------------------------------
// Artifact kinds
// ---------------------------------------------------------------------------

/// The four persisted artifact kinds, replacing the stringly-typed cache
/// names of the v1 surface. The kind names the file
/// (`{fingerprint:016x}.{file_stem}.bin`) and tags the `TGARTv2` header,
/// so a file renamed across kinds is rejected at parse.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// Per-(model, target) LogME transferability scores.
    LogMe,
    /// Domain-similarity probe embeddings per dataset.
    DsEmbed,
    /// Task2Vec probe embeddings per dataset.
    T2vEmbed,
    /// Pairwise dataset similarities per representation.
    Similarity,
}

impl ArtifactKind {
    /// Every kind, in persist order.
    pub const ALL: [ArtifactKind; 4] = [
        ArtifactKind::LogMe,
        ArtifactKind::DsEmbed,
        ArtifactKind::T2vEmbed,
        ArtifactKind::Similarity,
    ];

    /// The file-name stem (`{fingerprint:016x}.{file_stem}.bin`).
    pub fn file_stem(self) -> &'static str {
        match self {
            ArtifactKind::LogMe => "logme",
            ArtifactKind::DsEmbed => "ds-embed",
            ArtifactKind::T2vEmbed => "t2v-embed",
            ArtifactKind::Similarity => "similarity",
        }
    }

    /// The kind tag written into the `TGARTv2` header.
    pub fn tag(self) -> u64 {
        match self {
            ArtifactKind::LogMe => 1,
            ArtifactKind::DsEmbed => 2,
            ArtifactKind::T2vEmbed => 3,
            ArtifactKind::Similarity => 4,
        }
    }
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// How an [`ArtifactStore`] backs itself.
#[derive(Clone, Debug, Default)]
pub struct StoreOptions {
    /// Artifact directory; `None` means memory-only.
    pub dir: Option<PathBuf>,
    /// Serve warm state but never persist.
    pub read_only: bool,
}

impl StoreOptions {
    /// Options with a disk tier rooted at `dir` (writable).
    pub fn in_dir(dir: impl Into<PathBuf>) -> StoreOptions {
        StoreOptions {
            dir: Some(dir.into()),
            ..StoreOptions::default()
        }
    }

    /// Options from the environment: [`ARTIFACT_DIR_ENV`] for the
    /// directory.
    pub fn from_env() -> StoreOptions {
        StoreOptions {
            dir: dir_from_env(),
            ..StoreOptions::default()
        }
    }

    /// Returns these options with `read_only` replaced.
    pub fn read_only(mut self, read_only: bool) -> StoreOptions {
        self.read_only = read_only;
        self
    }
}

/// Reads the artifact directory from the environment; `None` when unset or
/// empty.
pub fn dir_from_env() -> Option<PathBuf> {
    let v = std::env::var_os(ARTIFACT_DIR_ENV)?;
    if v.is_empty() {
        return None;
    }
    Some(PathBuf::from(v))
}

// ---------------------------------------------------------------------------
// Disk-tier statistics
// ---------------------------------------------------------------------------

/// Disk-tier counters: lookups served from persisted artifacts, lookups
/// that had to compute despite an enabled disk tier, I/O volume, and
/// files refused at warm start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Lookups answered by the disk tier (each also counts as a cache hit).
    pub hits: u64,
    /// Lookups that missed an *enabled* disk tier (0 when no artifact
    /// directory is configured).
    pub misses: u64,
    /// Bytes of artifact files read when the store opened: each file is
    /// read whole, refused ones included.
    pub bytes_read: u64,
    /// Bytes of artifact files written by [`ArtifactStore::persist`].
    pub bytes_written: u64,
    /// Artifact files refused at open: unreadable, corrupt, truncated,
    /// kind-mismatched or carrying a foreign fingerprint. A *missing*
    /// file (plain cold start) does not count — a nonzero value here
    /// means the artifact directory holds bytes this store refused.
    pub rejected: u64,
}

impl DiskStats {
    /// Counter movement between an earlier snapshot and this one.
    pub fn delta_since(&self, earlier: &DiskStats) -> DiskStats {
        DiskStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            rejected: self.rejected - earlier.rejected,
        }
    }
}

/// What one [`ArtifactStore::persist`] call wrote.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Cache entries written across all artifact files.
    pub entries: u64,
    /// Total bytes written.
    pub bytes: u64,
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Tiered cache of every feature-collection artifact of one zoo.
///
/// The store is zoo-*keyed* but zoo-agnostic: it never computes anything
/// itself. The [`Workbench`](crate::artifacts::Workbench) is the thin view
/// that pairs a store with a zoo reference and supplies the compute
/// closures.
pub struct ArtifactStore {
    fingerprint: u64,
    options: StoreOptions,
    bytes_read: u64,
    bytes_written: AtomicU64,
    disk_rejected: u64,
    pub(crate) logme: TieredCache<(ModelId, DatasetId), f64>,
    pub(crate) ds_embed: TieredCache<DatasetId, Arc<[f64]>>,
    pub(crate) t2v_embed: TieredCache<DatasetId, Arc<[f64]>>,
    pub(crate) similarity: TieredCache<(Representation, DatasetId, DatasetId), f64>,
    pub(crate) telemetry: Telemetry,
}

impl ArtifactStore {
    /// Memory-only store for the given zoo fingerprint.
    pub fn new(fingerprint: u64) -> Self {
        Self::open(fingerprint, StoreOptions::default())
    }

    /// Store backed per `options`. With a directory configured, each
    /// artifact file of this fingerprint is read whole, validated and
    /// kept as its cache's disk tier for the store's lifetime; the
    /// directory itself is created lazily on the first
    /// [`persist`](ArtifactStore::persist). A missing file leaves its
    /// cache cold; an unreadable, truncated, corrupted, kind-mismatched,
    /// fingerprint-mismatched or non-v2 file (legacy `TGARTv1` included)
    /// is refused *and counted* in [`DiskStats::rejected`].
    pub fn open(fingerprint: u64, options: StoreOptions) -> Self {
        let mut bytes_read = 0;
        let mut disk_rejected = 0;
        let [logme, ds_embed, t2v_embed, similarity] = ArtifactKind::ALL.map(|kind| {
            let dir = options.dir.as_deref()?;
            let bytes = match std::fs::read(artifact_path(dir, fingerprint, kind)) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == io::ErrorKind::NotFound => return None, // cold, not corrupt
                Err(_) => {
                    disk_rejected += 1;
                    return None;
                }
            };
            bytes_read += bytes.len() as u64;
            let view = ArtifactView::parse(bytes, kind.tag(), fingerprint);
            disk_rejected += u64::from(view.is_none());
            view
        });
        // Per-entry byte costs for the eviction heuristic: payload plus
        // ~32B of HashMap bucket/entry overhead.
        ArtifactStore {
            fingerprint,
            options,
            bytes_read,
            bytes_written: AtomicU64::new(0),
            disk_rejected,
            logme: TieredCache::new(ArtifactKind::LogMe, |_, _| 32 + 16 + 8, logme),
            ds_embed: TieredCache::new(
                ArtifactKind::DsEmbed,
                |_, v| 32 + 8 + 16 + v.len() as u64 * 8,
                ds_embed,
            ),
            t2v_embed: TieredCache::new(
                ArtifactKind::T2vEmbed,
                |_, v| 32 + 8 + 16 + v.len() as u64 * 8,
                t2v_embed,
            ),
            similarity: TieredCache::new(ArtifactKind::Similarity, |_, _| 32 + 24 + 8, similarity),
            telemetry: Telemetry::default(),
        }
    }

    /// The artifact directory, when a disk tier is configured.
    pub fn dir(&self) -> Option<&Path> {
        self.options.dir.as_deref()
    }

    /// Whether lookups consult a disk tier.
    pub fn disk_enabled(&self) -> bool {
        self.options.dir.is_some()
    }

    /// Whether [`persist`](ArtifactStore::persist) is disabled (the store
    /// serves warm state read-only).
    pub fn read_only(&self) -> bool {
        self.options.read_only
    }

    /// The options this store was opened with.
    pub fn options(&self) -> &StoreOptions {
        &self.options
    }

    /// The zoo fingerprint keying this store's artifact files.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Entries the disk tier of `kind` serves: the record count of the
    /// file read at open, 0 when it was missing or refused (or no
    /// directory is configured).
    pub fn warm_entries(&self, kind: ArtifactKind) -> usize {
        match kind {
            ArtifactKind::LogMe => self.logme.disk_len(),
            ArtifactKind::DsEmbed => self.ds_embed.disk_len(),
            ArtifactKind::T2vEmbed => self.t2v_embed.disk_len(),
            ArtifactKind::Similarity => self.similarity.disk_len(),
        }
    }

    /// Writes every cache to the artifact directory, one `TGARTv2` file
    /// per cache, atomically and durably: each temp file is synced before
    /// its rename, and the directory after the renames (on unix). A no-op
    /// without a configured directory or with [`StoreOptions::read_only`]
    /// set.
    ///
    /// Concurrent writers of the same fingerprint — *including other
    /// processes* — are merged, not raced: the call holds a
    /// per-fingerprint advisory file lock ([`tg_sync::LockFile`],
    /// `{fingerprint:016x}.lock` in the artifact directory) across the
    /// whole read-union-write sequence, and each file is rewritten as the
    /// union of (current file contents) ∪ (disk tier) ∪ (memory tier).
    /// The memory tiers are snapshotted before the file lock is taken, so
    /// no shard lock is taken under it; an entry inserted after the
    /// snapshot persists with the next call.
    /// Entries computed by another store of the same zoo are therefore
    /// preserved — and since every cached value is a pure function of its
    /// key, overlapping entries are bit-identical. A file that is not a
    /// valid v2 file of this fingerprint contributes nothing and is
    /// replaced; a file that exists but cannot be read fails the call
    /// before any file is written. Temp files of this fingerprint that a
    /// killed writer left behind are deleted under the lock.
    ///
    /// ```
    /// use transfergraph::{ArtifactKind, ArtifactStore, StoreOptions};
    ///
    /// let dir = std::env::temp_dir().join("tg-doc-persist");
    /// let store = ArtifactStore::open(0xFEED, StoreOptions::in_dir(&dir));
    /// // (caches fill via the Workbench in real use)
    /// let stats = store.persist()?;
    /// // A fresh store over the same dir + fingerprint starts warm.
    /// let warm = ArtifactStore::open(0xFEED, StoreOptions::in_dir(&dir));
    /// let served: usize = ArtifactKind::ALL.iter().map(|&k| warm.warm_entries(k)).sum();
    /// assert_eq!(served, stats.entries as usize);
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn persist(&self) -> io::Result<PersistStats> {
        let Some(dir) = self.options.dir.as_deref() else {
            return Ok(PersistStats::default());
        };
        if self.options.read_only {
            return Ok(PersistStats::default());
        }
        let (logme, ds_embed, t2v_embed, similarity) = (
            self.logme.entries(),
            self.ds_embed.entries(),
            self.t2v_embed.entries(),
            self.similarity.entries(),
        );
        std::fs::create_dir_all(dir)?;
        let lockfile = LockFile::open(&dir.join(format!("{:016x}.lock", self.fingerprint)))?;
        let _flock = lockfile.lock()?;
        self.reclaim_orphaned_temps(dir)?;
        // Every file is read and merged before any is written, so a read
        // error leaves the whole directory as it was.
        let files = [
            self.merged(&self.logme, logme, dir)?,
            self.merged(&self.ds_embed, ds_embed, dir)?,
            self.merged(&self.t2v_embed, t2v_embed, dir)?,
            self.merged(&self.similarity, similarity, dir)?,
        ];
        let mut stats = PersistStats::default();
        for (kind, entries, buf) in files {
            // Sync the data before the rename publishes it: otherwise a
            // power loss could keep the rename but not the bytes behind it.
            let tmp = self.temp_path(dir, kind);
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&buf)?;
            file.sync_all()?;
            drop(file);
            std::fs::rename(&tmp, artifact_path(dir, self.fingerprint, kind))?;
            self.bytes_written
                .fetch_add(buf.len() as u64, Ordering::Relaxed);
            stats.entries += entries;
            stats.bytes += buf.len() as u64;
        }
        // The renames become durable once the directory entry is synced.
        #[cfg(unix)]
        std::fs::File::open(dir)?.sync_all()?;
        Ok(stats)
    }

    /// Approximate bytes held by this store's caches (both tiers).
    ///
    /// Memory entries are priced at payload size plus a flat per-entry
    /// `HashMap` overhead; a disk tier contributes the size of the file
    /// it holds. Meant for the registry's byte-bounded eviction policy,
    /// not exact accounting.
    pub fn resident_bytes(&self) -> u64 {
        self.logme.approx_bytes()
            + self.similarity.approx_bytes()
            + self.ds_embed.approx_bytes()
            + self.t2v_embed.approx_bytes()
    }

    /// Snapshot of the disk-tier counters.
    pub fn disk_stats(&self) -> DiskStats {
        let (hits, misses) = [
            self.logme.disk_counters(),
            self.ds_embed.disk_counters(),
            self.t2v_embed.disk_counters(),
            self.similarity.disk_counters(),
        ]
        .iter()
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        DiskStats {
            hits,
            misses,
            bytes_read: self.bytes_read,
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            rejected: self.disk_rejected,
        }
    }

    /// The temp file this process writes `kind` through before renaming
    /// it over its [`artifact_path`].
    fn temp_path(&self, dir: &Path, kind: ArtifactKind) -> PathBuf {
        dir.join(format!(
            "{}{}.tmp",
            self.temp_prefix(kind),
            std::process::id()
        ))
    }

    /// `.{file_stem}.{fingerprint:016x}.`: every temp name of `kind` for
    /// this fingerprint, whatever process wrote it, starts with this.
    fn temp_prefix(&self, kind: ArtifactKind) -> String {
        format!(".{}.{:016x}.", kind.file_stem(), self.fingerprint)
    }

    /// Deletes the temp files of this fingerprint that a writer killed
    /// between write and rename left behind. Every writer holds the
    /// per-fingerprint file lock while its temp exists, so the caller,
    /// holding that lock, knows any such temp is an orphan.
    fn reclaim_orphaned_temps(&self, dir: &Path) -> io::Result<()> {
        let prefixes = ArtifactKind::ALL.map(|kind| self.temp_prefix(kind));
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else {
                continue;
            };
            let orphan = name.ends_with(".tmp") && prefixes.iter().any(|p| name.starts_with(p));
            if orphan {
                match std::fs::remove_file(entry.path()) {
                    Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// The `TGARTv2` image of `cache` merged with its file on disk —
    /// (current file) ∪ (disk tier) ∪ (`memory`, the memory tier's
    /// snapshot) — with its kind and entry count. A missing file merges as
    /// empty, and so does one that is not a valid v2 file of this
    /// fingerprint; any other read error is returned.
    fn merged<K, V>(
        &self,
        cache: &TieredCache<K, V>,
        memory: Vec<(K, V)>,
        dir: &Path,
    ) -> io::Result<(ArtifactKind, u64, Vec<u8>)>
    where
        K: DiskCodec + Eq + Hash + Clone,
        V: DiskCodec + Clone,
    {
        // Merge-on-persist: start from whatever the file currently holds
        // (a concurrent process of the same zoo may have added entries we
        // never loaded). Values are pure, so overlapping entries agree
        // bit-for-bit. The caller holds the per-fingerprint file lock
        // across this whole read-union-write sequence.
        let kind = cache.kind();
        let path = artifact_path(dir, self.fingerprint, kind);
        let mut union: HashMap<K, V> = match std::fs::read(path) {
            Ok(buf) => decode_all(buf, kind, self.fingerprint).unwrap_or_default(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => HashMap::new(),
            Err(e) => return Err(e),
        };
        cache.for_each_on_disk(|k, v| {
            union.insert(k, v);
        });
        union.extend(memory);
        let entries: Vec<(Vec<u8>, Vec<u8>)> = union
            .iter()
            .map(|(k, v)| {
                let mut kb = Vec::new();
                k.encode(&mut kb);
                let mut vb = Vec::new();
                v.encode(&mut vb);
                (kb, vb)
            })
            .collect();
        let buf = encode_v2(kind.tag(), self.fingerprint, entries);
        Ok((kind, union.len() as u64, buf))
    }
}

/// `{dir}/{fingerprint:016x}.{file_stem}.bin`: where `kind`'s artifact
/// file of one zoo lives.
fn artifact_path(dir: &Path, fingerprint: u64, kind: ArtifactKind) -> PathBuf {
    dir.join(format!("{fingerprint:016x}.{}.bin", kind.file_stem()))
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Decodes a whole `TGARTv2` buffer into a map (the merge-on-persist
/// input). Returns `None` on any structural problem, a foreign
/// fingerprint or kind, or a non-v2 file.
fn decode_all<K, V>(buf: Vec<u8>, kind: ArtifactKind, fingerprint: u64) -> Option<HashMap<K, V>>
where
    K: DiskCodec + Eq + Hash,
    V: DiskCodec,
{
    let view = ArtifactView::parse(buf, kind.tag(), fingerprint)?;
    let mut map = HashMap::with_capacity(view.count());
    for i in 0..view.count() {
        let record = view.record(i);
        let mut pos = 0;
        let k = K::decode(record, &mut pos)?;
        let v = V::decode(record, &mut pos)?;
        if pos != record.len() {
            return None;
        }
        map.insert(k, v);
    }
    Some(map)
}

#[cfg(test)]
#[expect(
    clippy::let_underscore_must_use,
    reason = "temp-dir cleanup is best-effort; a leftover directory cannot fail a test"
)]
mod tests {
    use super::*;

    fn temp_store_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tg-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open_in(fingerprint: u64, dir: &Path) -> ArtifactStore {
        ArtifactStore::open(fingerprint, StoreOptions::in_dir(dir))
    }

    /// Entries served by the disk tiers of every kind.
    fn warm_total(store: &ArtifactStore) -> usize {
        ArtifactKind::ALL
            .iter()
            .map(|&kind| store.warm_entries(kind))
            .sum()
    }

    #[test]
    fn codec_round_trips_every_key_and_value_shape() {
        let mut buf = Vec::new();
        (ModelId(7), DatasetId(13)).encode(&mut buf);
        (Representation::Task2Vec, DatasetId(1), DatasetId(2)).encode(&mut buf);
        let arc: Arc<[f64]> = Arc::from(vec![1.5, -0.0, f64::MAX]);
        arc.encode(&mut buf);
        (-123.456f64).encode(&mut buf);

        let mut pos = 0;
        assert_eq!(
            <(ModelId, DatasetId)>::decode(&buf, &mut pos),
            Some((ModelId(7), DatasetId(13)))
        );
        assert_eq!(
            <(Representation, DatasetId, DatasetId)>::decode(&buf, &mut pos),
            Some((Representation::Task2Vec, DatasetId(1), DatasetId(2)))
        );
        let back = <Arc<[f64]>>::decode(&buf, &mut pos).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0].to_bits(), 1.5f64.to_bits());
        assert_eq!(back[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(f64::decode(&buf, &mut pos), Some(-123.456));
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn codec_rejects_truncation_and_bad_tags() {
        let mut buf = Vec::new();
        Representation::DomainSimilarity.encode(&mut buf);
        // Truncated read past the end.
        let mut pos = 4;
        assert_eq!(u64::decode(&buf, &mut pos), None);
        // Invalid representation tag.
        let bad = 9u64.to_le_bytes();
        let mut pos = 0;
        assert_eq!(Representation::decode(&bad, &mut pos), None);
        // Slice length exceeding the buffer.
        let mut huge = Vec::new();
        (u64::MAX).encode(&mut huge);
        let mut pos = 0;
        assert_eq!(<Arc<[f64]>>::decode(&huge, &mut pos), None);
    }

    #[test]
    fn persist_and_warm_round_trip_through_disk_tier() {
        let dir = temp_store_dir("roundtrip");
        let store = open_in(0xABCD, &dir);
        let key = (ModelId(1), DatasetId(2));
        let v = store
            .logme
            .get_or_insert_with(key, store.disk_enabled(), || 0.75);
        assert_eq!(v, 0.75);
        assert_eq!(store.disk_stats().misses, 1, "cold disk tier misses");
        store.persist().unwrap();
        assert!(store.disk_stats().bytes_written > 0);

        // A fresh store over the same dir + fingerprint serves from disk.
        let warm = open_in(0xABCD, &dir);
        assert!(warm.disk_stats().bytes_read > 0);
        let v2 = warm
            .logme
            .get_or_insert_with(key, warm.disk_enabled(), || panic!("must not recompute"));
        assert_eq!(v2.to_bits(), 0.75f64.to_bits());
        let stats = warm.disk_stats();
        assert_eq!((stats.hits, stats.misses), (1, 0));
        assert_eq!(stats.rejected, 0, "healthy files reject nothing");
        let (hits, misses) = warm.logme.counters();
        assert_eq!((hits, misses), (1, 0), "disk hit counts as cache hit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persisted_files_are_v2_and_served_from_the_disk_tier() {
        let dir = temp_store_dir("v2format");
        let store = open_in(0x2222, &dir);
        for i in 0..8 {
            store
                .logme
                .get_or_insert_with((ModelId(i), DatasetId(0)), true, || i as f64 * 0.5);
        }
        store.persist().unwrap();
        let path = artifact_path(&dir, 0x2222, ArtifactKind::LogMe);
        let head = std::fs::read(&path).unwrap();
        assert_eq!(&head[..8], b"TGARTv2\0", "persist writes the v2 magic");

        let warm = open_in(0x2222, &dir);
        assert_eq!(
            warm.warm_entries(ArtifactKind::LogMe),
            8,
            "open must install a disk tier with 8 entries"
        );
        let on_disk: u64 = ArtifactKind::ALL
            .iter()
            .map(|&kind| {
                std::fs::metadata(artifact_path(&dir, 0x2222, kind))
                    .unwrap()
                    .len()
            })
            .sum();
        assert_eq!(
            warm.disk_stats().bytes_read,
            on_disk,
            "open reads every file whole"
        );
        for i in 0..8 {
            let v = warm
                .logme
                .get_or_insert_with((ModelId(i), DatasetId(0)), true, || {
                    panic!("must serve from the v2 file")
                });
            assert_eq!(v.to_bits(), (i as f64 * 0.5).to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_files_are_refused_and_replaced_on_persist() {
        let dir = temp_store_dir("v1hostile");
        let path = artifact_path(&dir, 0x1111, ArtifactKind::LogMe);
        std::fs::create_dir_all(&dir).unwrap();
        // A well-formed TGARTv1 file: magic, fingerprint, count, one entry.
        let mut v1 = b"TGARTv1\0".to_vec();
        0x1111u64.encode(&mut v1);
        1u64.encode(&mut v1);
        (ModelId(3), DatasetId(4)).encode(&mut v1);
        2.5f64.encode(&mut v1);
        std::fs::write(&path, &v1).unwrap();

        // Warm start refuses it, once…
        let legacy = open_in(0x1111, &dir);
        assert_eq!(legacy.disk_stats().rejected, 1, "v1 file counted once");
        let mut computed = false;
        let v = legacy
            .logme
            .get_or_insert_with((ModelId(3), DatasetId(4)), true, || {
                computed = true;
                -1.0
            });
        assert!(computed, "v1 bytes must not be served");
        assert_eq!(v.to_bits(), (-1.0f64).to_bits());

        // …and the next persist replaces it with a v2 file that warms clean.
        legacy.persist().unwrap();
        assert_eq!(&std::fs::read(&path).unwrap()[..8], b"TGARTv2\0");
        let fresh = open_in(0x1111, &dir);
        assert_eq!(fresh.disk_stats().rejected, 0);
        assert_eq!(warm_total(&fresh), 1);
        let v = fresh
            .logme
            .get_or_insert_with((ModelId(3), DatasetId(4)), true, || {
                panic!("must serve the v2 replacement")
            });
        assert_eq!(v.to_bits(), (-1.0f64).to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_reclaims_orphaned_temp_files() {
        let dir = temp_store_dir("orphans");
        let store = open_in(0x5555, &dir);
        store
            .logme
            .get_or_insert_with((ModelId(1), DatasetId(2)), true, || 0.5);
        std::fs::create_dir_all(&dir).unwrap();
        // A writer killed between write and rename left its temp behind.
        let orphan = dir.join(".logme.0000000000005555.4242.tmp");
        std::fs::write(&orphan, b"half-written").unwrap();
        // Another fingerprint's temp belongs to a writer under another
        // lock and must survive.
        let foreign = dir.join(".logme.0000000000006666.4242.tmp");
        std::fs::write(&foreign, b"in flight").unwrap();

        store.persist().unwrap();
        assert!(!orphan.exists(), "orphaned temp must be reclaimed");
        assert!(foreign.exists(), "other fingerprints' temps are left alone");
        let warm = open_in(0x5555, &dir);
        assert_eq!(warm.disk_stats().rejected, 0);
        assert_eq!(warm_total(&warm), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_only_store_serves_but_never_persists() {
        let dir = temp_store_dir("readonly");
        let owner = open_in(0x4444, &dir);
        owner
            .logme
            .get_or_insert_with((ModelId(1), DatasetId(1)), true, || 0.5);
        owner.persist().unwrap();

        let follower = ArtifactStore::open(0x4444, StoreOptions::in_dir(&dir).read_only(true));
        assert!(follower.read_only());
        let v = follower
            .logme
            .get_or_insert_with((ModelId(1), DatasetId(1)), true, || panic!("must be warm"));
        assert_eq!(v.to_bits(), 0.5f64.to_bits());
        // New entries stay local: persist is a no-op…
        follower
            .logme
            .get_or_insert_with((ModelId(2), DatasetId(2)), true, || 0.75);
        assert_eq!(follower.persist().unwrap(), PersistStats::default());
        assert_eq!(follower.disk_stats().bytes_written, 0);
        // …so a fresh store sees only the owner's entry.
        let fresh = open_in(0x4444, &dir);
        assert_eq!(warm_total(&fresh), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_falls_back_to_recompute() {
        let dir = temp_store_dir("fpmismatch");
        let store = open_in(1, &dir);
        store
            .logme
            .get_or_insert_with((ModelId(0), DatasetId(0)), true, || 0.5);
        store.persist().unwrap();

        // Same dir, different fingerprint: nothing loads by name…
        let other = open_in(2, &dir);
        assert_eq!(warm_total(&other), 0);
        assert_eq!(
            other.disk_stats().rejected,
            0,
            "missing files are cold, not corrupt"
        );
        // …and even a renamed file is rejected by the in-file fingerprint,
        // which *does* count as a rejection.
        let stolen = artifact_path(&dir, 2, ArtifactKind::LogMe);
        std::fs::copy(artifact_path(&dir, 1, ArtifactKind::LogMe), &stolen).unwrap();
        let other = open_in(2, &dir);
        assert_eq!(warm_total(&other), 0);
        assert!(
            other.disk_stats().rejected > 0,
            "foreign file must be counted"
        );
        let mut computed = false;
        other
            .logme
            .get_or_insert_with((ModelId(0), DatasetId(0)), true, || {
                computed = true;
                0.5
            });
        assert!(computed, "foreign artifacts must not be served");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_and_truncated_files_are_rejected_and_counted() {
        let dir = temp_store_dir("corrupt");
        let store = open_in(7, &dir);
        for i in 0..4 {
            store
                .logme
                .get_or_insert_with((ModelId(i), DatasetId(0)), true, || i as f64);
        }
        store.persist().unwrap();
        let path = artifact_path(&dir, 7, ArtifactKind::LogMe);
        let full = std::fs::read(&path).unwrap();

        // Truncate mid-payload.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let s = open_in(7, &dir);
        assert_eq!((warm_total(&s), s.disk_stats().rejected >= 1), (0, true));

        // Garbage magic.
        let mut garbage = full.clone();
        garbage[0] ^= 0xFF;
        std::fs::write(&path, &garbage).unwrap();
        let s = open_in(7, &dir);
        assert_eq!((warm_total(&s), s.disk_stats().rejected >= 1), (0, true));

        // Trailing junk after a valid payload.
        let mut trailing = full.clone();
        trailing.extend_from_slice(b"junkjunk");
        std::fs::write(&path, &trailing).unwrap();
        let s = open_in(7, &dir);
        assert_eq!((warm_total(&s), s.disk_stats().rejected >= 1), (0, true));

        // A file renamed across kinds is refused by the kind tag.
        std::fs::write(&path, &full).unwrap();
        std::fs::copy(&path, artifact_path(&dir, 7, ArtifactKind::Similarity)).unwrap();
        let s = open_in(7, &dir);
        assert_eq!(warm_total(&s), 4, "legitimate file still loads");
        assert!(s.disk_stats().rejected >= 1, "kind-mismatched copy counted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_merges_concurrent_writers_instead_of_last_writer_wins() {
        let dir = temp_store_dir("merge");
        // Two stores over the same zoo, each computing a disjoint slice.
        let a = open_in(0x77, &dir);
        let b = open_in(0x77, &dir);
        a.logme
            .get_or_insert_with((ModelId(1), DatasetId(1)), true, || 0.25);
        b.logme
            .get_or_insert_with((ModelId(2), DatasetId(2)), true, || 0.5);
        // `b` persists after `a` without ever having loaded `a`'s entry;
        // merge-on-persist must keep both.
        a.persist().unwrap();
        b.persist().unwrap();

        let merged = open_in(0x77, &dir);
        assert_eq!(warm_total(&merged), 2, "both writers' entries kept");
        for (key, expect) in [
            ((ModelId(1), DatasetId(1)), 0.25),
            ((ModelId(2), DatasetId(2)), 0.5),
        ] {
            let v = merged
                .logme
                .get_or_insert_with(key, true, || panic!("must be on disk"));
            assert_eq!(v.to_bits(), f64::to_bits(expect));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_persists_of_one_fingerprint_serialise_and_union() {
        let dir = temp_store_dir("racing");
        let stores: Vec<ArtifactStore> = (0..4)
            .map(|i| {
                let s = open_in(0x99, &dir);
                s.logme
                    .get_or_insert_with((ModelId(i), DatasetId(0)), true, || i as f64);
                s
            })
            .collect();
        std::thread::scope(|scope| {
            for s in &stores {
                scope.spawn(move || s.persist().unwrap());
            }
        });
        let merged = open_in(0x99, &dir);
        assert_eq!(warm_total(&merged), 4, "no writer's entry was lost");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Persist snapshots the memory tiers before it takes the file lock,
    /// so it completes (under the debug tracker, with no nested lock)
    /// while another thread inserts; what the snapshot missed persists
    /// with the next call.
    #[test]
    fn persist_racing_inserts_completes_and_the_next_persist_adds_late_entries() {
        use std::sync::mpsc::{channel, TryRecvError};

        let dir = temp_store_dir("racing-inserts");
        let store = &open_in(0x8888, &dir);
        let insert = |i: usize| {
            store
                .logme
                .get_or_insert_with((ModelId(i), DatasetId(0)), true, || i as f64);
        };
        let (started, first_inserted) = channel();
        let (persisted, first_persisted) = channel();
        // The scope owns `persisted`, so a persist that panics hangs up on
        // the inserter instead of leaving it looping.
        let (first, inserted) = std::thread::scope(move |scope| {
            let inserter = scope.spawn(move || {
                // Insert while the first persist runs, then 100 entries it
                // cannot have seen.
                let mut i = 0;
                while let Err(TryRecvError::Empty) = first_persisted.try_recv() {
                    insert(i);
                    i += 1;
                    if i == 1 {
                        started.send(()).unwrap();
                    }
                }
                for _ in 0..100 {
                    insert(i);
                    i += 1;
                }
                i as u64
            });
            first_inserted.recv().unwrap();
            let first = store.persist().unwrap();
            persisted.send(()).unwrap();
            (first, inserter.join().unwrap())
        });
        assert!(
            first.entries >= 1 && first.entries + 100 <= inserted,
            "{first:?}"
        );
        assert_eq!(store.persist().unwrap().entries, inserted);
        let warm = open_in(0x8888, &dir);
        assert_eq!(warm.warm_entries(ArtifactKind::LogMe) as u64, inserted);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resident_bytes_grows_with_cached_entries() {
        let store = ArtifactStore::new(5);
        let empty = store.resident_bytes();
        store
            .logme
            .get_or_insert_with((ModelId(0), DatasetId(0)), false, || 1.0);
        let one = store.resident_bytes();
        assert!(one > empty);
        store
            .ds_embed
            .get_or_insert_with(DatasetId(0), false, || Arc::from(vec![0.0; 100]));
        assert!(store.resident_bytes() >= one + 800);
    }

    #[test]
    fn memory_only_store_never_counts_disk_traffic() {
        let store = ArtifactStore::new(3);
        store
            .logme
            .get_or_insert_with((ModelId(0), DatasetId(0)), store.disk_enabled(), || 1.0);
        assert_eq!(store.disk_stats(), DiskStats::default());
        assert_eq!(store.persist().unwrap(), PersistStats::default());
        assert_eq!(warm_total(&store), 0);
    }

    /// A file that exists but cannot be read is not an empty file:
    /// persisting over it would drop whatever other writers merged in.
    #[cfg(unix)]
    #[test]
    fn persist_refuses_to_replace_a_file_it_cannot_read() {
        let dir = temp_store_dir("unreadable");
        let store = open_in(0x6666, &dir);
        store
            .logme
            .get_or_insert_with((ModelId(1), DatasetId(1)), true, || 0.5);
        std::fs::create_dir_all(&dir).unwrap();
        // A symlink to itself: every read fails with a filesystem loop.
        let path = artifact_path(&dir, 0x6666, ArtifactKind::LogMe);
        std::os::unix::fs::symlink(&path, &path).unwrap();

        assert!(store.persist().is_err(), "an unreadable file fails persist");
        let link = std::fs::symlink_metadata(&path).unwrap();
        assert!(link.file_type().is_symlink(), "the link is left in place");
        for kind in ArtifactKind::ALL {
            if kind != ArtifactKind::LogMe {
                assert!(
                    !artifact_path(&dir, 0x6666, kind).exists(),
                    "nothing is written when a read fails"
                );
            }
        }
        assert_eq!(store.disk_stats().bytes_written, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
