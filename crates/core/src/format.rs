//! The `TGARTv2` on-disk artifact format and its [`Backing`] abstraction.
//!
//! Records use the [`DiskCodec`](crate::store::DiskCodec) encodings,
//! fronted by a fixed-offset index, so a warm start is an mmap
//! (or one buffered read via the fallback backing) plus page-cache
//! reads — lookups binary-search the index and decode exactly one
//! record:
//!
//! ```text
//! offset  size   field                              (every field u64 LE)
//! ------  -----  ---------------------------------------------------
//!      0      8  magic  "TGARTv2\0"
//!      8      8  artifact kind tag (ArtifactKind::tag)
//!     16      8  zoo fingerprint
//!     24      8  entry count N
//!     32      8  payload offset P  (= 40 + 24·N)
//!     40   24·N  index: one (key_hash, offset, len) triple per entry,
//!                sorted by key_hash, ties by encoded key bytes
//!      P    ...  payload: per entry, DiskCodec(key) ‖ DiskCodec(value),
//!                contiguous in index order, ending at the file's end
//! ```
//!
//! **Alignment.** Every `DiskCodec` encoding is a whole number of u64
//! words, the header is 40 bytes and an index triple 24, so every
//! record offset is naturally 8-byte aligned and the `f64` payloads can
//! be read word-at-a-time from a mapped file without ever splitting a
//! word across a page boundary. [`ArtifactView::parse`] re-checks
//! `len % 8 == 0` per entry anyway: an unaligned length marks a foreign
//! or corrupt file.
//!
//! **Key hashing.** The index hash is FNV-1a 64 over the *encoded* key
//! bytes — chosen because it is trivially stable across builds and
//! platforms, unlike `DefaultHasher`, whose output std explicitly does
//! not pin. Collisions are handled, not assumed away: equal-hash runs
//! are scanned and candidates confirmed by comparing encoded key bytes.
//!
//! **Validation.** `parse` accepts a buffer only when the magic, kind
//! tag and fingerprint match, the header arithmetic is consistent, the
//! index offsets tile the payload exactly (first at `P`, each next at
//! the previous end, last ending at the file's end), and the hashes are
//! sorted. Anything else — including a file in the retired `TGARTv1`
//! layout — returns `None` and the caller treats the file as absent
//! (recompute + rewrite), bumping its `disk_rejected` counter.
//!
//! **Why reading without decoding is safe.** Artifact files are only
//! ever replaced wholesale via temp-file + rename; no writer truncates
//! or patches an inode in place. A mapped file therefore observes one
//! immutable byte image for the lifetime of the mapping, which is the
//! entire safety argument for the `unsafe` blocks in [`Backing`]'s mmap
//! arm.

use std::io;
use std::path::Path;

/// Magic prefix of a `TGARTv2` artifact file.
pub(crate) const MAGIC_V2: [u8; 8] = *b"TGARTv2\0";

/// Fixed header: magic, kind tag, fingerprint, count, payload offset.
pub(crate) const HEADER_LEN: usize = 40;
/// One index triple: key hash, absolute byte offset, byte length.
pub(crate) const INDEX_ENTRY_LEN: usize = 24;

/// FNV-1a 64 over `bytes`: the stable key hash of the v2 index.
pub(crate) fn key_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn read_u64(buf: &[u8], pos: usize) -> Option<u64> {
    buf.get(pos..pos + 8)
        .and_then(|b| b.try_into().ok())
        .map(u64::from_le_bytes)
}

/// Infallible LE read of the first 8 bytes of a slice the caller has
/// already bounds-checked (e.g. a `chunks_exact` window).
#[inline]
fn le64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

/// Encodes one v2 artifact file from `(encoded key, encoded value)`
/// pairs. Sorts the entries by (key hash, key bytes), so equal inputs
/// produce byte-identical files regardless of map iteration order.
pub(crate) fn encode_v2(
    kind_tag: u64,
    fingerprint: u64,
    mut entries: Vec<(Vec<u8>, Vec<u8>)>,
) -> Vec<u8> {
    entries.sort_by(|(ka, _), (kb, _)| key_hash(ka).cmp(&key_hash(kb)).then_with(|| ka.cmp(kb)));
    let count = entries.len();
    let payload_offset = HEADER_LEN + INDEX_ENTRY_LEN * count;
    let payload_len: usize = entries.iter().map(|(k, v)| k.len() + v.len()).sum();

    let mut buf = Vec::with_capacity(payload_offset + payload_len);
    buf.extend_from_slice(&MAGIC_V2);
    buf.extend_from_slice(&kind_tag.to_le_bytes());
    buf.extend_from_slice(&fingerprint.to_le_bytes());
    buf.extend_from_slice(&(count as u64).to_le_bytes());
    buf.extend_from_slice(&(payload_offset as u64).to_le_bytes());

    let mut offset = payload_offset as u64;
    for (k, v) in &entries {
        let len = (k.len() + v.len()) as u64;
        buf.extend_from_slice(&key_hash(k).to_le_bytes());
        buf.extend_from_slice(&offset.to_le_bytes());
        buf.extend_from_slice(&len.to_le_bytes());
        offset += len;
    }
    for (k, v) in &entries {
        buf.extend_from_slice(k);
        buf.extend_from_slice(v);
    }
    buf
}

// ---------------------------------------------------------------------------
// Backing: owned bytes or a read-only memory mapping
// ---------------------------------------------------------------------------

/// The bytes behind a parsed artifact: a plain owned read, or a
/// read-only mmap on 64-bit unix. The seek-and-read arm keeps the
/// format std-only and portable; the mapped arm makes warm start a
/// page-table operation.
pub(crate) enum Backing {
    /// Bytes owned in memory (`std::fs::read`).
    Owned(Vec<u8>),
    /// A read-only private memory mapping of the file.
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(map::Mmap),
}

impl Backing {
    /// Opens `path`, preferring an mmap when asked for (and available
    /// on this target); any mapping failure — including the zero-length
    /// file mmap cannot represent — quietly degrades to an owned read.
    /// `NotFound` and read errors propagate to the caller.
    pub(crate) fn open(path: &Path, prefer_mmap: bool) -> io::Result<Backing> {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if prefer_mmap {
            if let Ok(Some(m)) = map::Mmap::open(path) {
                return Ok(Backing::Mapped(m));
            }
        }
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        let _unused = prefer_mmap;
        Ok(Backing::Owned(std::fs::read(path)?))
    }

    /// The full byte image.
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            Backing::Owned(v) => v,
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mapped(m) => m.bytes(),
        }
    }

    /// Whether this backing is a memory mapping (vs an owned read).
    pub(crate) fn is_mapped(&self) -> bool {
        match self {
            Backing::Owned(_) => false,
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mapped(_) => true,
        }
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod map {
    use std::ffi::c_void;
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;
    use std::path::Path;
    use std::ptr::NonNull;

    // The two syscall wrappers we need, declared directly: std already
    // links the platform libc on unix, and declaring them here keeps
    // the workspace free of external crates.
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// A read-only private memory mapping of one artifact file,
    /// unmapped on drop.
    pub(crate) struct Mmap {
        ptr: NonNull<c_void>,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ + MAP_PRIVATE over a file the
    // store never mutates in place (writers replace the inode via
    // temp-file + rename), so the bytes behind `ptr` are immutable for
    // the mapping's lifetime; immutable bytes may be read from any
    // thread.
    unsafe impl Send for Mmap {}
    // SAFETY: as for Send — a read-only mapping of immutable bytes.
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps `path` read-only. Returns `Ok(None)` for an empty file
        /// (a zero-length mapping is invalid; the caller falls back to
        /// an owned read, which represents emptiness fine).
        pub(crate) fn open(path: &Path) -> io::Result<Option<Mmap>> {
            let file = File::open(path)?;
            let len = usize::try_from(file.metadata()?.len())
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "artifact too large"))?;
            if len == 0 {
                return Ok(None);
            }
            // SAFETY: `file` keeps the descriptor alive across the
            // call; the kernel validates every argument and reports
            // failure as MAP_FAILED (-1), handled below. No Rust
            // invariant depends on the arguments beyond that.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            match NonNull::new(ptr) {
                Some(ptr) => Ok(Some(Mmap { ptr, len })),
                None => Err(io::Error::other("mmap returned null")),
            }
        }

        /// The mapped byte image.
        pub(crate) fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr`/`len` describe a live PROT_READ mapping
            // created in `open` and released only in Drop; the borrow
            // of `self` keeps the mapping alive for the slice's
            // lifetime, and the underlying inode is never written in
            // place (temp+rename protocol), so the bytes are valid and
            // immutable.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr().cast::<u8>(), self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` describe a mapping created by mmap in
            // `open` and not yet unmapped; after this call nothing can
            // observe it (all borrows of `bytes` end with `self`).
            unsafe {
                munmap(self.ptr.as_ptr(), self.len);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parsed view
// ---------------------------------------------------------------------------

/// A validated view over one v2 artifact file: the backing bytes plus
/// the entry count. All per-entry access goes through the index; the
/// payload is only touched when a record is actually looked up or
/// iterated.
pub(crate) struct ArtifactView {
    backing: Backing,
    count: usize,
}

impl ArtifactView {
    /// Validates a v2 byte image end to end (see the module docs for
    /// the rules). Returns `None` on any structural problem, a foreign
    /// fingerprint, or a kind-tag mismatch — the caller treats the file
    /// as absent.
    pub(crate) fn parse(backing: Backing, kind_tag: u64, fingerprint: u64) -> Option<ArtifactView> {
        let buf = backing.bytes();
        if buf.len() < HEADER_LEN || buf[..8] != MAGIC_V2 {
            return None;
        }
        if read_u64(buf, 8)? != kind_tag || read_u64(buf, 16)? != fingerprint {
            return None;
        }
        let count = usize::try_from(read_u64(buf, 24)?).ok()?;
        let payload_offset = HEADER_LEN.checked_add(INDEX_ENTRY_LEN.checked_mul(count)?)?;
        if read_u64(buf, 32)? != payload_offset as u64 || payload_offset > buf.len() {
            return None;
        }
        // The index must tile the payload exactly: first record at P,
        // each next at the previous end, last ending at the file's end.
        // Hashes must be sorted (binary-search invariant). This loop is
        // the whole O(N) cost of a mapped warm start, so it reads the
        // index through `chunks_exact` — one bounds check up front, then
        // straight-line `from_le_bytes` per field.
        let index = buf.get(HEADER_LEN..payload_offset)?;
        let mut expected = payload_offset as u64;
        let mut prev_hash = 0u64;
        for entry in index.chunks_exact(INDEX_ENTRY_LEN) {
            let hash = le64(&entry[0..8]);
            let offset = le64(&entry[8..16]);
            let len = le64(&entry[16..24]);
            if hash < prev_hash || offset != expected || !len.is_multiple_of(8) || len < 16 {
                return None;
            }
            prev_hash = hash;
            expected = offset.checked_add(len)?;
        }
        if expected != buf.len() as u64 {
            return None;
        }
        Some(ArtifactView { backing, count })
    }

    /// Number of records.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Total size of the file image in bytes.
    pub(crate) fn byte_len(&self) -> usize {
        self.backing.bytes().len()
    }

    /// Whether the backing is a memory mapping.
    pub(crate) fn is_mapped(&self) -> bool {
        self.backing.is_mapped()
    }

    /// Bytes actually touched by `parse`: header plus index. The
    /// payload stays untouched (and, when mapped, unfaulted) until a
    /// record is read — this is what the store charges as warm-start
    /// read volume.
    pub(crate) fn warm_bytes(&self) -> usize {
        HEADER_LEN + INDEX_ENTRY_LEN * self.count
    }

    fn index_entry(&self, i: usize) -> (u64, usize, usize) {
        let buf = self.backing.bytes();
        let base = HEADER_LEN + INDEX_ENTRY_LEN * i;
        // Bounds were established by `parse`; the fallback cannot fire,
        // but stays in Option form to keep this file panic-free.
        match buf.get(base..base + INDEX_ENTRY_LEN) {
            Some(e) => (
                le64(&e[0..8]),
                le64(&e[8..16]) as usize,
                le64(&e[16..24]) as usize,
            ),
            None => (0, 0, 0),
        }
    }

    /// The raw `key ‖ value` bytes of record `i` (index order).
    pub(crate) fn record(&self, i: usize) -> &[u8] {
        let (_, offset, len) = self.index_entry(i);
        self.backing
            .bytes()
            .get(offset..offset + len)
            .unwrap_or(&[])
    }

    /// Finds the record whose encoded key equals `key` and returns its
    /// *value* bytes (the record suffix past the key). Binary-searches
    /// the hash index, then confirms candidates by comparing encoded
    /// key bytes — keys of one artifact kind have a fixed encoded
    /// width, so a prefix match is exact equality.
    pub(crate) fn lookup(&self, key: &[u8]) -> Option<&[u8]> {
        let target = key_hash(key);
        let mut lo = 0usize;
        let mut hi = self.count;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.index_entry(mid).0 < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let mut i = lo;
        while i < self.count {
            let (hash, offset, len) = self.index_entry(i);
            if hash != target {
                return None;
            }
            let record = self.backing.bytes().get(offset..offset + len)?;
            if record.len() >= key.len() && &record[..key.len()] == key {
                return Some(&record[key.len()..]);
            }
            i += 1;
        }
        None
    }
}

#[cfg(test)]
#[expect(
    clippy::let_underscore_must_use,
    reason = "temp-dir cleanup is best-effort; a leftover directory cannot fail a test"
)]
mod tests {
    use super::*;

    fn pairs(n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| {
                let k = (i as u64).to_le_bytes().to_vec();
                let v = [(i as u64) ^ 0xDEAD, 7 * i as u64]
                    .iter()
                    .flat_map(|w| w.to_le_bytes())
                    .collect();
                (k, v)
            })
            .collect()
    }

    #[test]
    fn encode_is_deterministic_and_parse_accepts_it() {
        let a = encode_v2(3, 42, pairs(17));
        let mut shuffled = pairs(17);
        shuffled.reverse();
        let b = encode_v2(3, 42, shuffled);
        assert_eq!(a, b, "entry order must not affect the bytes");

        let view = ArtifactView::parse(Backing::Owned(a), 3, 42).expect("valid file");
        assert_eq!(view.count(), 17);
        for (k, v) in pairs(17) {
            assert_eq!(view.lookup(&k), Some(v.as_slice()));
        }
        assert_eq!(view.lookup(&999u64.to_le_bytes()), None);
    }

    #[test]
    fn empty_file_round_trips() {
        let buf = encode_v2(1, 9, Vec::new());
        assert_eq!(buf.len(), HEADER_LEN);
        let view = ArtifactView::parse(Backing::Owned(buf), 1, 9).expect("valid empty file");
        assert_eq!(view.count(), 0);
        assert_eq!(view.lookup(&[0u8; 8]), None);
    }

    #[test]
    fn parse_rejects_structural_damage() {
        let good = encode_v2(2, 7, pairs(5));
        type Mutation = Box<dyn Fn(&mut Vec<u8>)>;
        let cases: Vec<(&str, Mutation)> = vec![
            ("bad magic", Box::new(|b: &mut Vec<u8>| b[0] ^= 0xFF)),
            ("wrong kind tag", Box::new(|b: &mut Vec<u8>| b[8] ^= 1)),
            ("wrong fingerprint", Box::new(|b: &mut Vec<u8>| b[16] ^= 1)),
            (
                "bad count",
                Box::new(|b: &mut Vec<u8>| b[24] = b[24].wrapping_add(1)),
            ),
            ("bad payload offset", Box::new(|b: &mut Vec<u8>| b[32] ^= 8)),
            (
                "unsorted hashes",
                Box::new(|b: &mut Vec<u8>| {
                    // Swap the hash fields of the first two index entries.
                    for i in 0..8 {
                        b.swap(HEADER_LEN + i, HEADER_LEN + INDEX_ENTRY_LEN + i);
                    }
                }),
            ),
            (
                "truncated payload",
                Box::new(|b: &mut Vec<u8>| {
                    b.truncate(b.len() - 8);
                }),
            ),
            (
                "trailing junk",
                Box::new(|b: &mut Vec<u8>| {
                    b.extend_from_slice(&[0u8; 8]);
                }),
            ),
            (
                "unaligned record len",
                Box::new(|b: &mut Vec<u8>| {
                    // Corrupt the first index entry's length field.
                    b[HEADER_LEN + 16] = b[HEADER_LEN + 16].wrapping_add(1);
                }),
            ),
        ];
        for (what, mutate) in cases {
            let mut bad = good.clone();
            mutate(&mut bad);
            assert!(
                ArtifactView::parse(Backing::Owned(bad), 2, 7).is_none(),
                "parse must reject: {what}"
            );
        }
        assert!(ArtifactView::parse(Backing::Owned(good), 2, 7).is_some());
    }

    #[test]
    fn hash_collisions_resolve_by_key_bytes() {
        // Force a collision by construction: same hash bucket is
        // exercised by looking up keys that share a hash with nothing —
        // simulate by inserting two keys and scanning. True 64-bit FNV
        // collisions are impractical to construct here, so instead
        // verify the scan logic on adjacent equal-hash entries built
        // manually.
        let k1 = vec![1u8, 0, 0, 0, 0, 0, 0, 0];
        let k2 = vec![2u8, 0, 0, 0, 0, 0, 0, 0];
        let v = vec![0u8; 8];
        let h = key_hash(&k1).min(key_hash(&k2));
        // Hand-build a file whose two index entries claim the same hash.
        let payload_offset = HEADER_LEN + 2 * INDEX_ENTRY_LEN;
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_V2);
        buf.extend_from_slice(&5u64.to_le_bytes());
        buf.extend_from_slice(&11u64.to_le_bytes());
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&(payload_offset as u64).to_le_bytes());
        for (i, _) in [&k1, &k2].iter().enumerate() {
            buf.extend_from_slice(&h.to_le_bytes());
            buf.extend_from_slice(&((payload_offset + 16 * i) as u64).to_le_bytes());
            buf.extend_from_slice(&16u64.to_le_bytes());
        }
        buf.extend_from_slice(&k1);
        buf.extend_from_slice(&v);
        buf.extend_from_slice(&k2);
        buf.extend_from_slice(&v);
        let view = ArtifactView::parse(Backing::Owned(buf), 5, 11).expect("valid");
        // Lookups only find a key when its *bytes* match; the forged
        // shared hash cannot cross-serve records. (`lookup` hashes the
        // probe key, so only the key whose true hash equals the forged
        // one can be found — the other must come back None, not k1's
        // value.)
        let h1 = key_hash(&k1);
        let h2 = key_hash(&k2);
        if h1 == h {
            assert_eq!(view.lookup(&k1), Some(v.as_slice()));
        }
        if h2 == h {
            assert_eq!(view.lookup(&k2), Some(v.as_slice()));
        }
        assert!(h1 == h || h2 == h);
    }

    #[test]
    fn mapped_backing_serves_identical_bytes() {
        let dir = std::env::temp_dir().join(format!("tg-format-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mapped.bin");
        let buf = encode_v2(4, 77, pairs(9));
        std::fs::write(&path, &buf).unwrap();

        let mapped = Backing::open(&path, true).unwrap();
        let owned = Backing::open(&path, false).unwrap();
        assert!(!owned.is_mapped());
        assert_eq!(mapped.bytes(), owned.bytes());
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(mapped.is_mapped(), "unix 64-bit must actually map");

        let view = ArtifactView::parse(mapped, 4, 77).expect("valid mapped file");
        for (k, v) in pairs(9) {
            assert_eq!(view.lookup(&k), Some(v.as_slice()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_bytes_counts_header_and_index_only() {
        let buf = encode_v2(1, 1, pairs(10));
        let total = buf.len();
        let view = ArtifactView::parse(Backing::Owned(buf), 1, 1).unwrap();
        assert_eq!(view.warm_bytes(), HEADER_LEN + 10 * INDEX_ENTRY_LEN);
        assert!(view.warm_bytes() < total);
        assert_eq!(view.byte_len(), total);
    }
}
