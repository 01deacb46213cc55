//! The `TGARTv2` on-disk artifact format.
//!
//! Records use the [`DiskCodec`](crate::store::DiskCodec) encodings,
//! fronted by a fixed-offset index, so a warm start is one
//! `std::fs::read` plus an index check — lookups binary-search the
//! index and decode exactly one record:
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
//! record offset is naturally 8-byte aligned. [`ArtifactView::parse`]
//! checks `len % 8 == 0` per entry: an unaligned length marks a foreign
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
// Parsed view
// ---------------------------------------------------------------------------

/// A validated view over one v2 artifact file: the file's bytes plus
/// the entry count. All per-entry access goes through the index; the
/// payload is only decoded when a record is actually looked up or
/// iterated.
pub(crate) struct ArtifactView {
    bytes: Vec<u8>,
    count: usize,
}

impl ArtifactView {
    /// Validates a v2 byte image end to end (see the module docs for
    /// the rules). Returns `None` on any structural problem, a foreign
    /// fingerprint, or a kind-tag mismatch — the caller treats the file
    /// as absent.
    pub(crate) fn parse(bytes: Vec<u8>, kind_tag: u64, fingerprint: u64) -> Option<ArtifactView> {
        let buf = bytes.as_slice();
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
        // the whole O(N) cost of a warm start past the read, so it reads
        // the index through `chunks_exact` — one bounds check up front,
        // then straight-line `from_le_bytes` per field.
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
        Some(ArtifactView { bytes, count })
    }

    /// Number of records.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Total size of the file image in bytes.
    pub(crate) fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    fn index_entry(&self, i: usize) -> (u64, usize, usize) {
        let base = HEADER_LEN + INDEX_ENTRY_LEN * i;
        // Bounds were established by `parse`; the fallback cannot fire,
        // but stays in Option form to keep this file panic-free.
        match self.bytes.get(base..base + INDEX_ENTRY_LEN) {
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
        self.bytes.get(offset..offset + len).unwrap_or(&[])
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
            let record = self.bytes.get(offset..offset + len)?;
            if record.len() >= key.len() && &record[..key.len()] == key {
                return Some(&record[key.len()..]);
            }
            i += 1;
        }
        None
    }
}

#[cfg(test)]
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

        let view = ArtifactView::parse(a, 3, 42).expect("valid file");
        assert_eq!(view.count(), 17);
        assert_eq!(view.byte_len(), b.len());
        for (k, v) in pairs(17) {
            assert_eq!(view.lookup(&k), Some(v.as_slice()));
        }
        assert_eq!(view.lookup(&999u64.to_le_bytes()), None);
    }

    #[test]
    fn empty_file_round_trips() {
        let buf = encode_v2(1, 9, Vec::new());
        assert_eq!(buf.len(), HEADER_LEN);
        let view = ArtifactView::parse(buf, 1, 9).expect("valid empty file");
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
                ArtifactView::parse(bad, 2, 7).is_none(),
                "parse must reject: {what}"
            );
        }
        assert!(ArtifactView::parse(good, 2, 7).is_some());
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
        let view = ArtifactView::parse(buf, 5, 11).expect("valid");
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
}
