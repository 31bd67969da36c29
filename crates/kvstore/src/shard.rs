//! A single LRU shard: a slab of entries threaded on an intrusive recency
//! list, indexed by a 32-bit tag of each key's hash.
//!
//! Kept lock-free internally; [`Cache`](crate::Cache) wraps each shard in
//! a mutex. Every read is an exact LRU step: [`Shard::get`] moves the
//! entry to the recency front inline and hands back the shared
//! `Arc<[u8]>` (a refcount bump, no copy), and an expired entry is
//! removed and counted by the read that sees it.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

const NIL: u32 = u32::MAX;

/// Multiply-rotate seed shared by the shard's hasher and the cache's
/// shard selector (which starts from a different initial state, so tag
/// and shard choices stay uncorrelated).
pub(crate) const KEY_HASH_SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Word-at-a-time multiply-rotate hasher (FxHash-style) for the shard's
/// keys, and for its index of their tags. Cache keys are short internal
/// workload identifiers (8–40 bytes), hashed in one or two multiplies —
/// several times faster than the default SipHash, whose hash-flooding
/// resistance buys nothing here.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyBuildHasher;

/// Streaming state produced by [`KeyBuildHasher`].
#[derive(Debug)]
pub struct KeyHasher(u64);

/// One multiply-rotate mixing step over a 64-bit word.
pub(crate) fn key_hash_step(state: u64, word: u64) -> u64 {
    (state.rotate_left(5) ^ word).wrapping_mul(KEY_HASH_SEED)
}

/// Folds `bytes` into `state`, eight bytes at a time.
pub(crate) fn key_hash_bytes(mut state: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        state = key_hash_step(state, u64::from_le_bytes(word));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut word = [0u8; 8];
        word[..rem.len()].copy_from_slice(rem);
        // Tag the tail with its length so "ab" and "ab\0" differ.
        state = key_hash_step(state, u64::from_le_bytes(word) ^ (rem.len() as u64) << 56);
    }
    state
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = key_hash_bytes(self.0, bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl BuildHasher for KeyBuildHasher {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher(0)
    }
}

/// Fixed per-entry bookkeeping charge (slab links, index entry, TTL),
/// approximating a production cache's metadata overhead.
pub const ENTRY_OVERHEAD: usize = 64;

/// Longest key stored inside its slab entry; a longer key gets one
/// boxed copy.
const INLINE_KEY: usize = 22;

/// `Entry::expires_at_ms` of an entry without a TTL.
const NO_TTL: u64 = u64::MAX;

/// A key's bytes, inline when they fit so that an insert allocates
/// nothing for the key.
#[derive(Debug)]
enum Key {
    Inline { len: u8, bytes: [u8; INLINE_KEY] },
    Boxed(Box<[u8]>),
}

impl Key {
    fn new(key: &[u8]) -> Self {
        if key.len() <= INLINE_KEY {
            let mut bytes = [0; INLINE_KEY];
            bytes[..key.len()].copy_from_slice(key);
            Key::Inline {
                len: key.len() as u8,
                bytes,
            }
        } else {
            Key::Boxed(key.into())
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            Key::Inline { len, bytes } => &bytes[..*len as usize],
            Key::Boxed(key) => key,
        }
    }
}

#[derive(Debug)]
struct Entry {
    key: Key,
    /// Values are shared slices so a hit hands out a reference-counted
    /// handle instead of copying the bytes — the read path's "zero-copy
    /// hits" property.
    value: Arc<[u8]>,
    /// [`NO_TTL`] when the entry never expires.
    expires_at_ms: u64,
    prev: u32,
    next: u32,
    /// The next entry whose key has the same hash tag, or `NIL`.
    dup: u32,
}

impl Entry {
    fn expired(&self, now_ms: u64) -> bool {
        self.expires_at_ms != NO_TTL && self.expires_at_ms <= now_ms
    }
}

/// An LRU map with byte-based capacity accounting and optional TTLs.
///
/// Each entry lives in one slab slot that holds its key (inline up to
/// 22 bytes), its value handle and its links. The index maps a 32-bit
/// tag of the key's hash to the slot heading that tag's chain; entries
/// whose tags are equal are chained through their slots, and a lookup
/// compares the key in each slot of the chain.
///
/// All time parameters are milliseconds on a caller-provided clock, which
/// keeps the shard deterministic under test.
#[derive(Debug)]
pub struct Shard {
    index: HashMap<u32, u32, KeyBuildHasher>,
    slab: Vec<Entry>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    used_bytes: usize,
    capacity_bytes: usize,
    evictions: u64,
    expirations: u64,
}

impl Shard {
    /// Creates a shard bounded to `capacity_bytes` of charged data, keyed
    /// with the multiply-rotate [`KeyBuildHasher`].
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            index: HashMap::with_hasher(KeyBuildHasher),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            used_bytes: 0,
            capacity_bytes,
            evictions: 0,
            expirations: 0,
        }
    }

    /// The modelled cost of an entry: a production cache's bookkeeping,
    /// which stores the key twice (index and item). It is not this
    /// shard's own layout, which stores the key once; keeping the model
    /// fixed keeps evictions, and so hits, misses and fills, independent
    /// of how the shard lays entries out.
    fn charge(key: &[u8], value: &[u8]) -> usize {
        key.len() * 2 + value.len() + ENTRY_OVERHEAD
    }

    /// The key's 64-bit hash folded to 32 bits. Both halves go in: under
    /// the multiply-rotate hasher the low half depends only on the low
    /// bytes of each word.
    fn tag(&self, key: &[u8]) -> u32 {
        let h = KeyBuildHasher.hash_one(key);
        (h ^ (h >> 32)) as u32
    }

    /// The slot holding `key`, whose tag is `tag`.
    fn find(&self, tag: u32, key: &[u8]) -> Option<u32> {
        let mut idx = *self.index.get(&tag)?;
        while idx != NIL {
            let entry = &self.slab[idx as usize];
            if entry.key.as_bytes() == key {
                return Some(idx);
            }
            idx = entry.dup;
        }
        None
    }

    fn detach(&mut self, idx: u32) {
        let (prev, next) = {
            let e = &self.slab[idx as usize];
            (e.prev, e.next)
        };
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let e = &mut self.slab[idx as usize];
            e.prev = NIL;
            e.next = old_head;
        }
        if old_head != NIL {
            self.slab[old_head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Unlinks the entry in slot `idx` from its tag chain (`tag` is its
    /// key's tag) and from the recency list, and frees the slot.
    fn remove_idx(&mut self, tag: u32, idx: u32) {
        self.detach(idx);
        let dup = self.slab[idx as usize].dup;
        if let Some(head) = self.index.get_mut(&tag) {
            if *head != idx {
                let mut prev = *head;
                while self.slab[prev as usize].dup != idx {
                    prev = self.slab[prev as usize].dup;
                }
                self.slab[prev as usize].dup = dup;
            } else if dup != NIL {
                *head = dup;
            } else {
                self.index.remove(&tag);
            }
        }
        let entry = &mut self.slab[idx as usize];
        self.used_bytes -= Self::charge(entry.key.as_bytes(), &entry.value);
        // Drop this slot's handle; the bytes free once the last reader's
        // clone does (empty `Arc<[u8]>` is allocation-free). A boxed key
        // frees with it.
        entry.value = Arc::default();
        entry.key = Key::new(&[]);
        self.free.push(idx);
    }

    /// Looks up `key`, moving it to the recency front. Returns a shared
    /// handle to the cached bytes (zero-copy). Expired entries are
    /// removed, counted in [`Shard::expirations`], and reported absent.
    pub fn get(&mut self, key: &[u8], now_ms: u64) -> Option<Arc<[u8]>> {
        let tag = self.tag(key);
        let idx = self.find(tag, key)?;
        if self.slab[idx as usize].expired(now_ms) {
            self.remove_idx(tag, idx);
            self.expirations += 1;
            return None;
        }
        self.detach(idx);
        self.attach_front(idx);
        Some(Arc::clone(&self.slab[idx as usize].value))
    }

    /// Checks presence without refreshing recency or cloning.
    pub fn contains(&self, key: &[u8], now_ms: u64) -> bool {
        self.find(self.tag(key), key)
            .is_some_and(|idx| !self.slab[idx as usize].expired(now_ms))
    }

    /// Inserts or replaces `key`, evicting LRU entries to stay within
    /// capacity. Returns the number of entries evicted. Accepts anything
    /// convertible to a shared slice, so owned writes (`Vec<u8>`) and
    /// already-shared fills (`Arc<[u8]>`) both land without an extra copy
    /// beyond the conversion itself.
    pub fn insert(
        &mut self,
        key: &[u8],
        value: impl Into<Arc<[u8]>>,
        ttl_ms: Option<u64>,
        now_ms: u64,
    ) -> u64 {
        let value: Arc<[u8]> = value.into();
        let tag = self.tag(key);
        if let Some(idx) = self.find(tag, key) {
            self.remove_idx(tag, idx);
        }
        let charge = Self::charge(key, &value);
        let entry = Entry {
            key: Key::new(key),
            value,
            expires_at_ms: ttl_ms.map_or(NO_TTL, |t| now_ms.saturating_add(t)),
            prev: NIL,
            next: NIL,
            dup: NIL,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = entry;
                i
            }
            None => {
                self.slab.push(entry);
                (self.slab.len() - 1) as u32
            }
        };
        if let Some(next) = self.index.insert(tag, idx) {
            self.slab[idx as usize].dup = next;
        }
        self.used_bytes += charge;
        self.attach_front(idx);

        let mut evicted = 0;
        while self.used_bytes > self.capacity_bytes && self.tail != NIL && self.tail != idx {
            let victim = self.tail;
            let victim_tag = self.tag(self.slab[victim as usize].key.as_bytes());
            self.remove_idx(victim_tag, victim);
            evicted += 1;
        }
        self.evictions += evicted;
        evicted
    }

    /// Removes `key`, returning whether it was present.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        let tag = self.tag(key);
        if let Some(idx) = self.find(tag, key) {
            self.remove_idx(tag, idx);
            true
        } else {
            false
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Whether the shard holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Charged bytes currently held.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Total evictions performed.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Total TTL expirations observed.
    pub fn expirations(&self) -> u64 {
        self.expirations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard() -> Shard {
        Shard::new(10_000)
    }

    #[test]
    fn insert_then_get() {
        let mut s = shard();
        s.insert(b"a", vec![1, 2], None, 0);
        assert_eq!(s.get(b"a", 0).as_deref(), Some(&[1u8, 2][..]));
        assert_eq!(s.len(), 1);
        assert!(s.get(b"b", 0).is_none());
    }

    #[test]
    fn replace_updates_value_and_charge() {
        let mut s = shard();
        s.insert(b"a", vec![0; 100], None, 0);
        let used_before = s.used_bytes();
        s.insert(b"a", vec![0; 10], None, 0);
        assert_eq!(s.get(b"a", 0).as_deref(), Some(&[0u8; 10][..]));
        assert!(s.used_bytes() < used_before);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Capacity fits ~3 entries of this size.
        let charge = Shard::charge(b"k0", &[0u8; 100]);
        let mut s = Shard::new(charge * 3);
        s.insert(b"k0", vec![0; 100], None, 0);
        s.insert(b"k1", vec![0; 100], None, 0);
        s.insert(b"k2", vec![0; 100], None, 0);
        // Read k0 so k1 is the LRU.
        assert!(s.get(b"k0", 0).is_some());
        s.insert(b"k3", vec![0; 100], None, 0);
        assert!(s.get(b"k1", 0).is_none(), "k1 should have been evicted");
        assert!(s.get(b"k0", 0).is_some());
        assert!(s.get(b"k2", 0).is_some());
        assert!(s.get(b"k3", 0).is_some());
        assert_eq!(s.evictions(), 1);
    }

    #[test]
    fn ttl_expires_entries() {
        let mut s = shard();
        s.insert(b"a", vec![1], Some(100), 0);
        assert!(s.get(b"a", 50).is_some());
        assert!(s.get(b"a", 100).is_none());
        assert_eq!(s.expirations(), 1);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn contains_does_not_refresh() {
        let charge = Shard::charge(b"k0", &[0u8; 100]);
        let mut s = Shard::new(charge * 2);
        s.insert(b"k0", vec![0; 100], None, 0);
        s.insert(b"k1", vec![0; 100], None, 0);
        assert!(s.contains(b"k0", 0)); // must NOT move k0 to front
        s.insert(b"k2", vec![0; 100], None, 0);
        assert!(!s.contains(b"k0", 0), "k0 was LRU and must be evicted");
    }

    #[test]
    fn remove_frees_capacity() {
        let mut s = shard();
        s.insert(b"a", vec![0; 100], None, 0);
        assert!(s.remove(b"a"));
        assert!(!s.remove(b"a"));
        assert_eq!(s.used_bytes(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut s = shard();
        for round in 0..10 {
            for i in 0..20u8 {
                s.insert(&[round, i], vec![i], None, 0);
            }
            for i in 0..20u8 {
                assert!(s.remove(&[round, i]));
            }
        }
        assert!(s.slab.len() <= 20, "slab grew to {}", s.slab.len());
    }

    #[test]
    fn oversized_single_entry_is_kept() {
        // An entry larger than capacity stays resident (can't evict the
        // entry just inserted); the next insert pushes it out.
        let mut s = Shard::new(50);
        s.insert(b"big", vec![0; 500], None, 0);
        assert!(s.get(b"big", 0).is_some());
        s.insert(b"big2", vec![0; 500], None, 0);
        assert!(s.get(b"big", 0).is_none());
        assert!(s.get(b"big2", 0).is_some());
    }

    #[test]
    fn many_inserts_respect_capacity() {
        let mut s = Shard::new(5_000);
        for i in 0..1000u32 {
            s.insert(&i.to_le_bytes(), vec![0; 64], None, 0);
            assert!(
                s.used_bytes() <= 5_000 + Shard::charge(&i.to_le_bytes(), &[0u8; 64]),
                "used {} after {i}",
                s.used_bytes()
            );
        }
        assert!(s.len() < 1000);
        assert!(s.evictions() > 0);
    }

    #[test]
    fn recency_order_is_full_chain() {
        // Insert many, touch in a known order, then force evictions and
        // check survivors match the touch order.
        let charge = Shard::charge(b"k0", &[0u8; 10]);
        let mut s = Shard::new(charge * 5);
        for i in 0..5u8 {
            s.insert(&[i], vec![0; 10], None, 0);
        }
        // Read order: 3, 1, 4, 0, 2 → LRU is 3 after reading all.
        for i in [3u8, 1, 4, 0, 2] {
            assert!(s.get(&[i], 0).is_some());
        }
        s.insert(&[9], vec![0; 10], None, 0); // evicts 3
        assert!(!s.contains(&[3], 0));
        s.insert(&[10], vec![0; 10], None, 0); // evicts 1
        assert!(!s.contains(&[1], 0));
        assert!(s.contains(&[2], 0));
    }

    #[test]
    fn an_entry_fits_a_cache_line() {
        assert!(
            std::mem::size_of::<Entry>() <= 64,
            "Entry is {} bytes",
            std::mem::size_of::<Entry>()
        );
    }

    #[test]
    fn keys_inline_and_boxed_round_trip() {
        let mut s = shard();
        let keys: Vec<Vec<u8>> = (0..=40u8).map(|n| (0..n).collect()).collect();
        for (i, key) in keys.iter().enumerate() {
            s.insert(key, vec![i as u8], None, 0);
        }
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(s.get(key, 0).as_deref(), Some(&[i as u8][..]));
        }
        assert!(matches!(Key::new(&keys[22]), Key::Inline { .. }));
        assert!(matches!(Key::new(&keys[23]), Key::Boxed(_)));
    }

    #[test]
    fn sequential_keys_spread_over_tags() {
        // Folding the hash's high half into the tag is what keeps these
        // apart: they differ only in their last bytes.
        let mut s = Shard::new(usize::MAX);
        for i in 0..10_000 {
            s.insert(format!("user:{i:08}").as_bytes(), vec![0], None, 0);
        }
        let longest = s
            .index
            .values()
            .map(|&head| {
                let (mut idx, mut len) = (head, 0);
                while idx != NIL {
                    len += 1;
                    idx = s.slab[idx as usize].dup;
                }
                len
            })
            .max();
        assert_eq!(s.len(), 10_000);
        assert!(longest <= Some(4), "longest tag chain {longest:?}");
    }
}
