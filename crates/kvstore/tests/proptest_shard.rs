//! Model test for `Shard`: every operation is checked against a
//! recency-ordered list that charges entries by the same formula. Entries
//! carry TTLs, and keys are long enough that inline and boxed keys both
//! occur. The shard runs on keys of 1 to 40 bytes, and on keys of 16 to
//! 40 bytes built so that each hashes to one of four values, so chains of
//! keys sharing a tag grow long and are unlinked from every position.

use dcperf_kvstore::shard::{KeyBuildHasher, Shard, ENTRY_OVERHEAD};
use proptest::prelude::*;
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

/// The multiplier of the shard's multiply-rotate key hasher.
const KEY_HASH_MUL: u64 = 0x517c_c1b7_2722_0a95;

/// A `len`-byte key (`len` a multiple of 8, at least 16) whose hash under
/// [`KeyBuildHasher`] is `target`. Its first `len - 8` bytes are `b'k'`
/// except the last of them, which is `id`; the final word is solved for
/// from the hasher's last step, `(state.rotate_left(5) ^ word) * MUL`.
fn key_hashing_to(len: usize, id: u8, target: u64) -> Vec<u8> {
    let mut key = vec![b'k'; len - 8];
    key[len - 9] = id;
    let mut hasher = KeyBuildHasher.build_hasher();
    hasher.write_usize(len);
    hasher.write(&key);
    // The multiplier is odd, so it has an inverse mod 2^64 (Newton).
    let mut inverse = KEY_HASH_MUL;
    for _ in 0..5 {
        inverse = inverse.wrapping_mul(2u64.wrapping_sub(KEY_HASH_MUL.wrapping_mul(inverse)));
    }
    let word = hasher.finish().rotate_left(5) ^ target.wrapping_mul(inverse);
    key.extend_from_slice(&word.to_le_bytes());
    assert_eq!(KeyBuildHasher.hash_one(&key[..]), target, "hasher changed");
    key
}

struct ModelEntry {
    key: Vec<u8>,
    value: Arc<[u8]>,
    expires_at_ms: Option<u64>,
}

/// Exact LRU over a list, most recent first.
struct Model {
    entries: Vec<ModelEntry>,
    capacity: usize,
    used: usize,
    evictions: u64,
    expirations: u64,
}

fn charge(key: &[u8], value: &[u8]) -> usize {
    key.len() * 2 + value.len() + ENTRY_OVERHEAD
}

impl Model {
    fn position(&self, key: &[u8]) -> Option<usize> {
        self.entries.iter().position(|e| e.key == key)
    }

    fn take(&mut self, at: usize) -> ModelEntry {
        let entry = self.entries.remove(at);
        self.used -= charge(&entry.key, &entry.value);
        entry
    }

    fn get(&mut self, key: &[u8], now: u64) -> Option<Arc<[u8]>> {
        let at = self.position(key)?;
        let entry = self.take(at);
        if entry.expires_at_ms.is_some_and(|exp| exp <= now) {
            self.expirations += 1;
            return None;
        }
        let value = Arc::clone(&entry.value);
        self.used += charge(&entry.key, &entry.value);
        self.entries.insert(0, entry);
        Some(value)
    }

    fn contains(&self, key: &[u8], now: u64) -> bool {
        self.position(key)
            .is_some_and(|at| self.entries[at].expires_at_ms.is_none_or(|exp| exp > now))
    }

    fn insert(&mut self, key: &[u8], value: Arc<[u8]>, ttl: Option<u64>, now: u64) -> u64 {
        if let Some(at) = self.position(key) {
            self.take(at);
        }
        self.used += charge(key, &value);
        self.entries.insert(
            0,
            ModelEntry {
                key: key.to_vec(),
                value,
                expires_at_ms: ttl.map(|t| now + t),
            },
        );
        let mut evicted = 0;
        while self.used > self.capacity && self.entries.len() > 1 {
            self.take(self.entries.len() - 1);
            evicted += 1;
        }
        self.evictions += evicted;
        evicted
    }

    fn remove(&mut self, key: &[u8]) -> bool {
        self.position(key).map(|at| self.take(at)).is_some()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(usize, usize, Option<u64>),
    Get(usize),
    Contains(usize),
    Remove(usize),
    Tick(u64),
}

/// 24 keys of 1–40 bytes; keys share prefixes, so a comparison that
/// stops early or reads past a short key shows.
fn keys() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(1usize..41, 24..25).prop_map(|lens| {
        lens.into_iter()
            .enumerate()
            .map(|(i, len)| {
                let mut key = vec![b'k'; len];
                key[len - 1] = i as u8;
                key
            })
            .collect()
    })
}

/// The four hashes of [`four_tag_keys`]; their 32-bit tags differ too.
const TARGETS: [u64; 4] = [1, 2, 3, 0x9e37_79b9_7f4a_7c15];

/// 24 keys of 16–40 bytes that hash to four values, so every tag chain
/// holds about six keys. Keys over 22 bytes are boxed.
fn four_tag_keys() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(2usize..6, 24..25).prop_map(|words| {
        words
            .into_iter()
            .enumerate()
            .map(|(i, words)| key_hashing_to(8 * words, i as u8, TARGETS[i % 4]))
            .collect()
    })
}

/// Inserts (half without a TTL) and reads twice as often as the rest.
fn ops() -> impl Strategy<Value = Vec<Op>> {
    let insert = || {
        (0usize..24, 0usize..200, 0u64..100)
            .prop_map(|(k, len, ttl)| Op::Insert(k, len, (ttl < 50).then_some(ttl + 1)))
    };
    proptest::collection::vec(
        prop_oneof![
            insert(),
            insert(),
            (0usize..24).prop_map(Op::Get),
            (0usize..24).prop_map(Op::Get),
            (0usize..24).prop_map(Op::Contains),
            (0usize..24).prop_map(Op::Remove),
            (1u64..20).prop_map(Op::Tick),
        ],
        1..300,
    )
}

fn run(mut shard: Shard, keys: &[Vec<u8>], ops: &[Op], capacity: usize) {
    let mut model = Model {
        entries: Vec::new(),
        capacity,
        used: 0,
        evictions: 0,
        expirations: 0,
    };
    let mut now = 0;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(k, len, ttl) => {
                let value: Arc<[u8]> = vec![k as u8; len].into();
                let got = shard.insert(&keys[k], Arc::clone(&value), ttl, now);
                let expected = model.insert(&keys[k], value, ttl, now);
                assert_eq!(got, expected, "step {step}: evictions of {op:?}");
            }
            Op::Get(k) => {
                let got = shard.get(&keys[k], now);
                assert_eq!(got, model.get(&keys[k], now), "step {step}: {op:?}");
            }
            Op::Contains(k) => {
                let got = shard.contains(&keys[k], now);
                assert_eq!(got, model.contains(&keys[k], now), "step {step}: {op:?}");
            }
            Op::Remove(k) => {
                let got = shard.remove(&keys[k]);
                assert_eq!(got, model.remove(&keys[k]), "step {step}: {op:?}");
            }
            Op::Tick(ms) => now += ms,
        }
        assert_eq!(shard.len(), model.entries.len(), "step {step}: len");
        assert_eq!(shard.used_bytes(), model.used, "step {step}: used bytes");
        assert_eq!(shard.evictions(), model.evictions, "step {step}");
        assert_eq!(shard.expirations(), model.expirations, "step {step}");
    }
    // Every resident key is still indexed.
    for entry in &model.entries {
        assert!(
            shard.contains(&entry.key, 0),
            "{:?} lost from the index",
            entry.key
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// About eight average entries fit, so inserts evict constantly.
    #[test]
    fn shard_matches_lru_model(keys in keys(), ops in ops()) {
        let capacity = 8 * (ENTRY_OVERHEAD + 140);
        run(Shard::new(capacity), &keys, &ops, capacity);
    }

    #[test]
    fn shard_matches_lru_model_with_four_tags(keys in four_tag_keys(), ops in ops()) {
        let capacity = 8 * (ENTRY_OVERHEAD + 140);
        run(Shard::new(capacity), &keys, &ops, capacity);
    }
}
