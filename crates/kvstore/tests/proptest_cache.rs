//! Property tests for the cache: a model-based test against a reference
//! map, capacity invariants under arbitrary operation sequences, and an
//! exact-LRU oracle check for the scalar and batched read paths.

use dcperf_kvstore::shard::Shard;
use dcperf_kvstore::{Cache, CacheConfig};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Set(u8, Vec<u8>),
    Get(u8),
    GetMany(Vec<u8>),
    Delete(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(k, v)| Op::Set(k, v)),
        any::<u8>().prop_map(Op::Get),
        proptest::collection::vec(any::<u8>(), 1..8).prop_map(Op::GetMany),
        any::<u8>().prop_map(Op::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With ample capacity the cache must behave exactly like a map.
    #[test]
    fn cache_matches_reference_map(ops in proptest::collection::vec(op_strategy(), 0..200)) {
        let cache = Cache::new(CacheConfig::with_capacity_bytes(4 << 20).with_shards(4));
        let mut reference: HashMap<u8, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                Op::Set(k, v) => {
                    cache.set(&[k], v.clone());
                    reference.insert(k, v);
                }
                Op::Get(k) => {
                    let got = cache.get(&[k]).map(|v| v.to_vec());
                    prop_assert_eq!(got, reference.get(&k).cloned(), "key {}", k);
                }
                Op::GetMany(ks) => {
                    let keys: Vec<[u8; 1]> = ks.iter().map(|&k| [k]).collect();
                    let refs: Vec<&[u8]> = keys.iter().map(|k| &k[..]).collect();
                    let got: Vec<_> = cache.get_many(&refs).into_iter().map(|v| v.map(|v| v.to_vec())).collect();
                    let expected: Vec<_> = ks.iter().map(|k| reference.get(k).cloned()).collect();
                    prop_assert_eq!(got, expected, "keys {:?}", ks);
                }
                Op::Delete(k) => {
                    let was_present = reference.remove(&k).is_some();
                    prop_assert_eq!(cache.delete(&[k]), was_present, "key {}", k);
                }
            }
        }
        prop_assert_eq!(cache.len(), reference.len());
    }

    /// Under any workload the charged bytes stay within capacity plus one
    /// entry of slack per shard.
    #[test]
    fn capacity_is_respected(
        ops in proptest::collection::vec(
            (any::<u16>(), 1usize..512), 1..300),
    ) {
        let capacity = 32 << 10;
        let cache = Cache::new(CacheConfig::with_capacity_bytes(capacity).with_shards(4));
        let mut max_seen = 0usize;
        for (key, len) in ops {
            cache.set(&key.to_le_bytes(), vec![0u8; len]);
            max_seen = max_seen.max(cache.used_bytes());
        }
        // Slack: one max-size entry (value + keys + overhead) per shard.
        let slack = 4 * (512 + 2 * 2 + 64);
        prop_assert!(
            max_seen <= capacity + slack,
            "used {} exceeded capacity {} + slack {}", max_seen, capacity, slack
        );
    }

    /// get_or_load never returns a value different from what the loader
    /// supplied for that key.
    #[test]
    fn read_through_is_consistent(keys in proptest::collection::vec(any::<u8>(), 1..200)) {
        let cache = Cache::new(CacheConfig::with_capacity_bytes(1 << 20).with_shards(2));
        for k in keys {
            let got = cache.get_or_load(&[k], |key| Some(vec![key[0]; 3]));
            prop_assert_eq!(got.map(|v| v.to_vec()), Some(vec![k; 3]));
        }
    }

    /// The default cache must evict in exact LRU order. A one-shard
    /// [`Cache`] driven against a [`Shard`] oracle must agree on hit
    /// results and membership at every step — including under capacity
    /// pressure, where any recency divergence changes which key is
    /// evicted — whether keys are read one at a time or as a
    /// `get_many` burst (which must touch its keys in input order).
    #[test]
    fn cache_matches_exact_lru_oracle(
        ops in proptest::collection::vec(
            prop_oneof![
                (0u8..48, 16usize..128).prop_map(|(k, len)| Op::Set(k, vec![k; len])),
                (0u8..48).prop_map(Op::Get),
                proptest::collection::vec(0u8..48, 1..8).prop_map(Op::GetMany),
                (0u8..48).prop_map(Op::Delete),
            ],
            1..400,
        ),
    ) {
        // About 25 entries over 48 keys: reads mostly hit, and sets evict
        // constantly, so any recency divergence changes the victim.
        let capacity = 4 << 10;
        let cache = Cache::new(CacheConfig::with_capacity_bytes(capacity).with_shards(1));
        let mut oracle = Shard::new(capacity);
        for op in ops {
            match op {
                Op::Set(k, v) => {
                    cache.set(&[k], v.clone());
                    oracle.insert(&[k], v, None, 0);
                }
                Op::Get(k) => {
                    let got = cache.get(&[k]);
                    let expected = oracle.get(&[k], 0);
                    prop_assert_eq!(got, expected, "get({}) diverged from exact LRU", k);
                }
                Op::GetMany(ks) => {
                    let keys: Vec<[u8; 1]> = ks.iter().map(|&k| [k]).collect();
                    let refs: Vec<&[u8]> = keys.iter().map(|k| &k[..]).collect();
                    let got = cache.get_many(&refs);
                    let expected: Vec<_> = refs.iter().map(|k| oracle.get(k, 0)).collect();
                    prop_assert_eq!(got, expected, "get_many({:?}) diverged from exact LRU", ks);
                }
                Op::Delete(k) => {
                    prop_assert_eq!(cache.delete(&[k]), oracle.remove(&[k]), "delete({})", k);
                }
            }
        }
        for k in 0..=255u8 {
            prop_assert_eq!(
                cache.contains(&[k]),
                oracle.contains(&[k], 0),
                "membership of {} diverged from exact LRU", k
            );
        }
        prop_assert_eq!(cache.len(), oracle.len());
        prop_assert_eq!(cache.used_bytes(), oracle.used_bytes());
    }
}
