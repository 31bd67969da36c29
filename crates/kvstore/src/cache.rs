//! The sharded, read-through cache.
//!
//! Two properties take this tier beyond a textbook locked LRU map:
//!
//! * **Exact LRU, zero-copy hits** — each shard sits behind one
//!   [`std::sync::Mutex`]. A hit moves its entry to the recency front
//!   inline under that lock and hands back a reference-counted handle to
//!   the shared `Arc<[u8]>` value instead of copying the bytes out, so
//!   the critical section is an index probe, a key compare, a list splice
//!   and a refcount bump. Eviction order is exact LRU; with one caller thread it is a
//!   pure function of the operation sequence. An expired entry is removed
//!   and counted by the read that sees it. Pipelined bursts map onto
//!   shard-grouped [`Cache::get_many`] / [`Cache::set_many`] passes that
//!   take each shard's lock once per burst.
//! * **Single-flight fills** — concurrent misses on one key are
//!   deduplicated through a per-shard in-flight table: one caller (the
//!   leader) runs the loader, everyone else parks on a condvar and
//!   receives the filled value. A failed (or panicked) loader publishes a
//!   typed `Failed` outcome, so waiters observe the failure *without*
//!   re-running the loader — an injected backing-store stall cannot turn
//!   one miss into N concurrent loads.

use crate::shard::{Shard, ENTRY_OVERHEAD};
use crate::stats::CacheStats;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

thread_local! {
    /// Per-thread shard tags for [`Cache::get_many`], reused across calls
    /// so the batched read path's only steady-state allocation is its
    /// results vector.
    static GET_MANY_SCRATCH: std::cell::RefCell<Vec<u32>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The smallest per-shard byte budget worth sharding down to: enough for
/// one typical entry (metadata overhead plus a small key and value).
/// [`Cache::new`] clamps the shard count so no shard falls below this,
/// preventing degenerate configurations where every entry is "oversized"
/// and permanently resident.
pub const MIN_SHARD_CAPACITY: usize = 4 * ENTRY_OVERHEAD;

/// Cache sizing and sharding configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total charged capacity across all shards.
    pub capacity_bytes: usize,
    /// Number of independent shards (rounded up to a power of two, then
    /// clamped so each shard holds at least [`MIN_SHARD_CAPACITY`] bytes).
    pub shards: usize,
    /// Default TTL applied by [`Cache::set`] when none is given, in
    /// milliseconds; `None` disables expiry.
    pub default_ttl_ms: Option<u64>,
    /// Whether concurrent misses on one key are collapsed onto a single
    /// loader run (on by default). Disabling reproduces the classic
    /// Memcached-style thundering herd, which `cargo bench-kvstore`
    /// measures as fill amplification.
    pub single_flight: bool,
}

impl CacheConfig {
    /// A configuration with the given capacity and a shard count suited to
    /// the host's parallelism.
    pub fn with_capacity_bytes(capacity_bytes: usize) -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self {
            capacity_bytes,
            shards: (parallelism * 4).next_power_of_two(),
            default_ttl_ms: None,
            single_flight: true,
        }
    }

    /// Overrides the shard count (builder style).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1).next_power_of_two();
        self
    }

    /// Sets the default TTL (builder style).
    pub fn with_default_ttl_ms(mut self, ttl_ms: u64) -> Self {
        self.default_ttl_ms = Some(ttl_ms);
        self
    }

    /// Disables single-flight fill deduplication (builder style).
    pub fn without_single_flight(mut self) -> Self {
        self.single_flight = false;
        self
    }
}

/// Result a leader publishes to parked waiters when its fill completes.
#[derive(Clone)]
enum FillOutcome {
    /// The loader produced a value; every waiter receives a cheap clone
    /// of the same shared slice.
    Filled(Arc<[u8]>),
    /// The loader returned nothing or panicked; waiters observe the
    /// failure without re-running the loader.
    Failed,
}

struct FillState {
    /// `None` until the leader publishes.
    outcome: Option<FillOutcome>,
    /// Waiters parked on `done`. The leader notifies only when there is
    /// one: a notify makes a futex call even with no thread to wake.
    parked: usize,
}

/// One in-flight fill: waiters park on `done` until the leader publishes.
struct InFlight {
    state: Mutex<FillState>,
    done: Condvar,
}

enum FillRole {
    Leader(Arc<InFlight>),
    Waiter(Arc<InFlight>),
}

/// Locks `m`, recovering the guard from a poisoned lock. Loaders and other
/// caller code never run under these locks, so poison carries no news.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One shard plus its in-flight fill table.
struct CacheShard {
    data: Mutex<Shard>,
    /// In-flight fills keyed by the missing key.
    fills: Mutex<HashMap<Box<[u8]>, Arc<InFlight>>>,
}

/// Publishes a `Failed` outcome on drop unless the leader completed its
/// fill, so a panicking loader releases its waiters and un-poisons the
/// key instead of wedging every future miss.
struct FillGuard<'a> {
    cache: &'a Cache,
    shard: usize,
    key: &'a [u8],
    flight: Arc<InFlight>,
    published: bool,
}

impl FillGuard<'_> {
    fn publish(&mut self, outcome: FillOutcome) {
        let parked = {
            let mut state = lock(&self.flight.state);
            state.outcome = Some(outcome);
            state.parked
        };
        if parked > 0 {
            self.flight.done.notify_all();
        }
        lock(&self.cache.shards[self.shard].fills).remove(self.key);
        self.published = true;
    }
}

impl Drop for FillGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.publish(FillOutcome::Failed);
        }
    }
}

/// A concurrent, sharded LRU cache with single-flight read-through fills.
///
/// See the [crate-level documentation](crate) for the architectural
/// rationale and an example.
pub struct Cache {
    shards: Vec<CacheShard>,
    mask: u64,
    stats: CacheStats,
    default_ttl_ms: Option<u64>,
    single_flight: bool,
    epoch: Instant,
    /// Skew added to the millisecond clock; lets TTL tests run
    /// deterministically without sleeping.
    #[cfg(test)]
    clock_skew_ms: std::sync::atomic::AtomicU64,
}

impl std::fmt::Debug for Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .finish()
    }
}

impl Cache {
    /// Creates a cache from `config` with counters in a private registry.
    pub fn new(config: CacheConfig) -> Self {
        Self::with_stats(config, CacheStats::new())
    }

    /// Creates a cache whose counters are registered under
    /// `kvstore.cache.*` in `telemetry`, so a suite-level registry sees
    /// cache traffic alongside every other subsystem.
    pub fn with_telemetry(config: CacheConfig, telemetry: &dcperf_telemetry::Telemetry) -> Self {
        Self::with_stats(
            config,
            CacheStats::with_telemetry(telemetry, dcperf_telemetry::metrics::PREFIX_CACHE),
        )
    }

    fn with_stats(config: CacheConfig, stats: CacheStats) -> Self {
        let mut shard_count = config.shards.max(1).next_power_of_two();
        // Clamp the shard count so every shard can hold at least one
        // typical entry; a 1 KiB cache split 64 ways would otherwise
        // give each shard a budget below the per-entry overhead.
        while shard_count > 1 && config.capacity_bytes / shard_count < MIN_SHARD_CAPACITY {
            shard_count /= 2;
        }
        let per_shard = (config.capacity_bytes / shard_count).max(1);
        Self {
            shards: (0..shard_count)
                .map(|_| CacheShard {
                    data: Mutex::new(Shard::new(per_shard)),
                    fills: Mutex::new(HashMap::new()),
                })
                .collect(),
            mask: (shard_count - 1) as u64,
            stats,
            default_ttl_ms: config.default_ttl_ms,
            single_flight: config.single_flight,
            epoch: Instant::now(),
            #[cfg(test)]
            clock_skew_ms: std::sync::atomic::AtomicU64::new(0),
        }
    }

    fn now_ms(&self) -> u64 {
        #[cfg(not(test))]
        let skew = 0;
        #[cfg(test)]
        // ordering: test-only skew counter, monotonic, guards nothing
        let skew = self
            .clock_skew_ms
            .load(std::sync::atomic::Ordering::Relaxed);
        (self.epoch.elapsed().as_millis() as u64).saturating_add(skew)
    }

    /// Advances the cache's millisecond clock without sleeping — a
    /// deterministic-test hook for TTL behaviour (for example, simulating
    /// a loader that stalls for seconds under fault injection).
    #[cfg(test)]
    fn advance_clock_ms(&self, ms: u64) {
        // ordering: test-only skew counter, monotonic, guards nothing
        self.clock_skew_ms
            .fetch_add(ms, std::sync::atomic::Ordering::Relaxed);
    }

    /// Multiply-rotate hash over the key selects the shard — computed
    /// exactly once per operation; every path below carries the index
    /// instead of re-hashing. Starts from a different state than the
    /// shards' key hasher and folds the high bits into the low ones, so
    /// the masked shard choice stays uncorrelated with a key's tag.
    fn shard_index(&self, key: &[u8]) -> usize {
        let h = crate::shard::key_hash_bytes(0xcbf2_9ce4_8422_2325, key);
        ((h ^ (h >> 32)) & self.mask) as usize
    }

    /// Lookup on one shard under its lock: an exact LRU step. An expired
    /// entry is removed and counted by this read.
    fn get_at(&self, shard: usize, key: &[u8], now: u64) -> Option<Arc<[u8]>> {
        let mut guard = lock(&self.shards[shard].data);
        let expired_before = guard.expirations();
        let value = guard.get(key, now);
        let expired = guard.expirations() - expired_before;
        drop(guard);
        self.stats.record_expirations(expired);
        value
    }

    /// Inserts under the shard lock.
    fn insert_at(
        &self,
        shard: usize,
        key: &[u8],
        value: impl Into<Arc<[u8]>>,
        ttl_ms: Option<u64>,
        now: u64,
    ) {
        let evicted = lock(&self.shards[shard].data).insert(key, value, ttl_ms, now);
        self.stats.record_insertion(evicted);
    }

    /// Looks up `key` without filling on a miss. A hit returns a shared
    /// handle to the cached bytes (zero-copy); call `to_vec()` if an
    /// owned buffer is needed.
    pub fn get(&self, key: &[u8]) -> Option<Arc<[u8]>> {
        let now = self.now_ms();
        let shard = self.shard_index(key);
        let result = self.get_at(shard, key, now);
        match &result {
            Some(_) => self.stats.record_hit(),
            None => self.stats.record_miss(),
        }
        result
    }

    /// Checks presence without cloning, touching recency, or recording
    /// hit/miss statistics — the classifier's peek.
    pub fn contains(&self, key: &[u8]) -> bool {
        let now = self.now_ms();
        let shard = self.shard_index(key);
        lock(&self.shards[shard].data).contains(key, now)
    }

    /// The read-through lookup: on a miss, `loader` fetches the value
    /// from the backing system *outside* any shard lock and the result is
    /// inserted before being returned.
    ///
    /// Concurrent misses on the same key are collapsed onto a single
    /// loader run (single-flight): one caller loads, the others park and
    /// receive the filled value — or observe the load's failure without
    /// retrying it. The entry's TTL is measured from insert time, not
    /// lookup time, so a slow loader does not shorten the entry's life.
    pub fn get_or_load<F>(&self, key: &[u8], loader: F) -> Option<Arc<[u8]>>
    where
        F: FnOnce(&[u8]) -> Option<Vec<u8>>,
    {
        let now = self.now_ms();
        let shard = self.shard_index(key);
        if let Some(hit) = self.get_at(shard, key, now) {
            self.stats.record_hit();
            return Some(hit);
        }
        self.stats.record_miss();
        self.load_path(shard, key, loader)
    }

    /// The miss path shared by [`Cache::get_or_load`] and
    /// [`Cache::get_or_load_many`]; the caller has already recorded the
    /// miss.
    fn load_path<F>(&self, shard: usize, key: &[u8], loader: F) -> Option<Arc<[u8]>>
    where
        F: FnOnce(&[u8]) -> Option<Vec<u8>>,
    {
        if !self.single_flight {
            return self.load_and_fill(shard, key, loader);
        }
        match self.join_or_lead(shard, key) {
            FillRole::Waiter(flight) => {
                self.stats.record_singleflight_wait();
                match Self::await_fill(&flight) {
                    FillOutcome::Filled(value) => Some(value),
                    FillOutcome::Failed => {
                        self.stats.record_singleflight_failed_wait();
                        None
                    }
                }
            }
            FillRole::Leader(flight) => {
                let mut fill_guard = FillGuard {
                    cache: self,
                    shard,
                    key,
                    flight,
                    published: false,
                };
                // Double-check after winning leadership: the previous
                // fill may have landed between our miss and registering,
                // in which case serving it avoids a redundant load.
                if let Some(existing) = self.get_at(shard, key, self.now_ms()) {
                    fill_guard.publish(FillOutcome::Filled(Arc::clone(&existing)));
                    return Some(existing);
                }
                self.stats.record_singleflight_fill();
                // A loader panic unwinds through the guard, which
                // publishes `Failed` and clears the in-flight entry.
                match loader(key) {
                    Some(value) => {
                        // One conversion to a shared slice; the shard,
                        // every waiter, and the caller then alias the
                        // same bytes.
                        let value: Arc<[u8]> = value.into();
                        // Re-sample the clock: the loader may have taken
                        // arbitrarily long, and the TTL belongs to the
                        // insert, not to the lookup that triggered it.
                        let insert_now = self.now_ms();
                        self.insert_at(
                            shard,
                            key,
                            Arc::clone(&value),
                            self.default_ttl_ms,
                            insert_now,
                        );
                        fill_guard.publish(FillOutcome::Filled(Arc::clone(&value)));
                        Some(value)
                    }
                    None => {
                        self.stats.record_load_failure();
                        fill_guard.publish(FillOutcome::Failed);
                        None
                    }
                }
            }
        }
    }

    /// The non-deduplicated miss path (single-flight disabled).
    fn load_and_fill<F>(&self, shard: usize, key: &[u8], loader: F) -> Option<Arc<[u8]>>
    where
        F: FnOnce(&[u8]) -> Option<Vec<u8>>,
    {
        match loader(key) {
            Some(value) => {
                let value: Arc<[u8]> = value.into();
                let insert_now = self.now_ms();
                self.insert_at(
                    shard,
                    key,
                    Arc::clone(&value),
                    self.default_ttl_ms,
                    insert_now,
                );
                Some(value)
            }
            None => {
                self.stats.record_load_failure();
                None
            }
        }
    }

    /// Joins an in-flight fill for `key`, or registers this caller as the
    /// leader.
    fn join_or_lead(&self, shard: usize, key: &[u8]) -> FillRole {
        let mut fills = lock(&self.shards[shard].fills);
        match fills.get(key) {
            Some(flight) => FillRole::Waiter(Arc::clone(flight)),
            None => {
                let flight = Arc::new(InFlight {
                    state: Mutex::new(FillState {
                        outcome: None,
                        parked: 0,
                    }),
                    done: Condvar::new(),
                });
                fills.insert(key.into(), Arc::clone(&flight));
                FillRole::Leader(flight)
            }
        }
    }

    /// Parks until the leader publishes an outcome.
    fn await_fill(flight: &InFlight) -> FillOutcome {
        let mut state = lock(&flight.state);
        loop {
            if let Some(outcome) = &state.outcome {
                return outcome.clone();
            }
            state.parked += 1;
            state = flight
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.parked -= 1;
        }
    }

    /// Batched lookup: keys are grouped by shard and each shard is read
    /// exactly once, so a pipelined burst pays one lock round per shard
    /// instead of one per key. Results are returned in input order.
    ///
    /// Grouping is a mark-and-scan over the key list — `O(n · distinct
    /// shards in the batch)` with no sort and no order allocation, which
    /// beats a comparison sort for the burst sizes the pipelined RPC
    /// path produces (tens of keys over a handful of shards).
    pub fn get_many(&self, keys: &[&[u8]]) -> Vec<Option<Arc<[u8]>>> {
        // Steady-state batched reads allocate only their results vector:
        // the shard tags live in a thread-local scratch. The fallback arm
        // only runs if a caller re-enters `get_many` on the same thread,
        // which the cache itself never does (no user code runs inside
        // this call).
        GET_MANY_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut shard_of) => self.get_many_with(keys, &mut shard_of),
            Err(_) => self.get_many_with(keys, &mut Vec::new()),
        })
    }

    /// [`Cache::get_many`] with a caller-provided shard-tag buffer.
    fn get_many_with(&self, keys: &[&[u8]], shard_of: &mut Vec<u32>) -> Vec<Option<Arc<[u8]>>> {
        let now = self.now_ms();
        let n = keys.len();
        let mut results: Vec<Option<Arc<[u8]>>> = Vec::with_capacity(n);
        results.resize_with(n, || None);
        let mut hits = 0u64;
        let mut expired = 0u64;
        // Per-key shard tags; `u32::MAX` marks a key already served.
        shard_of.clear();
        shard_of.extend(keys.iter().map(|k| self.shard_index(k) as u32));
        let mut cursor = 0;
        while cursor < n {
            let shard = shard_of[cursor];
            if shard == u32::MAX {
                cursor += 1;
                continue;
            }
            let mut guard = lock(&self.shards[shard as usize].data);
            let expired_before = guard.expirations();
            for i in cursor..n {
                if shard_of[i] != shard {
                    continue;
                }
                shard_of[i] = u32::MAX;
                results[i] = guard.get(keys[i], now);
                hits += u64::from(results[i].is_some());
            }
            expired += guard.expirations() - expired_before;
        }
        self.stats.record_hits(hits);
        self.stats.record_misses(n as u64 - hits);
        self.stats.record_expirations(expired);
        results
    }

    /// Batched read-through: one shard-grouped read pass over `keys`
    /// ([`Cache::get_many`]), then each remaining miss is loaded through
    /// the single-flight fill path. `loader` is `Fn` because a batch may
    /// carry several misses.
    pub fn get_or_load_many<F>(&self, keys: &[&[u8]], loader: F) -> Vec<Option<Arc<[u8]>>>
    where
        F: Fn(&[u8]) -> Option<Vec<u8>>,
    {
        let mut results = self.get_many(keys);
        for (pos, slot) in results.iter_mut().enumerate() {
            if slot.is_none() {
                let key = keys[pos];
                let shard = self.shard_index(key);
                // Re-check first: a duplicate key earlier in this batch
                // (or a concurrent fill) may have landed it already.
                *slot = self
                    .get_at(shard, key, self.now_ms())
                    .or_else(|| self.load_path(shard, key, &loader));
            }
        }
        results
    }

    /// Inserts `key` with the default TTL.
    pub fn set(&self, key: &[u8], value: Vec<u8>) {
        self.set_with_ttl(key, value, self.default_ttl_ms);
    }

    /// Inserts `key` with an explicit TTL (`None` = no expiry).
    pub fn set_with_ttl(&self, key: &[u8], value: Vec<u8>, ttl_ms: Option<u64>) {
        let now = self.now_ms();
        let shard = self.shard_index(key);
        self.insert_at(shard, key, value, ttl_ms, now);
    }

    /// Batched insert with the default TTL: items are grouped by shard
    /// and each shard takes its lock exactly once. Within a shard,
    /// insertion order follows input order (a later duplicate wins).
    pub fn set_many(&self, items: Vec<(Vec<u8>, Vec<u8>)>) {
        let now = self.now_ms();
        let mut tagged: Vec<(usize, Vec<u8>, Vec<u8>)> = items
            .into_iter()
            .map(|(key, value)| (self.shard_index(&key), key, value))
            .collect();
        tagged.sort_by_key(|(shard, _, _)| *shard);
        let mut start = 0;
        while start < tagged.len() {
            let shard = tagged[start].0;
            let mut end = start;
            while end < tagged.len() && tagged[end].0 == shard {
                end += 1;
            }
            let mut guard = lock(&self.shards[shard].data);
            for (_, key, value) in tagged[start..end].iter_mut() {
                let evicted = guard.insert(key, std::mem::take(value), self.default_ttl_ms, now);
                self.stats.record_insertion(evicted);
            }
            drop(guard);
            start = end;
        }
    }

    /// Removes `key`, returning whether it was present.
    pub fn delete(&self, key: &[u8]) -> bool {
        let shard = self.shard_index(key);
        lock(&self.shards[shard].data).remove(key)
    }

    /// Total resident entries across shards. An entry past its TTL is
    /// counted until a read of it, a write to its key or an eviction
    /// removes it.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(&s.data).len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total charged bytes across shards.
    pub fn used_bytes(&self) -> usize {
        self.shards.iter().map(|s| lock(&s.data).used_bytes()).sum()
    }

    /// Shared counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn small_cache() -> Cache {
        Cache::new(CacheConfig::with_capacity_bytes(1 << 20).with_shards(4))
    }

    #[test]
    fn get_set_delete() {
        let c = small_cache();
        assert!(c.get(b"k").is_none());
        c.set(b"k", vec![9]);
        assert_eq!(c.get(b"k").as_deref(), Some(&[9u8][..]));
        assert!(c.delete(b"k"));
        assert!(c.get(b"k").is_none());
    }

    #[test]
    fn read_through_fills_once() {
        let c = small_cache();
        let loads = AtomicU64::new(0);
        for _ in 0..10 {
            let v = c.get_or_load(b"key", |_| {
                loads.fetch_add(1, Ordering::Relaxed);
                Some(vec![1, 2, 3])
            });
            assert_eq!(v.as_deref(), Some(&[1u8, 2, 3][..]));
        }
        assert_eq!(loads.load(Ordering::Relaxed), 1);
        assert_eq!(c.stats().hits(), 9);
        assert_eq!(c.stats().misses(), 1);
        assert_eq!(c.stats().singleflight_fills(), 1);
        assert_eq!(c.stats().singleflight_waits(), 0);
    }

    #[test]
    fn loader_failure_counts() {
        let c = small_cache();
        assert!(c.get_or_load(b"gone", |_| None).is_none());
        assert_eq!(c.stats().load_failures(), 1);
        // A later successful load still works.
        assert!(c.get_or_load(b"gone", |_| Some(vec![1])).is_some());
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let c = Cache::new(CacheConfig::with_capacity_bytes(1 << 20).with_shards(5));
        assert_eq!(c.shard_count(), 8);
    }

    #[test]
    fn tiny_capacity_clamps_shard_count() {
        // 1 KiB split 64 ways would leave 16 bytes per shard — below the
        // per-entry overhead, where every entry is "oversized" and
        // permanently resident. The clamp shards down until each shard
        // holds at least one typical entry.
        let c = Cache::new(CacheConfig::with_capacity_bytes(1 << 10).with_shards(64));
        assert_eq!(c.shard_count(), (1 << 10) / MIN_SHARD_CAPACITY);
        // Eviction now works: entries are charged against a real budget.
        for i in 0..100u32 {
            c.set(&i.to_le_bytes(), vec![0; 64]);
        }
        assert!(c.stats().evictions() > 0, "tiny cache must evict");
        assert!(
            c.used_bytes() <= (1 << 10) + c.shard_count() * 200,
            "used {} for a 1 KiB cache",
            c.used_bytes()
        );
        // A single-shard floor always remains.
        let tiny = Cache::new(CacheConfig::with_capacity_bytes(1).with_shards(8));
        assert_eq!(tiny.shard_count(), 1);
    }

    #[test]
    fn ttl_measured_from_insert_not_lookup() {
        // Regression: `now` used to be sampled before the loader ran, so
        // a slow loader silently shortened the entry's effective TTL by
        // its own duration. The clock here is advanced deterministically
        // inside the loader to simulate a multi-second stall.
        let c = Cache::new(
            CacheConfig::with_capacity_bytes(1 << 16)
                .with_shards(1)
                .with_default_ttl_ms(10_000),
        );
        let v = c.get_or_load(b"slow", |_| {
            // The loader stalls for a simulated minute — far past the TTL.
            c.advance_clock_ms(60_000);
            Some(vec![7])
        });
        assert_eq!(v.as_deref(), Some(&[7u8][..]));
        // With the bug, expires_at = t0 + 10s < t0 + 60s: already expired.
        let live = c.get(b"slow");
        assert_eq!(
            live.as_deref(),
            Some(&[7u8][..]),
            "TTL must start at insert"
        );
        c.advance_clock_ms(9_000);
        let live = c.get(b"slow");
        assert_eq!(live.as_deref(), Some(&[7u8][..]), "9s into a 10s TTL");
        c.advance_clock_ms(2_000);
        assert!(c.get(b"slow").is_none(), "11s into a 10s TTL");
        // The read that saw the expired entry removed it; the write
        // below changes nothing about that count.
        c.set(b"other", vec![0]);
        assert_eq!(c.stats().expirations(), 1);
    }

    #[test]
    fn default_ttl_applies() {
        let c = Cache::new(
            CacheConfig::with_capacity_bytes(1 << 16)
                .with_shards(1)
                .with_default_ttl_ms(1),
        );
        c.set(b"k", vec![1]);
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(c.get(b"k").is_none(), "entry should have expired");
    }

    #[test]
    fn expirations_surface_in_stats() {
        let c = Cache::new(
            CacheConfig::with_capacity_bytes(1 << 16)
                .with_shards(1)
                .with_default_ttl_ms(50),
        );
        for i in 0..10u8 {
            c.set(&[i], vec![i]);
        }
        c.advance_clock_ms(100);
        for i in 0..10u8 {
            assert!(c.get(&[i]).is_none(), "entry {i} must be expired");
        }
        // Each read above removed its expired entry; after one more write
        // the counter holds every removal and only the new entry remains.
        c.set(b"fresh", vec![1]);
        assert_eq!(c.stats().expirations(), 10);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn expired_reads_count_without_a_later_write() {
        let c = Cache::new(
            CacheConfig::with_capacity_bytes(1 << 16)
                .with_shards(2)
                .with_default_ttl_ms(50),
        );
        for i in 0..4u8 {
            c.set(&[i], vec![i]);
        }
        c.advance_clock_ms(100);
        assert!(c.get(&[0]).is_none());
        assert_eq!(c.stats().expirations(), 1, "scalar read counts it");
        let keys: Vec<&[u8]> = vec![&[1], &[2], &[3], &[1]];
        assert!(c.get_many(&keys).iter().all(Option::is_none));
        assert_eq!(c.stats().expirations(), 4, "batched read counts each once");
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn get_many_matches_scalar_gets() {
        let c = small_cache();
        for i in 0..32u8 {
            if i % 3 != 0 {
                c.set(&[i], vec![i; 4]);
            }
        }
        let keys: Vec<[u8; 1]> = (0..32u8).map(|i| [i]).collect();
        let key_refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let batched = c.get_many(&key_refs);
        for (i, got) in batched.iter().enumerate() {
            let expected = if i % 3 != 0 {
                Some(vec![i as u8; 4])
            } else {
                None
            };
            assert_eq!(got.as_deref(), expected.as_deref(), "key {i}");
        }
        // Hit/miss accounting matches the scalar path's.
        assert_eq!(c.stats().hits(), 32 - 11);
        assert_eq!(c.stats().misses(), 11);
    }

    #[test]
    fn set_many_inserts_all_and_later_duplicate_wins() {
        let c = small_cache();
        let items: Vec<(Vec<u8>, Vec<u8>)> = (0..16u8)
            .map(|i| (vec![i], vec![i; 3]))
            .chain(std::iter::once((vec![5u8], vec![99u8])))
            .collect();
        c.set_many(items);
        for i in 0..16u8 {
            let expected = if i == 5 { vec![99u8] } else { vec![i; 3] };
            assert_eq!(c.get(&[i]).as_deref(), Some(&expected[..]), "key {i}");
        }
        assert_eq!(c.stats().insertions(), 17);
    }

    #[test]
    fn get_or_load_many_loads_only_misses() {
        let c = small_cache();
        c.set(b"a", vec![1]);
        c.set(b"c", vec![3]);
        let loads = AtomicU64::new(0);
        let keys: Vec<&[u8]> = vec![b"a", b"b", b"c", b"d", b"b"];
        let got = c.get_or_load_many(&keys, |key| {
            loads.fetch_add(1, Ordering::Relaxed);
            Some(vec![key[0]])
        });
        assert_eq!(got[0].as_deref(), Some(&[1u8][..]));
        assert_eq!(got[1].as_deref(), Some(&[b'b'][..]));
        assert_eq!(got[2].as_deref(), Some(&[3u8][..]));
        assert_eq!(got[3].as_deref(), Some(&[b'd'][..]));
        assert_eq!(got[4].as_deref(), Some(&[b'b'][..]));
        // The duplicate "b" is served by the re-check after the first fill.
        assert_eq!(loads.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn concurrent_mixed_workload_is_consistent() {
        let c = Arc::new(Cache::new(
            CacheConfig::with_capacity_bytes(1 << 22).with_shards(8),
        ));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..2000u64 {
                    let key = ((t * 1000 + i) % 500).to_le_bytes();
                    match i % 3 {
                        0 => c.set(&key, key.to_vec()),
                        1 => {
                            if let Some(v) = c.get(&key) {
                                assert_eq!(&v[..], key, "value corruption");
                            }
                        }
                        _ => {
                            let v = c.get_or_load(&key, |k| Some(k.to_vec()));
                            assert_eq!(v.as_deref(), Some(&key[..]));
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.len() <= 500);
    }

    #[test]
    fn eviction_under_pressure() {
        let c = Cache::new(CacheConfig::with_capacity_bytes(16 << 10).with_shards(2));
        for i in 0..1000u32 {
            c.set(&i.to_le_bytes(), vec![0; 64]);
        }
        assert!(c.stats().evictions() > 0);
        assert!(c.used_bytes() <= (16 << 10) + 2 * 200);
    }

    #[test]
    fn hit_rate_reflects_working_set_vs_capacity() {
        // Working set fits: hit rate should approach 1 after warmup.
        let c = Cache::new(CacheConfig::with_capacity_bytes(1 << 20).with_shards(2));
        for round in 0..10 {
            for i in 0..100u32 {
                let _ = c.get_or_load(&i.to_le_bytes(), |_| Some(vec![0; 32]));
            }
            if round == 0 {
                // After the first pass every lookup was a miss.
                assert_eq!(c.stats().misses(), 100);
            }
        }
        assert!(c.stats().hit_rate() > 0.85, "rate={}", c.stats().hit_rate());
    }

    #[test]
    fn contains_does_not_count_or_touch() {
        let c = small_cache();
        c.set(b"k", vec![1]);
        assert!(c.contains(b"k"));
        assert!(!c.contains(b"absent"));
        assert_eq!(c.stats().hits(), 0);
        assert_eq!(c.stats().misses(), 0);
    }
}
