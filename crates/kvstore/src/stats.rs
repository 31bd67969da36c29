//! Cache-wide counters, recorded through the unified telemetry layer.

use dcperf_telemetry::{metrics, Counter, Telemetry};
use std::sync::Arc;

/// Hit/miss/fill counters shared across all shards of a
/// [`Cache`](crate::Cache).
///
/// The counters live in a [`Telemetry`] registry (under the
/// `kvstore.cache.*` namespace by default), so a suite-level registry can
/// observe the cache alongside every other subsystem; this struct is a
/// set of pre-resolved handles plus derived-rate helpers.
#[derive(Debug)]
pub struct CacheStats {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    insertions: Arc<Counter>,
    evictions: Arc<Counter>,
    expirations: Arc<Counter>,
    load_failures: Arc<Counter>,
    singleflight_fills: Arc<Counter>,
    singleflight_waits: Arc<Counter>,
    singleflight_failed_waits: Arc<Counter>,
}

impl CacheStats {
    /// Creates zeroed counters in a private registry.
    pub fn new() -> Self {
        Self::with_telemetry(&Telemetry::new(), metrics::PREFIX_CACHE)
    }

    /// Registers the counters under `<prefix>.*` in `telemetry`.
    pub fn with_telemetry(telemetry: &Telemetry, prefix: &str) -> Self {
        let counter = |s| telemetry.counter(&metrics::scoped(prefix, s));
        Self {
            hits: counter(metrics::suffix::HITS),
            misses: counter(metrics::suffix::MISSES),
            insertions: counter(metrics::suffix::INSERTIONS),
            evictions: counter(metrics::suffix::EVICTIONS),
            expirations: counter(metrics::suffix::EXPIRATIONS),
            load_failures: counter(metrics::suffix::LOAD_FAILURES),
            singleflight_fills: counter(metrics::suffix::SINGLEFLIGHT_FILLS),
            singleflight_waits: counter(metrics::suffix::SINGLEFLIGHT_WAITS),
            singleflight_failed_waits: counter(metrics::suffix::SINGLEFLIGHT_FAILED_WAITS),
        }
    }

    pub(crate) fn record_hit(&self) {
        self.hits.inc();
    }

    pub(crate) fn record_miss(&self) {
        self.misses.inc();
    }

    pub(crate) fn record_hits(&self, n: u64) {
        if n > 0 {
            self.hits.add(n);
        }
    }

    pub(crate) fn record_misses(&self, n: u64) {
        if n > 0 {
            self.misses.add(n);
        }
    }

    pub(crate) fn record_insertion(&self, evicted: u64) {
        self.insertions.inc();
        if evicted > 0 {
            self.evictions.add(evicted);
        }
    }

    pub(crate) fn record_load_failure(&self) {
        self.load_failures.inc();
    }

    pub(crate) fn record_expirations(&self, expired: u64) {
        if expired > 0 {
            self.expirations.add(expired);
        }
    }

    pub(crate) fn record_singleflight_fill(&self) {
        self.singleflight_fills.inc();
    }

    pub(crate) fn record_singleflight_wait(&self) {
        self.singleflight_waits.inc();
    }

    pub(crate) fn record_singleflight_failed_wait(&self) {
        self.singleflight_failed_waits.inc();
    }

    /// Cache hits.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Cache misses.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Entries inserted (sets plus read-through fills).
    pub fn insertions(&self) -> u64 {
        self.insertions.get()
    }

    /// Entries evicted for capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Entries removed because their TTL elapsed (counted by the read
    /// that finds the expired entry and removes it).
    pub fn expirations(&self) -> u64 {
        self.expirations.get()
    }

    /// Read-through loads that returned nothing.
    pub fn load_failures(&self) -> u64 {
        self.load_failures.get()
    }

    /// Misses that ran the loader as the single-flight leader.
    pub fn singleflight_fills(&self) -> u64 {
        self.singleflight_fills.get()
    }

    /// Misses that parked behind another caller's in-flight fill instead
    /// of re-running the loader.
    pub fn singleflight_waits(&self) -> u64 {
        self.singleflight_waits.get()
    }

    /// Parked waiters released by a failed (or panicked) fill.
    pub fn singleflight_failed_waits(&self) -> u64 {
        self.singleflight_failed_waits.get()
    }

    /// Hit rate over all lookups (0.0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits();
        let total = hits + self.misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

impl Default for CacheStats {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_math() {
        let s = CacheStats::new();
        assert_eq!(s.hit_rate(), 0.0);
        s.record_hit();
        s.record_hit();
        s.record_hit();
        s.record_miss();
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn insertion_tracks_evictions() {
        let s = CacheStats::new();
        s.record_insertion(0);
        s.record_insertion(3);
        assert_eq!(s.insertions(), 2);
        assert_eq!(s.evictions(), 3);
    }

    #[test]
    fn counters_appear_in_shared_registry() {
        let telemetry = Telemetry::new();
        let s = CacheStats::with_telemetry(&telemetry, metrics::PREFIX_CACHE);
        s.record_hit();
        s.record_miss();
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("kvstore.cache.hits"), Some(1));
        assert_eq!(snap.counter("kvstore.cache.misses"), Some(1));
    }
}
