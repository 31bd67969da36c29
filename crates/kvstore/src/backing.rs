//! A simulated backing database.
//!
//! TaoBench's slow path "simulates backend database lookup delay, new
//! object creation, and Memcached insertion" (§3.2). [`BackingStore`]
//! provides that: deterministic object synthesis keyed on the lookup key
//! (so re-reads agree), value sizes drawn from a production-shaped
//! log-normal distribution, and a configurable lookup latency.

use dcperf_util::{LogNormal, Rng, SplitMix64};
#[cfg(feature = "fault-injection")]
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of the simulated database tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackingStoreConfig {
    /// Median object size in bytes.
    pub value_median_bytes: f64,
    /// Log-normal sigma of the size distribution.
    pub value_sigma: f64,
    /// Smallest object size.
    pub min_bytes: usize,
    /// Largest object size.
    pub max_bytes: usize,
    /// Simulated lookup latency per request.
    pub lookup_latency: Duration,
}

impl BackingStoreConfig {
    /// A TAO-flavoured default: small social-graph objects with a heavy
    /// tail, sub-millisecond lookups.
    pub fn tao_like() -> Self {
        Self {
            value_median_bytes: 300.0,
            value_sigma: 1.0,
            min_bytes: 16,
            max_bytes: 64 << 10,
            lookup_latency: Duration::from_micros(300),
        }
    }

    /// Disables simulated latency (builder style), for pure-CPU tests.
    pub fn without_latency(mut self) -> Self {
        self.lookup_latency = Duration::ZERO;
        self
    }
}

/// A deterministic, latency-modeled "database".
#[derive(Debug, Clone)]
pub struct BackingStore {
    config: BackingStoreConfig,
    sizes: LogNormal,
    seed: u64,
    /// Fault injector applied per lookup (chaos scenarios only).
    #[cfg(feature = "fault-injection")]
    fault_plan: Option<Arc<dcperf_resilience::FaultPlan>>,
}

impl BackingStore {
    /// Creates a store; `seed` perturbs all synthesized content.
    ///
    /// # Panics
    ///
    /// Panics if the configured size distribution is invalid
    /// (non-positive median or negative sigma).
    pub fn new(config: BackingStoreConfig, seed: u64) -> Self {
        let sizes = LogNormal::from_median(config.value_median_bytes, config.value_sigma)
            // analyzer: allow(panic-path) — construction-time config validation, documented above
            .expect("backing store size distribution must be valid");
        Self {
            config,
            sizes,
            seed,
            #[cfg(feature = "fault-injection")]
            fault_plan: None,
        }
    }

    /// Attaches a [`dcperf_resilience::FaultPlan`] to every lookup
    /// (builder style): injected latency is paid on top of the configured
    /// lookup latency, and injected errors/overloads surface as lookup
    /// misses — the database tier "lost" the object, forcing the caller's
    /// slow path. Only compiled with the `fault-injection` feature.
    #[cfg(feature = "fault-injection")]
    #[must_use]
    pub fn with_fault_plan(mut self, plan: Arc<dcperf_resilience::FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The configuration in effect.
    pub fn config(&self) -> &BackingStoreConfig {
        &self.config
    }

    /// Numeric id for a key (stable hash).
    fn key_id(&self, key: &[u8]) -> u64 {
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        for &b in key {
            h = SplitMix64::mix(h ^ b as u64);
        }
        h
    }

    /// Synthesizes the object for `key`, paying the configured lookup
    /// latency. Returns `None` only when an attached fault plan fails the
    /// lookup.
    pub fn lookup(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.pay_latency();
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = &self.fault_plan {
            if plan.apply() != dcperf_resilience::FaultOutcome::Pass {
                return None;
            }
        }
        Some(self.synthesize(self.key_id(key)))
    }

    /// Synthesizes without latency (used by dataset builders).
    pub fn synthesize_for_key(&self, key: &[u8]) -> Vec<u8> {
        self.synthesize(self.key_id(key))
    }

    fn synthesize(&self, id: u64) -> Vec<u8> {
        let mut rng = SplitMix64::new(id);
        let size = (self.sizes.sample(&mut rng) as usize)
            .clamp(self.config.min_bytes, self.config.max_bytes);
        // Produce semi-compressible content: runs of structured bytes with
        // random breaks, shaped like serialized objects rather than noise.
        let mut value = Vec::with_capacity(size);
        while value.len() < size {
            let run = (rng.next_u64() % 24 + 4) as usize;
            let byte = (rng.next_u64() % 64 + 32) as u8; // printable-ish
            let n = run.min(size - value.len());
            value.extend(std::iter::repeat_n(byte, n));
        }
        value
    }

    fn pay_latency(&self) {
        let lat = self.config.lookup_latency;
        if lat.is_zero() {
            return;
        }
        if lat >= Duration::from_millis(2) {
            std::thread::sleep(lat);
        } else {
            // Sub-millisecond sleeps are unreliable; spin on the clock as
            // a DB-stub would block on I/O completion.
            let deadline = Instant::now() + lat;
            while Instant::now() < deadline {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> BackingStore {
        BackingStore::new(BackingStoreConfig::tao_like().without_latency(), 42)
    }

    #[test]
    fn lookups_are_deterministic() {
        let s = store();
        let a = s.lookup(b"object:123").unwrap();
        let b = s.lookup(b"object:123").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_keys_differ() {
        let s = store();
        assert_ne!(s.lookup(b"a").unwrap(), s.lookup(b"b").unwrap());
    }

    #[test]
    fn different_seeds_differ() {
        let s1 = BackingStore::new(BackingStoreConfig::tao_like().without_latency(), 1);
        let s2 = BackingStore::new(BackingStoreConfig::tao_like().without_latency(), 2);
        assert_ne!(s1.lookup(b"k").unwrap(), s2.lookup(b"k").unwrap());
    }

    #[test]
    fn sizes_respect_bounds() {
        let s = store();
        for i in 0..500u32 {
            let v = s.lookup(&i.to_le_bytes()).unwrap();
            assert!(v.len() >= 16 && v.len() <= 64 << 10, "len={}", v.len());
        }
    }

    #[test]
    fn sizes_are_heavy_tailed() {
        let s = store();
        let sizes: Vec<usize> = (0..2000u32)
            .map(|i| s.lookup(&i.to_le_bytes()).unwrap().len())
            .collect();
        let small = sizes.iter().filter(|&&n| n < 300).count();
        let large = sizes.iter().filter(|&&n| n > 1200).count();
        assert!(small > 500, "small={small}");
        assert!(large > 50, "large={large}");
    }

    #[test]
    fn latency_is_paid() {
        let s = BackingStore::new(
            BackingStoreConfig {
                lookup_latency: Duration::from_micros(500),
                ..BackingStoreConfig::tao_like()
            },
            0,
        );
        let start = Instant::now();
        for i in 0..10u32 {
            let _ = s.lookup(&i.to_le_bytes());
        }
        assert!(
            start.elapsed() >= Duration::from_micros(5 * 500),
            "latency not enforced: {:?}",
            start.elapsed()
        );
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn fault_plan_injects_misses_and_latency() {
        use dcperf_resilience::FaultPlan;
        let plan = Arc::new(
            FaultPlan::new(11)
                .with_error_rate(0.5)
                .with_latency(1.0, Duration::from_micros(200)),
        );
        let s = BackingStore::new(BackingStoreConfig::tao_like().without_latency(), 42)
            .with_fault_plan(Arc::clone(&plan));
        let start = Instant::now();
        let misses = (0..200u32)
            .filter(|i| s.lookup(&i.to_le_bytes()).is_none())
            .count();
        // ~50% of lookups fault into misses; every lookup pays 200us.
        assert!((60..=140).contains(&misses), "misses={misses}");
        assert!(start.elapsed() >= Duration::from_micros(200 * 150));
        assert_eq!(plan.operations(), 200);
        assert!(plan.injected_errors() > 0);
        assert_eq!(plan.injected_latency_ops(), 200);
        // The same plan seed faults the same operation indices.
        let s2 = BackingStore::new(BackingStoreConfig::tao_like().without_latency(), 42)
            .with_fault_plan(Arc::new(
                FaultPlan::new(11)
                    .with_error_rate(0.5)
                    .with_latency(1.0, Duration::ZERO),
            ));
        let misses2 = (0..200u32)
            .filter(|i| s2.lookup(&i.to_le_bytes()).is_none())
            .count();
        assert_eq!(misses, misses2);
    }

    #[test]
    fn content_is_semi_compressible() {
        // Runs of repeated bytes should compress; verify the run structure
        // exists (distinct byte count far below length).
        let s = store();
        let v = s.lookup(b"compress-me").unwrap();
        let distinct: std::collections::HashSet<u8> = v.iter().copied().collect();
        assert!(distinct.len() < v.len().min(64) + 1);
    }
}
