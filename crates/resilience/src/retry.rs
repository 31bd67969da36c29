//! Client-side retry policy: capped exponential backoff with
//! deterministic seeded jitter.
//!
//! Retries convert transient faults into latency instead of errors — but
//! unbounded retries amplify overload (every shed request comes back as
//! two). [`RetryPolicy`] bounds that amplification: it caps attempts and
//! spaces them out exponentially with jitter, so synchronized retry
//! waves decohere.
//!
//! All jitter comes from a seeded [`SplitMix64`]; given a seed, the
//! backoff schedule is a pure function. No wall-clock randomness.

use dcperf_util::{Rng, SplitMix64};
use std::time::Duration;

/// Geometric growth factor between retries.
const BACKOFF_MULTIPLIER: f64 = 2.0;

/// Jitter fraction: each delay is scaled by a factor drawn uniformly
/// from `[1 - JITTER, 1]`.
const JITTER: f64 = 0.5;

/// Attempt cap and backoff curve for retried calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 disables retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// A policy with `max_attempts` total attempts, doubling from
    /// `base_backoff` up to 100× base, with 50% jitter.
    pub fn new(max_attempts: u32, base_backoff: Duration) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            base_backoff,
            max_backoff: base_backoff.saturating_mul(100),
        }
    }

    /// A policy that never retries.
    pub fn no_retries() -> Self {
        Self::new(1, Duration::ZERO)
    }

    /// Overrides the backoff cap (builder style).
    pub fn with_max_backoff(mut self, cap: Duration) -> Self {
        self.max_backoff = cap;
        self
    }

    /// The delay before retry number `retry` (1-based), jittered through
    /// `rng`. Deterministic for a deterministic generator.
    pub fn backoff<R: Rng + ?Sized>(&self, retry: u32, rng: &mut R) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = BACKOFF_MULTIPLIER.powi(retry.saturating_sub(1) as i32);
        let raw = self.base_backoff.as_secs_f64() * exp;
        let capped = raw.min(self.max_backoff.as_secs_f64());
        let scale = 1.0 - JITTER * rng.next_f64();
        Duration::from_secs_f64(capped * scale)
    }

    /// The full deterministic backoff schedule for one call, seeded: one
    /// delay per retry (so `max_attempts - 1` entries).
    pub fn schedule(&self, seed: u64) -> BackoffSchedule {
        BackoffSchedule {
            policy: *self,
            rng: SplitMix64::new(seed),
            next_retry: 1,
        }
    }
}

/// Iterator over a [`RetryPolicy`]'s jittered delays for a fixed seed.
#[derive(Debug, Clone)]
pub struct BackoffSchedule {
    policy: RetryPolicy,
    rng: SplitMix64,
    next_retry: u32,
}

impl Iterator for BackoffSchedule {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        if self.next_retry >= self.policy.max_attempts {
            return None;
        }
        let delay = self.policy.backoff(self.next_retry, &mut self.rng);
        self.next_retry += 1;
        Some(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_capped() {
        let policy = RetryPolicy::new(6, Duration::from_millis(10))
            .with_max_backoff(Duration::from_millis(50));
        let a: Vec<_> = policy.schedule(7).collect();
        let b: Vec<_> = policy.schedule(7).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        for d in &a {
            assert!(*d <= Duration::from_millis(50), "delay {d:?} over cap");
        }
    }

    #[test]
    fn different_seeds_give_different_jitter() {
        let policy = RetryPolicy::new(4, Duration::from_millis(10));
        let a: Vec<_> = policy.schedule(1).collect();
        let b: Vec<_> = policy.schedule(2).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn no_retries_policy_yields_empty_schedule() {
        assert_eq!(RetryPolicy::no_retries().schedule(0).count(), 0);
    }
}
