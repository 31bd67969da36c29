//! Client-side retry policy: capped exponential backoff with
//! deterministic seeded jitter, and retry budgets.
//!
//! Retries convert transient faults into latency instead of errors — but
//! unbounded retries amplify overload (every shed request comes back as
//! two). Two mechanisms bound that amplification:
//!
//! * [`RetryPolicy`] caps attempts and spaces them out exponentially with
//!   jitter, so synchronized retry waves decohere.
//! * [`RetryBudget`] is a token bucket earned by successes: each success
//!   deposits a fraction of a token, each retry withdraws a whole one.
//!   When the ambient failure rate exceeds the deposit ratio the budget
//!   drains and retries stop, which is exactly the storm-suppression
//!   behavior production RPC stacks (Finagle, gRPC) implement.
//!
//! All jitter comes from a seeded [`SplitMix64`]; given a seed, the
//! backoff schedule is a pure function. No wall-clock randomness.

use dcperf_util::{Rng, SplitMix64};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Duration;

/// Attempt cap and backoff curve for retried calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 disables retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
    /// Geometric growth factor between retries.
    pub multiplier: f64,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a factor
    /// drawn uniformly from `[1 - jitter, 1]`.
    pub jitter: f64,
}

impl RetryPolicy {
    /// A policy with `max_attempts` total attempts, doubling from
    /// `base_backoff` up to 100× base, with 50% jitter.
    pub fn new(max_attempts: u32, base_backoff: Duration) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            base_backoff,
            max_backoff: base_backoff.saturating_mul(100),
            multiplier: 2.0,
            jitter: 0.5,
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
        let exp = self.multiplier.powi(retry.saturating_sub(1) as i32);
        let raw = self.base_backoff.as_secs_f64() * exp;
        let capped = raw.min(self.max_backoff.as_secs_f64());
        let scale = 1.0 - self.jitter * rng.next_f64();
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

/// Token-bucket retry budget: successes earn fractional tokens, each
/// retry spends a whole one.
///
/// Thread-safe and wait-free (a single atomic), so one budget can be
/// shared by every client handle talking to a backend.
#[derive(Debug)]
pub struct RetryBudget {
    /// Tokens scaled by [`RetryBudget::SCALE`].
    tokens: AtomicI64,
    max_scaled: i64,
    deposit_scaled: i64,
}

impl RetryBudget {
    const SCALE: i64 = 1000;

    /// A budget holding at most `max_tokens` retries, earning
    /// `deposit_ratio` of a token per success (0.1 ⇒ one retry per ten
    /// successes once drained). Starts full so cold-start failures can
    /// still retry.
    pub fn new(max_tokens: u32, deposit_ratio: f64) -> Self {
        let max_scaled = i64::from(max_tokens.max(1)) * Self::SCALE;
        Self {
            tokens: AtomicI64::new(max_scaled),
            max_scaled,
            deposit_scaled: (deposit_ratio.clamp(0.0, 1.0) * Self::SCALE as f64) as i64,
        }
    }

    /// An effectively unlimited budget (for scenarios isolating other
    /// mechanisms).
    pub fn unlimited() -> Self {
        Self::new(u32::MAX / 2000, 1.0)
    }

    /// Records a success, growing the budget toward its cap.
    pub fn deposit(&self) {
        let prev = self
            .tokens
            .fetch_add(self.deposit_scaled, Ordering::Relaxed);
        // Clamp overshoot; a lost race only delays the clamp by one call.
        if prev + self.deposit_scaled > self.max_scaled {
            self.tokens.store(self.max_scaled, Ordering::Relaxed);
        }
    }

    /// Attempts to spend one retry token. Returns `false` (and leaves the
    /// budget untouched) when drained — the caller must give up instead
    /// of retrying.
    pub fn try_spend(&self) -> bool {
        let mut current = self.tokens.load(Ordering::Relaxed);
        loop {
            if current < Self::SCALE {
                return false;
            }
            match self.tokens.compare_exchange_weak(
                current,
                current - Self::SCALE,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => current = seen,
            }
        }
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
    fn zero_jitter_schedule_is_exactly_exponential() {
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::new(4, Duration::from_millis(10))
        };
        let delays: Vec<_> = policy.schedule(99).collect();
        assert_eq!(
            delays,
            vec![
                Duration::from_millis(10),
                Duration::from_millis(20),
                Duration::from_millis(40),
            ]
        );
    }

    #[test]
    fn no_retries_policy_yields_empty_schedule() {
        assert_eq!(RetryPolicy::no_retries().schedule(0).count(), 0);
    }

    #[test]
    fn budget_drains_and_refills() {
        let budget = RetryBudget::new(2, 0.5);
        assert!(budget.try_spend());
        assert!(budget.try_spend());
        assert!(!budget.try_spend(), "drained budget must refuse");
        budget.deposit();
        assert!(!budget.try_spend(), "half a token is not enough");
        budget.deposit();
        assert!(budget.try_spend(), "two deposits at 0.5 earn one retry");
    }

    #[test]
    fn budget_caps_at_max() {
        let budget = RetryBudget::new(1, 1.0);
        for _ in 0..100 {
            budget.deposit();
        }
        assert_eq!(budget.tokens.load(Ordering::Relaxed), budget.max_scaled);
        assert!(budget.try_spend());
        assert!(!budget.try_spend());
    }
}
