//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes the chaos a scenario wants — latency spikes,
//! error rates, overload bursts — and produces a
//! per-operation [`FaultDecision`]. Every stochastic choice is keyed on
//! `(seed, operation index)` through a [`SplitMix64`] mix, so a plan
//! replays identically for a given operation sequence: no wall-clock
//! randomness, no flaky chaos tests.
//!
//! Plans are installed on the RPC server dispatch path and the kvstore
//! backing store (behind their `fault-injection` features), or wrapped
//! around any load-generator `Service`. The plan keeps its own injection
//! counters so a report can state exactly how much chaos was dealt.

use dcperf_util::{Rng, SplitMix64};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// What happens to one operation, other than added latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The operation proceeds normally.
    Pass,
    /// The operation fails with an injected error.
    Error,
    /// The operation is rejected as overloaded (shed).
    Overload,
}

/// The injected behavior for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDecision {
    /// Delay to add before the operation runs (zero when none).
    pub extra_latency: Duration,
    /// Error/overload/pass-through verdict.
    pub outcome: FaultOutcome,
}

impl FaultDecision {
    /// A decision that changes nothing.
    pub fn pass() -> Self {
        Self {
            extra_latency: Duration::ZERO,
            outcome: FaultOutcome::Pass,
        }
    }
}

/// A deterministic, seeded chaos schedule.
///
/// Thread-safe: the only mutable state is atomic counters, so one plan
/// can be shared by every worker thread of a server.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    latency: Option<(f64, Duration)>,
    error_rate: f64,
    overload_burst: Option<(u64, u64)>,
    next_op: AtomicU64,
    injected_latency_ops: AtomicU64,
    injected_latency_ns: AtomicU64,
    injected_errors: AtomicU64,
    injected_overloads: AtomicU64,
}

impl FaultPlan {
    /// A plan that injects nothing (until builders add faults).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            latency: None,
            error_rate: 0.0,
            overload_burst: None,
            next_op: AtomicU64::new(0),
            injected_latency_ops: AtomicU64::new(0),
            injected_latency_ns: AtomicU64::new(0),
            injected_errors: AtomicU64::new(0),
            injected_overloads: AtomicU64::new(0),
        }
    }

    /// Adds `extra` latency to a `probability` fraction of operations
    /// (builder style).
    pub fn with_latency(mut self, probability: f64, extra: Duration) -> Self {
        self.latency = Some((probability.clamp(0.0, 1.0), extra));
        self
    }

    /// Fails a `rate` fraction of operations with an injected error
    /// (builder style).
    pub fn with_error_rate(mut self, rate: f64) -> Self {
        self.error_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sheds the first `len` of every `period` operations as overloaded —
    /// a periodic overload burst (builder style).
    pub fn with_overload_burst(mut self, period: u64, len: u64) -> Self {
        self.overload_burst = Some((period.max(1), len));
        self
    }

    /// The pure decision for operation index `op`. Does not advance the
    /// plan or touch counters; [`FaultPlan::next`] is the counting form.
    pub fn decide(&self, op: u64) -> FaultDecision {
        // Bursts are positional and take precedence over the sampled
        // faults.
        if let Some((period, len)) = self.overload_burst {
            if op % period < len {
                return FaultDecision {
                    extra_latency: Duration::ZERO,
                    outcome: FaultOutcome::Overload,
                };
            }
        }
        let mut rng = SplitMix64::new(self.seed ^ SplitMix64::mix(op.wrapping_add(1)));
        let mut decision = FaultDecision::pass();
        if let Some((probability, extra)) = self.latency {
            if rng.next_f64() < probability {
                decision.extra_latency = extra;
            }
        }
        if self.error_rate > 0.0 && rng.next_f64() < self.error_rate {
            decision.outcome = FaultOutcome::Error;
        }
        decision
    }

    /// Draws the decision for the next operation and records it in the
    /// plan's injection counters.
    pub fn next(&self) -> FaultDecision {
        let op = self.next_op.fetch_add(1, Ordering::Relaxed);
        let decision = self.decide(op);
        if !decision.extra_latency.is_zero() {
            self.injected_latency_ops.fetch_add(1, Ordering::Relaxed);
            self.injected_latency_ns.fetch_add(
                u64::try_from(decision.extra_latency.as_nanos()).unwrap_or(u64::MAX),
                Ordering::Relaxed,
            );
        }
        match decision.outcome {
            FaultOutcome::Error => {
                self.injected_errors.fetch_add(1, Ordering::Relaxed);
            }
            FaultOutcome::Overload => {
                self.injected_overloads.fetch_add(1, Ordering::Relaxed);
            }
            FaultOutcome::Pass => {}
        }
        decision
    }

    /// Draws the next decision, *pays* its latency on the calling thread
    /// (as the faulted dependency would), and returns the outcome.
    pub fn apply(&self) -> FaultOutcome {
        let decision = self.next();
        pay_latency(decision.extra_latency);
        decision.outcome
    }

    /// Operations the plan has decided so far.
    pub fn operations(&self) -> u64 {
        self.next_op.load(Ordering::Relaxed)
    }

    /// Operations that received injected latency.
    pub fn injected_latency_ops(&self) -> u64 {
        self.injected_latency_ops.load(Ordering::Relaxed)
    }

    /// Total injected latency in nanoseconds.
    pub fn injected_latency_ns(&self) -> u64 {
        self.injected_latency_ns.load(Ordering::Relaxed)
    }

    /// Operations failed by injection (including blackout windows).
    pub fn injected_errors(&self) -> u64 {
        self.injected_errors.load(Ordering::Relaxed)
    }

    /// Operations shed by injected overload bursts.
    pub fn injected_overloads(&self) -> u64 {
        self.injected_overloads.load(Ordering::Relaxed)
    }
}

/// Blocks the calling thread for `latency`: sleeps for coarse delays,
/// spins for sub-millisecond ones (matching the backing store's latency
/// model, since OS sleeps are unreliable below ~1 ms).
fn pay_latency(latency: Duration) {
    if latency.is_zero() {
        return;
    }
    if latency >= Duration::from_millis(2) {
        std::thread::sleep(latency);
    } else {
        // analyzer: allow(wall-clock) — busy-wait pays the injected stall; decisions stay seeded
        let deadline = Instant::now() + latency;
        // analyzer: allow(wall-clock) — same stall-payment loop as above
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let make = || {
            FaultPlan::new(9)
                .with_latency(0.3, Duration::from_millis(5))
                .with_error_rate(0.2)
        };
        let a = make();
        let b = make();
        for op in 0..500 {
            assert_eq!(a.decide(op), b.decide(op), "op {op}");
        }
    }

    #[test]
    fn rates_are_respected() {
        let plan = FaultPlan::new(3)
            .with_latency(0.1, Duration::from_millis(50))
            .with_error_rate(0.01);
        let n = 10_000u64;
        let mut slow = 0;
        let mut failed = 0;
        for op in 0..n {
            let d = plan.decide(op);
            if !d.extra_latency.is_zero() {
                slow += 1;
            }
            if d.outcome == FaultOutcome::Error {
                failed += 1;
            }
        }
        let slow_rate = slow as f64 / n as f64;
        let fail_rate = failed as f64 / n as f64;
        assert!((0.08..0.12).contains(&slow_rate), "slow_rate={slow_rate}");
        assert!((0.005..0.02).contains(&fail_rate), "fail_rate={fail_rate}");
    }

    #[test]
    fn overload_burst_sheds_periodically() {
        let plan = FaultPlan::new(0).with_overload_burst(10, 2);
        let shed: Vec<u64> = (0..30)
            .filter(|&op| plan.decide(op).outcome == FaultOutcome::Overload)
            .collect();
        assert_eq!(shed, vec![0, 1, 10, 11, 20, 21]);
    }

    #[test]
    fn next_advances_and_counts() {
        let plan = FaultPlan::new(1)
            .with_latency(1.0, Duration::from_micros(10))
            .with_error_rate(1.0);
        for _ in 0..5 {
            plan.next();
        }
        assert_eq!(plan.operations(), 5);
        assert_eq!(plan.injected_latency_ops(), 5);
        assert_eq!(plan.injected_errors(), 5);
        assert!(plan.injected_latency_ns() >= 5 * 10_000);
    }

    #[test]
    fn apply_pays_latency() {
        let plan = FaultPlan::new(0).with_latency(1.0, Duration::from_millis(3));
        let start = Instant::now();
        assert_eq!(plan.apply(), FaultOutcome::Pass);
        assert!(start.elapsed() >= Duration::from_millis(3));
    }
}
