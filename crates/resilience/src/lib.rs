//! Resilience machinery for DCPerf-RS: deadlines, retries, circuit
//! breaking, and deterministic fault injection.
//!
//! DCPerf's methodology is SLO-constrained peak throughput (§3.2), and
//! production stacks only hold those SLOs because every hop carries
//! deadlines, bounded retries, and load shedding. This crate provides that
//! machinery as substrate-independent building blocks:
//!
//! * [`Deadline`] — an absolute expiry carried per request, checked at
//!   queue dequeue and handler entry so expired work is shed instead of
//!   burning a worker.
//! * [`RetryPolicy`] / [`RetryBudget`] — capped exponential backoff with
//!   deterministic seeded jitter, plus a token-bucket budget so retry
//!   storms cannot amplify overload.
//! * [`BreakerCore`] / [`CircuitBreaker`] — a closed → open → half-open
//!   state machine over a rolling outcome window. The core is pure (time
//!   is an explicit nanosecond argument) and therefore exhaustively
//!   property-testable; the wrapper adds wall-clock time, thread safety,
//!   and telemetry.
//! * [`FaultPlan`] — seeded, deterministic injectors for added latency
//!   (a fixed delay on a seeded fraction of operations), error rates
//!   and overload bursts, installable on the RPC dispatch path and the
//!   kvstore backing store.
//!
//! Nothing here uses wall-clock randomness: every stochastic decision is
//! driven by a seeded [`dcperf_util::SplitMix64`], so chaos scenarios are
//! reproducible run to run.
//!
//! # Examples
//!
//! ```
//! use dcperf_resilience::{BreakerConfig, CircuitBreaker, RetryPolicy};
//! use std::time::Duration;
//!
//! let policy = RetryPolicy::new(4, Duration::from_millis(1));
//! let delays: Vec<_> = policy.schedule(42).collect();
//! assert_eq!(delays.len(), 3); // attempts after the first
//!
//! let breaker = CircuitBreaker::new(BreakerConfig::default());
//! assert!(breaker.allow());
//! breaker.record_success();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breaker;
mod deadline;
mod fault;
mod retry;

pub use breaker::{BreakerConfig, BreakerCore, BreakerState, BreakerTransition, CircuitBreaker};
pub use deadline::Deadline;
pub use fault::{FaultDecision, FaultOutcome, FaultPlan};
pub use retry::{BackoffSchedule, RetryBudget, RetryPolicy};
