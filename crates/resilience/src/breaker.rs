//! Circuit breaking: a closed → open → half-open state machine over a
//! rolling outcome window.
//!
//! A breaker protects callers from a failing dependency (fail fast
//! instead of queueing on a black hole) and protects the dependency from
//! its callers (backs off while it recovers). The state machine is split
//! in two layers:
//!
//! * [`BreakerCore`] — pure and single-threaded; time enters only as an
//!   explicit nanosecond argument, which makes every property of the
//!   machine testable without sleeping.
//! * [`CircuitBreaker`] — the thread-safe wall-clock wrapper used on real
//!   call paths, recording state transitions and rejections into a
//!   telemetry registry.

use dcperf_telemetry::{metrics, Counter, Telemetry};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Where the breaker is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Normal operation; outcomes feed the rolling window.
    Closed,
    /// Tripped: calls are rejected until the cooldown elapses.
    Open,
    /// Cooldown elapsed: a bounded number of probe calls test recovery.
    HalfOpen,
}

/// A state change, reported so wrappers can count transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerTransition {
    /// Closed/half-open → open.
    Opened,
    /// Open → half-open (cooldown elapsed).
    HalfOpened,
    /// Half-open → closed (probes succeeded).
    Closed,
}

/// Thresholds and windows for a breaker.
#[derive(Debug, Clone, Copy, PartialEq)]
// analyzer: allow(dead-field) — tests/proptest_breaker.rs quantifies over the whole configuration space
pub struct BreakerConfig {
    /// Rolling outcome window length (count-based, deterministic).
    pub window: usize,
    /// Minimum outcomes in the window before the ratio can trip.
    pub min_calls: usize,
    /// Failure fraction at or above which the breaker opens.
    pub failure_ratio: f64,
    /// How long the breaker stays open before probing.
    pub cooldown: Duration,
    /// Probe calls admitted while half-open.
    pub half_open_probes: u32,
    /// Probe successes required to close (≤ `half_open_probes`).
    pub probe_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            window: 64,
            min_calls: 10,
            failure_ratio: 0.5,
            cooldown: Duration::from_millis(100),
            half_open_probes: 4,
            probe_successes: 2,
        }
    }
}

impl BreakerConfig {
    /// Whether a window of `failures` out of `total` outcomes trips the
    /// breaker. Monotone in `failures` for fixed `total`. `min_calls` is
    /// clamped to the window length — a rolling window can never hold
    /// more outcomes than `window`, so a larger gate could never fire.
    pub fn would_trip(&self, failures: usize, total: usize) -> bool {
        total >= self.min_calls.max(1).min(self.window.max(1))
            && failures as f64 / total as f64 >= self.failure_ratio
    }
}

/// The pure breaker state machine. Time is an explicit nanosecond
/// timestamp; callers must pass non-decreasing values.
#[derive(Debug, Clone)]
pub struct BreakerCore {
    config: BreakerConfig,
    state: BreakerState,
    /// Rolling window of outcomes, `true` = failure.
    window: VecDeque<bool>,
    failures: usize,
    opened_at_ns: u64,
    probes_issued: u32,
    probe_ok: u32,
}

impl BreakerCore {
    /// A closed breaker with an empty window.
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            state: BreakerState::Closed,
            window: VecDeque::with_capacity(config.window.max(1)),
            failures: 0,
            opened_at_ns: 0,
            probes_issued: 0,
            probe_ok: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The configuration in effect.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    /// Asks whether a call may proceed at `now_ns`. May move
    /// open → half-open when the cooldown has elapsed; the transition (if
    /// any) is returned alongside the admission decision.
    pub fn allow(&mut self, now_ns: u64) -> (bool, Option<BreakerTransition>) {
        match self.state {
            BreakerState::Closed => (true, None),
            BreakerState::Open => {
                let cooldown_ns =
                    u64::try_from(self.config.cooldown.as_nanos()).unwrap_or(u64::MAX);
                if now_ns.saturating_sub(self.opened_at_ns) >= cooldown_ns {
                    self.state = BreakerState::HalfOpen;
                    self.probes_issued = 1;
                    self.probe_ok = 0;
                    (true, Some(BreakerTransition::HalfOpened))
                } else {
                    (false, None)
                }
            }
            BreakerState::HalfOpen => {
                if self.probes_issued < self.config.half_open_probes.max(1) {
                    self.probes_issued += 1;
                    (true, None)
                } else {
                    // Probe budget exhausted; wait for their outcomes.
                    (false, None)
                }
            }
        }
    }

    /// Records a call outcome observed at `now_ns`.
    pub fn record(&mut self, now_ns: u64, success: bool) -> Option<BreakerTransition> {
        match self.state {
            BreakerState::Closed => {
                if self.window.len() >= self.config.window.max(1)
                    && self.window.pop_front() == Some(true)
                {
                    self.failures -= 1;
                }
                self.window.push_back(!success);
                if !success {
                    self.failures += 1;
                }
                if self.config.would_trip(self.failures, self.window.len()) {
                    self.trip(now_ns);
                    Some(BreakerTransition::Opened)
                } else {
                    None
                }
            }
            BreakerState::HalfOpen => {
                if success {
                    self.probe_ok += 1;
                    if self.probe_ok >= self.config.probe_successes.max(1) {
                        self.state = BreakerState::Closed;
                        self.window.clear();
                        self.failures = 0;
                        Some(BreakerTransition::Closed)
                    } else {
                        None
                    }
                } else {
                    // One failed probe is proof enough: reopen.
                    self.trip(now_ns);
                    Some(BreakerTransition::Opened)
                }
            }
            // Stragglers from calls admitted before the trip; ignored.
            BreakerState::Open => None,
        }
    }

    fn trip(&mut self, now_ns: u64) {
        self.state = BreakerState::Open;
        self.opened_at_ns = now_ns;
        self.window.clear();
        self.failures = 0;
        self.probes_issued = 0;
        self.probe_ok = 0;
    }
}

/// Thread-safe wall-clock circuit breaker with telemetry.
///
/// Transitions land in the registry as `<prefix>.open_transitions`,
/// `<prefix>.half_open_transitions`, and `<prefix>.close_transitions`;
/// rejected admissions as `<prefix>.rejected`.
#[derive(Debug)]
pub struct CircuitBreaker {
    core: Mutex<BreakerCore>,
    epoch: Instant,
    open_transitions: Arc<Counter>,
    half_open_transitions: Arc<Counter>,
    close_transitions: Arc<Counter>,
    rejected: Arc<Counter>,
}

impl CircuitBreaker {
    /// A breaker recording transitions under `<prefix>.*` in `telemetry`
    /// (pass the server's registry so breaker events appear next to the
    /// transport counters they explain).
    pub fn with_telemetry(config: BreakerConfig, telemetry: &Telemetry, prefix: &str) -> Self {
        let counter = |s| telemetry.counter(&metrics::scoped(prefix, s));
        Self {
            core: Mutex::new(BreakerCore::new(config)),
            epoch: Instant::now(),
            open_transitions: counter(metrics::suffix::OPEN_TRANSITIONS),
            half_open_transitions: counter(metrics::suffix::HALF_OPEN_TRANSITIONS),
            close_transitions: counter(metrics::suffix::CLOSE_TRANSITIONS),
            rejected: counter(metrics::suffix::REJECTED),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn count(&self, transition: Option<BreakerTransition>) {
        match transition {
            Some(BreakerTransition::Opened) => self.open_transitions.inc(),
            Some(BreakerTransition::HalfOpened) => self.half_open_transitions.inc(),
            Some(BreakerTransition::Closed) => self.close_transitions.inc(),
            None => {}
        }
    }

    /// Whether a call may proceed now. A `false` is counted as a
    /// rejection.
    pub fn allow(&self) -> bool {
        let now = self.now_ns();
        let (admitted, transition) = self
            .core
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .allow(now);
        self.count(transition);
        if !admitted {
            self.rejected.inc();
        }
        admitted
    }

    /// Records a successful call.
    pub fn record_success(&self) {
        let now = self.now_ns();
        let t = self
            .core
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(now, true);
        self.count(t);
    }

    /// Records a failed call.
    pub fn record_failure(&self) {
        let now = self.now_ns();
        let t = self
            .core
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(now, false);
        self.count(t);
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.core.lock().unwrap_or_else(|e| e.into_inner()).state()
    }

    /// Calls rejected while open or probe-exhausted.
    pub fn rejected(&self) -> u64 {
        self.rejected.get()
    }

    /// Times the breaker tripped open.
    pub fn open_transitions(&self) -> u64 {
        self.open_transitions.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            window: 10,
            min_calls: 4,
            failure_ratio: 0.5,
            cooldown: Duration::from_millis(10),
            half_open_probes: 2,
            probe_successes: 2,
        }
    }

    #[test]
    fn trips_on_failure_ratio_and_recovers() {
        let mut core = BreakerCore::new(cfg());
        for i in 0..4 {
            let t = core.record(i, i % 2 == 0);
            if i < 3 {
                assert_eq!(t, None);
            } else {
                assert_eq!(t, Some(BreakerTransition::Opened));
            }
        }
        assert_eq!(core.state(), BreakerState::Open);
        // Before cooldown: rejected.
        let (ok, _) = core.allow(3 + 1_000_000);
        assert!(!ok);
        // After cooldown: half-open probe admitted.
        let (ok, t) = core.allow(3 + 10_000_000);
        assert!(ok);
        assert_eq!(t, Some(BreakerTransition::HalfOpened));
        let (ok, _) = core.allow(3 + 10_000_001);
        assert!(ok, "second probe fits the budget");
        let (ok, _) = core.allow(3 + 10_000_002);
        assert!(!ok, "probe budget exhausted");
        assert_eq!(core.record(3 + 10_000_003, true), None);
        assert_eq!(
            core.record(3 + 10_000_004, true),
            Some(BreakerTransition::Closed)
        );
        assert_eq!(core.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens() {
        let mut core = BreakerCore::new(cfg());
        for i in 0..4 {
            core.record(i, false);
        }
        assert_eq!(core.state(), BreakerState::Open);
        let (ok, _) = core.allow(100_000_000);
        assert!(ok);
        assert_eq!(
            core.record(100_000_001, false),
            Some(BreakerTransition::Opened)
        );
        assert_eq!(core.state(), BreakerState::Open);
        // The fresh trip restarts the cooldown from the reopen time.
        let (ok, _) = core.allow(100_000_002);
        assert!(!ok);
    }

    #[test]
    fn min_calls_gate_prevents_early_trip() {
        let mut core = BreakerCore::new(cfg());
        for i in 0..3 {
            assert_eq!(core.record(i, false), None, "below min_calls");
        }
        assert_eq!(core.state(), BreakerState::Closed);
    }

    #[test]
    fn window_rolls_old_outcomes_out() {
        let mut core = BreakerCore::new(BreakerConfig {
            window: 4,
            min_calls: 4,
            failure_ratio: 0.75,
            ..cfg()
        });
        // Two failures, then enough successes to roll them out.
        core.record(0, false);
        core.record(1, false);
        for i in 2..8 {
            assert_eq!(core.record(i, true), None);
        }
        assert_eq!(core.state(), BreakerState::Closed);
        // Window is now all-success; two fresh failures are only 2/4.
        core.record(8, false);
        assert_eq!(core.record(9, false), None);
        assert_eq!(core.state(), BreakerState::Closed);
    }

    #[test]
    fn wrapper_counts_transitions_and_rejections() {
        let telemetry = Telemetry::new();
        let breaker = CircuitBreaker::with_telemetry(
            BreakerConfig {
                cooldown: Duration::from_secs(3600),
                ..cfg()
            },
            &telemetry,
            metrics::PREFIX_RPC_BREAKER,
        );
        for _ in 0..4 {
            assert!(breaker.allow());
            breaker.record_failure();
        }
        assert_eq!(breaker.state(), BreakerState::Open);
        assert!(!breaker.allow());
        assert!(!breaker.allow());
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("rpc.breaker.open_transitions"), Some(1));
        assert_eq!(snap.counter("rpc.breaker.rejected"), Some(2));
        assert_eq!(breaker.open_transitions(), 1);
        assert_eq!(breaker.rejected(), 2);
    }

    #[test]
    fn wrapper_half_opens_after_cooldown() {
        let breaker = CircuitBreaker::with_telemetry(
            BreakerConfig {
                cooldown: Duration::from_millis(5),
                ..cfg()
            },
            &Telemetry::new(),
            metrics::PREFIX_RPC_BREAKER,
        );
        for _ in 0..4 {
            breaker.record_failure();
        }
        assert_eq!(breaker.state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(10));
        assert!(breaker.allow());
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        breaker.record_success();
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::Closed);
    }
}
