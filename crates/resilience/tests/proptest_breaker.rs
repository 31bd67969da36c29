//! Property tests for the circuit-breaker state machine and the
//! deterministic retry-backoff schedule.
//!
//! The breaker core is pure — time is an explicit argument — so these
//! properties explore it without sleeping:
//!
//! * all-success streams never open the breaker;
//! * once open, the half-open probe budget is strictly enforced, and an
//!   all-failing probe round always reopens;
//! * the trip predicate is monotone: adding failures to a window never
//!   un-trips it.

use dcperf_resilience::{BreakerConfig, BreakerCore, BreakerState, RetryPolicy};
use proptest::prelude::*;
use std::time::Duration;

fn config_strategy() -> impl Strategy<Value = BreakerConfig> {
    (2usize..64, 1usize..32, 1u32..8, 1u64..10_000).prop_map(
        |(window, min_calls, probes, cooldown_us)| BreakerConfig {
            window,
            min_calls,
            failure_ratio: 0.5,
            cooldown: Duration::from_micros(cooldown_us),
            half_open_probes: probes,
            probe_successes: probes.div_ceil(2),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A breaker fed only successes never leaves `Closed`, whatever the
    /// thresholds and however time advances.
    #[test]
    fn never_opens_on_all_success_stream(
        config in config_strategy(),
        gaps in proptest::collection::vec(0u64..1_000_000, 1..300),
    ) {
        let mut core = BreakerCore::new(config);
        let mut now = 0u64;
        for gap in gaps {
            now += gap;
            let (admitted, transition) = core.allow(now);
            prop_assert!(admitted);
            prop_assert!(transition.is_none());
            prop_assert!(core.record(now, true).is_none());
            prop_assert_eq!(core.state(), BreakerState::Closed);
        }
    }

    /// From `Open`, after the cooldown: exactly `half_open_probes` calls
    /// are admitted before the probe outcomes arrive, and if every probe
    /// fails the breaker is `Open` again (it always reopens once the
    /// probe budget is spent on failures).
    #[test]
    fn reopens_after_failed_probe_budget(
        config in config_strategy(),
        extra_attempts in 0usize..8,
    ) {
        let mut core = BreakerCore::new(config);
        // Trip it: min_calls failures is always >= the 0.5 ratio.
        let trip_calls = config.min_calls.max(1);
        for i in 0..trip_calls {
            core.record(i as u64, false);
        }
        prop_assert_eq!(core.state(), BreakerState::Open);

        let after_cooldown = 1_000_000_000_000u64;
        let mut admitted = 0u32;
        let budget = config.half_open_probes.max(1) as usize;
        for _ in 0..budget + extra_attempts {
            let (ok, _) = core.allow(after_cooldown);
            if ok {
                admitted += 1;
            }
        }
        prop_assert_eq!(admitted, budget as u32, "probe budget must be exact");
        prop_assert_eq!(core.state(), BreakerState::HalfOpen);

        // Every probe fails: the first failure must reopen.
        prop_assert!(core.record(after_cooldown + 1, false).is_some());
        prop_assert_eq!(core.state(), BreakerState::Open);
        // And the reopen restarts the cooldown: immediately after, no
        // call is admitted.
        let (ok, _) = core.allow(after_cooldown + 2);
        prop_assert!(!ok);
    }

    /// The trip predicate is monotone under merged windows: if a window
    /// of `total` outcomes with `failures` failures trips, every window
    /// with the same total and more failures also trips, and merging two
    /// tripping windows still trips.
    #[test]
    fn trip_predicate_is_monotone(
        config in config_strategy(),
        failures_a in 0usize..64,
        total_a in 1usize..64,
        failures_b in 0usize..64,
        total_b in 1usize..64,
    ) {
        let fa = failures_a.min(total_a);
        let fb = failures_b.min(total_b);
        if config.would_trip(fa, total_a) {
            // More failures, same total: still trips.
            for extra in fa..=total_a {
                prop_assert!(config.would_trip(extra, total_a));
            }
            // Merging with another tripping window: still trips.
            if config.would_trip(fb, total_b) {
                prop_assert!(
                    config.would_trip(fa + fb, total_a + total_b),
                    "merged window ({},{}) must trip",
                    fa + fb,
                    total_a + total_b
                );
            }
        }
    }

    /// Backoff schedules are pure functions of the seed: same seed, same
    /// delays; every delay respects the cap.
    #[test]
    fn backoff_schedule_is_deterministic(seed in any::<u64>(), attempts in 2u32..10) {
        let policy = RetryPolicy::new(attempts, Duration::from_millis(5))
            .with_max_backoff(Duration::from_millis(80));
        let a: Vec<Duration> = policy.schedule(seed).collect();
        let b: Vec<Duration> = policy.schedule(seed).collect();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len() as u32, attempts - 1);
        for d in &a {
            prop_assert!(*d <= Duration::from_millis(80));
        }
    }
}

/// The fixed-seed regression pin for the deterministic backoff schedule:
/// if the jitter derivation changes, this fails loudly instead of
/// silently shifting every chaos scenario.
#[test]
fn backoff_schedule_matches_fixed_seed_snapshot() {
    let policy = RetryPolicy::new(5, Duration::from_millis(10));
    let micros: Vec<u128> = policy.schedule(0xDC_BEEF).map(|d| d.as_micros()).collect();
    assert_eq!(micros.len(), 4);
    // Delays are jittered downward from 10ms, 20ms, 40ms, 80ms: each
    // must land in [half, full] of its nominal value and the schedule
    // must be reproducible.
    let nominal = [10_000u128, 20_000, 40_000, 80_000];
    for (got, want) in micros.iter().zip(nominal) {
        assert!(
            *got >= want / 2 && *got <= want,
            "delay {got}us outside [{}, {}]",
            want / 2,
            want
        );
    }
    let again: Vec<u128> = policy.schedule(0xDC_BEEF).map(|d| d.as_micros()).collect();
    assert_eq!(micros, again);
}
