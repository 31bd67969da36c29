//! SLO-under-chaos benchmark scenarios.
//!
//! DCPerf's methodology reports the peak throughput a service sustains
//! *while meeting its SLO* (§3.2). Production services must hold that SLO
//! through partial failure: slow database lookups, flaky dependencies,
//! and overload bursts. The scenarios here run the TaoBench stack under
//! deterministic [`FaultPlan`](dcperf_resilience::FaultPlan) injection,
//! with the resilience layer (deadlines, capped retries, circuit
//! breaking) active, and report SLO attainment plus shed/retried/deadline-exceeded
//! counts in one merged [`TelemetrySnapshot`].
//!
//! Everything is seeded: the fault schedule, the retry jitter, and the
//! load generator all derive from the scenario seed, so a chaos run is
//! reproducible bit-for-bit in its fault decisions.
//!
//! Only compiled with the `fault-injection` feature (`cargo chaos` in
//! this repository's cargo aliases).

use dcperf_core::SloSpec;
use dcperf_kvstore::{BackingStore, BackingStoreConfig, Cache, CacheConfig};
use dcperf_loadgen::{ClosedLoop, EndpointMix, LoadReport, OpenLoop, Service, ServiceError};
use dcperf_resilience::{FaultPlan, RetryPolicy};
use dcperf_rpc::{InProcClient, PoolConfig, ResilientClient, RpcError};
use dcperf_telemetry::{metrics, Telemetry, TelemetrySnapshot};
use dcperf_util::{SplitMix64, Zipf};
use std::sync::Arc;
use std::time::Duration;

/// Load-generator workers driving a chaos run.
const CLIENT_WORKERS: usize = 8;

/// Configuration of a TaoBench chaos run.
#[derive(Debug, Clone)]
// analyzer: allow(dead-field) — faulted_run_completes_and_degrades_goodput's 60 s `duration` guard; store_stall_coalesces_fills_instead_of_stampeding's 200-key `key_space`
pub struct TaoChaosConfig {
    /// Seed for fault schedules, retry jitter, and key generation.
    pub seed: u64,
    /// Measurement duration.
    pub duration: Duration,
    /// Distinct keys in the working set.
    pub key_space: u64,
    /// `(probability, extra latency)` injected on backing-store lookups —
    /// the paper scenario is 50 ms on 10% of lookups.
    pub store_latency_fault: Option<(f64, Duration)>,
    /// `(probability, extra latency)` injected on RPC dispatch.
    pub rpc_latency_fault: Option<(f64, Duration)>,
    /// Error rate injected on RPC dispatch (for example `0.01`).
    pub rpc_error_rate: f64,
    /// `(period, len)` overload burst on RPC dispatch: the first `len`
    /// of every `period` requests are shed as overloaded, which is what
    /// trips the circuit breaker.
    pub overload_burst: Option<(u64, u64)>,
    /// Per-request deadline budget carried in the request frame.
    pub request_deadline: Option<Duration>,
    /// Client retry policy ([`RetryPolicy::no_retries`] to disable).
    pub retry_policy: RetryPolicy,
    /// `Some(rate)` drives the stack open-loop at a fixed offered load
    /// (the goodput-vs-offered-load axis); `None` runs closed-loop.
    pub offered_rps: Option<f64>,
}

impl Default for TaoChaosConfig {
    fn default() -> Self {
        Self {
            seed: 0xDC,
            duration: Duration::from_millis(300),
            key_space: 20_000,
            store_latency_fault: Some((0.10, Duration::from_millis(50))),
            rpc_latency_fault: None,
            rpc_error_rate: 0.01,
            overload_burst: None,
            request_deadline: Some(Duration::from_millis(25)),
            retry_policy: RetryPolicy::new(3, Duration::from_millis(1))
                .with_max_backoff(Duration::from_millis(8)),
            offered_rps: None,
        }
    }
}

impl TaoChaosConfig {
    /// A fault-free control with identical load parameters — the baseline
    /// an SLO-under-chaos result is compared against.
    #[must_use]
    pub fn fault_free(mut self) -> Self {
        self.store_latency_fault = None;
        self.rpc_latency_fault = None;
        self.rpc_error_rate = 0.0;
        self.overload_burst = None;
        self
    }

    /// Disables client retries (builder style), for measuring what the
    /// retry layer buys under the same fault plan.
    #[must_use]
    pub fn without_retries(mut self) -> Self {
        self.retry_policy = RetryPolicy::no_retries();
        self
    }
}

/// The result of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The load report, with failures split by outcome class.
    pub load: LoadReport,
    /// Whether the run met the scenario SLO.
    pub slo_attained: bool,
    /// Merged telemetry: the server registry (`rpc.*`, `rpc.pool.*`,
    /// `rpc.breaker.*`, `rpc.resilient.*`), the load-generator counters
    /// (`loadgen.*`), the cache tier (`kvstore.cache.*`, including TTL
    /// expirations and single-flight fill/wait counts), and the fault
    /// plans' injection counters (`chaos.*`).
    pub snapshot: TelemetrySnapshot,
}

impl ChaosOutcome {
    /// Successful completions per second.
    pub fn goodput_rps(&self) -> f64 {
        self.load.goodput_rps()
    }
}

/// The client side of the chaos TaoBench stack: a [`ResilientClient`]
/// over the in-process RPC server, with TaoBench's Zipf key generation.
struct ChaosTaoService {
    client: ResilientClient<InProcClient>,
    zipf: Zipf,
    key_space: u64,
    seed: u64,
    store: Arc<BackingStore>,
}

impl ChaosTaoService {
    fn key_for(&self, seq: u64) -> u64 {
        let mut rng = SplitMix64::new(self.seed ^ seq.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let rank = self.zipf.sample(&mut rng);
        SplitMix64::mix(rank) % self.key_space.max(1)
    }
}

impl Service for ChaosTaoService {
    fn call(&self, endpoint: usize, seq: u64) -> Result<usize, ServiceError> {
        let key = self.key_for(seq).to_le_bytes().to_vec();
        let result = if endpoint == 0 {
            self.client.call("get", key)
        } else {
            let mut body = key.clone();
            body.extend_from_slice(&self.store.synthesize_for_key(&key));
            self.client.call("set", body)
        };
        match result {
            Ok(resp) => Ok(resp.body.len()),
            Err(RpcError::DeadlineExceeded | RpcError::Timeout) => {
                Err(ServiceError::deadline_exceeded("request budget spent"))
            }
            Err(RpcError::CircuitOpen) => Err(ServiceError::rejected("circuit open")),
            Err(e) => Err(ServiceError::new(e.to_string())),
        }
    }
}

/// Folds a fault plan's injection counters into `snapshot` under the
/// given `chaos.*` namespace prefix (a `telemetry::metrics` constant).
fn merge_plan_counters(snapshot: &mut TelemetrySnapshot, prefix: &str, plan: &FaultPlan) {
    let mut extra = TelemetrySnapshot::new();
    for (name, value) in [
        (metrics::suffix::OPERATIONS, plan.operations()),
        (
            metrics::suffix::INJECTED_LATENCY_OPS,
            plan.injected_latency_ops(),
        ),
        (
            metrics::suffix::INJECTED_LATENCY_NS,
            plan.injected_latency_ns(),
        ),
        (metrics::suffix::INJECTED_ERRORS, plan.injected_errors()),
        (
            metrics::suffix::INJECTED_OVERLOADS,
            plan.injected_overloads(),
        ),
    ] {
        extra.counters.insert(metrics::scoped(prefix, name), value);
    }
    snapshot.merge(&extra);
}

/// Runs the TaoBench stack (cache + fast/slow paths + backing store)
/// under the configured fault plan and judges the result against `slo`.
///
/// The full resilience layer is active: per-request deadlines shed
/// expired work server-side, the client retries transient failures up
/// to its policy's attempt cap, and a circuit breaker rejects calls
/// while the backend is shedding.
pub fn run_tao_chaos(config: &TaoChaosConfig, slo: &SloSpec) -> ChaosOutcome {
    run_tao_chaos_capped(config, slo, u64::MAX)
}

/// [`run_tao_chaos`], with a closed-loop run stopped after `max_requests`
/// requests (or `duration`, whichever comes first).
fn run_tao_chaos_capped(config: &TaoChaosConfig, slo: &SloSpec, max_requests: u64) -> ChaosOutcome {
    // Backing tier, with the store-side fault plan attached.
    let store_plan = Arc::new(match config.store_latency_fault {
        Some((probability, extra)) => {
            FaultPlan::new(config.seed ^ 0x5707_ECAF).with_latency(probability, extra)
        }
        None => FaultPlan::new(config.seed ^ 0x5707_ECAF),
    });
    let store = Arc::new(
        BackingStore::new(
            BackingStoreConfig {
                lookup_latency: Duration::from_micros(150),
            },
            config.seed,
        )
        .with_fault_plan(Arc::clone(&store_plan)),
    );

    // The cache records into its own registry, merged into the outcome
    // snapshot below, so chaos runs surface TTL churn and single-flight
    // coalescing alongside the RPC and injection counters. The TTL keeps
    // entries churning within one run, memcached-style.
    let cache_registry = Telemetry::new();
    let cache = Arc::new(Cache::with_telemetry(
        CacheConfig::with_capacity_bytes(((config.key_space as usize) * 450) / 3)
            .with_shards(16)
            .with_default_ttl_ms(100),
        &cache_registry,
    ));

    // Server: TaoBench's, with its fast/slow architecture.
    let server = crate::taobench::tao_server(
        cache,
        Arc::clone(&store),
        PoolConfig::single_lane(2).with_queue_depth(4096),
    );

    // RPC-dispatch fault plan (errors, latency, overload bursts).
    let mut rpc_plan =
        FaultPlan::new(config.seed ^ 0xD15_7A7C).with_error_rate(config.rpc_error_rate);
    if let Some((probability, extra)) = config.rpc_latency_fault {
        rpc_plan = rpc_plan.with_latency(probability, extra);
    }
    if let Some((period, len)) = config.overload_burst {
        rpc_plan = rpc_plan.with_overload_burst(period, len);
    }
    let rpc_plan = Arc::new(rpc_plan);
    server.install_fault_plan(Some(Arc::clone(&rpc_plan)));

    // Resilient client, recording into the server's registry so one
    // snapshot covers the whole stack.
    let inproc = server.client();
    let registry: Telemetry = inproc.telemetry().clone();
    let mut resilient = ResilientClient::new(server.client(), config.retry_policy, &registry)
        .with_seed(config.seed ^ 0x5EED);
    if let Some(budget) = config.request_deadline {
        resilient = resilient.with_attempt_deadline(budget);
    }
    let service = ChaosTaoService {
        client: resilient,
        zipf: Zipf::new(config.key_space, 0.99).expect("key space is positive"),
        key_space: config.key_space,
        seed: config.seed,
        store: Arc::clone(&store),
    };

    let mix = EndpointMix::new(&["get", "set"], &[0.95, 0.05]).expect("static mix is valid");
    let load = match config.offered_rps {
        Some(rate) => OpenLoop::new(mix, rate)
            .workers(CLIENT_WORKERS)
            .duration(config.duration)
            .telemetry(&registry)
            .run(&service, config.seed),
        None => ClosedLoop::new(mix)
            .workers(CLIENT_WORKERS)
            .duration(config.duration)
            .max_requests(max_requests)
            .telemetry(&registry)
            .run(&service, config.seed),
    };

    let slo_attained = slo.evaluate(&load.latency_ns, load.error_rate()).is_met();
    let mut snapshot = registry.snapshot();
    snapshot.merge(&cache_registry.snapshot());
    merge_plan_counters(&mut snapshot, metrics::PREFIX_CHAOS_STORE, &store_plan);
    merge_plan_counters(&mut snapshot, metrics::PREFIX_CHAOS_RPC, &rpc_plan);
    server.shutdown();
    ChaosOutcome {
        load,
        slo_attained,
        snapshot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight_slo() -> SloSpec {
        SloSpec::p95_under_ms(5.0).with_max_error_rate(0.01)
    }

    #[test]
    fn faulted_run_completes_and_degrades_goodput() {
        // Fixed work, as `perfbench` runs: both runs issue exactly
        // REQUESTS calls, so how much they do never depends on how fast
        // the host is. The duration is only a hang guard.
        const REQUESTS: u64 = 1_000;
        let fixed = |config| TaoChaosConfig {
            duration: Duration::from_secs(60),
            ..config
        };
        // The SLO margin. Fault-free, hits are served on the caller's
        // thread and misses pay a 150 µs backing lookup on the slow lane:
        // p95 is about 1–2 ms in a debug build on a 2-vCPU host. Faulted,
        // 10% of backing lookups stall 50 ms on one of the two slow
        // workers, and the misses queued behind them wait too, so p95 sits
        // at the 50 ms stall. A 20 ms bound leaves more than 10 ms either
        // side, above the 4–10 ms vCPU stalls a shared host adds.
        let slo = SloSpec::p95_under_ms(20.0);
        let baseline = run_tao_chaos_capped(
            &fixed(TaoChaosConfig::default()).fault_free(),
            &slo,
            REQUESTS,
        );
        let faulted = run_tao_chaos_capped(&fixed(TaoChaosConfig::default()), &slo, REQUESTS);

        // Every issued call ends in exactly one outcome.
        for run in [&baseline.load, &faulted.load] {
            let failed = run.errors + run.deadline_exceeded + run.rejected + run.dropped;
            assert_eq!(run.completed + failed, REQUESTS, "{run:?}");
        }
        // The control injects nothing and fails nothing.
        assert_eq!(baseline.load.completed, REQUESTS);
        assert_eq!(
            baseline.snapshot.counter("chaos.rpc.injected_errors"),
            Some(0)
        );
        assert_eq!(
            baseline
                .snapshot
                .counter("chaos.store.injected_latency_ops"),
            Some(0)
        );
        // Faults fire, and surface in the merged snapshot. An injected
        // error is an application error, which is not retried: each one
        // fails exactly one call.
        let injected_errors = faulted
            .snapshot
            .counter("chaos.rpc.injected_errors")
            .unwrap_or(0);
        assert!(injected_errors > 0);
        assert_eq!(faulted.load.errors, injected_errors);
        assert!(faulted.snapshot.counter("chaos.store.injected_latency_ops") > Some(0));
        // 50ms stalls on 10% of backing lookups must strictly degrade
        // goodput (the margin is enormous: the same work takes an order
        // of magnitude longer).
        assert!(
            faulted.goodput_rps() < baseline.goodput_rps(),
            "faulted {} !< baseline {}",
            faulted.goodput_rps(),
            baseline.goodput_rps()
        );
        // The fault-free control meets the SLO the faulted run cannot.
        assert!(
            baseline.slo_attained,
            "baseline must meet the SLO: p95 {} ms",
            baseline.load.p95_ms()
        );
        assert!(
            !faulted.slo_attained,
            "faults must break the SLO: p95 {} ms",
            faulted.load.p95_ms()
        );
    }

    #[test]
    fn deadline_pressure_surfaces_in_counters() {
        // 20% of RPC dispatches stall 20 ms against a 5 ms budget: the
        // server re-checks the deadline after the injected stall and
        // sheds, the client sees `DeadlineExceeded` (retryable), and
        // calls that exhaust both attempts (4% of them) land in the
        // loadgen `deadline_exceeded` outcome class. A 20% failure rate
        // stays far below the default breaker's 50% trip ratio, so this
        // run isolates the deadline machinery.
        let config = TaoChaosConfig {
            store_latency_fault: None,
            rpc_error_rate: 0.0,
            rpc_latency_fault: Some((0.2, Duration::from_millis(20))),
            request_deadline: Some(Duration::from_millis(5)),
            retry_policy: RetryPolicy::new(2, Duration::from_micros(500))
                .with_max_backoff(Duration::from_millis(2)),
            ..TaoChaosConfig::default()
        };
        let outcome = run_tao_chaos(&config, &tight_slo());
        let snap = &outcome.snapshot;

        let deadline_exceeded = snap.counter("rpc.deadline_exceeded").unwrap_or(0);
        let retries = snap.counter("rpc.resilient.retries").unwrap_or(0);
        assert!(
            deadline_exceeded > 0,
            "deadline_exceeded={deadline_exceeded}"
        );
        assert!(
            retries > 0,
            "deadline errors are retryable; retries={retries}"
        );
        assert!(
            outcome.load.deadline_exceeded > 0,
            "no calls exhausted their deadline budget"
        );
        assert!(
            snap.counter("rpc.deadline_shed").unwrap_or(0) > 0,
            "server never shed expired work"
        );
    }

    #[test]
    fn overload_trips_breaker_and_rejections_are_classed() {
        // 70% of dispatches shed as overloaded: well past the breaker's
        // 50% trip ratio, so it opens, rejections flow back as
        // `CircuitOpen`, and the loadgen reports them in the `rejected`
        // outcome class (not as generic errors).
        let config = TaoChaosConfig {
            store_latency_fault: None,
            rpc_error_rate: 0.0,
            request_deadline: None,
            overload_burst: Some((20, 14)),
            ..TaoChaosConfig::default()
        };
        let outcome = run_tao_chaos(&config, &tight_slo());
        let snap = &outcome.snapshot;

        let breaker_open = snap.counter("rpc.breaker.open_transitions").unwrap_or(0);
        assert!(breaker_open > 0, "breaker_open={breaker_open}");
        assert!(
            snap.counter("rpc.breaker.rejected").unwrap_or(0) > 0,
            "open breaker never rejected a call"
        );
        assert!(outcome.load.rejected > 0, "no rejected outcomes recorded");
        assert!(
            snap.counter("chaos.rpc.injected_overloads").unwrap_or(0) > 0,
            "overload injections missing from the merged snapshot"
        );
        assert!(!outcome.slo_attained, "70% shed cannot meet the SLO");
    }

    #[test]
    fn retries_improve_open_loop_goodput_under_shed_faults() {
        // Open loop at a fixed offered load with ample capacity headroom,
        // while 20% of dispatches are shed as overloaded (retryable, and
        // below the breaker's trip ratio). Without retries every shed
        // arrival is lost goodput; with retries the spare capacity
        // absorbs the re-attempts, so goodput tracks the offered load.
        // (In a *closed* loop retries cannot raise goodput — they only
        // relabel attempts — which is why this scenario is open-loop.)
        let base = TaoChaosConfig {
            store_latency_fault: None,
            rpc_error_rate: 0.0,
            request_deadline: None,
            overload_burst: Some((5, 1)),
            offered_rps: Some(2_000.0),
            retry_policy: RetryPolicy::new(4, Duration::from_micros(200))
                .with_max_backoff(Duration::from_millis(1)),
            ..TaoChaosConfig::default()
        };
        let with_retries = run_tao_chaos(&base, &tight_slo());
        let without_retries = run_tao_chaos(&base.without_retries(), &tight_slo());

        let with_rate = with_retries.load.error_rate();
        let without_rate = without_retries.load.error_rate();
        assert!(
            with_rate < without_rate / 4.0,
            "retries did not cut the error rate: {with_rate} vs {without_rate}"
        );
        assert!(with_retries.snapshot.counter("rpc.resilient.retries") > Some(0));
        // Retries recover ~20% of arrivals the no-retries client loses.
        assert!(
            with_retries.goodput_rps() > without_retries.goodput_rps() * 1.1,
            "retries goodput {} !> no-retries {}",
            with_retries.goodput_rps(),
            without_retries.goodput_rps()
        );
    }

    #[test]
    fn store_stall_coalesces_fills_instead_of_stampeding() {
        // Every backing lookup stalls 5 ms over a small, hot Zipf key
        // space: misses pile up on the same keys, and the cache's
        // single-flight table must park the latecomers behind the one
        // in-flight load rather than letting the stall multiply into N
        // concurrent backing-store lookups per key.
        let mut config = TaoChaosConfig {
            store_latency_fault: Some((1.0, Duration::from_millis(5))),
            rpc_error_rate: 0.0,
            request_deadline: None,
            ..TaoChaosConfig::default()
        };
        config.key_space = 200;
        let outcome = run_tao_chaos(&config, &tight_slo());
        let snap = &outcome.snapshot;

        let misses = snap.counter("kvstore.cache.misses").unwrap_or(0);
        let fills = snap
            .counter("kvstore.cache.singleflight_fills")
            .unwrap_or(0);
        let waits = snap
            .counter("kvstore.cache.singleflight_waits")
            .unwrap_or(0);
        assert!(misses > 0 && fills > 0, "misses={misses} fills={fills}");
        assert!(
            waits > 0,
            "no concurrent miss ever coalesced (fills={fills} misses={misses})"
        );
        assert!(fills <= misses, "a fill implies a miss");
        // The 100 ms cache TTL churns entries within the run, and the
        // merged snapshot must see that churn.
        assert!(
            snap.counter("kvstore.cache.expirations").unwrap_or(0) > 0,
            "TTL churn invisible in the chaos snapshot"
        );
    }

    #[test]
    fn chaos_fault_schedule_is_reproducible() {
        // Same seed → identical injection decisions (counter-for-counter),
        // even though thread timing differs between runs.
        let config = TaoChaosConfig {
            duration: Duration::from_millis(120),
            ..TaoChaosConfig::default()
        };
        let a = run_tao_chaos(&config, &tight_slo());
        let b = run_tao_chaos(&config, &tight_slo());
        // Operation counts differ (wall-clock cutoff), but the decision
        // for any given operation index is pure; spot-check via the plan
        // replay instead of end counters.
        let plan_a =
            FaultPlan::new(config.seed ^ 0x5707_ECAF).with_latency(0.10, Duration::from_millis(50));
        let plan_b =
            FaultPlan::new(config.seed ^ 0x5707_ECAF).with_latency(0.10, Duration::from_millis(50));
        for op in 0..2_000 {
            assert_eq!(plan_a.decide(op), plan_b.decide(op));
        }
        // And both runs did comparable work without panicking.
        assert!(a.load.completed > 0 && b.load.completed > 0);
    }
}
