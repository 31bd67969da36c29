//! A resilient client wrapper: retries with deterministic backoff, a
//! retry budget against retry storms, a circuit breaker, and per-attempt
//! deadlines.
//!
//! The wrapper composes the [`dcperf_resilience`] primitives around any
//! transport that can issue one attempt per body ([`ResilientTransport`]).
//! A single call is a burst of one.
//! All randomness (backoff jitter) derives from a caller-provided seed
//! and a per-call counter, so two runs with the same seed produce the
//! same retry schedule — chaos benchmarks stay reproducible.

use crate::frame::{Response, RpcError};
use dcperf_resilience::{BreakerConfig, CircuitBreaker, RetryBudget, RetryPolicy};
use dcperf_telemetry::{metrics, Counter, Telemetry};
use dcperf_util::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One attempt per body against the underlying transport.
///
/// `deadline` is the remaining per-attempt budget; implementations carry
/// it in the request frame when the transport supports it.
pub trait ResilientTransport {
    /// Issues one pipelined attempt per body (no retries at this layer).
    /// Implementations must return exactly one outcome per body, in issue
    /// order.
    fn call_many_once(
        &self,
        method: &str,
        bodies: Vec<Vec<u8>>,
        deadline: Option<Duration>,
    ) -> Vec<Result<Response, RpcError>>;
}

impl ResilientTransport for crate::client::InProcClient {
    fn call_many_once(
        &self,
        method: &str,
        bodies: Vec<Vec<u8>>,
        deadline: Option<Duration>,
    ) -> Vec<Result<Response, RpcError>> {
        match deadline {
            Some(budget) => self.call_many_with_deadline(method, bodies, budget),
            None => self.call_many(method, bodies),
        }
    }
}

/// A [`TcpClient`](crate::client::TcpClient) is single-connection and
/// `&mut`; wrap it in a mutex to present the shared-attempt interface.
impl ResilientTransport for std::sync::Mutex<crate::client::TcpClient> {
    fn call_many_once(
        &self,
        method: &str,
        bodies: Vec<Vec<u8>>,
        deadline: Option<Duration>,
    ) -> Vec<Result<Response, RpcError>> {
        let mut client = self.lock().unwrap_or_else(|e| e.into_inner());
        match deadline {
            Some(budget) => client.call_many_with_deadline(method, bodies, budget),
            None => client.call_many(method, bodies),
        }
    }
}

/// Retries, budget, breaker, and deadlines around a transport.
///
/// Failure handling per attempt:
///
/// * breaker open → [`RpcError::CircuitOpen`] without touching the wire;
/// * retryable errors (overload, timeout, I/O, expired deadline,
///   disconnect) consume a retry-budget token and back off;
/// * non-retryable errors (application errors, malformed frames,
///   correlation mismatches) return immediately;
/// * transport-level failures count against the breaker; application
///   errors count as breaker successes (the service *answered*).
pub struct ResilientClient<C> {
    inner: C,
    policy: RetryPolicy,
    budget: Arc<RetryBudget>,
    breaker: Arc<CircuitBreaker>,
    attempt_deadline: Option<Duration>,
    seed: u64,
    calls: AtomicU64,
    retries: Arc<Counter>,
    budget_exhausted: Arc<Counter>,
}

impl<C> std::fmt::Debug for ResilientClient<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientClient")
            .field("policy", &self.policy)
            .field("breaker_state", &self.breaker.state())
            .finish_non_exhaustive()
    }
}

impl<C: ResilientTransport> ResilientClient<C> {
    /// Wraps `inner` with `policy`, registering resilience counters
    /// (`rpc.resilient.*`, `rpc.breaker.*`) in `telemetry`.
    ///
    /// Defaults: unlimited retry budget, default [`BreakerConfig`], no
    /// per-attempt deadline, seed `0`.
    pub fn new(inner: C, policy: RetryPolicy, telemetry: &Telemetry) -> Self {
        Self {
            inner,
            policy,
            budget: Arc::new(RetryBudget::unlimited()),
            breaker: Arc::new(CircuitBreaker::with_telemetry(
                BreakerConfig::default(),
                telemetry,
                metrics::PREFIX_RPC_BREAKER,
            )),
            attempt_deadline: None,
            seed: 0,
            calls: AtomicU64::new(0),
            retries: telemetry.counter(metrics::RPC_RESILIENT_RETRIES),
            budget_exhausted: telemetry.counter(metrics::RPC_RESILIENT_BUDGET_EXHAUSTED),
        }
    }

    /// Replaces the circuit breaker (share one `Arc` across the clients
    /// that target the same backend so they trip together).
    #[must_use]
    pub fn with_breaker(mut self, breaker: Arc<CircuitBreaker>) -> Self {
        self.breaker = breaker;
        self
    }

    /// Sets the per-attempt deadline carried in each request frame.
    #[must_use]
    pub fn with_attempt_deadline(mut self, budget: Duration) -> Self {
        self.attempt_deadline = Some(budget);
        self
    }

    /// Sets the jitter seed; backoff schedules derive from
    /// `(seed, call index)` only.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Calls `method`, retrying per the policy: a burst of one through
    /// [`ResilientClient::call_many`].
    ///
    /// # Errors
    ///
    /// The final attempt's error, or [`RpcError::CircuitOpen`] if the
    /// breaker rejected the call.
    pub fn call(&self, method: &str, body: Vec<u8>) -> Result<Response, RpcError> {
        crate::client::single(self.call_many(method, vec![body]))
    }

    /// Pipelined batch call: all bodies go down as one burst per attempt
    /// round, retrying only the elements that failed retryably.
    ///
    /// Per element: each outcome is recorded against the breaker exactly
    /// once per attempt (a burst of N failures is N breaker outcomes, not
    /// N × attempts, and never double-counted within a round), each
    /// element deposits into the retry budget as its own logical call,
    /// and each retried element spends its own budget token. The backoff
    /// schedule is drawn once per batch from `(seed, call index)`, so a
    /// retry round sleeps once, not once per element.
    pub fn call_many(&self, method: &str, bodies: Vec<Vec<u8>>) -> Vec<Result<Response, RpcError>> {
        let n = bodies.len();
        // ordering: call index only seeds jitter; uniqueness is all that matters
        let call_index = self.calls.fetch_add(1, Ordering::Relaxed);
        let attempt_seed = self.seed ^ SplitMix64::mix(call_index.wrapping_add(1));
        let mut delays = self.policy.schedule(attempt_seed);
        let mut results: Vec<Option<Result<Response, RpcError>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            self.budget.deposit();
        }
        let mut outstanding: Vec<(usize, Vec<u8>)> = bodies.into_iter().enumerate().collect();
        while !outstanding.is_empty() {
            if !self.breaker.allow() {
                for (idx, _) in outstanding.drain(..) {
                    results[idx] = Some(Err(RpcError::CircuitOpen));
                }
                break;
            }
            let attempt_bodies: Vec<Vec<u8>> =
                outstanding.iter().map(|(_, body)| body.clone()).collect();
            let outcomes = self
                .inner
                .call_many_once(method, attempt_bodies, self.attempt_deadline);
            let mut retryable: Vec<(usize, Vec<u8>, RpcError)> = Vec::new();
            for ((idx, body), outcome) in std::mem::take(&mut outstanding).into_iter().zip(outcomes)
            {
                match outcome {
                    Ok(resp) => {
                        self.breaker.record_success();
                        results[idx] = Some(Ok(resp));
                    }
                    Err(err) => {
                        if counts_as_breaker_failure(&err) {
                            self.breaker.record_failure();
                        } else {
                            self.breaker.record_success();
                        }
                        if err.is_retryable() {
                            retryable.push((idx, body, err));
                        } else {
                            results[idx] = Some(Err(err));
                        }
                    }
                }
            }
            if retryable.is_empty() {
                break;
            }
            let Some(delay) = delays.next() else {
                // Schedule exhausted: the last errors are final.
                for (idx, _, err) in retryable {
                    results[idx] = Some(Err(err));
                }
                break;
            };
            for (idx, body, err) in retryable {
                if self.budget.try_spend() {
                    self.retries.inc();
                    outstanding.push((idx, body));
                } else {
                    self.budget_exhausted.inc();
                    results[idx] = Some(Err(err));
                }
            }
            if !outstanding.is_empty() && !delay.is_zero() {
                std::thread::sleep(delay);
            }
        }
        results
            .into_iter()
            .map(|slot| slot.unwrap_or(Err(RpcError::Disconnected)))
            .collect()
    }

    /// Retries issued across all calls.
    pub fn retries(&self) -> u64 {
        self.retries.get()
    }

    /// Calls abandoned because the retry budget was empty.
    pub fn budget_exhausted(&self) -> u64 {
        self.budget_exhausted.get()
    }

    /// The breaker guarding this client.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

/// Whether an error reflects the *backend's* health (trips the breaker)
/// as opposed to a well-formed answer the application disliked.
fn counts_as_breaker_failure(err: &RpcError) -> bool {
    match err {
        RpcError::Io(_)
        | RpcError::Overloaded
        | RpcError::DeadlineExceeded
        | RpcError::Timeout
        | RpcError::Disconnected => true,
        RpcError::Application(_)
        | RpcError::Wire(_)
        | RpcError::CircuitOpen
        | RpcError::CorrelationMismatch { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Request, Status};
    use crate::pool::PoolConfig;
    use crate::server::InProcServer;
    use std::sync::Mutex;

    /// A scripted transport: pops the next outcome per attempt.
    struct Scripted {
        outcomes: Mutex<Vec<Result<Response, RpcError>>>,
        attempts: AtomicU64,
    }

    impl Scripted {
        fn new(mut outcomes: Vec<Result<Response, RpcError>>) -> Self {
            outcomes.reverse();
            Self {
                outcomes: Mutex::new(outcomes),
                attempts: AtomicU64::new(0),
            }
        }
    }

    impl ResilientTransport for Scripted {
        fn call_many_once(
            &self,
            _method: &str,
            bodies: Vec<Vec<u8>>,
            _deadline: Option<Duration>,
        ) -> Vec<Result<Response, RpcError>> {
            bodies
                .iter()
                .map(|_| {
                    self.attempts.fetch_add(1, Ordering::Relaxed);
                    self.outcomes
                        .lock()
                        .unwrap()
                        .pop()
                        .unwrap_or(Err(RpcError::Disconnected))
                })
                .collect()
        }
    }

    fn fast_policy(attempts: u32) -> RetryPolicy {
        RetryPolicy::new(attempts, Duration::from_micros(10))
    }

    #[test]
    fn retries_until_success() {
        let telemetry = Telemetry::new();
        let transport = Scripted::new(vec![
            Err(RpcError::Overloaded),
            Err(RpcError::Timeout),
            Ok(Response::ok(vec![9])),
        ]);
        let client = ResilientClient::new(transport, fast_policy(4), &telemetry);
        let resp = client.call("m", vec![]).unwrap();
        assert_eq!(resp.body, vec![9]);
        assert_eq!(client.retries(), 2);
        assert_eq!(client.inner().attempts.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn non_retryable_errors_fail_fast() {
        let telemetry = Telemetry::new();
        let transport = Scripted::new(vec![
            Err(RpcError::Application("bad key".into())),
            Ok(Response::ok(vec![])),
        ]);
        let client = ResilientClient::new(transport, fast_policy(4), &telemetry);
        match client.call("m", vec![]) {
            Err(RpcError::Application(m)) => assert_eq!(m, "bad key"),
            other => panic!("expected fail-fast application error, got {other:?}"),
        }
        assert_eq!(client.retries(), 0);
    }

    #[test]
    fn exhausted_attempts_return_last_error() {
        let telemetry = Telemetry::new();
        let transport = Scripted::new(vec![
            Err(RpcError::Timeout),
            Err(RpcError::Timeout),
            Err(RpcError::Overloaded),
        ]);
        let client = ResilientClient::new(transport, fast_policy(3), &telemetry);
        match client.call("m", vec![]) {
            Err(RpcError::Overloaded) => {}
            other => panic!("expected last error, got {other:?}"),
        }
        assert_eq!(client.retries(), 2);
    }

    #[test]
    fn empty_retry_budget_blocks_retries() {
        let telemetry = Telemetry::new();
        let transport = Scripted::new(vec![Err(RpcError::Timeout), Ok(Response::ok(vec![]))]);
        // deposit_ratio 0: the budget never refills, and it starts full —
        // drain it first so the retry has no token.
        let budget = Arc::new(RetryBudget::new(1, 0.0));
        assert!(budget.try_spend());
        let mut client = ResilientClient::new(transport, fast_policy(4), &telemetry);
        client.budget = budget;
        match client.call("m", vec![]) {
            Err(RpcError::Timeout) => {}
            other => panic!("expected budget-blocked timeout, got {other:?}"),
        }
        assert_eq!(client.budget_exhausted(), 1);
        assert_eq!(client.retries(), 0);
    }

    #[test]
    fn open_breaker_rejects_without_touching_transport() {
        let telemetry = Telemetry::new();
        let transport = Scripted::new(vec![]);
        let config = BreakerConfig {
            min_calls: 1,
            cooldown: Duration::from_secs(3600),
            ..BreakerConfig::default()
        };
        let breaker = Arc::new(CircuitBreaker::with_telemetry(
            config,
            &telemetry,
            metrics::PREFIX_RPC_BREAKER,
        ));
        breaker.record_failure(); // trips at min_calls=1
        let client = ResilientClient::new(transport, RetryPolicy::no_retries(), &telemetry)
            .with_breaker(Arc::clone(&breaker));
        match client.call("m", vec![]) {
            Err(RpcError::CircuitOpen) => {}
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        assert_eq!(client.inner().attempts.load(Ordering::Relaxed), 0);
        assert_eq!(breaker.rejected(), 1);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("rpc.breaker.open_transitions"), Some(1));
        assert_eq!(snap.counter("rpc.breaker.rejected"), Some(1));
    }

    #[test]
    fn repeated_transport_failures_trip_the_breaker() {
        let telemetry = Telemetry::new();
        let outcomes: Vec<Result<Response, RpcError>> =
            (0..32).map(|_| Err(RpcError::Timeout)).collect();
        let transport = Scripted::new(outcomes);
        let config = BreakerConfig {
            min_calls: 4,
            cooldown: Duration::from_secs(3600),
            ..BreakerConfig::default()
        };
        let breaker = Arc::new(CircuitBreaker::with_telemetry(
            config,
            &telemetry,
            metrics::PREFIX_RPC_BREAKER,
        ));
        let client = ResilientClient::new(transport, RetryPolicy::no_retries(), &telemetry)
            .with_breaker(Arc::clone(&breaker));
        let mut saw_circuit_open = false;
        for _ in 0..8 {
            if matches!(client.call("m", vec![]), Err(RpcError::CircuitOpen)) {
                saw_circuit_open = true;
                break;
            }
        }
        assert!(saw_circuit_open, "breaker never opened");
        assert_eq!(breaker.open_transitions(), 1);
    }

    #[test]
    fn wraps_a_real_inproc_server() {
        let server = InProcServer::start(
            |req: &Request| Response::ok(req.body.clone()),
            PoolConfig::single_lane(2),
        );
        let inproc = server.client();
        let telemetry_snapshot_source = inproc.telemetry().clone();
        let client =
            ResilientClient::new(server.client(), fast_policy(3), &telemetry_snapshot_source)
                .with_attempt_deadline(Duration::from_secs(5));
        let resp = client.call("echo", vec![1, 2]).unwrap();
        assert_eq!(resp.body, vec![1, 2]);
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(client.retries(), 0);
        server.shutdown();
    }
}
