//! Load generation: closed-loop and open-loop drivers with
//! SLO-constrained peak-throughput search.
//!
//! DCPerf's clients "generate load to determine the maximum request rate
//! \[the server\] can handle while maintaining the 95th percentile latency
//! within the SLO" (§3.2, FeedSim). This crate provides the three pieces
//! of that methodology:
//!
//! * [`ClosedLoop`] — N workers issuing back-to-back requests (siege/
//!   memtier style), measuring service latency and saturating throughput.
//! * [`OpenLoop`] — a Poisson arrival process at a configured offered
//!   rate; latency is measured from *scheduled arrival* to completion, so
//!   queueing delay is captured and coordinated omission avoided.
//! * [`find_peak_load`] — doubling + binary search over offered load for
//!   the highest rate whose [`LoadReport`] still satisfies a caller
//!   predicate (the SLO).
//!
//! # Examples
//!
//! ```
//! use dcperf_loadgen::{ClosedLoop, EndpointMix, Service, ServiceError};
//! use std::time::Duration;
//!
//! struct Fast;
//! impl Service for Fast {
//!     fn call(&self, _endpoint: usize, _seq: u64) -> Result<usize, ServiceError> {
//!         Ok(64)
//!     }
//! }
//!
//! let mix = EndpointMix::uniform(&["get"])?;
//! let report = ClosedLoop::new(mix)
//!     .workers(2)
//!     .duration(Duration::from_millis(50))
//!     .run(&Fast, 42);
//! assert!(report.completed > 0);
//! assert_eq!(report.errors, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dcperf_telemetry::{metrics, Counter, Telemetry, TelemetrySnapshot};
use dcperf_util::queue::RecvTimeoutError;
use dcperf_util::{BoundedQueue, Empirical, Exponential, Histogram, Rng, Xoshiro256pp};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Classification of a failed [`Service`] call, routed to distinct
/// [`LoadReport`] outcome counters so resilience scenarios can separate
/// "the service broke" from "the deadline expired" from "a client-side
/// guard refused to send".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServiceErrorKind {
    /// Any other failure (application error, transport error, ...).
    #[default]
    Other,
    /// The request's deadline expired before a useful reply arrived.
    DeadlineExceeded,
    /// A client-side guard (an open circuit breaker) rejected the call
    /// without issuing it.
    Rejected,
}

/// An error returned by a [`Service`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// Outcome classification.
    pub kind: ServiceErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl ServiceError {
    /// A plain failure ([`ServiceErrorKind::Other`]).
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            kind: ServiceErrorKind::Other,
            message: message.into(),
        }
    }

    /// A deadline-expired failure.
    pub fn deadline_exceeded(message: impl Into<String>) -> Self {
        Self {
            kind: ServiceErrorKind::DeadlineExceeded,
            message: message.into(),
        }
    }

    /// A breaker/budget rejection.
    pub fn rejected(message: impl Into<String>) -> Self {
        Self {
            kind: ServiceErrorKind::Rejected,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            ServiceErrorKind::Other => write!(f, "service error: {}", self.message),
            ServiceErrorKind::DeadlineExceeded => {
                write!(f, "deadline exceeded: {}", self.message)
            }
            ServiceErrorKind::Rejected => write!(f, "rejected: {}", self.message),
        }
    }
}

impl std::error::Error for ServiceError {}

/// The system under test, as seen by the load generator.
///
/// `endpoint` indexes into the [`EndpointMix`]; `seq` is a unique request
/// number usable as a deterministic content seed. The return value is the
/// response size in bytes (reported in throughput accounting).
pub trait Service: Send + Sync {
    /// Executes one request.
    ///
    /// # Errors
    ///
    /// Returns a [`ServiceError`] for failed requests; these count against
    /// the error-rate SLO.
    fn call(&self, endpoint: usize, seq: u64) -> Result<usize, ServiceError>;

    /// Executes a pipelined batch of requests, returning one outcome per
    /// `(endpoint, seq)` element in order.
    ///
    /// The default issues the batch sequentially through
    /// [`Service::call`], so plain services work unchanged; services
    /// backed by a pipelined transport override this to keep the whole
    /// batch in flight on one connection.
    fn call_many(&self, batch: &[(usize, u64)]) -> Vec<Result<usize, ServiceError>> {
        batch
            .iter()
            .map(|&(endpoint, seq)| self.call(endpoint, seq))
            .collect()
    }
}

/// A weighted set of endpoints (e.g. Instagram's `feed`, `timeline`,
/// `seen`, `inbox`).
#[derive(Debug, Clone)]
pub struct EndpointMix {
    names: Vec<String>,
    dist: Empirical,
}

impl EndpointMix {
    /// Builds a mix with explicit weights.
    ///
    /// # Errors
    ///
    /// Returns an error if lengths mismatch or the weights are invalid.
    pub fn new(names: &[&str], weights: &[f64]) -> Result<Self, Box<dyn std::error::Error>> {
        if names.len() != weights.len() {
            return Err("endpoint names and weights must have equal length".into());
        }
        Ok(Self {
            names: names.iter().map(|s| s.to_string()).collect(),
            dist: Empirical::new(weights)?,
        })
    }

    /// Builds a uniform mix.
    ///
    /// # Errors
    ///
    /// Returns an error if `names` is empty.
    pub fn uniform(names: &[&str]) -> Result<Self, Box<dyn std::error::Error>> {
        let weights = vec![1.0; names.len()];
        Self::new(names, &weights)
    }

    /// Endpoint names, index-aligned with [`Service::call`]'s `endpoint`.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.dist.sample(rng)
    }
}

/// Everything measured during one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests that failed with [`ServiceErrorKind::Other`].
    pub errors: u64,
    /// Requests whose deadline expired ([`ServiceErrorKind::DeadlineExceeded`]).
    pub deadline_exceeded: u64,
    /// Requests rejected client-side ([`ServiceErrorKind::Rejected`]).
    pub rejected: u64,
    /// Open-loop only: arrivals dropped because the queue was saturated.
    pub dropped: u64,
    /// Latency histogram in nanoseconds (service time for closed loop;
    /// scheduled-arrival-to-completion for open loop).
    pub latency_ns: Histogram,
    /// Measured wall-clock duration.
    pub duration: Duration,
    /// Bytes returned by successful calls.
    pub response_bytes: u64,
    /// Per-endpoint completion counts, index-aligned with the mix.
    pub per_endpoint: Vec<u64>,
    /// Snapshot of the run's telemetry registry: every count above under
    /// `loadgen.*` names plus the latency-histogram digest, ready to embed
    /// in a benchmark report or diff against other subsystems.
    pub telemetry: TelemetrySnapshot,
}

impl LoadReport {
    /// Achieved throughput in successful requests per second.
    pub fn throughput_rps(&self) -> f64 {
        if self.duration.is_zero() {
            0.0
        } else {
            self.completed as f64 / self.duration.as_secs_f64()
        }
    }

    /// All failed outcomes (errors, expired deadlines, rejections, and
    /// drops) as a fraction of attempted requests.
    pub fn error_rate(&self) -> f64 {
        let failed = self.errors + self.deadline_exceeded + self.rejected + self.dropped;
        let attempted = self.completed + failed;
        if attempted == 0 {
            0.0
        } else {
            failed as f64 / attempted as f64
        }
    }

    /// Goodput: successful completions per second (alias of
    /// [`LoadReport::throughput_rps`], named for chaos reports where the
    /// offered load is higher than what completes).
    pub fn goodput_rps(&self) -> f64 {
        self.throughput_rps()
    }

    /// P95 latency in milliseconds.
    pub fn p95_ms(&self) -> f64 {
        self.latency_ns.p95() as f64 / 1e6
    }
}

/// Per-run counter handles resolved from the run's telemetry registry.
///
/// Workers record through these (single relaxed atomics / wait-free
/// histogram stripes); the registry itself is only locked to create the
/// handles and to take the final snapshot.
struct RunRecorder {
    telemetry: Telemetry,
    completed: Arc<Counter>,
    errors: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    rejected: Arc<Counter>,
    dropped: Arc<Counter>,
    bytes: Arc<Counter>,
    latency: Arc<dcperf_telemetry::ConcurrentHistogram>,
    per_endpoint: Vec<Arc<Counter>>,
}

impl RunRecorder {
    /// Resolves handles from `shared` when given, so the run's counters
    /// and latency digest land in the caller's registry (and therefore in
    /// any report snapshot taken from it); otherwise uses a private one.
    fn new(mix: &EndpointMix, shared: Option<&Telemetry>) -> Self {
        let telemetry = shared.cloned().unwrap_or_default();
        Self {
            completed: telemetry.counter(metrics::LOADGEN_COMPLETED),
            errors: telemetry.counter(metrics::LOADGEN_ERRORS),
            deadline_exceeded: telemetry.counter(metrics::LOADGEN_DEADLINE_EXCEEDED),
            rejected: telemetry.counter(metrics::LOADGEN_REJECTED),
            dropped: telemetry.counter(metrics::LOADGEN_DROPPED),
            bytes: telemetry.counter(metrics::LOADGEN_RESPONSE_BYTES),
            latency: telemetry.histogram(metrics::LOADGEN_LATENCY_NS),
            per_endpoint: mix
                .names
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    telemetry.counter(&format!("{}.{i}.{name}", metrics::DYN_LOADGEN_ENDPOINT))
                })
                .collect(),
            telemetry,
        }
    }

    fn record_failure(&self, kind: ServiceErrorKind) {
        match kind {
            ServiceErrorKind::Other => self.errors.inc(),
            ServiceErrorKind::DeadlineExceeded => self.deadline_exceeded.inc(),
            ServiceErrorKind::Rejected => self.rejected.inc(),
        }
    }

    /// Freezes the run into a report. Call only after every worker has
    /// joined, so the histogram snapshot is exact.
    fn into_report(self, duration: Duration) -> LoadReport {
        LoadReport {
            completed: self.completed.get(),
            errors: self.errors.get(),
            deadline_exceeded: self.deadline_exceeded.get(),
            rejected: self.rejected.get(),
            dropped: self.dropped.get(),
            latency_ns: self.latency.snapshot(),
            duration,
            response_bytes: self.bytes.get(),
            per_endpoint: self.per_endpoint.iter().map(|c| c.get()).collect(),
            telemetry: self.telemetry.snapshot(),
        }
    }
}

/// Closed-loop driver: each worker issues the next request as soon as the
/// previous one completes.
#[derive(Debug, Clone)]
pub struct ClosedLoop {
    mix: EndpointMix,
    workers: usize,
    duration: Duration,
    max_requests: Option<u64>,
    pipeline_depth: usize,
    telemetry: Option<Telemetry>,
}

impl ClosedLoop {
    /// Creates a driver over `mix` with defaults (4 workers, 1 s,
    /// pipeline depth 1).
    pub fn new(mix: EndpointMix) -> Self {
        Self {
            mix,
            workers: 4,
            duration: Duration::from_secs(1),
            max_requests: None,
            pipeline_depth: 1,
            telemetry: None,
        }
    }

    /// Sets how many requests each worker keeps in flight per turn
    /// (builder style; clamped to ≥ 1). Depths above 1 drive the service
    /// through [`Service::call_many`] in bursts; the recorded latency is
    /// then the full batch turn per request, honestly reflecting the
    /// latency a pipelined request observes waiting for its burst.
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth.max(1);
        self
    }

    /// Records the run onto `telemetry` instead of a private registry
    /// (builder style). Counter names are shared across runs, so two runs
    /// on the same registry accumulate — keep warmup runs on their own.
    pub fn telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = Some(telemetry.clone());
        self
    }

    /// Sets the worker count (builder style).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the run duration (builder style).
    pub fn duration(mut self, duration: Duration) -> Self {
        self.duration = duration;
        self
    }

    /// Caps total requests across workers (builder style); whichever of
    /// the cap and the duration hits first ends the run.
    pub fn max_requests(mut self, n: u64) -> Self {
        self.max_requests = Some(n);
        self
    }

    /// Runs the workload and gathers a report.
    pub fn run<S: Service>(&self, service: &S, seed: u64) -> LoadReport {
        let recorder = RunRecorder::new(&self.mix, self.telemetry.as_ref());
        let stop = AtomicBool::new(false);
        let issued = AtomicU64::new(0);
        let budget = self.max_requests.unwrap_or(u64::MAX);
        let started = Instant::now();

        std::thread::scope(|scope| {
            for w in 0..self.workers {
                let mut rng = Xoshiro256pp::seed_from_u64(seed ^ (w as u64) << 32);
                let mix = &self.mix;
                let recorder = &recorder;
                let stop = &stop;
                let issued = &issued;
                let deadline = started + self.duration;
                let depth = self.pipeline_depth;
                scope.spawn(move || loop {
                    // ordering: advisory stop flag; a stale read costs one extra call
                    if stop.load(Ordering::Relaxed) || Instant::now() >= deadline {
                        break;
                    }
                    // Claim up to `depth` call-budget slots for this turn.
                    let mut batch = Vec::with_capacity(depth);
                    for _ in 0..depth {
                        // ordering: seq only claims a unique slot in the call budget
                        let seq = issued.fetch_add(1, Ordering::Relaxed);
                        if seq >= budget {
                            // ordering: advisory stop flag; scope join is the real barrier
                            stop.store(true, Ordering::Relaxed);
                            break;
                        }
                        batch.push((mix.sample(&mut rng), seq));
                    }
                    if batch.is_empty() {
                        break;
                    }
                    let t0 = Instant::now();
                    let outcomes = service.call_many(&batch);
                    // Every request in the burst waited for the whole turn;
                    // record the turn latency per request so pipelining's
                    // latency cost is visible, not hidden.
                    let turn_ns = t0.elapsed().as_nanos() as u64;
                    for (&(endpoint, _), outcome) in batch.iter().zip(outcomes) {
                        match outcome {
                            Ok(bytes) => {
                                recorder.latency.record(turn_ns);
                                recorder.completed.inc();
                                recorder.bytes.add(bytes as u64);
                                recorder.per_endpoint[endpoint].inc();
                            }
                            Err(e) => {
                                recorder.record_failure(e.kind);
                            }
                        }
                    }
                });
            }
        });

        recorder.into_report(started.elapsed())
    }
}

/// Open-loop driver: a dispatcher schedules Poisson arrivals at the
/// offered rate; workers serve them from a bounded queue. Latency includes
/// queueing delay, and arrivals that find the queue full are *dropped*
/// (counted, visible to SLO checks) rather than silently delayed.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    mix: EndpointMix,
    workers: usize,
    duration: Duration,
    offered_rps: f64,
    queue_depth: usize,
    pipeline_depth: usize,
    telemetry: Option<Telemetry>,
}

impl OpenLoop {
    /// Creates a driver over `mix` at `offered_rps` with defaults
    /// (4 workers, 1 s, queue depth 1024, pipeline depth 1).
    pub fn new(mix: EndpointMix, offered_rps: f64) -> Self {
        Self {
            mix,
            workers: 4,
            duration: Duration::from_secs(1),
            offered_rps: offered_rps.max(1.0),
            queue_depth: 1024,
            pipeline_depth: 1,
            telemetry: None,
        }
    }

    /// Sets how many queued arrivals a worker drains into one pipelined
    /// [`Service::call_many`] burst (builder style; clamped to ≥ 1).
    /// Workers never *wait* to fill a burst — they take whatever has
    /// already arrived — so light load degenerates to single calls and
    /// latency still counts from each arrival's scheduled instant.
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth.max(1);
        self
    }

    /// Records the run onto `telemetry` instead of a private registry
    /// (builder style). Counter names are shared across runs, so two runs
    /// on the same registry accumulate — keep warmup runs on their own.
    pub fn telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = Some(telemetry.clone());
        self
    }

    /// Sets the worker count (builder style).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the run duration (builder style).
    pub fn duration(mut self, duration: Duration) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the arrival-queue depth (builder style).
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Runs the workload and gathers a report.
    ///
    /// # Panics
    ///
    /// Panics only if the internal arrival-rate distribution is invalid,
    /// which the constructor's clamping prevents.
    pub fn run<S: Service>(&self, service: &S, seed: u64) -> LoadReport {
        let recorder = RunRecorder::new(&self.mix, self.telemetry.as_ref());
        let started = Instant::now();
        let deadline = started + self.duration;
        // Arrival = (endpoint, seq, scheduled time).
        let arrivals = BoundedQueue::<(usize, u64, Instant)>::new(self.queue_depth);

        std::thread::scope(|scope| {
            // Dispatcher.
            {
                let mix = &self.mix;
                let recorder = &recorder;
                let gaps =
                    // analyzer: allow(panic-path) — rate() clamps to positive at construction
                    Exponential::new(self.offered_rps).expect("offered rate clamped positive");
                let mut rng = Xoshiro256pp::seed_from_u64(seed);
                let arrivals = &arrivals;
                scope.spawn(move || {
                    let mut next = Instant::now();
                    let mut seq = 0u64;
                    loop {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        if next > now {
                            std::thread::sleep(next - now);
                        }
                        let endpoint = mix.sample(&mut rng);
                        match arrivals.try_send((endpoint, seq, next)) {
                            Ok(()) => {}
                            Err(_) => {
                                recorder.dropped.inc();
                            }
                        }
                        seq += 1;
                        next += Duration::from_secs_f64(gaps.sample(&mut rng));
                    }
                    arrivals.close();
                });
            }

            for _ in 0..self.workers {
                let recorder = &recorder;
                let arrivals = &arrivals;
                let depth = self.pipeline_depth;
                scope.spawn(move || loop {
                    match arrivals.recv_timeout(Duration::from_millis(50)) {
                        Ok(first) => {
                            // Drain whatever else already arrived, up to the
                            // pipeline depth — opportunistic, never waiting.
                            let mut burst = vec![first];
                            while burst.len() < depth {
                                match arrivals.try_recv() {
                                    Some(a) => burst.push(a),
                                    None => break,
                                }
                            }
                            let batch: Vec<(usize, u64)> = burst
                                .iter()
                                .map(|&(endpoint, seq, _)| (endpoint, seq))
                                .collect();
                            let outcomes = service.call_many(&batch);
                            let now = Instant::now();
                            for (&(endpoint, _, scheduled), outcome) in burst.iter().zip(outcomes) {
                                match outcome {
                                    Ok(bytes) => {
                                        // From scheduled arrival, so queueing
                                        // and burst-wait delay both count.
                                        let lat = now.saturating_duration_since(scheduled);
                                        recorder.latency.record(lat.as_nanos() as u64);
                                        recorder.completed.inc();
                                        recorder.bytes.add(bytes as u64);
                                        recorder.per_endpoint[endpoint].inc();
                                    }
                                    Err(e) => {
                                        recorder.record_failure(e.kind);
                                    }
                                }
                            }
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            if Instant::now() >= deadline {
                                break;
                            }
                        }
                        Err(RecvTimeoutError::Closed) => break,
                    }
                });
            }
        });

        recorder.into_report(started.elapsed())
    }
}

/// The outcome of a peak-load search.
#[derive(Debug, Clone)]
pub struct PeakSearchResult {
    /// Highest offered RPS whose report satisfied the SLO predicate,
    /// or `None` if even the starting rate failed.
    pub peak_rps: Option<f64>,
    /// Report of the best passing trial.
    pub best_report: Option<LoadReport>,
    /// Every `(offered_rps, passed)` trial, in order.
    pub trials: Vec<(f64, bool)>,
}

/// Searches for the maximum offered load meeting an SLO: doubles the rate
/// until the predicate fails, then binary-searches the bracket.
///
/// `run_trial` executes one open-loop trial at a rate and returns its
/// report; `meets_slo` judges it. `refinements` bounds the binary-search
/// steps.
pub fn find_peak_load(
    start_rps: f64,
    max_rps: f64,
    refinements: u32,
    mut run_trial: impl FnMut(f64) -> LoadReport,
    mut meets_slo: impl FnMut(&LoadReport) -> bool,
) -> PeakSearchResult {
    let mut trials = Vec::new();
    let mut best: Option<(f64, LoadReport)> = None;
    let mut lo = start_rps.max(1.0);

    // Phase 1: doubling until failure or cap.
    let mut hi = None;
    let mut rate = lo;
    loop {
        let report = run_trial(rate);
        let pass = meets_slo(&report);
        trials.push((rate, pass));
        if pass {
            best = Some((rate, report));
            lo = rate;
            if rate >= max_rps {
                break;
            }
            rate = (rate * 2.0).min(max_rps);
        } else {
            hi = Some(rate);
            break;
        }
    }

    // Phase 2: binary search between lo (pass) and hi (fail).
    if let Some(mut hi) = hi {
        if best.is_some() {
            for _ in 0..refinements {
                let mid = (lo + hi) / 2.0;
                if hi - lo < lo * 0.05 {
                    break; // within 5% — good enough for a benchmark
                }
                let report = run_trial(mid);
                let pass = meets_slo(&report);
                trials.push((mid, pass));
                if pass {
                    best = Some((mid, report));
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
        }
    }

    let (peak_rps, best_report) = match best {
        Some((rps, report)) => (Some(rps), Some(report)),
        None => (None, None),
    };
    PeakSearchResult {
        peak_rps,
        best_report,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sleepy {
        us: u64,
    }

    impl Service for Sleepy {
        fn call(&self, _endpoint: usize, _seq: u64) -> Result<usize, ServiceError> {
            if self.us > 0 {
                let deadline = Instant::now() + Duration::from_micros(self.us);
                while Instant::now() < deadline {
                    std::hint::spin_loop();
                }
            }
            Ok(10)
        }
    }

    struct Flaky;

    impl Service for Flaky {
        fn call(&self, _endpoint: usize, seq: u64) -> Result<usize, ServiceError> {
            if seq.is_multiple_of(4) {
                Err(ServiceError::new("planned failure"))
            } else {
                Ok(1)
            }
        }
    }

    fn mix() -> EndpointMix {
        EndpointMix::new(&["feed", "timeline"], &[3.0, 1.0]).unwrap()
    }

    #[test]
    fn closed_loop_measures_throughput() {
        let report = ClosedLoop::new(mix())
            .workers(2)
            .duration(Duration::from_millis(100))
            .run(&Sleepy { us: 100 }, 1);
        assert!(report.completed > 100, "completed={}", report.completed);
        assert_eq!(report.errors, 0);
        assert!(report.throughput_rps() > 1000.0);
        assert!(
            report.latency_ns.p50() >= 90_000,
            "p50={}",
            report.latency_ns.p50()
        );
        assert_eq!(report.response_bytes, report.completed * 10);
    }

    #[test]
    fn closed_loop_respects_request_cap() {
        let report = ClosedLoop::new(mix())
            .workers(4)
            .duration(Duration::from_secs(10))
            .max_requests(500)
            .run(&Sleepy { us: 0 }, 2);
        assert!(report.completed <= 500);
        assert!(
            report.duration < Duration::from_secs(5),
            "cap should end early"
        );
    }

    #[test]
    fn closed_loop_mix_weights_respected() {
        let report = ClosedLoop::new(mix())
            .workers(2)
            .duration(Duration::from_millis(80))
            .run(&Sleepy { us: 10 }, 3);
        let total: u64 = report.per_endpoint.iter().sum();
        assert_eq!(total, report.completed);
        let frac0 = report.per_endpoint[0] as f64 / total as f64;
        assert!((frac0 - 0.75).abs() < 0.1, "frac0={frac0}");
    }

    #[test]
    fn errors_are_counted() {
        let report = ClosedLoop::new(mix())
            .workers(1)
            .duration(Duration::from_secs(5))
            .max_requests(1000)
            .run(&Flaky, 4);
        assert!(report.errors > 150, "errors={}", report.errors);
        assert!(report.error_rate() > 0.15 && report.error_rate() < 0.35);
    }

    struct Classed;

    impl Service for Classed {
        fn call(&self, _endpoint: usize, seq: u64) -> Result<usize, ServiceError> {
            match seq % 4 {
                0 => Ok(1),
                1 => Err(ServiceError::new("boom")),
                2 => Err(ServiceError::deadline_exceeded("budget spent")),
                _ => Err(ServiceError::rejected("breaker open")),
            }
        }
    }

    #[test]
    fn failure_kinds_land_in_distinct_outcome_classes() {
        let report = ClosedLoop::new(mix())
            .workers(2)
            .duration(Duration::from_secs(5))
            .max_requests(400)
            .run(&Classed, 7);
        let attempted =
            report.completed + report.errors + report.deadline_exceeded + report.rejected;
        assert!(attempted >= 397, "attempted={attempted}"); // workers may cut the tail
                                                            // Each class gets ~1/4 of the sequence numbers.
        for (name, count) in [
            ("completed", report.completed),
            ("errors", report.errors),
            ("deadline_exceeded", report.deadline_exceeded),
            ("rejected", report.rejected),
        ] {
            assert!((80..=120).contains(&count), "{name}={count}");
        }
        assert!((report.error_rate() - 0.75).abs() < 0.05);
        // The classes also surface as telemetry counters.
        assert_eq!(
            report.telemetry.counter("loadgen.deadline_exceeded"),
            Some(report.deadline_exceeded)
        );
        assert_eq!(
            report.telemetry.counter("loadgen.rejected"),
            Some(report.rejected)
        );
    }

    #[test]
    fn open_loop_tracks_offered_rate() {
        let report = OpenLoop::new(mix(), 2000.0)
            .workers(4)
            .duration(Duration::from_millis(300))
            .run(&Sleepy { us: 20 }, 5);
        let achieved = report.throughput_rps();
        assert!(
            achieved > 1000.0 && achieved < 3500.0,
            "achieved={achieved}"
        );
        assert_eq!(report.dropped, 0, "no drops expected at this light load");
    }

    #[test]
    fn open_loop_overload_drops_or_queues() {
        // One slow worker (1ms/call => ~1000 rps capacity) at 20k offered:
        // queue fills, drops occur, and queueing delay shows in latency.
        let report = OpenLoop::new(mix(), 20_000.0)
            .workers(1)
            .queue_depth(64)
            .duration(Duration::from_millis(300))
            .run(&Sleepy { us: 1000 }, 6);
        assert!(report.dropped > 0, "expected drops under overload");
        assert!(
            report.latency_ns.p95() > 1_000_000,
            "queueing delay should inflate p95: {}",
            report.latency_ns.p95()
        );
    }

    #[test]
    fn peak_search_converges_on_capacity() {
        // Simulated service: pass while offered <= 1000 rps.
        let result = find_peak_load(
            100.0,
            100_000.0,
            12,
            |rate| {
                // Fabricate a report whose p95 blows up past capacity.
                let mut hist = Histogram::new();
                let lat_ns = if rate <= 1000.0 {
                    1_000_000
                } else {
                    600_000_000
                };
                for _ in 0..100 {
                    hist.record(lat_ns);
                }
                LoadReport {
                    completed: rate as u64,
                    errors: 0,
                    deadline_exceeded: 0,
                    rejected: 0,
                    dropped: 0,
                    latency_ns: hist,
                    duration: Duration::from_secs(1),
                    response_bytes: 0,
                    per_endpoint: vec![rate as u64],
                    telemetry: TelemetrySnapshot::default(),
                }
            },
            |report| report.p95_ms() <= 500.0,
        );
        let peak = result.peak_rps.expect("capacity is reachable");
        assert!(
            (800.0..=1100.0).contains(&peak),
            "peak={peak}, trials={:?}",
            result.trials
        );
        assert!(result.best_report.is_some());
    }

    #[test]
    fn peak_search_reports_unattainable_slo() {
        let result = find_peak_load(
            100.0,
            1000.0,
            4,
            |_rate| LoadReport {
                completed: 0,
                errors: 100,
                deadline_exceeded: 0,
                rejected: 0,
                dropped: 0,
                latency_ns: Histogram::new(),
                duration: Duration::from_secs(1),
                response_bytes: 0,
                per_endpoint: vec![0],
                telemetry: TelemetrySnapshot::default(),
            },
            |report| report.error_rate() < 0.01,
        );
        assert!(result.peak_rps.is_none());
        assert_eq!(result.trials.len(), 1);
    }

    /// A batch-aware service that records every burst size it saw.
    struct BatchProbe {
        burst_sizes: std::sync::Mutex<Vec<usize>>,
    }

    impl BatchProbe {
        fn new() -> Self {
            Self {
                burst_sizes: std::sync::Mutex::new(Vec::new()),
            }
        }
    }

    impl Service for BatchProbe {
        fn call(&self, endpoint: usize, seq: u64) -> Result<usize, ServiceError> {
            self.call_many(&[(endpoint, seq)]).swap_remove(0)
        }

        fn call_many(&self, batch: &[(usize, u64)]) -> Vec<Result<usize, ServiceError>> {
            self.burst_sizes.lock().unwrap().push(batch.len());
            batch.iter().map(|_| Ok(4)).collect()
        }
    }

    #[test]
    fn default_call_many_maps_to_call() {
        let svc = Flaky;
        let outcomes = svc.call_many(&[(0, 0), (0, 1), (0, 4)]);
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].is_err(), "seq 0 is a planned failure");
        assert!(outcomes[1].is_ok());
        assert!(outcomes[2].is_err(), "seq 4 is a planned failure");
    }

    #[test]
    fn closed_loop_pipelined_issues_full_bursts() {
        let svc = BatchProbe::new();
        let report = ClosedLoop::new(mix())
            .workers(2)
            .pipeline_depth(8)
            .duration(Duration::from_secs(5))
            .max_requests(400)
            .run(&svc, 9);
        assert!(report.completed >= 393, "completed={}", report.completed);
        assert_eq!(report.response_bytes, report.completed * 4);
        let sizes = svc.burst_sizes.lock().unwrap();
        assert!(
            sizes.iter().filter(|&&s| s == 8).count() >= 40,
            "expected mostly full bursts, got {sizes:?}"
        );
        // Every burst respects the configured depth.
        assert!(sizes.iter().all(|&s| s <= 8));
        let total: u64 = report.per_endpoint.iter().sum();
        assert_eq!(total, report.completed);
    }

    #[test]
    fn closed_loop_depth_one_matches_classic_behavior() {
        let svc = BatchProbe::new();
        let report = ClosedLoop::new(mix())
            .workers(1)
            .pipeline_depth(1)
            .duration(Duration::from_secs(5))
            .max_requests(50)
            .run(&svc, 10);
        assert_eq!(report.completed, 50);
        assert!(svc.burst_sizes.lock().unwrap().iter().all(|&s| s == 1));
    }

    #[test]
    fn open_loop_pipelined_drains_bursts_under_load() {
        // One worker at high offered rate: the queue backs up, so drains
        // regularly pick up more than one arrival.
        let svc = BatchProbe::new();
        let report = OpenLoop::new(mix(), 20_000.0)
            .workers(1)
            .pipeline_depth(16)
            .queue_depth(256)
            .duration(Duration::from_millis(200))
            .run(&svc, 11);
        assert!(report.completed > 0);
        let sizes = svc.burst_sizes.lock().unwrap();
        assert!(
            sizes.iter().any(|&s| s > 1),
            "expected multi-arrival bursts, got {sizes:?}"
        );
        assert!(sizes.iter().all(|&s| s <= 16));
    }

    #[test]
    fn endpoint_mix_validation() {
        assert!(EndpointMix::new(&["a"], &[1.0, 2.0]).is_err());
        assert!(EndpointMix::uniform(&[]).is_err());
        let m = EndpointMix::uniform(&["x", "y"]).unwrap();
        assert_eq!(m.names(), &["x".to_string(), "y".to_string()]);
    }
}
