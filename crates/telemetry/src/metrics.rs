//! The central metric-name schema.
//!
//! Every metric name the suite records is declared here, once. Call
//! sites use these constants instead of string literals, so a typo'd
//! counter name is a compile error and an orphaned one is dead code —
//! and `cargo analyze` machine-enforces both directions: dotted metric
//! literals at telemetry call sites must be declared here
//! (`metrics-schema`), and every constant declared here must be
//! referenced somewhere in the workspace (`metrics-orphan`).
//!
//! Three kinds of declaration, distinguished by naming convention (the
//! analyzer parses this file structurally):
//!
//! * plain consts — fully-specified metric names (`loadgen.completed`);
//! * `PREFIX_*` consts — namespaces composable with the [`suffix`]
//!   vocabulary via [`scoped`] (`rpc.breaker` + `rejected`);
//! * `DYN_*` consts — prefixes whose remaining segments are generated at
//!   runtime (`loadgen.endpoint.3.get`).

// --- load generator ------------------------------------------------------

/// Calls that completed successfully.
pub const LOADGEN_COMPLETED: &str = "loadgen.completed";
/// Calls that failed with a generic service error.
pub const LOADGEN_ERRORS: &str = "loadgen.errors";
/// Calls that exhausted their deadline budget.
pub const LOADGEN_DEADLINE_EXCEEDED: &str = "loadgen.deadline_exceeded";
/// Calls rejected by overload shedding or an open circuit breaker.
pub const LOADGEN_REJECTED: &str = "loadgen.rejected";
/// Open-loop arrivals dropped because the queue was full.
pub const LOADGEN_DROPPED: &str = "loadgen.dropped";
/// Response payload bytes received.
pub const LOADGEN_RESPONSE_BYTES: &str = "loadgen.response_bytes";
/// End-to-end call latency histogram (nanoseconds).
pub const LOADGEN_LATENCY_NS: &str = "loadgen.latency_ns";
/// Per-endpoint completion counters: `loadgen.endpoint.<index>.<name>`.
pub const DYN_LOADGEN_ENDPOINT: &str = "loadgen.endpoint";

// --- RPC substrate -------------------------------------------------------

/// Transport counters (`requests`, `responses`, `errors`, `shed`,
/// `deadline_exceeded`, `deadline_shed`, `bytes_sent`, `bytes_received`).
pub const PREFIX_RPC: &str = "rpc";
/// Lane counters: `fast_jobs` run inline on the delivering thread,
/// `slow_jobs` queued to the pool. The pool queue pushes back on callers
/// rather than shed, so there is no shed counter.
pub const PREFIX_RPC_POOL: &str = "rpc.pool";
/// The resilient client's circuit breaker, sharing the server registry.
pub const PREFIX_RPC_BREAKER: &str = "rpc.breaker";
/// Pipelined-connection depth tracking (`inflight`, `inflight_peak`).
pub const PREFIX_RPC_PIPELINE: &str = "rpc.pipeline";
/// Batched response-burst writes (`flushes`, `responses`).
pub const PREFIX_RPC_BATCH: &str = "rpc.batch";
/// Retries performed by the resilient client.
pub const RPC_RESILIENT_RETRIES: &str = "rpc.resilient.retries";

// --- kvstore -------------------------------------------------------------

/// Cache counters (`hits`, `misses`, `insertions`, `evictions`,
/// `expirations`, `load_failures`, `singleflight_fills`,
/// `singleflight_waits`, `singleflight_failed_waits`).
pub const PREFIX_CACHE: &str = "kvstore.cache";

// --- chaos / fault injection --------------------------------------------

/// Injection tallies of the backing-store fault plan.
pub const PREFIX_CHAOS_STORE: &str = "chaos.store";
/// Injection tallies of the RPC-dispatch fault plan.
pub const PREFIX_CHAOS_RPC: &str = "chaos.rpc";

/// The suffix vocabulary composable with any `PREFIX_*` namespace.
pub mod suffix {
    /// Requests sent.
    pub const REQUESTS: &str = "requests";
    /// Responses received.
    pub const RESPONSES: &str = "responses";
    /// Application errors.
    pub const ERRORS: &str = "errors";
    /// Work shed due to overload.
    pub const SHED: &str = "shed";
    /// Deadline-exceeded outcomes (client view).
    pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
    /// Expired work shed server-side.
    pub const DEADLINE_SHED: &str = "deadline_shed";
    /// Payload bytes sent.
    pub const BYTES_SENT: &str = "bytes_sent";
    /// Payload bytes received.
    pub const BYTES_RECEIVED: &str = "bytes_received";
    /// Fast-lane jobs, run inline on the thread that delivered them.
    pub const FAST_JOBS: &str = "fast_jobs";
    /// Slow-lane jobs, queued to the pool's workers.
    pub const SLOW_JOBS: &str = "slow_jobs";
    /// Requests currently in flight on pipelined connections (gauge).
    pub const INFLIGHT: &str = "inflight";
    /// Highest in-flight depth observed (running-maximum gauge).
    pub const INFLIGHT_PEAK: &str = "inflight_peak";
    /// Coalesced response-burst writes to the transport.
    pub const FLUSHES: &str = "flushes";
    /// Breaker transitions to open.
    pub const OPEN_TRANSITIONS: &str = "open_transitions";
    /// Breaker transitions to half-open.
    pub const HALF_OPEN_TRANSITIONS: &str = "half_open_transitions";
    /// Breaker transitions back to closed.
    pub const CLOSE_TRANSITIONS: &str = "close_transitions";
    /// Admissions rejected (open breaker or overload).
    pub const REJECTED: &str = "rejected";
    /// Cache hits.
    pub const HITS: &str = "hits";
    /// Cache misses.
    pub const MISSES: &str = "misses";
    /// Cache insertions (sets plus read-through fills).
    pub const INSERTIONS: &str = "insertions";
    /// Cache evictions for capacity.
    pub const EVICTIONS: &str = "evictions";
    /// Cache entries removed because their TTL elapsed.
    pub const EXPIRATIONS: &str = "expirations";
    /// Read-through loads that returned nothing.
    pub const LOAD_FAILURES: &str = "load_failures";
    /// Cache misses that ran the loader as the single-flight leader.
    pub const SINGLEFLIGHT_FILLS: &str = "singleflight_fills";
    /// Cache misses that parked behind another caller's in-flight fill.
    pub const SINGLEFLIGHT_WAITS: &str = "singleflight_waits";
    /// Parked waiters released by a failed (or panicked) fill.
    pub const SINGLEFLIGHT_FAILED_WAITS: &str = "singleflight_failed_waits";
    /// Operations a fault plan inspected.
    pub const OPERATIONS: &str = "operations";
    /// Operations that had latency injected.
    pub const INJECTED_LATENCY_OPS: &str = "injected_latency_ops";
    /// Total injected latency, in nanoseconds.
    pub const INJECTED_LATENCY_NS: &str = "injected_latency_ns";
    /// Operations failed by error injection.
    pub const INJECTED_ERRORS: &str = "injected_errors";
    /// Operations shed by overload injection.
    pub const INJECTED_OVERLOADS: &str = "injected_overloads";
}

/// Joins a namespace prefix and a suffix into a full metric name.
///
/// ```
/// use dcperf_telemetry::metrics;
/// assert_eq!(
///     metrics::scoped(metrics::PREFIX_RPC_BREAKER, metrics::suffix::REJECTED),
///     "rpc.breaker.rejected"
/// );
/// ```
#[must_use]
pub fn scoped(prefix: &str, suffix: &str) -> String {
    format!("{prefix}.{suffix}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_joins_with_a_dot() {
        assert_eq!(scoped(PREFIX_CACHE, suffix::HITS), "kvstore.cache.hits");
    }

    #[test]
    fn names_are_lower_dotted() {
        for name in [
            LOADGEN_COMPLETED,
            LOADGEN_ERRORS,
            LOADGEN_DEADLINE_EXCEEDED,
            LOADGEN_REJECTED,
            LOADGEN_DROPPED,
            LOADGEN_RESPONSE_BYTES,
            LOADGEN_LATENCY_NS,
            DYN_LOADGEN_ENDPOINT,
            PREFIX_RPC,
            PREFIX_RPC_POOL,
            PREFIX_RPC_BREAKER,
            PREFIX_RPC_PIPELINE,
            PREFIX_RPC_BATCH,
            RPC_RESILIENT_RETRIES,
            PREFIX_CACHE,
            PREFIX_CHAOS_STORE,
            PREFIX_CHAOS_RPC,
        ] {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "bad metric name {name}"
            );
            assert!(!name.starts_with('.') && !name.ends_with('.'));
        }
    }
}
