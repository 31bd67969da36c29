//! Pipelining configuration and depth/batch telemetry.
//!
//! A pipelined connection keeps a window of requests in flight and lets
//! the server complete them out of order, so one connection replaces N
//! pool slots. The module carries two pieces: [`PipelineConfig`], the
//! read-ahead window, and [`PipelineStats`], the
//! `rpc.pipeline.*` / `rpc.batch.*` telemetry handles with a leak-proof
//! RAII guard for in-flight accounting.

use dcperf_telemetry::{metrics, Counter, Gauge, Telemetry};
use std::sync::Arc;

/// The read-ahead window of a pipelined connection. How many responses
/// share one write is fixed by [`crate::server::MAX_BATCH`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Maximum requests in flight per connection before the reader stops
    /// reading ahead. 1 disables pipelining: the connection serves one
    /// request per turn and responses stay strictly in request order.
    pub max_inflight: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self { max_inflight: 64 }
    }
}

/// Depth and batching telemetry for pipelined connections
/// (`rpc.pipeline.*`, `rpc.batch.*`).
#[derive(Debug)]
pub struct PipelineStats {
    inflight: Arc<Gauge>,
    inflight_peak: Arc<Gauge>,
    flushes: Arc<Counter>,
    batched_responses: Arc<Counter>,
}

impl PipelineStats {
    /// Creates zeroed stats in a private registry.
    pub fn new() -> Self {
        Self::with_telemetry(&Telemetry::new())
    }

    /// Registers the gauges and counters in `telemetry`.
    pub fn with_telemetry(telemetry: &Telemetry) -> Self {
        let pipeline = |s| telemetry.gauge(&metrics::scoped(metrics::PREFIX_RPC_PIPELINE, s));
        let batch = |s| telemetry.counter(&metrics::scoped(metrics::PREFIX_RPC_BATCH, s));
        Self {
            inflight: pipeline(metrics::suffix::INFLIGHT),
            inflight_peak: pipeline(metrics::suffix::INFLIGHT_PEAK),
            flushes: batch(metrics::suffix::FLUSHES),
            batched_responses: batch(metrics::suffix::RESPONSES),
        }
    }

    /// Accounts one request entering the in-flight window. The returned
    /// guard releases the slot on drop, so a request that is shed, times
    /// out, or is dropped with its closure can never leak depth.
    pub fn track(self: &Arc<Self>) -> InflightGuard {
        self.inflight.add(1);
        self.inflight_peak.set_max(self.inflight.get());
        InflightGuard {
            stats: Arc::clone(self),
        }
    }

    /// Accounts one coalesced burst of `responses` frames written to the
    /// transport in a single flush.
    pub fn record_flush(&self, responses: usize) {
        self.flushes.inc();
        self.batched_responses.add(responses as u64);
    }

    /// Requests currently in flight.
    pub fn inflight(&self) -> i64 {
        self.inflight.get()
    }

    /// Highest in-flight depth observed.
    pub fn inflight_peak(&self) -> i64 {
        self.inflight_peak.get()
    }

    /// Coalesced bursts written.
    pub fn flushes(&self) -> u64 {
        self.flushes.get()
    }

    /// Responses carried by those bursts.
    pub fn batched_responses(&self) -> u64 {
        self.batched_responses.get()
    }
}

impl Default for PipelineStats {
    fn default() -> Self {
        Self::new()
    }
}

/// RAII handle for one in-flight request; dropping it releases the slot.
#[derive(Debug)]
pub struct InflightGuard {
    stats: Arc<PipelineStats>,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.stats.inflight.sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_pipelined() {
        assert!(PipelineConfig::default().max_inflight > 1);
    }

    #[test]
    fn guards_track_depth_and_peak() {
        let stats = Arc::new(PipelineStats::new());
        let a = stats.track();
        let b = stats.track();
        assert_eq!(stats.inflight(), 2);
        drop(a);
        assert_eq!(stats.inflight(), 1);
        drop(b);
        assert_eq!(stats.inflight(), 0);
        assert_eq!(stats.inflight_peak(), 2, "peak must survive drains");
    }

    #[test]
    fn flush_accounting_sums_burst_sizes() {
        let stats = PipelineStats::new();
        stats.record_flush(3);
        stats.record_flush(1);
        assert_eq!(stats.flushes(), 2);
        assert_eq!(stats.batched_responses(), 4);
    }

    #[test]
    fn stats_register_in_shared_telemetry() {
        let telemetry = Telemetry::new();
        let stats = Arc::new(PipelineStats::with_telemetry(&telemetry));
        let _guard = stats.track();
        stats.record_flush(2);
        let snap = telemetry.snapshot();
        assert_eq!(snap.gauge("rpc.pipeline.inflight"), Some(1));
        assert_eq!(snap.gauge("rpc.pipeline.inflight_peak"), Some(1));
        assert_eq!(snap.counter("rpc.batch.flushes"), Some(1));
        assert_eq!(snap.counter("rpc.batch.responses"), Some(2));
    }
}
