//! Benchmark result reports and their JSON serialization.
//!
//! DCPerf "reports the benchmark parameters and results, along with key
//! information about the system being tested … Individual benchmark results
//! are stored in JSON format, allowing automation scripts to process them
//! further" (§3.1). [`BenchmarkReport`] is that JSON document.

use crate::benchmark::RunContext;
use crate::hooks::HookReport;
use crate::sysinfo::SystemInfo;
use dcperf_telemetry::TelemetrySnapshot;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A single reported metric value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum MetricValue {
    /// A floating-point measurement (throughput, latency, ratio, …).
    Float(f64),
    /// An integral measurement (counts).
    Int(i64),
    /// A textual annotation (configuration echo, pass/fail, …).
    Text(String),
}

impl MetricValue {
    /// The value as `f64` if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            MetricValue::Float(v) => Some(*v),
            MetricValue::Int(v) => Some(*v as f64),
            MetricValue::Text(_) => None,
        }
    }
}

impl From<f64> for MetricValue {
    fn from(v: f64) -> Self {
        MetricValue::Float(v)
    }
}

impl From<i64> for MetricValue {
    fn from(v: i64) -> Self {
        MetricValue::Int(v)
    }
}

impl From<u64> for MetricValue {
    fn from(v: u64) -> Self {
        MetricValue::Int(v as i64)
    }
}

impl From<&str> for MetricValue {
    fn from(v: &str) -> Self {
        MetricValue::Text(v.to_owned())
    }
}

impl From<String> for MetricValue {
    fn from(v: String) -> Self {
        MetricValue::Text(v)
    }
}

/// The result document produced by one benchmark run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkReport {
    /// Benchmark name.
    pub benchmark: String,
    /// Echo of the parameters the benchmark ran with.
    pub parameters: BTreeMap<String, MetricValue>,
    /// Application-level results (throughput, latency percentiles, …).
    pub metrics: BTreeMap<String, MetricValue>,
    /// Host description.
    pub system: SystemInfo,
    /// Hook outputs collected during the run.
    pub hooks: Vec<HookReport>,
    /// Wall-clock duration of the measured phase, in seconds.
    pub duration_secs: f64,
    /// Uniform metrics snapshot of the run's telemetry registry: every
    /// counter, gauge, latency digest (p50/p95/p99/p99.9), and lifecycle
    /// phase timing recorded during the run.
    pub telemetry: TelemetrySnapshot,
}

impl BenchmarkReport {
    /// Looks up a numeric metric.
    pub fn metric_f64(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).and_then(MetricValue::as_f64)
    }

    /// Serializes the report to pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns an error if serialization fails (practically impossible for
    /// this type, but surfaced rather than swallowed).
    pub fn to_json(&self) -> Result<String, crate::Error> {
        Ok(serde_json::to_string_pretty(self)?)
    }
}

/// Incrementally assembles a [`BenchmarkReport`] while a benchmark runs.
///
/// # Examples
///
/// ```
/// use dcperf_core::{ReportBuilder, RunConfig, RunContext};
///
/// let mut ctx = RunContext::new(RunConfig::smoke_test(), "demo");
/// let mut b = ReportBuilder::new("demo");
/// b.param("threads", 8i64);
/// b.metric("requests_per_second", 1234.5);
/// let report = b.finish(&mut ctx);
/// assert_eq!(report.metric_f64("requests_per_second"), Some(1234.5));
/// ```
#[derive(Debug, Clone)]
pub struct ReportBuilder {
    benchmark: String,
    parameters: BTreeMap<String, MetricValue>,
    metrics: BTreeMap<String, MetricValue>,
    started: std::time::Instant,
}

impl ReportBuilder {
    /// Starts a report for `benchmark`, stamping the start time.
    pub fn new(benchmark: &str) -> Self {
        Self {
            benchmark: benchmark.to_owned(),
            parameters: BTreeMap::new(),
            metrics: BTreeMap::new(),
            started: std::time::Instant::now(),
        }
    }

    /// Records a run parameter.
    pub fn param(&mut self, name: &str, value: impl Into<MetricValue>) -> &mut Self {
        self.parameters.insert(name.to_owned(), value.into());
        self
    }

    /// Records a result metric.
    pub fn metric(&mut self, name: &str, value: impl Into<MetricValue>) -> &mut Self {
        self.metrics.insert(name.to_owned(), value.into());
        self
    }

    /// Records the standard latency metrics from a histogram, in
    /// milliseconds.
    pub fn latency_ms(&mut self, prefix: &str, hist: &dcperf_util::Histogram) -> &mut Self {
        let to_ms = |ns: u64| ns as f64 / 1e6;
        self.metric(&format!("{prefix}_p50_ms"), to_ms(hist.p50()));
        self.metric(&format!("{prefix}_p95_ms"), to_ms(hist.p95()));
        self.metric(&format!("{prefix}_p99_ms"), to_ms(hist.p99()));
        self.metric(&format!("{prefix}_mean_ms"), hist.mean() / 1e6);
        self.metric(&format!("{prefix}_max_ms"), to_ms(hist.max()));
        self
    }

    /// Finalizes the report, stamping duration, host info, and any hook
    /// reports accumulated in the context.
    pub fn finish(self, ctx: &mut RunContext) -> BenchmarkReport {
        BenchmarkReport {
            benchmark: self.benchmark,
            parameters: self.parameters,
            metrics: self.metrics,
            system: ctx.system().clone(),
            hooks: ctx.hooks_mut().drain_reports(),
            duration_secs: self.started.elapsed().as_secs_f64(),
            telemetry: ctx.telemetry().snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::RunConfig;

    fn ctx() -> RunContext {
        RunContext::new(RunConfig::smoke_test(), "test")
    }

    #[test]
    fn metric_value_conversions() {
        assert_eq!(MetricValue::from(1.5).as_f64(), Some(1.5));
        assert_eq!(MetricValue::from(3i64).as_f64(), Some(3.0));
        assert_eq!(MetricValue::from(3u64).as_f64(), Some(3.0));
        assert_eq!(MetricValue::from("x").as_f64(), None);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut ctx = ctx();
        let mut b = ReportBuilder::new("roundtrip");
        b.param("scale", "smoke");
        b.metric("requests_per_second", 99.5);
        b.metric("total_requests", 1000u64);
        let report = b.finish(&mut ctx);
        let json = report.to_json().unwrap();
        let parsed = serde_json::from_str::<BenchmarkReport>(&json).unwrap();
        assert_eq!(parsed.benchmark, "roundtrip");
        assert_eq!(parsed.metric_f64("requests_per_second"), Some(99.5));
        assert_eq!(parsed.metric_f64("total_requests"), Some(1000.0));
    }

    #[test]
    fn latency_ms_emits_standard_percentiles() {
        let mut ctx = ctx();
        let mut hist = dcperf_util::Histogram::new();
        for i in 1..=1000u64 {
            hist.record(i * 1_000_000); // 1..=1000 ms in ns
        }
        let mut b = ReportBuilder::new("lat");
        b.latency_ms("request", &hist);
        let report = b.finish(&mut ctx);
        let p95 = report.metric_f64("request_p95_ms").unwrap();
        assert!((900.0..=1000.0).contains(&p95), "p95={p95}");
        assert!(report.metric_f64("request_mean_ms").is_some());
    }

    #[test]
    fn duration_is_positive() {
        let mut ctx = ctx();
        let b = ReportBuilder::new("t");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let report = b.finish(&mut ctx);
        assert!(report.duration_secs > 0.0);
    }
}
