//! The [`Benchmark`] trait and per-run configuration.

use crate::error::Error;
use crate::hooks::HookManager;
use crate::report::BenchmarkReport;
use crate::sysinfo::SystemInfo;
use serde::{Deserialize, Serialize};

/// The workload categories DCPerf models (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadCategory {
    /// Frontend web serving (MediaWiki, DjangoBench).
    Web,
    /// Newsfeed ranking (FeedSim).
    Ranking,
    /// In-memory data caching (TaoBench).
    DataCaching,
    /// Big-data / warehouse queries (SparkBench).
    BigData,
    /// Media processing (VideoTranscodeBench).
    MediaProcessing,
    /// Datacenter-tax microbenchmarks.
    Microbenchmark,
    /// Comparison baselines from other suites (CloudSuite minis, …).
    Baseline,
}

impl std::fmt::Display for WorkloadCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WorkloadCategory::Web => "web",
            WorkloadCategory::Ranking => "ranking",
            WorkloadCategory::DataCaching => "data-caching",
            WorkloadCategory::BigData => "big-data",
            WorkloadCategory::MediaProcessing => "media-processing",
            WorkloadCategory::Microbenchmark => "microbenchmark",
            WorkloadCategory::Baseline => "baseline",
        };
        f.write_str(s)
    }
}

/// How large a run should be.
///
/// The real DCPerf runs for minutes to hours per benchmark; DCPerf-RS
/// scales the same workloads down so a full suite pass fits in CI, while
/// keeping the larger scales available for real measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// Seconds-per-benchmark scale for tests and CI.
    SmokeTest,
    /// The default scale: tens of seconds per benchmark.
    Standard,
    /// Minutes per benchmark; closest to the paper's methodology.
    Production,
}

impl Scale {
    /// A multiplicative factor applied to iteration counts and dataset
    /// sizes; `SmokeTest` is the unit scale.
    pub fn factor(self) -> u64 {
        match self {
            Scale::SmokeTest => 1,
            Scale::Standard => 8,
            Scale::Production => 64,
        }
    }
}

/// Configuration shared by every benchmark in a suite run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Run scale (dataset sizes, durations).
    pub scale: Scale,
    /// Master seed; every benchmark derives its own stream from it.
    pub seed: u64,
    /// Worker-thread override; `None` means one per logical CPU.
    pub threads: Option<usize>,
    /// Hook sampling interval in milliseconds.
    pub sample_interval_ms: u64,
    /// Directory for JSON reports; `None` disables writing.
    pub output_dir: Option<std::path::PathBuf>,
}

impl RunConfig {
    /// The default configuration at [`Scale::Standard`].
    pub fn new() -> Self {
        Self {
            scale: Scale::Standard,
            seed: 0xDC_BE_EF,
            threads: None,
            sample_interval_ms: 100,
            output_dir: None,
        }
    }

    /// A fast configuration for tests and CI.
    pub fn smoke_test() -> Self {
        Self {
            scale: Scale::SmokeTest,
            ..Self::new()
        }
    }

    /// Sets the master seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Resolves the worker-thread count against the host.
    pub fn effective_threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Mutable state handed to a benchmark while it runs: configuration, the
/// hook manager, and host information.
#[derive(Debug)]
pub struct RunContext {
    config: RunConfig,
    hooks: HookManager,
    system: SystemInfo,
    benchmark_seed: u64,
    benchmark_name: String,
    telemetry: dcperf_telemetry::Telemetry,
}

impl RunContext {
    /// Creates a context for one benchmark run.
    pub fn new(config: RunConfig, benchmark_name: &str) -> Self {
        // Derive a per-benchmark seed so adding/removing benchmarks does
        // not perturb the streams of the others.
        let benchmark_seed =
            dcperf_util::SplitMix64::mix(config.seed ^ fnv1a(benchmark_name.as_bytes()));
        Self {
            config,
            hooks: HookManager::new(),
            system: SystemInfo::probe(),
            benchmark_seed,
            benchmark_name: benchmark_name.to_owned(),
            telemetry: dcperf_telemetry::Telemetry::new(),
        }
    }

    /// The run configuration.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// The hook manager (register and control hooks through this).
    pub fn hooks(&self) -> &HookManager {
        &self.hooks
    }

    /// Mutable access to the hook manager.
    pub fn hooks_mut(&mut self) -> &mut HookManager {
        &mut self.hooks
    }

    /// Host information probed at context creation.
    pub fn system(&self) -> &SystemInfo {
        &self.system
    }

    /// The benchmark's derived deterministic seed.
    pub fn seed(&self) -> u64 {
        self.benchmark_seed
    }

    /// The run's telemetry registry. Benchmarks record counters and
    /// latency histograms here; the framework adds lifecycle phase spans
    /// and embeds the final snapshot in the report.
    pub fn telemetry(&self) -> &dcperf_telemetry::Telemetry {
        &self.telemetry
    }

    /// Starts a phase span keyed by this run's benchmark name; the span
    /// records its wall time into the run telemetry when dropped.
    #[must_use = "the span records on drop; binding it to _ ends it immediately"]
    pub fn phase_span(&self, phase: dcperf_telemetry::Phase) -> dcperf_telemetry::PhaseSpan {
        self.telemetry.phase_span(&self.benchmark_name, phase)
    }
}

/// FNV-1a, used only for stable name→seed derivation.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A benchmark runnable by the DCPerf-RS framework.
///
/// Implementations model one production workload category. The framework
/// guarantees `install` is called before the first `run`, mirrors DCPerf's
/// `install`/`run` commands, and wraps each `run` with hook start/stop.
pub trait Benchmark: Send + Sync {
    /// Stable, unique benchmark name (used for scoring and report files).
    fn name(&self) -> &str;

    /// Which production workload category this benchmark models.
    fn category(&self) -> WorkloadCategory;

    /// One-line human description.
    fn description(&self) -> &str;

    /// Prepares datasets and other one-time state.
    ///
    /// The default implementation does nothing, for benchmarks that build
    /// their state inside `run`.
    ///
    /// # Errors
    ///
    /// Returns an error if preparation fails (e.g. dataset generation
    /// cannot allocate its working directory).
    fn install(&self, _ctx: &mut RunContext) -> Result<(), Error> {
        Ok(())
    }

    /// Runs the benchmark and produces a report.
    ///
    /// # Errors
    ///
    /// Returns an error if the workload fails or cannot meet its SLO.
    fn run(&self, ctx: &mut RunContext) -> Result<BenchmarkReport, Error>;

    /// The metric used for scoring (must appear in the report's metrics).
    ///
    /// Defaults to `requests_per_second`, the most common DCPerf metric.
    fn score_metric(&self) -> &str {
        "requests_per_second"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_factors_are_monotone() {
        assert!(Scale::SmokeTest.factor() < Scale::Standard.factor());
        assert!(Scale::Standard.factor() < Scale::Production.factor());
    }

    #[test]
    fn per_benchmark_seeds_differ() {
        let cfg = RunConfig::smoke_test();
        let a = RunContext::new(cfg.clone(), "taobench");
        let b = RunContext::new(cfg, "feedsim");
        assert_ne!(a.seed(), b.seed());
    }

    #[test]
    fn same_benchmark_same_seed() {
        let cfg = RunConfig::smoke_test().with_seed(7);
        let a = RunContext::new(cfg.clone(), "taobench");
        let b = RunContext::new(cfg, "taobench");
        assert_eq!(a.seed(), b.seed());
    }

    #[test]
    fn master_seed_perturbs_benchmark_seed() {
        let a = RunContext::new(RunConfig::smoke_test().with_seed(1), "x");
        let b = RunContext::new(RunConfig::smoke_test().with_seed(2), "x");
        assert_ne!(a.seed(), b.seed());
    }

    #[test]
    fn effective_threads_defaults_to_parallelism() {
        let cfg = RunConfig::smoke_test();
        assert!(cfg.effective_threads() >= 1);
        let pinned = RunConfig {
            threads: Some(3),
            ..cfg
        };
        assert_eq!(pinned.effective_threads(), 3);
    }

    #[test]
    fn category_display_is_kebab() {
        assert_eq!(WorkloadCategory::DataCaching.to_string(), "data-caching");
        assert_eq!(WorkloadCategory::Web.to_string(), "web");
    }
}
