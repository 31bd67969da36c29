//! The DCPerf-RS automation framework.
//!
//! This crate reproduces the framework half of DCPerf (§3.1 of the paper):
//! the high-level `install`/`run` driver, per-benchmark JSON result
//! reporting, normalized scoring against a baseline machine with a
//! geometric-mean overall score, and the extensible *hooks* system that
//! samples CPU utilization and memory while a benchmark runs.
//!
//! The framework is deliberately independent of the benchmarks themselves:
//! anything implementing [`Benchmark`] can be registered in a [`Suite`] and
//! driven through the same install → run → report pipeline, exactly as new
//! benchmarks can be added to DCPerf without touching its core.
//!
//! # Examples
//!
//! A minimal benchmark and a one-benchmark suite run:
//!
//! ```
//! use dcperf_core::{
//!     Benchmark, BenchmarkReport, Error, ReportBuilder, RunConfig, RunContext, Suite,
//!     WorkloadCategory,
//! };
//!
//! struct Sleepy;
//!
//! impl Benchmark for Sleepy {
//!     fn name(&self) -> &str {
//!         "sleepy"
//!     }
//!     fn category(&self) -> WorkloadCategory {
//!         WorkloadCategory::Web
//!     }
//!     fn description(&self) -> &str {
//!         "does almost nothing"
//!     }
//!     fn run(&self, ctx: &mut RunContext) -> Result<BenchmarkReport, Error> {
//!         let mut report = ReportBuilder::new(self.name());
//!         report.metric("requests_per_second", 123.0);
//!         Ok(report.finish(ctx))
//!     }
//! }
//!
//! let mut suite = Suite::new();
//! suite.register(Box::new(Sleepy));
//! suite.set_baseline("sleepy", "requests_per_second", 100.0);
//! let summary = suite.run_all(&RunConfig::smoke_test())?;
//! assert!((summary.overall_score() - 1.23).abs() < 1e-9);
//! # Ok::<(), Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmark;
pub mod error;
pub mod hooks;
pub mod report;
pub mod score;
pub mod slo;
pub mod suite;
pub mod sysinfo;

pub use benchmark::{Benchmark, RunConfig, RunContext, Scale, WorkloadCategory};
pub use error::Error;
pub use hooks::{CpuUtilHook, Hook, HookManager, HookReport, MemStatHook, TimeSeries};
pub use report::{BenchmarkReport, MetricValue, ReportBuilder};
pub use score::{BaselineTable, ScoreCard};
pub use slo::{SloOutcome, SloSpec};
pub use suite::{Suite, SuiteSummary};
pub use sysinfo::SystemInfo;
