//! The datacenter-tax microbenchmark harness (§3.2's "Microbenchmarks
//! for Datacenter Taxes").
//!
//! Runs every kernel in the [`dcperf_tax::Registry`] — compression,
//! hashing, crypto, serialization, memory, and concurrency — and reports
//! per-kernel ops/sec plus a geometric-mean score, the folly_bench-style
//! early-warning signal: "if a server SKU performs poorly on them, it is
//! likely to exhibit subpar performance for many applications".
//!
//! The report's `crypto_backend` parameter names the SHA-256 and ChaCha20
//! code paths the host ran ([`dcperf_tax::crypto::backend`]), so scores
//! compared across SKUs say which implementation they measured.

use dcperf_core::{Benchmark, BenchmarkReport, Error, ReportBuilder, RunContext, WorkloadCategory};
use dcperf_tax::{crypto, Registry};
use dcperf_util::geometric_mean;
use std::time::Instant;

/// Iterations per kernel at smoke scale (multiplied by the run scale).
const BASE_ITERS: u64 = 8;

/// The tax microbenchmark. See the [module docs](self).
#[derive(Debug, Default)]
pub struct TaxMicroBench;

impl Benchmark for TaxMicroBench {
    fn name(&self) -> &str {
        "tax_micro"
    }

    fn category(&self) -> WorkloadCategory {
        WorkloadCategory::Microbenchmark
    }

    fn description(&self) -> &str {
        "datacenter-tax kernels: compression, hashing, crypto, serialization, memory, threads"
    }

    fn score_metric(&self) -> &str {
        "ops_per_second"
    }

    fn run(&self, ctx: &mut RunContext) -> Result<BenchmarkReport, Error> {
        let iters = BASE_ITERS * ctx.config().scale.factor();
        let registry = Registry::with_builtin();
        let mut report = ReportBuilder::new(self.name());
        report.param("iterations_per_kernel", iters);
        report.param("kernel_count", registry.len() as u64);
        report.param("crypto_backend", crypto::backend());

        let mut rates = Vec::with_capacity(registry.len());
        for bench in registry.iter() {
            let started = Instant::now();
            let ops = bench.run(iters);
            let secs = started.elapsed().as_secs_f64().max(1e-9);
            let rate = ops as f64 / secs;
            let key = format!("kernel/{}", bench.name());
            report.metric(&key, rate);
            rates.push(rate);
        }
        let score = geometric_mean(&rates).ok_or_else(|| Error::Benchmark {
            name: self.name().to_owned(),
            message: "no kernels produced a positive rate".into(),
        })?;
        report.metric("ops_per_second", score);
        Ok(report.finish(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcperf_core::RunConfig;

    #[test]
    fn runs_every_kernel_and_scores() {
        let mut ctx = RunContext::new(
            RunConfig {
                threads: Some(2),
                ..RunConfig::smoke_test()
            },
            "tax_micro",
        );
        let report = TaxMicroBench.run(&mut ctx).expect("tax micro runs");
        assert!(report.metric_f64("ops_per_second").unwrap() > 0.0);
        // Every registered kernel appears in the report.
        let kernel_metrics = report
            .metrics
            .keys()
            .filter(|k| k.starts_with("kernel/"))
            .count();
        assert_eq!(kernel_metrics, Registry::with_builtin().len());
        assert_eq!(
            report.parameters.get("crypto_backend"),
            Some(&crypto::backend().into())
        );
    }
}
