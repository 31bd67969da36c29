//! The benchmark suite: registration, install/run driving, and summary
//! reporting.

use crate::benchmark::{Benchmark, RunConfig, RunContext};
use crate::error::Error;
use crate::report::BenchmarkReport;
use crate::score::{BaselineTable, ScoreCard};

/// A collection of registered benchmarks driven through the same
/// install → run → score pipeline, mirroring DCPerf's `benchpress` CLI.
#[derive(Default)]
pub struct Suite {
    benchmarks: Vec<Box<dyn Benchmark>>,
    baselines: BaselineTable,
}

impl std::fmt::Debug for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Suite")
            .field(
                "benchmarks",
                &self.benchmarks.iter().map(|b| b.name()).collect::<Vec<_>>(),
            )
            .field("baselines", &self.baselines.len())
            .finish()
    }
}

impl Suite {
    /// Creates an empty suite.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a benchmark.
    ///
    /// # Panics
    ///
    /// Panics if a benchmark with the same name is already registered —
    /// duplicate names would make scores ambiguous.
    pub fn register(&mut self, benchmark: Box<dyn Benchmark>) {
        assert!(
            self.benchmarks.iter().all(|b| b.name() != benchmark.name()),
            "benchmark '{}' registered twice",
            benchmark.name()
        );
        self.benchmarks.push(benchmark);
    }

    /// Sets the baseline value used to normalize `benchmark`'s score.
    pub fn set_baseline(&mut self, benchmark: &str, metric: &str, value: f64) {
        self.baselines.set(benchmark, metric, value);
    }

    /// Names of registered benchmarks, in registration order.
    pub fn benchmark_names(&self) -> Vec<&str> {
        self.benchmarks.iter().map(|b| b.name()).collect()
    }

    /// Number of registered benchmarks.
    pub fn len(&self) -> usize {
        self.benchmarks.len()
    }

    /// Whether no benchmarks are registered.
    pub fn is_empty(&self) -> bool {
        self.benchmarks.is_empty()
    }

    /// Runs a single benchmark by name: install, then run, then score.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownBenchmark`] for unregistered names, or the
    /// benchmark's own failure.
    pub fn run(&self, name: &str, config: &RunConfig) -> Result<BenchmarkReport, Error> {
        let bench = self
            .benchmarks
            .iter()
            .find(|b| b.name() == name)
            .ok_or_else(|| Error::UnknownBenchmark(name.to_owned()))?;
        self.run_one(bench.as_ref(), config)
    }

    fn run_one(&self, bench: &dyn Benchmark, config: &RunConfig) -> Result<BenchmarkReport, Error> {
        use dcperf_telemetry::Phase;

        let mut ctx = RunContext::new(config.clone(), bench.name());
        {
            let _setup = ctx.phase_span(Phase::Setup);
            bench.install(&mut ctx)?;
            ctx.hooks_mut().register_defaults();
            let interval = std::time::Duration::from_millis(config.sample_interval_ms.max(1));
            ctx.hooks_mut().start(interval);
        }
        let result = {
            let _measure = ctx.phase_span(Phase::Measure);
            bench.run(&mut ctx)
        };
        {
            // Ensure the sampler stops even on failure.
            let _teardown = ctx.phase_span(Phase::Teardown);
            ctx.hooks_mut().stop();
        }
        let mut report = result?;
        // The benchmark snapshotted telemetry while the measure span was
        // still open; refresh so the report sees every lifecycle phase.
        report.telemetry = ctx.telemetry().snapshot();
        if let Some(dir) = &config.output_dir {
            std::fs::create_dir_all(dir)?;
            let path = dir.join(format!("{}.json", bench.name()));
            std::fs::write(path, report.to_json()?)?;
        }
        Ok(report)
    }

    /// Runs every registered benchmark and produces a summary with
    /// normalized scores and the geometric-mean overall score.
    ///
    /// # Errors
    ///
    /// Fails fast on the first benchmark error.
    pub fn run_all(&self, config: &RunConfig) -> Result<SuiteSummary, Error> {
        let mut reports = Vec::with_capacity(self.benchmarks.len());
        let mut scores = ScoreCard::new();
        for bench in &self.benchmarks {
            let report = self.run_one(bench.as_ref(), config)?;
            if let Some((metric, _)) = self.baselines.get(bench.name()) {
                let metric = metric.to_owned();
                match report.metric_f64(&metric) {
                    Some(measured) => {
                        if let Some(score) = self.baselines.score(bench.name(), measured) {
                            scores.insert(bench.name(), score);
                        }
                    }
                    None => {
                        return Err(Error::Benchmark {
                            name: bench.name().to_owned(),
                            message: format!("report is missing scoring metric '{metric}'"),
                        })
                    }
                }
            }
            reports.push(report);
        }
        Ok(SuiteSummary { reports, scores })
    }
}

/// The outcome of a full-suite run.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteSummary {
    reports: Vec<BenchmarkReport>,
    scores: ScoreCard,
}

impl SuiteSummary {
    /// Per-benchmark reports, in run order.
    pub fn reports(&self) -> &[BenchmarkReport] {
        &self.reports
    }

    /// Per-benchmark normalized scores.
    pub fn scores(&self) -> &ScoreCard {
        &self.scores
    }

    /// The overall DCPerf score: geometric mean of the benchmark scores.
    pub fn overall_score(&self) -> f64 {
        self.scores.overall()
    }

    /// Renders a compact human-readable summary table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<24} {:>12}\n", "benchmark", "score"));
        for (name, score) in self.scores.iter() {
            out.push_str(&format!("{name:<24} {score:>12.4}\n"));
        }
        out.push_str(&format!(
            "{:<24} {:>12.4}\n",
            "OVERALL (geomean)",
            self.overall_score()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::WorkloadCategory;
    use crate::report::ReportBuilder;

    struct Fixed {
        name: &'static str,
        rps: f64,
    }

    impl Benchmark for Fixed {
        fn name(&self) -> &str {
            self.name
        }
        fn category(&self) -> WorkloadCategory {
            WorkloadCategory::Microbenchmark
        }
        fn description(&self) -> &str {
            "fixed-output benchmark for tests"
        }
        fn run(&self, ctx: &mut RunContext) -> Result<BenchmarkReport, Error> {
            let mut b = ReportBuilder::new(self.name);
            b.metric("requests_per_second", self.rps);
            Ok(b.finish(ctx))
        }
    }

    struct Failing;

    impl Benchmark for Failing {
        fn name(&self) -> &str {
            "failing"
        }
        fn category(&self) -> WorkloadCategory {
            WorkloadCategory::Microbenchmark
        }
        fn description(&self) -> &str {
            "always fails"
        }
        fn run(&self, _ctx: &mut RunContext) -> Result<BenchmarkReport, Error> {
            Err(Error::Benchmark {
                name: "failing".into(),
                message: "intentional".into(),
            })
        }
    }

    fn two_benchmark_suite() -> Suite {
        let mut s = Suite::new();
        s.register(Box::new(Fixed {
            name: "fast",
            rps: 400.0,
        }));
        s.register(Box::new(Fixed {
            name: "slow",
            rps: 100.0,
        }));
        s.set_baseline("fast", "requests_per_second", 100.0);
        s.set_baseline("slow", "requests_per_second", 100.0);
        s
    }

    #[test]
    fn run_all_scores_and_geomeans() {
        let s = two_benchmark_suite();
        let summary = s.run_all(&RunConfig::smoke_test()).unwrap();
        assert_eq!(summary.reports().len(), 2);
        assert_eq!(summary.scores().get("fast"), Some(4.0));
        assert_eq!(summary.scores().get("slow"), Some(1.0));
        assert!((summary.overall_score() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn run_by_name() {
        let s = two_benchmark_suite();
        let report = s.run("fast", &RunConfig::smoke_test()).unwrap();
        assert_eq!(report.metric_f64("requests_per_second"), Some(400.0));
    }

    #[test]
    fn unknown_name_is_an_error() {
        let s = two_benchmark_suite();
        match s.run("nope", &RunConfig::smoke_test()) {
            Err(Error::UnknownBenchmark(n)) => assert_eq!(n, "nope"),
            other => panic!("expected UnknownBenchmark, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_rejected() {
        let mut s = Suite::new();
        s.register(Box::new(Fixed {
            name: "x",
            rps: 1.0,
        }));
        s.register(Box::new(Fixed {
            name: "x",
            rps: 2.0,
        }));
    }

    #[test]
    fn failing_benchmark_propagates() {
        let mut s = Suite::new();
        s.register(Box::new(Failing));
        assert!(s.run_all(&RunConfig::smoke_test()).is_err());
    }

    #[test]
    fn missing_score_metric_is_an_error() {
        struct NoMetric;
        impl Benchmark for NoMetric {
            fn name(&self) -> &str {
                "no-metric"
            }
            fn category(&self) -> WorkloadCategory {
                WorkloadCategory::Microbenchmark
            }
            fn description(&self) -> &str {
                "emits nothing"
            }
            fn run(&self, ctx: &mut RunContext) -> Result<BenchmarkReport, Error> {
                Ok(ReportBuilder::new("no-metric").finish(ctx))
            }
        }
        let mut s = Suite::new();
        s.register(Box::new(NoMetric));
        s.set_baseline("no-metric", "requests_per_second", 10.0);
        let err = s.run_all(&RunConfig::smoke_test()).unwrap_err();
        assert!(err.to_string().contains("missing scoring metric"));
    }

    #[test]
    fn reports_written_to_output_dir() {
        let dir = std::env::temp_dir().join(format!("dcperf-suite-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = two_benchmark_suite();
        let config = RunConfig {
            output_dir: Some(dir.clone()),
            ..RunConfig::smoke_test()
        };
        s.run_all(&config).unwrap();
        assert!(dir.join("fast.json").exists());
        assert!(dir.join("slow.json").exists());
        let json = std::fs::read_to_string(dir.join("fast.json")).unwrap();
        let parsed = serde_json::from_str::<BenchmarkReport>(&json).unwrap();
        assert_eq!(parsed.benchmark, "fast");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unbaselined_benchmark_runs_but_not_scored() {
        let mut s = Suite::new();
        s.register(Box::new(Fixed {
            name: "unscored",
            rps: 5.0,
        }));
        let summary = s.run_all(&RunConfig::smoke_test()).unwrap();
        assert_eq!(summary.reports().len(), 1);
        assert!(summary.scores().is_empty());
    }

    #[test]
    fn reports_embed_lifecycle_phase_timings() {
        use dcperf_telemetry::Phase;
        let s = two_benchmark_suite();
        let report = s.run("fast", &RunConfig::smoke_test()).unwrap();
        for phase in [Phase::Setup, Phase::Measure, Phase::Teardown] {
            let summary = report
                .telemetry
                .phase("fast", phase)
                .unwrap_or_else(|| panic!("missing {phase} phase"));
            assert_eq!(summary.calls, 1, "{phase} should run exactly once");
        }
    }

    #[test]
    fn render_table_mentions_overall() {
        let s = two_benchmark_suite();
        let summary = s.run_all(&RunConfig::smoke_test()).unwrap();
        let table = summary.render_table();
        assert!(table.contains("OVERALL"));
        assert!(table.contains("fast"));
    }
}
