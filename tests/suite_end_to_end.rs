//! End-to-end integration: the full DCPerf-RS suite runs through the
//! framework, produces scored JSON reports, and the overall score is the
//! geometric mean of the per-benchmark scores.

use dcperf::core::{BenchmarkReport, RunConfig, Scale, Suite};
use dcperf::workloads::register_all;

fn smoke_config(dir: &std::path::Path) -> RunConfig {
    RunConfig {
        scale: Scale::SmokeTest,
        output_dir: Some(dir.to_path_buf()),
        sample_interval_ms: 50,
        ..RunConfig::new()
    }
}

#[test]
fn full_suite_runs_and_scores() {
    let dir = std::env::temp_dir().join(format!("dcperf-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut suite = Suite::new();
    register_all(&mut suite);
    let summary = suite
        .run_all(&smoke_config(&dir))
        .expect("the full suite must run at smoke scale");

    // Every benchmark produced a report and a score.
    assert_eq!(summary.reports().len(), suite.len());
    assert_eq!(summary.scores().len(), suite.len());
    for (name, score) in summary.scores().iter() {
        assert!(score > 0.0, "{name} scored {score}");
    }
    // The overall score is the geomean of the individual scores.
    let product: f64 = summary.scores().iter().map(|(_, s)| s.ln()).sum();
    let expected = (product / summary.scores().len() as f64).exp();
    assert!((summary.overall_score() - expected).abs() < 1e-9);

    // JSON reports landed on disk and parse back.
    for report in summary.reports() {
        let path = dir.join(format!("{}.json", report.benchmark));
        assert!(path.exists(), "missing {}", path.display());
        let json = std::fs::read_to_string(&path).unwrap();
        let parsed = serde_json::from_str::<BenchmarkReport>(&json).unwrap();
        assert_eq!(parsed.benchmark, report.benchmark);
        assert!(!parsed.metrics.is_empty());
        // System info is stamped (§3.1's "key information about the
        // system being tested").
        assert!(parsed.system.logical_cores >= 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn suite_reports_include_hook_series() {
    let mut suite = Suite::new();
    register_all(&mut suite);
    let config = RunConfig {
        scale: Scale::SmokeTest,
        sample_interval_ms: 25,
        ..RunConfig::new()
    };
    // One benchmark is enough to validate the hook pipeline.
    let report = suite.run("mediawiki", &config).expect("mediawiki runs");
    assert!(
        !report.hooks.is_empty(),
        "default hooks must be registered and reported"
    );
    let hook_names: Vec<&str> = report.hooks.iter().map(|h| h.hook.as_str()).collect();
    for expected in ["cpu_util", "mem_stat"] {
        assert!(hook_names.contains(&expected), "missing hook {expected}");
    }
    // On Linux the CPU and memory hooks must have real samples.
    #[cfg(target_os = "linux")]
    {
        let cpu = report.hooks.iter().find(|h| h.hook == "cpu_util").unwrap();
        let total = cpu
            .series
            .get("cpu_util_total")
            .expect("cpu series sampled");
        assert!(!total.values.is_empty());
        assert!(total.mean >= 0.0 && total.mean <= 100.0);
    }
}

#[test]
fn individual_benchmark_runs_are_reproducible_in_shape() {
    // Two runs of the deterministic SparkBench must agree on all
    // data-derived metrics (times differ, data cannot).
    let mut suite = Suite::new();
    register_all(&mut suite);
    let config = RunConfig {
        scale: Scale::SmokeTest,
        ..RunConfig::new()
    };
    let a = suite.run("spark_bench", &config).unwrap();
    let b = suite.run("spark_bench", &config).unwrap();
    for metric in [
        "scanned_rows",
        "surviving_rows",
        "joined_rows",
        "result_groups",
    ] {
        assert_eq!(
            a.metric_f64(metric),
            b.metric_f64(metric),
            "{metric} differs"
        );
    }
}
