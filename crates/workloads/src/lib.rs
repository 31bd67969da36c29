//! The DCPerf-RS benchmark implementations.
//!
//! One module per benchmark of §3.2, each a *runnable* client-server
//! workload built on the workspace substrates and registered with the
//! [`dcperf_core`] framework:
//!
//! * [`taobench`] — TAO-style read-through caching with fast/slow thread
//!   pools and a memtier-style client.
//! * [`feedsim`] — newsfeed ranking: candidate fan-out, feature
//!   extraction, ranking, and response composition under a P95 SLO.
//! * [`django`] — Instagram-style web serving with a share-nothing
//!   worker-per-core model over a wide-row store.
//! * [`mediawiki`] — Facebook-style web serving: wiki-markup template
//!   rendering over a page cache and a relational-ish page store.
//! * [`spark`] — a three-stage data-warehouse query over a from-scratch
//!   columnar engine with spill-to-disk shuffles.
//! * [`video`] — parallel transcode: bilinear resize ladder plus an 8×8
//!   block-transform encoder.
//! * [`taxbench`] — the datacenter-tax microbenchmarks.
//! * [`kernelsim`] — the §5.3 kernel-counter contention demonstration.
//! * `chaos` (feature `fault-injection`) — SLO-under-chaos scenarios:
//!   TaoBench under deterministic fault plans with the resilience layer
//!   (deadlines, retries, circuit breaking) active.
//!
//! Figure 13's CloudSuite pathologies are reproduced by the model in
//! `dcperf_platform::cloudsuite`, not by a runnable workload.
//!
//! [`register_all`] wires every benchmark plus the baseline table into a
//! [`Suite`], after which `suite.run_all(&config)` produces scored JSON
//! reports exactly like the upstream `benchpress` CLI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
#[cfg(feature = "fault-injection")]
pub mod chaos;
pub mod django;
pub mod feedsim;
pub mod kernelsim;
pub mod mediawiki;
pub mod spark;
pub mod store;
pub mod taobench;
pub mod taxbench;
pub mod video;
pub mod wiki;

use dcperf_core::Suite;

/// Registers the full DCPerf-RS benchmark suite plus reference baselines.
///
/// The baselines play the role of the paper's SKU1 calibration machine:
/// scores of 1.0 mean "performs like the reference run recorded in this
/// repository" (an 8-core CI container at smoke-test scale).
pub fn register_all(suite: &mut Suite) {
    suite.register(Box::new(taobench::TaoBench::default()));
    suite.register(Box::new(feedsim::FeedSim::default()));
    suite.register(Box::new(django::DjangoBench));
    suite.register(Box::new(mediawiki::MediaWikiBench::default()));
    suite.register(Box::new(spark::SparkBench));
    suite.register(Box::new(video::VideoTranscodeBench));
    suite.register(Box::new(taxbench::TaxMicroBench));
    for (name, metric, value) in default_baselines() {
        suite.set_baseline(name, metric, value);
    }
}

/// The reference-machine baseline values used for score normalization.
pub fn default_baselines() -> Vec<(&'static str, &'static str, f64)> {
    vec![
        ("taobench", "requests_per_second", 60_000.0),
        ("feedsim", "requests_per_second", 120.0),
        ("django_bench", "requests_per_second", 1_500.0),
        ("mediawiki", "requests_per_second", 1_000.0),
        ("spark_bench", "rows_per_second", 400_000.0),
        ("video_transcode_bench", "megapixels_per_second", 60.0),
        ("tax_micro", "ops_per_second", 3_000.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_all_registers_the_full_suite() {
        let mut suite = Suite::new();
        register_all(&mut suite);
        let names = suite.benchmark_names();
        for expected in [
            "taobench",
            "feedsim",
            "django_bench",
            "mediawiki",
            "spark_bench",
            "video_transcode_bench",
            "tax_micro",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn baselines_cover_every_registered_benchmark() {
        let mut suite = Suite::new();
        register_all(&mut suite);
        let baselined: Vec<&str> = default_baselines().iter().map(|(n, _, _)| *n).collect();
        for name in suite.benchmark_names() {
            assert!(baselined.contains(&name), "no baseline for {name}");
        }
    }
}
