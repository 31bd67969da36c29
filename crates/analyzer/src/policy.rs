//! The invariant policy: which crates are hot paths, which modules must
//! stay deterministic, which atomic orderings each module may use
//! without a justification comment, and where the metrics schema lives.
//!
//! [`Policy::dcperf`] encodes this workspace's invariants; fixture tests
//! build their own policies, so every knob is plain data.

/// One ordering-allowlist entry: any file whose workspace-relative path
/// starts with `path_prefix` may use the listed orderings freely.
#[derive(Debug, Clone)]
pub struct OrderingAllow {
    /// Workspace-relative path prefix (`/`-separated).
    pub path_prefix: String,
    /// Allowed `Ordering::` variants (`Relaxed`, `Acquire`, …).
    pub orderings: Vec<String>,
    /// Why these orderings are sound here — surfaced in diagnostics so
    /// the allowlist never becomes folklore.
    pub rationale: String,
}

/// The full rule configuration for one workspace.
#[derive(Debug, Clone)]
// analyzer: allow(dead-field) — tests/fixtures_test.rs lints the fixture corpus under its own policy
pub struct Policy {
    /// Crate directory names (under `crates/`) whose non-test code must
    /// be free of `unwrap`/`expect`/`panic!` and friends.
    pub hot_path_crates: Vec<String>,
    /// Path prefixes of modules that must not read wall clocks
    /// (`Instant::now`, `SystemTime::…`): seeded/deterministic code.
    pub deterministic_paths: Vec<String>,
    /// Per-module atomic-ordering allowlist.
    pub ordering_allow: Vec<OrderingAllow>,
    /// Cargo features whose `cfg` blocks may only appear in crates that
    /// declare them.
    pub gated_features: Vec<String>,
    /// Workspace-relative path of the metrics schema module.
    pub schema_path: String,
}

impl Policy {
    /// The DCPerf-RS workspace policy.
    pub fn dcperf() -> Self {
        Self {
            hot_path_crates: vec![
                "rpc".into(),
                "kvstore".into(),
                "telemetry".into(),
                "loadgen".into(),
            ],
            deterministic_paths: vec![
                // Fault *decisions* must replay bit-for-bit from the seed.
                "crates/resilience/src/fault.rs".into(),
                // The platform model projects scores from calibration
                // tables; wall-clock reads would make projections flaky.
                "crates/platform/src/model.rs".into(),
                "crates/platform/src/projection.rs".into(),
            ],
            ordering_allow: vec![
                OrderingAllow {
                    path_prefix: "crates/telemetry/src/".into(),
                    orderings: vec!["Relaxed".into()],
                    rationale: "monotonic counters and striped histogram cells; snapshots \
                                synchronize via thread join, no data is published through \
                                these atomics"
                        .into(),
                },
                OrderingAllow {
                    path_prefix: "crates/tax/src/concurrency.rs".into(),
                    orderings: vec!["Relaxed".into()],
                    rationale: "the contended-counter microbenchmark measures cache-line \
                                ping-pong itself; stronger orderings would distort the \
                                datacenter-tax measurement"
                        .into(),
                },
                OrderingAllow {
                    path_prefix: "crates/resilience/src/fault.rs".into(),
                    orderings: vec!["Relaxed".into()],
                    rationale: "injection tallies; decisions derive from the op index, not \
                                from these counters"
                        .into(),
                },
                OrderingAllow {
                    path_prefix: "crates/resilience/src/retry.rs".into(),
                    orderings: vec!["Relaxed".into()],
                    rationale: "token-bucket balance is a single atomic with CAS; no other \
                                memory is guarded by it"
                        .into(),
                },
                OrderingAllow {
                    path_prefix: "crates/workloads/src/".into(),
                    orderings: vec!["Relaxed".into()],
                    rationale: "workload kernels count completed operations; totals are \
                                read after scope join"
                        .into(),
                },
            ],
            gated_features: vec!["fault-injection".into()],
            schema_path: "crates/telemetry/src/metrics.rs".into(),
        }
    }

    /// The allowlist entry covering `rel`, if any.
    pub fn ordering_entry(&self, rel: &str) -> Option<&OrderingAllow> {
        self.ordering_allow
            .iter()
            .find(|e| rel.starts_with(e.path_prefix.as_str()))
    }

    /// True when `rel` must stay free of wall-clock reads.
    pub fn is_deterministic_path(&self, rel: &str) -> bool {
        self.deterministic_paths
            .iter()
            .any(|p| rel.starts_with(p.as_str()))
    }

    /// True when `crate_name` is a hot-path crate.
    pub fn is_hot_path(&self, crate_name: &str) -> bool {
        self.hot_path_crates.iter().any(|c| c == crate_name)
    }
}
