//! Integration tests over the seeded-violation fixture workspace at
//! `tests/fixtures/mini_ws/` — every rule family must fire at its exact
//! span, and the clean fixture crate must stay silent — plus a
//! self-check that the real workspace stays analyzer-clean.
//!
//! `mini_ws/perfbench/src` stands in for `perfbench`: it is read only for
//! the references and writes it makes, which keep
//! `deadpub::used_by_perfbench`, the clean crate's `exercise` and
//! `deadfield::Knobs::tag` alive.

use dcperf_analyzer::diag::Severity;
use dcperf_analyzer::policy::{OrderingAllow, Policy};
use dcperf_analyzer::{analyze, workspace};
use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini_ws")
}

fn fixture_policy() -> Policy {
    Policy {
        hot_path_crates: vec!["hot".into()],
        deterministic_paths: vec!["crates/hot/src/det.rs".into()],
        ordering_allow: vec![OrderingAllow {
            path_prefix: "crates/clean/src/".into(),
            orderings: vec!["Relaxed".into()],
            rationale: "fixture: clean crate may use relaxed counters".into(),
        }],
        gated_features: vec!["fault-injection".into()],
        schema_path: "crates/tele/src/metrics.rs".into(),
    }
}

#[test]
fn every_rule_family_fires_at_its_seeded_span() {
    let report = analyze(&fixture_root(), &fixture_policy()).expect("fixture workspace loads");
    let fired: Vec<(&str, &str, u32)> = report
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.file.as_str(), d.line))
        .collect();

    let expected: &[(&str, &str, u32)] = &[
        ("atomics-order", "crates/hot/src/lib.rs", 17),
        ("metrics-schema", "crates/hot/src/lib.rs", 21),
        ("panic-path", "crates/hot/src/lib.rs", 25),
        ("suppression", "crates/hot/src/lib.rs", 28), // stale allow
        ("suppression", "crates/hot/src/lib.rs", 31), // reasonless allow
        ("wall-clock", "crates/hot/src/det.rs", 6),
        ("feature-gate", "crates/gates/src/lib.rs", 3),
        ("unsafe-comment", "crates/gates/src/lib.rs", 7),
        ("unsafe-forbid", "crates/gates/src/lib.rs", 1),
        ("unsafe-forbid", "crates/plain/src/lib.rs", 1),
        ("metrics-orphan", "crates/tele/src/metrics.rs", 5), // APP_UNUSED
        ("dead-pub", "crates/deadpub/src/lib.rs", 9),        // only a `pub use` names it
        ("dead-pub", "crates/deadpub/src/lib.rs", 12),       // only #[cfg(test)] calls it
        ("dead-pub", "crates/deadpub/src/lib.rs", 16),       // only tests/it.rs calls it
        ("dead-pub", "crates/deadpub/src/lib.rs", 20),       // only its own body calls it
        ("dead-field", "crates/deadfield/src/lib.rs", 6),    // set only in Default and a test
        ("dead-field", "crates/deadfield/src/lib.rs", 11),   // set only from a literal in `new`
        ("dead-field", "crates/deadfield/src/lib.rs", 19),   // variant built only in a test
        ("dead-field", "crates/deadfield/src/lib.rs", 20),   // variant only matched
    ];
    for want in expected {
        assert!(
            fired.contains(want),
            "expected {want:?} to fire; got {fired:#?}"
        );
    }
    assert_eq!(
        fired.len(),
        expected.len(),
        "unexpected extra diagnostics: {:#?}",
        report.diagnostics
    );
}

#[test]
fn clean_fixture_crate_is_silent_and_its_allow_counts_as_used() {
    let report = analyze(&fixture_root(), &fixture_policy()).expect("fixture workspace loads");
    assert!(
        report
            .diagnostics
            .iter()
            .all(|d| !d.file.starts_with("crates/clean/")),
        "clean crate must produce no diagnostics: {:#?}",
        report.diagnostics
    );
    // The clean crate's one allow suppressed its SeqCst finding, the
    // deadpub crate's allow kept its intended API, and the deadfield
    // crate's allow kept a field a test sets.
    assert_eq!(report.suppressed, 3);
}

#[test]
fn test_regions_in_fixtures_are_exempt() {
    let report = analyze(&fixture_root(), &fixture_policy()).expect("fixture workspace loads");
    // hot/src/lib.rs's #[cfg(test)] module repeats the SeqCst and unwrap
    // patterns after line 34; none of them may fire.
    assert!(
        report
            .diagnostics
            .iter()
            .all(|d| !(d.file == "crates/hot/src/lib.rs" && d.line > 34)),
        "{:#?}",
        report.diagnostics
    );
}

#[test]
fn all_fixture_findings_are_warnings_except_none() {
    let report = analyze(&fixture_root(), &fixture_policy()).expect("fixture workspace loads");
    assert_eq!(report.count(Severity::Error), 0);
    assert!(report.failed(true));
    assert!(!report.failed(false));
}

/// The real workspace must stay analyzer-clean — the same gate CI runs
/// via `cargo analyze --deny warnings`.
#[test]
fn real_workspace_is_clean_under_the_shipped_policy() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = workspace::load(&root).expect("real workspace loads");
    let report = dcperf_analyzer::analyze_files(&ws, &Policy::dcperf());
    assert!(
        report.diagnostics.is_empty(),
        "run `cargo analyze` and fix or justify: {:#?}",
        report.diagnostics
    );
}
