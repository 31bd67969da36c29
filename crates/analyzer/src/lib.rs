//! `dcperf-analyzer` — the workspace invariant linter behind
//! `cargo analyze`.
//!
//! DCPerf's value is *trustworthy* numbers: the suite's cross-SKU
//! fidelity claims only hold while the substrate primitives — lock-free
//! counters, striped histograms, the breaker state machine, the RPC wire
//! format — stay correct under concurrency and don't silently drift.
//! This crate is a from-scratch, dependency-free static-analysis pass (a
//! lightweight Rust lexer plus a rule engine; no rustc plugin, works
//! offline) that walks the whole workspace and machine-enforces the
//! project invariants:
//!
//! * **atomics audit** — every `Ordering::…` use must match a per-module
//!   allowlist or carry an `// ordering: reason` justification;
//! * **metrics-schema conformance** — metric-name string literals at
//!   telemetry call sites must be declared in `telemetry::metrics`, and
//!   every declared constant must be referenced somewhere;
//! * **panic-path lint** — no `unwrap`/`expect`/`panic!` in non-test
//!   code of hot-path crates;
//! * **unsafe hygiene** — `unsafe` needs a `// SAFETY:` comment and
//!   unsafe-free crates need `#![forbid(unsafe_code)]`;
//! * **feature-gate & determinism hygiene** — gated `cfg` blocks only in
//!   crates declaring the feature, and no wall-clock reads in seeded
//!   deterministic modules;
//! * **dead API** — every `pub` item in non-test code must be named by
//!   non-test code somewhere outside its own definition.
//!
//! Findings are structured diagnostics with `file:line:col` spans,
//! severities, and stable rule ids, suppressible in source with
//! `// analyzer: allow(rule-id) — reason`. Because the analyzer lexes
//! text rather than compiling, `cfg`-gated code in *both* feature states
//! is covered in a single pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod diag;
pub mod lexer;
pub mod policy;
pub mod rules;
pub mod schema;
pub mod workspace;

use context::FileCtx;
use diag::{Diagnostic, Severity};
use lexer::TokKind;
use policy::Policy;
use rules::CrateUnsafeFacts;
use schema::MetricsSchema;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The outcome of one analysis run.
#[derive(Debug)]
pub struct AnalysisReport {
    /// Surviving diagnostics, sorted by file, line, column, rule.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files lexed and checked.
    pub files_checked: usize,
    /// Number of candidate findings silenced by in-source allows.
    pub suppressed: usize,
}

impl AnalysisReport {
    /// Count at the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Does the run fail? Errors always do; warnings only when denied.
    pub fn failed(&self, deny_warnings: bool) -> bool {
        self.count(Severity::Error) > 0 || (deny_warnings && self.count(Severity::Warning) > 0)
    }
}

/// Runs the full analysis over the workspace at `root` under `policy`.
///
/// # Errors
///
/// Returns an IO error only when the workspace itself cannot be read;
/// per-file problems surface as diagnostics instead.
pub fn analyze(root: &Path, policy: &Policy) -> std::io::Result<AnalysisReport> {
    let ws = workspace::load(root)?;
    Ok(analyze_files(&ws, policy))
}

/// Runs the analysis over an already-loaded workspace (the fixture tests
/// point this at mini-workspaces).
pub fn analyze_files(ws: &workspace::Workspace, policy: &Policy) -> AnalysisReport {
    let mut diags: Vec<Diagnostic> = Vec::new();

    // Parse the metrics schema first; its absence is itself a finding.
    let schema_src = ws
        .files
        .iter()
        .find(|f| f.rel == policy.schema_path)
        .map(|f| f.src.as_str());
    let schema = match schema_src {
        Some(src) => MetricsSchema::parse(src),
        None => MetricsSchema::default(),
    };
    if schema.is_empty() {
        diags.push(Diagnostic::new(
            "metrics-schema",
            Severity::Error,
            &policy.schema_path,
            1,
            1,
            "metrics schema module is missing or declares no constants; every metric \
             name must be declared centrally"
                .to_string(),
        ));
    }

    // Per-file pass.
    let mut ctxs: Vec<FileCtx> = Vec::with_capacity(ws.files.len());
    let mut candidates: Vec<Diagnostic> = Vec::new();
    for f in &ws.files {
        let ctx = FileCtx::new(&f.rel, &f.crate_name, &f.src, &mut diags);
        rules::atomics_order(&ctx, policy, &mut candidates);
        rules::metrics_schema(&ctx, policy, &schema, &mut candidates);
        rules::panic_path(&ctx, policy, &mut candidates);
        rules::unsafe_comment(&ctx, &mut candidates);
        let declared = ws.features.get(&f.crate_name).cloned().unwrap_or_default();
        rules::feature_gate(&ctx, policy, &declared, &mut candidates);
        rules::wall_clock(&ctx, policy, &mut candidates);
        ctxs.push(ctx);
    }

    // Workspace pass: orphaned schema constants.
    if !schema.is_empty() {
        let usage: Vec<(String, BTreeSet<String>)> = ctxs
            .iter()
            .map(|ctx| {
                let mut mentions = BTreeSet::new();
                for t in &ctx.lx.tokens {
                    match &t.kind {
                        TokKind::Ident(s) => {
                            mentions.insert(s.clone());
                        }
                        TokKind::Str(s) => {
                            mentions.insert(s.clone());
                        }
                        _ => {}
                    }
                }
                (ctx.rel.clone(), mentions)
            })
            .collect();
        rules::metrics_orphan(&schema, &policy.schema_path, &usage, &mut candidates);
    }

    // Workspace pass: pub items nothing names. Allows and malformed
    // comments in reference-only files are not this workspace's to report.
    let reference_ctxs: Vec<FileCtx> = ws
        .references
        .iter()
        .map(|f| FileCtx::new(&f.rel, &f.crate_name, &f.src, &mut Vec::new()))
        .collect();
    rules::dead_pub(&ctxs, &reference_ctxs, &policy.schema_path, &mut candidates);

    // Workspace pass: per-crate unsafe hygiene.
    let mut per_crate: BTreeMap<&str, CrateUnsafeFacts> = BTreeMap::new();
    for (ctx, f) in ctxs.iter().zip(&ws.files) {
        let entry = per_crate
            .entry(f.crate_name.as_str())
            .or_insert_with(|| CrateUnsafeFacts {
                crate_name: f.crate_name.clone(),
                has_unsafe: false,
                roots: Vec::new(),
            });
        let uses_unsafe = ctx
            .lx
            .tokens
            .iter()
            .any(|t| matches!(&t.kind, TokKind::Ident(s) if s == "unsafe"));
        entry.has_unsafe |= uses_unsafe;
        if f.is_crate_root {
            entry.roots.push((
                f.rel.clone(),
                has_inner_lint(ctx, "forbid", "unsafe_code"),
                has_unsafe_op_lint(ctx),
            ));
        }
    }
    let facts: Vec<CrateUnsafeFacts> = per_crate.into_values().collect();
    rules::unsafe_forbid(&facts, &mut candidates);

    // Central suppression filter, then stale-allow reporting.
    let by_rel: BTreeMap<&str, &FileCtx> = ctxs.iter().map(|c| (c.rel.as_str(), c)).collect();
    let mut suppressed = 0usize;
    for d in candidates {
        let allowed = by_rel
            .get(d.file.as_str())
            .is_some_and(|ctx| ctx.is_allowed(d.rule, d.line));
        if allowed {
            suppressed += 1;
        } else {
            diags.push(d);
        }
    }
    for ctx in &ctxs {
        context::report_unused_allows(ctx, &mut diags);
    }

    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    AnalysisReport {
        diagnostics: diags,
        files_checked: ws.files.len(),
        suppressed,
    }
}

/// Does the file carry `#![<lint_level>(… <lint_name> …)]`-style inner
/// attribute tokens? Token-level scan: the lint level ident followed
/// within a few tokens by the lint name ident.
fn has_inner_lint(ctx: &FileCtx, level: &str, lint: &str) -> bool {
    let toks = &ctx.lx.tokens;
    for i in 0..toks.len() {
        if matches!(&toks[i].kind, TokKind::Ident(s) if s == level) {
            for t in toks.iter().skip(i + 1).take(4) {
                if matches!(&t.kind, TokKind::Ident(s) if s == lint) {
                    return true;
                }
            }
        }
    }
    false
}

fn has_unsafe_op_lint(ctx: &FileCtx) -> bool {
    ["deny", "forbid", "warn"]
        .iter()
        .any(|level| has_inner_lint(ctx, level, "unsafe_op_in_unsafe_fn"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use workspace::{Workspace, WorkspaceFile};

    fn mini_policy() -> Policy {
        Policy {
            hot_path_crates: vec!["hot".into()],
            deterministic_paths: vec!["crates/hot/src/det.rs".into()],
            ordering_allow: vec![],
            gated_features: vec!["fault-injection".into()],
            schema_path: "crates/tele/src/metrics.rs".into(),
        }
    }

    fn file(rel: &str, crate_name: &str, src: &str) -> WorkspaceFile {
        WorkspaceFile {
            rel: rel.into(),
            crate_name: crate_name.into(),
            src: src.into(),
            is_crate_root: rel.ends_with("lib.rs"),
        }
    }

    const SCHEMA: &str = r#"
        pub const GOOD_NAME: &str = "app.good";
        pub mod suffix {}
    "#;

    #[test]
    fn missing_schema_is_an_error() {
        let ws = Workspace::default();
        let report = analyze_files(&ws, &mini_policy());
        assert_eq!(report.count(Severity::Error), 1);
        assert!(report.failed(false));
    }

    #[test]
    fn end_to_end_over_in_memory_files() {
        let ws = Workspace {
            files: vec![
                file("crates/tele/src/metrics.rs", "tele", SCHEMA),
                file("crates/tele/src/lib.rs", "tele", "#![forbid(unsafe_code)]\n"),
                file(
                    "crates/hot/src/lib.rs",
                    "hot",
                    "#![forbid(unsafe_code)]\nfn f(x: Option<u8>) -> u8 {\n    t.counter(\"app.good\");\n    x.unwrap()\n}\n",
                ),
            ],
            features: Default::default(),
            references: Vec::new(),
        };
        let report = analyze_files(&ws, &mini_policy());
        let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["panic-path"], "{:?}", report.diagnostics);
        assert_eq!(report.diagnostics[0].line, 4);
        assert_eq!(report.files_checked, 3);
        assert!(report.failed(true));
        assert!(!report.failed(false));
    }

    #[test]
    fn dead_pub_counts_no_impl_of_a_type_as_its_use() {
        let ws = Workspace {
            files: vec![
                file("crates/tele/src/metrics.rs", "tele", SCHEMA),
                file(
                    "crates/app/src/main.rs",
                    "app",
                    "#![forbid(unsafe_code)]\npub struct Orphan;\nimpl Default for Orphan {\n    \
                     fn default() -> Self {\n        Self\n    }\n}\npub const fn shared() -> u8 {\n    \
                     1\n}\nfn main() {\n    let _ = shared();\n}\n",
                ),
            ],
            features: Default::default(),
            references: Vec::new(),
        };
        let report = analyze_files(&ws, &mini_policy());
        let dead: Vec<u32> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == "dead-pub")
            .map(|d| d.line)
            .collect();
        assert_eq!(dead, vec![2], "{:?}", report.diagnostics);
    }
}
