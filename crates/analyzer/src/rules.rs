//! The rule families.
//!
//! Every rule walks the token stream of one file (or, for the workspace
//! rules, facts collected across files) and emits [`Diagnostic`]s.
//! Suppression filtering happens centrally in the engine, so rules here
//! report every candidate violation.
//!
//! | id               | family              | scope     |
//! |------------------|---------------------|-----------|
//! | `atomics-order`  | atomics audit       | per file  |
//! | `metrics-schema` | metrics conformance | per file  |
//! | `metrics-orphan` | metrics conformance | workspace |
//! | `panic-path`     | panic paths         | per file  |
//! | `unsafe-comment` | unsafe hygiene      | per file  |
//! | `unsafe-forbid`  | unsafe hygiene      | workspace |
//! | `feature-gate`   | feature hygiene     | per file  |
//! | `wall-clock`     | determinism         | per file  |
//! | `dead-pub`       | dead API            | workspace |
//! | `suppression`    | meta                | per file  |

use crate::context::FileCtx;
use crate::diag::{Diagnostic, Severity};
use crate::lexer::{Tok, TokKind};
use crate::policy::Policy;
use crate::schema::MetricsSchema;
use std::collections::HashMap;

/// Every rule id the analyzer can emit (used to validate allow comments).
pub const RULE_IDS: &[&str] = &[
    "atomics-order",
    "metrics-schema",
    "metrics-orphan",
    "panic-path",
    "unsafe-comment",
    "unsafe-forbid",
    "feature-gate",
    "wall-clock",
    "dead-pub",
    "suppression",
];

/// One-line description per rule, for `--list-rules` and the docs.
pub const RULE_DOCS: &[(&str, &str)] = &[
    (
        "atomics-order",
        "every atomic Ordering:: use must match the module's allowlist or carry an `// ordering: reason` comment",
    ),
    (
        "metrics-schema",
        "metric-name string literals at telemetry call sites must be declared in telemetry::metrics",
    ),
    (
        "metrics-orphan",
        "every constant declared in telemetry::metrics must be referenced somewhere in the workspace",
    ),
    (
        "panic-path",
        "no unwrap()/expect()/panic!/unreachable!/todo!/unimplemented! in non-test code of hot-path crates",
    ),
    (
        "unsafe-comment",
        "every `unsafe` must be immediately preceded by a `// SAFETY:` comment",
    ),
    (
        "unsafe-forbid",
        "crates without unsafe must carry #![forbid(unsafe_code)]; crates with unsafe must lint unsafe_op_in_unsafe_fn",
    ),
    (
        "feature-gate",
        "cfg(feature = \"…\") for gated features only in crates that declare the feature",
    ),
    (
        "wall-clock",
        "no Instant/SystemTime reads in deterministic seeded modules",
    ),
    (
        "dead-pub",
        "every pub item in non-test code must be named by non-test code outside its own definition",
    ),
    (
        "suppression",
        "allow comments must name a known rule, give a reason, and actually suppress something",
    ),
];

const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn ident(tok: &Tok) -> Option<&str> {
    match &tok.kind {
        TokKind::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

fn is_punct(tok: Option<&Tok>, c: char) -> bool {
    matches!(tok.map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
}

/// Rule `atomics-order`.
pub fn atomics_order(ctx: &FileCtx, policy: &Policy, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lx.tokens;
    for i in 0..toks.len() {
        if ident(&toks[i]) != Some("Ordering") {
            continue;
        }
        if !(is_punct(toks.get(i + 1), ':') && is_punct(toks.get(i + 2), ':')) {
            continue;
        }
        let Some(variant) = toks.get(i + 3).and_then(ident) else {
            continue;
        };
        if !ATOMIC_ORDERINGS.contains(&variant) {
            continue; // `cmp::Ordering::{Less,Equal,Greater}` and friends
        }
        let tok = &toks[i];
        if ctx.is_test_line(tok.line) {
            continue;
        }
        let entry = policy.ordering_entry(&ctx.rel);
        if entry.is_some_and(|e| e.orderings.iter().any(|o| o == variant)) {
            continue;
        }
        if ctx.ordering_justified.contains(&tok.line) {
            continue;
        }
        let allowed = entry
            .map(|e| format!(" (module allowlist permits: {})", e.orderings.join(", ")))
            .unwrap_or_default();
        out.push(Diagnostic::new(
            "atomics-order",
            Severity::Warning,
            &ctx.rel,
            tok.line,
            tok.col,
            format!(
                "Ordering::{variant} is not in this module's allowlist{allowed}; \
                 justify it with a trailing `// ordering: reason` comment or extend \
                 the allowlist in the analyzer policy"
            ),
        ));
    }
}

/// Call-site method names whose string-literal arguments name metrics.
const METRIC_CALLS: &[&str] = &["counter", "gauge", "histogram"];

/// Rule `metrics-schema`.
pub fn metrics_schema(
    ctx: &FileCtx,
    policy: &Policy,
    schema: &MetricsSchema,
    out: &mut Vec<Diagnostic>,
) {
    if ctx.rel == policy.schema_path || schema.is_empty() {
        return;
    }
    let toks = &ctx.lx.tokens;
    for i in 0..toks.len() {
        let Some(name) = ident(&toks[i]) else {
            continue;
        };
        let is_metric_call = METRIC_CALLS.contains(&name);
        let is_prefix_call = name == "with_telemetry";
        if !(is_metric_call || is_prefix_call) || !is_punct(toks.get(i + 1), '(') {
            continue;
        }
        // Scan the balanced argument list for string literals.
        let mut depth = 1usize;
        let mut j = i + 2;
        while depth > 0 {
            let Some(t) = toks.get(j) else { break };
            match &t.kind {
                TokKind::Punct('(') => depth += 1,
                TokKind::Punct(')') => depth -= 1,
                TokKind::Str(v) => {
                    check_metric_literal(ctx, schema, v, t, is_prefix_call, out);
                }
                _ => {}
            }
            j += 1;
        }
    }
}

fn check_metric_literal(
    ctx: &FileCtx,
    schema: &MetricsSchema,
    value: &str,
    tok: &Tok,
    is_prefix_position: bool,
    out: &mut Vec<Diagnostic>,
) {
    // Undotted literals ("hits", unit-test scratch names) are out of the
    // metric namespace; only dotted names are schema-governed.
    if !value.contains('.') {
        return;
    }
    // A format template: validate the static prefix before the first
    // placeholder. `"{prefix}.{}"` has nothing static to check.
    if let Some(brace) = value.find('{') {
        let prefix = value[..brace].trim_end_matches('.');
        if !prefix.contains('.') && !schema.is_prefix(prefix) && !prefix.is_empty() {
            // Single-segment static prefix such as "rpc" — fine.
            return;
        }
        if prefix.is_empty()
            || schema.is_prefix(prefix)
            || schema.matches_dynamic(prefix)
            || schema.contains(prefix)
        {
            return;
        }
        out.push(Diagnostic::new(
            "metrics-schema",
            Severity::Warning,
            &ctx.rel,
            tok.line,
            tok.col,
            format!(
                "dynamic metric name `{value}` does not start from a declared prefix; \
                 declare a `DYN_*` or `PREFIX_*` constant in telemetry::metrics"
            ),
        ));
        return;
    }
    let ok = if is_prefix_position {
        schema.is_prefix(value) || schema.contains(value)
    } else {
        schema.contains(value) || schema.matches_dynamic(value)
    };
    if !ok {
        let kind = if is_prefix_position { "prefix" } else { "name" };
        out.push(Diagnostic::new(
            "metrics-schema",
            Severity::Warning,
            &ctx.rel,
            tok.line,
            tok.col,
            format!(
                "metric {kind} `{value}` is not declared in telemetry::metrics; \
                 declare it there (and use the constant) or fix the typo"
            ),
        ));
    }
}

/// Rule `metrics-orphan` (workspace scope). `usage` holds, for every
/// file except the schema module, the identifiers and string values it
/// mentions.
pub fn metrics_orphan(
    schema: &MetricsSchema,
    schema_rel: &str,
    usage: &[(String, std::collections::BTreeSet<String>)],
    out: &mut Vec<Diagnostic>,
) {
    for (ident, c) in schema.all_consts() {
        let referenced = usage.iter().any(|(rel, mentions)| {
            rel != schema_rel && (mentions.contains(ident) || mentions.contains(&c.value))
        });
        if !referenced {
            out.push(Diagnostic::new(
                "metrics-orphan",
                Severity::Warning,
                schema_rel,
                c.line,
                1,
                format!(
                    "schema constant `{ident}` (\"{}\") is never referenced outside the \
                     schema; delete it or migrate its call sites",
                    c.value
                ),
            ));
        }
    }
}

const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Rule `panic-path`.
pub fn panic_path(ctx: &FileCtx, policy: &Policy, out: &mut Vec<Diagnostic>) {
    if !policy.is_hot_path(&ctx.crate_name) {
        return;
    }
    let toks = &ctx.lx.tokens;
    for i in 0..toks.len() {
        let Some(name) = ident(&toks[i]) else {
            continue;
        };
        let tok = &toks[i];
        if ctx.is_test_line(tok.line) {
            continue;
        }
        let hit = if PANIC_METHODS.contains(&name) {
            // `.unwrap(` / `.expect(` — a method call, not a definition.
            is_punct(toks.get(i + 1), '(') && i > 0 && is_punct(toks.get(i - 1), '.')
        } else if PANIC_MACROS.contains(&name) {
            is_punct(toks.get(i + 1), '!')
        } else {
            false
        };
        if hit {
            out.push(Diagnostic::new(
                "panic-path",
                Severity::Warning,
                &ctx.rel,
                tok.line,
                tok.col,
                format!(
                    "`{name}` on a hot-path crate; return an error instead, or add \
                     `// analyzer: allow(panic-path) — reason` if the panic is \
                     provably unreachable or startup-only"
                ),
            ));
        }
    }
}

/// Rule `unsafe-comment`.
pub fn unsafe_comment(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    for t in &ctx.lx.tokens {
        if ident(t) != Some("unsafe") {
            continue;
        }
        if ctx.safety_covered.contains(&t.line) {
            continue;
        }
        out.push(Diagnostic::new(
            "unsafe-comment",
            Severity::Warning,
            &ctx.rel,
            t.line,
            t.col,
            "`unsafe` without an immediately preceding `// SAFETY:` comment".to_string(),
        ));
    }
}

/// Facts about one crate, for the workspace-scope unsafe rule.
pub struct CrateUnsafeFacts {
    /// Crate directory name.
    pub crate_name: String,
    /// Does any file in the crate use the `unsafe` keyword?
    pub has_unsafe: bool,
    /// The crate's root files (`lib.rs`, `main.rs`, `bin/*.rs`) with
    /// whether each carries `forbid(unsafe_code)` and
    /// `unsafe_op_in_unsafe_fn`.
    pub roots: Vec<(String, bool, bool)>,
}

/// Rule `unsafe-forbid` (workspace scope).
pub fn unsafe_forbid(facts: &[CrateUnsafeFacts], out: &mut Vec<Diagnostic>) {
    for c in facts {
        for (rel, has_forbid, has_unsafe_op_lint) in &c.roots {
            if !c.has_unsafe && !has_forbid {
                out.push(Diagnostic::new(
                    "unsafe-forbid",
                    Severity::Warning,
                    rel,
                    1,
                    1,
                    format!(
                        "crate `{}` uses no unsafe code but this target root lacks \
                         `#![forbid(unsafe_code)]`",
                        c.crate_name
                    ),
                ));
            }
            if c.has_unsafe && !has_unsafe_op_lint {
                out.push(Diagnostic::new(
                    "unsafe-forbid",
                    Severity::Warning,
                    rel,
                    1,
                    1,
                    format!(
                        "crate `{}` keeps unsafe code but this target root does not lint \
                         `unsafe_op_in_unsafe_fn` (add `#![deny(unsafe_op_in_unsafe_fn)]`)",
                        c.crate_name
                    ),
                ));
            }
        }
    }
}

/// Rule `feature-gate`. `declared` lists the features the crate's
/// Cargo.toml declares.
pub fn feature_gate(
    ctx: &FileCtx,
    policy: &Policy,
    declared: &[String],
    out: &mut Vec<Diagnostic>,
) {
    let toks = &ctx.lx.tokens;
    for i in 0..toks.len() {
        if ident(&toks[i]) != Some("feature") || !is_punct(toks.get(i + 1), '=') {
            continue;
        }
        let Some(TokKind::Str(feat)) = toks.get(i + 2).map(|t| &t.kind) else {
            continue;
        };
        if !policy.gated_features.iter().any(|f| f == feat) {
            continue;
        }
        if declared.iter().any(|f| f == feat) {
            continue;
        }
        let tok = &toks[i];
        out.push(Diagnostic::new(
            "feature-gate",
            Severity::Warning,
            &ctx.rel,
            tok.line,
            tok.col,
            format!(
                "cfg for gated feature \"{feat}\" in crate `{}`, whose Cargo.toml does \
                 not declare that feature; declare it or move the gated code",
                ctx.crate_name
            ),
        ));
    }
}

/// Rule `wall-clock`.
pub fn wall_clock(ctx: &FileCtx, policy: &Policy, out: &mut Vec<Diagnostic>) {
    if !policy.is_deterministic_path(&ctx.rel) {
        return;
    }
    let toks = &ctx.lx.tokens;
    for i in 0..toks.len() {
        let Some(name) = ident(&toks[i]) else {
            continue;
        };
        if name != "Instant" && name != "SystemTime" {
            continue;
        }
        // Only `Instant::…` / `SystemTime::…` — a *read* of the wall
        // clock. Type positions and imports are deterministic.
        if !(is_punct(toks.get(i + 1), ':') && is_punct(toks.get(i + 2), ':')) {
            continue;
        }
        let tok = &toks[i];
        if ctx.is_test_line(tok.line) {
            continue;
        }
        out.push(Diagnostic::new(
            "wall-clock",
            Severity::Warning,
            &ctx.rel,
            tok.line,
            tok.col,
            format!(
                "`{name}::…` wall-clock read inside a deterministic seeded module; \
                 derive time from the seed/op index, or justify with \
                 `// analyzer: allow(wall-clock) — reason`"
            ),
        ));
    }
}

/// The item keywords whose `pub` definitions `dead-pub` checks.
const PUB_ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type"];

/// Qualifiers that may sit between `pub` and the item keyword.
const ITEM_QUALIFIERS: &[&str] = &["async", "unsafe", "extern", "default"];

/// Rule `dead-pub` (workspace scope). Reports every `pub` item in the
/// non-test code of `checked` whose name no identifier in the non-test
/// code of `checked` or `references` mentions outside the item itself.
/// `use` declarations and the self type of an `impl` header are not
/// references; comments and strings never are. Files in `references`
/// (`perfbench/src`) only supply references, and the file at
/// `skip_rel` (the metrics schema, which `metrics-orphan` owns) is
/// never checked.
pub fn dead_pub(
    checked: &[FileCtx],
    references: &[FileCtx],
    skip_rel: &str,
    out: &mut Vec<Diagnostic>,
) {
    let mut mentions: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for (fi, ctx) in checked.iter().chain(references).enumerate() {
        let toks = &ctx.lx.tokens;
        let skip = non_reference_tokens(toks);
        for (i, t) in toks.iter().enumerate() {
            if let TokKind::Ident(name) = &t.kind {
                if !skip[i] && !ctx.is_test_line(t.line) {
                    mentions.entry(name.as_str()).or_default().push((fi, i));
                }
            }
        }
    }
    for (fi, ctx) in checked.iter().enumerate() {
        if ctx.rel == skip_rel {
            continue;
        }
        let toks = &ctx.lx.tokens;
        for start in 0..toks.len() {
            let Some((kind, name, end)) = pub_item_at(toks, start) else {
                continue;
            };
            let tok = &toks[start];
            if ctx.is_test_line(tok.line) {
                continue;
            }
            let named_elsewhere = mentions
                .get(name)
                .is_some_and(|m| m.iter().any(|&(f, i)| f != fi || i < start || i > end));
            if !named_elsewhere {
                out.push(Diagnostic::new(
                    "dead-pub",
                    Severity::Warning,
                    &ctx.rel,
                    tok.line,
                    tok.col,
                    format!(
                        "`pub {kind} {name}` is named nowhere in non-test code outside its own \
                         definition; delete it, move it under #[cfg(test)], or justify it with \
                         `// analyzer: allow(dead-pub) — reason`"
                    ),
                ));
            }
        }
    }
}

/// If `toks[i]` is the `pub` of a checked item, returns the item
/// keyword, its name, and the index of its last token.
fn pub_item_at(toks: &[Tok], i: usize) -> Option<(&str, &str, usize)> {
    if ident(&toks[i]) != Some("pub") {
        return None;
    }
    let mut j = i + 1;
    loop {
        match &toks.get(j)?.kind {
            TokKind::Ident(q) if ITEM_QUALIFIERS.contains(&q.as_str()) => j += 1,
            TokKind::Str(_) => j += 1, // the ABI of `extern "C"`
            // `const fn` is a function, `const X` a constant.
            TokKind::Ident(q) if q == "const" => match toks.get(j + 1).and_then(ident) {
                Some(next) if next == "fn" || ITEM_QUALIFIERS.contains(&next) => j += 1,
                _ => break,
            },
            _ => break,
        }
    }
    let kind = ident(toks.get(j)?)?;
    if !PUB_ITEM_KINDS.contains(&kind) {
        return None;
    }
    j += 1;
    if kind == "static" && toks.get(j).and_then(ident) == Some("mut") {
        j += 1;
    }
    let name = ident(toks.get(j)?)?;
    let block_bodied = matches!(kind, "fn" | "struct" | "enum" | "trait");
    let mut depth = 0usize;
    let mut end = toks.len() - 1;
    for (k, t) in toks.iter().enumerate().skip(j) {
        match t.kind {
            TokKind::Punct('(' | '[' | '{') => depth += 1,
            TokKind::Punct(')' | ']') => depth = depth.saturating_sub(1),
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 && block_bodied {
                    end = k;
                    break;
                }
            }
            TokKind::Punct(';') if depth == 0 => {
                end = k;
                break;
            }
            _ => {}
        }
    }
    Some((kind, name, end))
}

/// Marks the identifier tokens that do not count as references: every
/// token of a `use` declaration, and the self type named by each
/// `impl` header (an `impl` block is part of its type's definition).
fn non_reference_tokens(toks: &[Tok]) -> Vec<bool> {
    let mut skip = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        match ident(&toks[i]) {
            Some("use") => {
                while i < toks.len() && !is_punct(toks.get(i), ';') {
                    skip[i] = true;
                    i += 1;
                }
            }
            Some("impl") if is_item_start(toks, i) => {
                if let Some(self_ty) = impl_self_type(toks, i) {
                    skip[self_ty] = true;
                }
            }
            _ => {}
        }
        i += 1;
    }
    skip
}

/// Is the token at `i` at item position (file start, or after `{`,
/// `}`, `;`, an attribute's `]`, or `unsafe`)? Distinguishes `impl`
/// blocks from `impl Trait` in argument and return types.
fn is_item_start(toks: &[Tok], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).map(|p| &toks[p]) else {
        return true;
    };
    matches!(prev.kind, TokKind::Punct('{' | '}' | ';' | ']')) || ident(prev) == Some("unsafe")
}

/// The index of the self type's name in the `impl` header starting at
/// `i`: the last path segment after `for`, or after the generics when
/// there is no `for`.
fn impl_self_type(toks: &[Tok], i: usize) -> Option<usize> {
    let mut angle = 0usize;
    let mut self_ty = None;
    for (k, t) in toks.iter().enumerate().skip(i + 1) {
        match &t.kind {
            TokKind::Punct('<') => angle += 1,
            // `->` inside a bound such as `F: Fn() -> T` is no close.
            TokKind::Punct('>') if !is_punct(toks.get(k - 1), '-') => {
                angle = angle.saturating_sub(1);
            }
            TokKind::Punct('{' | ';') if angle == 0 => break,
            TokKind::Ident(s) if angle == 0 && s == "where" => break,
            TokKind::Ident(s) if angle == 0 && s == "for" => self_ty = None,
            // The first path after `impl<…>` (or after `for`) is the one
            // whose last segment names the type.
            TokKind::Ident(s)
                if angle == 0
                    && s != "dyn"
                    && s != "mut"
                    && (self_ty.is_none() || is_punct(toks.get(k - 1), ':')) =>
            {
                self_ty = Some(k);
            }
            _ => {}
        }
    }
    self_ty
}
