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
//! | `dead-field`     | dead API            | workspace |
//! | `suppression`    | meta                | per file  |

use crate::context::FileCtx;
use crate::diag::{Diagnostic, Severity};
use crate::lexer::{Tok, TokKind};
use crate::policy::Policy;
use crate::schema::MetricsSchema;
use std::collections::{BTreeSet, HashMap};

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
    "dead-field",
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
        "dead-field",
        "every pub field must be set by non-test code to a second value besides its default, and every enum variant constructed",
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

/// The non-test identifier mentions of the checked files, then the
/// reference-only ones (`perfbench/src`), for `dead-pub` and
/// `dead-field`. `use` declarations and `impl` self types are not
/// mentions; comments and strings never are.
pub struct MentionIndex<'a> {
    files: Vec<&'a FileCtx>,
    mentions: HashMap<&'a str, Vec<(usize, usize)>>,
}

impl<'a> MentionIndex<'a> {
    /// Indexes `checked` followed by `references`.
    pub fn new(checked: &'a [FileCtx], references: &'a [FileCtx]) -> Self {
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
        Self {
            files: checked.iter().chain(references).collect(),
            mentions,
        }
    }

    /// The non-test mentions of `name`, as `(file, token)` pairs.
    fn of(&self, name: &str) -> &[(usize, usize)] {
        self.mentions.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Rule `dead-pub` (workspace scope). Reports every `pub` item in the
/// non-test code of `checked` whose name no mention in `index` makes
/// outside the item itself. The file at `skip_rel` (the metrics schema,
/// which `metrics-orphan` owns) is never checked.
pub fn dead_pub(
    checked: &[FileCtx],
    index: &MentionIndex,
    skip_rel: &str,
    out: &mut Vec<Diagnostic>,
) {
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
            let named_elsewhere = index
                .of(name)
                .iter()
                .any(|&(f, i)| f != fi || i < start || i > end);
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

/// Rule `dead-field` (workspace scope). Reports each `pub` struct in
/// `checked` whose `pub` fields non-test code never sets to a value
/// besides their defaults (what its `Default` impl and constructors
/// write from literals and constants), and each `pub` enum variant that
/// non-test code never builds outside a pattern. DESIGN.md §10 lists
/// what counts as a write.
pub fn dead_field(
    checked: &[FileCtx],
    index: &MentionIndex,
    skip_rel: &str,
    out: &mut Vec<Diagnostic>,
) {
    let toks_of = |fi: usize| index.files[fi].lx.tokens.as_slice();
    let (scopes, patterns): (Vec<Scopes>, Vec<Vec<bool>>) = (0..index.files.len())
        .map(|f| (Scopes::of(toks_of(f)), patterns(toks_of(f))))
        .unzip();
    let self_ty = |fi: usize, k: usize| scopes[fi].at[k].0.map(|i| scopes[fi].impls[i].0.as_str());

    // (file, `pub` token, name, is an enum, fields or variants).
    type Members<'a> = Vec<(&'a str, usize)>;
    let mut items: Vec<(usize, usize, &str, bool, Members)> = Vec::new();
    for (fi, ctx) in checked.iter().enumerate() {
        if ctx.rel == skip_rel {
            continue;
        }
        let toks = &ctx.lx.tokens;
        for start in 0..toks.len() {
            let Some((kind @ ("struct" | "enum"), name, end)) = pub_item_at(toks, start) else {
                continue;
            };
            let body =
                (start..end).find(|&k| matches!(toks[k].kind, TokKind::Punct('{' | '(' | ';')));
            let Some(open) = body.filter(|&k| is_punct(toks.get(k), '{')) else {
                continue; // a tuple or unit struct
            };
            let is_enum = kind == "enum";
            let members = entries(toks, open)
                .into_iter()
                .filter_map(|(k, _)| match is_enum {
                    true => Some((ident(&toks[k])?, k)),
                    false if ident(&toks[k]) == Some("pub") && is_field_colon(toks, k + 2) => {
                        Some((ident(&toks[k + 1])?, k + 1))
                    }
                    false => None,
                });
            if !ctx.is_test_line(toks[start].line) {
                items.push((fi, start, name, is_enum, members.collect()));
            }
        }
    }

    // Per struct and field: its defaults, and every other write (`None`
    // when computed).
    type Writes = (BTreeSet<String>, Vec<Option<String>>);
    let mut writes: HashMap<&str, HashMap<&str, Writes>> = HashMap::new();
    let mut owners: HashMap<&str, Vec<&str>> = HashMap::new();
    for (_, _, name, _, fields) in items.iter().filter(|item| !item.3) {
        for &(f, _) in fields {
            writes.entry(name).or_default().entry(f).or_default();
            owners.entry(f).or_default().push(name);
        }
    }
    for (fi, ctx) in index.files.iter().enumerate() {
        let (toks, scope) = (&ctx.lx.tokens, &scopes[fi]);
        let mut record = |ty: &str, f: &str, k: usize, value: &[Tok], computed: bool| {
            let Some((defaults, sets)) = writes.get_mut(ty).and_then(|w| w.get_mut(f)) else {
                return;
            };
            let value = (!computed && !is_computed(value)).then(|| token_text(value));
            let imp = scope.at[k].0.map(|i| &scope.impls[i]);
            let imp = imp.filter(|(self_ty, ..)| self_ty == ty);
            match (imp, scope.at[k].1.map(|f| &scope.fns[f])) {
                // A method of the type, or a constructor computing the
                // value: a write by each non-test caller.
                (Some((_, false, _)), Some((name, has_self, at)))
                    if *has_self || value.is_none() =>
                {
                    if index.of(name).iter().any(|&mention| mention != (fi, *at)) {
                        sets.push(value);
                    }
                }
                // A constructor's, `Default::default`'s or an associated
                // constant's fixed value.
                (Some((_, of_trait, of_default)), func)
                    if value.is_some()
                        && (!of_trait || *of_default && func.is_some_and(|f| f.0 == "default")) =>
                {
                    defaults.extend(value)
                }
                _ => sets.push(value),
            }
        };
        for k in (0..toks.len()).filter(|&k| !ctx.is_test_line(toks[k].line) && !patterns[fi][k]) {
            if let Some(name) = literal_head(toks, k) {
                let ty = if name == "Self" {
                    self_ty(fi, k)
                } else {
                    Some(name)
                };
                let ty = ty.unwrap_or_default();
                for (f, value) in literal_entries(toks, k + 1) {
                    record(ty, f, k, value, false);
                }
            }
            let Some((f, value, computed)) = field_write_at(toks, k) else {
                continue;
            };
            match self_ty(fi, k).filter(|_| k > 0 && ident(&toks[k - 1]) == Some("self")) {
                Some(ty) => record(ty, f, k, value, computed),
                None => {
                    for ty in owners.get(f).into_iter().flatten() {
                        record(ty, f, k, value, computed);
                    }
                }
            }
        }
    }

    for (fi, start, name, is_enum, members) in &items {
        let (toks, rel) = (toks_of(*fi), &index.files[*fi].rel);
        let mut report = |at: usize, message: String| {
            let tok = &toks[at];
            let d = Diagnostic::new(
                "dead-field",
                Severity::Warning,
                rel,
                tok.line,
                tok.col,
                message,
            );
            out.push(d);
        };
        if !is_enum {
            let dead: Vec<String> = (members.iter())
                .filter(|(f, _)| {
                    let (defaults, sets) = &writes[name][f];
                    let is_default =
                        |v: &Option<String>| v.as_ref().is_some_and(|v| defaults.contains(v));
                    defaults.len() < 2 && sets.iter().all(is_default)
                })
                .map(|(f, _)| format!("`{f}`"))
                .collect();
            if !dead.is_empty() {
                let message = format!(
                    "non-test code never sets pub field(s) {} of `{name}` to a value \
                     besides the default; make each a constant or delete it, or name the \
                     test that needs another value in `// analyzer: allow(dead-field) — test`",
                    dead.join(", ")
                );
                report(*start, message);
            }
            continue;
        }
        for &(v, at) in members {
            let built = index.of(v).iter().any(|&(mf, mi)| {
                let qualifier = mi.checked_sub(3).and_then(|q| ident(&toks_of(mf)[q]));
                !patterns[mf][mi]
                    && is_punct(toks_of(mf).get(mi.wrapping_sub(1)), ':')
                    && (qualifier == Some(name)
                        || qualifier == Some("Self") && self_ty(mf, mi) == Some(name))
            });
            if !built {
                let message = format!(
                    "variant `{name}::{v}` is never constructed by non-test code (patterns \
                     do not count); delete it, or justify it with \
                     `// analyzer: allow(dead-field) — reason`"
                );
                report(at, message);
            }
        }
    }
}

/// The innermost `impl` block and `fn` body around each token of a file.
#[derive(Default)]
struct Scopes {
    /// Self type; implements a trait; implements `Default`.
    impls: Vec<(String, bool, bool)>,
    /// Name; takes `self`; index of the name token.
    fns: Vec<(String, bool, usize)>,
    /// Per token: indices into `impls` and `fns`.
    at: Vec<(Option<usize>, Option<usize>)>,
}

impl Scopes {
    fn of(toks: &[Tok]) -> Self {
        let mut s = Self::default();
        let mut stack = vec![(None, None)];
        // The next impl or fn body: its `{` and the scope it opens.
        let mut pending = None;
        for (k, t) in toks.iter().enumerate() {
            let cur = stack.last().copied().unwrap_or_default();
            s.at.push(cur);
            match (&t.kind, ident(t)) {
                (_, Some("impl")) if is_item_start(toks, k) => {
                    let Some(ty) = impl_self_type(toks, k) else {
                        continue;
                    };
                    let header = |word| toks[k..ty].iter().any(|t| ident(t) == Some(word));
                    let name = ident(&toks[ty]).unwrap_or_default().to_string();
                    s.impls.push((name, header("for"), header("Default")));
                    let open = (ty..toks.len()).find(|&j| is_punct(toks.get(j), '{'));
                    pending = open.map(|open| (open, (Some(s.impls.len() - 1), None)));
                }
                (_, Some("fn")) => {
                    let Some(name) = toks.get(k + 1).and_then(ident) else {
                        continue; // a `fn(…)` pointer type
                    };
                    let params = (k..toks.len()).find(|&p| is_punct(toks.get(p), '('));
                    let close = matching(toks, params.unwrap_or(k));
                    let has_self = toks[k..close].iter().any(|t| ident(t) == Some("self"));
                    s.fns.push((name.to_string(), has_self, k + 1));
                    // The body follows the signature; a `;` first means none.
                    let body = until(toks, close + 1, toks.len(), &|j| {
                        matches!(toks[j].kind, TokKind::Punct('{' | ';'))
                    });
                    pending = Some((body, (cur.0, Some(s.fns.len() - 1))));
                }
                (TokKind::Punct('{'), _) => stack.push(
                    pending
                        .filter(|&(open, _)| open == k)
                        .map_or(cur, |(_, s)| s),
                ),
                (TokKind::Punct('}'), _) if stack.len() > 1 => {
                    stack.pop();
                }
                _ => {}
            }
        }
        s
    }
}

/// The index of the bracket closing the one at `open` (the last token
/// when unbalanced).
fn matching(toks: &[Tok], open: usize) -> usize {
    let closes = |k: usize| matches!(toks[k].kind, TokKind::Punct(')' | ']' | '}'));
    until(toks, open + 1, toks.len(), &closes).min(toks.len() - 1)
}

/// The first token from `k` on, at the depth of `k`, that `stop`
/// accepts (or `limit`), stepping over bracketed groups.
fn until(toks: &[Tok], mut k: usize, limit: usize, stop: &dyn Fn(usize) -> bool) -> usize {
    while k < limit && !stop(k) {
        if matches!(toks[k].kind, TokKind::Punct('(' | '[' | '{')) {
            k = matching(toks, k);
        }
        k += 1;
    }
    k
}

/// Is `toks[k]` the `:` after a field name (not a `::` path)?
fn is_field_colon(toks: &[Tok], k: usize) -> bool {
    is_punct(toks.get(k), ':') && !is_punct(toks.get(k + 1), ':')
}

/// The top-level entries of the `{ … }` group at `open` as token ranges
/// split at commas, leading attributes skipped: the fields of a struct
/// or struct literal, the variants of an enum.
fn entries(toks: &[Tok], open: usize) -> Vec<(usize, usize)> {
    let (close, mut out, mut k) = (matching(toks, open), Vec::new(), open + 1);
    while k < close {
        if is_punct(toks.get(k), '#') {
            k = matching(toks, k + 1) + 1;
        } else {
            out.push((k, expr_end(toks, k, close)));
            k = out[out.len() - 1].1 + 1;
        }
    }
    out
}

/// If `toks[k]` names the type of a struct literal (`T {` in expression
/// position), returns the name.
fn literal_head(toks: &[Tok], k: usize) -> Option<&str> {
    let name = ident(&toks[k]).filter(|n| n.starts_with(|c: char| c.is_ascii_uppercase()))?;
    let prev = k.checked_sub(1).map(|p| &toks[p]);
    let keywords = "struct enum union impl for trait mod in dyn";
    let after_keyword = prev
        .and_then(ident)
        .is_some_and(|p| keywords.split(' ').any(|w| w == p));
    let after_arrow = is_punct(prev, '>') && is_punct(toks.get(k.wrapping_sub(2)), '-');
    (is_punct(toks.get(k + 1), '{') && !after_keyword && !after_arrow).then_some(name)
}

/// The `(field, value)` entries of the struct literal whose `{` is at
/// `open`; a shorthand `f` is its own value, and `..base` ends them.
fn literal_entries(toks: &[Tok], open: usize) -> Vec<(&str, &[Tok])> {
    let fields = entries(toks, open).into_iter().map_while(|(k, end)| {
        let start = if is_field_colon(toks, k + 1) {
            k + 2
        } else {
            k
        };
        Some((ident(&toks[k])?, &toks[start..end]))
    });
    fields.collect()
}

/// One past the expression starting at `start`: the next `,` or `;` at
/// its depth, or the bracket closing around it, but at most `limit`.
fn expr_end(toks: &[Tok], start: usize, limit: usize) -> usize {
    let closes = |k: usize| matches!(toks[k].kind, TokKind::Punct(')' | ']' | '}' | ',' | ';'));
    until(toks, start, limit.min(toks.len()), &closes)
}

/// Methods that change the collection they are called on.
const MUTATORS: &str = "push push_str push_back insert extend extend_from_slice append clear \
                        retain remove pop truncate drain sort sort_by sort_by_key sort_unstable \
                        dedup entry get_mut iter_mut resize fill";

/// If `toks[k]` is the `.` before field `f` in a write of it, returns
/// `f`, the value, and whether the write computes from the old value:
/// `x.f = v`; and, computing, `x.f += v`, `x.f[i] = v`, `&mut x.f` and
/// `x.f.push(…)` (any of [`MUTATORS`]).
fn field_write_at(toks: &[Tok], k: usize) -> Option<(&str, &[Tok], bool)> {
    let is_dot = is_punct(toks.get(k), '.') && !is_punct(toks.get(k.wrapping_sub(1)), '.');
    let field = ident(toks.get(k + 1)?).filter(|_| is_dot)?;
    let op = if is_punct(toks.get(k + 2), '[') {
        matching(toks, k + 2) + 1
    } else {
        k + 2
    };
    let borrowed = k >= 3 && ident(&toks[k - 2]) == Some("mut") && is_punct(toks.get(k - 3), '&');
    let method = toks
        .get(op + 1)
        .and_then(ident)
        .filter(|_| is_punct(toks.get(op + 2), '('));
    let mutated = is_punct(toks.get(op), '.')
        && method.is_some_and(|m| MUTATORS.split_whitespace().any(|x| x == m));
    let start = match (&toks.get(op)?.kind, &toks.get(op + 1)?.kind) {
        _ if borrowed || mutated => return Some((field, &[], true)),
        (TokKind::Punct('='), TokKind::Punct('=' | '>')) => return None,
        (TokKind::Punct('='), _) => op + 1,
        (TokKind::Punct('+' | '-' | '*' | '/' | '%' | '&' | '|' | '^'), TokKind::Punct('=')) => {
            op + 2
        }
        _ => return None,
    };
    let value = &toks[start..expr_end(toks, start, toks.len())];
    Some((field, value, start > op + 1 || op > k + 2))
}

/// Marks the tokens of patterns, which bind values rather than build
/// them: `match` arms up to their `=>`, `let` patterns up to their `=`,
/// and the second argument of `matches!`.
fn patterns(toks: &[Tok]) -> Vec<bool> {
    let mut pat = vec![false; toks.len()];
    let is_arrow = |k: usize| is_punct(toks.get(k), '=') && is_punct(toks.get(k + 1), '>');
    let is_let_end = |k: usize| {
        let assign = is_punct(toks.get(k), '=') && !is_arrow(k) && !is_punct(toks.get(k + 1), '=');
        assign || is_punct(toks.get(k), ';')
    };
    for i in 0..toks.len() {
        let (from, to) = match ident(&toks[i]) {
            Some("match") => {
                let Some(open) = (i..toks.len()).find(|&k| is_punct(toks.get(k), '{')) else {
                    continue;
                };
                let (close, mut k) = (matching(toks, open), open + 1);
                while k < close {
                    let arrow = until(toks, k, close, &is_arrow);
                    pat[k..arrow].iter_mut().for_each(|p| *p = true);
                    k = expr_end(toks, arrow + 2, close) + 1;
                }
                continue;
            }
            Some("let") => (i, until(toks, i + 1, toks.len(), &is_let_end)),
            Some("matches") if is_punct(toks.get(i + 2), '(') => {
                let close = matching(toks, i + 2);
                (expr_end(toks, i + 3, close), close)
            }
            _ => continue,
        };
        pat[from..to].iter_mut().for_each(|p| *p = true);
    }
    pat
}

/// Identifiers that are neither variables nor part of a path.
const NON_VARIABLES: &str = "true false as if else match in return move ref mut dyn u8 u16 u32 \
                             u64 u128 usize i8 i16 i32 i64 i128 isize f32 f64 bool char str";

/// Is `value` computed rather than written from literals and constants?
/// It is when it reads a variable (a lower-case name that is not a
/// method, macro, path segment or keyword) or calls a function not
/// associated with a type (`Duration::from_millis(1)`, `Vec::new()` and
/// `Some(1)` are constant; `probe()` is not).
fn is_computed(value: &[Tok]) -> bool {
    (0..value.len()).any(|i| {
        let Some(name) = ident(&value[i]) else {
            return false;
        };
        let (prev, next) = (i.checked_sub(1).map(|p| &value[p]), value.get(i + 1));
        let is_type = |n: &str| n.starts_with(|c: char| c.is_ascii_uppercase());
        if is_type(name)
            || NON_VARIABLES.split_whitespace().any(|x| x == name)
            || is_punct(prev, '.')
            || is_punct(next, '!')
            || is_punct(next, ':')
        {
            return false;
        }
        // A path member computes only when it calls a module's function.
        let type_qualified = i >= 3 && ident(&value[i - 3]).is_some_and(is_type);
        !is_punct(prev, ':') || is_punct(next, '(') && !type_qualified
    })
}

/// A value's tokens as comparable text.
fn token_text(value: &[Tok]) -> String {
    format!("{:?}", value.iter().map(|t| &t.kind).collect::<Vec<_>>())
}
