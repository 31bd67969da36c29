//! Per-file analysis context: lexed tokens plus the derived facts every
//! rule needs — which lines are test code, which lines carry an
//! `// analyzer: allow(rule) — reason` suppression, where the
//! `// SAFETY:` and `// ordering:` justification comments sit.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{lex, Lexed, TokKind};
use crate::rules::RULE_IDS;
use std::collections::BTreeSet;

/// The marker that introduces a suppression comment.
pub const ALLOW_MARKER: &str = "analyzer: allow(";

/// One parsed `// analyzer: allow(rule) — reason` comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The suppressed rule id.
    pub rule: String,
    /// The line the suppression covers (the comment's own line for a
    /// trailing comment, otherwise the next line with code on it).
    pub covers: u32,
    /// Line the comment itself is on (for diagnostics).
    pub line: u32,
    /// Set once a diagnostic is actually suppressed; unused allows are
    /// reported so stale suppressions don't accumulate.
    pub used: std::cell::Cell<bool>,
}

/// Everything the rules need to know about one source file.
pub struct FileCtx {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Name of the crate directory the file belongs to (`rpc`,
    /// `telemetry`, …; the workspace root package is `.`).
    pub crate_name: String,
    /// Token/comment stream.
    pub lx: Lexed,
    /// `test_lines[line]` is true when the 1-based `line` is inside a
    /// `#[cfg(test)]` module, a `#[test]` function, or a test-only file.
    pub test_lines: Vec<bool>,
    /// Parsed suppression comments.
    pub allows: Vec<Allow>,
    /// Lines justified by an `// ordering: reason` comment.
    pub ordering_justified: BTreeSet<u32>,
    /// Lines covered by a `SAFETY:` comment (the line after the comment
    /// and, for trailing comments, the comment's own line).
    pub safety_covered: BTreeSet<u32>,
}

impl FileCtx {
    /// Lexes `src` and derives the context. Malformed suppression
    /// comments are reported into `diags` under the `suppression` rule.
    pub fn new(rel: &str, crate_name: &str, src: &str, diags: &mut Vec<Diagnostic>) -> Self {
        let lx = lex(src);
        let line_has_code = line_has_code(&lx);
        let test_lines = test_lines(&lx, rel);
        let mut ctx = Self {
            rel: rel.to_string(),
            crate_name: crate_name.to_string(),
            lx,
            test_lines,
            allows: Vec::new(),
            ordering_justified: BTreeSet::new(),
            safety_covered: BTreeSet::new(),
        };
        ctx.scan_comments(&line_has_code, diags);
        ctx
    }

    fn scan_comments(&mut self, line_has_code: &[bool], diags: &mut Vec<Diagnostic>) {
        for c in &self.lx.comments {
            let covers = covered_line(c.line, c.end_line, line_has_code);
            if let Some(rest) = c.text.strip_prefix(ALLOW_MARKER) {
                match parse_allow(rest) {
                    Ok(rule) => {
                        if !RULE_IDS.contains(&rule.as_str()) {
                            diags.push(Diagnostic::new(
                                "suppression",
                                Severity::Warning,
                                &self.rel,
                                c.line,
                                1,
                                format!("allow names unknown rule `{rule}`"),
                            ));
                        } else {
                            self.allows.push(Allow {
                                rule,
                                covers,
                                line: c.line,
                                used: std::cell::Cell::new(false),
                            });
                        }
                    }
                    Err(why) => diags.push(Diagnostic::new(
                        "suppression",
                        Severity::Warning,
                        &self.rel,
                        c.line,
                        1,
                        why,
                    )),
                }
            } else if let Some(rest) = c.text.strip_prefix("ordering:") {
                if rest.trim().is_empty() {
                    diags.push(Diagnostic::new(
                        "suppression",
                        Severity::Warning,
                        &self.rel,
                        c.line,
                        1,
                        "`// ordering:` justification has no reason".to_string(),
                    ));
                } else {
                    self.ordering_justified.insert(covers);
                }
            } else if c.text.starts_with("SAFETY:") || c.text.starts_with("Safety:") {
                self.safety_covered.insert(covers);
                // A SAFETY comment directly above an `unsafe` line also
                // covers multi-line comment blocks that end right above it.
                self.safety_covered.insert(c.end_line + 1);
            }
        }
    }

    /// True when `line` is suppressed for `rule`; marks the allow used.
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        let mut hit = false;
        for a in &self.allows {
            if a.rule == rule && a.covers == line {
                a.used.set(true);
                hit = true;
            }
        }
        hit
    }

    /// True when the 1-based `line` is inside test-only code.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines.get(line as usize).copied().unwrap_or(false)
    }
}

/// Parses the tail of an allow comment: `rule-id) — reason`.
fn parse_allow(rest: &str) -> Result<String, String> {
    let Some(close) = rest.find(')') else {
        return Err("malformed allow: missing `)` after rule id".to_string());
    };
    let rule = rest[..close].trim().to_string();
    let reason = rest[close + 1..]
        .trim_start_matches(|c: char| c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':'));
    if reason.trim().is_empty() {
        return Err(format!(
            "allow({rule}) has no reason; write `// analyzer: allow({rule}) — why this is sound`"
        ));
    }
    Ok(rule)
}

/// Which line a comment's justification/suppression applies to: its own
/// line when code precedes it there (trailing comment), otherwise the
/// next line that has code.
fn covered_line(line: u32, end_line: u32, line_has_code: &[bool]) -> u32 {
    if line_has_code.get(line as usize).copied().unwrap_or(false) {
        return line;
    }
    let mut l = end_line + 1;
    while (l as usize) < line_has_code.len() {
        if line_has_code[l as usize] {
            return l;
        }
        l += 1;
    }
    end_line + 1
}

fn line_has_code(lx: &Lexed) -> Vec<bool> {
    let mut v = vec![false; lx.lines as usize + 2];
    for t in &lx.tokens {
        if let Some(slot) = v.get_mut(t.line as usize) {
            *slot = true;
        }
    }
    v
}

/// Marks lines belonging to `#[cfg(test)]` items, `#[test]` functions,
/// and whole test-only files (anything under a `tests/` or `benches/`
/// directory).
fn test_lines(lx: &Lexed, rel: &str) -> Vec<bool> {
    let len = lx.lines as usize + 2;
    let path_is_test = rel.split('/').any(|seg| seg == "tests" || seg == "benches");
    if path_is_test {
        return vec![true; len];
    }
    let mut v = vec![false; len];
    let toks = &lx.tokens;
    let mut i = 0;
    while i < toks.len() {
        if let Some((attr_end, is_test_attr)) = attribute_at(toks, i) {
            if is_test_attr {
                if let Some((start_line, end_line)) = item_body_span(toks, attr_end) {
                    let from = toks[i].line.min(start_line) as usize;
                    let to = (end_line as usize).min(len - 1);
                    for flag in &mut v[from..=to] {
                        *flag = true;
                    }
                }
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    v
}

/// If `toks[i]` starts an attribute (`#[...]` or `#![...]`), returns the
/// index one past its closing `]` and whether it marks test code
/// (`#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]` — but not
/// `#[cfg(not(test))]`).
fn attribute_at(toks: &[crate::lexer::Tok], i: usize) -> Option<(usize, bool)> {
    if toks.get(i)?.kind != TokKind::Punct('#') {
        return None;
    }
    let mut j = i + 1;
    if toks.get(j).map(|t| &t.kind) == Some(&TokKind::Punct('!')) {
        j += 1;
    }
    if toks.get(j)?.kind != TokKind::Punct('[') {
        return None;
    }
    let mut depth = 0usize;
    let mut saw_test = false;
    let mut saw_cfg = false;
    let mut saw_not = false;
    let mut plain_test = false;
    let body_start = j + 1;
    while let Some(t) = toks.get(j) {
        match &t.kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokKind::Ident(name) => match name.as_str() {
                "test" => {
                    saw_test = true;
                    if j == body_start {
                        plain_test = true;
                    }
                }
                "cfg" => saw_cfg = true,
                "not" => saw_not = true,
                _ => {}
            },
            _ => {}
        }
        j += 1;
    }
    let is_test = plain_test || (saw_cfg && saw_test && !saw_not);
    Some((j + 1, is_test))
}

/// Finds the `{ … }` body of the item following an attribute and returns
/// its (start_line, end_line). Skips over further attributes and
/// modifiers. Returns `None` for bodiless items (`mod tests;`).
fn item_body_span(toks: &[crate::lexer::Tok], mut i: usize) -> Option<(u32, u32)> {
    // Skip any further attributes.
    while let Some((next, _)) = attribute_at(toks, i) {
        i = next;
    }
    let start_line = toks.get(i)?.line;
    // Find the opening brace of the item body; `;` first means no body.
    let mut j = i;
    loop {
        match &toks.get(j)?.kind {
            TokKind::Punct('{') => break,
            TokKind::Punct(';') => return None,
            _ => j += 1,
        }
    }
    let mut depth = 0usize;
    while let Some(t) = toks.get(j) {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some((start_line, t.line));
                }
            }
            _ => {}
        }
        j += 1;
    }
    Some((start_line, toks.last()?.line))
}

/// After all rules ran, reports allows that never suppressed anything.
pub fn report_unused_allows(ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    for a in &ctx.allows {
        if !a.used.get() {
            diags.push(Diagnostic::new(
                "suppression",
                Severity::Warning,
                &ctx.rel,
                a.line,
                1,
                format!(
                    "unused allow({}) — nothing on line {} fires that rule",
                    a.rule, a.covers
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> (FileCtx, Vec<Diagnostic>) {
        let mut diags = Vec::new();
        let c = FileCtx::new("crates/x/src/lib.rs", "x", src, &mut diags);
        (c, diags)
    }

    #[test]
    fn cfg_test_module_lines_are_test() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn live2() {}\n";
        let (c, _) = ctx(src);
        assert!(!c.is_test_line(1));
        assert!(c.is_test_line(2));
        assert!(c.is_test_line(3));
        assert!(c.is_test_line(4));
        assert!(c.is_test_line(5));
        assert!(!c.is_test_line(6));
    }

    #[test]
    fn test_fn_with_extra_attrs_is_test() {
        let src = "#[test]\n#[ignore]\nfn flaky() {\n    body();\n}\nfn live() {}\n";
        let (c, _) = ctx(src);
        assert!(c.is_test_line(3));
        assert!(c.is_test_line(4));
        assert!(!c.is_test_line(6));
    }

    #[test]
    fn cfg_not_test_is_not_test() {
        let src = "#[cfg(not(test))]\nfn live() {\n    body();\n}\n";
        let (c, _) = ctx(src);
        assert!(!c.is_test_line(2));
        assert!(!c.is_test_line(3));
    }

    #[test]
    fn trailing_and_preceding_allow_scopes() {
        let src = "\
// analyzer: allow(panic-path) — startup-only
let a = x.unwrap();
let b = y.unwrap(); // analyzer: allow(panic-path) — also fine
let c = z.unwrap();
";
        let (c, diags) = ctx(src);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(c.is_allowed("panic-path", 2));
        assert!(c.is_allowed("panic-path", 3));
        assert!(!c.is_allowed("panic-path", 4));
    }

    #[test]
    fn allow_without_reason_is_reported() {
        let (_, diags) = ctx("// analyzer: allow(panic-path)\nlet a = x.unwrap();\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "suppression");
    }

    #[test]
    fn allow_with_unknown_rule_is_reported() {
        let (_, diags) = ctx("// analyzer: allow(no-such-rule) — whatever\nlet a = 1;\n");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("unknown rule"));
    }

    #[test]
    fn unused_allow_is_reported() {
        let (c, mut diags) = ctx("// analyzer: allow(panic-path) — nothing here\nlet a = 1;\n");
        report_unused_allows(&c, &mut diags);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("unused allow"));
    }

    #[test]
    fn ordering_and_safety_comments_cover_next_line() {
        let src = "\
// ordering: counter is monotonic, no data guarded
x.fetch_add(1, Ordering::Relaxed);
// SAFETY: index checked above
unsafe { body() }
";
        let (c, diags) = ctx(src);
        assert!(diags.is_empty());
        assert!(c.ordering_justified.contains(&2));
        assert!(c.safety_covered.contains(&4));
    }

    #[test]
    fn files_under_tests_dir_are_all_test() {
        let mut diags = Vec::new();
        let c = FileCtx::new("tests/integration.rs", ".", "fn x() {}\n", &mut diags);
        assert!(c.is_test_line(1));
    }
}
