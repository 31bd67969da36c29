//! A minimal Rust lexer — just enough fidelity for invariant linting.
//!
//! The analyzer never parses Rust properly; it tokenizes. That is enough
//! to tell an identifier in code from the same word inside a string
//! literal or a comment, which is the precision the rule engine needs:
//! `Ordering::Relaxed` in a doc example must not fire the atomics audit,
//! and `"unwrap"` in a diagnostic message must not fire the panic-path
//! lint. Comments are captured separately (with spans) because several
//! rules key off them: `// SAFETY:` justifications, `// ordering:`
//! justifications, and `// analyzer: allow(...)` suppressions.

/// What a token is. Only the distinctions the rules need are kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (raw identifiers are stripped of `r#`).
    Ident(String),
    /// String literal contents, quotes stripped, escapes left as written
    /// (covers `"…"`, `b"…"`, `r"…"`, `r#"…"#` and deeper raw forms).
    Str(String),
    /// A single punctuation character (`::` is two `Punct(':')` tokens).
    Punct(char),
    /// A lifetime such as `'a` or `'_`.
    Lifetime,
    /// A character or byte literal.
    Char,
    /// A numeric literal, as written (value not interpreted).
    Num(String),
}

/// A token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token kind and payload.
    pub kind: TokKind,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column of the token's first character.
    pub col: u32,
}

/// A comment with its normalized text and line span.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text with the leading `//`/`/*`/doc markers and
    /// surrounding whitespace stripped.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (differs for block comments).
    pub end_line: u32,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Tok>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
    /// Total number of lines in the file.
    pub lines: u32,
}

struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn eat_while(&mut self, pred: impl Fn(char) -> bool) -> String {
        let mut s = String::new();
        while let Some(c) = self.peek(0) {
            if pred(c) {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        s
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Lexes `src` into tokens and comments. Never fails: unexpected bytes
/// become `Punct` tokens, unterminated literals run to end of file.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        col: 1,
    };
    let mut out = Lexed::default();

    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        match c {
            _ if c.is_whitespace() => {
                cur.bump();
            }
            '/' if cur.peek(1) == Some('/') => {
                let raw = cur.eat_while(|c| c != '\n');
                out.comments.push(Comment {
                    text: normalize_comment(&raw),
                    line,
                    end_line: line,
                });
            }
            '/' if cur.peek(1) == Some('*') => {
                let raw = block_comment(&mut cur);
                out.comments.push(Comment {
                    text: normalize_comment(&raw),
                    line,
                    end_line: cur.line,
                });
            }
            '"' => {
                cur.bump();
                let s = string_body(&mut cur);
                out.tokens.push(Tok {
                    kind: TokKind::Str(s),
                    line,
                    col,
                });
            }
            'b' if cur.peek(1) == Some('"') => {
                cur.bump();
                cur.bump();
                let s = string_body(&mut cur);
                out.tokens.push(Tok {
                    kind: TokKind::Str(s),
                    line,
                    col,
                });
            }
            'b' if cur.peek(1) == Some('\'') => {
                cur.bump();
                cur.bump();
                char_body(&mut cur);
                out.tokens.push(Tok {
                    kind: TokKind::Char,
                    line,
                    col,
                });
            }
            'r' | 'b'
                if raw_string_hashes(&cur, if c == 'b' { 1 } else { 0 }).is_some()
                    && (c == 'r' || cur.peek(1) == Some('r')) =>
            {
                let skip = if c == 'b' { 2 } else { 1 };
                let hashes = raw_string_hashes(&cur, skip - 1).unwrap_or(0);
                for _ in 0..skip + hashes + 1 {
                    cur.bump(); // the `r`/`br`, the `#`s, and the opening quote
                }
                let s = raw_string_body(&mut cur, hashes);
                out.tokens.push(Tok {
                    kind: TokKind::Str(s),
                    line,
                    col,
                });
            }
            'r' if cur.peek(1) == Some('#') && cur.peek(2).is_some_and(is_ident_start) => {
                cur.bump();
                cur.bump();
                let name = cur.eat_while(is_ident_continue);
                out.tokens.push(Tok {
                    kind: TokKind::Ident(name),
                    line,
                    col,
                });
            }
            '\'' => {
                // Lifetime (`'a`, `'_`) vs char literal (`'a'`, `'\n'`).
                if cur.peek(1).is_some_and(is_ident_start) && cur.peek(2) != Some('\'') {
                    cur.bump();
                    cur.eat_while(is_ident_continue);
                    out.tokens.push(Tok {
                        kind: TokKind::Lifetime,
                        line,
                        col,
                    });
                } else {
                    cur.bump();
                    char_body(&mut cur);
                    out.tokens.push(Tok {
                        kind: TokKind::Char,
                        line,
                        col,
                    });
                }
            }
            _ if is_ident_start(c) => {
                let name = cur.eat_while(is_ident_continue);
                out.tokens.push(Tok {
                    kind: TokKind::Ident(name),
                    line,
                    col,
                });
            }
            _ if c.is_ascii_digit() => {
                out.tokens.push(Tok {
                    kind: TokKind::Num(number_body(&mut cur)),
                    line,
                    col,
                });
            }
            _ => {
                cur.bump();
                out.tokens.push(Tok {
                    kind: TokKind::Punct(c),
                    line,
                    col,
                });
            }
        }
    }
    out.lines = cur.line;
    out
}

/// `r"`, `r#"`, `br##"` … — returns the number of `#`s if the cursor
/// (offset by `skip` to step over `r`/`br`) sits on a raw-string opener.
fn raw_string_hashes(cur: &Cursor, skip: usize) -> Option<usize> {
    let mut k = skip + 1; // first char after the `r`
    let mut hashes = 0;
    loop {
        match cur.peek(k) {
            Some('#') => {
                hashes += 1;
                k += 1;
            }
            Some('"') => return Some(hashes),
            _ => return None,
        }
    }
}

fn raw_string_body(cur: &mut Cursor, hashes: usize) -> String {
    let mut s = String::new();
    while let Some(c) = cur.bump() {
        if c == '"' {
            let closed = (0..hashes).all(|k| cur.peek(k) == Some('#'));
            if closed {
                for _ in 0..hashes {
                    cur.bump();
                }
                break;
            }
        }
        s.push(c);
    }
    s
}

fn string_body(cur: &mut Cursor) -> String {
    let mut s = String::new();
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                s.push('\\');
                if let Some(escaped) = cur.bump() {
                    s.push(escaped);
                }
            }
            '"' => break,
            _ => s.push(c),
        }
    }
    s
}

/// Consumes a char/byte literal body up to and including the closing `'`.
fn char_body(cur: &mut Cursor) {
    match cur.bump() {
        Some('\\') if cur.bump() == Some('u') && cur.peek(0) == Some('{') => {
            while let Some(c) = cur.bump() {
                if c == '}' {
                    break;
                }
            }
        }
        Some('\\') => {}      // simple escape, already consumed above
        Some('\'') => return, // empty literal `''` (invalid Rust, tolerated)
        _ => {}
    }
    if cur.peek(0) == Some('\'') {
        cur.bump();
    }
}

fn number_body(cur: &mut Cursor) -> String {
    let mut s = cur.eat_while(|c| c.is_ascii_alphanumeric() || c == '_');
    // `1.5` continues the number; `0..2` and `1.method()` do not.
    if cur.peek(0) == Some('.') && cur.peek(1).is_some_and(|c| c.is_ascii_digit()) {
        cur.bump();
        s.push('.');
        s.push_str(&cur.eat_while(|c| c.is_ascii_alphanumeric() || c == '_'));
    }
    s
}

fn block_comment(cur: &mut Cursor) -> String {
    cur.bump(); // `/`
    cur.bump(); // `*`
    let mut depth = 1usize;
    let mut s = String::new();
    while let Some(c) = cur.bump() {
        if c == '/' && cur.peek(0) == Some('*') {
            cur.bump();
            depth += 1;
            s.push_str("/*");
        } else if c == '*' && cur.peek(0) == Some('/') {
            cur.bump();
            depth -= 1;
            if depth == 0 {
                break;
            }
            s.push_str("*/");
        } else {
            s.push(c);
        }
    }
    s
}

/// Strips comment markers: `//`, `///`, `//!`, leading `*`s from block
/// comment bodies, and surrounding whitespace.
fn normalize_comment(raw: &str) -> String {
    let mut t = raw;
    while let Some(rest) = t.strip_prefix('/') {
        t = rest;
    }
    t = t.strip_prefix('!').unwrap_or(t);
    let t = t.trim();
    let t = t.strip_prefix('*').map(str::trim).unwrap_or(t);
    t.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_do_not_leak_idents() {
        let src = r##"
            // unwrap in a comment
            /* Ordering::SeqCst in a block /* nested */ comment */
            let x = "unwrap() and Ordering::Relaxed in a string";
            let y = r#"raw "quoted" unsafe"#;
            call(x);
        "##;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "x", "let", "y", "call", "x"]);
    }

    #[test]
    fn string_values_are_captured() {
        let toks = lex(r#"counter("rpc.requests")"#).tokens;
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Str("rpc.requests".into())));
    }

    #[test]
    fn raw_strings_and_byte_strings() {
        let toks = lex(r###"let a = r#"has "quotes""#; let b = b"bytes"; let c = br"raw";"###);
        let strs: Vec<_> = toks
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Str(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec!["has \"quotes\"", "bytes", "raw"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'x' }").tokens;
        let lifetimes = toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!((lifetimes, chars), (2, 1));
    }

    #[test]
    fn escaped_chars_and_unicode() {
        let toks = lex(r"let c = '\''; let n = '\n'; let u = '\u{1F600}'; next");
        assert!(toks
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Ident("next".into())));
    }

    #[test]
    fn comment_positions_and_text() {
        let lx = lex("let a = 1; // trailing note\n/// doc\nfn f() {}\n");
        assert_eq!(lx.comments.len(), 2);
        assert_eq!(lx.comments[0].text, "trailing note");
        assert_eq!(lx.comments[0].line, 1);
        assert_eq!(lx.comments[1].text, "doc");
        assert_eq!(lx.comments[1].line, 2);
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let toks = lex("for i in 0..10 { f(1.5, 0xFF, 1e9); }").tokens;
        let nums = toks.iter().filter(|t| matches!(t.kind, TokKind::Num(_)));
        assert_eq!(nums.count(), 5); // 0, 10, 1.5, 0xFF, 1e9
        assert!(toks.iter().any(|t| t.kind == TokKind::Num("1.5".into())));
        let dots = toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct('.'))
            .count();
        assert_eq!(dots, 2); // the `..` of the range
    }
}
