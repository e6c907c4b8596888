//! A lightweight recursive-descent *item and call* parser over the
//! token stream from [`crate::lexer`].
//!
//! This is deliberately not a Rust grammar. The registry rules need
//! four things from a source file: the calls its function bodies make
//! (with the file's `use` aliases, to name the callee), the metric
//! names it registers, its `*_SCHEMA` consts, and the token shape of
//! its record types. Everything else — expressions, types, patterns —
//! is skipped by brace matching. The parser never fails: like the
//! lexer, it degrades gracefully on code `rustc` would reject, because
//! the fixture corpus is exactly that.
//!
//! Positions where the parser is *conservative by design*:
//!
//! * a tuple-struct construction `Foo(x)` is recorded as a call (no
//!   rule looks for a function named `Foo`);
//! * macro invocations are not expanded; calls inside macro arguments
//!   are still visible as tokens and are recorded.

use crate::lexer::{lex, Tok, TokKind};
use crate::rules::{test_region_mask, FileInput};
use std::collections::BTreeMap;

/// One call expression inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    /// Path segments as written (`["process", "exit"]`, `["exit"]`).
    /// For method calls this is the single method name.
    pub path: Vec<String>,
    /// True for `.name(...)` receiver calls.
    pub method: bool,
    pub line: u32,
    /// First argument when it is a bare integer literal (fuel for
    /// `exit-code-registry`: `process::exit(4)` vs `process::exit(EXIT_X)`).
    pub int_arg: Option<String>,
    /// Inside a `#[cfg(test)]`/`#[test]` function or a test file.
    pub in_test: bool,
}

/// A string literal passed as the first argument to one of the
/// metric-registration methods (`counter_add`/`gauge_set`/`observe`,
/// or the handle-resolving `counter_handle`/`histogram_handle`), or
/// bound to a `*_METRIC` const. Fuel for `metric-name-registry`.
#[derive(Clone, Debug)]
pub struct MetricLit {
    /// The literal content without quotes.
    pub name: String,
    pub line: u32,
    /// True when the registration sits in test code.
    pub in_test: bool,
}

/// Parse result for one file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    pub rel_path: String,
    pub crate_name: String,
    /// `use` aliases: local name → path segments as imported
    /// (`use std::process::exit as quit` → `quit` → `std::process::exit`).
    pub uses: BTreeMap<String, Vec<String>>,
    /// Every call in every function body, in source order.
    pub calls: Vec<Call>,
    pub metric_lits: Vec<MetricLit>,
    /// Consts whose name contains `SCHEMA` with an integer value
    /// (fuel for `schema-version-bump`).
    pub schema_consts: Vec<(String, String)>,
    /// FNV-1a hash over the token shape of every struct/enum item in
    /// the file (fuel for `schema-version-bump`).
    pub shape_hash: u64,
}

/// Identifiers that can never start a call path.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "trait", "true", "type", "unsafe", "use",
    "where", "while", "yield",
];

const METRIC_METHODS: &[&str] = &[
    "counter_add",
    "gauge_set",
    "observe",
    "counter_handle",
    "histogram_handle",
];

/// Parse one file.
pub fn parse_file(input: &FileInput<'_>) -> ParsedFile {
    let lexed = lex(input.src);
    let test_mask = test_region_mask(&lexed.tokens);
    let mut p = Parser {
        toks: &lexed.tokens,
        test_mask: &test_mask,
        input,
        out: ParsedFile {
            rel_path: input.rel_path.to_string(),
            crate_name: input.crate_name.to_string(),
            ..ParsedFile::default()
        },
        shape: Fnv::new(),
    };
    let end = p.toks.len();
    p.items(0, end);
    p.out.shape_hash = p.shape.finish();
    p.out
}

struct Parser<'a> {
    toks: &'a [Tok<'a>],
    test_mask: &'a [bool],
    input: &'a FileInput<'a>,
    out: ParsedFile,
    shape: Fnv,
}

impl<'a> Parser<'a> {
    fn in_test(&self, i: usize) -> bool {
        self.input.is_test_file || self.test_mask.get(i).copied().unwrap_or(false)
    }

    /// Scan items in `[start, end)`, descending into `mod`, `impl` and
    /// `trait` blocks.
    fn items(&mut self, start: usize, end: usize) {
        let mut i = start;
        while i < end {
            let t = &self.toks[i];
            if t.is_punct('#') && self.peek_punct(i + 1, '[') {
                i = self.skip_attr(i + 1) + 1;
                continue;
            }
            if t.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            i = match t.text {
                "use" => self.parse_use(i + 1),
                "mod" | "impl" | "trait" => self.parse_block_item(i, end),
                "fn" => self.parse_fn(i, end),
                "struct" | "enum" | "union" => self.parse_type_item(i, end),
                "const" | "static" => self.parse_const(i, end),
                _ => i + 1,
            };
        }
    }

    fn peek_punct(&self, i: usize, c: char) -> bool {
        self.toks.get(i).is_some_and(|t| t.is_punct(c))
    }

    fn ident_at(&self, i: usize) -> Option<String> {
        self.toks.get(i).and_then(|t| {
            (t.kind == TokKind::Ident).then(|| t.text.trim_start_matches("r#").to_string())
        })
    }

    /// From the opening delimiter at `open`, index of its match.
    fn matching(&self, open: usize, oc: char, cc: char) -> usize {
        let mut depth = 0i32;
        for (i, t) in self.toks.iter().enumerate().skip(open) {
            if t.is_punct(oc) {
                depth += 1;
            } else if t.is_punct(cc) {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        self.toks.len().saturating_sub(1)
    }

    /// From the `[` of an attribute, index of the closing `]`.
    fn skip_attr(&self, open: usize) -> usize {
        self.matching(open, '[', ']')
    }

    /// Skip a balanced `<...>` generics group starting at `open`
    /// (which must be `<`). `->` arrows inside do not close angles.
    fn skip_angles(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < self.toks.len() {
            let t = &self.toks[i];
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                if i > 0 && self.toks[i - 1].is_punct('-') {
                    // `->` return arrow.
                } else {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
            } else if t.is_punct('(') {
                i = self.matching(i, '(', ')');
            } else if t.is_punct('{') {
                // A brace inside generics means we overran a malformed
                // item; bail rather than eat the file.
                return i.saturating_sub(1);
            }
            i += 1;
        }
        self.toks.len().saturating_sub(1)
    }

    /// `use a::b::{c, d as e}; use f::g::*;` — record alias → imported
    /// path. Returns the index after the closing `;`.
    fn parse_use(&mut self, start: usize) -> usize {
        // Collect the prefix path up to `{`, `;`, or `*`.
        let mut i = start;
        let mut prefix: Vec<String> = Vec::new();
        loop {
            match self.toks.get(i) {
                Some(t) if t.kind == TokKind::Ident && t.text != "as" => {
                    prefix.push(t.text.trim_start_matches("r#").to_string());
                    i += 1;
                    if self.peek_punct(i, ':') && self.peek_punct(i + 1, ':') {
                        i += 2;
                        continue;
                    }
                    break;
                }
                _ => break,
            }
        }
        match self.toks.get(i) {
            Some(t) if t.is_punct('{') => {
                let close = self.matching(i, '{', '}');
                // Within the group: comma-separated subtrees. Nested
                // groups are handled one level deep (that is all the
                // workspace uses); deeper nesting records the leaf.
                let mut j = i + 1;
                let mut path = prefix.clone();
                while j <= close {
                    let t = &self.toks[j];
                    if t.kind == TokKind::Ident && t.text != "as" {
                        let leaf = t.text.trim_start_matches("r#").to_string();
                        path.push(leaf.clone());
                        if self.peek_punct(j + 1, ':') && self.peek_punct(j + 2, ':') {
                            j += 3;
                            continue;
                        }
                        // `as alias`?
                        if self.toks.get(j + 1).is_some_and(|n| n.is_ident("as")) {
                            if let Some(alias) = self.ident_at(j + 2) {
                                self.out.uses.insert(alias, path.clone());
                            }
                            j += 3;
                        } else {
                            let name = if leaf == "self" {
                                path.pop();
                                path.last().cloned()
                            } else {
                                Some(leaf)
                            };
                            if let Some(name) = name {
                                self.out.uses.insert(name, path.clone());
                            }
                            j += 1;
                        }
                        // Reset for the next comma-separated subtree.
                        while j <= close
                            && !self.toks[j].is_punct(',')
                            && !self.toks[j].is_punct('}')
                        {
                            j += 1;
                        }
                        path = prefix.clone();
                        j += 1;
                    } else {
                        j += 1;
                    }
                }
                i = close + 1;
            }
            Some(t) if t.is_punct('*') => {
                // Glob imports name nothing to alias.
                i += 1;
            }
            Some(t) if t.is_ident("as") => {
                if let Some(alias) = self.ident_at(i + 1) {
                    self.out.uses.insert(alias, prefix.clone());
                }
                i += 2;
            }
            _ => {
                if let Some(last) = prefix.last() {
                    self.out.uses.insert(last.clone(), prefix.clone());
                }
            }
        }
        while i < self.toks.len() && !self.toks[i].is_punct(';') {
            i += 1;
        }
        i + 1
    }

    /// `mod name { .. }`, `impl .. { .. }`, `trait .. { .. }`: recurse
    /// into the body; `mod name;` skips.
    fn parse_block_item(&mut self, kw: usize, end: usize) -> usize {
        let is_mod = self.toks[kw].is_ident("mod");
        let mut i = kw + 1;
        while i < end && !self.toks[i].is_punct('{') && !(is_mod && self.toks[i].is_punct(';')) {
            if self.toks[i].is_punct('<') {
                i = self.skip_angles(i);
            }
            i += 1;
        }
        if i >= end || !self.toks[i].is_punct('{') {
            return i + 1;
        }
        let close = self.matching(i, '{', '}');
        self.items(i + 1, close.min(end));
        close + 1
    }

    /// `fn name(sig) [-> T] [where ..] { body }` — scan the body for
    /// calls.
    fn parse_fn(&mut self, kw: usize, end: usize) -> usize {
        if self.ident_at(kw + 1).is_none() {
            // `fn(` — a function-pointer type, not an item.
            return kw + 1;
        }
        let mut i = kw + 2;
        // Signature: skip to the body `{` or a bodyless `;`, balancing
        // parens and generics.
        while i < end {
            let t = &self.toks[i];
            if t.is_punct('(') {
                i = self.matching(i, '(', ')') + 1;
                continue;
            }
            if t.is_punct('<') {
                i = self.skip_angles(i) + 1;
                continue;
            }
            if t.is_punct('{') || t.is_punct(';') {
                break;
            }
            i += 1;
        }
        if i < end && self.toks[i].is_punct('{') {
            let close = self.matching(i, '{', '}');
            self.scan_body(i + 1, close.min(end), self.in_test(kw));
            close + 1
        } else {
            i + 1
        }
    }

    /// Collect calls and metric literals in a body.
    fn scan_body(&mut self, start: usize, end: usize, in_test: bool) {
        let mut i = start;
        while i < end {
            let t = &self.toks[i];
            // Method call: `.name(` or `.name::<..>(`.
            if t.is_punct('.') {
                if let Some(name) = self.ident_at(i + 1) {
                    let mut j = i + 2;
                    if self.peek_punct(j, ':')
                        && self.peek_punct(j + 1, ':')
                        && self.peek_punct(j + 2, '<')
                    {
                        j = self.skip_angles(j + 2) + 1;
                    }
                    if self.peek_punct(j, '(') {
                        self.record_metric_lit(&name, j, self.in_test(i));
                        self.out.calls.push(Call {
                            path: vec![name],
                            method: true,
                            line: t.line,
                            int_arg: self.int_arg_at(j),
                            in_test,
                        });
                    }
                    // Jump past the name (and any turbofish) so the
                    // name is not re-scanned as a path call.
                    i = j;
                    continue;
                }
                i += 1;
                continue;
            }
            if t.kind == TokKind::Ident && !KEYWORDS.contains(&t.text) {
                let base = t.text.trim_start_matches("r#");
                // Path call: `a::b::c(` (with optional turbofish).
                let mut path = vec![base.to_string()];
                let mut j = i + 1;
                while self.peek_punct(j, ':') && self.peek_punct(j + 1, ':') {
                    if self.peek_punct(j + 2, '<') {
                        j = self.skip_angles(j + 2) + 1;
                        break;
                    }
                    match self.ident_at(j + 2) {
                        Some(seg) => {
                            path.push(seg);
                            j += 3;
                        }
                        None => break,
                    }
                }
                let is_macro = self.peek_punct(j, '!');
                if self.peek_punct(j, '(') && !is_macro {
                    self.record_metric_lit(
                        path.last().unwrap_or(&String::new()).as_str(),
                        j,
                        self.in_test(i),
                    );
                    self.out.calls.push(Call {
                        path,
                        method: false,
                        line: t.line,
                        int_arg: self.int_arg_at(j),
                        in_test,
                    });
                }
                i = j.max(i + 1);
                continue;
            }
            i += 1;
        }
    }

    /// The token after the `(` at `open`, when it is a bare integer
    /// literal forming the whole first argument.
    fn int_arg_at(&self, open: usize) -> Option<String> {
        let t = self.toks.get(open + 1)?;
        if t.kind != TokKind::Literal
            || !t.text.chars().all(|c| c.is_ascii_digit() || c == '_')
            || t.text.is_empty()
        {
            return None;
        }
        let next = self.toks.get(open + 2)?;
        (next.is_punct(')') || next.is_punct(',')).then(|| t.text.to_string())
    }

    /// If `name` is a metric-registration method and the token after
    /// the `(` at `open` is a string literal, record it.
    fn record_metric_lit(&mut self, name: &str, open: usize, in_test: bool) {
        if !METRIC_METHODS.contains(&name) {
            return;
        }
        if let Some(t) = self.toks.get(open + 1) {
            if t.kind == TokKind::Literal && t.text.starts_with('"') {
                self.out.metric_lits.push(MetricLit {
                    name: t.text.trim_matches('"').to_string(),
                    line: t.line,
                    in_test,
                });
            }
        }
    }

    /// `struct`/`enum`/`union` item: fold its token shape into the
    /// file's shape hash (non-test items only) and skip its body.
    fn parse_type_item(&mut self, kw: usize, end: usize) -> usize {
        let mut i = kw + 1;
        // Find the body `{`, a tuple-struct `(`, or a unit `;`.
        while i < end {
            let t = &self.toks[i];
            if t.is_punct('<') {
                i = self.skip_angles(i) + 1;
                continue;
            }
            if t.is_punct('{') || t.is_punct('(') || t.is_punct(';') {
                break;
            }
            i += 1;
        }
        let close = if i < end && self.toks[i].is_punct('{') {
            self.matching(i, '{', '}')
        } else if i < end && self.toks[i].is_punct('(') {
            let mut j = self.matching(i, '(', ')');
            while j < self.toks.len() && !self.toks[j].is_punct(';') {
                j += 1;
            }
            j
        } else {
            i
        };
        if !self.in_test(kw) {
            for t in &self.toks[kw..=close.min(self.toks.len() - 1)] {
                self.shape.write(t.text.as_bytes());
                self.shape.write(&[0xFF]);
            }
        }
        close + 1
    }

    /// `const NAME: T = value;` — record `*SCHEMA*` integer consts.
    fn parse_const(&mut self, kw: usize, end: usize) -> usize {
        let Some(name) = self.ident_at(kw + 1) else {
            return kw + 1;
        };
        let mut i = kw + 2;
        let mut value: Option<String> = None;
        while i < end && !self.toks[i].is_punct(';') {
            if self.toks[i].is_punct('=') {
                if let Some(v) = self.toks.get(i + 1) {
                    if v.kind == TokKind::Literal {
                        value = Some(v.text.to_string());
                    }
                }
            }
            if self.toks[i].is_punct('{') {
                i = self.matching(i, '{', '}');
            }
            i += 1;
        }
        if name.contains("SCHEMA") && !self.in_test(kw) {
            if let Some(v) = value {
                if v.chars().all(|c| c.is_ascii_digit() || c == '_') {
                    self.out.schema_consts.push((name, v));
                }
            }
        }
        i + 1
    }
}

/// FNV-1a 64: tiny, deterministic, good enough for shape hashing.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        let input = FileInput {
            rel_path: "crates/x/src/lib.rs",
            crate_name: "x",
            is_test_file: false,
            src,
        };
        parse_file(&input)
    }

    fn call_names(pf: &ParsedFile) -> Vec<String> {
        pf.calls
            .iter()
            .map(|c| {
                if c.method {
                    format!(".{}", c.path.join("::"))
                } else {
                    c.path.join("::")
                }
            })
            .collect()
    }

    #[test]
    fn bodies_are_found_in_every_item_context() {
        let pf = parse(
            r#"
            pub fn free() { a(); }
            mod inner { pub fn nested() { b(); } }
            mod elsewhere;
            struct S;
            impl<T> S<T> where T: Fn() -> u8 { pub fn method(&self) { c(); } }
            trait T { fn default_method(&self) { d(); } fn required(&self); }
            impl T for [u8; 4] { fn default_method(&self) { e(); } }
            #[cfg(test)]
            mod tests { #[test] fn t() { f(); } }
            "#,
        );
        assert_eq!(call_names(&pf), ["a", "b", "c", "d", "e", "f"]);
        let in_test: Vec<bool> = pf.calls.iter().map(|c| c.in_test).collect();
        assert_eq!(in_test, [false, false, false, false, false, true]);
    }

    #[test]
    fn calls_paths_methods_and_turbofish() {
        let pf = parse(
            r#"
            fn f() {
                helper();
                util::stamp();
                std::process::exit(4);
                x.method_call();
                y.collect::<Vec<_>>();
                not_a_call!{};
                maybe_macro!(arg());
            }
            "#,
        );
        let paths = call_names(&pf);
        assert!(paths.contains(&"helper".to_string()));
        assert!(paths.contains(&"util::stamp".to_string()));
        assert!(paths.contains(&"std::process::exit".to_string()));
        assert!(paths.contains(&".method_call".to_string()));
        assert!(paths.contains(&".collect".to_string()));
        assert!(paths.contains(&"arg".to_string()), "{paths:?}");
        assert!(!paths.contains(&"not_a_call".to_string()));
        assert!(!paths.contains(&"maybe_macro".to_string()));
        let exit = pf
            .calls
            .iter()
            .find(|c| c.path.last().is_some_and(|s| s == "exit"));
        assert_eq!(exit.and_then(|c| c.int_arg.as_deref()), Some("4"));
    }

    #[test]
    fn uses_resolve_aliases_and_groups() {
        let pf = parse(
            r#"
            use std::collections::BTreeMap;
            use helper::{stamp, clock as wall};
            use crate::sub::thing;
            "#,
        );
        assert_eq!(pf.uses["BTreeMap"], ["std", "collections", "BTreeMap"]);
        assert_eq!(pf.uses["stamp"], ["helper", "stamp"]);
        assert_eq!(pf.uses["wall"], ["helper", "clock"]);
        assert_eq!(pf.uses["thing"], ["crate", "sub", "thing"]);
    }

    #[test]
    fn schema_consts_and_shape_hash() {
        let a = parse("const FOO_SCHEMA: u32 = 2;\npub struct R { a: u32 }\n");
        assert_eq!(
            a.schema_consts,
            [("FOO_SCHEMA".to_string(), "2".to_string())]
        );
        let b = parse("const FOO_SCHEMA: u32 = 2;\npub struct R { a: u32, b: u64 }\n");
        assert_ne!(
            a.shape_hash, b.shape_hash,
            "field edits must move the shape"
        );
        let c = parse("const FOO_SCHEMA: u32 = 3;\npub struct R { a: u32 }\n");
        assert_eq!(
            a.shape_hash, c.shape_hash,
            "const edits must not move the shape"
        );
    }

    #[test]
    fn metric_literals() {
        let pf = parse(
            r#"
            fn record(m: &mut R) {
                m.counter_add("tcp_retx_total", Labels::new(), 1);
                m.gauge_set("campaign_degraded", labels([]), 1.0);
                m.observe("queue_depth_bytes", l, 42);
                m.counter_add(variable_name, l, 1);
                let id = *slot.get_or_insert_with(|| m.counter_handle("tcp_rto_total", l));
                m.counter_add_at(id, 1);
                let h = m.histogram_handle("tcp_rtt_ns", l);
            }
            "#,
        );
        let names: Vec<&str> = pf.metric_lits.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "tcp_retx_total",
                "campaign_degraded",
                "queue_depth_bytes",
                "tcp_rto_total",
                "tcp_rtt_ns"
            ]
        );
    }
}
