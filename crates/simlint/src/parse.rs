//! A lightweight recursive-descent *item and call* parser over the
//! token stream from [`crate::lexer`].
//!
//! This is deliberately not a Rust grammar. The semantic passes
//! (call-graph taint, registry rules) need exactly four things from a
//! source file: which functions it defines (with module/impl context
//! and visibility), which paths it imports, which calls each function
//! body makes, and where a short watch-list of identifiers is
//! mentioned. Everything else — expressions, types, patterns — is
//! skipped by brace matching. The parser never fails: like the lexer,
//! it degrades gracefully on code `rustc` would reject, because the
//! fixture corpus is exactly that.
//!
//! Positions where the parser is *conservative by design*:
//!
//! * nested `fn` items inside a body are not registered as symbols;
//!   their calls attribute to the enclosing function (taint still
//!   propagates, through the outer name);
//! * a tuple-struct construction `Foo(x)` is recorded as a call and
//!   simply fails to resolve (no function named `Foo`);
//! * macro invocations are not expanded; calls inside macro arguments
//!   are still visible as tokens and are recorded.

use crate::lexer::{lex, Tok, TokKind};
use crate::rules::{test_region_mask, FileInput};
use std::collections::BTreeMap;

/// One call expression inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    /// Path segments as written (`["SystemTime", "now"]`,
    /// `["helper", "stamp"]`, `["stamp"]`). For method calls this is
    /// the single method name.
    pub path: Vec<String>,
    /// True for `.name(...)` receiver calls — resolved by the
    /// trait-method dispatch fallback (any known method of that name).
    pub method: bool,
    pub line: u32,
    /// First argument when it is a bare integer literal (fuel for
    /// `exit-code-registry`: `process::exit(4)` vs `process::exit(EXIT_X)`).
    pub int_arg: Option<String>,
}

/// A watched identifier mention (used for ident-shaped taint sinks
/// such as `HashMap` or `RandomState`, which appear in type position
/// as often as in call position).
#[derive(Clone, Debug)]
pub struct Mention {
    pub ident: String,
    pub line: u32,
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

/// One `fn` item with everything the call graph needs.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Fully qualified: `crate::module::Type::name` (impl/trait
    /// methods) or `crate::module::name` (free functions).
    pub qual: String,
    /// The bare function name.
    pub name: String,
    /// Enclosing impl/trait type name, if any.
    pub type_ctx: Option<String>,
    pub line: u32,
    /// Declared `pub` (any `pub(...)` restriction counts as pub; the
    /// taint surface cares about "callable from outside this module").
    pub is_pub: bool,
    /// Defined inside an `impl` or `trait` block.
    pub is_method: bool,
    /// Inside a `#[cfg(test)]`/`#[test]` region or a test file.
    pub in_test: bool,
    pub calls: Vec<Call>,
    pub mentions: Vec<Mention>,
}

/// Parse result for one file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    pub rel_path: String,
    pub crate_name: String,
    /// Module path derived from the file's location under `src/`
    /// (`campaign/journal.rs` → `["campaign", "journal"]`; inline
    /// `mod` blocks extend it further per item).
    pub module: Vec<String>,
    /// `use` aliases: local name → absolute path segments (leading
    /// `crate`/`self`/`super` already resolved against this file).
    pub uses: BTreeMap<String, Vec<String>>,
    pub fns: Vec<FnItem>,
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

/// Parse one file. `watch` is the ident watch-list recorded into
/// [`FnItem::mentions`] (the ident-shaped taint sinks).
pub fn parse_file(input: &FileInput<'_>, watch: &[&str]) -> ParsedFile {
    let lexed = lex(input.src);
    let test_mask = test_region_mask(&lexed.tokens);
    let mut p = Parser {
        toks: &lexed.tokens,
        test_mask: &test_mask,
        input,
        watch,
        out: ParsedFile {
            rel_path: input.rel_path.to_string(),
            crate_name: input.crate_name.to_string(),
            module: module_path_of(input.rel_path),
            ..ParsedFile::default()
        },
        shape: Fnv::new(),
    };
    let end = p.toks.len();
    let module = p.out.module.clone();
    p.items(0, end, &module, None);
    p.out.shape_hash = p.shape.finish();
    p.out
}

/// Module path from the file's repo-relative location: the segments
/// between `src/` and the file name, plus the file stem (dropping
/// `lib`, `main`, and `mod`, which name their parent).
pub fn module_path_of(rel_path: &str) -> Vec<String> {
    let segs: Vec<&str> = rel_path.split('/').collect();
    let Some(src_at) = segs.iter().position(|s| *s == "src") else {
        // tests/, benches/, examples/, fixture roots: flat namespace
        // under the file stem.
        let stem = segs
            .last()
            .and_then(|f| f.strip_suffix(".rs"))
            .unwrap_or_default();
        return if stem.is_empty() {
            Vec::new()
        } else {
            vec![stem.to_string()]
        };
    };
    let mut out: Vec<String> = segs[src_at + 1..].iter().map(|s| s.to_string()).collect();
    if let Some(file) = out.pop() {
        match file.strip_suffix(".rs") {
            Some("lib") | Some("main") | Some("mod") | None => {}
            Some(stem) => out.push(stem.to_string()),
        }
    }
    out
}

struct Parser<'a> {
    toks: &'a [Tok<'a>],
    test_mask: &'a [bool],
    input: &'a FileInput<'a>,
    watch: &'a [&'a str],
    out: ParsedFile,
    shape: Fnv,
}

impl<'a> Parser<'a> {
    fn in_test(&self, i: usize) -> bool {
        self.input.is_test_file || self.test_mask.get(i).copied().unwrap_or(false)
    }

    /// Scan items in `[start, end)` with the given module path and
    /// impl/trait type context (`(type name, is trait surface)` — trait
    /// decls and trait impls expose their methods without a `pub`
    /// keyword, so the bool marks them implicitly public).
    fn items(
        &mut self,
        start: usize,
        end: usize,
        module: &[String],
        type_ctx: Option<(&str, bool)>,
    ) {
        let mut i = start;
        let mut vis_pub = false;
        while i < end {
            let t = &self.toks[i];
            if t.is_punct('#') && self.peek_punct(i + 1, '[') {
                i = self.skip_attr(i + 1) + 1;
                continue;
            }
            if t.kind != TokKind::Ident {
                // Visibility only survives across `(crate)`-style
                // restrictions, which follow `pub` immediately.
                if !(t.is_punct('(') || t.is_punct(')')) {
                    vis_pub = vis_pub && t.is_punct('(');
                }
                i += 1;
                continue;
            }
            match t.text {
                "pub" => {
                    vis_pub = true;
                    i += 1;
                    // Step over a `pub(crate)` / `pub(in path)` group.
                    if self.peek_punct(i, '(') {
                        i = self.matching(i, '(', ')') + 1;
                    }
                }
                "use" => {
                    i = self.parse_use(i + 1, module);
                    vis_pub = false;
                }
                "mod" => {
                    // `mod name { ... }` recurses; `mod name;` skips.
                    let name = self.ident_at(i + 1);
                    let mut j = i + 2;
                    while j < end && !self.toks[j].is_punct('{') && !self.toks[j].is_punct(';') {
                        j += 1;
                    }
                    if j < end && self.toks[j].is_punct('{') {
                        let close = self.matching(j, '{', '}');
                        if let Some(name) = name {
                            let mut m = module.to_vec();
                            m.push(name);
                            self.items(j + 1, close.min(end), &m, type_ctx);
                        }
                        i = close + 1;
                    } else {
                        i = j + 1;
                    }
                    vis_pub = false;
                }
                "impl" | "trait" => {
                    i = self.parse_impl_or_trait(i, end, module, t.text == "trait");
                    vis_pub = false;
                }
                "fn" => {
                    i = self.parse_fn(i, end, module, type_ctx, vis_pub);
                    vis_pub = false;
                }
                "struct" | "enum" | "union" => {
                    i = self.parse_type_item(i, end);
                    vis_pub = false;
                }
                "const" | "static" => {
                    i = self.parse_const(i, end);
                    vis_pub = false;
                }
                _ => {
                    i += 1;
                    vis_pub = false;
                }
            }
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

    /// `use a::b::{c, d as e}; use f::g::*;` — record alias → absolute
    /// segments. Returns the index after the closing `;`.
    fn parse_use(&mut self, start: usize, module: &[String]) -> usize {
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
        let prefix = self.absolutize(&prefix, module);
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
                // Glob imports are ignored: the resolver's suffix
                // fallback covers cross-crate paths without them.
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

    /// Resolve a leading `crate`/`self`/`super` against this file.
    fn absolutize(&self, segs: &[String], module: &[String]) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut rest = segs;
        match segs.first().map(String::as_str) {
            Some("crate") => {
                out.push(self.out.crate_name.clone());
                rest = &segs[1..];
            }
            Some("self") => {
                out.push(self.out.crate_name.clone());
                out.extend(module.iter().cloned());
                rest = &segs[1..];
            }
            Some("super") => {
                out.push(self.out.crate_name.clone());
                let mut m = module.to_vec();
                let mut r = segs;
                while r.first().map(String::as_str) == Some("super") {
                    m.pop();
                    r = &r[1..];
                }
                out.extend(m);
                rest = r;
            }
            _ => {}
        }
        out.extend(rest.iter().cloned());
        out
    }

    /// `impl [<..>] Type [for Trait] { .. }` / `trait Name { .. }`.
    fn parse_impl_or_trait(
        &mut self,
        kw: usize,
        end: usize,
        module: &[String],
        is_trait: bool,
    ) -> usize {
        let mut i = kw + 1;
        if self.peek_punct(i, '<') {
            i = self.skip_angles(i) + 1;
        }
        // Type name: for `impl Trait for Type`, the segment after
        // `for`; otherwise the last path segment before `{`/`where`.
        let mut last_seg: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        while i < end {
            let t = &self.toks[i];
            if t.is_punct('{') {
                break;
            }
            if t.is_ident("where") {
                // Skip the where clause to the body brace.
                while i < end && !self.toks[i].is_punct('{') {
                    if self.toks[i].is_punct('<') {
                        i = self.skip_angles(i);
                    }
                    i += 1;
                }
                break;
            }
            if t.is_ident("for") && !is_trait {
                saw_for = true;
                i += 1;
                continue;
            }
            if t.kind == TokKind::Ident {
                let name = t.text.trim_start_matches("r#").to_string();
                if saw_for {
                    // Keep the *last* segment of the for-type path.
                    after_for = Some(name);
                } else {
                    last_seg = Some(name);
                }
            }
            if t.is_punct('<') {
                i = self.skip_angles(i);
            }
            i += 1;
        }
        if i >= end || !self.toks[i].is_punct('{') {
            return i + 1;
        }
        let close = self.matching(i, '{', '}');
        let trait_surface = is_trait || saw_for;
        let ty = after_for.or(last_seg);
        self.items(
            i + 1,
            close.min(end),
            module,
            ty.as_deref().map(|t| (t, trait_surface)),
        );
        close + 1
    }

    /// `fn name(sig) [-> T] [where ..] { body }` — register the item
    /// and scan its body for calls and mentions.
    fn parse_fn(
        &mut self,
        kw: usize,
        end: usize,
        module: &[String],
        type_ctx: Option<(&str, bool)>,
        vis_pub: bool,
    ) -> usize {
        let Some(name) = self.ident_at(kw + 1) else {
            // `fn(` — a function-pointer type, not an item.
            return kw + 1;
        };
        let line = self.toks[kw].line;
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
        let mut qual: Vec<String> = vec![self.out.crate_name.clone()];
        qual.extend(module.iter().cloned());
        if let Some((ty, _)) = type_ctx {
            qual.push(ty.to_string());
        }
        qual.push(name.clone());
        let trait_surface = type_ctx.is_some_and(|(_, t)| t);
        let mut item = FnItem {
            qual: qual.join("::"),
            name,
            type_ctx: type_ctx.map(|(ty, _)| ty.to_string()),
            line,
            is_pub: vis_pub || trait_surface,
            is_method: type_ctx.is_some(),
            in_test: self.in_test(kw),
            calls: Vec::new(),
            mentions: Vec::new(),
        };
        if i < end && self.toks[i].is_punct('{') {
            let close = self.matching(i, '{', '}');
            self.scan_body(i + 1, close.min(end), &mut item);
            self.out.fns.push(item);
            close + 1
        } else {
            self.out.fns.push(item);
            i + 1
        }
    }

    /// Collect calls, watched mentions, and metric literals in a body.
    fn scan_body(&mut self, start: usize, end: usize, item: &mut FnItem) {
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
                        item.calls.push(Call {
                            path: vec![name],
                            method: true,
                            line: t.line,
                            int_arg: self.int_arg_at(j),
                        });
                    }
                    // Jump past the name (and any turbofish, whose
                    // watched idents are still recorded) so the name
                    // is not re-scanned as a path call.
                    self.record_watch_range(i + 2, j, item);
                    i = j;
                    continue;
                }
                i += 1;
                continue;
            }
            if t.kind == TokKind::Ident && !KEYWORDS.contains(&t.text) {
                let base = t.text.trim_start_matches("r#");
                if self.watch.contains(&base) {
                    item.mentions.push(Mention {
                        ident: base.to_string(),
                        line: t.line,
                    });
                }
                // Path call: `a::b::c(` (with optional turbofish).
                let mut path = vec![base.to_string()];
                let mut j = i + 1;
                while self.peek_punct(j, ':') && self.peek_punct(j + 1, ':') {
                    if self.peek_punct(j + 2, '<') {
                        let end = self.skip_angles(j + 2);
                        self.record_watch_range(j + 2, end, item);
                        j = end + 1;
                        break;
                    }
                    match self.ident_at(j + 2) {
                        Some(seg) => {
                            if self.watch.contains(&seg.as_str()) {
                                item.mentions.push(Mention {
                                    ident: seg.clone(),
                                    line: self.toks[j + 2].line,
                                });
                            }
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
                    item.calls.push(Call {
                        path,
                        method: false,
                        line: t.line,
                        int_arg: self.int_arg_at(j),
                    });
                }
                i = j.max(i + 1);
                continue;
            }
            i += 1;
        }
    }

    /// Record watched-ident mentions in the token range `[a, b)`
    /// (turbofish contents, which the main scan jumps over).
    fn record_watch_range(&self, a: usize, b: usize, item: &mut FnItem) {
        for t in self.toks.iter().take(b.min(self.toks.len())).skip(a) {
            if t.kind == TokKind::Ident && self.watch.contains(&t.text.trim_start_matches("r#")) {
                item.mentions.push(Mention {
                    ident: t.text.trim_start_matches("r#").to_string(),
                    line: t.line,
                });
            }
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
        parse_file(&input, &["HashMap", "RandomState"])
    }

    #[test]
    fn module_paths() {
        assert!(module_path_of("crates/x/src/lib.rs").is_empty());
        assert_eq!(module_path_of("crates/x/src/a.rs"), ["a"]);
        assert_eq!(module_path_of("crates/x/src/a/mod.rs"), ["a"]);
        assert_eq!(module_path_of("crates/x/src/a/b.rs"), ["a", "b"]);
        assert_eq!(module_path_of("crates/x/tests/t.rs"), ["t"]);
        assert_eq!(module_path_of("src/lib.rs"), Vec::<String>::new());
    }

    #[test]
    fn fn_items_with_context() {
        let pf = parse(
            r#"
            pub fn free() {}
            mod inner { pub fn nested() {} }
            struct S;
            impl S { pub fn method(&self) {} fn private(&self) {} }
            trait T { fn default_method(&self) { helper(); } }
            impl T for S { fn default_method(&self) {} }
            "#,
        );
        let quals: Vec<&str> = pf.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(
            quals,
            [
                "x::free",
                "x::inner::nested",
                "x::S::method",
                "x::S::private",
                "x::T::default_method",
                "x::S::default_method",
            ]
        );
        assert!(pf.fns[0].is_pub && !pf.fns[0].is_method);
        assert!(pf.fns[2].is_method);
        let t_default = &pf.fns[4];
        assert_eq!(t_default.calls.len(), 1);
        assert_eq!(t_default.calls[0].path, ["helper"]);
    }

    #[test]
    fn calls_paths_methods_and_turbofish() {
        let pf = parse(
            r#"
            fn f() {
                helper();
                util::stamp();
                std::time::SystemTime::now();
                x.method_call();
                y.collect::<Vec<_>>();
                not_a_call!{};
                maybe_macro!(arg());
            }
            "#,
        );
        let f = &pf.fns[0];
        let paths: Vec<String> = f
            .calls
            .iter()
            .map(|c| {
                if c.method {
                    format!(".{}", c.path.join("::"))
                } else {
                    c.path.join("::")
                }
            })
            .collect();
        assert!(paths.contains(&"helper".to_string()));
        assert!(paths.contains(&"util::stamp".to_string()));
        assert!(paths.contains(&"std::time::SystemTime::now".to_string()));
        assert!(paths.contains(&".method_call".to_string()));
        assert!(paths.contains(&".collect".to_string()));
        assert!(paths.contains(&"arg".to_string()), "{paths:?}");
        assert!(!paths.contains(&"not_a_call".to_string()));
        assert!(!paths.contains(&"maybe_macro".to_string()));
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
        assert_eq!(pf.uses["thing"], ["x", "sub", "thing"]);
    }

    #[test]
    fn mentions_and_test_regions() {
        let pf = parse(
            r#"
            fn hot() { let m: HashMap<u32, u32> = make(); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { let s = RandomState::new(); }
            }
            "#,
        );
        assert_eq!(pf.fns[0].mentions.len(), 1);
        assert_eq!(pf.fns[0].mentions[0].ident, "HashMap");
        let test_fn = &pf.fns[1];
        assert!(test_fn.in_test);
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
