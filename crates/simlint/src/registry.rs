//! The registry rules: three checks on the same token stream as the rules
//! in [`crate::rules`], two of which also compare files with one another.
//!
//! * `exit-code-registry` — every `process::exit` argument must be a
//!   named constant (the exit-code table in `greenenvy::exitcode`, or a
//!   binary-local table), never an integer literal. Exit codes are part
//!   of the scripted interface (`bench`'s `tests/cli.rs` holds the
//!   binary to 4 and 5); a literal in one binary drifts silently.
//! * `schema-version-bump` — persisted record layouts (journal, matrix,
//!   suite verdict) are fingerprinted into `schema.lock` alongside
//!   their `*_SCHEMA` const values; editing a struct without bumping
//!   the const (and refreshing the lock) is an error.
//! * `metric-name-registry` — Prometheus metric names must be
//!   snake_case, carry a registered prefix, and be owned by exactly one
//!   crate.
//!
//! A workspace run hands every file's tokens to [`Registry::visit`],
//! which reports that file's literal exit codes and keeps what the two
//! cross-file checks need: who registers which metric name, and each
//! tracked record file's schema state. [`Registry::finish`] then runs
//! those checks over what was kept, sorted first, so the result is a
//! pure function of the file *set* (the walk-order proptest pins it).

use crate::config::{Config, RuleConfig};
use crate::diag::{Diagnostic, Severity};
use crate::lexer::{Tok, TokKind};
use crate::rules::{
    in_use_item, item_end, matching_brace, path_sep, punct_at, rule_applies, FileInput,
};
use std::collections::BTreeMap;

/// One string literal passed to a metric-registration method.
struct MetricSite {
    path: String,
    crate_name: String,
    name: String,
    line: u32,
}

/// The registry rules' scopes and what they have seen so far.
pub(crate) struct Registry {
    exit: RuleConfig,
    schema: RuleConfig,
    metrics: RuleConfig,
    sites: Vec<MetricSite>,
    /// Schema state of every tracked record file visited, by path.
    pub(crate) state: BTreeMap<String, SchemaEntry>,
}

fn finding(rule: &'static str, path: &str, line: u32, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        severity: Severity::Error,
        path: path.to_string(),
        line,
        col: 1,
        message,
        suppressed: None,
    }
}

impl Registry {
    pub(crate) fn new(cfg: &Config) -> Registry {
        Registry {
            exit: cfg.rule("exit-code-registry"),
            schema: cfg.rule("schema-version-bump"),
            metrics: cfg.rule("metric-name-registry"),
            sites: Vec::new(),
            state: BTreeMap::new(),
        }
    }

    /// Read one file's tokens (`test_mask` as from
    /// [`crate::rules::test_region_mask`]).
    pub(crate) fn visit(
        &mut self,
        input: &FileInput<'_>,
        toks: &[Tok<'_>],
        test_mask: &[bool],
        out: &mut Vec<Diagnostic>,
    ) {
        let in_test = |i: usize| input.is_test_file || test_mask[i];
        let applies = |rc: &RuleConfig| rule_applies(rc, input.crate_name, input.rel_path);
        if applies(&self.exit) {
            for (i, lit) in exit_literals(toks) {
                if in_test(i) {
                    continue;
                }
                out.push(finding(
                    "exit-code-registry",
                    input.rel_path,
                    toks[i].line,
                    format!(
                        "process::exit({lit}) uses a literal; name it in the exit-code registry (greenenvy::exitcode) instead"
                    ),
                ));
            }
        }
        if applies(&self.metrics) {
            for (i, lit) in metric_literals(toks) {
                if in_test(i) {
                    continue;
                }
                self.sites.push(MetricSite {
                    path: input.rel_path.to_string(),
                    crate_name: input.crate_name.to_string(),
                    name: lit.text.trim_matches('"').to_string(),
                    line: lit.line,
                });
            }
        }
        // Tracking is strictly opt-in: with no `paths`/`crates` the rule
        // tracks nothing — most files are not persisted-record files, so
        // "no *_SCHEMA const" would be noise, not a finding.
        let scoped = !(self.schema.paths.is_empty() && self.schema.crates.is_empty());
        if scoped && applies(&self.schema) {
            let entry = schema_entry(toks, in_test);
            self.state.insert(input.rel_path.to_string(), entry);
        }
    }

    /// The cross-file checks. `lock_text` is the current `schema.lock`
    /// content (None: file absent); the caller does the IO.
    pub(crate) fn finish(mut self, lock_text: Option<&str>, out: &mut Vec<Diagnostic>) {
        self.metric_names(out);
        self.schema_bump(lock_text, out);
    }
}

/// An integer literal in any spelling: `4`, `1_0`, `4i32`, `0x04`.
fn is_int(t: &Tok<'_>) -> bool {
    t.kind == TokKind::Literal
        && t.text.starts_with(|c: char| c.is_ascii_digit())
        && !t.text.contains('.')
}

// ---------------------------------------------------------------------
// exit-code-registry
// ---------------------------------------------------------------------

/// Every `process::exit(<integer literal>)`: the index of the callee
/// token and the literal as written. The function is recognised under
/// every local name the file's `use` items give it or its module
/// (`use std::process::exit as quit`, `use std::process::{exit}`,
/// `use std::process::*`, `use std::process as sys`) and written out.
fn exit_literals(toks: &[Tok<'_>]) -> Vec<(usize, String)> {
    // In a `use` item, the name the path segment at `j` is bound to.
    let local_name = |j: usize| match toks.get(j + 2) {
        Some(alias) if toks[j + 1].is_ident("as") => alias.text,
        _ => toks[j].text,
    };
    let (mut fns, mut modules) = (Vec::new(), vec!["process"]);
    for i in 0..toks.len() {
        if !(toks[i].is_ident("process") && in_use_item(toks, i)) {
            continue;
        }
        modules.push(local_name(i));
        if !path_sep(toks, i + 1) {
            continue;
        }
        match toks.get(i + 3) {
            Some(t) if t.is_ident("exit") => fns.push(local_name(i + 3)),
            Some(t) if t.is_punct('*') => fns.push("exit"),
            Some(t) if t.is_punct('{') => {
                let group = i + 4..matching_brace(toks, i + 3);
                fns.extend(group.filter(|&j| toks[j].is_ident("exit")).map(local_name));
            }
            _ => {}
        }
    }

    let mut found = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || !punct_at(toks, i + 1, '(') {
            continue;
        }
        // `module::exit(`, or a bare `exit(` that is no method call.
        let callee = if i >= 3 && path_sep(toks, i - 2) {
            toks[i].is_ident("exit") && modules.contains(&toks[i - 3].text)
        } else {
            fns.contains(&toks[i].text) && !(i > 0 && toks[i - 1].is_punct('.'))
        };
        let negative = punct_at(toks, i + 2, '-');
        let arg = i + 2 + usize::from(negative);
        // The literal must be the whole argument: `exit(1 + 1)` passes.
        let whole = punct_at(toks, arg + 1, ')') || punct_at(toks, arg + 1, ',');
        if callee && whole && toks.get(arg).is_some_and(is_int) {
            let sign = if negative { "-" } else { "" };
            found.push((i, format!("{sign}{}", toks[arg].text)));
        }
    }
    found
}

// ---------------------------------------------------------------------
// schema-version-bump
// ---------------------------------------------------------------------

/// Name of the lock file at the workspace root.
pub const SCHEMA_LOCK: &str = "schema.lock";

/// Recorded state of one tracked file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaEntry {
    pub shape_hash: u64,
    /// `*_SCHEMA` const name → literal value, sorted.
    pub consts: BTreeMap<String, String>,
}

/// Render the lock file, deterministic.
pub fn render_lock(state: &BTreeMap<String, SchemaEntry>) -> String {
    let mut s = String::from(
        "# simlint schema.lock v1 — record-struct fingerprints for schema-version-bump.\n\
         # Regenerate with `simlint --update-schema-lock` after bumping the *_SCHEMA const.\n",
    );
    for (path, e) in state {
        s.push_str(&format!("{path} shape={:016x}", e.shape_hash));
        for (k, v) in &e.consts {
            s.push_str(&format!(" {k}={v}"));
        }
        s.push('\n');
    }
    s
}

/// Parse a lock file (unknown lines are errors — the lock is machine-written).
pub fn parse_lock(text: &str) -> Result<BTreeMap<String, SchemaEntry>, String> {
    let mut out = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let path = parts
            .next()
            .ok_or_else(|| format!("{SCHEMA_LOCK}:{}: empty entry", n + 1))?;
        let shape = parts
            .next()
            .and_then(|p| p.strip_prefix("shape="))
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("{SCHEMA_LOCK}:{}: expected shape=<hex>", n + 1))?;
        let mut consts = BTreeMap::new();
        for p in parts {
            let (k, v) = p
                .split_once('=')
                .ok_or_else(|| format!("{SCHEMA_LOCK}:{}: expected NAME=value", n + 1))?;
            consts.insert(k.to_string(), v.to_string());
        }
        out.insert(
            path.to_string(),
            SchemaEntry {
                shape_hash: shape,
                consts,
            },
        );
    }
    Ok(out)
}

/// FNV-1a 64: tiny, deterministic, good enough for shape hashing.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Schema state of one file: the hash over the token run of every
/// non-test `struct`/`enum`/`union` item, and its non-test `*SCHEMA*`
/// consts with an integer value.
fn schema_entry(toks: &[Tok<'_>], in_test: impl Fn(usize) -> bool) -> SchemaEntry {
    let mut shape_hash = 0xcbf2_9ce4_8422_2325;
    let mut consts = BTreeMap::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        let (kw, name) = (&toks[i], &toks[i + 1]);
        // `x.union(&y)` and `fn(..)` types are not items: an item is named.
        if in_test(i) || kw.kind != TokKind::Ident || name.kind != TokKind::Ident {
            i += 1;
        } else if ["struct", "enum", "union"].contains(&kw.text) {
            let end = item_end(toks, i);
            for t in &toks[i..=end] {
                shape_hash = fnv1a(fnv1a(shape_hash, t.text.as_bytes()), &[0xFF]);
            }
            i = end + 1;
        } else {
            if ["const", "static"].contains(&kw.text) && name.text.contains("SCHEMA") {
                let value = (i + 2..toks.len())
                    .take_while(|&j| !toks[j].is_punct(';'))
                    .find(|&j| toks[j].is_punct('='))
                    .and_then(|eq| toks.get(eq + 1));
                if let Some(v) = value.filter(|v| is_int(v)) {
                    consts.insert(name.text.to_string(), v.text.to_string());
                }
            }
            i += 1;
        }
    }
    SchemaEntry { shape_hash, consts }
}

impl Registry {
    /// Compare the tracked files' state against the lock.
    fn schema_bump(&self, lock_text: Option<&str>, out: &mut Vec<Diagnostic>) {
        if self.state.is_empty() {
            return; // rule disabled, or not scoped to any present file
        }
        let mut diag = |path: &str, msg: String| {
            out.push(finding("schema-version-bump", path, 1, msg));
        };
        let lock = match lock_text.map(parse_lock) {
            Some(Ok(lock)) => lock,
            Some(Err(e)) => return diag(SCHEMA_LOCK, format!("unreadable {SCHEMA_LOCK}: {e}")),
            None => BTreeMap::new(),
        };
        for (path, cur) in &self.state {
            if cur.consts.is_empty() {
                diag(
                    path,
                    "tracked record file defines no *_SCHEMA const; persisted layouts must be versioned"
                        .into(),
                );
                continue;
            }
            match lock.get(path) {
                None => diag(
                    path,
                    format!("not recorded in {SCHEMA_LOCK}; run `simlint --update-schema-lock`"),
                ),
                Some(locked) => {
                    if locked.shape_hash != cur.shape_hash && locked.consts == cur.consts {
                        diag(
                            path,
                            format!(
                                "record structs changed but {} did not; bump the schema const and refresh {SCHEMA_LOCK}",
                                cur.consts.keys().cloned().collect::<Vec<_>>().join("/"),
                            ),
                        );
                    } else if locked != cur {
                        diag(
                            path,
                            format!(
                                "{SCHEMA_LOCK} is stale for this file; run `simlint --update-schema-lock`"
                            ),
                        );
                    }
                }
            }
        }
        // Entries for files that vanished (or fell out of scope) are stale.
        for path in lock.keys() {
            if !self.state.contains_key(path) {
                diag(
                    path,
                    format!(
                        "{SCHEMA_LOCK} entry no longer matches a tracked file; run `simlint --update-schema-lock`"
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// metric-name-registry
// ---------------------------------------------------------------------

const METRIC_METHODS: &[&str] = &[
    "counter_add",
    "gauge_set",
    "observe",
    "counter_handle",
    "histogram_handle",
];

/// Every string literal that is the first argument of a
/// metric-registration call (names resolved to handles are checked at
/// the resolving call), with the index of the method name.
fn metric_literals<'a, 't>(toks: &'a [Tok<'t>]) -> impl Iterator<Item = (usize, &'a Tok<'t>)> {
    toks.windows(3).enumerate().filter_map(|(i, w)| {
        let call = w[0].kind == TokKind::Ident
            && METRIC_METHODS.contains(&w[0].text)
            && w[1].is_punct('(');
        let literal = w[2].kind == TokKind::Literal && w[2].text.starts_with('"');
        (call && literal).then_some((i, &w[2]))
    })
}

impl Registry {
    fn metric_names(&mut self, out: &mut Vec<Diagnostic>) {
        // Deterministic site order: files sorted by path (the sort is
        // stable, so a file's literals stay in source order).
        self.sites.sort_by(|a, b| a.path.cmp(&b.path));
        let rc = &self.metrics;
        let mut owner: BTreeMap<&str, &str> = BTreeMap::new(); // name → first crate
        let mut diag = |m: &MetricSite, msg: String| {
            out.push(finding("metric-name-registry", &m.path, m.line, msg));
        };
        for m in &self.sites {
            let snake = m
                .name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                && m.name.starts_with(|c: char| c.is_ascii_lowercase());
            if !snake {
                diag(m, format!("metric name `{}` is not snake_case", m.name));
                continue;
            }
            if !rc.prefixes.is_empty()
                && !rc.prefixes.iter().any(|p| m.name.starts_with(p.as_str()))
            {
                diag(
                    m,
                    format!(
                        "metric name `{}` lacks a registered prefix (expected one of: {})",
                        m.name,
                        rc.prefixes.join(", ")
                    ),
                );
            }
            match owner.get(m.name.as_str()) {
                None => {
                    owner.insert(m.name.as_str(), m.crate_name.as_str());
                }
                Some(own) if *own != m.crate_name.as_str() => diag(
                    m,
                    format!(
                        "metric `{}` is already owned by crate `{own}`; a metric name must belong to one crate",
                        m.name
                    ),
                ),
                Some(_) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::{lint_loaded, schema_state, LoadedFile};

    fn file(rel_path: &str, crate_name: &str, src: &str) -> LoadedFile {
        LoadedFile {
            rel_path: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            is_test_file: false,
            src: src.to_string(),
        }
    }

    /// A config that says `rc` about `rule` and nothing else.
    fn config(rule: &str, rc: RuleConfig) -> Config {
        Config {
            rules: BTreeMap::from([(rule.to_string(), rc)]),
            ..Config::default()
        }
    }

    /// What a workspace run over `files` reports under `rule`: lines and messages.
    fn lint(
        files: &[LoadedFile],
        cfg: &Config,
        lock: Option<&str>,
        rule: &str,
    ) -> Vec<(u32, String)> {
        let report = lint_loaded(files, cfg, lock);
        let of_rule = report.diags.into_iter().filter(|d| d.rule == rule);
        of_rule.map(|d| (d.line, d.message)).collect()
    }

    /// The literals `exit-code-registry` would report in `src`.
    fn exit_codes(src: &str) -> Vec<String> {
        let codes = exit_literals(&lex(src).tokens);
        codes.into_iter().map(|(_, lit)| lit).collect()
    }

    //= DESIGN.md#inv-exit-code-registry
    #[test]
    fn literal_exit_codes_flagged_constants_pass() {
        let files = [file(
            "crates/bench/src/bin/x.rs",
            "bench",
            "use std::process::exit as quit;\n\
             fn main() { if bad() { std::process::exit(4); } std::process::exit(CODE); }\n\
             fn other() { quit(5); my::exit(6); x.exit(7); }\n",
        )];
        let found = lint(&files, &Config::default(), None, "exit-code-registry");
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(
            found[0].1.contains("process::exit(4)") && found[0].0 == 2,
            "{found:?}"
        );
        assert!(
            found[1].1.contains("process::exit(5)") && found[1].0 == 3,
            "{found:?}"
        );
    }

    #[test]
    fn every_integer_literal_form_is_a_literal() {
        let src = "fn f() { std::process::exit(4i32); process::exit(0x04); process::exit(-1);\n\
                   process::exit(1_0); process::exit(-0b1_i32); process::exit(2 + 2);\n\
                   process::exit(-CODE); process::exit(\"4\"); process::exit(1.5); }";
        assert_eq!(exit_codes(src), ["4i32", "0x04", "-1", "1_0", "-0b1_i32"]);
    }

    #[test]
    fn use_items_name_process_exit() {
        let src = "use std::process::{self, exit as bail, Command};\n\
                   use std::process as sys;\n\
                   use helper::{stamp, exit as leave};\n\
                   fn f() { bail(1); sys::exit(2); process::exit(3); leave(4); exit(5); }";
        assert_eq!(exit_codes(src), ["1", "2", "3"]);
        let src = "mod a { use std::process::*; fn f() { exit(1); } }\n\
                   mod b { use std::{fmt, process::exit as quit}; fn f() { quit(2); self::quit(3); } }";
        assert_eq!(exit_codes(src), ["1", "2"]);
    }

    #[test]
    fn exits_are_found_in_every_item_context() {
        let src = r#"
            pub fn free() { process::exit(1); }
            mod inner { pub fn nested() { process::exit(2); } }
            mod elsewhere;
            struct S;
            impl<T> S<T> where T: Fn() -> u8 { pub fn method(&self) { process::exit(3); } }
            trait T { fn default_method(&self) { process::exit(4); } fn required(&self); }
            impl T for [u8; 4] { fn default_method(&self) { bail!(process::exit(5)); } }
            #[cfg(test)]
            mod tests { #[test] fn t() { process::exit(6); } }
            "#;
        assert_eq!(exit_codes(src), ["1", "2", "3", "4", "5", "6"]);
        // The rule itself skips the test module.
        let files = [file("crates/x/src/lib.rs", "x", src)];
        let found = lint(&files, &Config::default(), None, "exit-code-registry");
        let lines: Vec<u32> = found.iter().map(|(line, _)| *line).collect();
        assert_eq!(lines, [2, 3, 6, 7, 8], "{found:?}");
    }

    const JOURNAL: &str = "crates/core/src/journal.rs";

    //= DESIGN.md#inv-schema-version-bump
    #[test]
    fn schema_lock_round_trip_and_modes() {
        let rc = RuleConfig {
            paths: vec![JOURNAL.into()],
            ..RuleConfig::default()
        };
        let cfg = config("schema-version-bump", rc);
        let messages = |src: &str, lock: Option<&str>| -> Vec<String> {
            let found = lint(
                &[file(JOURNAL, "core", src)],
                &cfg,
                lock,
                "schema-version-bump",
            );
            found.into_iter().map(|(_, message)| message).collect()
        };
        let v2 = "pub const JOURNAL_SCHEMA: u32 = 2;\npub struct Rec { a: u32 }\n";
        let state = schema_state(&[file(JOURNAL, "core", v2)], &cfg);
        let lock = render_lock(&state);
        assert_eq!(parse_lock(&lock).unwrap(), state);

        // Clean: no diagnostics.
        assert_eq!(messages(v2, Some(&lock)), [""; 0]);

        // Struct edited, const unchanged → "bump" error.
        let edited = "pub const JOURNAL_SCHEMA: u32 = 2;\npub struct Rec { a: u32, b: u64 }\n";
        let out = messages(edited, Some(&lock));
        assert!(
            out.len() == 1 && out[0].contains("bump the schema const"),
            "{out:?}"
        );

        // Struct edited AND const bumped → stale-lock error (refresh).
        let bumped = "pub const JOURNAL_SCHEMA: u32 = 3;\npub struct Rec { a: u32, b: u64 }\n";
        let out = messages(bumped, Some(&lock));
        assert!(out.len() == 1 && out[0].contains("stale"), "{out:?}");

        // No lock at all → must record.
        let out = messages(v2, None);
        assert!(out.len() == 1 && out[0].contains("not recorded"), "{out:?}");
    }

    #[test]
    fn schema_consts_and_shape_hash() {
        let entry = |src: &str| schema_entry(&lex(src).tokens, |_| false);
        let a = entry("const FOO_SCHEMA: u32 = 2;\npub struct R { a: u32 }\n");
        let consts: Vec<_> = a.consts.iter().collect();
        assert_eq!(consts, [(&"FOO_SCHEMA".to_string(), &"2".to_string())]);
        let b = entry("const FOO_SCHEMA: u32 = 2;\npub struct R { a: u32, b: u64 }\n");
        assert_ne!(
            a.shape_hash, b.shape_hash,
            "field edits must move the shape"
        );
        let c = entry("const FOO_SCHEMA: u32 = 3;\npub struct R { a: u32 }\n");
        assert_eq!(
            a.shape_hash, c.shape_hash,
            "const edits must not move the shape"
        );
        // Only items count: a method named like the contextual keyword,
        // a function-pointer type and a non-integer const do not.
        let d = entry(
            "const FOO_SCHEMA: u32 = 2;\nconst SCHEMA_NAME: &str = \"r\";\npub struct R { a: u32 }\n\
             fn f(x: S, g: fn(u8)) { x.union(&y); let union = 1; }\n",
        );
        assert_eq!(a, d);
    }

    //= DESIGN.md#inv-metric-name-registry
    #[test]
    fn metric_checks() {
        let rc = RuleConfig {
            prefixes: vec!["tcp_".into(), "campaign_".into()],
            ..RuleConfig::default()
        };
        let files = [
            file(
                "crates/obs/src/lib.rs",
                "obs",
                "fn a(m: &mut M) { m.counter_add(\"tcp_ok_total\", l, 1); m.counter_add(\"BadName\", l, 1); m.gauge_set(\"unprefixed_thing\", l, 1.0); }\n",
            ),
            // Names resolved to handles are checked at the resolving call.
            file(
                "crates/obs/src/recorder.rs",
                "obs",
                "fn c(m: &mut M) { let id = m.counter_handle(\"tcp_fine_total\", l); m.counter_add_at(id, 1); let h = m.histogram_handle(\"stray_ns\", l); }\n",
            ),
            file(
                "crates/core/src/lib.rs",
                "core",
                "fn b(m: &mut M) { m.counter_add(\"tcp_ok_total\", l, 1); }\n",
            ),
        ];
        let cfg = config("metric-name-registry", rc);
        let out = lint(&files, &cfg, None, "metric-name-registry");
        let msgs: Vec<&str> = out.iter().map(|(_, m)| m.as_str()).collect();
        assert_eq!(out.len(), 4, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("not snake_case")));
        assert!(msgs
            .iter()
            .any(|m| m.contains("`unprefixed_thing` lacks a registered prefix")));
        assert!(msgs
            .iter()
            .any(|m| m.contains("`stray_ns` lacks a registered prefix")));
        // Files sort by path, so `core` claims the name first.
        assert!(msgs
            .iter()
            .any(|m| m.contains("already owned by crate `core`")));
    }

    #[test]
    fn metric_literals() {
        let lexed = lex(r#"
            fn record(m: &mut R) {
                m.counter_add("tcp_retx_total", Labels::new(), 1);
                m.gauge_set("campaign_degraded", labels([]), 1.0);
                m.observe("queue_depth_bytes", l, 42);
                m.counter_add(variable_name, l, 1);
                let id = *slot.get_or_insert_with(|| m.counter_handle("tcp_rto_total", l));
                m.counter_add_at(id, 1);
                let h = m.histogram_handle("tcp_rtt_ns", l);
                observe!("a_macro_not_a_call");
            }
            "#);
        let names: Vec<&str> = super::metric_literals(&lexed.tokens)
            .map(|(_, lit)| lit.text)
            .collect();
        assert_eq!(
            names,
            [
                "\"tcp_retx_total\"",
                "\"campaign_degraded\"",
                "\"queue_depth_bytes\"",
                "\"tcp_rto_total\"",
                "\"tcp_rtt_ns\""
            ]
        );
    }
}
