//! The rule engine: test-region detection, inline suppressions, and the
//! rule matchers themselves.
//!
//! Every rule is a pattern over the token stream produced by
//! [`crate::lexer`]. Rules are registered in [`RULES`] with a default
//! severity and a one-line description; `simlint.toml` scopes each rule
//! to crates/paths and may override severity. See DESIGN.md ("Static
//! analysis & enforced invariants") for the invariant each rule guards.

use crate::config::{Config, RuleConfig};
use crate::diag::{Diagnostic, Severity};
use crate::lexer::{lex, Comment, Tok, TokKind};
use crate::registry::Registry;

/// Static description of one rule.
pub struct RuleDef {
    pub id: &'static str,
    pub default_severity: Severity,
    pub description: &'static str,
}

/// All rules, in reporting order. The two pseudo-rules (`suppression`,
/// `unused-suppression`) police the allow mechanism itself and cannot be
/// scoped away in config.
pub const RULES: &[RuleDef] = &[
    RuleDef {
        id: "hash-container",
        default_severity: Severity::Error,
        description: "HashMap/HashSet iteration order is nondeterministic; use BTreeMap/BTreeSet or an indexed Vec",
    },
    RuleDef {
        id: "wall-clock",
        default_severity: Severity::Error,
        description: "Instant::now/SystemTime read the host clock; simulation state must be a pure function of config",
    },
    RuleDef {
        id: "thread-id",
        default_severity: Severity::Error,
        description: "thread identity and process-seeded hashers (RandomState, DefaultHasher) vary run to run and break replay",
    },
    RuleDef {
        id: "ambient-input",
        default_severity: Severity::Error,
        description: "env::var* and OS entropy (OsRng, getrandom, from_entropy) read the process, not the configuration; replayed crates take inputs as arguments",
    },
    RuleDef {
        id: "rng-discipline",
        default_severity: Severity::Error,
        description: "SimRng must be constructed in the named-stream seeding modules; ad-hoc streams perturb replay",
    },
    RuleDef {
        id: "panic-hygiene",
        default_severity: Severity::Error,
        description: "unwrap/expect/panic! in engine hot paths; return typed errors or use debug_assert!",
    },
    RuleDef {
        id: "range-index",
        default_severity: Severity::Error,
        description: "range indexing (x[a..b]) panics on bad bounds; use .get(..) or split_at with a checked length",
    },
    RuleDef {
        id: "raw-write",
        default_severity: Severity::Error,
        description: "raw fs::write/File::create bypasses the atomic, fsynced durability layer (core::campaign::persist)",
    },
    RuleDef {
        id: "suppression",
        default_severity: Severity::Error,
        description: "simlint::allow(...) must name known rules and give a reason",
    },
    RuleDef {
        id: "unused-suppression",
        default_severity: Severity::Warn,
        description: "a simlint::allow that suppressed nothing is stale; remove it",
    },
    // -- Workspace rules: checked on a workspace run only, by
    //    crate::closure and crate::registry. Registered here so
    //    --list-rules shows them and allow annotations accept their ids.
    RuleDef {
        id: "replayed-closure",
        default_severity: Severity::Error,
        description: "a replayed crate may depend only on replayed crates and vendored stand-ins, so the sink rules see every line a replayed run can execute",
    },
    RuleDef {
        id: "exit-code-registry",
        default_severity: Severity::Error,
        description: "process::exit must take a named constant from the exit-code registry, not an integer literal",
    },
    RuleDef {
        id: "schema-version-bump",
        default_severity: Severity::Error,
        description: "persisted record structs changed without a *_SCHEMA const bump (tracked in schema.lock)",
    },
    RuleDef {
        id: "metric-name-registry",
        default_severity: Severity::Error,
        description: "metric names must be snake_case with a registered prefix and owned by exactly one crate",
    },
];

/// Rule ids checked on a workspace run only ([`crate::closure`],
/// [`crate::registry`]). [`lint_file`] never emits them and must not
/// flag their suppressions as unused.
pub const WORKSPACE_RULES: &[&str] = &[
    "replayed-closure",
    "exit-code-registry",
    "schema-version-bump",
    "metric-name-registry",
];

/// True when `id` is checked on a workspace run only.
pub fn is_workspace_rule(id: &str) -> bool {
    WORKSPACE_RULES.contains(&id)
}

/// Ids that named a rule in an earlier revision. A marker naming one is
/// inert — neither an unknown-rule error nor an unused-suppression
/// warning — so a file this repo may not edit (`benchmark/` is frozen
/// per PR) can keep its marker until it is next touched.
const RETIRED_RULES: &[&str] = &["nondet-taint"];

pub fn rule_def(id: &str) -> Option<&'static RuleDef> {
    RULES.iter().find(|r| r.id == id)
}

/// One file to lint, with its workspace context.
pub struct FileInput<'a> {
    /// Repo-relative path, `/`-separated.
    pub rel_path: &'a str,
    /// Crate directory name (`netsim`, ...) or `root` for the top-level
    /// package.
    pub crate_name: &'a str,
    /// True for files under `tests/`, `benches/`, or `examples/`
    /// directories: never hot-path or replayed code.
    pub is_test_file: bool,
    pub src: &'a str,
}

/// Lint one file, appending findings (suppressed ones included, marked).
///
/// Allows that name only workspace rules are *not* flagged as unused
/// here — a single file cannot know whether a workspace run would use
/// them. `crate::lint_loaded` runs those rules in the same scan and
/// settles every allow.
pub fn lint_file(input: &FileInput<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    let mut sups = scan_file(input, cfg, None, out);
    settle(out, input.rel_path, &mut sups, true);
}

/// Settle one file's allows against the findings at its path: mark each
/// finding an allow covers (and the allow used), then warn about every
/// allow that covered nothing. With `skip_workspace_only`, allows naming
/// only workspace rules are exempt from the warning.
pub fn settle(
    diags: &mut Vec<Diagnostic>,
    rel_path: &str,
    sups: &mut [Suppression],
    skip_workspace_only: bool,
) {
    for d in diags.iter_mut() {
        // A malformed marker is reported under `suppression`; no allow hides it.
        if d.suppressed.is_some() || d.path != rel_path || d.rule == "suppression" {
            continue;
        }
        if let Some(sup) = sups
            .iter_mut()
            .find(|s| s.target_line == Some(d.line) && s.rules.iter().any(|r| r == d.rule))
        {
            d.suppressed = Some(sup.reason.clone());
            sup.used = true;
        }
    }
    for sup in sups.iter().filter(|s| !s.used) {
        if skip_workspace_only && sup.rules.iter().all(|r| is_workspace_rule(r)) {
            continue;
        }
        diags.push(Diagnostic {
            rule: "unused-suppression",
            severity: Severity::Warn,
            path: rel_path.to_string(),
            line: sup.comment_line,
            col: 1,
            message: format!(
                "simlint::allow({}) suppressed nothing; remove it",
                sup.rules.join(", ")
            ),
            suppressed: None,
        });
    }
}

/// Lex `input` once and run every rule over its tokens: the token rules
/// `cfg` scopes to it and, on a workspace run, the registry rules.
/// Appends the findings and returns the file's allows, neither settled.
pub(crate) fn scan_file(
    input: &FileInput<'_>,
    cfg: &Config,
    registry: Option<&mut Registry>,
    out: &mut Vec<Diagnostic>,
) -> Vec<Suppression> {
    let lexed = lex(input.src);
    let toks = &lexed.tokens;
    let test_mask = test_region_mask(toks);
    let suppressions = collect_suppressions(&lexed.comments, toks, input, out);

    let mut ctx = Ctx {
        input,
        toks,
        test_mask: &test_mask,
        out,
    };
    for def in RULES {
        let rc = cfg.rule(def.id);
        if !rule_applies(&rc, input.crate_name, input.rel_path) {
            continue;
        }
        let severity = rc.severity.unwrap_or(def.default_severity);
        let skip_tests = !rc.include_tests;
        match def.id {
            id if is_sink_family(id) => ctx.rule_sinks(id, severity, skip_tests),
            "panic-hygiene" => ctx.rule_panic_hygiene(severity, skip_tests),
            "range-index" => ctx.rule_range_index(severity, skip_tests),
            "raw-write" => ctx.rule_raw_write(severity, skip_tests),
            // Pseudo-rules run in collect_suppressions / settle.
            "suppression" | "unused-suppression" => {}
            // Workspace rules: the registry below, crate::closure.
            id if is_workspace_rule(id) => {}
            other => unreachable!("unregistered rule {other}"),
        }
    }
    if let Some(registry) = registry {
        registry.visit(input, toks, &test_mask, out);
    }
    suppressions
}

/// Does `rc` apply to this file at all?
pub fn rule_applies(rc: &RuleConfig, crate_name: &str, rel_path: &str) -> bool {
    let under = |prefixes: &[String]| prefixes.iter().any(|p| rel_path.starts_with(p.as_str()));
    rc.enabled
        && (rc.crates.is_empty() || rc.crates.iter().any(|c| c == crate_name))
        && (rc.paths.is_empty() || under(&rc.paths))
        && !under(&rc.allow_paths)
}

// ---------------------------------------------------------------------
// Test-region detection
// ---------------------------------------------------------------------

/// Per-token "is test code" mask: true inside items annotated
/// `#[cfg(test)]` / `#[test]` / `#[bench]` (including `#[cfg(any(test,..))]`).
pub fn test_region_mask(toks: &[Tok<'_>]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        // Outer attribute `#[...]` (inner `#![...]` attrs are skipped —
        // they scope the enclosing item, which for `#![cfg(test)]` at
        // file level would blank the whole file; nothing here uses that).
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            let attr_start = i;
            let (attr_end, is_test_attr) = scan_attr(toks, i + 1);
            if is_test_attr {
                let region_end = item_end(toks, attr_end + 1);
                for m in mask.iter_mut().take(region_end + 1).skip(attr_start) {
                    *m = true;
                }
                i = region_end + 1;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// From the `[` at `open`, find the matching `]`; report whether the
/// attribute mentions `test` or `bench` as an identifier.
fn scan_attr(toks: &[Tok<'_>], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut is_test = false;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct('[') {
            depth += 1;
        } else if toks[i].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (i, is_test);
            }
        } else if toks[i].is_ident("test") || toks[i].is_ident("bench") {
            is_test = true;
        }
        i += 1;
    }
    (toks.len().saturating_sub(1), is_test)
}

/// End of the item starting at `start` (after its attributes): the
/// matching `}` of its first body brace, or the first top-level `;`
/// (for `#[cfg(test)] use ...;`-style items). Any further attributes
/// on the item are stepped over.
pub(crate) fn item_end(toks: &[Tok<'_>], start: usize) -> usize {
    let mut i = start;
    // Step over stacked attributes.
    while i + 1 < toks.len() && toks[i].is_punct('#') && toks[i + 1].is_punct('[') {
        let (end, _) = scan_attr(toks, i + 1);
        i = end + 1;
    }
    let mut depth = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('{') {
            if depth == 0 {
                return matching_brace(toks, i);
            }
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            return i;
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Is token `i` inside a `use` item? (`use` appears since the last `;`.)
pub(crate) fn in_use_item(toks: &[Tok<'_>], i: usize) -> bool {
    let mut item = toks[..i].iter().rev().take_while(|t| !t.is_punct(';'));
    item.any(|t| t.is_ident("use"))
}

/// The punctuation `c` at `i`?
pub(crate) fn punct_at(toks: &[Tok<'_>], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(c))
}

/// `::` at `i`?
pub(crate) fn path_sep(toks: &[Tok<'_>], i: usize) -> bool {
    punct_at(toks, i, ':') && punct_at(toks, i + 1, ':')
}

/// Index of the `}` matching the `{` at `open`.
pub(crate) fn matching_brace(toks: &[Tok<'_>], open: usize) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len().saturating_sub(1)
}

// ---------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------

/// One parsed `// simlint::allow(...)` marker.
pub struct Suppression {
    pub rules: Vec<String>,
    pub reason: String,
    /// Line the allow applies to: the comment's own line for trailing
    /// comments, else the line of the next code token. `None` if the
    /// comment dangles at end of file.
    pub target_line: Option<u32>,
    pub comment_line: u32,
    pub used: bool,
}

/// Parse `// simlint::allow(rule, ..., reason = "...")` comments.
/// Malformed markers produce `suppression` diagnostics immediately.
fn collect_suppressions(
    comments: &[Comment<'_>],
    toks: &[Tok<'_>],
    input: &FileInput<'_>,
    out: &mut Vec<Diagnostic>,
) -> Vec<Suppression> {
    let mut sups = Vec::new();
    for c in comments {
        // Doc comments are documentation: an allow-marker "mentioned" in
        // one (e.g. this crate's own docs) is prose, never a suppression.
        let is_doc = c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!");
        if is_doc {
            continue;
        }
        let Some(at) = c.text.find("simlint::allow") else {
            continue;
        };
        let err = |msg: String| Diagnostic {
            rule: "suppression",
            severity: Severity::Error,
            path: input.rel_path.to_string(),
            line: c.line,
            col: 1,
            message: msg,
            suppressed: None,
        };
        let rest = &c.text[at + "simlint::allow".len()..];
        let Some(body) = rest.trim_start().strip_prefix('(').and_then(|r| {
            // The body must close on the same comment.
            r.find(')').map(|end| &r[..end])
        }) else {
            out.push(err(
                "malformed simlint::allow: expected `(rule, reason = \"...\")`".into(),
            ));
            continue;
        };
        let mut rules = Vec::new();
        let mut retired = false;
        let mut reason: Option<String> = None;
        for part in split_args(body) {
            let part = part.trim();
            if let Some(val) = part.strip_prefix("reason") {
                let val = val.trim_start();
                let Some(q) = val.strip_prefix('=').map(str::trim_start) else {
                    out.push(err("malformed reason: expected `reason = \"...\"`".into()));
                    continue;
                };
                let Some(text) = q.strip_prefix('"').and_then(|s| s.strip_suffix('"')) else {
                    out.push(err("reason must be a double-quoted string".into()));
                    continue;
                };
                if text.trim().is_empty() {
                    out.push(err("reason must not be empty".into()));
                    continue;
                }
                reason = Some(text.to_string());
            } else if RETIRED_RULES.contains(&part) {
                retired = true;
            } else if !part.is_empty() {
                if rule_def(part).is_none() {
                    out.push(err(format!(
                        "unknown rule `{part}` in simlint::allow (see --list-rules)"
                    )));
                } else {
                    rules.push(part.to_string());
                }
            }
        }
        let Some(reason) = reason else {
            out.push(err(
                "simlint::allow requires a reason: simlint::allow(rule, reason = \"why\")".into(),
            ));
            continue;
        };
        if rules.is_empty() {
            if !retired {
                out.push(err("simlint::allow names no rules".into()));
            }
            continue;
        }
        let target_line = if c.trailing {
            Some(c.line)
        } else {
            toks.iter().find(|t| t.line > c.line).map(|t| t.line)
        };
        sups.push(Suppression {
            rules,
            reason,
            target_line,
            comment_line: c.line,
            used: false,
        });
    }
    sups
}

/// Split allow-body on commas outside quotes.
fn split_args(body: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for ch in body.chars() {
        match ch {
            '"' => {
                in_str = !in_str;
                cur.push(ch);
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut cur));
            }
            _ => cur.push(ch),
        }
    }
    parts.push(cur);
    parts
}

// ---------------------------------------------------------------------
// The sink table
// ---------------------------------------------------------------------

/// How a sink is spelled in the token stream.
pub enum Pat {
    /// The identifier anywhere, type or value position.
    Ident(&'static str),
    /// `head::leaf`, however it is brought into scope: written out,
    /// imported (`use head::{leaf}`, `use head::*`) or renamed on import
    /// (`use …::head as h`). `head` alone is fine (`Option<Instant>`).
    Path(&'static str, &'static str),
}

pub struct Sink {
    /// The rule that reports it and whose `simlint::allow` covers it.
    pub family: &'static str,
    pub pat: Pat,
    pub message: &'static str,
}

/// Every way host state or an unnamed random stream can enter a run.
/// The replayed crates are held to all of it (`simlint.toml` names them
/// once; [`crate::closure`] proves nothing else is linked into a
/// replayed run), so a sink is an error on the line it is written,
/// private helper or not.
pub const SINKS: &[Sink] = &[
    Sink {
        family: "hash-container",
        pat: Pat::Ident("HashMap"),
        message: "HashMap has nondeterministic iteration order; use BTreeMap/BTreeSet or an indexed Vec",
    },
    Sink {
        family: "hash-container",
        pat: Pat::Ident("HashSet"),
        message: "HashSet has nondeterministic iteration order; use BTreeMap/BTreeSet or an indexed Vec",
    },
    Sink {
        family: "wall-clock",
        pat: Pat::Path("Instant", "now"),
        message: "Instant::now() reads the host clock; simulated time must come from the engine",
    },
    Sink {
        family: "wall-clock",
        pat: Pat::Ident("SystemTime"),
        message: "SystemTime reads the host clock; simulated time must come from the engine",
    },
    Sink {
        family: "thread-id",
        pat: Pat::Path("thread", "current"),
        message: "thread::current() varies run to run; derive identity from simulation config",
    },
    Sink {
        family: "thread-id",
        pat: Pat::Ident("ThreadId"),
        message: "ThreadId varies run to run; derive identity from simulation config",
    },
    Sink {
        family: "thread-id",
        pat: Pat::Ident("RandomState"),
        message: "RandomState seeds hashers from process entropy; replay needs a fixed hasher",
    },
    Sink {
        family: "thread-id",
        pat: Pat::Ident("DefaultHasher"),
        message: "DefaultHasher's keys are not pinned across processes or releases; replay needs a fixed hasher",
    },
    Sink {
        family: "ambient-input",
        pat: Pat::Path("env", "var"),
        message: "env::var reads the process environment; pass the value in through the configuration",
    },
    Sink {
        family: "ambient-input",
        pat: Pat::Path("env", "var_os"),
        message: "env::var_os reads the process environment; pass the value in through the configuration",
    },
    Sink {
        family: "ambient-input",
        pat: Pat::Path("env", "vars"),
        message: "env::vars reads the process environment; pass the values in through the configuration",
    },
    Sink {
        family: "ambient-input",
        pat: Pat::Path("env", "vars_os"),
        message: "env::vars_os reads the process environment; pass the values in through the configuration",
    },
    Sink {
        family: "ambient-input",
        pat: Pat::Ident("OsRng"),
        message: "OsRng draws OS entropy; all randomness comes from named SimRng streams off the scenario seed",
    },
    Sink {
        family: "ambient-input",
        pat: Pat::Ident("getrandom"),
        message: "getrandom draws OS entropy; all randomness comes from named SimRng streams off the scenario seed",
    },
    Sink {
        family: "ambient-input",
        pat: Pat::Ident("from_entropy"),
        message: "from_entropy seeds from the OS; all randomness comes from named SimRng streams off the scenario seed",
    },
    Sink {
        family: "rng-discipline",
        pat: Pat::Path("SimRng", "new"),
        message: "SimRng::new outside the named-stream seeding modules; fork a named stream \
                  from the scenario seed (or allow with the stream's salt as the reason)",
    },
];

/// True when `id` is one of the rules [`SINKS`] serves. These are the
/// rules scoped to the replayed set.
pub fn is_sink_family(id: &str) -> bool {
    SINKS.iter().any(|s| s.family == id)
}

// ---------------------------------------------------------------------
// The rule matchers
// ---------------------------------------------------------------------

struct Ctx<'a, 'b> {
    input: &'a FileInput<'a>,
    toks: &'a [Tok<'a>],
    test_mask: &'a [bool],
    out: &'b mut Vec<Diagnostic>,
}

impl Ctx<'_, '_> {
    fn skip(&self, i: usize, skip_tests: bool) -> bool {
        skip_tests && (self.input.is_test_file || self.test_mask[i])
    }

    fn push(&mut self, rule: &'static str, severity: Severity, i: usize, message: String) {
        let t = &self.toks[i];
        self.out.push(Diagnostic {
            rule,
            severity,
            path: self.input.rel_path.to_string(),
            line: t.line,
            col: t.col,
            message,
            suppressed: None,
        });
    }

    /// `a::b` at position i?
    fn path2(&self, i: usize, a: &str, b: &str) -> bool {
        self.toks[i].is_ident(a)
            && path_sep(self.toks, i + 1)
            && self.toks.get(i + 3).is_some_and(|t| t.is_ident(b))
    }

    /// Every [`SINKS`] row of `family`, at each place the sink is named:
    /// used, imported, or renamed on import.
    fn rule_sinks(&mut self, family: &'static str, sev: Severity, skip_tests: bool) {
        for i in 0..self.toks.len() {
            if self.skip(i, skip_tests) {
                continue;
            }
            for s in SINKS.iter().filter(|s| s.family == family) {
                if let Some(at) = self.sink_at(i, &s.pat) {
                    self.push(family, sev, at, s.message.into());
                }
            }
        }
    }

    /// Token index where `pat` is named, scanning from token `i`.
    fn sink_at(&self, i: usize, pat: &Pat) -> Option<usize> {
        let (head, leaf) = match *pat {
            Pat::Ident(name) => return self.toks[i].is_ident(name).then_some(i),
            Pat::Path(head, leaf) => (head, leaf),
        };
        if !self.toks[i].is_ident(head) {
            return None;
        }
        let next = |k: usize| self.toks.get(i + k);
        // `use …::head as other;` — the rename would hide every later use.
        if next(1).is_some_and(|t| t.is_ident("as")) {
            return in_use_item(self.toks, i).then_some(i);
        }
        if !path_sep(self.toks, i + 1) {
            return None;
        }
        // `head::leaf`, the glob `head::*`, or `head::{.., leaf, ..}`.
        let after = next(3)?;
        if after.is_ident(leaf) || after.is_punct('*') {
            return Some(i);
        }
        if after.is_punct('{') {
            let close = matching_brace(self.toks, i + 3);
            return (i + 4..close).find(|&j| self.toks[j].is_ident(leaf));
        }
        None
    }

    fn rule_panic_hygiene(&mut self, sev: Severity, skip_tests: bool) {
        for i in 0..self.toks.len() {
            if self.skip(i, skip_tests) {
                continue;
            }
            let t = &self.toks[i];
            // `.unwrap()` / `.expect(` — method position only.
            if (t.is_ident("unwrap") || t.is_ident("expect"))
                && i > 0
                && self.toks[i - 1].is_punct('.')
                && self.toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            {
                self.push(
                    "panic-hygiene",
                    sev,
                    i,
                    format!(
                        ".{}() can panic on a hot path; return a typed error or use debug_assert!",
                        t.text
                    ),
                );
            }
            // panic-family macros.
            if (t.is_ident("panic")
                || t.is_ident("unreachable")
                || t.is_ident("todo")
                || t.is_ident("unimplemented"))
                && self.toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            {
                self.push(
                    "panic-hygiene",
                    sev,
                    i,
                    format!(
                        "{}! aborts the run; return a typed error or use debug_assert!",
                        t.text
                    ),
                );
            }
        }
    }

    fn rule_range_index(&mut self, sev: Severity, skip_tests: bool) {
        for i in 0..self.toks.len() {
            if self.skip(i, skip_tests) {
                continue;
            }
            // `expr[ ... .. ... ]`: `[` preceded by an expression-ending
            // token (ident / `)` / `]`) with a top-level `..` inside.
            if !self.toks[i].is_punct('[') {
                continue;
            }
            let indexing = i > 0
                && (self.toks[i - 1].kind == TokKind::Ident
                    || self.toks[i - 1].is_punct(')')
                    || self.toks[i - 1].is_punct(']'));
            if !indexing {
                continue;
            }
            let mut depth = 0i32;
            for j in i..self.toks.len().min(i + 64) {
                let t = &self.toks[j];
                if t.is_punct('[') || t.is_punct('(') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(']') || t.is_punct(')') || t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if depth == 1
                    && t.is_punct('.')
                    && self.toks.get(j + 1).is_some_and(|n| n.is_punct('.'))
                {
                    self.push(
                        "range-index",
                        sev,
                        i,
                        "range indexing panics on out-of-range bounds; use .get(range) or a checked split".into(),
                    );
                    break;
                }
            }
        }
    }

    fn rule_raw_write(&mut self, sev: Severity, skip_tests: bool) {
        for i in 0..self.toks.len() {
            if self.skip(i, skip_tests) {
                continue;
            }
            let hit = if self.path2(i, "fs", "write") {
                Some("fs::write")
            } else if self.path2(i, "File", "create") {
                Some("File::create")
            } else if self.path2(i, "OpenOptions", "new") {
                Some("OpenOptions::new")
            } else {
                None
            };
            if let Some(api) = hit {
                self.push(
                    "raw-write",
                    sev,
                    i,
                    format!(
                        "{api} bypasses the durability layer; write artifacts via core::campaign::persist (atomic + fsync)"
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_src(src: &str) -> Vec<Diagnostic> {
        let input = FileInput {
            rel_path: "crates/netsim/src/x.rs",
            crate_name: "netsim",
            is_test_file: false,
            src,
        };
        let mut out = Vec::new();
        lint_file(&input, &Config::default(), &mut out);
        out
    }

    fn gating(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
        diags
            .iter()
            .filter(|d| d.suppressed.is_none() && d.severity == Severity::Error)
            .collect()
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = r#"
            fn hot() -> u32 { 1 }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { let x: Option<u32> = None; x.unwrap(); }
            }
        "#;
        assert!(gating(&lint_src(src)).is_empty());
    }

    #[test]
    fn cfg_test_on_use_item_does_not_swallow_file() {
        let src = r#"
            #[cfg(test)]
            use std::collections::BTreeMap;
            fn hot(x: Option<u32>) -> u32 { x.unwrap() }
        "#;
        let diags = lint_src(src);
        assert_eq!(gating(&diags).len(), 1, "{diags:?}");
        assert_eq!(gating(&diags)[0].rule, "panic-hygiene");
    }

    #[test]
    fn suppression_requires_reason_and_known_rule() {
        let diags =
            lint_src("// simlint::allow(panic-hygiene)\nfn f(x: Option<u32>) { x.unwrap(); }\n");
        assert!(diags.iter().any(|d| d.rule == "suppression"));
        let diags = lint_src("// simlint::allow(no-such-rule, reason = \"x\")\nfn f() {}\n");
        assert!(diags.iter().any(|d| d.rule == "suppression"));
    }

    #[test]
    fn suppression_with_reason_suppresses_next_line() {
        let src = "// simlint::allow(panic-hygiene, reason = \"boot-time config error\")\nfn f(x: Option<u32>) { x.unwrap(); }\n";
        let diags = lint_src(src);
        assert!(gating(&diags).is_empty(), "{diags:?}");
        assert!(diags.iter().any(|d| d.suppressed.is_some()));
        // And it is not reported unused.
        assert!(!diags.iter().any(|d| d.rule == "unused-suppression"));
    }

    #[test]
    fn trailing_suppression_covers_its_own_line() {
        let src = "fn f(x: Option<u32>) { x.unwrap(); } // simlint::allow(panic-hygiene, reason = \"demo\")\n";
        assert!(gating(&lint_src(src)).is_empty());
    }

    #[test]
    fn unused_suppression_warns() {
        let diags = lint_src("// simlint::allow(wall-clock, reason = \"stale\")\nfn f() {}\n");
        assert!(diags.iter().any(|d| d.rule == "unused-suppression"));
    }

    #[test]
    fn a_marker_naming_only_a_retired_rule_is_inert() {
        let diags =
            lint_src("// simlint::allow(nondet-taint, reason = \"frozen file\")\nfn f() {}\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn range_index_flags_slices_not_types() {
        let diags = lint_src("fn f(b: &[u8], n: usize) -> &[u8] { &b[..n] }\n");
        assert!(diags.iter().any(|d| d.rule == "range-index"), "{diags:?}");
        let diags = lint_src("fn g(x: [u8; 4]) -> u8 { let a: [u8; 2] = [0, 1]; a[0] }\n");
        assert!(!diags.iter().any(|d| d.rule == "range-index"), "{diags:?}");
    }

    #[test]
    fn identifiers_in_strings_do_not_fire() {
        let src = r#"fn f() -> &'static str { "HashMap Instant::now fs::write unwrap()" }"#;
        assert!(gating(&lint_src(src)).is_empty());
    }
}
