//! The registry rules: workspace-wide consistency checks that need the
//! parsed item/call view rather than a per-file token pattern.
//!
//! The token pass ([`crate::rules::lint_file_deferred`]) and these rules
//! share one suppression namespace: the driver collects each file's
//! `simlint::allow` markers during the token pass, hands them to [`run`]
//! to be honored/marked-used, and only afterwards settles
//! unused-suppression warnings. Results are a pure function of the file
//! *set* — every rule sorts what it visits — which the walk-order
//! proptest pins.
//!
//! * `exit-code-registry` — every `process::exit` argument must be a
//!   named constant (the exit-code table in `greenenvy::exitcode`, or a
//!   binary-local table), never an integer literal. Exit codes are part
//!   of the scripted interface (`verify.sh` greps for 4/5/130); a
//!   literal in one binary drifts silently.
//! * `schema-version-bump` — persisted record layouts (journal, matrix,
//!   suite verdict) are fingerprinted into `schema.lock` alongside
//!   their `*_SCHEMA` const values; editing a struct without bumping
//!   the const (and refreshing the lock) is an error.
//! * `metric-name-registry` — Prometheus metric names must be
//!   snake_case, carry a registered prefix, and be owned by exactly one
//!   crate.

use crate::config::{Config, RuleConfig};
use crate::diag::{Diagnostic, Severity};
use crate::parse::{parse_file, Call, ParsedFile};
use crate::rules::{rule_applies, FileInput, Suppression};
use crate::LoadedFile;
use std::collections::BTreeMap;

/// Parse every loaded file. Input order does not matter.
pub fn parse_workspace(files: &[LoadedFile]) -> Vec<ParsedFile> {
    files
        .iter()
        .map(|f| {
            parse_file(&FileInput {
                rel_path: &f.rel_path,
                crate_name: &f.crate_name,
                is_test_file: f.is_test_file,
                src: &f.src,
            })
        })
        .collect()
}

/// Run every registry rule. `lock_text` is the current `schema.lock`
/// content (None: file absent).
pub fn run(
    parsed: &[ParsedFile],
    cfg: &Config,
    lock_text: Option<&str>,
    sups: &mut BTreeMap<String, Vec<Suppression>>,
    out: &mut Vec<Diagnostic>,
) {
    exit_codes(parsed, &cfg.rule("exit-code-registry"), sups, out);
    schema_bump(
        parsed,
        &cfg.rule("schema-version-bump"),
        lock_text,
        sups,
        out,
    );
    metric_names(parsed, &cfg.rule("metric-name-registry"), sups, out);
}

/// Reason of an allow naming `rule` at `line`, marking it used.
fn suppress_at(
    sups: &mut BTreeMap<String, Vec<Suppression>>,
    rel_path: &str,
    line: u32,
    rule: &str,
) -> Option<String> {
    let file_sups = sups.get_mut(rel_path)?;
    for s in file_sups {
        if s.target_line == Some(line) && s.rules.iter().any(|r| r == rule) {
            s.used = true;
            return Some(s.reason.clone());
        }
    }
    None
}

// ---------------------------------------------------------------------
// exit-code-registry
// ---------------------------------------------------------------------

/// Is `call` a `process::exit(..)`, written out or through one of the
/// file's `use` aliases (`use std::process::exit; exit(4)`)?
fn is_process_exit(pf: &ParsedFile, call: &Call) -> bool {
    let (head, rest) = match call.path.split_first() {
        Some(split) if !call.method => split,
        _ => return false,
    };
    let imported = pf
        .uses
        .get(head)
        .map_or(std::slice::from_ref(head), Vec::as_slice);
    let mut tail = imported.iter().chain(rest).rev();
    tail.next().is_some_and(|s| s == "exit") && tail.next().is_some_and(|s| s == "process")
}

pub fn exit_codes(
    files: &[ParsedFile],
    rc: &RuleConfig,
    sups: &mut BTreeMap<String, Vec<Suppression>>,
    out: &mut Vec<Diagnostic>,
) {
    let severity = rc.severity.unwrap_or(Severity::Error);
    for pf in files {
        if !rule_applies(rc, &pf.crate_name, &pf.rel_path) {
            continue;
        }
        for call in &pf.calls {
            let Some(lit) = &call.int_arg else {
                continue;
            };
            if !is_process_exit(pf, call) || (call.in_test && !rc.include_tests) {
                continue;
            }
            let suppressed = suppress_at(sups, &pf.rel_path, call.line, "exit-code-registry");
            out.push(Diagnostic {
                rule: "exit-code-registry",
                severity,
                path: pf.rel_path.clone(),
                line: call.line,
                col: 1,
                message: format!(
                    "process::exit({lit}) uses a literal; name it in the exit-code registry (greenenvy::exitcode) instead"
                ),
                suppressed,
            });
        }
    }
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

/// Current schema state of every tracked file (those matched by the
/// rule's `paths`/`crates` scoping). Tracking is strictly opt-in: with
/// no `paths`/`crates` configured the rule tracks nothing — most files
/// are not persisted-record files, so "no *_SCHEMA const" would be
/// noise, not a finding.
pub fn schema_state(files: &[ParsedFile], rc: &RuleConfig) -> BTreeMap<String, SchemaEntry> {
    let mut out = BTreeMap::new();
    if rc.paths.is_empty() && rc.crates.is_empty() {
        return out;
    }
    for pf in files {
        if !rule_applies(rc, &pf.crate_name, &pf.rel_path) {
            continue;
        }
        out.insert(
            pf.rel_path.clone(),
            SchemaEntry {
                shape_hash: pf.shape_hash,
                consts: pf.schema_consts.iter().cloned().collect(),
            },
        );
    }
    out
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

/// Compare current state against the lock, emitting diagnostics. The
/// caller does the IO; `lock_text` is `None` when the lock file does
/// not exist yet.
pub fn schema_bump(
    files: &[ParsedFile],
    rc: &RuleConfig,
    lock_text: Option<&str>,
    sups: &mut BTreeMap<String, Vec<Suppression>>,
    out: &mut Vec<Diagnostic>,
) {
    if !rc.enabled {
        return;
    }
    let severity = rc.severity.unwrap_or(Severity::Error);
    let state = schema_state(files, rc);
    if state.is_empty() {
        return; // rule not scoped to any present file
    }
    let lock = match lock_text {
        Some(t) => match parse_lock(t) {
            Ok(l) => l,
            Err(e) => {
                out.push(Diagnostic {
                    rule: "schema-version-bump",
                    severity,
                    path: SCHEMA_LOCK.to_string(),
                    line: 1,
                    col: 1,
                    message: format!("unreadable {SCHEMA_LOCK}: {e}"),
                    suppressed: None,
                });
                return;
            }
        },
        None => BTreeMap::new(),
    };
    let mut diag = |path: &str, msg: String| {
        let suppressed = suppress_at(sups, path, 1, "schema-version-bump");
        out.push(Diagnostic {
            rule: "schema-version-bump",
            severity,
            path: path.to_string(),
            line: 1,
            col: 1,
            message: msg,
            suppressed,
        });
    };
    for (path, cur) in &state {
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
        if !state.contains_key(path) {
            diag(
                path,
                format!(
                    "{SCHEMA_LOCK} entry no longer matches a tracked file; run `simlint --update-schema-lock`"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------
// metric-name-registry
// ---------------------------------------------------------------------

pub fn metric_names(
    files: &[ParsedFile],
    rc: &RuleConfig,
    sups: &mut BTreeMap<String, Vec<Suppression>>,
    out: &mut Vec<Diagnostic>,
) {
    if !rc.enabled {
        return;
    }
    let severity = rc.severity.unwrap_or(Severity::Error);
    // Deterministic site order: files sorted by path, literals by line.
    let mut sorted: Vec<&ParsedFile> = files
        .iter()
        .filter(|pf| rule_applies(rc, &pf.crate_name, &pf.rel_path))
        .collect();
    sorted.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));

    let mut owner: BTreeMap<&str, &str> = BTreeMap::new(); // name → first crate
    let mut diags: Vec<(String, u32, String)> = Vec::new();
    for pf in &sorted {
        for m in &pf.metric_lits {
            if m.in_test && !rc.include_tests {
                continue;
            }
            let snake = m
                .name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                && m.name
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_lowercase());
            if !snake {
                diags.push((
                    pf.rel_path.clone(),
                    m.line,
                    format!("metric name `{}` is not snake_case", m.name),
                ));
                continue;
            }
            if !rc.prefixes.is_empty()
                && !rc.prefixes.iter().any(|p| m.name.starts_with(p.as_str()))
            {
                diags.push((
                    pf.rel_path.clone(),
                    m.line,
                    format!(
                        "metric name `{}` lacks a registered prefix (expected one of: {})",
                        m.name,
                        rc.prefixes.join(", ")
                    ),
                ));
            }
            match owner.get(m.name.as_str()) {
                None => {
                    owner.insert(m.name.as_str(), pf.crate_name.as_str());
                }
                Some(own) if *own != pf.crate_name.as_str() => {
                    diags.push((
                        pf.rel_path.clone(),
                        m.line,
                        format!(
                            "metric `{}` is already owned by crate `{own}`; a metric name must belong to one crate",
                            m.name
                        ),
                    ));
                }
                Some(_) => {}
            }
        }
    }
    for (path, line, msg) in diags {
        let suppressed = suppress_at(sups, &path, line, "metric-name-registry");
        out.push(Diagnostic {
            rule: "metric-name-registry",
            severity,
            path,
            line,
            col: 1,
            message: msg,
            suppressed,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf(rel_path: &str, crate_name: &str, src: &str) -> ParsedFile {
        parse_file(&FileInput {
            rel_path,
            crate_name,
            is_test_file: false,
            src,
        })
    }

    //= DESIGN.md#inv-exit-code-registry
    #[test]
    fn literal_exit_codes_flagged_constants_pass() {
        let files = vec![pf(
            "crates/bench/src/bin/x.rs",
            "bench",
            "use std::process::exit as quit;\n\
             fn main() { if bad() { std::process::exit(4); } std::process::exit(CODE); }\n\
             fn other() { quit(5); my::exit(6); x.exit(7); }\n",
        )];
        let mut out = Vec::new();
        exit_codes(
            &files,
            &RuleConfig::default(),
            &mut BTreeMap::new(),
            &mut out,
        );
        let found: Vec<(u32, &str)> = out.iter().map(|d| (d.line, d.message.as_str())).collect();
        assert_eq!(out.len(), 2, "{found:?}");
        assert!(
            found[0].1.contains("process::exit(4)") && found[0].0 == 2,
            "{found:?}"
        );
        assert!(
            found[1].1.contains("process::exit(5)") && found[1].0 == 3,
            "{found:?}"
        );
    }

    //= DESIGN.md#inv-schema-version-bump
    #[test]
    fn schema_lock_round_trip_and_modes() {
        let rc = RuleConfig {
            paths: vec!["crates/core/src/journal.rs".into()],
            ..RuleConfig::default()
        };
        let v2 = vec![pf(
            "crates/core/src/journal.rs",
            "core",
            "pub const JOURNAL_SCHEMA: u32 = 2;\npub struct Rec { a: u32 }\n",
        )];
        let state = schema_state(&v2, &rc);
        let lock = render_lock(&state);
        assert_eq!(parse_lock(&lock).unwrap(), state);

        // Clean: no diagnostics.
        let mut out = Vec::new();
        schema_bump(&v2, &rc, Some(&lock), &mut BTreeMap::new(), &mut out);
        assert!(out.is_empty(), "{out:?}");

        // Struct edited, const unchanged → "bump" error.
        let edited = vec![pf(
            "crates/core/src/journal.rs",
            "core",
            "pub const JOURNAL_SCHEMA: u32 = 2;\npub struct Rec { a: u32, b: u64 }\n",
        )];
        let mut out = Vec::new();
        schema_bump(&edited, &rc, Some(&lock), &mut BTreeMap::new(), &mut out);
        assert_eq!(out.len(), 1);
        assert!(
            out[0].message.contains("bump the schema const"),
            "{}",
            out[0].message
        );

        // Struct edited AND const bumped → stale-lock error (refresh).
        let bumped = vec![pf(
            "crates/core/src/journal.rs",
            "core",
            "pub const JOURNAL_SCHEMA: u32 = 3;\npub struct Rec { a: u32, b: u64 }\n",
        )];
        let mut out = Vec::new();
        schema_bump(&bumped, &rc, Some(&lock), &mut BTreeMap::new(), &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("stale"), "{}", out[0].message);

        // No lock at all → must record.
        let mut out = Vec::new();
        schema_bump(&v2, &rc, None, &mut BTreeMap::new(), &mut out);
        assert_eq!(out.len(), 1);
        assert!(
            out[0].message.contains("not recorded"),
            "{}",
            out[0].message
        );
    }

    //= DESIGN.md#inv-metric-name-registry
    #[test]
    fn metric_checks() {
        let rc = RuleConfig {
            prefixes: vec!["tcp_".into(), "campaign_".into()],
            ..RuleConfig::default()
        };
        let files = vec![
            pf(
                "crates/obs/src/lib.rs",
                "obs",
                "fn a(m: &mut M) { m.counter_add(\"tcp_ok_total\", l, 1); m.counter_add(\"BadName\", l, 1); m.gauge_set(\"unprefixed_thing\", l, 1.0); }\n",
            ),
            // Names resolved to handles are checked at the resolving call.
            pf(
                "crates/obs/src/recorder.rs",
                "obs",
                "fn c(m: &mut M) { let id = m.counter_handle(\"tcp_fine_total\", l); m.counter_add_at(id, 1); let h = m.histogram_handle(\"stray_ns\", l); }\n",
            ),
            pf(
                "crates/core/src/lib.rs",
                "core",
                "fn b(m: &mut M) { m.counter_add(\"tcp_ok_total\", l, 1); }\n",
            ),
        ];
        let mut out = Vec::new();
        metric_names(&files, &rc, &mut BTreeMap::new(), &mut out);
        let msgs: Vec<&str> = out.iter().map(|d| d.message.as_str()).collect();
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
}
