//! `replayed-closure`: the replayed crates depend only on each other
//! (and on the vendored stand-ins under `vendor/`).
//!
//! This is what lets the sink rules ([`crate::rules::SINKS`]) be a
//! per-line check. cargo links nothing into a crate that its manifest
//! does not name, so if every `[dependencies]` entry of every replayed
//! crate is itself replayed, every line a replayed run can execute is in
//! a file the sink rules scan — there is no unscoped helper to launder a
//! clock read through. Checking direct dependencies is enough: the set
//! is closed under "depends on" exactly when each member's own edges
//! stay inside it.

use crate::diag::{Diagnostic, Severity};
use std::path::Path;

pub const RULE: &str = "replayed-closure";

/// One `name = …` entry of a dependency table: manifest line, name, and
/// the entry's own `path = "…"` if it has one.
type Dep = (u32, String, Option<String>);

/// Entries of the manifest tables `wanted` accepts (by header text).
fn entries(manifest: &str, wanted: impl Fn(&str) -> bool) -> Vec<Dep> {
    let mut out = Vec::new();
    let mut in_table = false;
    for (n, raw) in manifest.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or_default().trim();
        if let Some(header) = line.strip_prefix('[') {
            in_table = wanted(header.trim_end_matches(']').trim());
        } else if let (true, Some((key, value))) = (in_table, line.split_once('=')) {
            let name = key.split('.').next().unwrap_or_default().trim();
            let path = value
                .split_once("path")
                .and_then(|(_, rest)| rest.split('"').nth(1))
                .map(str::to_string);
            out.push((n as u32 + 1, name.to_string(), path));
        }
    }
    out
}

/// `crates/x` + `../../vendor/y` → `vendor/y`.
fn join(base: &str, rel: &str) -> String {
    let mut segs: Vec<&str> = base.split('/').collect();
    for s in rel.split('/') {
        match s {
            ".." => drop(segs.pop()),
            "." | "" => {}
            s => segs.push(s),
        }
    }
    segs.join("/")
}

/// Check every crate of `replayed` (directory names under `crates/`)
/// against its manifest. Always on: there is nothing to configure but
/// the list itself.
pub fn check(root: &Path, replayed: &[String], out: &mut Vec<Diagnostic>) {
    // Where `name.workspace = true` points: the root manifest's table.
    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
    let shared = entries(&root_manifest, |h| h == "workspace.dependencies");
    for krate in replayed {
        let dir = format!("crates/{krate}");
        let manifest_path = format!("{dir}/Cargo.toml");
        let mut error = |line: u32, message: String| {
            out.push(Diagnostic {
                rule: RULE,
                severity: Severity::Error,
                path: manifest_path.clone(),
                line,
                col: 1,
                message,
                suppressed: None,
            });
        };
        let Ok(manifest) = std::fs::read_to_string(root.join(&manifest_path)) else {
            error(1, format!("replayed crate `{krate}` has no manifest"));
            continue;
        };
        // Every dependency table but dev-dependencies, which never reach
        // a run. (A `[dependencies.x]` sub-table is read key by key and
        // fails the check; write the entry inline.)
        let linked = |h: &str| h.contains("dependencies") && !h.contains("dev-dependencies");
        for (line, name, own_path) in entries(&manifest, linked) {
            let home = match own_path {
                Some(p) => Some(join(&dir, &p)),
                None => shared
                    .iter()
                    .find(|(_, n, _)| *n == name)
                    .and_then(|(_, _, p)| p.clone()),
            };
            let inside = home.as_deref().is_some_and(|h| {
                h.starts_with("vendor/")
                    || h.strip_prefix("crates/")
                        .is_some_and(|d| replayed.iter().any(|r| r == d))
            });
            if !inside {
                let whereabouts = home.unwrap_or_else(|| "no path in this workspace".into());
                error(
                    line,
                    format!(
                        "replayed crate `{krate}` depends on `{name}` ({whereabouts}), which is outside \
                         the replayed set; the sink rules no longer see every line a `{krate}` run can \
                         execute — add it to [rules.{RULE}] or drop the edge"
                    ),
                );
            }
        }
    }
}
