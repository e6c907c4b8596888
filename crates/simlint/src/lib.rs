//! `simlint` — workspace-native static analysis for the Green-With-Envy
//! reproduction.
//!
//! The repo's headline results rest on bit-reproducible simulation and
//! crash-durable artifacts. The golden fingerprint tests prove those
//! properties for the paths they exercise; `simlint` keeps future PRs
//! from silently reintroducing the classic regressions (a `HashMap`
//! iteration, a wall-clock read, an ad-hoc RNG stream, a raw
//! `fs::write`) anywhere in the workspace. One reader — a
//! comment/string-aware lexer, run once per file — and two kinds of rule
//! over its tokens; no rustc plumbing, no external dependencies:
//!
//! * **token rules** — patterns scoped per crate/path via
//!   `simlint.toml`. The determinism rules among them match one sink
//!   table ([`rules::SINKS`]) in the replayed crates, and [`closure`]
//!   reads those crates' manifests to prove the set closed under
//!   "depends on" — so a sink a replayed run can reach is always on a
//!   line these rules scan;
//! * **registry rules** — token patterns too ([`registry`]: literal exit
//!   codes, metric-name literals, record-type shapes), run only when the
//!   whole workspace is linted because two of them compare files: one
//!   owner per metric name, and `schema.lock` against every tracked
//!   record file.
//!
//! A third mode, `simlint compliance`, cross-checks `//= DESIGN.md#…` /
//! `//= rfc9002#…` citations in source against the documented invariant
//! and spec anchor registries (see [`compliance`]).
//!
//! Findings can be suppressed inline where the flagged construct is
//! genuinely intentional, but only with a reason:
//!
//! ```text
//! // simlint::allow(wall-clock, reason = "watchdog deadline is wall time by design")
//! ```
//!
//! See `simlint.toml` at the repo root for the rule→crate scoping and
//! DESIGN.md ("Static analysis & enforced invariants") for the mapping
//! from each rule to the design invariant it protects.

#![forbid(unsafe_code)]

pub mod closure;
pub mod compliance;
pub mod config;
pub mod diag;
pub mod lexer;
pub mod registry;
pub mod rules;
pub mod walk;

pub use config::Config;
pub use diag::{Diagnostic, Report, Severity};

use registry::{Registry, SchemaEntry};
use rules::Suppression;
use std::collections::BTreeMap;
use std::path::Path;

/// Name of the config file looked up at the workspace root.
pub const CONFIG_FILE: &str = "simlint.toml";

/// One source file read into memory, with its workspace classification.
pub struct LoadedFile {
    pub rel_path: String,
    pub crate_name: String,
    pub is_test_file: bool,
    pub src: String,
}

/// Walk `root` and read every lintable file.
pub fn load_workspace(root: &Path, cfg: &Config) -> Result<Vec<LoadedFile>, String> {
    let files = walk::collect(root, cfg).map_err(|e| format!("walking {}: {e}", root.display()))?;
    files
        .into_iter()
        .map(|f| {
            let src = std::fs::read_to_string(&f.abs_path)
                .map_err(|e| format!("reading {}: {e}", f.abs_path.display()))?;
            Ok(LoadedFile {
                rel_path: f.rel_path,
                crate_name: f.crate_name,
                is_test_file: f.is_test_file,
                src,
            })
        })
        .collect()
}

/// The one pass over loaded files: each is lexed once and read by the
/// token rules and the registry rules. Appends the per-file findings and
/// returns what the registry kept plus each file's allows, unsettled.
fn scan(
    files: &[LoadedFile],
    cfg: &Config,
    out: &mut Vec<Diagnostic>,
) -> (Registry, BTreeMap<String, Vec<Suppression>>) {
    let mut registry = Registry::new(cfg);
    let mut sups = BTreeMap::new();
    for f in files {
        let input = rules::FileInput {
            rel_path: &f.rel_path,
            crate_name: &f.crate_name,
            is_test_file: f.is_test_file,
            src: &f.src,
        };
        let s = rules::scan_file(&input, cfg, Some(&mut registry), out);
        if !s.is_empty() {
            sups.insert(f.rel_path.clone(), s);
        }
    }
    (registry, sups)
}

/// Lint already-loaded files: the scan, the registry's cross-file checks,
/// then suppression settlement. The result is a pure function of the
/// file *set* — callers may pass `files` in any order (pinned by the
/// walk-order proptest).
pub fn lint_loaded(files: &[LoadedFile], cfg: &Config, lock_text: Option<&str>) -> Report {
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    let (registry, mut sups) = scan(files, cfg, &mut report.diags);
    registry.finish(lock_text, &mut report.diags);
    for (path, file_sups) in &mut sups {
        rules::settle(&mut report.diags, path, file_sups, false);
    }
    report.sort();
    report
}

/// Current schema state of every tracked record file: what
/// `--update-schema-lock` writes and `schema-version-bump` compares.
pub fn schema_state(files: &[LoadedFile], cfg: &Config) -> BTreeMap<String, SchemaEntry> {
    scan(files, cfg, &mut Vec::new()).0.state
}

/// Lint the workspace under `root` using `cfg`: every source file
/// through [`lint_loaded`], and the replayed crates' manifests through
/// [`closure::check`].
pub fn lint_workspace(root: &Path, cfg: &Config) -> Result<Report, String> {
    let files = load_workspace(root, cfg)?;
    let lock_text = std::fs::read_to_string(root.join(registry::SCHEMA_LOCK)).ok();
    let mut report = lint_loaded(&files, cfg, lock_text.as_deref());
    closure::check(root, cfg.replayed(), &mut report.diags);
    report.sort();
    Ok(report)
}
