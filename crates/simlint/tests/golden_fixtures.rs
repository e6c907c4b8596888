//! Golden fixture tests: each `fixtures/<name>.rs` is linted with every
//! rule enabled and the human-rendered report (suppressed findings
//! included) is byte-compared against `fixtures/<name>.expected`.
//! `fixtures/registry/` is a two-crate workspace with its own
//! `simlint.toml` and lock texts, linted whole so the cross-file
//! registry checks run; its report is `fixtures/registry.expected`.
//!
//! To refresh after an intentional rule change:
//! `UPDATE_EXPECTED=1 cargo test -p simlint --test golden_fixtures`
//! then review the diff like any other golden artifact.

use simlint::config::Config;
use simlint::diag::Report;
use simlint::rules::{lint_file, FileInput};
use simlint::{config, lint_loaded, load_workspace};
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Lint one fixture as if it were hot-path, non-test code in a crate
/// where every rule applies (the default config constrains nothing).
fn lint_fixture(name: &str) -> Report {
    let path = fixtures_dir().join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    let input = FileInput {
        rel_path: &format!("fixtures/{name}"),
        crate_name: "fixture",
        is_test_file: false,
        src: &src,
    };
    let mut report = Report::default();
    lint_file(&input, &Config::default(), &mut report.diags);
    report.files_scanned = 1;
    report.sort();
    report
}

fn check_golden(name: &str) {
    let rendered = lint_fixture(name).render_human(true);
    check_rendered(&name.replace(".rs", ".expected"), &rendered);
}

/// Byte-compare `rendered` with `fixtures/<expected>`.
fn check_rendered(expected: &str, rendered: &str) {
    let expected_path = fixtures_dir().join(expected);
    if std::env::var_os("UPDATE_EXPECTED").is_some() {
        std::fs::write(&expected_path, rendered).expect("writing expected file");
        return;
    }
    let expected = std::fs::read_to_string(&expected_path).unwrap_or_else(|e| {
        panic!(
            "reading {}: {e}\n(run with UPDATE_EXPECTED=1 to create it)\nrendered:\n{rendered}",
            expected_path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "diagnostics drifted from golden file {}",
        expected_path.display()
    );
}

//= DESIGN.md#inv-hash-container
//= DESIGN.md#inv-wall-clock
//# Simulation state must be a pure function of config + seed.
//= DESIGN.md#inv-thread-id
//= DESIGN.md#inv-ambient-input
//= DESIGN.md#inv-rng-discipline
#[test]
fn determinism_fixture() {
    check_golden("determinism.rs");
}

//= DESIGN.md#inv-panic-hygiene
//= DESIGN.md#inv-range-index
#[test]
fn panic_fixture() {
    check_golden("panic.rs");
}

//= DESIGN.md#inv-raw-write
#[test]
fn durability_fixture() {
    check_golden("durability.rs");
}

/// The registry workspace under its current lock (the whole report),
/// then with no lock and with an unreadable one (what
/// `schema-version-bump` says). The file order is reversed between
/// runs: the report may not depend on it.
//= DESIGN.md#inv-exit-code-registry
//= DESIGN.md#inv-schema-version-bump
//= DESIGN.md#inv-metric-name-registry
#[test]
fn registry_fixture() {
    let root = fixtures_dir().join("registry");
    let read = |name: &str| {
        std::fs::read_to_string(root.join(name))
            .unwrap_or_else(|e| panic!("reading fixtures/registry/{name}: {e}"))
    };
    let cfg = config::parse(
        &read(simlint::CONFIG_FILE),
        "fixtures/registry/simlint.toml",
    )
    .expect("fixture config parses");
    let mut files = load_workspace(&root, &cfg).expect("fixture workspace loads");
    let mut rendered = String::new();
    for (title, lock) in [
        ("schema.lock", Some(read("schema.lock"))),
        ("no lock", None),
        ("garbage.lock", Some(read("garbage.lock"))),
    ] {
        let mut report = lint_loaded(&files, &cfg, lock.as_deref());
        if title != "schema.lock" {
            report.diags.retain(|d| d.rule == "schema-version-bump");
        }
        rendered += &format!("== {title} ==\n{}", report.render_human(true));
        files.reverse();
    }
    check_rendered("registry.expected", &rendered);
}

#[test]
fn suppress_fixture() {
    check_golden("suppress.rs");
}

#[test]
fn strings_comments_fixture() {
    check_golden("strings_comments.rs");
}

//= DESIGN.md#inv-suppression
//= DESIGN.md#inv-unused-suppression
#[test]
fn suppressions_do_not_gate_but_malformed_ones_do() {
    let report = lint_fixture("suppress.rs");
    // Well-formed allows: suppressed, not gating.
    assert!(report.count_suppressed() >= 4, "{report:?}");
    // Missing reason + unknown rule produce gating `suppression` errors,
    // and the unwraps they failed to cover stay gating too.
    let gating: Vec<_> = report.gating().collect();
    assert!(
        gating.iter().filter(|d| d.rule == "suppression").count() >= 2,
        "{gating:?}"
    );
    assert!(
        gating.iter().filter(|d| d.rule == "panic-hygiene").count() >= 2,
        "{gating:?}"
    );
    // The dangling allow is reported stale.
    assert!(
        report.diags.iter().any(|d| d.rule == "unused-suppression"),
        "{report:?}"
    );
}

#[test]
fn strings_and_comments_hide_everything_but_the_real_finding() {
    let report = lint_fixture("strings_comments.rs");
    let gating: Vec<_> = report.gating().collect();
    assert_eq!(gating.len(), 1, "{gating:?}");
    assert_eq!(gating[0].rule, "panic-hygiene");
    assert_eq!(gating[0].line, 18);
}
