//! `--json` schema round-trip and end-to-end CLI tests.
//!
//! The CLI tests build a scratch "workspace" (a temp dir with a
//! `simlint.toml` and a seeded-bad crate), run the real binary against
//! it, and check diagnostics and exit codes — the acceptance drill for
//! "seeding a known-bad pattern produces the expected diagnostic".

mod common;

use common::Scratch;
use serde_json::Value;
use simlint::config::Config;
use simlint::diag::Report;
use simlint::rules::{lint_file, FileInput};
use std::path::Path;
use std::process::Command;

fn lint_snippet(src: &str) -> Report {
    let input = FileInput {
        rel_path: "crates/netsim/src/hot.rs",
        crate_name: "netsim",
        is_test_file: false,
        src,
    };
    let mut report = Report::default();
    lint_file(&input, &Config::default(), &mut report.diags);
    report.files_scanned = 1;
    report.sort();
    report
}

#[test]
fn json_schema_round_trip() {
    let report = lint_snippet(
        "// simlint::allow(wall-clock, reason = \"watchdog, with \\\"quotes\\\"\")\n\
         fn f() { let _ = Instant::now(); }\n\
         fn g(m: HashMap<u32, f64>) -> f64 { m.values().sum() }\n",
    );
    let text = report.render_json();
    let parsed: Value = serde_json::from_str(&text).expect("simlint must emit valid JSON");

    // Schema fields.
    assert_eq!(parsed["version"].as_u64(), Some(1));
    assert_eq!(parsed["files_scanned"].as_u64(), Some(1));
    let summary = &parsed["summary"];
    assert_eq!(
        summary["errors"].as_u64(),
        Some(report.count_gating() as u64)
    );
    assert_eq!(
        summary["suppressed"].as_u64(),
        Some(report.count_suppressed() as u64)
    );
    let findings = parsed["findings"].as_array().unwrap();
    assert_eq!(findings.len(), report.diags.len());

    // Every finding round-trips field-for-field, in order.
    for (f, d) in findings.iter().zip(&report.diags) {
        assert_eq!(f["rule"].as_str(), Some(d.rule));
        assert_eq!(f["severity"].as_str(), Some(d.severity.as_str()));
        assert_eq!(f["path"].as_str(), Some(d.path.as_str()));
        assert_eq!(f["line"].as_u64(), Some(u64::from(d.line)));
        assert_eq!(f["col"].as_u64(), Some(u64::from(d.col)));
        assert_eq!(f["message"].as_str(), Some(d.message.as_str()));
        assert_eq!(f["suppressed"].as_bool(), Some(d.suppressed.is_some()));
        assert_eq!(f["reason"].as_str(), d.suppressed.as_deref());
        assert_eq!(f["reason"].is_null(), d.suppressed.is_none());
    }
}

fn run_simlint(root: &Path, extra: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("running simlint binary");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const SCRATCH_CONFIG: &str = "\
version = 1
skip_dirs = [\"target\"]
[rules.replayed-closure]
crates = [\"badcrate\"]
[rules.panic-hygiene]
crates = [\"badcrate\"]
";

const SCRATCH_MANIFEST: &str = "[package]\nname = \"badcrate\"\n[dependencies]\n";

#[test]
fn seeded_bad_pattern_is_caught_end_to_end() {
    let scratch = Scratch::new("bad");
    scratch.write("simlint.toml", SCRATCH_CONFIG);
    scratch.write("crates/badcrate/Cargo.toml", SCRATCH_MANIFEST);
    scratch.write(
        "crates/badcrate/src/lib.rs",
        "use std::collections::HashMap;\nfn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    let (code, stdout, stderr) = run_simlint(&scratch.root, &[]);
    assert_eq!(code, 1, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(
        stdout.contains("crates/badcrate/src/lib.rs:1:23: error[hash-container]"),
        "{stdout}"
    );
    assert!(
        stdout.contains("crates/badcrate/src/lib.rs:3:7: error[panic-hygiene]"),
        "{stdout}"
    );

    // JSON mode agrees.
    let (code, stdout, _) = run_simlint(&scratch.root, &["--json"]);
    assert_eq!(code, 1);
    let parsed: Value = serde_json::from_str(stdout.trim()).expect("valid JSON on stdout");
    assert_eq!(parsed["summary"]["errors"].as_u64(), Some(2));
}

#[test]
fn clean_and_suppressed_code_exits_zero() {
    let scratch = Scratch::new("clean");
    scratch.write("simlint.toml", SCRATCH_CONFIG);
    scratch.write("crates/badcrate/Cargo.toml", SCRATCH_MANIFEST);
    scratch.write(
        "crates/badcrate/src/lib.rs",
        "use std::collections::BTreeMap;\n\
         fn f(x: Option<u32>) -> u32 {\n\
             // simlint::allow(panic-hygiene, reason = \"boot-time config error\")\n\
             x.unwrap()\n\
         }\n\
         fn g() -> BTreeMap<u32, u32> {\n\
             BTreeMap::new()\n\
         }\n",
    );
    let (code, stdout, stderr) = run_simlint(&scratch.root, &[]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("1 suppressed"), "{stdout}");
}

const SCRATCH_DESIGN: &str = "\
# Design

## Rules

| rule | protected invariant |
|---|---|
| `no-frob` | frobs are forbidden |
";

#[test]
fn compliance_end_to_end_json_round_trip() {
    let scratch = Scratch::new("compliance");
    scratch.write("simlint.toml", SCRATCH_CONFIG);
    scratch.write("DESIGN.md", SCRATCH_DESIGN);
    scratch.write(
        "crates/badcrate/src/lib.rs",
        "//= DESIGN.md#rules\nfn covered() {}\n\
         #[cfg(test)]\nmod tests {\n    //= DESIGN.md#inv-no-frob\n    #[test]\n    fn enforces() {}\n}\n",
    );
    let (code, stdout, stderr) = run_simlint(&scratch.root, &["compliance"]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("No violations"), "{stdout}");

    let (code, stdout, _) = run_simlint(&scratch.root, &["compliance", "--json"]);
    assert_eq!(code, 0);
    let parsed: Value = serde_json::from_str(stdout.trim()).expect("valid compliance JSON");
    assert_eq!(parsed["version"].as_u64(), Some(1));
    assert_eq!(parsed["ok"].as_bool(), Some(true));
    let regs = parsed["registries"].as_array().unwrap();
    assert_eq!(regs[0]["name"].as_str(), Some("DESIGN.md"));
    let anchors = regs[0]["anchors"].as_array().unwrap();
    let inv = anchors
        .iter()
        .find(|a| a["anchor"].as_str() == Some("inv-no-frob"))
        .expect("rule-table anchor present");
    assert_eq!(inv["required"].as_bool(), Some(true));
    assert_eq!(inv["test_citations"].as_u64(), Some(1));
    assert_eq!(parsed["violations"].as_array().map(Vec::len), Some(0));
}

#[test]
fn compliance_stale_anchor_and_uncovered_invariant_gate() {
    let scratch = Scratch::new("stale");
    scratch.write("simlint.toml", SCRATCH_CONFIG);
    scratch.write("DESIGN.md", SCRATCH_DESIGN);
    // Cites an anchor that does not exist, and never cites inv-no-frob.
    scratch.write(
        "crates/badcrate/src/lib.rs",
        "//= DESIGN.md#renamed-away\nfn f() {}\n",
    );
    let (code, stdout, _) = run_simlint(&scratch.root, &["compliance"]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("stale-anchor"), "{stdout}");
    assert!(stdout.contains("renamed-away"), "{stdout}");
    assert!(stdout.contains("uncovered-invariant"), "{stdout}");
    assert!(stdout.contains("inv-no-frob"), "{stdout}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let scratch = Scratch::new("usage");
    scratch.write("simlint.toml", SCRATCH_CONFIG);
    let (code, _, stderr) = run_simlint(&scratch.root, &["--frobnicate"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("unknown flag"), "{stderr}");
}
