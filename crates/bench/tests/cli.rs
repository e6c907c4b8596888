//! The `bench` binary held to its command table: what each row refuses,
//! what `all` adds up to, and what the docs may call a command.

use bench::COMMANDS;
use greenenvy::exitcode::{DEGRADED, FAILURE, OK, USAGE};
use greenenvy::matrix::Matrix;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(cwd: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{cwd}"))
}

/// `GREENENVY_SCALE=tiny bench <args>` in the scratch cwd named `cwd`,
/// with `env` on top of the environment.
fn bench_in(cwd: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    std::fs::create_dir_all(scratch(cwd)).expect("scratch cwd");
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .current_dir(scratch(cwd))
        .env("GREENENVY_SCALE", "tiny")
        .env_remove("GREENENVY_POISON")
        .envs(env.iter().copied())
        .output()
        .expect("bench runs")
}

/// `bench <args>` must exit `USAGE`, name each of `named` on stderr,
/// print nothing and write nothing.
fn assert_refused(args: &[&str], env: &[(&str, &str)], named: &[&str]) {
    let out = bench_in("refused", args, env);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(USAGE), "{args:?} {env:?}: {err}");
    for name in named {
        assert!(err.contains(name), "{args:?} {env:?}: no {name:?} in {err}");
    }
    assert!(out.stdout.is_empty(), "{args:?} ran before it was refused");
    let wrote = std::fs::read_dir(scratch("refused")).unwrap().count();
    assert_eq!(wrote, 0, "{args:?} wrote something");
}

#[test]
fn unknown_or_missing_command_prints_the_table() {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    assert_refused(&["fig9"], &[], &names);
    assert_refused(&[], &[], &names);
    let help = bench_in("help", &["help"], &[]);
    assert_eq!(help.status.code(), Some(OK));
    assert_eq!(String::from_utf8_lossy(&help.stdout), bench::help());
}

#[test]
fn unknown_gate_is_a_usage_error_and_nothing_is_measured() {
    let args = ["perf_gates", "journal_sharding", "no_such_gate"];
    // The message names the offender and lists the gates.
    assert_refused(&args, &[], &["no_such_gate", "sack_scaling"]);
}

#[test]
fn every_usage_flag_is_known_and_a_bogus_one_is_refused() {
    for command in COMMANDS {
        let usage_line = format!("usage: bench {}", command.name);
        assert_refused(&[command.name, "--bogus"], &[], &["--bogus", &usage_line]);
        // A flag the row lists gets past "unknown flag": one that takes
        // a value is refused for lacking it, a bare one lets the bogus
        // flag after it be the one refused.
        let words: Vec<&str> = command.usage.split([' ', '[', ']']).collect();
        for (i, flag) in words.iter().enumerate() {
            if flag.starts_with("--") && words[i + 1].starts_with('<') {
                let missing = format!("{flag} needs a value");
                assert_refused(&[command.name, flag], &[], &[&missing]);
            } else if flag.starts_with("--") {
                assert_refused(&[command.name, flag, "--bogus"], &[], &["\"--bogus\""]);
            }
        }
    }
}

#[test]
fn malformed_values_are_usage_errors_not_silent_defaults() {
    assert_refused(&["theorem1", "10x000"], &[], &["10x000"]);
    assert_refused(&["cca_table", "500MB"], &[], &["500MB"]);
    assert_refused(&["cca_table", "1000", "9k"], &[], &["9k"]);
    assert_refused(&["cca_table", "1000", "40"], &[], &["\"40\" for mtu"]);
    assert_refused(&["campaign", "--threads", "two"], &[], &["two"]);
    // Zero workers, trials or bytes would run nothing and still exit 0.
    assert_refused(
        &["campaign", "--threads", "0"],
        &[],
        &["\"0\" for --threads"],
    );
    assert_refused(&["theorem1", "0"], &[], &["\"0\" for trials"]);
    assert_refused(&["cca_table", "0"], &[], &["\"0\" for bytes"]);
    for secs in ["-1", "nan", "inf", "1e300", "soon"] {
        let named = format!("{secs:?} for --deadline");
        assert_refused(&["campaign", "--deadline", secs], &[], &[&named]);
    }
    // A CCA or MTU the campaign does not run names no cell either. (At
    // tiny scale, so a value let through costs seconds, not a campaign.)
    for typo in [
        "cubic@15OO",
        "qubic@1500",
        "cubic",
        "hpcc@9000",
        "cubic@1234",
    ] {
        let env = [("GREENENVY_SCALE", "tiny"), ("GREENENVY_POISON", typo)];
        assert_refused(&["campaign"], &env, &[typo]);
    }
    // A command that runs at a scale refuses one that names none; a
    // scale-free command never reads the variable.
    let typo = [("GREENENVY_SCALE", "no-such-scale")];
    assert_refused(&["fig1"], &typo, &["no-such-scale"]);
    let out = bench_in("scale-free", &["theorem1", "50"], &typo);
    assert_eq!(out.status.code(), Some(OK));
}

#[test]
fn an_artifact_that_cannot_be_written_fails_the_command() {
    // A regular file named `results` leaves nothing writable under it.
    let cwd = "blocked";
    let _ = std::fs::remove_dir_all(scratch(cwd));
    std::fs::create_dir_all(scratch(cwd)).unwrap();
    std::fs::write(scratch(cwd).join("results"), b"not a directory").unwrap();
    for args in [&["theorem1", "100"][..], &["scenarios"], &["all"]] {
        let out = bench_in(cwd, args, &[]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(FAILURE), "{args:?}: {err}");
        assert!(err.contains("cannot write results"), "{args:?}: {err}");
    }
    // The verdict lands elsewhere, the obs export under the file: the
    // results stand, their sidecars do not, and no path is claimed.
    let args = [
        "scenarios",
        "--out",
        "verdict.json",
        "--trace-out",
        "results/obs",
    ];
    let out = bench_in(cwd, &args, &[]);
    assert_eq!(out.status.code(), Some(DEGRADED));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("json: verdict.json"), "{stdout}");
    assert!(!stdout.contains("obs:"), "{stdout}");
}

/// A `--trace-out` directory that cannot be made costs the campaign its
/// sidecars, never a cell: all 40 cells are measured, the matrix is
/// whole, and the run ends `DEGRADED`.
#[test]
fn a_lost_campaign_trace_degrades_and_keeps_every_cell() {
    let cwd = "campaign-blocked";
    let _ = std::fs::remove_dir_all(scratch(cwd));
    std::fs::create_dir_all(scratch(cwd)).unwrap();
    std::fs::write(scratch(cwd).join("blocker"), b"not a directory").unwrap();
    let out = bench_in(cwd, &["campaign", "--trace-out", "blocker/traces"], &[]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(DEGRADED), "{err}");
    assert!(err.contains("41 trace artifact(s) are lost"), "{err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("40 executed, 0 skipped, 0 failed"),
        "{stdout}"
    );
    let path = scratch(cwd).join("results").join("matrix_tiny.json");
    let body = std::fs::read_to_string(path).expect("the matrix is written");
    let matrix: Matrix = serde_json::from_str(&body).unwrap();
    assert!(matrix.is_complete(), "{:?}", matrix.failed);
    assert_eq!(matrix.cells.len(), 40);
}

#[test]
fn retired_campaign_flags_are_usage_errors() {
    // A campaign has no retry schedule and no cells-only projection: one
    // attempt per cell per life, and the matrix is the artifact.
    for (flag, value) in [
        ("--max-attempts", "2"),
        ("--backoff", "1"),
        ("--cells-out", "x"),
    ] {
        let named = format!("{flag:?}");
        assert_refused(
            &["campaign", flag, value],
            &[],
            &[&named, "usage: bench campaign"],
        );
    }
}

#[test]
fn all_is_its_commands_run_one_by_one_on_one_campaign() {
    let stdout = |out: &Output| String::from_utf8_lossy(&out.stdout).into_owned();
    let in_all = || COMMANDS.iter().filter(|c| c.in_all).map(|c| c.name);
    for cwd in ["all", "one-by-one"] {
        let _ = std::fs::remove_dir_all(scratch(cwd));
    }
    let out = bench_in("all", &["all"], &[]);
    assert_eq!(out.status.code(), Some(OK));
    assert_eq!(stdout(&out).matches("=== ").count(), 1, "one banner");
    // Each figure command alone computes its own campaign; what `all`
    // shares across fig5-8 must be exactly that.
    for name in in_all() {
        let out = bench_in("one-by-one", &[name], &[]);
        assert_eq!(out.status.code(), Some(OK), "{name}");
    }

    // Exactly the `in_all` artefacts, byte for byte: no matrix file.
    let results = |cwd: &str| scratch(cwd).join("results");
    for cwd in ["all", "one-by-one"] {
        let written = std::fs::read_dir(results(cwd)).unwrap().count();
        assert_eq!(written, in_all().count(), "{cwd}");
    }
    for name in in_all() {
        let read = |cwd: &str| std::fs::read(results(cwd).join(format!("{name}.json")));
        assert!(
            read("all").expect(name) == read("one-by-one").expect(name),
            "{name}"
        );
    }
}

#[test]
fn a_matrix_file_in_results_is_never_read() {
    let embedded = |cwd: &str, fig: &str| -> serde_json::Value {
        let path = scratch(cwd).join("results").join(format!("{fig}.json"));
        let body = std::fs::read_to_string(&path).expect(fig);
        serde_json::from_str::<serde_json::Value>(&body).unwrap()["matrix"].clone()
    };
    for cwd in ["clean", "planted"] {
        let _ = std::fs::remove_dir_all(scratch(cwd));
    }
    assert_eq!(bench_in("clean", &["fig5"], &[]).status.code(), Some(OK));
    let clean = embedded("clean", "fig5");

    // The same matrix with one cell's energy moved, where a figure
    // command would once have looked for a cached campaign.
    let clean_text = serde_json::to_string(&clean).unwrap();
    let mut planted: Matrix = serde_json::from_str(&clean_text).unwrap();
    planted.cells[0].energy_j.mean *= 2.0;
    let dir = scratch("planted").join("results");
    std::fs::create_dir_all(&dir).unwrap();
    let body = serde_json::to_string_pretty(&planted).unwrap();
    std::fs::write(dir.join("matrix_tiny.json"), body).unwrap();

    assert_eq!(bench_in("planted", &["fig6"], &[]).status.code(), Some(OK));
    assert!(
        embedded("planted", "fig6") == clean,
        "fig6 read the planted matrix instead of running its campaign"
    );
}

#[test]
fn docs_name_only_commands_in_the_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for doc in [
        "README.md",
        "EXPERIMENTS.md",
        "DESIGN.md",
        "scripts/verify.sh",
        ".claude/skills/verify/SKILL.md",
    ] {
        // An invocation is `bench <word>`, `-p bench -- <word>` or the
        // shell's `"$repo/target/release/bench" <word>`, and its word is a
        // row of the table; what follows `--bin` no longer is. ("bench"
        // inside a longer word, `workbench`, is not an invocation.)
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        let text = text.replace('"', "").replace("bench -- ", "bench ");
        for (marker, is_invocation) in [("bench ", true), ("--bin ", false)] {
            for (at, _) in text.match_indices(marker) {
                let ident = |c: &char| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_';
                let word: String = text[at + marker.len()..]
                    .chars()
                    .take_while(ident)
                    .collect();
                if word.is_empty() || text[..at].ends_with(|c: char| c.is_alphanumeric()) {
                    continue;
                }
                let is_command = COMMANDS.iter().any(|c| c.name == word);
                assert_eq!(
                    is_command, is_invocation,
                    "{doc}: `{marker}{word}` — commands are the rows of bench::COMMANDS, \
                     run as `-p bench -- <name>` (and the crate is `bench`, in backticks)"
                );
            }
        }
    }
}
