//! The `bench` binary held to its command table: what each row refuses,
//! what `all` adds up to, and what the docs may call a command.

use bench::COMMANDS;
use greenenvy::exitcode::{DEGRADED, FAILURE, OK, QUARANTINED, USAGE};
use greenenvy::matrix::Matrix;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::Duration;

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

/// A healthy `--trace-out` campaign writes the same artifacts and matrix
/// twice over: a `.trace.json` and a `.prom` per cell plus the
/// supervisor's snapshot. A `--trace-out` directory that cannot be made
/// costs the campaign its sidecars, never a cell: all 40 cells are
/// measured, the matrix is the healthy run's byte for byte, and the run
/// ends `DEGRADED`.
#[test]
fn a_lost_campaign_trace_degrades_and_keeps_every_cell() {
    let fresh = |cwd: &str| {
        let _ = std::fs::remove_dir_all(scratch(cwd));
        std::fs::create_dir_all(scratch(cwd)).unwrap();
    };
    for cwd in ["traced-a", "traced-b"] {
        fresh(cwd);
        let out = bench_in(cwd, &["campaign", "--trace-out", "traces"], &[]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(OK), "{cwd}: {err}");
    }
    let traces = |cwd: &str| -> Vec<String> {
        let dir = std::fs::read_dir(scratch(cwd).join("traces")).expect("traces written");
        let mut names: Vec<String> = dir
            .map(|e| format!("traces/{}", e.unwrap().file_name().to_string_lossy()))
            .collect();
        names.sort();
        names
    };
    let names = traces("traced-a");
    assert_eq!(names, traces("traced-b"));
    let count = |suffix: &str| names.iter().filter(|n| n.ends_with(suffix)).count();
    let counts = (count(".trace.json"), count(".prom"), names.len());
    assert_eq!(counts, (40, 41, 81), "{names:?}");
    assert!(names.contains(&"traces/campaign_supervisor.prom".to_string()));
    let matrix = "results/matrix_tiny.json";
    for name in names.iter().map(String::as_str).chain([matrix]) {
        let read = |cwd: &str| std::fs::read(scratch(cwd).join(name)).expect(name);
        let body = read("traced-a");
        assert!(body == read("traced-b"), "{name} differs between two runs");
        if name.ends_with(".trace.json") {
            let body = String::from_utf8_lossy(&body);
            assert!(
                body.contains("\"traceEvents\""),
                "{name} is no Chrome trace"
            );
        }
    }

    let cwd = "campaign-blocked";
    fresh(cwd);
    std::fs::write(scratch(cwd).join("blocker"), b"not a directory").unwrap();
    let out = bench_in(cwd, &["campaign", "--trace-out", "blocker/traces"], &[]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(DEGRADED), "{err}");
    assert!(err.contains("41 trace artifact(s) are lost"), "{err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("40 executed, 0 failed"), "{stdout}");
    let body = std::fs::read(scratch(cwd).join(matrix)).expect("the matrix is written");
    let healthy = std::fs::read(scratch("traced-a").join(matrix)).unwrap();
    assert!(body == healthy, "a lost trace changed the matrix");
}

/// A cell that fails is a `"failed"` journal record and a `failed`
/// matrix entry, and the campaign exits `QUARANTINED`. A zero
/// `--deadline` fails every cell before it simulates anything.
#[test]
fn failed_cells_are_journaled_and_the_campaign_exits_quarantined() {
    let cwd = "quarantined";
    let _ = std::fs::remove_dir_all(scratch(cwd));
    let args = ["campaign", "--deadline", "0", "--journal-dir", "journal"];
    let out = bench_in(cwd, &args, &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(QUARANTINED), "{stdout}");
    assert!(stdout.contains("40 executed, 40 failed"), "{stdout}");
    let shards = std::fs::read_dir(scratch(cwd).join("journal")).unwrap();
    let failed: usize = shards
        .map(|shard| std::fs::read_to_string(shard.unwrap().path()).unwrap())
        .map(|body| body.matches("\"kind\":\"failed\"").count())
        .sum();
    assert_eq!(failed, 40);
    let path = scratch(cwd).join("results/matrix_tiny.json");
    let matrix: Matrix = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!((matrix.cells.len(), matrix.failed.len()), (0, 40));
}

/// A campaign stops the way any process stops: SIGKILLed mid-flight, it
/// leaves the cells journaled so far, and `--resume` runs only the rest
/// into the uninterrupted run's matrix, byte for byte. Both lives run
/// `--paranoid`, so every one of the 40 real cells passes the invariant
/// audit too.
#[test]
fn a_killed_campaign_resumes_to_the_uninterrupted_matrix() {
    for cwd in ["uninterrupted", "killed"] {
        let _ = std::fs::remove_dir_all(scratch(cwd));
        std::fs::create_dir_all(scratch(cwd)).unwrap();
    }
    let args = ["campaign", "--threads", "1", "--paranoid"];
    let out = bench_in("uninterrupted", &args, &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(OK), "{stdout}");
    assert!(stdout.contains("paranoid: true"), "{stdout}");

    let mut child = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .current_dir(scratch("killed"))
        .env("GREENENVY_SCALE", "tiny")
        .stdout(Stdio::null())
        .spawn()
        .expect("bench starts");
    // Whole records only: a torn last line is not a journaled cell.
    let shard = scratch("killed").join("results/campaign_tiny.journal/shard-000.jsonl");
    let records = || {
        let body = std::fs::read_to_string(&shard).unwrap_or_default();
        body.matches('\n').count().saturating_sub(1)
    };
    while records() < 3 && child.try_wait().expect("child status").is_none() {
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL");
    child.wait().expect("the killed campaign is reaped");
    let journaled = records();
    assert!(
        (3..40).contains(&journaled),
        "{journaled} records journaled"
    );

    let out = bench_in("killed", &[&args[..], &["--resume"]].concat(), &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(OK), "{stdout}");
    assert!(stdout.contains("paranoid: true"), "{stdout}");
    let cells = format!("{journaled} reused, {} executed, 0 failed", 40 - journaled);
    assert!(stdout.contains(&cells), "{stdout}");
    let matrix = |cwd: &str| std::fs::read(scratch(cwd).join("results/matrix_tiny.json"));
    assert!(matrix("killed").unwrap() == matrix("uninterrupted").unwrap());
}

/// `report` skips an artefact that is absent, but one that is there and
/// does not read as its figure fails the command, naming the file, and
/// no report is written.
#[test]
fn report_refuses_a_malformed_artefact() {
    for (name, body) in [
        ("fig1", "{\"bad\": "),
        ("fig1", r#"{"points": [{"fraction": 0.5}]}"#),
        ("fig5", "{}"),
    ] {
        let cwd = format!("report-{name}");
        let results = scratch(&cwd).join("results");
        let _ = std::fs::remove_dir_all(scratch(&cwd));
        std::fs::create_dir_all(&results).unwrap();
        std::fs::write(results.join(format!("{name}.json")), body).unwrap();
        let out = bench_in(&cwd, &["report"], &[]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(FAILURE), "{name}: {err}");
        let named = format!("error: results/{name}.json: ");
        assert!(err.contains(&named), "{name}: {err}");
        assert!(!results.join("REPORT.md").exists(), "{name}");
    }
    let _ = std::fs::remove_dir_all(scratch("report-none"));
    let out = bench_in("report-none", &["report"], &[]);
    assert_eq!(out.status.code(), Some(OK));
    assert!(scratch("report-none").join("results/REPORT.md").exists());
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
    // The flags `verify.sh` accepts: the `--<flag>)` arms of its `case`.
    let verify = std::fs::read_to_string(root.join("scripts/verify.sh")).unwrap();
    let flags: Vec<&str> = verify
        .lines()
        .filter_map(|line| Some(line.trim().strip_prefix("--")?.split_once(')')?.0))
        .collect();
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
        // inside a longer word, `workbench`, is not an invocation.) A
        // `verify.sh --<word>` names one of its flags.
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        let text = text.replace('"', "").replace("bench -- ", "bench ");
        for marker in ["bench ", "--bin ", "verify.sh --"] {
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
                let (held, rule) = match marker {
                    "verify.sh --" => (
                        flags.contains(&word.as_str()),
                        "verify.sh takes only the flags its `case` lists",
                    ),
                    _ => (
                        is_command == (marker == "bench "),
                        "commands are the rows of bench::COMMANDS, run as \
                         `-p bench -- <name>` (and the crate is `bench`, in backticks)",
                    ),
                };
                assert!(held, "{doc}: `{marker}{word}` — {rule}");
            }
        }
    }
}
