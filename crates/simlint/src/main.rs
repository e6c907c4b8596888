//! CLI for [`simlint`]. See `simlint --help`.

#![forbid(unsafe_code)]

use simlint::{compliance, config, lexer, registry, rules, Report};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The binary's own exit-code registry (simlint depends on no workspace
/// crate, so it keeps a local table; sim binaries use
/// `greenenvy::exitcode`).
mod exit {
    /// Clean: no unsuppressed findings / no compliance violations.
    pub const OK: i32 = 0;
    /// Findings or violations.
    pub const FINDINGS: i32 = 1;
    /// Usage or configuration error.
    pub const USAGE: i32 = 2;
}

const USAGE: &str = "\
simlint — workspace static analysis for determinism, panic-hygiene, and durability

USAGE:
    simlint [--workspace] [--root <dir>] [--config <file>] [--json]
            [--show-suppressed] [--list-rules] [--update-schema-lock] [files...]
    simlint compliance [--root <dir>] [--config <file>] [--json]

MODES:
    --workspace          lint every .rs file under the workspace root, each
                         lexed once: the token rules plus the workspace
                         rules (exit-code/schema/metric registries on the
                         same tokens, replayed-crate dependency closure on
                         the manifests). Default when no files are given.
    files...             token-lint just these files (no workspace rules;
                         paths are reported relative to the workspace root
                         when possible)
    compliance           cross-check //= DESIGN.md#anchor and //= <spec>#anchor
                         citations against the documented invariant registry;
                         report coverage (markdown table, or --json schema v1).
                         Exit 1 on uncovered invariants or stale anchors.

OPTIONS:
    --root <dir>         workspace root (default: nearest ancestor of the cwd
                         containing simlint.toml)
    --config <file>      config file (default: <root>/simlint.toml)
    --json               emit the machine-readable report on stdout
    --show-suppressed    include suppressed findings in human output
    --list-rules         print every rule id, default severity, and description
                         (the invariant each one protects: DESIGN.md, section
                         `Static analysis & enforced invariants`)
    --update-schema-lock rewrite schema.lock from the current record-struct
                         shapes and *_SCHEMA consts, then exit

EXIT CODES:
    0  no unsuppressed error-severity findings / no compliance violations
    1  findings / violations
    2  usage or configuration error
";

struct Args {
    compliance: bool,
    root: Option<PathBuf>,
    config: Option<PathBuf>,
    json: bool,
    show_suppressed: bool,
    list_rules: bool,
    update_schema_lock: bool,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        compliance: false,
        root: None,
        config: None,
        json: false,
        show_suppressed: false,
        list_rules: false,
        update_schema_lock: false,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            // Subcommand; conventionally first, but accepted anywhere
            // so `--root <dir> compliance` also works.
            "compliance" => args.compliance = true,
            "--workspace" => {} // the default; accepted for explicitness
            "--root" => args.root = Some(next_path(&mut it, "--root")?),
            "--config" => args.config = Some(next_path(&mut it, "--config")?),
            "--json" => args.json = true,
            "--show-suppressed" => args.show_suppressed = true,
            "--list-rules" => args.list_rules = true,
            "--update-schema-lock" => args.update_schema_lock = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(exit::OK);
            }
            f if !f.starts_with('-') => args.files.push(PathBuf::from(f)),
            other => return Err(format!("unknown flag {other} (see --help)")),
        }
    }
    if args.compliance && (!args.files.is_empty() || args.update_schema_lock) {
        return Err("`simlint compliance` takes no file arguments".into());
    }
    Ok(args)
}

fn next_path(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<PathBuf, String> {
    it.next()
        .map(PathBuf::from)
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Nearest ancestor of the cwd containing `simlint.toml`.
fn find_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let mut dir = cwd.as_path();
    loop {
        if dir.join(simlint::CONFIG_FILE).is_file() {
            return Ok(dir.to_path_buf());
        }
        match dir.parent() {
            Some(p) => dir = p,
            None => {
                return Err(format!(
                    "no {} found in {} or any ancestor (pass --root)",
                    simlint::CONFIG_FILE,
                    cwd.display()
                ))
            }
        }
    }
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    if args.list_rules {
        for r in rules::RULES {
            println!(
                "{:<22} {:<5} {}",
                r.id,
                r.default_severity.as_str(),
                r.description
            );
        }
        return Ok(exit::OK);
    }

    let root = match &args.root {
        Some(r) => r.clone(),
        None => find_root()?,
    };
    let cfg_path = args
        .config
        .clone()
        .unwrap_or_else(|| root.join(simlint::CONFIG_FILE));
    let cfg_text = std::fs::read_to_string(&cfg_path)
        .map_err(|e| format!("reading {}: {e}", cfg_path.display()))?;
    let cfg = config::parse(&cfg_text, &cfg_path.to_string_lossy())?;

    if args.compliance {
        let report = compliance::run(&root, &cfg)?;
        if args.json {
            println!("{}", report.render_json());
        } else {
            print!("{}", report.render_markdown());
        }
        return Ok(if report.ok() {
            exit::OK
        } else {
            exit::FINDINGS
        });
    }

    if args.update_schema_lock {
        let files = simlint::load_workspace(&root, &cfg)?;
        let state = simlint::schema_state(&files, &cfg);
        let lock_path = root.join(registry::SCHEMA_LOCK);
        // simlint::allow(raw-write, reason = "schema.lock is a dev-tool artifact regenerated on demand, not a result; simlint depends on no workspace crate so it cannot use core::campaign::persist")
        std::fs::write(&lock_path, registry::render_lock(&state))
            .map_err(|e| format!("writing {}: {e}", lock_path.display()))?;
        eprintln!(
            "simlint: wrote {} ({} tracked file(s))",
            lock_path.display(),
            state.len()
        );
        return Ok(exit::OK);
    }

    let start = Instant::now();
    let mut report = if args.files.is_empty() {
        simlint::lint_workspace(&root, &cfg)?
    } else {
        lint_files(&root, &cfg, &args.files)?
    };
    report.sort();
    let elapsed = start.elapsed();

    if args.json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human(args.show_suppressed));
        eprintln!("simlint: finished in {:.3}s", elapsed.as_secs_f64());
    }
    Ok(if report.count_gating() == 0 {
        exit::OK
    } else {
        exit::FINDINGS
    })
}

fn lint_files(root: &Path, cfg: &config::Config, files: &[PathBuf]) -> Result<Report, String> {
    let mut report = Report::default();
    for f in files {
        let abs = if f.is_absolute() {
            f.clone()
        } else {
            std::env::current_dir().map_err(|e| e.to_string())?.join(f)
        };
        let rel = abs
            .strip_prefix(root)
            .unwrap_or(&abs)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src =
            std::fs::read_to_string(&abs).map_err(|e| format!("reading {}: {e}", abs.display()))?;
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("root")
            .to_string();
        let is_test_file = rel
            .split('/')
            .any(|seg| seg == "tests" || seg == "benches" || seg == "examples");
        let input = rules::FileInput {
            rel_path: &rel,
            crate_name: &crate_name,
            is_test_file,
            src: &src,
        };
        rules::lint_file(&input, cfg, &mut report.diags);
        report.files_scanned += 1;
    }
    Ok(report)
}

fn main() {
    // A lexer sanity canary: the binary refuses to report "clean" if the
    // lexer cannot see through trivial camouflage. Costs microseconds and
    // turns a silently-broken lexer into a loud failure.
    let lexed = lexer::lex(r#"let s = "unwrap()"; // HashMap"#);
    assert!(
        lexed.tokens.iter().all(|t| t.text != "HashMap"),
        "lexer self-check failed"
    );

    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("simlint: error: {e}");
            std::process::exit(exit::USAGE);
        }
    }
}
