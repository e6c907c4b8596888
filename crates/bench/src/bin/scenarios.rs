//! Run the resilience scenario suite and emit its verdict matrix.
//!
//! ```text
//! scenarios [--out <file>] [--trace-out <dir>]
//! ```
//!
//! * `--out` — write the verdict JSON to this exact path (atomic).
//!   The verdict is a pure function of the suite's specs, so two runs
//!   at the same scale produce byte-identical files — `verify.sh
//!   --scenarios` diffs them.
//! * `--trace-out` — also persist the suite's observability exports
//!   (Prometheus text with the time-to-recover histogram, Perfetto
//!   trace with one span per scenario) into the given directory.
//!
//! Exits non-zero unless every scenario behaved: positive entries
//! passed all expectations, negative entries failed as designed.

use greenenvy::campaign::persist;
use greenenvy::exitcode;
use greenenvy::resilience;
use std::path::PathBuf;

fn main() {
    let scale = bench::scale_from_env();
    let mut out_path: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;

    let mut args = std::env::args();
    args.next(); // program name
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(p) => out_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --out needs a file path");
                    std::process::exit(exitcode::USAGE);
                }
            },
            "--trace-out" => match args.next() {
                Some(dir) => trace_out = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("error: --trace-out needs a directory");
                    std::process::exit(exitcode::USAGE);
                }
            },
            _ => {
                eprintln!(
                    "error: unknown flag {arg:?}\nusage: scenarios [--out <file>] [--trace-out <dir>]"
                );
                std::process::exit(exitcode::USAGE);
            }
        }
    }

    bench::announce("Resilience suite", &scale);
    let out = match resilience::run(scale) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: resilience suite failed to run: {e}");
            std::process::exit(exitcode::FAILURE);
        }
    };
    println!("{}", resilience::render(&out.verdict));

    let verdict_json = out.verdict.to_json();
    let path = out_path
        .unwrap_or_else(|| PathBuf::from("results").join(format!("scenarios_{}.json", scale.name)));
    match persist::write_atomic(&path, verdict_json.as_bytes()) {
        Ok(()) => println!("json: {}", path.display()),
        Err(e) => eprintln!("warning: {e}"),
    }

    if let Some(dir) = trace_out {
        let prom = dir.join(format!("{}.prom", resilience::SUITE_NAME));
        let trace = dir.join(format!("{}.trace.json", resilience::SUITE_NAME));
        if let Err(e) = persist::write_atomic(&prom, out.prometheus.as_bytes()) {
            eprintln!("warning: {e}");
        }
        if let Err(e) = persist::write_atomic(&trace, out.trace_json.as_bytes()) {
            eprintln!("warning: {e}");
        }
        println!("obs: {} {}", prom.display(), trace.display());
    }

    if !out.verdict.all_behaved {
        eprintln!("error: suite misbehaved (see verdict above)");
        std::process::exit(exitcode::FAILURE);
    }
}
