//! Regenerate the chaos experiment: the Figure-1 energy ordering under
//! injected random loss on the bottleneck.
//!
//! ```text
//! chaos [--trace-out <dir>]
//! ```
//!
//! * `--trace-out` — persist per-run observability artifacts (Perfetto
//!   trace + Prometheus snapshot; flight-ring dumps on abort) into the
//!   given directory, one trio per `rate<i>_seed<s>_{fair,serial}` run.
//!
//! Exit status: 0 — sweep complete; 5 — degraded (measurements complete
//! but one or more trace artifacts failed to persist); 1 — the sweep
//! itself failed; 2 — usage error.
use greenenvy::chaos;
use greenenvy::exitcode;
use std::path::PathBuf;

fn main() {
    let scale = bench::scale_from_env();
    let mut cfg = chaos::Config::at_scale(scale);

    let mut args = std::env::args();
    args.next(); // program name
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace-out" => match args.next() {
                Some(dir) => cfg.trace_out = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("error: --trace-out needs a directory");
                    std::process::exit(exitcode::USAGE);
                }
            },
            _ => {
                eprintln!("error: unknown flag {arg:?}\nusage: chaos [--trace-out <dir>]");
                std::process::exit(exitcode::USAGE);
            }
        }
    }

    bench::announce("Chaos", &scale);
    if let Some(dir) = &cfg.trace_out {
        println!("trace-out: {}\n", dir.display());
    }
    let result = match chaos::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: chaos sweep failed: {e}");
            std::process::exit(exitcode::FAILURE);
        }
    };
    println!("{}", chaos::render(&result));
    if let Some(p) = bench::save_json("chaos", &result) {
        println!("json: {}", p.display());
    }
    if !result.persist_failures.is_empty() {
        eprintln!(
            "DEGRADED: {} trace artifact(s) failed to persist:",
            result.persist_failures.len()
        );
        for f in &result.persist_failures {
            eprintln!("  {f}");
        }
        std::process::exit(exitcode::DEGRADED);
    }
}
