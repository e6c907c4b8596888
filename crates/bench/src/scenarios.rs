//! Run the resilience scenario suite and emit its verdict matrix.
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

use crate::args::{Args, Usage};
use crate::Ctx;
use greenenvy::campaign::persist;
use greenenvy::exitcode;
use greenenvy::resilience;
use std::path::PathBuf;

/// The `scenarios` command.
pub fn run(ctx: &Ctx, args: &mut Args) -> Result<i32, Usage> {
    let scale = ctx.scale()?;
    let mut out_path: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => out_path = Some(args.value(&flag)?),
            "--trace-out" => trace_out = Some(args.value(&flag)?),
            _ => return Err(Usage(format!("unknown flag {flag:?}"))),
        }
    }

    ctx.announce("Resilience suite", &scale);
    let out = match resilience::run(scale) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: resilience suite failed to run: {e}");
            return Ok(exitcode::FAILURE);
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
        return Ok(exitcode::FAILURE);
    }
    Ok(exitcode::OK)
}
