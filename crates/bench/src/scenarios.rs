//! Run the resilience scenario suite and emit its verdict matrix.
//!
//! * `--out` — write the verdict JSON to this exact path (atomic).
//!   The verdict is a pure function of the suite's specs, so two runs
//!   at the same scale produce byte-identical files
//!   (`greenenvy`'s `tests/golden_resilience.rs` pins the tiny ones).
//! * `--trace-out` — also persist the suite's observability exports
//!   (Prometheus text with the time-to-recover histogram, Perfetto
//!   trace with one span per scenario) into the given directory.
//!
//! Exit status (`greenenvy::exitcode`): `OK` — every scenario behaved
//! (positive entries passed all expectations, negative entries failed
//! as designed) and every artifact was written; `FAILURE` — a scenario
//! misbehaved or the suite failed to run, or the verdict could not be
//! written; `DEGRADED` — the verdict is written and sound, but an
//! observability export under `--trace-out` is not.

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

    let path = out_path
        .unwrap_or_else(|| PathBuf::from("results").join(format!("scenarios_{}.json", scale.name)));
    let mut code = match persist::write_atomic(&path, out.verdict.to_json().as_bytes()) {
        Ok(()) => {
            println!("json: {}", path.display());
            exitcode::OK
        }
        Err(e) => {
            eprintln!("error: {e}");
            exitcode::FAILURE
        }
    };

    if let Some(dir) = trace_out {
        let mut written = Vec::new();
        for (ext, text) in [("prom", &out.prometheus), ("trace.json", &out.trace_json)] {
            let path = dir.join(format!("{}.{ext}", resilience::SUITE_NAME));
            match persist::write_atomic(&path, text.as_bytes()) {
                Ok(()) => written.push(path.display().to_string()),
                Err(e) => {
                    eprintln!("DEGRADED: suite obs export lost: trace-out: {e}");
                    if code == exitcode::OK {
                        code = exitcode::DEGRADED;
                    }
                }
            }
        }
        if !written.is_empty() {
            println!("obs: {}", written.join(" "));
        }
    }

    if !out.verdict.all_behaved {
        eprintln!("error: suite misbehaved (see verdict above)");
        return Ok(exitcode::FAILURE);
    }
    Ok(code)
}
