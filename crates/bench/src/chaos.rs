//! Regenerate the chaos experiment: the Figure-1 energy ordering under
//! injected random loss on the bottleneck.
//!
//! * `--trace-out` — persist per-run observability artifacts (Perfetto
//!   trace + Prometheus snapshot; flight-ring dumps on abort) into the
//!   given directory, one trio per `rate<i>_seed<s>_{fair,serial}` run.
//!
//! Exit status: 0 — sweep complete; 5 — degraded (measurements complete
//! but one or more trace artifacts failed to persist); 1 — the sweep
//! itself failed; 2 — usage error.
use crate::args::{Args, Usage};
use crate::Ctx;
use greenenvy::chaos;
use greenenvy::exitcode;

/// The `chaos` command.
pub fn run(ctx: &Ctx, args: &mut Args) -> Result<i32, Usage> {
    let scale = ctx.scale()?;
    let mut cfg = chaos::Config::at_scale(scale);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--trace-out" => cfg.trace_out = Some(args.value(&flag)?),
            _ => return Err(Usage(format!("unknown flag {flag:?}"))),
        }
    }

    ctx.announce("Chaos", &scale);
    if let Some(dir) = &cfg.trace_out {
        println!("trace-out: {}\n", dir.display());
    }
    let result = match chaos::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: chaos sweep failed: {e}");
            return Ok(exitcode::FAILURE);
        }
    };
    crate::emit("chaos", &result, chaos::render);
    if !result.persist_failures.is_empty() {
        eprintln!(
            "DEGRADED: {} trace artifact(s) failed to persist:",
            result.persist_failures.len()
        );
        for f in &result.persist_failures {
            eprintln!("  {f}");
        }
        return Ok(exitcode::DEGRADED);
    }
    Ok(exitcode::OK)
}
