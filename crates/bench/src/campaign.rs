//! Durable, supervised CCA × MTU campaign runner.
//!
//! Runs the Figures 5-8 measurement campaign with the durability layer
//! switched on: fsynced per-cell checkpoint journaling (`--threads`
//! shard files), one attempt per cell on the declared seeds with panics
//! contained, and optional per-cell deadlines and paranoid-mode physics
//! audits. A signal ends the campaign as it ends any process; every cell
//! journaled before it is reused by `--resume`.
//!
//! Flags:
//!
//! * `--resume` — reuse journaled cells; only missing and failed ones
//!   run, on the same seeds.
//! * `--paranoid` — audit every repetition against the simulator's
//!   conservation laws (energy floor, frame accounting, byte bounds,
//!   monotone clocks).
//! * `--deadline` — wall-clock budget per cell, in seconds; a cell that
//!   blows it fails instead of hanging the campaign.
//! * `--threads` — worker count (default: all cores).
//! * `--journal-dir` — journal directory: one fsynced JSONL shard per
//!   thread (default: `results/campaign_<scale>.journal`).
//! * `--trace-out` — persist per-repetition observability artifacts
//!   plus the supervisor's Prometheus snapshot into the directory. An
//!   artifact that cannot be written costs only itself: every cell is
//!   still measured, and the run ends `DEGRADED`.
//!
//! `GREENENVY_SCALE=paper|standard|quick|tiny` picks the workload.
//!
//! Exit status (`greenenvy::exitcode`): `OK` — complete matrix;
//! `QUARANTINED` — finished minus failed cells (each a `"failed"` record
//! in a journal shard, and listed in the matrix's `failed`);
//! `DEGRADED` — journal I/O died mid-run, or the matrix is complete but
//! a `--trace-out` artifact is not; `FAILURE` — the campaign machinery
//! failed, or the matrix could not be written.

use crate::args::{Args, Usage};
use crate::Ctx;
use greenenvy::campaign::{self, CampaignOptions};
use greenenvy::exitcode;
use greenenvy::matrix::{run_cell_persisting, CellPolicy};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

/// The `campaign` command.
pub fn run(ctx: &Ctx, args: &mut Args) -> Result<i32, Usage> {
    let scale = ctx.scale()?;
    let mut journal_dir = PathBuf::from("results").join(format!("campaign_{}.journal", scale.name));
    let mut opts = CampaignOptions::default();
    let mut policy = CellPolicy::default();

    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--resume" => opts.resume = true,
            "--paranoid" => policy.paranoid = true,
            "--deadline" => {
                let raw: String = args.value(&flag)?;
                let seconds = raw.parse().ok();
                let deadline = seconds.and_then(|s| Duration::try_from_secs_f64(s).ok());
                policy.wall_deadline = Some(deadline.ok_or_else(|| {
                    Usage(format!(
                        "invalid value {raw:?} for {flag} (want seconds: finite, not negative)"
                    ))
                })?);
            }
            "--threads" => opts.threads = args.value::<NonZeroUsize>(&flag)?.get(),
            "--journal-dir" => journal_dir = args.value(&flag)?,
            "--trace-out" => policy.trace_out = Some(args.value(&flag)?),
            _ => return Err(Usage(format!("unknown flag {flag:?}"))),
        }
    }

    ctx.announce("Durable campaign", &scale);
    println!(
        "journal: {} | resume: {} | paranoid: {} | deadline: {} | threads: {} | \
         trace-out: {}\n",
        journal_dir.display(),
        opts.resume,
        policy.paranoid,
        policy
            .wall_deadline
            .map_or("none".to_string(), |d| format!("{}s/cell", d.as_secs_f64())),
        opts.threads,
        policy
            .trace_out
            .as_deref()
            .map_or("off".to_string(), |p| p.display().to_string()),
    );

    opts.journal_dir = Some(journal_dir);
    let lost = Mutex::new(Vec::new());
    let lose = |what: String| {
        eprintln!("warning: trace lost: {what}");
        lost.lock().expect("no panic while pushing").push(what);
    };
    let report = match campaign::run_campaign_with_runner(scale, opts, |cca, mtu, bytes, seeds| {
        run_cell_persisting(cca, mtu, bytes, seeds, &policy, &lose)
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: campaign {e}");
            return Ok(exitcode::FAILURE);
        }
    };

    // The matrix artifact is emitted even with failed cells: resumed
    // runs overwrite it.
    let written = crate::save_json("matrix:", &format!("matrix_{}", scale.name), &report.matrix);
    if let Some(dir) = &policy.trace_out {
        let prom = report.supervision.metrics.prometheus_text();
        let path = dir.join("campaign_supervisor.prom");
        if let Err(e) = campaign::write_atomic(&path, prom.as_bytes()) {
            lose(format!("campaign_supervisor: trace-out: {e}"));
        } else {
            println!("supervisor metrics: {}", path.display());
        }
    }
    println!(
        "cells: {} reused, {} executed, {} failed",
        report.reused,
        report.executed,
        report.matrix.failed.len(),
    );
    for f in &report.matrix.failed {
        eprintln!("failed: {} @ mtu {}: {}", f.cca, f.mtu, f.error);
    }
    if written != exitcode::OK {
        return Ok(written);
    }

    if let Some(reason) = &report.supervision.degraded {
        eprintln!(
            "DEGRADED: {reason}\nresults above are valid but NOT crash-durable — \
             re-run with a healthy journal before trusting --resume"
        );
        return Ok(exitcode::DEGRADED);
    }
    if !report.matrix.is_complete() {
        println!(
            "complete minus {} failed cell(s) — rerun with --resume to retry them on the same seeds",
            report.matrix.failed.len()
        );
        return Ok(exitcode::QUARANTINED);
    }
    let lost = lost.into_inner().expect("no panic while pushing").len();
    if lost > 0 {
        eprintln!("DEGRADED: every cell is measured, but {lost} trace artifact(s) are lost");
        return Ok(exitcode::DEGRADED);
    }
    Ok(exitcode::OK)
}
