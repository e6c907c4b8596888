//! Durable, supervised CCA × MTU campaign runner.
//!
//! Runs the Figures 5-8 measurement campaign with the durability layer
//! switched on: fsynced per-cell checkpoint journaling (one shard file
//! per worker), supervised retry with exponential backoff, poison-cell
//! quarantine, graceful SIGINT/SIGTERM shutdown, and optional per-cell
//! deadlines and paranoid-mode physics audits.
//!
//! Flags:
//!
//! * `--resume` — reuse journaled cells; only missing/failed ones run.
//! * `--paranoid` — audit every repetition against the simulator's
//!   conservation laws (energy floor, frame accounting, byte bounds,
//!   monotone clocks).
//! * `--deadline` — wall-clock budget per cell, in seconds; a cell that
//!   blows it fails (and re-enters the retry schedule) instead of
//!   hanging the campaign.
//! * `--threads` — worker count (default: all cores).
//! * `--journal-dir` — journal directory: one fsynced JSONL per worker
//!   plus `quarantine.jsonl` (default:
//!   `results/campaign_<scale>.journal`).
//! * `--max-attempts` — retry budget per cell per campaign life
//!   (default 2: the classic one-salted-retry).
//! * `--backoff` — exponential backoff base in claim counts (default 0:
//!   immediate re-eligibility).
//! * `--cells-out` — additionally write a cells-only projection of the
//!   matrix (schema, sizes, seeds, cells — no failure records) to this
//!   exact path; used by drills that compare runs whose *failure
//!   bookkeeping* legitimately differs (attempt counters reset per
//!   life) but whose measured cells must be byte-identical.
//! * `--trace-out` — persist per-repetition observability artifacts
//!   plus the supervisor's Prometheus snapshot into the directory.
//!
//! `GREENENVY_SCALE=paper|standard|quick|tiny` picks the workload.
//! `GREENENVY_POISON=<cca>@<mtu>` makes that cell panic on every
//! attempt — the supervision drill's fault injection; a value that names
//! no cell is a usage error, not a drill that injects nothing.
//!
//! Exit status (`greenenvy::exitcode`): `OK` — complete matrix;
//! `INCOMPLETE` — finished with failed cells; `QUARANTINED` — finished
//! minus quarantined poison cells (see `quarantine.jsonl`); `DEGRADED` —
//! journal I/O died mid-run; `INTERRUPTED` — cancelled by a signal,
//! resume to continue; `FAILURE` — the campaign machinery failed.

use crate::args::{Args, Usage};
use crate::Ctx;
use greenenvy::campaign::{self, CampaignOptions};
use greenenvy::exitcode;
use greenenvy::matrix::{run_cell_with, Cell, CellPolicy};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Duration;

/// `GREENENVY_POISON=<cca>@<mtu>` — the injected always-panicking cell.
fn poison_from_env() -> Result<Option<(cca::CcaKind, u32)>, Usage> {
    let Some(spec) = std::env::var_os("GREENENVY_POISON") else {
        return Ok(None);
    };
    let spec = spec.to_string_lossy();
    spec.split_once('@')
        .and_then(|(name, mtu)| Some((cca::CcaKind::from_name(name)?, mtu.parse().ok()?)))
        .map(Some)
        .ok_or_else(|| {
            Usage(format!(
                "invalid value {spec:?} for GREENENVY_POISON (want <cca>@<mtu>)"
            ))
        })
}

/// The matrix minus its failure bookkeeping: what two supervised runs
/// must agree on byte-for-byte even when their retry histories differ.
#[derive(Serialize)]
struct CellsProjection {
    schema_version: u32,
    transfer_bytes: u64,
    repetitions: usize,
    seeds: Vec<u64>,
    cells: Vec<Cell>,
}

/// The `campaign` command.
pub fn run(ctx: &Ctx, args: &mut Args) -> Result<i32, Usage> {
    let scale = ctx.scale()?;
    let mut journal_dir = PathBuf::from("results").join(format!("campaign_{}.journal", scale.name));
    let mut opts = CampaignOptions {
        cancel: campaign::install_signal_handlers(),
        ..Default::default()
    };
    let mut cells_out: Option<PathBuf> = None;

    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--resume" => opts.resume = true,
            "--paranoid" => opts.paranoid = true,
            "--deadline" => {
                let raw: String = args.value(&flag)?;
                let seconds = raw.parse().ok();
                let deadline = seconds.and_then(|s| Duration::try_from_secs_f64(s).ok());
                opts.deadline = Some(deadline.ok_or_else(|| {
                    Usage(format!(
                        "invalid value {raw:?} for {flag} (want seconds: finite, not negative)"
                    ))
                })?);
            }
            "--threads" => opts.threads = args.value(&flag)?,
            "--journal-dir" => journal_dir = args.value(&flag)?,
            "--max-attempts" => opts.retry.max_attempts = args.value::<u32>(&flag)?.max(1),
            "--backoff" => opts.retry.backoff_base = args.value(&flag)?,
            "--cells-out" => cells_out = Some(args.value(&flag)?),
            "--trace-out" => opts.trace_out = Some(args.value(&flag)?),
            _ => return Err(Usage(format!("unknown flag {flag:?}"))),
        }
    }
    let poison = poison_from_env()?;

    ctx.announce("Durable campaign", &scale);
    println!(
        "journal: {} | resume: {} | paranoid: {} | deadline: {} | threads: {} | \
         retry: {} | trace-out: {}\n",
        journal_dir.display(),
        opts.resume,
        opts.paranoid,
        opts.deadline
            .map_or("none".to_string(), |d| format!("{}s/cell", d.as_secs_f64())),
        opts.threads,
        opts.retry.spec(),
        opts.trace_out
            .as_deref()
            .map_or("off".to_string(), |p| p.display().to_string()),
    );

    if let Some((cca, mtu)) = poison {
        println!(
            "poison: {} @ mtu {mtu} will panic on every attempt (GREENENVY_POISON)\n",
            cca.name()
        );
    }

    let cell_policy = CellPolicy {
        wall_deadline: opts.deadline,
        paranoid: opts.paranoid,
        trace_out: opts.trace_out.clone(),
    };
    let trace_out = opts.trace_out.clone();
    opts.journal_dir = Some(journal_dir);
    let report =
        match campaign::run_campaign_with_runner(scale, opts, move |cca, mtu, bytes, seeds| {
            if poison == Some((cca, mtu)) {
                panic!(
                    "injected poison cell {} @ mtu {mtu} (GREENENVY_POISON)",
                    cca.name()
                );
            }
            run_cell_with(cca, mtu, bytes, seeds, cell_policy.clone())
        }) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return Ok(exitcode::FAILURE);
            }
        };

    // The matrix artifact is emitted even when partial: resumed runs
    // overwrite it, and the figure commands' cache check refuses to
    // reuse an incomplete file.
    if let Some(p) = crate::save_json(&format!("matrix_{}", scale.name), &report.matrix) {
        println!("matrix: {}", p.display());
    }
    if let Some(path) = &cells_out {
        let projection = CellsProjection {
            schema_version: report.matrix.schema_version,
            transfer_bytes: report.matrix.transfer_bytes,
            repetitions: report.matrix.repetitions,
            seeds: report.matrix.seeds.clone(),
            cells: report.matrix.cells.clone(),
        };
        match campaign::save_json_atomic(path, &projection) {
            Ok(()) => println!("cells: {}", path.display()),
            Err(e) => eprintln!("warning: --cells-out failed: {e}"),
        }
    }
    if let Some(dir) = &trace_out {
        let prom = report.supervision.metrics.prometheus_text();
        let path = dir.join("campaign_supervisor.prom");
        if let Err(e) = campaign::write_atomic(&path, prom.as_bytes()) {
            eprintln!("warning: supervisor metrics persist failed: {e}");
        } else {
            println!("supervisor metrics: {}", path.display());
        }
    }
    println!(
        "cells: {} reused, {} executed, {} skipped, {} failed | retries: {} | quarantined: {}",
        report.reused,
        report.executed,
        report.skipped,
        report.matrix.failed.len(),
        report.supervision.retries,
        report.supervision.quarantined.len(),
    );
    for q in &report.supervision.quarantined {
        eprintln!(
            "quarantined: {} @ mtu {} after attempt {}: {}",
            q.cca,
            q.mtu,
            q.last_attempt(),
            q.attempts.last().map_or("", |a| a.error.as_str()),
        );
    }
    for f in &report.matrix.failed {
        eprintln!(
            "failed: {} @ mtu {} ({} attempts): {} / last: {}",
            f.cca, f.mtu, f.attempts, f.error, f.retry_error
        );
    }

    if let Some(reason) = &report.supervision.degraded {
        eprintln!(
            "DEGRADED: {reason}\nresults above are valid but NOT crash-durable — \
             re-run with a healthy journal before trusting --resume"
        );
        return Ok(exitcode::DEGRADED);
    }
    if report.cancelled {
        println!("cancelled — journal is intact; rerun with --resume to continue");
        return Ok(exitcode::INTERRUPTED);
    }
    if !report.matrix.is_complete() {
        if !report.supervision.quarantined.is_empty() {
            println!(
                "complete minus {} quarantined poison cell(s) — see quarantine.jsonl",
                report.supervision.quarantined.len()
            );
            return Ok(exitcode::QUARANTINED);
        }
        return Ok(exitcode::INCOMPLETE);
    }
    Ok(exitcode::OK)
}
