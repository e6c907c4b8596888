//! The command table: every figure, campaign, diagnostic and gate the
//! `bench` binary runs is one row of [`COMMANDS`], and `all`, `report`,
//! `help` and the docs test read their lists from it.

use crate::args::{Args, Usage};
use crate::{campaign, chaos, perf_gates, population, report, save_json, scenarios};
use cca::CcaKind;
use greenenvy::extensions::{incast, modern, multiplexed, production, srpt};
use greenenvy::matrix::Matrix;
use greenenvy::Scale;
use greenenvy::{exitcode, fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig8, savings, theorem};
use serde::Serialize;
use std::cell::{Cell, OnceCell};
use std::fmt::Write as _;
use workload::prelude::*;

/// One row of the table: `bench <name> <usage>`.
pub struct Command {
    pub name: &'static str,
    /// The arguments it takes (empty: none, and any is a usage error).
    pub usage: &'static str,
    /// One line for `bench help`.
    pub about: &'static str,
    /// Whether `all` runs it (and `report` has a section for it).
    pub in_all: bool,
    /// Its exit code (a `greenenvy::exitcode` name), or what was wrong
    /// with the invocation.
    pub run: fn(&Ctx, &mut Args) -> Result<i32, Usage>,
}

/// What the commands of one process share.
#[derive(Default)]
pub struct Ctx {
    announced: Cell<bool>,
    matrix: OnceCell<Matrix>,
}

impl Ctx {
    /// The scale `GREENENVY_SCALE` selects, read when a command asks: a
    /// typo is a usage error only for the commands that run at a scale.
    pub fn scale(&self) -> Result<Scale, Usage> {
        Scale::from_env().map_err(|e| Usage(e.to_string()))
    }

    /// Print the scale banner — once per process, so under `all` the
    /// figures it runs stay quiet.
    pub fn announce(&self, title: &str, scale: &Scale) {
        if !self.announced.replace(true) {
            println!(
                "=== {title} | scale: {} ({} bytes/transfer, {} reps) ===\n",
                scale.name, scale.transfer_bytes, scale.repetitions
            );
        }
    }

    /// The fig5–8 campaign matrix, loaded or run by the first figure
    /// that asks: one campaign, four projections, as in the paper.
    pub fn matrix(&self, scale: Scale) -> Matrix {
        self.matrix
            .get_or_init(|| crate::load_or_run_matrix(scale))
            .clone()
    }
}

/// Print a result's rendering and write it as `results/<name>.json`.
pub fn emit<T: Serialize>(name: &str, result: &T, render: impl FnOnce(&T) -> String) {
    println!("{}", render(result));
    if let Some(path) = save_json(name, result) {
        println!("json: {}", path.display());
    }
}

/// A figure-shaped command: banner, run at the ambient scale, [`emit`].
fn figure<T: Serialize>(
    ctx: &Ctx,
    title: &str,
    name: &str,
    run: impl FnOnce(Scale) -> T,
    render: impl FnOnce(&T) -> String,
) -> Result<i32, Usage> {
    let scale = ctx.scale()?;
    ctx.announce(title, &scale);
    emit(name, &run(scale), render);
    Ok(exitcode::OK)
}

/// Figure 4's table, then the paper's §4.2 dollar extrapolation fed with
/// what was measured.
fn render_fig4(result: &fig4::Result) -> String {
    let measured: Vec<(String, f64)> = result
        .rows
        .iter()
        .map(|r| {
            (
                format!("{:.0}% load", r.load * 100.0),
                (r.savings_pct.mean / 100.0).clamp(0.0, 1.0),
            )
        })
        .collect();
    format!("{}\n{}", fig4::render(result), savings::render(&measured))
}

/// An artefact name and the experiment that [`emit`]s it at a scale.
type Extension = (&'static str, fn(&str, Scale));

/// The §5 extension experiments `extensions` runs.
#[rustfmt::skip]
pub const EXTENSIONS: &[Extension] = &[
    ("ext_multiplexed", |n, s| emit(n, &multiplexed::run(&multiplexed::Config::at_scale(s)), multiplexed::render)),
    ("ext_srpt", |n, s| emit(n, &srpt::run(&srpt::Config::at_scale(s)), srpt::render)),
    ("ext_incast", |n, s| emit(n, &incast::run(&incast::Config::at_scale(s)), incast::render)),
    ("ext_modern", |n, s| emit(n, &modern::run(&modern::Config::at_scale(s)), modern::render)),
    ("ext_production", |n, s| emit(n, &production::run(&production::Config::at_scale(s)), production::render)),
];

fn extensions(ctx: &Ctx, _: &mut Args) -> Result<i32, Usage> {
    let scale = ctx.scale()?;
    ctx.announce("Extensions (paper §5)", &scale);
    for (name, run) in EXTENSIONS {
        run(name, scale);
    }
    Ok(exitcode::OK)
}

fn theorem1(_: &Ctx, args: &mut Args) -> Result<i32, Usage> {
    let trials = args.positional("trials")?.unwrap_or(10_000);
    args.finish()?;
    let result = theorem::run(trials);
    emit("theorem1", &result, theorem::render);
    assert_eq!(result.violations, 0, "Theorem 1 violated!");
    Ok(exitcode::OK)
}

fn all(ctx: &Ctx, _: &mut Args) -> Result<i32, Usage> {
    ctx.announce("All figures", &ctx.scale()?);
    for command in COMMANDS.iter().filter(|c| c.in_all) {
        (command.run)(ctx, &mut Args::new(Vec::new()))?;
    }
    Ok(exitcode::OK)
}

/// One-screen behaviour table of every CCA (defaults: 500 MB at MTU 9000).
fn cca_table(_: &Ctx, args: &mut Args) -> Result<i32, Usage> {
    let bytes: u64 = args.positional("bytes")?.unwrap_or(500_000_000);
    let mtu: u32 = args.positional("mtu")?.unwrap_or(9000);
    args.finish()?;
    if mtu <= netsim::packet::HEADER_BYTES {
        return Err(Usage(format!(
            "invalid value \"{mtu}\" for mtu (a packet needs more than its {} header bytes)",
            netsim::packet::HEADER_BYTES
        )));
    }
    let mut t = analysis::table::Table::new([
        "cca",
        "fct (s)",
        "goodput (Gbps)",
        "power (W)",
        "energy (J)",
        "retx",
        "rtos",
        "drops",
    ]);
    for kind in CcaKind::ALL {
        let s = Scenario::new(mtu, vec![FlowSpec::bulk(kind, bytes)]);
        match workload::scenario::run(&s) {
            Ok(out) => {
                let r = &out.reports[0];
                t.row([
                    kind.name().to_string(),
                    format!("{:.3}", r.fct.as_secs_f64()),
                    format!("{:.3}", r.mean_goodput.gbps()),
                    format!("{:.2}", out.average_sender_power_w()),
                    format!("{:.1}", out.sender_energy_j),
                    r.retransmits.to_string(),
                    r.rtos.to_string(),
                    out.dropped_pkts.to_string(),
                ]);
            }
            Err(e) => {
                t.row([
                    kind.name().to_string(),
                    format!("FAILED: {e}"),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                ]);
            }
        }
    }
    println!("{bytes} bytes at MTU {mtu}\n{t}");
    Ok(exitcode::OK)
}

/// Validate scale-invariance: run selected CCAs at the paper's full 50 GB
/// and compare per-byte energy with the standard 5 GB campaign.
fn paper_cells(_: &Ctx, _: &mut Args) -> Result<i32, Usage> {
    let bytes: u64 = 50_000_000_000;
    for kind in [
        CcaKind::Cubic,
        CcaKind::Bbr,
        CcaKind::Bbr2,
        CcaKind::Baseline,
    ] {
        let s = Scenario::new(9000, vec![FlowSpec::bulk(kind, bytes)]);
        match workload::scenario::run(&s) {
            Ok(out) => {
                let r = &out.reports[0];
                println!(
                    "{:>10} 50GB: fct={:.2}s gput={:.3}G P={:.2}W E={:.1}J ({:.2} kJ) retx={}",
                    kind.name(),
                    r.fct.as_secs_f64(),
                    r.mean_goodput.gbps(),
                    out.average_sender_power_w(),
                    out.sender_energy_j,
                    out.sender_energy_j / 1000.0,
                    r.retransmits
                );
            }
            Err(e) => println!("{:>10} FAILED: {e}", kind.name()),
        }
    }
    Ok(exitcode::OK)
}

/// What `bench help` prints: the table, one command per line.
pub fn help() -> String {
    let mut out = String::from("usage: bench <command> [args]\n\n");
    for c in COMMANDS {
        let _ = writeln!(out, "  {:<12} {}", c.name, c.about);
        if !c.usage.is_empty() {
            let _ = writeln!(out, "  {:<12}   bench {} {}", "", c.name, c.usage);
        }
    }
    out + "\nGREENENVY_SCALE=paper|standard|quick|tiny picks the workload size (default: \
           standard); results are written to results/ under the current directory.\n"
}

/// Every command, in `help` order; the `in_all` ones in the order `all`
/// runs them.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    Command { name: "fig1", usage: "", in_all: true, about: "Figure 1: energy savings vs bandwidth allocated to flow #1",
        run: |ctx, _| figure(ctx, "Figure 1", "fig1", |s| fig1::run(&fig1::Config::at_scale(s)), fig1::render) },
    Command { name: "fig2", usage: "", in_all: true, about: "Figure 2: power vs throughput for a CUBIC sender, and its concavity",
        run: |ctx, _| figure(ctx, "Figure 2", "fig2", |s| fig2::run(&fig2::Config::at_scale(s)),
            |r| format!("{}\nstrictly concave (0.3 W tolerance): {}", fig2::render(r), r.is_concave(0.3))) },
    Command { name: "fig3", usage: "", in_all: true, about: "Figure 3: fair vs full-speed-then-idle throughput traces",
        run: |ctx, _| figure(ctx, "Figure 3", "fig3", |s| fig3::run(&fig3::Config::at_scale(s)), fig3::render) },
    Command { name: "fig4", usage: "", in_all: true, about: "Figure 4: power vs bitrate under background load, and the savings in dollars",
        run: |ctx, _| figure(ctx, "Figure 4", "fig4", |s| fig4::run(&fig4::Config::at_scale(s)), render_fig4) },
    Command { name: "fig5", usage: "", in_all: true, about: "Figure 5: energy per CCA x MTU, from the shared campaign",
        run: |ctx, _| figure(ctx, "Figure 5", "fig5", |s| fig5::from_matrix(ctx.matrix(s)), fig5::render) },
    Command { name: "fig6", usage: "", in_all: true, about: "Figure 6: power per CCA x MTU, from the shared campaign",
        run: |ctx, _| figure(ctx, "Figure 6", "fig6", |s| fig6::from_matrix(ctx.matrix(s)), fig6::render) },
    Command { name: "fig7", usage: "", in_all: true, about: "Figure 7: energy vs completion time, from the shared campaign",
        run: |ctx, _| figure(ctx, "Figure 7", "fig7", |s| fig7::from_matrix(ctx.matrix(s)), fig7::render) },
    Command { name: "fig8", usage: "", in_all: true, about: "Figure 8: energy vs retransmissions, from the shared campaign",
        run: |ctx, _| figure(ctx, "Figure 8", "fig8", |s| fig8::from_matrix(ctx.matrix(s)), fig8::render) },
    Command { name: "theorem1", usage: "[trials]", in_all: true, about: "Theorem 1, numerically: fair allocations maximize power (default: 10000 trials)",
        run: theorem1 },
    Command { name: "all", usage: "", in_all: false, about: "every command above, in order, sharing one campaign",
        run: all },
    Command { name: "extensions", usage: "", in_all: false, about: "the paper's section 5: multiplexing, SRPT, incast, modern CCAs, production mix",
        run: extensions },
    Command { name: "report", usage: "", in_all: false, about: "assemble results/REPORT.md from the results/*.json present",
        run: report::run },
    Command { name: "campaign", in_all: false,
        usage: "[--resume] [--paranoid] [--deadline <secs>] [--threads <n>] [--journal-dir <dir>] \
                [--max-attempts <n>] [--backoff <n>] [--cells-out <path>] [--trace-out <dir>]",
        about: "the durable, supervised CCA x MTU campaign behind fig5-fig8",
        run: campaign::run },
    Command { name: "chaos", usage: "[--trace-out <dir>]", in_all: false, about: "the Figure 1 energy ordering under injected loss on the bottleneck",
        run: chaos::run },
    Command { name: "scenarios", usage: "[--out <file>] [--trace-out <dir>]", in_all: false, about: "the resilience scenario suite and its verdict matrix",
        run: scenarios::run },
    Command { name: "population", usage: "", in_all: false, about: "10,000 CUBIC flows vs 1,000 BBR flows across racks",
        run: population::run },
    Command { name: "cca_table", usage: "[bytes] [mtu]", in_all: false, about: "one-screen behaviour table of every CCA (default: 500 MB at MTU 9000)",
        run: cca_table },
    Command { name: "paper_cells", usage: "", in_all: false, about: "four CCAs at the paper's full 50 GB, to check scale invariance",
        run: paper_cells },
    Command { name: "perf_gates", usage: "[<gate>]...", in_all: false, about: "the four host-independent perf ratios, each held to its budget",
        run: perf_gates::run },
    Command { name: "help", usage: "", in_all: false, about: "print this table",
        run: |_, _| { print!("{}", help()); Ok(exitcode::OK) } },
];
