//! The perf ratio gates: four properties of the code that a host's speed
//! cancels out of.
//!
//! Each gate times two sides of a ratio in this process, interleaved
//! round by round so host-frequency drift hits both equally, and holds
//! the ratio of the two medians to a budget in [`GATES`]. Nothing is
//! read from or written to disk to compare against: an absolute time on
//! this host says nothing about the code, and those live on the
//! benchmark ledger instead (`benchmark/README.md`).
//!
//! `bench perf_gates [<gate>]...`: with no arguments every gate runs,
//! otherwise only the named ones (`scripts/verify.sh --supervise` runs
//! `journal_sharding` alone); an unknown name is a usage error, reported
//! before anything is measured. Exit status: `OK` — every measured ratio
//! within its budget; `FAILURE` — at least one past it.

use crate::args::{Args, Usage};
use crate::Ctx;
use cca::CcaKind;
use greenenvy::exitcode;
use netsim::fault::FaultSpec;
use netsim::units::MB;
use std::hint::black_box;
use std::time::Instant;
use workload::prelude::*;

/// One timed round of a gate: wall seconds of the numerator side and of
/// the denominator side.
type Round = Box<dyn FnMut() -> [f64; 2]>;

struct Gate {
    name: &'static str,
    /// The ratio in words, for the printed line.
    ratio_of: &'static str,
    budget: f64,
    /// `true`: the ratio must stay at or below the budget; `false`: at
    /// or above it.
    at_most: bool,
    /// Interleaved rounds; the medians of the two sides are compared.
    rounds: usize,
    /// Builds the inputs (untimed) and returns the round timer.
    measure: fn() -> Round,
}

const GATES: [Gate; 4] = [
    // The real recorder behind every hook — registry, flight rings,
    // trace, the report rendered at the end — on a lossy two-flow run,
    // so recovery, retransmit and RTO hooks fire along with the per-ack
    // ones. The seam alone is `obs.noop_overhead_ratio` on the ledger.
    Gate {
        name: "obs_full_overhead",
        ratio_of: "fully observed run / plain run",
        budget: 2.0,
        at_most: true,
        rounds: 5,
        measure: obs_full_overhead,
    },
    // Figure 4 meters each of its simulations under every load;
    // simulating once per load instead puts the ratio near 1.0 at four
    // loads.
    Gate {
        name: "fig4_sharing",
        ratio_of: "fig4::run / (fig1::run + fig2::run), quick scale",
        budget: 0.5,
        at_most: true,
        rounds: 3,
        measure: fig4_sharing,
    },
    // The window grows 16-fold and the open holes with it: a scoreboard
    // that re-walks the window on every ack lands near 16, one that
    // visits only what an ack changes plus the holes stays near 3.
    Gate {
        name: "sack_scaling",
        ratio_of: "scoreboard ns/ack at 2048 segments / at 128 (1 loss in 97)",
        budget: 5.0,
        at_most: true,
        rounds: 5,
        measure: sack_scaling,
    },
    // Sharding exists so checkpoint appends from a wide pool don't queue
    // behind one file's fsyncs; it must at least not cost throughput.
    Gate {
        name: "journal_sharding",
        ratio_of: "fsynced records/s through 4 shards / through 1",
        budget: 0.85,
        at_most: false,
        rounds: 3,
        measure: journal_sharding,
    },
];

fn secs<T>(work: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    black_box(work());
    start.elapsed().as_secs_f64()
}

fn median(walls: &mut [f64]) -> f64 {
    walls.sort_by(f64::total_cmp);
    walls[walls.len() / 2]
}

fn obs_full_overhead() -> Round {
    let plain = Scenario::new(
        1500,
        vec![
            FlowSpec::bulk(CcaKind::Cubic, 80 * MB),
            FlowSpec::bulk(CcaKind::Reno, 80 * MB),
        ],
    )
    .with_seed(7)
    .with_fault(FaultSpec::random_loss(0.001));
    let observed = plain.clone().with_observability();
    let run = |scenario: &Scenario| {
        workload::scenario::run(scenario).unwrap_or_else(|e| panic!("obs_full_overhead: {e}"))
    };
    Box::new(move || {
        let plain_s = secs(|| run(&plain));
        [secs(|| run(&observed)), plain_s]
    })
}

fn fig4_sharing() -> Round {
    use greenenvy::{fig1, fig2, fig4};
    let scale = greenenvy::Scale::quick();
    let (c1, c2, c4) = (
        fig1::Config::at_scale(scale),
        fig2::Config::at_scale(scale),
        fig4::Config::at_scale(scale),
    );
    Box::new(move || {
        let borrowed_s = secs(|| (fig1::run(&c1), fig2::run(&c2)));
        [secs(|| fig4::run(&c4)), borrowed_s]
    })
}

fn sack_scaling() -> Round {
    use crate::sack_trace::{record, replay};
    // The same number of acks on both sides, so the ratio of two walls
    // is the ratio of two per-ack costs.
    const ACKS: usize = 50_000;
    let [small, large] = [128, 2048].map(|window| record(window, ACKS));
    Box::new(move || {
        let small_s = secs(|| replay(black_box(&small)));
        [secs(|| replay(black_box(&large))), small_s]
    })
}

fn journal_sharding() -> Round {
    use analysis::stats::Summary;
    use greenenvy::campaign::journal::{create_sharded, Entry, Fingerprint};
    const RECORDS: usize = 2048;
    const SHARDS: usize = 4;
    let fp = Fingerprint::of(&greenenvy::Scale::quick());
    // Payloads shaped like real cell records.
    let entries: Vec<Entry> = (0..RECORDS)
        .map(|i| {
            let s = Summary::of(&[i as f64, i as f64 * 0.5 + 1.0, i as f64 * 0.25 + 2.0]);
            Entry::Cell(greenenvy::matrix::Cell {
                cca: format!("probe{i}"),
                mtu: 1500 + (i as u32 % 4) * 1500,
                energy_j: s,
                power_w: s,
                fct_s: s,
                retx: s,
                goodput_gbps: s,
            })
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("greenenvy-perf-gates-{}", std::process::id()));
    let scratch = dir.clone();
    // The same records through `shards` writers, one thread each, the
    // way a campaign's worker pool appends; creation is part of the cost.
    let write = move |shards: usize| {
        let writers = create_sharded(&scratch, &fp, &[], shards)
            .unwrap_or_else(|e| panic!("journal_sharding: {e}"));
        std::thread::scope(|scope| {
            for (mut writer, slice) in writers
                .into_iter()
                .zip(entries.chunks(RECORDS.div_ceil(shards)))
            {
                scope.spawn(move || {
                    for entry in slice {
                        writer
                            .append(entry)
                            .unwrap_or_else(|e| panic!("journal_sharding: {e}"));
                    }
                });
            }
        });
    };
    // Same records, so records/s at 4 shards over records/s at 1 is the
    // one-shard wall over the four-shard wall.
    Box::new(move || {
        let walls = [1, SHARDS].map(|shards| secs(|| write(shards)));
        let _ = std::fs::remove_dir_all(&dir);
        walls
    })
}

/// The `perf_gates` command.
pub fn run(_: &Ctx, args: &mut Args) -> Result<i32, Usage> {
    let wanted: Vec<String> = args.collect();
    if let Some(unknown) = wanted
        .iter()
        .find(|w| GATES.iter().all(|g| g.name != w.as_str()))
    {
        let names: Vec<&str> = GATES.iter().map(|g| g.name).collect();
        return Err(Usage(format!(
            "unknown gate {unknown:?} (the gates: {})",
            names.join(", ")
        )));
    }

    let mut breaches = 0;
    for gate in GATES
        .iter()
        .filter(|g| wanted.is_empty() || wanted.iter().any(|w| w == g.name))
    {
        let mut round = (gate.measure)();
        let (mut numerators, mut denominators) = (Vec::new(), Vec::new());
        for _ in 0..gate.rounds {
            let [numerator, denominator] = round();
            numerators.push(numerator);
            denominators.push(denominator);
        }
        let (numerator, denominator) = (median(&mut numerators), median(&mut denominators));
        let ratio = numerator / denominator;
        let held = if gate.at_most {
            ratio <= gate.budget
        } else {
            ratio >= gate.budget
        };
        println!(
            "{:<18} {:>5.2}  (budget {} {:.2})  {}  [{}: {:.4} s / {:.4} s, median of {}]",
            gate.name,
            ratio,
            if gate.at_most { "<=" } else { ">=" },
            gate.budget,
            if held { "ok" } else { "BREACHED" },
            gate.ratio_of,
            numerator,
            denominator,
            gate.rounds,
        );
        breaches += usize::from(!held);
    }
    if breaches > 0 {
        eprintln!("perf gates: {breaches} ratio(s) past budget");
        return Ok(exitcode::FAILURE);
    }
    println!("perf gates: every ratio within budget");
    Ok(exitcode::OK)
}
