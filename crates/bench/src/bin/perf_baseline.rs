//! Tracked simulator performance baseline.
//!
//! Runs a fixed scenario suite with wall-clock timing and writes
//! `BENCH_netsim.json` at the repo root: events/second through the event
//! engine, per-scenario wall seconds, and the scheduler's wheel-vs-heap
//! hit rate. Commit the refreshed file when engine performance changes so
//! regressions show up in review rather than in campaign runtimes.
//!
//! Usage: `cargo run --release -p bench --bin perf_baseline [-- --check]`
//!
//! With `--check`, nothing is written: the scenario suite is re-measured
//! and compared against the committed BENCH_netsim.json, and the process
//! exits non-zero if any tracked scenario's `events_per_sec` regressed
//! by more than [`CHECK_TOLERANCE`], if a fully observed run costs more
//! than [`OBS_FULL_BUDGET`] times the plain run, if Figure 4 costs
//! more than [`FIG4_SHARING_BUDGET`] of the Figure 1 + Figure 2 sweeps
//! it borrows from, or if a scoreboard ack at a 2 048-segment window
//! costs more than [`SACK_SCALING_BUDGET`] times one at 128 segments.
//! This is the `scripts/verify.sh --perf` gate.
//!
//! With `--check-journal`, only the checkpoint-journal throughput probe
//! runs: the sharded writer pool must hold at least `1 -
//! CHECK_TOLERANCE` of both the freshly measured and the committed
//! single-journal baseline. This is the `scripts/verify.sh --supervise`
//! throughput gate.

use cca::CcaKind;
use greenenvy::exitcode;
use netsim::fault::FaultSpec;
use netsim::units::MB;
use serde::Serialize;
use std::time::Instant;
use workload::prelude::*;

/// Timing runs per scenario; the minimum is reported (least scheduler
/// noise from the host).
const RUNS: u32 = 3;

/// `--check` fails when a fresh `events_per_sec` lands below
/// `committed * (1 - CHECK_TOLERANCE)`. 15% absorbs host noise on a
/// shared box while still catching real engine regressions.
const CHECK_TOLERANCE: f64 = 0.15;

#[derive(Serialize)]
struct ScenarioPerf {
    name: String,
    /// Best-of-RUNS wall-clock seconds.
    wall_s: f64,
    /// Events through the engine in one run.
    events: u64,
    /// Events per wall second (events / wall_s).
    events_per_sec: f64,
    /// Simulated seconds covered by one run.
    sim_s: f64,
    /// Fraction of scheduler pushes served by the O(1) wheel path.
    wheel_hit_rate: f64,
    /// Scheduler pushes that landed in the wheel.
    wheel_pushes: u64,
    /// Scheduler pushes that overflowed to the far-future heap.
    heap_pushes: u64,
    /// Heap entries later migrated into the wheel.
    migrations: u64,
}

/// Cost of the fault-injection hooks when no faults fire: the same
/// scenario with and without a zero-rate `FaultSpec` on the bottleneck.
/// The spec keeps `FaultState` installed, so every serialized frame pays
/// the full hook path (fate draw included) without any fault biting.
#[derive(Serialize)]
struct ChaosOverhead {
    /// Reference scenario (no fault state on any link).
    plain_wall_s: f64,
    /// Same scenario with a zero-rate fault spec installed.
    faulted_wall_s: f64,
    /// (faulted - plain) / plain. The budget is 2%.
    overhead_frac: f64,
}

/// Cost of the paranoid-mode invariant audit on a clean run: the same
/// scenario with and without [`greenenvy::campaign::invariant::check`]
/// after it. The audit is pure arithmetic over counters the scenario
/// already collects, so it shares the chaos hooks' 2% budget.
#[derive(Serialize)]
struct ParanoidOverhead {
    /// Reference scenario, audit off.
    plain_wall_s: f64,
    /// Same scenario with the invariant audit after each run.
    paranoid_wall_s: f64,
    /// (paranoid - plain) / plain. The budget is 2%.
    overhead_frac: f64,
}

/// Cost of the observability hooks when no recorder consumes them: the
/// same scenario with and without a no-op [`obs::Recorder`] attached to
/// the engine and every sender. Every hook site pays the dynamic
/// dispatch without any recording work, bounding the tax a disabled
/// recorder levies on campaigns. Budget: 2%.
#[derive(Serialize)]
struct ObsOverhead {
    /// Reference scenario (no recorder anywhere).
    plain_wall_s: f64,
    /// Same scenario with a no-op recorder on every hook.
    noop_wall_s: f64,
    /// (noop - plain) / plain. The budget is 2%.
    overhead_frac: f64,
}

/// `--check` fails when a fully observed run takes more than this many
/// times the plain run (`obs_full_overhead.ratio`). Both sides are
/// measured interleaved in one process, so host speed cancels out.
const OBS_FULL_BUDGET: f64 = 2.0;

/// Cost of the real recorder: the same lossy two-flow scenario with
/// `Observe::Off` and with `Observe::Full` (every hook recording into
/// the registry, the flight rings and the trace; the report rendered at
/// the end). `obs_overhead` above prices the seam; this prices what is
/// behind it. Budget: [`OBS_FULL_BUDGET`].
#[derive(Serialize)]
struct ObsFullOverhead {
    /// Median wall seconds, no recorder anywhere.
    plain_wall_s: f64,
    /// Median wall seconds with the full recorder attached.
    observed_wall_s: f64,
    /// observed / plain.
    ratio: f64,
    /// The ratio `--check` fails above.
    budget: f64,
}

/// Throughput of the fsynced campaign checkpoint journal, single-file
/// vs sharded-per-worker. Sharding exists so checkpoint appends from a
/// wide worker pool don't serialize on one file lock + fsync queue; the
/// `--check-journal` gate holds the sharded path to at least the
/// single-journal baseline (within [`CHECK_TOLERANCE`]).
#[derive(Serialize)]
struct JournalThroughput {
    /// Cell records appended per measured run.
    records: usize,
    /// Worker shards in the sharded run.
    shards: usize,
    /// Records/second through one sequential fsynced writer.
    single_rec_per_s: f64,
    /// Records/second through `shards` concurrent fsynced writers.
    sharded_rec_per_s: f64,
    /// sharded / single.
    speedup: f64,
}

/// Cost and findings of a whole-workspace static-analysis pass, so the
/// perf trajectory tracks analysis cost alongside engine throughput.
/// Tracked twice: the token pass alone (`simlint`, 2 s budget) and the
/// full run with call-graph taint and registry rules
/// (`simlint_semantic`, 5 s budget).
#[derive(Serialize)]
struct LintPerf {
    /// Source files scanned.
    files: usize,
    /// Unsuppressed error-severity findings (the verify gate requires 0).
    findings: usize,
    /// Findings covered by an inline simlint::allow with a reason.
    suppressed: usize,
    /// Best-of-RUNS wall seconds for the whole-workspace lint.
    wall_s: f64,
    /// The budget `wall_s` is held to.
    budget_s: f64,
}

/// `--check` fails when `fig4::run` takes more than this fraction of
/// `fig1::run` + `fig2::run` at the same scale (`fig4_sharing.ratio`).
/// Figure 4 meters each of its simulations under every load; simulating
/// once per load instead puts the ratio near 1.0 at four loads.
const FIG4_SHARING_BUDGET: f64 = 0.5;

/// Whether Figure 4's load levels share their packet simulations: wall
/// time of `fig4::run` against the two sweeps whose machinery it reuses,
/// all at quick scale. A ratio of two sums of the same kind of run, so
/// host speed cancels out. Budget: [`FIG4_SHARING_BUDGET`].
#[derive(Serialize)]
struct Fig4Sharing {
    /// Median wall seconds of `fig1::run` + `fig2::run`.
    fig1_fig2_wall_s: f64,
    /// Median wall seconds of `fig4::run`.
    fig4_wall_s: f64,
    /// fig4 / (fig1 + fig2).
    ratio: f64,
    /// The ratio `--check` fails above.
    budget: f64,
}

/// `--check` fails when an ack at the large window costs more than this
/// many times an ack at the small one (`sack_scaling.ratio`). The window
/// grows 16-fold and the open holes with it; a scoreboard that re-walks
/// the window on every ack lands near 16, one that visits only what an
/// ack changes plus the holes stays near 3.
const SACK_SCALING_BUDGET: f64 = 5.0;

/// How `Scoreboard::on_ack` scales with the window under steady loss:
/// nanoseconds per ack replaying [`bench::sack_trace`] (one first
/// transmission in 97 lost, an ack per two arrivals, up to three blocks,
/// latest first) at two window sizes. A ratio of two replays of the same
/// code, so host speed cancels out. Budget: [`SACK_SCALING_BUDGET`].
#[derive(Serialize)]
struct SackScaling {
    /// Segments tracked in the small-window trace.
    small_window_segs: usize,
    /// Segments tracked in the large-window trace.
    large_window_segs: usize,
    /// Median nanoseconds per ack at the small window.
    small_ns_per_ack: f64,
    /// Median nanoseconds per ack at the large window.
    large_ns_per_ack: f64,
    /// large / small.
    ratio: f64,
    /// The ratio `--check` fails above.
    budget: f64,
}

#[derive(Serialize)]
struct Baseline {
    /// What produced this file.
    tool: String,
    /// Scenario results, in suite order.
    scenarios: Vec<ScenarioPerf>,
    /// Total wall seconds across the suite (best-of-RUNS per scenario).
    total_wall_s: f64,
    /// Suite-wide events per wall second.
    total_events_per_sec: f64,
    /// Fault-hook cost on the fault-free hot path.
    chaos_overhead: ChaosOverhead,
    /// Invariant-audit cost on the clean hot path.
    paranoid_overhead: ParanoidOverhead,
    /// Observability-hook cost with a no-op recorder attached.
    obs_overhead: ObsOverhead,
    /// Full-recorder cost as a multiple of the plain run.
    obs_full_overhead: ObsFullOverhead,
    /// Figure 4's cost relative to the sweeps it borrows from.
    fig4_sharing: Fig4Sharing,
    /// Per-ack scoreboard cost at a large window relative to a small one.
    sack_scaling: SackScaling,
    /// Checkpoint-journal throughput, single vs sharded.
    journal: JournalThroughput,
    /// Whole-workspace simlint token-pass cost and findings.
    simlint: LintPerf,
    /// Full simlint run: token pass plus item/call parse, call-graph
    /// build, nondeterminism taint, and the registry rules.
    simlint_semantic: LintPerf,
}

fn measure(name: &str, scenario: &Scenario) -> ScenarioPerf {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..RUNS {
        let start = Instant::now();
        let o = workload::scenario::run(scenario)
            .unwrap_or_else(|e| panic!("perf scenario {name}: {e}"));
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(o);
    }
    let out = out.expect("RUNS >= 1");
    let events = out.engine.events_processed;
    let perf = ScenarioPerf {
        name: name.to_string(),
        wall_s: best,
        events,
        events_per_sec: events as f64 / best,
        sim_s: out.sim_end.as_secs_f64(),
        wheel_hit_rate: out.engine.wheel_hit_rate(),
        wheel_pushes: out.engine.sched.wheel_pushes,
        heap_pushes: out.engine.sched.heap_pushes,
        migrations: out.engine.sched.migrations,
    };
    println!(
        "{:<38} {:>8.3} s wall  {:>11} events  {:>6.2} M events/s  wheel {:.1}%",
        perf.name,
        perf.wall_s,
        perf.events,
        perf.events_per_sec / 1e6,
        perf.wheel_hit_rate * 100.0
    );
    perf
}

/// Like [`measure`], for a population spec: the many-flow scale-out
/// path (rack-sharded engines, flat flow tables, batched dispatch).
fn measure_population(name: &str, spec: &PopulationSpec) -> ScenarioPerf {
    let mut best: Option<workload::population::PopulationOutcome> = None;
    for _ in 0..RUNS {
        let out = run_population(spec).unwrap_or_else(|e| panic!("perf population {name}: {e}"));
        if best.as_ref().is_none_or(|b| out.wall < b.wall) {
            best = Some(out);
        }
    }
    let out = best.expect("RUNS >= 1");
    let perf = ScenarioPerf {
        name: name.to_string(),
        wall_s: out.wall.as_secs_f64(),
        events: out.events_processed,
        events_per_sec: out.events_per_sec(),
        sim_s: out.sim_end.as_secs_f64(),
        wheel_hit_rate: out.wheel_hit_rate(),
        wheel_pushes: out.wheel_pushes,
        heap_pushes: out.heap_pushes,
        migrations: out.migrations,
    };
    println!(
        "{:<38} {:>8.3} s wall  {:>11} events  {:>6.2} M events/s  wheel {:.1}%",
        perf.name,
        perf.wall_s,
        perf.events,
        perf.events_per_sec / 1e6,
        perf.wheel_hit_rate * 100.0
    );
    perf
}

/// Best-of-N wall time for one scenario (results discarded). When
/// `paranoid` is set the invariant audit runs after each scenario, so
/// its cost lands inside the timed region.
fn best_wall(scenario: &Scenario, runs: u32, paranoid: bool) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let start = Instant::now();
        let out =
            workload::scenario::run(scenario).unwrap_or_else(|e| panic!("overhead probe: {e}"));
        if paranoid {
            greenenvy::campaign::invariant::check(&out, scenario.mtu)
                .unwrap_or_else(|v| panic!("overhead probe: {v}"));
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn measure_chaos_overhead() -> ChaosOverhead {
    // The MTU-1500 scenario: the most frames per run in the suite, so
    // the per-frame hook cost is measured with the least wall-clock
    // noise (the MTU-9000 variant now finishes in ~3 ms, where a
    // scheduler hiccup reads as several percent).
    let plain = Scenario::new(1500, vec![FlowSpec::bulk(CcaKind::Cubic, 50 * MB)]);
    let faulted = plain.clone().with_fault(FaultSpec::random_loss(0.0));
    // Interleave the variants so host-frequency drift hits both equally.
    const OVERHEAD_RUNS: u32 = 12;
    let mut plain_wall = f64::INFINITY;
    let mut faulted_wall = f64::INFINITY;
    for _ in 0..OVERHEAD_RUNS {
        plain_wall = plain_wall.min(best_wall(&plain, 1, false));
        faulted_wall = faulted_wall.min(best_wall(&faulted, 1, false));
    }
    let overhead = ChaosOverhead {
        plain_wall_s: plain_wall,
        faulted_wall_s: faulted_wall,
        overhead_frac: (faulted_wall - plain_wall) / plain_wall,
    };
    println!(
        "\nchaos overhead (no-op fault spec on the hot path): \
         plain {:.4} s, faulted {:.4} s, {:+.2}% (budget 2%)",
        overhead.plain_wall_s,
        overhead.faulted_wall_s,
        overhead.overhead_frac * 100.0
    );
    overhead
}

fn measure_paranoid_overhead() -> ParanoidOverhead {
    // The MTU-1500 variant: the audit is a fixed per-cell cost, so it
    // is held to the budget on a cell whose wall time resembles a real
    // campaign cell, not the suite's fastest scenario.
    let scenario = Scenario::new(1500, vec![FlowSpec::bulk(CcaKind::Cubic, 50 * MB)]);
    // Interleave the variants so host-frequency drift hits both equally.
    const OVERHEAD_RUNS: u32 = 12;
    let mut plain_wall = f64::INFINITY;
    let mut paranoid_wall = f64::INFINITY;
    for _ in 0..OVERHEAD_RUNS {
        plain_wall = plain_wall.min(best_wall(&scenario, 1, false));
        paranoid_wall = paranoid_wall.min(best_wall(&scenario, 1, true));
    }
    let overhead = ParanoidOverhead {
        plain_wall_s: plain_wall,
        paranoid_wall_s: paranoid_wall,
        overhead_frac: (paranoid_wall - plain_wall) / plain_wall,
    };
    println!(
        "paranoid overhead (invariant audit on a clean run): \
         plain {:.4} s, paranoid {:.4} s, {:+.2}% (budget 2%)",
        overhead.plain_wall_s,
        overhead.paranoid_wall_s,
        overhead.overhead_frac * 100.0
    );
    overhead
}

fn measure_obs_overhead() -> ObsOverhead {
    // MTU 1500 for the same reason as the chaos probe: most frames,
    // least relative timing noise.
    let plain = Scenario::new(1500, vec![FlowSpec::bulk(CcaKind::Cubic, 50 * MB)]);
    let noop = plain.clone().with_noop_observer();
    // Interleave the variants so host-frequency drift hits both equally.
    const OVERHEAD_RUNS: u32 = 12;
    let mut plain_wall = f64::INFINITY;
    let mut noop_wall = f64::INFINITY;
    for _ in 0..OVERHEAD_RUNS {
        plain_wall = plain_wall.min(best_wall(&plain, 1, false));
        noop_wall = noop_wall.min(best_wall(&noop, 1, false));
    }
    let overhead = ObsOverhead {
        plain_wall_s: plain_wall,
        noop_wall_s: noop_wall,
        overhead_frac: (noop_wall - plain_wall) / plain_wall,
    };
    println!(
        "obs overhead (no-op recorder on every hook): \
         plain {:.4} s, noop {:.4} s, {:+.2}% (budget 2%)",
        overhead.plain_wall_s,
        overhead.noop_wall_s,
        overhead.overhead_frac * 100.0
    );
    overhead
}

fn median(walls: &mut [f64]) -> f64 {
    walls.sort_by(f64::total_cmp);
    walls[walls.len() / 2]
}

fn measure_obs_full_overhead() -> ObsFullOverhead {
    // Two flows under random loss: recovery, retransmit and RTO hooks
    // fire along with the per-ack ones, and a run lasts long enough
    // (~0.1 s) that a median of five is stable.
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
    // Interleave the variants so host-frequency drift hits both equally.
    const OVERHEAD_RUNS: usize = 5;
    let mut plain_walls = [0.0; OVERHEAD_RUNS];
    let mut observed_walls = [0.0; OVERHEAD_RUNS];
    for run in 0..OVERHEAD_RUNS {
        plain_walls[run] = best_wall(&plain, 1, false);
        observed_walls[run] = best_wall(&observed, 1, false);
    }
    let (plain_wall_s, observed_wall_s) = (median(&mut plain_walls), median(&mut observed_walls));
    let overhead = ObsFullOverhead {
        plain_wall_s,
        observed_wall_s,
        ratio: observed_wall_s / plain_wall_s,
        budget: OBS_FULL_BUDGET,
    };
    println!(
        "obs full overhead (real recorder, lossy two-flow run): \
         plain {:.4} s, observed {:.4} s, {:.2}x (budget {:.1}x)",
        overhead.plain_wall_s, overhead.observed_wall_s, overhead.ratio, overhead.budget
    );
    overhead
}

fn measure_fig4_sharing() -> Fig4Sharing {
    use greenenvy::{fig1, fig2, fig4};
    let scale = greenenvy::Scale::quick();
    let (c1, c2, c4) = (
        fig1::Config::at_scale(scale),
        fig2::Config::at_scale(scale),
        fig4::Config::at_scale(scale),
    );
    // Interleave the two sides so host-frequency drift hits both equally.
    const SHARING_RUNS: usize = 3;
    let mut borrowed_walls = [0.0; SHARING_RUNS];
    let mut fig4_walls = [0.0; SHARING_RUNS];
    for run in 0..SHARING_RUNS {
        let start = Instant::now();
        std::hint::black_box((fig1::run(&c1), fig2::run(&c2)));
        borrowed_walls[run] = start.elapsed().as_secs_f64();
        let start = Instant::now();
        std::hint::black_box(fig4::run(&c4));
        fig4_walls[run] = start.elapsed().as_secs_f64();
    }
    let (fig1_fig2_wall_s, fig4_wall_s) = (median(&mut borrowed_walls), median(&mut fig4_walls));
    let sharing = Fig4Sharing {
        fig1_fig2_wall_s,
        fig4_wall_s,
        ratio: fig4_wall_s / fig1_fig2_wall_s,
        budget: FIG4_SHARING_BUDGET,
    };
    println!(
        "fig4 sharing (quick scale): fig1+fig2 {:.4} s, fig4 {:.4} s, ratio {:.2} (budget {:.2})",
        sharing.fig1_fig2_wall_s, sharing.fig4_wall_s, sharing.ratio, sharing.budget
    );
    sharing
}

fn measure_sack_scaling() -> SackScaling {
    use bench::sack_trace::{record, replay};
    const ACKS: usize = 50_000;
    const WINDOWS: [usize; 2] = [128, 2048];
    let traces = WINDOWS.map(|window| record(window, ACKS));
    // Interleave the two windows so host-frequency drift hits both equally.
    const SCALING_RUNS: usize = 5;
    let mut ns_per_ack = [[0.0; SCALING_RUNS]; 2];
    for run in 0..SCALING_RUNS {
        for (trace, ns) in traces.iter().zip(&mut ns_per_ack) {
            let start = Instant::now();
            std::hint::black_box(replay(std::hint::black_box(trace)));
            ns[run] = start.elapsed().as_secs_f64() * 1e9 / ACKS as f64;
        }
    }
    let [small_ns_per_ack, large_ns_per_ack] = ns_per_ack.map(|mut ns| median(&mut ns));
    let scaling = SackScaling {
        small_window_segs: WINDOWS[0],
        large_window_segs: WINDOWS[1],
        small_ns_per_ack,
        large_ns_per_ack,
        ratio: large_ns_per_ack / small_ns_per_ack,
        budget: SACK_SCALING_BUDGET,
    };
    println!(
        "sack scaling (1 loss in 97): {:.0} ns/ack at {} segments, {:.0} ns/ack at {}, \
         ratio {:.2} (budget {:.1})",
        scaling.small_ns_per_ack,
        scaling.small_window_segs,
        scaling.large_ns_per_ack,
        scaling.large_window_segs,
        scaling.ratio,
        scaling.budget
    );
    scaling
}

/// One synthetic journal cell record; payload shaped like a real one.
fn journal_entries(n: usize) -> Vec<greenenvy::campaign::journal::Entry> {
    use analysis::stats::Summary;
    (0..n)
        .map(|i| {
            let xs = [i as f64, i as f64 * 0.5 + 1.0, i as f64 * 0.25 + 2.0];
            let s = Summary::of(&xs);
            greenenvy::campaign::journal::Entry::Cell(greenenvy::matrix::Cell {
                cca: format!("probe{i}"),
                mtu: 1500 + (i as u32 % 4) * 1500,
                energy_j: s,
                power_w: s,
                fct_s: s,
                retx: s,
                goodput_gbps: s,
            })
        })
        .collect()
}

/// Checkpoint-journal throughput: one fsynced writer taking every
/// record sequentially vs one writer per shard fed concurrently, the
/// way a supervised campaign's worker pool actually appends.
fn measure_journal_throughput() -> JournalThroughput {
    use greenenvy::campaign::journal::{self, Fingerprint, Writer};
    const RECORDS: usize = 2048;
    const SHARDS: usize = 4;
    let fp = Fingerprint::of(&greenenvy::Scale::quick());
    let tmp = std::env::temp_dir().join(format!("greenenvy-journal-perf-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap_or_else(|e| panic!("journal probe scratch dir: {e}"));
    let entries = journal_entries(RECORDS);
    let chunk = RECORDS.div_ceil(SHARDS);

    let mut single_wall = f64::INFINITY;
    let mut sharded_wall = f64::INFINITY;
    for _ in 0..RUNS {
        let start = Instant::now();
        let mut w = Writer::create(&tmp.join("single.jsonl"), &fp, &[])
            .unwrap_or_else(|e| panic!("journal probe: {e}"));
        for e in &entries {
            w.append(e).unwrap_or_else(|e| panic!("journal probe: {e}"));
        }
        single_wall = single_wall.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        let writers = journal::create_sharded(&tmp.join("sharded"), &fp, &[], SHARDS)
            .unwrap_or_else(|e| panic!("journal probe: {e}"));
        std::thread::scope(|s| {
            for (mut w, slice) in writers.into_iter().zip(entries.chunks(chunk)) {
                s.spawn(move || {
                    for e in slice {
                        w.append(e).unwrap_or_else(|e| panic!("journal probe: {e}"));
                    }
                });
            }
        });
        sharded_wall = sharded_wall.min(start.elapsed().as_secs_f64());
    }
    let _ = std::fs::remove_dir_all(&tmp);

    let jt = JournalThroughput {
        records: RECORDS,
        shards: SHARDS,
        single_rec_per_s: RECORDS as f64 / single_wall,
        sharded_rec_per_s: RECORDS as f64 / sharded_wall,
        speedup: single_wall / sharded_wall,
    };
    println!(
        "journal throughput ({} fsynced records): single {:.0} rec/s, \
         {}-shard {:.0} rec/s ({:.2}x)",
        jt.records, jt.single_rec_per_s, jt.shards, jt.sharded_rec_per_s, jt.speedup
    );
    jt
}

/// The `--check-journal` gate: the sharded journal path must not lose
/// throughput against the sequential single-file writer measured in the
/// same process, nor against the committed baseline (when one exists).
/// Returns the number of violations.
fn check_journal_against(path: &std::path::Path, fresh: &JournalThroughput) -> usize {
    let mut violations = 0;
    let fresh_floor = fresh.single_rec_per_s * (1.0 - CHECK_TOLERANCE);
    println!(
        "\n=== journal check (sharded must hold {}% of single) ===",
        (1.0 - CHECK_TOLERANCE) * 100.0
    );
    if fresh.sharded_rec_per_s < fresh_floor {
        violations += 1;
        eprintln!(
            "sharded {:.0} rec/s REGRESSED below fresh single {:.0} rec/s floor {:.0}",
            fresh.sharded_rec_per_s, fresh.single_rec_per_s, fresh_floor
        );
    } else {
        println!(
            "vs fresh single:    {:.0} >= {:.0} rec/s  ok",
            fresh.sharded_rec_per_s, fresh_floor
        );
    }
    let committed = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| serde_json::from_str::<serde_json::Value>(&t).ok())
        .and_then(|v| v["journal"]["single_rec_per_s"].as_f64());
    match committed {
        Some(base) => {
            let floor = base * (1.0 - CHECK_TOLERANCE);
            if fresh.sharded_rec_per_s < floor {
                violations += 1;
                eprintln!(
                    "sharded {:.0} rec/s REGRESSED below committed single {base:.0} floor {floor:.0}",
                    fresh.sharded_rec_per_s
                );
            } else {
                println!(
                    "vs committed single: {:.0} >= {:.0} rec/s  ok",
                    fresh.sharded_rec_per_s, floor
                );
            }
        }
        None => println!("(no journal entry in committed baseline — skipped)"),
    }
    violations
}

/// Time a whole-workspace lint pass (best of RUNS), report findings.
fn measure_lint(
    label: &str,
    budget_s: f64,
    repo_root: &std::path::Path,
    pass: fn(&std::path::Path) -> Result<simlint::Report, String>,
) -> LintPerf {
    let mut best = f64::INFINITY;
    let mut report = None;
    for _ in 0..RUNS {
        let start = Instant::now();
        let r = pass(repo_root).unwrap_or_else(|e| panic!("{label} pass: {e}"));
        best = best.min(start.elapsed().as_secs_f64());
        report = Some(r);
    }
    let report = report.expect("RUNS >= 1");
    let perf = LintPerf {
        files: report.files_scanned,
        findings: report.count_gating(),
        suppressed: report.count_suppressed(),
        wall_s: best,
        budget_s,
    };
    println!(
        "\n{label}: {} files, {} findings, {} suppressed, {:.4} s wall (budget {:.1} s)",
        perf.files, perf.findings, perf.suppressed, perf.wall_s, perf.budget_s
    );
    if perf.wall_s > perf.budget_s {
        eprintln!(
            "warning: {label} wall time {:.3} s exceeds the {:.1} s budget",
            perf.wall_s, perf.budget_s
        );
    }
    perf
}

/// Re-measure the scenario suite and compare against the committed
/// baseline. Returns the number of regressions beyond the tolerance.
fn check_against(path: &std::path::Path, fresh: &[ScenarioPerf]) -> usize {
    let committed: serde_json::Value = match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{} is not valid JSON: {e}", path.display())),
        Err(e) => panic!("cannot read {}: {e}", path.display()),
    };
    let empty = Vec::new();
    let scenarios = committed["scenarios"].as_array().unwrap_or(&empty);
    let mut regressions = 0;
    println!(
        "\n=== perf check (fail below {}% of committed) ===",
        (1.0 - CHECK_TOLERANCE) * 100.0
    );
    for perf in fresh {
        let Some(base) = scenarios
            .iter()
            .find(|s| s["name"].as_str() == Some(perf.name.as_str()))
            .and_then(|s| s["events_per_sec"].as_f64())
        else {
            // A scenario the committed file predates: nothing to hold
            // it to yet; the next regeneration will start tracking it.
            println!("{:<38} (not in committed baseline — skipped)", perf.name);
            continue;
        };
        let floor = base * (1.0 - CHECK_TOLERANCE);
        let verdict = if perf.events_per_sec >= floor {
            "ok"
        } else {
            regressions += 1;
            "REGRESSED"
        };
        println!(
            "{:<38} committed {:>6.2} M  fresh {:>6.2} M  ({:+.1}%)  {}",
            perf.name,
            base / 1e6,
            perf.events_per_sec / 1e6,
            (perf.events_per_sec / base - 1.0) * 100.0,
            verdict
        );
    }
    regressions
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let check_journal = std::env::args().any(|a| a == "--check-journal");
    if check_journal {
        // Journal-only mode: the supervision drill's throughput gate.
        let repo_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let fresh = measure_journal_throughput();
        let violations = check_journal_against(&repo_root.join("BENCH_netsim.json"), &fresh);
        if violations > 0 {
            eprintln!("journal check: {violations} violation(s)");
            std::process::exit(exitcode::FAILURE);
        }
        println!("journal check: sharded throughput within tolerance");
        return;
    }
    println!("=== simulator perf baseline ({RUNS} runs per scenario, best reported) ===\n");
    let suite = [
        (
            "bulk_cubic_50MB_mtu9000",
            Scenario::new(9000, vec![FlowSpec::bulk(CcaKind::Cubic, 50 * MB)]),
        ),
        (
            "bulk_cubic_50MB_mtu1500",
            Scenario::new(1500, vec![FlowSpec::bulk(CcaKind::Cubic, 50 * MB)]),
        ),
        (
            "two_flow_cubic_reno_40MB_mtu3000",
            Scenario::new(
                3000,
                vec![
                    FlowSpec::bulk(CcaKind::Cubic, 40 * MB),
                    FlowSpec::bulk(CcaKind::Reno, 40 * MB),
                ],
            )
            .with_seed(7),
        ),
        (
            "bulk_dctcp_50MB_mtu9000",
            Scenario::new(9000, vec![FlowSpec::bulk(CcaKind::Dctcp, 50 * MB)]),
        ),
    ];

    let mut scenarios: Vec<ScenarioPerf> = suite
        .iter()
        .map(|(name, scenario)| measure(name, scenario))
        .collect();
    // The many-flow scale-out scenario: 11,000 concurrent flows through
    // the flat-flow-table + batched-dispatch path.
    scenarios.push(measure_population(
        "bulk_10k_flows",
        &PopulationSpec::bulk_10k_flows(),
    ));

    // Anchor at the repo root (two levels up from this crate) for the
    // lint pass, the tracked output file, and the --check reference.
    let repo_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if check {
        let regressions = check_against(&repo_root.join("BENCH_netsim.json"), &scenarios);
        println!();
        let obs_full = measure_obs_full_overhead();
        let sharing = measure_fig4_sharing();
        let scaling = measure_sack_scaling();
        if regressions > 0 {
            eprintln!(
                "perf check: {regressions} scenario(s) regressed more than {:.0}%",
                CHECK_TOLERANCE * 100.0
            );
            std::process::exit(exitcode::FAILURE);
        }
        if obs_full.ratio > obs_full.budget {
            eprintln!(
                "perf check: an observed run costs {:.2}x the plain run (budget {:.1}x)",
                obs_full.ratio, obs_full.budget
            );
            std::process::exit(exitcode::FAILURE);
        }
        if sharing.ratio > sharing.budget {
            eprintln!(
                "perf check: fig4 costs {:.2} of fig1 + fig2 (budget {:.2}): \
                 its loads no longer share simulations",
                sharing.ratio, sharing.budget
            );
            std::process::exit(exitcode::FAILURE);
        }
        if scaling.ratio > scaling.budget {
            eprintln!(
                "perf check: a scoreboard ack at {} segments costs {:.2}x one at {} \
                 (budget {:.1}x): ack cost grows with the window again",
                scaling.large_window_segs, scaling.ratio, scaling.small_window_segs, scaling.budget
            );
            std::process::exit(exitcode::FAILURE);
        }
        println!(
            "perf check: all scenarios within tolerance; obs, fig4 sharing and sack scaling \
             within budget"
        );
        return;
    }

    let total_wall_s: f64 = scenarios.iter().map(|s| s.wall_s).sum();
    let total_events: u64 = scenarios.iter().map(|s| s.events).sum();
    let baseline = Baseline {
        tool: "cargo run --release -p bench --bin perf_baseline".to_string(),
        total_wall_s,
        total_events_per_sec: total_events as f64 / total_wall_s,
        scenarios,
        chaos_overhead: measure_chaos_overhead(),
        paranoid_overhead: measure_paranoid_overhead(),
        obs_overhead: measure_obs_overhead(),
        obs_full_overhead: measure_obs_full_overhead(),
        fig4_sharing: measure_fig4_sharing(),
        sack_scaling: measure_sack_scaling(),
        journal: measure_journal_throughput(),
        simlint: measure_lint(
            "simlint",
            2.0,
            &repo_root,
            simlint::lint_workspace_tokens_with_config_file,
        ),
        simlint_semantic: measure_lint(
            "simlint_semantic",
            5.0,
            &repo_root,
            simlint::lint_workspace_with_config_file,
        ),
    };
    println!(
        "\ntotal: {:.3} s wall, {:.2} M events/s",
        baseline.total_wall_s,
        baseline.total_events_per_sec / 1e6
    );

    // Not the cwd: the tracked file is refreshed wherever the bin runs from.
    let path = repo_root.join("BENCH_netsim.json");
    match greenenvy::campaign::persist::save_json_atomic(&path, &baseline) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(exitcode::FAILURE);
        }
    }
}
