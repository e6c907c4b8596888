//! **Figure 1 / §4.1** — energy savings vs. bandwidth allocation.
//!
//! Two CUBIC flows share the 10 Gb/s bottleneck, each moving 10 Gbit.
//! One flow is throttled so the other receives a chosen fraction of the
//! link; at the extremes the flows run back-to-back at line rate ("full
//! speed, then idle"). Total sender energy is measured from experiment
//! start until both flows complete. The paper finds the fair 50/50 split
//! is the *most* expensive allocation and full unfairness saves ~16%.

use crate::scale::Scale;
use analysis::stats::Summary;
use cca::CcaKind;
use energy::calibration::{idle_tail_j, CAL_MTU_BYTES};
use netsim::topology::LINK_GBPS;
use netsim::units::Rate;
use serde::{Deserialize, Serialize};
use workload::prelude::*;

/// Configuration of the unfairness sweep.
#[derive(Clone, Debug)]
pub struct Config {
    /// Bytes per flow (the paper's 10 Gbit = 1.25 GB).
    pub per_flow_bytes: u64,
    /// MTU (the paper's experiments run at [`CAL_MTU_BYTES`]).
    pub mtu: u32,
    /// Fractions of bandwidth allocated to the favoured flow, in
    /// `(0.5, 1.0)` exclusive; 0.5 (fair) and 1.0 (serial) always run.
    pub fractions: Vec<f64>,
    /// Seeds (one run per seed per point).
    pub seeds: Vec<u64>,
}

impl Config {
    /// The paper's configuration at the given scale.
    pub fn at_scale(scale: Scale) -> Config {
        Config {
            per_flow_bytes: scale.two_flow_bytes,
            mtu: CAL_MTU_BYTES,
            fractions: (11..20).map(|i| i as f64 * 0.05).collect(), // 0.55..0.95
            seeds: scale.seeds(),
        }
    }
}

/// One point of the sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Point {
    /// Fraction of bandwidth allocated to flow #1 (the x-axis).
    pub fraction: f64,
    /// Total sender energy until both flows complete (J).
    pub energy_j: Summary,
    /// Savings over the fair allocation (%).
    pub savings_pct: Summary,
    /// Nominal Jain fairness index of the allocation.
    pub jain: f64,
    /// Mean measurement window (s).
    pub window_s: Summary,
}

/// The sweep result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Result {
    /// Energy of the fair allocation (J).
    pub fair_energy_j: Summary,
    /// Sweep points including the mirrored lower half and both serial
    /// extremes, ordered by fraction.
    pub points: Vec<Point>,
    /// Peak savings over fair (%), i.e. the paper's headline ~16%.
    pub peak_savings_pct: f64,
}

fn fair_scenario(cfg: &Config, seed: u64) -> Scenario {
    Scenario::new(
        cfg.mtu,
        vec![
            FlowSpec::bulk(CcaKind::Cubic, cfg.per_flow_bytes),
            FlowSpec::bulk(CcaKind::Cubic, cfg.per_flow_bytes),
        ],
    )
    .with_seed(seed)
}

/// Throttled scenario realizing the allocation `(f, 1-f)`: flow #1 is
/// capped at `f*C` and flow #2 at `(1-f)*C` — the caps sum to the link
/// rate, so the allocation is stable (the paper's deep-buffered testbed
/// achieves the same stability; on a shallow buffer an *uncapped*
/// competitor would push both flows back to the fair share through loss).
/// When flow #1 completes, flow #2's cap lifts and it takes the full
/// link, keeping the aggregate at `C` for the whole experiment.
fn throttled_scenario(cfg: &Config, fraction: f64, seed: u64) -> Scenario {
    let mss = (cfg.mtu - netsim::packet::HEADER_BYTES) as f64;
    let wire_factor = cfg.mtu as f64 / mss;
    let flow1_done_s =
        cfg.per_flow_bytes as f64 * wire_factor * 8.0 / (fraction * (LINK_GBPS * 1e9));
    Scenario::new(
        cfg.mtu,
        vec![
            FlowSpec::bulk(CcaKind::Cubic, cfg.per_flow_bytes)
                .with_rate_limit(Rate::from_gbps(LINK_GBPS * fraction)),
            FlowSpec::bulk(CcaKind::Cubic, cfg.per_flow_bytes)
                .with_rate_limit(Rate::from_gbps(LINK_GBPS * (1.0 - fraction)))
                .with_rate_change(netsim::time::SimTime::from_secs_f64(flow1_done_s), None),
        ],
    )
    .with_seed(seed)
}

/// Serial schedule: flow #1 alone at line rate, then flow #2.
fn serial_scenario(cfg: &Config, seed: u64) -> Scenario {
    fair_scenario(cfg, seed)
        .serialized()
        .expect("solo flow completes")
}

struct RawPoint {
    fraction: f64,
    energy: Vec<f64>,
    window: Vec<f64>,
}

/// How the two flows share the link in one simulation of the sweep.
#[derive(Clone, Copy)]
enum Schedule {
    /// Both flows unthrottled: the 50/50 reference.
    Fair,
    /// Flow #1 alone at line rate, then flow #2.
    Serial,
    /// Flow #1 capped at this fraction of the link, flow #2 at the rest.
    Throttled(f64),
}

impl Schedule {
    /// Flow #1's share of the link: the sweep's x-axis.
    fn fraction(self) -> f64 {
        match self {
            Schedule::Fair => 0.5,
            Schedule::Serial => 1.0,
            Schedule::Throttled(f) => f,
        }
    }
}

/// What a job hands back: plain numbers, because the finished run is
/// `!Send` and is dropped on the worker that built it.
struct Measured {
    /// Sender energy under each load, in `loads` order (J).
    energy_j: Vec<f64>,
    /// Measurement window (s).
    window_s: f64,
}

/// Simulate one `(schedule, seed)` job and meter it under every load.
/// One simulation is alive per worker: the run is dropped before the
/// worker claims its next job (and the serial schedule's solo pre-run
/// before its own run is built).
fn measure(cfg: &Config, schedule: Schedule, seed: u64, loads: &[StressLoad]) -> Measured {
    let scenario = match schedule {
        Schedule::Fair => fair_scenario(cfg, seed),
        Schedule::Serial => serial_scenario(cfg, seed),
        Schedule::Throttled(f) => throttled_scenario(cfg, f, seed),
    };
    let sim = simulate(&scenario).expect("two-flow scenario completes");
    Measured {
        energy_j: loads
            .iter()
            .map(|&load| sim.meter(load).sender_energy_j)
            .collect(),
        window_s: sim.window.as_secs_f64(),
    }
}

/// Extend every point's energy to a per-seed *common* measurement window
/// (the latest completion across all schedules of that seed). A completed
/// host idles at exactly base power, so the extension is the analytic
/// `(W - w) * P_base` per host — this removes completion-jitter noise
/// from the savings comparison without rerunning anything.
fn equalize_windows(raw: &mut [RawPoint], load: StressLoad, hosts: f64) {
    let seeds = raw[0].window.len();
    for i in 0..seeds {
        let common = raw.iter().map(|rp| rp.window[i]).fold(0.0_f64, f64::max);
        for rp in raw.iter_mut() {
            rp.energy[i] += idle_tail_j(common - rp.window[i], load.utilization(), hosts);
            rp.window[i] = common;
        }
    }
}

/// Run the sweep on idle hosts (Figure 4 evaluates the same simulations
/// under higher loads).
pub fn run(cfg: &Config) -> Result {
    run_under_loads(cfg, &[StressLoad::IDLE])
        .pop()
        .expect("one result per load")
}

/// Run the sweep's simulations once and evaluate them under each of
/// `loads` (one `Result` per load, in order). Background load changes
/// power, not packets, so the loads share every simulation.
pub(crate) fn run_under_loads(cfg: &Config, loads: &[StressLoad]) -> Vec<Result> {
    run_under_loads_with_threads(cfg, loads, host_threads())
}

/// [`run_under_loads`] with an explicit worker count (the thread-count
/// invariance test pins it).
///
/// Every `(schedule, seed)` is an independent simulation, so the whole
/// sweep is one flat job list on the parallel map. Jobs are listed
/// schedule-major, seed-minor and their results regrouped by index, so
/// every `Summary::of` sees its samples in seed order whichever worker
/// produced them.
pub(crate) fn run_under_loads_with_threads(
    cfg: &Config,
    loads: &[StressLoad],
    threads: usize,
) -> Vec<Result> {
    for &f in &cfg.fractions {
        assert!(
            f > 0.5 && f < 1.0,
            "sweep fractions must lie strictly between fair and serial"
        );
    }
    // Fair first: `evaluate` reads the reference from schedule 0.
    let schedules: Vec<Schedule> = [Schedule::Fair, Schedule::Serial]
        .into_iter()
        .chain(cfg.fractions.iter().map(|&f| Schedule::Throttled(f)))
        .collect();
    let jobs: Vec<(Schedule, u64)> = schedules
        .iter()
        .flat_map(|&schedule| cfg.seeds.iter().map(move |&seed| (schedule, seed)))
        .collect();
    let measured = par_map_with_threads(&jobs, threads, |&(schedule, seed)| {
        measure(cfg, schedule, seed, loads)
    });

    let n = cfg.seeds.len();
    loads
        .iter()
        .enumerate()
        .map(|(l, &load)| {
            let raw = schedules
                .iter()
                .enumerate()
                .map(|(s, schedule)| {
                    let runs = &measured[s * n..(s + 1) * n];
                    RawPoint {
                        fraction: schedule.fraction(),
                        energy: runs.iter().map(|m| m.energy_j[l]).collect(),
                        window: runs.iter().map(|m| m.window_s).collect(),
                    }
                })
                .collect();
            evaluate(raw, load)
        })
        .collect()
}

/// The per-load half of the sweep: savings over fair on a common window.
fn evaluate(mut raw: Vec<RawPoint>, load: StressLoad) -> Result {
    equalize_windows(&mut raw, load, 2.0);

    let fair_energy: Vec<f64> = raw[0].energy.clone();
    let to_point = |rp: &RawPoint| -> Point {
        let savings: Vec<f64> = rp
            .energy
            .iter()
            .zip(&fair_energy)
            .map(|(e, fe)| 100.0 * (fe - e) / fe)
            .collect();
        Point {
            fraction: rp.fraction,
            energy_j: Summary::of(&rp.energy),
            savings_pct: Summary::of(&savings),
            jain: analysis::fairness::jain_index(&[rp.fraction, 1.0 - rp.fraction]),
            window_s: Summary::of(&rp.window),
        }
    };

    // Mirror the upper half onto the lower half (host symmetry).
    let mut points: Vec<Point> = Vec::new();
    for rp in &raw {
        let p = to_point(rp);
        if rp.fraction > 0.5 {
            let mut mirrored = p.clone();
            mirrored.fraction = 1.0 - p.fraction;
            points.push(mirrored);
        }
        points.push(p);
    }
    points.sort_by(|a, b| a.fraction.total_cmp(&b.fraction));

    let peak = points
        .iter()
        .map(|p| p.savings_pct.mean)
        .fold(f64::NEG_INFINITY, f64::max);

    Result {
        fair_energy_j: to_point(&raw[0]).energy_j,
        points,
        peak_savings_pct: peak,
    }
}

/// Render the paper-style series.
pub fn render(result: &Result) -> String {
    let mut t = analysis::table::Table::new([
        "flow1 fraction (%)",
        "jain",
        "energy (J)",
        "savings over fair (%)",
        "window (s)",
    ]);
    for p in &result.points {
        t.row([
            format!("{:.0}", p.fraction * 100.0),
            format!("{:.3}", p.jain),
            format!("{}", p.energy_j),
            format!("{}", p.savings_pct),
            format!("{}", p.window_s),
        ]);
    }
    let bowl: Vec<(f64, f64)> = result
        .points
        .iter()
        .map(|p| (p.fraction * 100.0, p.savings_pct.mean))
        .collect();
    let chart = analysis::chart::line_chart(&[("savings over fair (%)", &bowl)], 60, 12);
    format!(
        "Figure 1 — energy savings vs bandwidth allocated to flow #1\n\
         (two CUBIC flows, 10 Gb/s bottleneck; paper: fair is worst, full\n\
         speed-then-idle saves ~16%)\n\n{t}\n{chart}\npeak savings: {:.1}%\n",
        result.peak_savings_pct
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::units::MB;

    fn tiny_config() -> Config {
        Config {
            per_flow_bytes: 125 * MB, // 1 Gbit
            mtu: 9000,
            fractions: vec![0.75],
            seeds: vec![1],
        }
    }

    #[test]
    fn fair_is_least_efficient_and_serial_saves_most() {
        let result = run(&tiny_config());
        let fair = result
            .points
            .iter()
            .find(|p| p.fraction == 0.5)
            .expect("fair point present");
        let serial = result
            .points
            .iter()
            .find(|p| p.fraction == 1.0)
            .expect("serial point present");
        let mid = result
            .points
            .iter()
            .find(|p| p.fraction == 0.75)
            .expect("mid point present");

        assert!(fair.savings_pct.mean.abs() < 1e-9, "fair is the reference");
        assert!(
            mid.savings_pct.mean > 1.0,
            "0.75 allocation must save: {:?}",
            mid.savings_pct
        );
        assert!(
            serial.savings_pct.mean > mid.savings_pct.mean,
            "serial ({:?}) must beat 0.75 ({:?})",
            serial.savings_pct,
            mid.savings_pct
        );
        // The headline: around 16% at full unfairness.
        assert!(
            (12.0..20.0).contains(&serial.savings_pct.mean),
            "serial savings {:?} should be near the paper's 16%",
            serial.savings_pct
        );
        assert_eq!(result.peak_savings_pct, serial.savings_pct.mean);
    }

    #[test]
    fn points_are_mirrored_and_sorted() {
        let result = run(&tiny_config());
        let fracs: Vec<f64> = result.points.iter().map(|p| p.fraction).collect();
        assert_eq!(fracs, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        let low = &result.points[1];
        let high = &result.points[3];
        assert_eq!(low.energy_j, high.energy_j, "mirrored energies identical");
    }

    #[test]
    fn render_mentions_the_peak() {
        let result = run(&tiny_config());
        let s = render(&result);
        assert!(s.contains("Figure 1"));
        assert!(s.contains("peak savings"));
    }

    #[test]
    fn thread_count_does_not_change_a_byte() {
        // Two seeds and two loads, so a worker finishing out of turn
        // would reorder a Summary's samples if regrouping were wrong.
        let cfg = Config {
            seeds: vec![1, 2],
            ..tiny_config()
        };
        let loads = [StressLoad::IDLE, StressLoad::fraction(0.5)];
        let json = |threads| {
            serde_json::to_string(&run_under_loads_with_threads(&cfg, &loads, threads))
                .expect("figure result serializes")
        };
        let one = json(1);
        assert_eq!(one, json(2));
        assert_eq!(one, json(5));
    }

    #[test]
    #[should_panic(expected = "strictly between fair and serial")]
    fn a_bad_fraction_is_rejected_before_anything_is_simulated() {
        // Petabyte flows: reaching a simulation would not fail fast.
        run(&Config {
            per_flow_bytes: 1 << 50,
            fractions: vec![0.75, 1.0],
            ..tiny_config()
        });
    }
}
