//! **Figure 3 / §4.1** — throughput-over-time traces for the fair and the
//! "full speed, then idle" schedules.
//!
//! Left panel: two CUBIC flows share the link at ~5 Gb/s each for ~2 s.
//! Right panel: each flow takes the full 10 Gb/s for ~1 s while the other
//! idles. Both move the same data; the right schedule is the
//! energy-efficient one.

use crate::scale::Scale;
use cca::CcaKind;
use netsim::time::SimDuration;
use serde::{Deserialize, Serialize};
use workload::prelude::*;

/// Configuration of the trace experiment.
#[derive(Clone, Debug)]
pub struct Config {
    /// Bytes per flow.
    pub per_flow_bytes: u64,
    /// MTU.
    pub mtu: u32,
    /// Trace bin width.
    pub bin: SimDuration,
    /// Seed.
    pub seed: u64,
}

impl Config {
    /// The paper's configuration at the given scale.
    pub fn at_scale(scale: Scale) -> Config {
        Config {
            per_flow_bytes: scale.two_flow_bytes,
            mtu: 9000,
            bin: SimDuration::from_millis(10),
            seed: 1,
        }
    }
}

/// One schedule's traces.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Panel {
    /// Time axis (bin centers, seconds).
    pub time_s: Vec<f64>,
    /// Flow 1 throughput (Gb/s) per bin.
    pub flow1_gbps: Vec<f64>,
    /// Flow 2 throughput (Gb/s) per bin.
    pub flow2_gbps: Vec<f64>,
    /// Total sender energy of this schedule (J).
    pub energy_j: f64,
    /// Completion of the later flow (s).
    pub window_s: f64,
}

/// Both panels.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Result {
    /// The fair schedule (left panel).
    pub fair: Panel,
    /// The full-speed-then-idle schedule (right panel).
    pub unfair: Panel,
}

fn to_panel(out: &ScenarioOutcome, bin: SimDuration) -> Panel {
    let traces = out
        .throughput_traces
        .as_ref()
        .expect("tracing enabled for Figure 3");
    let f1 = traces[0].clone();
    let f2 = traces[1].clone();
    let n = f1.len().max(f2.len());
    let pad = |mut v: Vec<f64>| {
        v.resize(n, 0.0);
        v
    };
    Panel {
        time_s: obs::series::bin_centers_s(n, bin.as_secs_f64()),
        flow1_gbps: pad(f1),
        flow2_gbps: pad(f2),
        energy_j: out.sender_energy_j,
        window_s: out.window.as_secs_f64(),
    }
}

/// Run both schedules.
pub fn run(cfg: &Config) -> Result {
    run_with_threads(cfg, host_threads())
}

/// The two independent jobs of the figure.
#[derive(Clone, Copy)]
enum Schedule {
    /// Both flows from t = 0.
    Fair,
    /// Flow #2 starts when a solo pre-run of flow #1 completes.
    Serial,
}

/// Simulate one schedule and reduce it to its panel on the worker (the
/// outcome holds the whole trace; the panel is what the figure keeps).
fn panel(cfg: &Config, schedule: Schedule) -> Panel {
    let flow = || FlowSpec::bulk(CcaKind::Cubic, cfg.per_flow_bytes);
    let scenario = Scenario::new(cfg.mtu, vec![flow(), flow()])
        .with_seed(cfg.seed)
        .with_trace(cfg.bin);
    let scenario = match schedule {
        Schedule::Fair => scenario,
        Schedule::Serial => scenario.serialized().expect("solo run completes"),
    };
    let out = workload::scenario::run(&scenario).expect("two-flow schedule completes");
    to_panel(&out, cfg.bin)
}

/// [`run`] with an explicit worker count (the thread-count invariance
/// test pins it): the fair schedule and the solo-then-serial pair are
/// two jobs on the parallel map.
pub(crate) fn run_with_threads(cfg: &Config, threads: usize) -> Result {
    let jobs = [Schedule::Fair, Schedule::Serial];
    let [fair, unfair]: [Panel; 2] =
        par_map_with_threads(&jobs, threads, |&schedule| panel(cfg, schedule))
            .try_into()
            .expect("one panel per schedule");
    Result { fair, unfair }
}

/// Render both series, paper-style.
pub fn render(result: &Result) -> String {
    let mut out = String::from(
        "Figure 3 — throughput vs time: fair (left) vs full-speed-then-idle (right)\n\n",
    );
    for (label, panel) in [
        ("fair", &result.fair),
        ("full-speed-then-idle", &result.unfair),
    ] {
        out.push_str(&format!(
            "[{label}] window = {:.3} s, sender energy = {:.1} J\n",
            panel.window_s, panel.energy_j
        ));
        let mut t = analysis::table::Table::new(["t (s)", "flow1 (Gbps)", "flow2 (Gbps)"]);
        // Print every Nth bin so panels stay readable.
        let step = (panel.time_s.len() / 20).max(1);
        for i in (0..panel.time_s.len()).step_by(step) {
            t.row([
                format!("{:.2}", panel.time_s[i]),
                format!("{:.2}", panel.flow1_gbps[i]),
                format!("{:.2}", panel.flow2_gbps[i]),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::units::MB;

    fn tiny() -> Config {
        Config {
            per_flow_bytes: 125 * MB, // 1 Gbit => ~0.1 s phases
            mtu: 9000,
            bin: SimDuration::from_millis(5),
            seed: 3,
        }
    }

    #[test]
    fn fair_panel_shows_sharing_and_unfair_shows_phases() {
        let r = run(&tiny());

        // Fair: mid-experiment, both flows near 5 Gb/s.
        let mid = r.fair.time_s.len() / 2;
        let f1 = r.fair.flow1_gbps[mid];
        let f2 = r.fair.flow2_gbps[mid];
        assert!((3.0..7.0).contains(&f1), "fair flow1 mid {f1}");
        assert!((3.0..7.0).contains(&f2), "fair flow2 mid {f2}");

        // Unfair: first quarter flow1 ~10, flow2 ~0; last quarter reversed.
        let q1 = r.unfair.time_s.len() / 4;
        let q3 = 3 * r.unfair.time_s.len() / 4;
        assert!(r.unfair.flow1_gbps[q1] > 8.0, "phase 1 flow1 at line rate");
        assert!(r.unfair.flow2_gbps[q1] < 1.0, "phase 1 flow2 idle");
        assert!(r.unfair.flow2_gbps[q3] > 8.0, "phase 2 flow2 at line rate");
        assert!(r.unfair.flow1_gbps[q3] < 1.0, "phase 2 flow1 idle");
    }

    #[test]
    fn schedules_move_the_same_data_but_unfair_costs_less() {
        let r = run(&tiny());
        // Same aggregate data, similar windows.
        assert!((r.fair.window_s - r.unfair.window_s).abs() / r.fair.window_s < 0.15);
        assert!(
            r.unfair.energy_j < r.fair.energy_j,
            "serial {} J must beat fair {} J",
            r.unfair.energy_j,
            r.fair.energy_j
        );
    }

    #[test]
    fn render_has_both_panels() {
        let r = run(&tiny());
        let s = render(&r);
        assert!(s.contains("[fair]"));
        assert!(s.contains("[full-speed-then-idle]"));
    }

    #[test]
    fn thread_count_does_not_change_a_byte() {
        let json = |threads| {
            serde_json::to_string(&run_with_threads(&tiny(), threads))
                .expect("figure result serializes")
        };
        let one = json(1);
        assert_eq!(one, json(2));
        assert_eq!(one, json(5));
    }
}
