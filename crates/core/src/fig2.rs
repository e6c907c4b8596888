//! **Figure 2 / §4.1** — sender power vs. throughput.
//!
//! One CUBIC flow is throttled to each target rate ("sending smoothly")
//! and its average power measured. The curve is strictly concave; the
//! straight chord between idle and line rate is the power of the "full
//! speed, then idle" time-sharing, which lies strictly below the curve —
//! the geometric heart of the paper's argument.

use crate::scale::Scale;
use analysis::stats::Summary;
use cca::CcaKind;
use energy::calibration::P_IDLE_W;
use netsim::units::Rate;
use serde::{Deserialize, Serialize};
use workload::prelude::*;

/// Configuration of the power-curve sweep.
#[derive(Clone, Debug)]
pub struct Config {
    /// Target throughputs in Gb/s (0 rows are reported analytically as
    /// idle power; the line-rate row runs unthrottled).
    pub rates_gbps: Vec<f64>,
    /// Nominal duration of each throttled transfer; sets the byte count
    /// as `rate * duration`.
    pub duration_s: f64,
    /// MTU.
    pub mtu: u32,
    /// Seeds.
    pub seeds: Vec<u64>,
    /// Background compute load (Figure 4 evaluates the same simulations
    /// under >0 loads).
    pub background: StressLoad,
}

impl Config {
    /// The paper's sweep at the given scale: 0.5 Gb/s steps.
    pub fn at_scale(scale: Scale) -> Config {
        let duration = (scale.two_flow_bytes as f64 * 8.0 / 10e9).max(0.2);
        Config {
            rates_gbps: (1..=20).map(|i| i as f64 * 0.5).collect(),
            duration_s: duration,
            mtu: 9000,
            seeds: scale.seeds(),
            background: StressLoad::IDLE,
        }
    }
}

/// One measured point.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Point {
    /// The throttle target (Gb/s).
    pub target_gbps: f64,
    /// Achieved goodput (Gb/s).
    pub goodput_gbps: Summary,
    /// Average sender power while active (W).
    pub power_w: Summary,
    /// Power of the equivalent "full speed, then idle" mix with the same
    /// average throughput (the orange tangent line of Figure 2).
    pub mix_power_w: f64,
}

/// The sweep result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Result {
    /// Idle power (the x = 0 point).
    pub idle_w: f64,
    /// Line-rate power (the x = 10 point), used for the mix line.
    pub line_rate_w: f64,
    /// Points ordered by target rate.
    pub points: Vec<Point>,
}

impl Result {
    /// Verify strict concavity of the measured curve (midpoints above
    /// chords), allowing `tol` Watts of measurement noise.
    pub fn is_concave(&self, tol: f64) -> bool {
        let pts: Vec<(f64, f64)> = std::iter::once((0.0, self.idle_w))
            .chain(self.points.iter().map(|p| (p.target_gbps, p.power_w.mean)))
            .collect();
        for w in pts.windows(3) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            let (x2, y2) = w[2];
            let chord = y0 + (y2 - y0) * (x1 - x0) / (x2 - x0);
            if y1 + tol < chord {
                return false;
            }
        }
        true
    }
}

/// Run the sweep under `cfg.background`.
pub fn run(cfg: &Config) -> Result {
    run_under_loads(cfg, &[cfg.background])
        .pop()
        .expect("one result per load")
}

/// What one `(rate, seed)` job hands back: plain numbers, because the
/// finished run is `!Send` and is dropped on the worker that built it.
struct Measured {
    /// Average sender power under each load, in `loads` order (W).
    power_w: Vec<f64>,
    /// Achieved goodput (Gb/s).
    goodput_gbps: f64,
}

/// Simulate one throttled transfer and meter it under every load.
fn measure(cfg: &Config, rate: f64, seed: u64, loads: &[StressLoad]) -> Measured {
    // Every point is a *throttled* run — "sending smoothly at a certain
    // throughput" (§4.1) — including the line-rate one; an unthrottled
    // CUBIC flow would add loss-recovery noise that belongs to Figures
    // 5-8, not to this curve.
    let bytes = ((rate * 1e9 / 8.0) * cfg.duration_s) as u64;
    let spec = FlowSpec::bulk(CcaKind::Cubic, bytes.max(10_000_000))
        .with_rate_limit(Rate::from_gbps(rate));
    let scenario = Scenario::new(cfg.mtu, vec![spec]).with_seed(seed);
    let sim = simulate(&scenario).expect("throttled flow completes");
    // Average sender power: energy over iperf time.
    let window_s = sim.window.as_secs_f64();
    Measured {
        power_w: loads
            .iter()
            .map(|&load| sim.meter(load).sender_energy_j / window_s)
            .collect(),
        goodput_gbps: sim.reports[0].mean_goodput.gbps(),
    }
}

/// Run the sweep's simulations once and evaluate them under each of
/// `loads` (one `Result` per load, in order). Background load changes
/// power, not packets, so the loads share every simulation;
/// `cfg.background` is not read — [`run`] passes it as the single load.
pub(crate) fn run_under_loads(cfg: &Config, loads: &[StressLoad]) -> Vec<Result> {
    run_under_loads_with_threads(cfg, loads, host_threads())
}

/// [`run_under_loads`] with an explicit worker count (the thread-count
/// invariance test pins it).
///
/// Every `(rate, seed)` is an independent simulation, so the whole sweep
/// is one flat job list on the parallel map. Jobs are listed rate-major,
/// seed-minor and their results regrouped by index, so every
/// `Summary::of` sees its samples in seed order whichever worker
/// produced them.
pub(crate) fn run_under_loads_with_threads(
    cfg: &Config,
    loads: &[StressLoad],
    threads: usize,
) -> Vec<Result> {
    for &rate in &cfg.rates_gbps {
        assert!(rate > 0.0, "zero rate is the analytic idle point");
    }
    let jobs: Vec<(f64, u64)> = cfg
        .rates_gbps
        .iter()
        .flat_map(|&rate| cfg.seeds.iter().map(move |&seed| (rate, seed)))
        .collect();
    let measured = par_map_with_threads(&jobs, threads, |&(rate, seed)| {
        measure(cfg, rate, seed, loads)
    });

    let n = cfg.seeds.len();
    loads
        .iter()
        .enumerate()
        .map(|(l, &load)| {
            let points = cfg
                .rates_gbps
                .iter()
                .enumerate()
                .map(|(r, &rate)| {
                    let runs = &measured[r * n..(r + 1) * n];
                    let goodput: Vec<f64> = runs.iter().map(|m| m.goodput_gbps).collect();
                    let power: Vec<f64> = runs.iter().map(|m| m.power_w[l]).collect();
                    Point {
                        target_gbps: rate,
                        goodput_gbps: Summary::of(&goodput),
                        power_w: Summary::of(&power),
                        mix_power_w: 0.0, // filled by `with_mix_line` once line-rate power is known
                    }
                })
                .collect();
            with_mix_line(points, load)
        })
        .collect()
}

/// The per-load half of the sweep: idle power and the "full speed, then
/// idle" chord at this load.
fn with_mix_line(mut points: Vec<Point>, load: StressLoad) -> Result {
    let fan = energy::calibration::reference_fan();
    let idle_w = P_IDLE_W + fan.watts(load.utilization());
    let line_rate_w = points.last().map(|p| p.power_w.mean).unwrap_or(idle_w);
    let max_rate = points.last().map(|p| p.target_gbps).unwrap_or(10.0);
    for p in &mut points {
        let duty = (p.target_gbps / max_rate).clamp(0.0, 1.0);
        p.mix_power_w = duty * line_rate_w + (1.0 - duty) * idle_w;
    }

    Result {
        idle_w,
        line_rate_w,
        points,
    }
}

/// Render the paper-style series.
pub fn render(result: &Result) -> String {
    let mut t = analysis::table::Table::new([
        "target (Gbps)",
        "achieved (Gbps)",
        "smooth power (W)",
        "full-speed-then-idle (W)",
    ]);
    t.row([
        "0.0".to_string(),
        "0.000".to_string(),
        format!("{:.2}", result.idle_w),
        format!("{:.2}", result.idle_w),
    ]);
    for p in &result.points {
        t.row([
            format!("{:.1}", p.target_gbps),
            format!("{:.3}", p.goodput_gbps.mean),
            format!("{}", p.power_w),
            format!("{:.2}", p.mix_power_w),
        ]);
    }
    let smooth: Vec<(f64, f64)> = std::iter::once((0.0, result.idle_w))
        .chain(
            result
                .points
                .iter()
                .map(|p| (p.target_gbps, p.power_w.mean)),
        )
        .collect();
    let mix: Vec<(f64, f64)> = std::iter::once((0.0, result.idle_w))
        .chain(result.points.iter().map(|p| (p.target_gbps, p.mix_power_w)))
        .collect();
    let chart = analysis::chart::line_chart(
        &[
            ("sending smoothly", &smooth),
            ("full speed, then idle", &mix),
        ],
        60,
        14,
    );
    format!(
        "Figure 2 — power vs throughput for a CUBIC sender\n\
         (paper: strictly concave; 21.49 W idle, 34.23 W @5G, 35.82 W @10G;\n\
         the time-shared mix lies on the chord, below the curve)\n\n{t}\n{chart}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Config {
        Config {
            rates_gbps: vec![2.5, 5.0, 7.5, 10.0],
            duration_s: 0.1,
            mtu: 9000,
            seeds: vec![1],
            background: StressLoad::IDLE,
        }
    }

    #[test]
    fn hits_the_calibrated_operating_points() {
        let r = run(&tiny());
        assert!((r.idle_w - 21.49).abs() < 1e-9);
        let p5 = &r.points[1];
        assert!(
            (p5.power_w.mean - 34.23).abs() < 0.5,
            "P(5G) = {:?}",
            p5.power_w
        );
        let p10 = &r.points[3];
        assert!(
            (p10.power_w.mean - 35.82).abs() < 0.8,
            "P(10G) = {:?}",
            p10.power_w
        );
    }

    #[test]
    fn curve_is_concave_and_above_the_mix_line() {
        let r = run(&tiny());
        assert!(r.is_concave(0.3), "measured curve must be concave");
        for p in &r.points[..r.points.len() - 1] {
            assert!(
                p.power_w.mean > p.mix_power_w,
                "smooth {} W must exceed mix {} W at {} Gbps",
                p.power_w.mean,
                p.mix_power_w,
                p.target_gbps
            );
        }
    }

    #[test]
    fn achieved_tracks_target() {
        let r = run(&tiny());
        for p in &r.points {
            assert!(
                (p.goodput_gbps.mean - p.target_gbps).abs() / p.target_gbps < 0.1,
                "target {} vs achieved {:?}",
                p.target_gbps,
                p.goodput_gbps
            );
        }
    }

    #[test]
    fn render_contains_the_idle_row() {
        let r = run(&tiny());
        let s = render(&r);
        assert!(s.contains("21.49"));
        assert!(s.contains("Figure 2"));
    }

    #[test]
    fn thread_count_does_not_change_a_byte() {
        let cfg = Config {
            seeds: vec![1, 2],
            ..tiny()
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
    #[should_panic(expected = "zero rate is the analytic idle point")]
    fn a_zero_rate_is_rejected_before_anything_is_simulated() {
        // A day-long transfer first: reaching it would not fail fast.
        run(&Config {
            rates_gbps: vec![10.0, 0.0],
            duration_s: 86_400.0,
            ..tiny()
        });
    }
}
