//! **Figure 4 / §4.2** — power vs. bitrate under background compute load,
//! and the fate of the "full speed, then idle" savings on loaded hosts.
//!
//! The paper runs `stress` on 0/25/50/75% of the cores next to the CUBIC
//! traffic. Loaded hosts draw far more base power and the *marginal*
//! network power shrinks, so the unfairness savings fall from ~16% (idle)
//! to ~1% at 25% load and ~0.17% at 75% load — still worth ~$10M/year at
//! datacenter scale.

use crate::scale::Scale;
use crate::{fig1, fig2};
use analysis::stats::Summary;
use serde::{Deserialize, Serialize};
use workload::prelude::*;

/// Configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Background load fractions (the paper's 0, 0.25, 0.5, 0.75).
    pub loads: Vec<f64>,
    /// Rates for the per-load power curves (Gb/s).
    pub rates_gbps: Vec<f64>,
    /// Bytes per flow for the savings experiment.
    pub per_flow_bytes: u64,
    /// Nominal duration for the curve transfers.
    pub duration_s: f64,
    /// MTU.
    pub mtu: u32,
    /// Seeds.
    pub seeds: Vec<u64>,
}

impl Config {
    /// The paper's configuration at the given scale.
    pub fn at_scale(scale: Scale) -> Config {
        Config {
            loads: vec![0.0, 0.25, 0.5, 0.75],
            rates_gbps: vec![2.0, 4.0, 6.0, 8.0, 10.0],
            per_flow_bytes: scale.two_flow_bytes,
            duration_s: (scale.two_flow_bytes as f64 * 8.0 / 10e9).max(0.2),
            mtu: 9000,
            seeds: scale.seeds(),
        }
    }
}

/// One load level's measurements.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LoadRow {
    /// Background utilization.
    pub load: f64,
    /// Idle (zero-bitrate) power at this load (W).
    pub idle_w: f64,
    /// Power at each configured bitrate (W).
    pub power_w: Vec<Summary>,
    /// "Full speed, then idle" savings over fair at this load (%).
    pub savings_pct: Summary,
}

/// The full result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Result {
    /// Bitrates the curves were sampled at.
    pub rates_gbps: Vec<f64>,
    /// One row per load level.
    pub rows: Vec<LoadRow>,
}

/// Run the experiment. Background load changes power, not packets, so
/// every transfer is simulated once and metered under each load.
pub fn run(cfg: &Config) -> Result {
    let loads: Vec<StressLoad> = cfg.loads.iter().map(|&l| StressLoad::fraction(l)).collect();

    // Power curve per load (the Figure-2 machinery).
    let curves = fig2::run_under_loads(
        &fig2::Config {
            rates_gbps: cfg.rates_gbps.clone(),
            duration_s: cfg.duration_s,
            mtu: cfg.mtu,
            seeds: cfg.seeds.clone(),
            background: StressLoad::IDLE,
        },
        &loads,
    );

    // Fair-vs-serial savings per load (Figure 1's endpoints only).
    let sweeps = fig1::run_under_loads(
        &fig1::Config {
            per_flow_bytes: cfg.per_flow_bytes,
            mtu: cfg.mtu,
            fractions: vec![],
            seeds: cfg.seeds.clone(),
            background: StressLoad::IDLE,
        },
        &loads,
    );

    let rows = cfg
        .loads
        .iter()
        .zip(curves)
        .zip(sweeps)
        .map(|((&load, curve), sweep)| {
            let serial = sweep
                .points
                .iter()
                .find(|p| p.fraction == 1.0)
                .expect("serial point present");
            LoadRow {
                load,
                idle_w: curve.idle_w,
                power_w: curve.points.iter().map(|p| p.power_w).collect(),
                savings_pct: serial.savings_pct,
            }
        })
        .collect();
    Result {
        rates_gbps: cfg.rates_gbps.clone(),
        rows,
    }
}

/// Render the paper-style table.
pub fn render(result: &Result) -> String {
    let mut header = vec!["load (%)".to_string(), "idle (W)".to_string()];
    header.extend(result.rates_gbps.iter().map(|r| format!("{r:.0}G (W)")));
    header.push("fs-then-idle savings (%)".to_string());
    let mut t = analysis::table::Table::new(header);
    for row in &result.rows {
        let mut cells = vec![
            format!("{:.0}", row.load * 100.0),
            format!("{:.2}", row.idle_w),
        ];
        cells.extend(row.power_w.iter().map(|p| format!("{:.2}", p.mean)));
        cells.push(format!("{}", row.savings_pct));
        t.row(cells);
    }
    format!(
        "Figure 4 — power vs bitrate under background load + unfairness savings\n\
         (paper: savings fall from ~16% idle to ~1% at 25% load and ~0.17% at 75%)\n\n{t}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::units::MB;

    fn tiny() -> Config {
        Config {
            loads: vec![0.0, 0.25, 0.75],
            rates_gbps: vec![5.0, 10.0],
            per_flow_bytes: 125 * MB,
            duration_s: 0.1,
            mtu: 9000,
            seeds: vec![1],
        }
    }

    #[test]
    fn savings_shrink_with_load_toward_paper_values() {
        let r = run(&tiny());
        let s0 = r.rows[0].savings_pct.mean;
        let s25 = r.rows[1].savings_pct.mean;
        let s75 = r.rows[2].savings_pct.mean;
        assert!(s0 > s25 && s25 > s75, "savings must fall: {s0} {s25} {s75}");
        assert!((12.0..20.0).contains(&s0), "idle savings {s0} ~ 16%");
        assert!((0.5..2.0).contains(&s25), "25% load savings {s25} ~ 1%");
        assert!((0.05..0.5).contains(&s75), "75% load savings {s75} ~ 0.17%");
    }

    #[test]
    fn loaded_hosts_draw_more_base_power() {
        let r = run(&tiny());
        assert!((r.rows[0].idle_w - 21.49).abs() < 1e-9);
        assert!(
            r.rows[1].idle_w > 60.0,
            "25% load base {}",
            r.rows[1].idle_w
        );
        assert!(
            r.rows[2].idle_w > 110.0,
            "75% load base {}",
            r.rows[2].idle_w
        );
        // And the network increment compresses with load.
        let inc0 = r.rows[0].power_w[1].mean - r.rows[0].idle_w;
        let inc75 = r.rows[2].power_w[1].mean - r.rows[2].idle_w;
        assert!(
            inc75 < inc0 * 0.2,
            "marginal power must attenuate: {inc0} vs {inc75}"
        );
    }

    #[test]
    fn render_lists_all_loads() {
        let r = run(&tiny());
        let s = render(&r);
        assert!(s.contains("Figure 4"));
        for load in ["0", "25", "75"] {
            assert!(s.contains(load));
        }
    }
}
