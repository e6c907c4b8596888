//! Extensions: the experiments the paper's §5 lists as future work.
//!
//! * [`multiplexed`] — "multiplexing multiple flows at the same sender":
//!   do the unfairness savings survive when both flows share one CPU
//!   socket? (No — per-socket power depends on the aggregate rate, which
//!   every schedule keeps at C. The savings are a property of *spreading
//!   flows across sockets and idling some of them*.)
//! * [`srpt`] — "CCAs should aim to send as fast as possible for minimal
//!   completion time": compare fair sharing of a mixed-size flow batch
//!   with a shortest-remaining-processing-time serial schedule, which
//!   improves mean completion time *and* energy simultaneously.
//! * [`incast`] — "and incast": fan N synchronized senders into the
//!   bottleneck and watch burst losses and per-byte energy grow with N.
//!
//! Every extension runs at the calibration MTU ([`CAL_MTU_BYTES`]); the
//! multiplexed, SRPT and incast runs on [`Scenario`]'s default seed.

use cca::CcaKind;
use energy::calibration::CAL_MTU_BYTES;
use netsim::topology::LINK_GBPS;
use serde::{Deserialize, Serialize};
use workload::prelude::*;

/// The sender energies of `outs`, each on `hosts` sender hosts, padded
/// to their common window on idle hosts
/// ([`energy::calibration::pad_to_common_window`]).
fn common_window(outs: [&ScenarioOutcome; 2], hosts: f64) -> (f64, Vec<f64>) {
    let runs = outs.map(|out| (out.sender_energy_j, out.window.as_secs_f64(), hosts));
    energy::calibration::pad_to_common_window(&runs, 0.0)
}

/// §5 — flow multiplexing at one sender.
pub mod multiplexed {
    use super::*;

    /// Configuration.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Bytes per flow.
        pub per_flow_bytes: u64,
    }

    impl Config {
        /// Default at a given scale.
        pub fn at_scale(scale: crate::scale::Scale) -> Config {
            Config {
                per_flow_bytes: scale.two_flow_bytes,
            }
        }
    }

    /// The comparison.
    #[derive(Clone, Debug, Serialize, Deserialize)]
    pub struct Result {
        /// Full-speed-then-idle savings with one host per flow (%).
        pub separate_savings_pct: f64,
        /// The same schedule comparison with both flows multiplexed on a
        /// single sender host (%).
        pub colocated_savings_pct: f64,
    }

    fn schedule_pair(cfg: &Config, colocate: bool) -> (f64, f64) {
        let mut pair = Scenario::new(
            CAL_MTU_BYTES,
            vec![
                FlowSpec::bulk(CcaKind::Cubic, cfg.per_flow_bytes),
                FlowSpec::bulk(CcaKind::Cubic, cfg.per_flow_bytes),
            ],
        );
        pair.colocate_senders = colocate;
        let run = |s: &Scenario| workload::scenario::run(s).expect("schedule completes");
        let fair = run(&pair);
        let serial = run(&pair.serialized().expect("solo run completes"));
        let hosts = if colocate { 1.0 } else { 2.0 };
        let (_, energy) = common_window([&fair, &serial], hosts);
        (energy[0], energy[1])
    }

    /// Run the comparison.
    pub fn run(cfg: &Config) -> Result {
        let (fair_sep, serial_sep) = schedule_pair(cfg, false);
        let (fair_col, serial_col) = schedule_pair(cfg, true);
        Result {
            separate_savings_pct: 100.0 * (fair_sep - serial_sep) / fair_sep,
            colocated_savings_pct: 100.0 * (fair_col - serial_col) / fair_col,
        }
    }

    /// Render the finding.
    pub fn render(r: &Result) -> String {
        format!(
            "Extension: multiplexing at one sender (paper §5)\n\n\
             full-speed-then-idle savings, one socket per flow: {:+.2}%\n\
             full-speed-then-idle savings, flows multiplexed:   {:+.2}%\n\n\
             The savings are a property of idling *sockets*: once both\n\
             flows share one package, every schedule pushes the same\n\
             aggregate and the advantage collapses.\n",
            r.separate_savings_pct, r.colocated_savings_pct
        )
    }
}

/// §5 — SRPT-style scheduling beats fair sharing on both metrics.
pub mod srpt {
    use super::*;

    /// Configuration.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Flow sizes in bytes (a mixed batch).
        pub flow_bytes: Vec<u64>,
    }

    impl Config {
        /// Default: a 1:2:4:8 mix summing to four `two_flow_bytes` units.
        pub fn at_scale(scale: crate::scale::Scale) -> Config {
            let b = scale.two_flow_bytes / 4;
            Config {
                flow_bytes: vec![b, 2 * b, 4 * b, 8 * b],
            }
        }
    }

    /// One schedule's outcome.
    #[derive(Clone, Copy, Debug, Serialize, Deserialize)]
    pub struct Schedule {
        /// Mean flow completion time (s), measured from experiment start
        /// (scheduling delay included, as SRPT analyses do).
        pub mean_fct_s: f64,
        /// Total sender energy over the common window (J).
        pub energy_j: f64,
        /// Window (s).
        pub window_s: f64,
    }

    /// The comparison.
    #[derive(Clone, Debug, Serialize, Deserialize)]
    pub struct Result {
        /// Everyone-at-once fair sharing.
        pub fair: Schedule,
        /// Shortest-first serial schedule.
        pub srpt: Schedule,
        /// Energy saving of SRPT over fair (%).
        pub energy_savings_pct: f64,
        /// Mean-FCT improvement of SRPT over fair (%).
        pub fct_improvement_pct: f64,
    }

    fn measure(out: &ScenarioOutcome, energy_j: f64, window_s: f64) -> Schedule {
        let mean_fct = out
            .reports
            .iter()
            .map(|r| r.completed_at.as_secs_f64())
            .sum::<f64>()
            / out.reports.len() as f64;
        Schedule {
            mean_fct_s: mean_fct,
            energy_j,
            window_s,
        }
    }

    /// Run the comparison.
    pub fn run(cfg: &Config) -> Result {
        let hosts = cfg.flow_bytes.len() as f64;

        // Fair: everyone starts at once and shares.
        let fair_out = workload::scenario::run(&Scenario::new(
            CAL_MTU_BYTES,
            cfg.flow_bytes
                .iter()
                .map(|&b| FlowSpec::bulk(CcaKind::Cubic, b))
                .collect(),
        ))
        .expect("fair batch completes");

        // SRPT: strictly shortest-first, one at a time at line rate.
        let mut order: Vec<usize> = (0..cfg.flow_bytes.len()).collect();
        order.sort_by_key(|&i| cfg.flow_bytes[i]);
        let wire_factor =
            CAL_MTU_BYTES as f64 / (CAL_MTU_BYTES - netsim::packet::HEADER_BYTES) as f64;
        let mut start = 0.0;
        let mut specs: Vec<(usize, FlowSpec)> = Vec::new();
        for &i in &order {
            let spec = FlowSpec::bulk(CcaKind::Cubic, cfg.flow_bytes[i])
                .with_start_delay(netsim::time::SimDuration::from_secs_f64(start));
            specs.push((i, spec));
            start += cfg.flow_bytes[i] as f64 * wire_factor * 8.0 / (LINK_GBPS * 1e9);
        }
        specs.sort_by_key(|&(i, _)| i); // restore flow-index order
        let srpt_out = workload::scenario::run(&Scenario::new(
            CAL_MTU_BYTES,
            specs.into_iter().map(|(_, s)| s).collect(),
        ))
        .expect("srpt batch completes");

        let (w, energy) = common_window([&fair_out, &srpt_out], hosts);
        let fair = measure(&fair_out, energy[0], w);
        let srpt = measure(&srpt_out, energy[1], w);
        Result {
            fair,
            srpt,
            energy_savings_pct: 100.0 * (fair.energy_j - srpt.energy_j) / fair.energy_j,
            fct_improvement_pct: 100.0 * (fair.mean_fct_s - srpt.mean_fct_s) / fair.mean_fct_s,
        }
    }

    /// Render the finding.
    pub fn render(r: &Result) -> String {
        format!(
            "Extension: SRPT scheduling (paper §5)\n\n\
             schedule  mean fct (s)  energy (J)\n\
             fair      {:>12.3}  {:>10.1}\n\
             srpt      {:>12.3}  {:>10.1}\n\n\
             SRPT improves mean completion time by {:.1}% AND saves {:.1}%\n\
             energy — fast-as-possible transmission is green, exactly the\n\
             direction the paper's §5 proposes.\n",
            r.fair.mean_fct_s,
            r.fair.energy_j,
            r.srpt.mean_fct_s,
            r.srpt.energy_j,
            r.fct_improvement_pct,
            r.energy_savings_pct
        )
    }
}

/// §5 — incast.
pub mod incast {
    use super::*;

    /// Configuration.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Fan-in degrees to test.
        pub fan_in: Vec<usize>,
        /// Bytes per sender.
        pub bytes_per_sender: u64,
    }

    impl Config {
        /// Default at a given scale.
        pub fn at_scale(scale: crate::scale::Scale) -> Config {
            Config {
                fan_in: vec![2, 4, 8, 16, 32],
                bytes_per_sender: scale.two_flow_bytes / 16,
            }
        }
    }

    /// One fan-in degree's measurements.
    #[derive(Clone, Copy, Debug, Serialize, Deserialize)]
    pub struct Row {
        /// Number of synchronized senders.
        pub n: usize,
        /// Aggregate goodput (Gb/s).
        pub aggregate_gbps: f64,
        /// Queue drops.
        pub drops: u64,
        /// Retransmitted segments.
        pub retx: u64,
        /// Sender energy per gigabyte delivered (J/GB).
        pub energy_per_gb: f64,
    }

    /// The sweep.
    #[derive(Clone, Debug, Serialize, Deserialize)]
    pub struct Result {
        /// One row per fan-in degree.
        pub rows: Vec<Row>,
    }

    /// Run the sweep.
    pub fn run(cfg: &Config) -> Result {
        let mut rows = Vec::new();
        for &n in &cfg.fan_in {
            let out = workload::scenario::run(&Scenario::new(
                CAL_MTU_BYTES,
                (0..n)
                    .map(|_| FlowSpec::bulk(CcaKind::Cubic, cfg.bytes_per_sender))
                    .collect(),
            ))
            .expect("incast completes");
            let total_bytes = (n as u64 * cfg.bytes_per_sender) as f64;
            rows.push(Row {
                n,
                aggregate_gbps: total_bytes * 8.0 / out.window.as_secs_f64() / 1e9,
                drops: out.dropped_pkts,
                retx: out.reports.iter().map(|r| r.retransmits).sum(),
                energy_per_gb: out.sender_energy_j / (total_bytes / 1e9),
            });
        }
        Result { rows }
    }

    /// Render the sweep.
    pub fn render(r: &Result) -> String {
        let mut t = analysis::table::Table::new([
            "senders",
            "aggregate (Gbps)",
            "drops",
            "retx",
            "energy (J/GB)",
        ]);
        for row in &r.rows {
            t.row([
                row.n.to_string(),
                format!("{:.2}", row.aggregate_gbps),
                row.drops.to_string(),
                row.retx.to_string(),
                format!("{:.1}", row.energy_per_gb),
            ]);
        }
        format!(
            "Extension: incast (paper §5)\n\n{t}\n\
             Spreading a fixed aggregate over more synchronized senders\n\
             multiplies burst losses and per-byte energy: each socket idles\n\
             (at 21.49 W) for most of the window — the inverse of the\n\
             paper's consolidation argument.\n"
        )
    }
}

/// §5 — "we invite the community to build a benchmark for a standardized
/// evaluation": the paper's energy methodology applied to the production
/// algorithms it could not measure (Swift, HPCC) alongside the measured
/// reference points.
pub mod modern {
    use super::*;
    use analysis::stats::Summary;

    /// Configuration.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Algorithms to benchmark.
        pub ccas: Vec<CcaKind>,
        /// Bytes per transfer.
        pub bytes: u64,
        /// Seeds.
        pub seeds: Vec<u64>,
    }

    impl Config {
        /// Default: the two §5 production algorithms plus cubic and bbr
        /// as anchors from the measured set.
        pub fn at_scale(scale: crate::scale::Scale) -> Config {
            Config {
                ccas: vec![CcaKind::Swift, CcaKind::Hpcc, CcaKind::Cubic, CcaKind::Bbr],
                bytes: scale.transfer_bytes / 5,
                seeds: scale.seeds(),
            }
        }
    }

    /// One algorithm's benchmark row.
    #[derive(Clone, Debug, Serialize, Deserialize)]
    pub struct Row {
        /// Algorithm name.
        pub cca: String,
        /// Energy (J).
        pub energy_j: Summary,
        /// Power (W).
        pub power_w: Summary,
        /// Goodput (Gb/s).
        pub goodput_gbps: Summary,
        /// Retransmissions.
        pub retx: Summary,
    }

    /// The benchmark.
    #[derive(Clone, Debug, Serialize, Deserialize)]
    pub struct Result {
        /// One row per algorithm.
        pub rows: Vec<Row>,
    }

    /// Run the benchmark.
    pub fn run(cfg: &Config) -> Result {
        let rows = cfg
            .ccas
            .iter()
            .map(|&cca| {
                let cell = crate::matrix::run_cell(cca, CAL_MTU_BYTES, cfg.bytes, &cfg.seeds)
                    .unwrap_or_else(|e| panic!("extension cell failed: {e}"));
                Row {
                    cca: cell.cca,
                    energy_j: cell.energy_j,
                    power_w: cell.power_w,
                    goodput_gbps: cell.goodput_gbps,
                    retx: cell.retx,
                }
            })
            .collect();
        Result { rows }
    }

    /// Render the benchmark table.
    pub fn render(r: &Result) -> String {
        let mut t = analysis::table::Table::new([
            "cca",
            "energy (J)",
            "power (W)",
            "goodput (Gbps)",
            "retx",
        ]);
        for row in &r.rows {
            t.row([
                row.cca.clone(),
                format!("{}", row.energy_j),
                format!("{}", row.power_w),
                format!("{:.3}", row.goodput_gbps.mean),
                format!("{:.0}", row.retx.mean),
            ]);
        }
        format!(
            "Extension: the §5 standardized benchmark, including the
             production algorithms the paper could not measure

{t}"
        )
    }
}

/// §5 — "the sorts of workloads used in production data centers":
/// Poisson arrivals of heavy-tailed flows, all multiplexed on one sender
/// host, at a sweep of offered loads. Per-byte energy falls steeply with
/// load — an idle-dominated host is the most expensive place to move a
/// byte — which is the datacenter-scale version of the paper's
/// consolidation argument.
pub mod production {
    use super::*;
    use workload::arrivals::PoissonWorkload;

    /// Configuration.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Offered loads to sweep (fractions of the link rate).
        pub loads: Vec<f64>,
        /// Flows per run.
        pub flows: usize,
        /// Seed.
        pub seed: u64,
    }

    impl Config {
        /// Default at a given scale.
        pub fn at_scale(scale: crate::scale::Scale) -> Config {
            Config {
                loads: vec![0.2, 0.4, 0.6, 0.8],
                flows: (scale.transfer_bytes / 25_000_000).clamp(40, 400) as usize,
                seed: 1,
            }
        }
    }

    /// One load level's measurements.
    #[derive(Clone, Copy, Debug, Serialize, Deserialize)]
    pub struct Row {
        /// Offered load (fraction of link rate).
        pub load: f64,
        /// Sender energy per gigabyte moved (J/GB).
        pub energy_per_gb: f64,
        /// Mean flow completion time (ms).
        pub mean_fct_ms: f64,
        /// 99th-percentile flow completion time (ms).
        pub p99_fct_ms: f64,
        /// Measurement window (s).
        pub window_s: f64,
    }

    /// The sweep.
    #[derive(Clone, Debug, Serialize, Deserialize)]
    pub struct Result {
        /// One row per offered load.
        pub rows: Vec<Row>,
    }

    /// Run the sweep.
    pub fn run(cfg: &Config) -> Result {
        let mut rows = Vec::new();
        for &load in &cfg.loads {
            let workload = PoissonWorkload::new(load, cfg.flows, CcaKind::Cubic);
            let flows = workload.generate(cfg.seed);
            let total_bytes: u64 = flows.iter().map(|f| f.bytes).sum();
            let out = workload::scenario::run(
                &Scenario::new(CAL_MTU_BYTES, flows)
                    .with_seed(cfg.seed)
                    .with_colocated_senders(),
            )
            .expect("production workload completes");
            let fcts: Vec<f64> = out
                .reports
                .iter()
                .map(|r| r.fct.as_secs_f64() * 1000.0)
                .collect();
            let p99 = analysis::stats::percentile(&fcts, 0.99);
            rows.push(Row {
                load,
                energy_per_gb: out.sender_energy_j / (total_bytes as f64 / 1e9),
                mean_fct_ms: analysis::stats::mean(&fcts),
                p99_fct_ms: p99,
                window_s: out.window.as_secs_f64(),
            });
        }
        Result { rows }
    }

    /// Render the sweep.
    pub fn render(r: &Result) -> String {
        let mut t = analysis::table::Table::new([
            "offered load",
            "energy (J/GB)",
            "mean fct (ms)",
            "p99 fct (ms)",
            "window (s)",
        ]);
        for row in &r.rows {
            t.row([
                format!("{:.0}%", row.load * 100.0),
                format!("{:.1}", row.energy_per_gb),
                format!("{:.2}", row.mean_fct_ms),
                format!("{:.2}", row.p99_fct_ms),
                format!("{:.2}", row.window_s),
            ]);
        }
        format!(
            "Extension: production-style workload (paper §5)\n\
             (Poisson arrivals, web-search-like heavy-tailed sizes, all\n\
             flows multiplexed on one sender host)\n\n{t}\n\
             Per-byte energy falls steeply as offered load rises — idle\n\
             time, not transmission, is what costs — until very high load,\n\
             where burst losses and recovery stalls claw part of the gain\n\
             back and tail completion times grow: the energy/latency\n\
             tension the paper's §5 anticipates.\n"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::units::MB;

    #[test]
    fn multiplexing_collapses_the_savings() {
        let r = multiplexed::run(&multiplexed::Config {
            per_flow_bytes: 125 * MB,
        });
        assert!(
            r.separate_savings_pct > 10.0,
            "separate sockets save: {:+.2}%",
            r.separate_savings_pct
        );
        assert!(
            r.colocated_savings_pct.abs() < 3.0,
            "colocated savings must collapse: {:+.2}%",
            r.colocated_savings_pct
        );
        assert!(multiplexed::render(&r).contains("collapses"));
    }

    #[test]
    fn srpt_beats_fair_on_both_axes() {
        let b = 50 * MB;
        let r = srpt::run(&srpt::Config {
            flow_bytes: vec![b, 2 * b, 4 * b, 8 * b],
        });
        assert!(
            r.fct_improvement_pct > 10.0,
            "SRPT mean fct must improve: {:+.1}%",
            r.fct_improvement_pct
        );
        assert!(
            r.energy_savings_pct > 1.0,
            "SRPT must save energy: {:+.1}%",
            r.energy_savings_pct
        );
    }

    #[test]
    fn modern_algorithms_benchmark_cleanly() {
        let r = modern::run(&modern::Config {
            ccas: vec![CcaKind::Swift, CcaKind::Hpcc, CcaKind::Cubic],
            bytes: 100 * MB,
            seeds: vec![1],
        });
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            assert!(
                row.goodput_gbps.mean > 8.0,
                "{} goodput {:.2}",
                row.cca,
                row.goodput_gbps.mean
            );
            assert!(row.energy_j.mean > 0.0);
        }
        // Swift and HPCC keep queues short: no more retransmissions than
        // cubic's loss-based sawtooth.
        let retx = |name: &str| {
            r.rows
                .iter()
                .find(|x| x.cca == name)
                .expect("row present")
                .retx
                .mean
        };
        assert!(retx("swift") <= retx("cubic"));
        assert!(retx("hpcc") <= retx("cubic"));
        assert!(modern::render(&r).contains("swift"));
    }

    #[test]
    fn production_load_sweep_shows_consolidation_gain() {
        let r = production::run(&production::Config {
            loads: vec![0.2, 0.5],
            flows: 40,
            seed: 3,
        });
        assert_eq!(r.rows.len(), 2);
        let (lo, hi) = (&r.rows[0], &r.rows[1]);
        assert!(
            hi.energy_per_gb < 0.7 * lo.energy_per_gb,
            "per-byte energy must fall with load: {} vs {}",
            lo.energy_per_gb,
            hi.energy_per_gb
        );
        assert!(
            hi.p99_fct_ms > lo.p99_fct_ms,
            "tail completion must degrade with load"
        );
        assert!(production::render(&r).contains("Poisson"));
    }

    #[test]
    fn incast_degrades_with_fan_in() {
        let r = incast::run(&incast::Config {
            fan_in: vec![2, 16],
            bytes_per_sender: 10 * MB,
        });
        assert_eq!(r.rows.len(), 2);
        let (small, big) = (&r.rows[0], &r.rows[1]);
        assert!(
            big.energy_per_gb > small.energy_per_gb,
            "per-byte energy must grow with fan-in: {} vs {}",
            big.energy_per_gb,
            small.energy_per_gb
        );
        assert!(big.retx >= small.retx, "incast bursts lose more");
    }
}
