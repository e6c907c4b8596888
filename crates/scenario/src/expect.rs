//! The expectations engine: typed post-run checks.
//!
//! An [`Expectation`] is a machine-checkable health property of a
//! finished run — "the bottleneck stayed ≥ 60% utilized", "no flow
//! aborted", "throughput re-entered its band within 500 ms of the
//! fault clearing". Each evaluates a runner-agnostic [`Measured`]
//! summary (plus an optional baseline run for comparative checks) into
//! an [`ExpectationReport`]: pass/fail, the measured value, the
//! target, and the margin. Reports are plain serde values, so a suite
//! verdict is a JSON artifact a CI gate can diff byte-for-byte.
//!
//! Evaluation is pure: same `Measured` in, same report out, no clock,
//! no RNG, no I/O. The proptests in `tests/` pin that evaluation is
//! deterministic and independent of expectation ordering.

use energy::calibration;
use netsim::time::{SimDuration, SimTime};
use obs::recovery::time_to_recover;
use serde::{Deserialize, Serialize};
use workload::iperf::FlowReport;

/// A runner-agnostic summary of one finished scenario: every number
/// the expectations engine consumes, extracted uniformly from the
/// dumbbell, parking-lot, and rack-grid runners.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Per-flow reports, in flow order.
    pub reports: Vec<FlowReport>,
    /// Measurement window: start until the last flow's terminal state.
    pub window: SimDuration,
    /// Total sender-side energy over the window (J).
    pub sender_energy_j: f64,
    /// Number of sender hosts (for idle-padding in comparative checks).
    pub n_sender_hosts: usize,
    /// Aggregate bottleneck capacity in Gb/s (across racks for grids).
    pub capacity_gbps: f64,
    /// Per-flow throughput traces (bin width, Gb/s series per flow),
    /// when the scenario ran with tracing.
    pub traces: Option<(SimDuration, Vec<Vec<f64>>)>,
    /// Frames lost to the fault layer.
    pub injected_drops: u64,
    /// Simulated time when the run loop returned.
    pub sim_end: SimTime,
    /// When the scenario's scheduled fault cleared (flap up-edge), if
    /// one was scheduled. Recovery is measured from here.
    pub fault_clear: Option<SimTime>,
}

impl Measured {
    /// Total application bytes acknowledged across all flows.
    pub fn bytes_acked(&self) -> u64 {
        self.reports.iter().map(|r| r.bytes_acked).sum()
    }

    /// Aggregate goodput over the window as a fraction of capacity.
    pub fn utilization(&self) -> f64 {
        let secs = self.window.as_secs_f64();
        if secs <= 0.0 || self.capacity_gbps <= 0.0 {
            return 0.0;
        }
        (self.bytes_acked() as f64 * 8.0) / (secs * self.capacity_gbps * 1e9)
    }

    /// Jain's fairness index over per-flow mean goodputs.
    pub fn jain(&self) -> f64 {
        let rates: Vec<f64> = self.reports.iter().map(|r| r.mean_goodput.gbps()).collect();
        analysis::fairness::jain_index(&rates)
    }

    /// How many flows ended in an aborted state.
    pub fn aborted_flows(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| !r.outcome.is_completed())
            .count()
    }
}

/// Consecutive trace bins a flow must hold the band floor before it
/// counts as recovered — one bin can be a lucky burst.
const RECOVERY_SUSTAIN_BINS: usize = 2;

/// Per-flow time-to-recover in sim-nanoseconds, measured from the
/// fault-clear instant to sustained re-entry above `band_frac` of the
/// flow's fair share. `None` for the whole call when the run carried
/// no traces or no scheduled fault; `None` per flow when that flow
/// never re-entered the band. Shared between the `RecoveryWithin`
/// evaluator and the suite's histogram export.
pub fn recovery_times_ns(m: &Measured, band_frac: f64) -> Option<Vec<Option<u64>>> {
    let (bin, traces) = m.traces.as_ref()?;
    let clear = m.fault_clear?;
    let n = traces.len().max(1);
    let floor = band_frac * m.capacity_gbps / n as f64;
    Some(
        traces
            .iter()
            .map(|series| {
                time_to_recover(
                    series,
                    bin.as_nanos(),
                    clear.as_nanos(),
                    floor,
                    RECOVERY_SUSTAIN_BINS,
                )
            })
            .collect(),
    )
}

/// Window-equalized sender energies for a comparative check: both runs
/// padded to the longer window with completed hosts idling at base
/// power (idle package + fan at zero load), the Fig-1 methodology
/// ([`calibration::pad_to_common_window`]). Returns `(self_j, baseline_j)`.
pub fn equalized_energy_j(m: &Measured, baseline: &Measured) -> (f64, f64) {
    let run = |x: &Measured| {
        (
            x.sender_energy_j,
            x.window.as_secs_f64(),
            x.n_sender_hosts as f64,
        )
    };
    let (_, padded) = calibration::pad_to_common_window(&[run(m), run(baseline)], 0.0);
    (padded[0], padded[1])
}

/// One typed post-run check.
#[derive(Clone, Debug, PartialEq)]
pub enum Expectation {
    /// Aggregate goodput must be at least `min_fraction` of bottleneck
    /// capacity over the measurement window.
    UtilizationFloor {
        /// Minimum utilization as a fraction of capacity in `[0, 1]`.
        min_fraction: f64,
    },
    /// Jain's fairness index over per-flow mean goodputs must land in
    /// `[min, max]`. (An *unfairness* scenario asserts a low band.)
    JainFairnessBand {
        /// Lower band edge.
        min: f64,
        /// Upper band edge.
        max: f64,
    },
    /// Sender energy per acknowledged gigabyte must not exceed the
    /// budget (scale-invariant, unlike raw joules).
    EnergyBudget {
        /// Maximum J per acknowledged GB.
        max_j_per_gb: f64,
    },
    /// Every flow must reach `Completed`; any abort fails.
    AbortFree,
    /// After the scheduled fault clears, every flow's throughput must
    /// re-enter `band_frac` of its fair share within `within`.
    /// Requires traces and a flap phase (the builder enforces both).
    RecoveryWithin {
        /// Band floor as a fraction of the per-flow fair share.
        band_frac: f64,
        /// Recovery deadline after the fault clears.
        within: SimDuration,
    },
    /// The paper's unfair-is-greener invariant: this run's
    /// window-equalized sender energy must undercut the baseline run's
    /// by at least `min_savings_pct` percent. Requires a baseline.
    SavingsOrdering {
        /// Minimum savings over the baseline, in percent.
        min_savings_pct: f64,
    },
}

/// The structured outcome of one expectation against one run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExpectationReport {
    /// Which check (stable machine name, e.g. `utilization_floor`).
    pub name: String,
    /// Human-readable account of what was measured against what.
    pub detail: String,
    /// Did the run satisfy the expectation?
    pub passed: bool,
    /// The measured value, in the expectation's natural unit.
    pub measured: f64,
    /// The target the measurement was compared against.
    pub target: f64,
    /// Signed distance from the target in the passing direction
    /// (positive = passing with room, negative = failing by this much).
    pub margin: f64,
}

impl Expectation {
    /// Stable machine name for verdicts and metrics labels.
    pub fn name(&self) -> &'static str {
        match self {
            Expectation::UtilizationFloor { .. } => "utilization_floor",
            Expectation::JainFairnessBand { .. } => "jain_fairness_band",
            Expectation::EnergyBudget { .. } => "energy_budget",
            Expectation::AbortFree => "abort_free",
            Expectation::RecoveryWithin { .. } => "recovery_within",
            Expectation::SavingsOrdering { .. } => "savings_ordering",
        }
    }

    /// Does this check compare against a baseline run?
    pub fn needs_baseline(&self) -> bool {
        matches!(self, Expectation::SavingsOrdering { .. })
    }

    /// Does this check need throughput traces and a scheduled fault?
    pub fn needs_recovery_instrumentation(&self) -> bool {
        matches!(self, Expectation::RecoveryWithin { .. })
    }

    /// Evaluate against a finished run. Pure: no clock, no RNG, no I/O.
    pub fn evaluate(&self, m: &Measured, baseline: Option<&Measured>) -> ExpectationReport {
        let name = self.name().to_string();
        match *self {
            Expectation::UtilizationFloor { min_fraction } => {
                let u = m.utilization();
                ExpectationReport {
                    name,
                    detail: format!(
                        "bottleneck utilization {:.1}% of {} Gb/s over {} (floor {:.1}%)",
                        u * 100.0,
                        m.capacity_gbps,
                        m.window,
                        min_fraction * 100.0
                    ),
                    passed: u >= min_fraction,
                    measured: u,
                    target: min_fraction,
                    margin: u - min_fraction,
                }
            }
            Expectation::JainFairnessBand { min, max } => {
                let j = m.jain();
                ExpectationReport {
                    name,
                    detail: format!(
                        "Jain index {:.4} over {} flows (band [{:.2}, {:.2}])",
                        j,
                        m.reports.len(),
                        min,
                        max
                    ),
                    passed: (min..=max).contains(&j),
                    measured: j,
                    target: min,
                    margin: (j - min).min(max - j),
                }
            }
            Expectation::EnergyBudget { max_j_per_gb } => {
                let gb = m.bytes_acked() as f64 / 1e9;
                if gb <= 0.0 {
                    return ExpectationReport {
                        name,
                        detail: "no bytes acknowledged: energy per GB is undefined".to_string(),
                        passed: false,
                        measured: 0.0,
                        target: max_j_per_gb,
                        margin: -max_j_per_gb,
                    };
                }
                let j_per_gb = m.sender_energy_j / gb;
                ExpectationReport {
                    name,
                    detail: format!(
                        "{j_per_gb:.1} J per acked GB ({:.1} J over {gb:.3} GB; budget {max_j_per_gb} J/GB)",
                        m.sender_energy_j
                    ),
                    passed: j_per_gb <= max_j_per_gb,
                    measured: j_per_gb,
                    target: max_j_per_gb,
                    margin: max_j_per_gb - j_per_gb,
                }
            }
            Expectation::AbortFree => {
                let aborted = m.aborted_flows();
                ExpectationReport {
                    name,
                    detail: format!("{aborted} of {} flows aborted", m.reports.len()),
                    passed: aborted == 0,
                    measured: aborted as f64,
                    target: 0.0,
                    margin: -(aborted as f64),
                }
            }
            Expectation::RecoveryWithin { band_frac, within } => {
                self.evaluate_recovery(name, m, band_frac, within)
            }
            Expectation::SavingsOrdering { min_savings_pct } => {
                let Some(base) = baseline else {
                    return ExpectationReport {
                        name,
                        detail: "savings_ordering needs a baseline run; none was attached"
                            .to_string(),
                        passed: false,
                        measured: 0.0,
                        target: min_savings_pct,
                        margin: -min_savings_pct,
                    };
                };
                let (e, base_e) = equalized_energy_j(m, base);
                let savings = if base_e > 0.0 {
                    100.0 * (base_e - e) / base_e
                } else {
                    0.0
                };
                ExpectationReport {
                    name,
                    detail: format!(
                        "{savings:.1}% savings over baseline ({e:.1} J vs {base_e:.1} J \
                         window-equalized; floor {min_savings_pct}%)"
                    ),
                    passed: savings >= min_savings_pct,
                    measured: savings,
                    target: min_savings_pct,
                    margin: savings - min_savings_pct,
                }
            }
        }
    }

    fn evaluate_recovery(
        &self,
        name: String,
        m: &Measured,
        band_frac: f64,
        within: SimDuration,
    ) -> ExpectationReport {
        let target = within.as_secs_f64();
        let Some(times) = recovery_times_ns(m, band_frac) else {
            return ExpectationReport {
                name,
                detail: "recovery_within needs throughput traces and a scheduled fault".to_string(),
                passed: false,
                measured: 0.0,
                target,
                margin: -target,
            };
        };
        // A flow that never re-entered the band is charged the whole
        // observed span from the clear to the end of the run — the
        // honest lower bound on its recovery time.
        let clear = m.fault_clear.unwrap_or(SimTime::ZERO);
        let observed_ns = m.sim_end.saturating_since(clear.min(m.sim_end)).as_nanos();
        let mut worst_ns = 0u64;
        let mut unrecovered = 0usize;
        for t in &times {
            match t {
                Some(ns) => worst_ns = worst_ns.max(*ns),
                None => {
                    unrecovered += 1;
                    worst_ns = worst_ns.max(observed_ns);
                }
            }
        }
        let measured = worst_ns as f64 / 1e9;
        let passed = unrecovered == 0 && worst_ns <= within.as_nanos();
        let detail = if unrecovered > 0 {
            format!(
                "{unrecovered} of {} flows never re-entered {:.0}% of fair share: \
                 {measured:.4}s observed after the fault cleared at {clear} \
                 without recovery (deadline {within})",
                times.len(),
                band_frac * 100.0
            )
        } else {
            format!(
                "slowest flow back inside {:.0}% of fair share {measured:.4}s \
                 after the fault cleared at {clear} (deadline {within})",
                band_frac * 100.0
            )
        };
        ExpectationReport {
            name,
            detail,
            passed,
            measured,
            target,
            margin: target - measured,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca::CcaKind;
    use netsim::ids::FlowId;
    use netsim::units::average_rate;
    use transport::stats::{AbortReason, FlowOutcome};

    /// A hand-built flow report: `gbps` mean goodput over `secs`.
    fn report(flow: u32, gbps: f64, secs: f64, completed: bool) -> FlowReport {
        let fct = SimDuration::from_secs_f64(secs);
        let bytes = (gbps * 1e9 / 8.0 * secs) as u64;
        FlowReport {
            flow: FlowId::from_raw(flow),
            cca: CcaKind::Cubic,
            outcome: if completed {
                FlowOutcome::Completed
            } else {
                FlowOutcome::Aborted(AbortReason::RetriesExhausted)
            },
            bytes,
            bytes_acked: bytes,
            started_at: SimTime::ZERO,
            completed_at: SimTime::from_secs_f64(secs),
            fct,
            mean_goodput: average_rate(bytes, fct),
            retransmits: 0,
            rtos: 0,
            segs_sent: bytes / 1460,
            acks_processed: bytes / 2920,
            compute_cost_factor: 1.0,
        }
    }

    /// Two completed 4 Gb/s flows over 1 s on a 10 Gb/s bottleneck.
    fn two_flow_measured() -> Measured {
        Measured {
            reports: vec![report(0, 4.0, 1.0, true), report(1, 4.0, 1.0, true)],
            window: SimDuration::from_secs(1),
            sender_energy_j: 60.0,
            n_sender_hosts: 2,
            capacity_gbps: 10.0,
            traces: None,
            injected_drops: 0,
            sim_end: SimTime::from_secs(1),
            fault_clear: None,
        }
    }

    //= DESIGN.md#inv-UtilizationFloor
    #[test]
    fn utilization_floor_pass_fail_boundary() {
        let m = two_flow_measured(); // 8 Gb/s of 10 => 0.8
        let pass = Expectation::UtilizationFloor { min_fraction: 0.7 }.evaluate(&m, None);
        assert!(pass.passed);
        assert!((pass.measured - 0.8).abs() < 1e-9);
        assert!(pass.margin > 0.0);

        let fail = Expectation::UtilizationFloor { min_fraction: 0.9 }.evaluate(&m, None);
        assert!(!fail.passed);
        assert!(fail.margin < 0.0);

        // Boundary: exactly at the floor passes (>=).
        let edge = Expectation::UtilizationFloor {
            min_fraction: pass.measured,
        }
        .evaluate(&m, None);
        assert!(edge.passed);
    }

    //= DESIGN.md#inv-JainFairnessBand
    #[test]
    fn jain_band_pass_fail() {
        let m = two_flow_measured(); // equal rates => jain == 1
        assert!(
            Expectation::JainFairnessBand { min: 0.9, max: 1.0 }
                .evaluate(&m, None)
                .passed
        );
        // An unfairness assertion: jain == 1 must FAIL a low band.
        let low = Expectation::JainFairnessBand { min: 0.0, max: 0.7 }.evaluate(&m, None);
        assert!(!low.passed);
        assert!((low.measured - 1.0).abs() < 1e-9);

        let mut skewed = two_flow_measured();
        skewed.reports = vec![report(0, 7.5, 1.0, true), report(1, 0.5, 1.0, true)];
        let j = Expectation::JainFairnessBand { min: 0.9, max: 1.0 }.evaluate(&skewed, None);
        assert!(!j.passed, "skewed rates must fail a tight band: {j:?}");
    }

    //= DESIGN.md#inv-EnergyBudget
    #[test]
    fn energy_budget_pass_fail_and_empty() {
        let m = two_flow_measured(); // 60 J over 1 GB => 60 J/GB
        assert!(
            Expectation::EnergyBudget {
                max_j_per_gb: 100.0
            }
            .evaluate(&m, None)
            .passed
        );
        let fail = Expectation::EnergyBudget { max_j_per_gb: 50.0 }.evaluate(&m, None);
        assert!(!fail.passed);
        assert!((fail.measured - 60.0).abs() < 0.1);

        let mut empty = two_flow_measured();
        for r in &mut empty.reports {
            r.bytes_acked = 0;
        }
        let und = Expectation::EnergyBudget {
            max_j_per_gb: 1000.0,
        }
        .evaluate(&empty, None);
        assert!(!und.passed, "zero acked bytes can never satisfy a budget");
    }

    //= DESIGN.md#inv-AbortFree
    #[test]
    fn abort_free_counts_aborts() {
        let m = two_flow_measured();
        assert!(Expectation::AbortFree.evaluate(&m, None).passed);
        let mut bad = two_flow_measured();
        bad.reports[1] = report(1, 1.0, 0.5, false);
        let r = Expectation::AbortFree.evaluate(&bad, None);
        assert!(!r.passed);
        assert_eq!(r.measured, 1.0);
    }

    //= DESIGN.md#inv-RecoveryWithin
    #[test]
    fn recovery_within_measures_from_the_clear() {
        let mut m = two_flow_measured();
        // 10 ms bins; fault clears at 20 ms; both flows are dead for two
        // bins after the clear, then back at full rate.
        let series = vec![
            vec![4.0, 0.0, 0.1, 0.1, 4.0, 4.0, 4.0, 4.0],
            vec![4.0, 0.0, 0.1, 0.1, 0.1, 4.0, 4.0, 4.0],
        ];
        m.traces = Some((SimDuration::from_millis(10), series));
        m.fault_clear = Some(SimTime::from_millis(20));
        m.sim_end = SimTime::from_millis(80);
        // Fair share = 5 Gb/s; band 0.5 => floor 2.5. Flow 0 recovers in
        // bins 4-5 (end 50 ms => 30 ms after clear); flow 1 in bins 5-6
        // (end 60 ms => 40 ms after clear). Worst = 40 ms.
        let r = Expectation::RecoveryWithin {
            band_frac: 0.5,
            within: SimDuration::from_millis(100),
        }
        .evaluate(&m, None);
        assert!(r.passed, "{r:?}");
        assert!((r.measured - 0.040).abs() < 1e-9, "{r:?}");

        let tight = Expectation::RecoveryWithin {
            band_frac: 0.5,
            within: SimDuration::from_millis(35),
        }
        .evaluate(&m, None);
        assert!(!tight.passed, "40 ms recovery must miss a 35 ms deadline");
    }

    #[test]
    fn recovery_never_reentering_charges_the_observed_span() {
        let mut m = two_flow_measured();
        m.traces = Some((
            SimDuration::from_millis(10),
            vec![vec![4.0, 0.0, 0.1, 0.1, 0.1, 0.1]],
        ));
        m.fault_clear = Some(SimTime::from_millis(20));
        m.sim_end = SimTime::from_millis(60);
        let r = Expectation::RecoveryWithin {
            band_frac: 0.5,
            within: SimDuration::from_millis(10),
        }
        .evaluate(&m, None);
        assert!(!r.passed);
        // 40 ms observed after the clear, never recovered.
        assert!((r.measured - 0.040).abs() < 1e-9, "{r:?}");
        assert!(r.detail.contains("never re-entered"), "{}", r.detail);
    }

    #[test]
    fn recovery_without_instrumentation_fails_closed() {
        let m = two_flow_measured();
        let r = Expectation::RecoveryWithin {
            band_frac: 0.5,
            within: SimDuration::from_millis(100),
        }
        .evaluate(&m, None);
        assert!(!r.passed);
        assert!(r.detail.contains("needs throughput traces"));
    }

    //= DESIGN.md#inv-SavingsOrdering
    #[test]
    fn savings_ordering_equalizes_windows() {
        // Baseline: 100 J over 2 s. Self: 80 J over 1 s, padded by
        // 1 s of idle power on both hosts.
        let mut base = two_flow_measured();
        base.sender_energy_j = 100.0;
        base.window = SimDuration::from_secs(2);
        let mut m = two_flow_measured();
        m.sender_energy_j = 80.0;
        m.window = SimDuration::from_secs(1);

        let (e, base_e) = equalized_energy_j(&m, &base);
        assert_eq!(base_e, 100.0, "longer window gets no padding");
        assert!(e > 80.0, "shorter window is padded with idle energy");

        let expected = 100.0 * (base_e - e) / base_e;
        let r = Expectation::SavingsOrdering {
            min_savings_pct: 2.0,
        }
        .evaluate(&m, Some(&base));
        assert!((r.measured - expected).abs() < 1e-9);

        // Without a baseline the check fails closed.
        let none = Expectation::SavingsOrdering {
            min_savings_pct: 2.0,
        }
        .evaluate(&m, None);
        assert!(!none.passed);
        assert!(none.detail.contains("baseline"));
    }

    #[test]
    fn reports_serialize_round_trip() {
        let m = two_flow_measured();
        let r = Expectation::UtilizationFloor { min_fraction: 0.5 }.evaluate(&m, None);
        let json = serde_json::to_string(&r).expect("serializes");
        let back: ExpectationReport = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, r);
    }
}
