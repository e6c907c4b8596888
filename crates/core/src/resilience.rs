//! **Resilience suite** — the curated scenario battery with
//! machine-checkable expectations.
//!
//! Every scenario here is built on the [`scenario`] DSL: a topology, a
//! traffic mix, optional chaos on the bottleneck, and typed
//! expectations that evaluate into structured pass/fail reports. The
//! suite answers, in one deterministic verdict matrix, the questions
//! the paper's robustness story depends on:
//!
//! * do flows survive loss, reordering, corruption, and link flaps on
//!   the testbed bottleneck (no aborts, utilization recovers)?
//! * does fairness hold where it should (clean dumbbell) and degrade
//!   where it must (parking lot)?
//! * does the Figure-1 energy ordering — serial cheaper than fair —
//!   hold as a *checked expectation* rather than an eyeballed table?
//!
//! One entry is **negative**: `flap-no-recovery-window` demands
//! recovery within 1 ms of a multi-millisecond outage, which is
//! impossible; the suite only behaves if that scenario *fails* its
//! `RecoveryWithin` check with a measured recovery time. A checker that
//! can't reject anything proves nothing.
//!
//! Thresholds are calibrated at [`Scale::tiny`] (the `verify.sh
//! --scenarios` gate) with wide margins; they hold at larger scales,
//! where longer windows only improve utilization and fairness.

use crate::scale::Scale;
use scenario::prelude::*;
use scenario::suite::run_suite;

/// The suite name (verdict header, artifact filenames).
pub const SUITE_NAME: &str = "resilience";

fn two_bulk(name: &str, bytes: u64, seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::new(name)
        .traffic(Traffic::bulk(CcaKind::Cubic, bytes))
        .traffic(Traffic::bulk(CcaKind::Cubic, bytes))
        .with_seed(seed)
}

/// Build the curated suite at `scale`. Serializing the Figure-1 entry
/// runs its first flow alone (for the hand-off time), so this takes a
/// moment at large scales; everything else is pure spec construction.
pub fn suite(scale: Scale) -> Result<Suite, RunError> {
    let bytes = scale.two_flow_bytes;
    let seed = scale.seeds()[0];
    let mut suite = Suite::new(SUITE_NAME);

    // 1. The clean testbed: two CUBIC flows must share fairly, fill the
    //    pipe, stay abort-free, and spend bounded energy per byte.
    suite.push(
        two_bulk("clean-dumbbell-cubic2", bytes, seed)
            .expect_check(Expectation::AbortFree)
            .expect_check(Expectation::UtilizationFloor { min_fraction: 0.60 })
            .expect_check(Expectation::JainFairnessBand {
                min: 0.90,
                max: 1.0,
            })
            .expect_check(Expectation::EnergyBudget {
                max_j_per_gb: 120.0,
            })
            .build()
            .expect("clean-dumbbell-cubic2 is well-formed"),
    );

    // 2. A mixed application layer: bulk + RPC fan + rate-limited video
    //    sharing one bottleneck. Everything must complete.
    suite.push(
        ScenarioBuilder::new("mixed-bulk-rpc-video")
            .traffic(Traffic::bulk(CcaKind::Cubic, bytes))
            .traffic(Traffic::Rpc {
                cca: CcaKind::Cubic,
                responses: 4,
                resp_bytes: bytes / 32,
                interval: SimDuration::from_millis(1),
                start: SimDuration::from_millis(1),
            })
            .traffic(Traffic::Video {
                cca: CcaKind::Bbr,
                bytes: bytes / 8,
                rate: Rate::from_mbps(200.0),
                start: SimDuration::ZERO,
            })
            .with_seed(seed)
            .expect_check(Expectation::AbortFree)
            // The rate-limited video trails long after the bulk flows
            // finish, idling the bottleneck for most of the window, so
            // the floor only guards against pathological collapse.
            .expect_check(Expectation::UtilizationFloor { min_fraction: 0.10 })
            .build()
            .expect("mixed-bulk-rpc-video is well-formed"),
    );

    // 3. Random loss at 0.1%: the transport absorbs it without aborting
    //    and still keeps the pipe busy.
    suite.push(
        two_bulk("loss-1e3", bytes, seed)
            .chaos(ChaosPhase::Loss { prob: 1e-3 })
            .expect_check(Expectation::AbortFree)
            .expect_check(Expectation::UtilizationFloor { min_fraction: 0.45 })
            .build()
            .expect("loss-1e3 is well-formed"),
    );

    // 4. Reordering + corruption together: dupacks that lie and frames
    //    that arrive broken. Still no aborts.
    suite.push(
        two_bulk("reorder-corrupt", bytes, seed)
            .chaos(ChaosPhase::Reorder {
                prob: 5e-3,
                hold: SimDuration::from_micros(200),
            })
            .chaos(ChaosPhase::Corrupt { prob: 1e-4 })
            .expect_check(Expectation::AbortFree)
            .expect_check(Expectation::UtilizationFloor { min_fraction: 0.40 })
            .build()
            .expect("reorder-corrupt is well-formed"),
    );

    // 5. An outage mid-transfer: the link flaps down for 3 ms; both
    //    flows must re-enter their fair-share band within 500 ms of the
    //    link coming back, and nobody aborts.
    suite.push(
        two_bulk("flap-recovery", bytes, seed)
            .chaos(ChaosPhase::flap(
                SimTime::from_millis(4),
                SimDuration::from_millis(3),
            ))
            .expect_check(Expectation::AbortFree)
            .expect_check(Expectation::RecoveryWithin {
                band_frac: 0.25,
                within: SimDuration::from_millis(500),
            })
            .build()
            .expect("flap-recovery is well-formed"),
    );

    // 6. The Figure-1 headline as a checked expectation: the serial
    //    "full speed, then idle" schedule must beat the fair 50/50
    //    split on window-equalized energy. The schedule is the fair
    //    pair serialized, as in the chaos experiment.
    let fair = two_bulk("fair-split-baseline", bytes, seed)
        .build()
        .expect("fair-split-baseline is well-formed");
    suite.push(
        two_bulk("serial-beats-fair-energy", bytes, seed)
            .baseline(fair)
            .expect_check(Expectation::AbortFree)
            .expect_check(Expectation::SavingsOrdering {
                min_savings_pct: 2.0,
            })
            .build()
            .expect("serial-beats-fair-energy is well-formed")
            .serialized()?,
    );

    // 7. Incast fan-in: one rack of 8 senders, a 3:1 CUBIC:BBR mix.
    suite.push(
        ScenarioBuilder::new("incast-fan-in")
            .topology(Topology::RackGrid {
                racks: 1,
                hosts_per_rack: 8,
            })
            .traffic(Traffic::Mix {
                flows: 16,
                mix: vec![(CcaKind::Cubic, 3), (CcaKind::Bbr, 1)],
                bytes_per_flow: bytes / 16,
            })
            .with_seed(seed)
            .expect_check(Expectation::AbortFree)
            .build()
            .expect("incast-fan-in is well-formed"),
    );

    // 8. The many-flow scale-out shape: two racks of four hosts.
    suite.push(
        ScenarioBuilder::new("rack-grid-mix")
            .topology(Topology::RackGrid {
                racks: 2,
                hosts_per_rack: 4,
            })
            .traffic(Traffic::Mix {
                flows: 16,
                mix: vec![(CcaKind::Cubic, 10), (CcaKind::Bbr, 1)],
                bytes_per_flow: bytes / 16,
            })
            .with_seed(seed)
            .expect_check(Expectation::AbortFree)
            .expect_check(Expectation::EnergyBudget {
                max_j_per_gb: 400.0,
            })
            .build()
            .expect("rack-grid-mix is well-formed"),
    );

    // 9. The parking lot: the through flow crosses two contended hops
    //    against per-hop locals. Unfairness is structural here — the
    //    band explicitly sits *below* perfect fairness, checking the
    //    topology actually bites.
    suite.push(
        ScenarioBuilder::new("parking-lot-through")
            .topology(Topology::ParkingLot { hops: 2 })
            .traffic(Traffic::bulk(CcaKind::Cubic, bytes / 2))
            .traffic(Traffic::bulk(CcaKind::Cubic, bytes / 2))
            .traffic(Traffic::bulk(CcaKind::Cubic, bytes / 2))
            .with_seed(seed)
            .expect_check(Expectation::AbortFree)
            .expect_check(Expectation::JainFairnessBand {
                min: 0.30,
                max: 0.999,
            })
            .build()
            .expect("parking-lot-through is well-formed"),
    );

    // 10. NEGATIVE: recovery from a 3 ms outage within 1 ms is
    //     impossible. This entry behaves only by FAILING its
    //     `RecoveryWithin` check with the real measured recovery time —
    //     the suite's proof that the expectations engine has teeth.
    suite.push_negative(
        two_bulk("flap-no-recovery-window", bytes, seed)
            .chaos(ChaosPhase::flap(
                SimTime::from_millis(4),
                SimDuration::from_millis(3),
            ))
            .expect_check(Expectation::RecoveryWithin {
                band_frac: 0.25,
                within: SimDuration::from_millis(1),
            })
            .build()
            .expect("flap-no-recovery-window is well-formed"),
    );

    Ok(suite)
}

/// Build and run the suite at `scale`.
pub fn run(scale: Scale) -> Result<SuiteOutcome, RunError> {
    Ok(run_suite(&suite(scale)?))
}

/// Render the verdict matrix as a human-readable table.
pub fn render(verdict: &SuiteVerdict) -> String {
    let mut t = analysis::table::Table::new(["scenario", "chaos", "checks", "verdict"]);
    for v in &verdict.scenarios {
        let checks = v
            .expectations
            .iter()
            .map(|r| format!("{}{}", if r.passed { "+" } else { "-" }, r.name.as_str()))
            .collect::<Vec<_>>()
            .join(" ");
        let verdict_str = match (&v.error, v.behaved, v.negative) {
            (Some(err), _, _) => format!("ERROR: {err}"),
            (None, true, false) => "ok".to_string(),
            (None, true, true) => "ok (failed as designed)".to_string(),
            (None, false, _) => "MISBEHAVED".to_string(),
        };
        t.row([
            v.name.clone(),
            if v.chaos.is_empty() {
                "-".to_string()
            } else {
                v.chaos.join(" ")
            },
            checks,
            verdict_str,
        ]);
    }
    format!(
        "Resilience — scenario DSL suite with machine-checked expectations\n\
         (negative entries must fail; everything else must pass)\n\n{t}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tiny suite, run once and shared by every test here.
    fn tiny() -> &'static SuiteOutcome {
        static OUT: std::sync::OnceLock<SuiteOutcome> = std::sync::OnceLock::new();
        OUT.get_or_init(|| run(Scale::tiny()).expect("suite runs"))
    }

    #[test]
    fn tiny_suite_behaves_end_to_end() {
        let out = tiny();
        assert!(out.verdict.all_behaved, "{}", out.verdict.to_json());
        assert_eq!(out.verdict.scenarios.len(), 10);
    }

    #[test]
    fn negative_entry_fails_with_a_measured_recovery_time() {
        let out = tiny();
        let neg = out
            .verdict
            .scenarios
            .iter()
            .find(|v| v.name == "flap-no-recovery-window")
            .expect("negative entry present");
        assert!(neg.negative && !neg.passed && neg.behaved);
        let report = neg
            .expectations
            .iter()
            .find(|r| r.name == "recovery_within")
            .expect("recovery check present");
        assert!(!report.passed);
        // The structured report names the real measured recovery time:
        // longer than the impossible 1 ms deadline, shorter than the run.
        assert!(report.measured > report.target, "{report:?}");
        assert!(report.detail.contains('s'), "{report:?}");
    }

    #[test]
    fn savings_ordering_is_checked_not_eyeballed() {
        let out = tiny();
        let serial = out
            .verdict
            .scenarios
            .iter()
            .find(|v| v.name == "serial-beats-fair-energy")
            .expect("serial entry present");
        let ordering = serial
            .expectations
            .iter()
            .find(|r| r.name == "savings_ordering")
            .expect("ordering check present");
        assert!(ordering.passed, "{ordering:?}");
        assert!(
            ordering.measured > 2.0,
            "serial must save energy over fair: {ordering:?}"
        );
    }

    #[test]
    fn render_lists_every_scenario() {
        let out = tiny();
        let s = render(&out.verdict);
        for v in &out.verdict.scenarios {
            assert!(s.contains(&v.name), "missing {}", v.name);
        }
        assert!(s.contains("failed as designed"));
    }
}
