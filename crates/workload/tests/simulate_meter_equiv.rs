//! `scenario::run` is `simulate` + metering under the scenario's own
//! background load. These tests pin the contract that makes Figure 4's
//! sharing sound: one simulation metered under any load is bit-equal to
//! a fresh `run` at that load, metering is repeatable, and nothing the
//! packet-level phase reports depends on the load.

use cca::CcaKind;
use netsim::fault::FaultSpec;
use netsim::units::{Rate, MB};
use workload::prelude::*;
use workload::scenario::EnergyMeasurement;

const LOADS: [f64; 4] = [0.0, 0.25, 0.5, 0.75];

fn scenarios() -> Vec<(&'static str, Scenario)> {
    let two_flows = || {
        vec![
            FlowSpec::bulk(CcaKind::Cubic, 40 * MB),
            FlowSpec::bulk(CcaKind::Reno, 40 * MB),
        ]
    };
    vec![
        (
            "one throttled flow",
            Scenario::new(
                9000,
                vec![FlowSpec::bulk(CcaKind::Cubic, 50 * MB).with_rate_limit(Rate::from_gbps(4.0))],
            )
            .with_seed(3),
        ),
        (
            "two flows on separate hosts",
            Scenario::new(9000, two_flows()).with_seed(5),
        ),
        (
            "colocated senders",
            Scenario::new(9000, two_flows())
                .with_seed(5)
                .with_colocated_senders(),
        ),
        (
            "faulted bottleneck",
            Scenario::new(3000, two_flows())
                .with_seed(11)
                .with_fault(FaultSpec::random_loss(0.01)),
        ),
    ]
}

/// Every float of a measurement's readings and sums, as bits.
fn energy_bits(
    sender_energy_j: f64,
    readings: &[energy::meter::EnergyReading],
    receiver_energy_j: f64,
) -> Vec<u64> {
    let mut bits = vec![sender_energy_j.to_bits(), receiver_energy_j.to_bits()];
    for r in readings {
        let b = r.breakdown;
        bits.push(r.host.index() as u64);
        bits.extend(
            [
                r.joules,
                b.idle_j,
                b.compute_j,
                b.curve_j,
                b.pkt_j,
                b.cc_j,
                b.retx_j,
                b.window_s,
            ]
            .map(f64::to_bits),
        );
    }
    bits
}

fn measurement_bits(m: &EnergyMeasurement) -> Vec<u64> {
    energy_bits(m.sender_energy_j, &m.sender_readings, m.receiver_energy_j)
}

fn outcome_bits(out: &ScenarioOutcome) -> Vec<u64> {
    energy_bits(
        out.sender_energy_j,
        &out.sender_readings,
        out.receiver_energy_j,
    )
}

/// An outcome's readings, sums and every element of its per-host power
/// series (rendered by `finish`, not by `meter`), as bits.
fn finished_bits(out: &ScenarioOutcome) -> Vec<u64> {
    let mut bits = outcome_bits(out);
    for host in &out.sender_power_series_w {
        bits.push(host.len() as u64);
        bits.extend(host.iter().map(|w| w.to_bits()));
    }
    bits
}

#[test]
fn one_simulation_metered_per_load_equals_a_run_per_load() {
    for (name, scenario) in scenarios() {
        let sim = simulate(&scenario).expect("simulation completes");
        let mut last = None;
        for load in LOADS.map(StressLoad::fraction) {
            // `run` simulates with the load set on the scenario; `sim` never
            // saw it. Equality means `simulate` does not read the field.
            let out = run(&scenario.clone().with_background_load(load)).expect("run completes");
            assert_eq!(
                measurement_bits(&sim.meter(load)),
                outcome_bits(&out),
                "{name} @ {load:?}: metering the shared simulation differs from a fresh run"
            );
            // The packet-level phase is load-independent.
            assert_eq!(
                format!("{:?}", sim.reports),
                format!("{:?}", out.reports),
                "{name}"
            );
            assert_eq!(sim.window, out.window, "{name}");
            assert_eq!(sim.sim_end, out.sim_end, "{name}");
            assert_eq!(sim.run_outcome, out.run_outcome, "{name}");
            assert_eq!(
                format!("{:?}", sim.engine),
                format!("{:?}", out.engine),
                "{name}"
            );
            let stats = sim.net_stats;
            assert_eq!(
                [
                    stats.dropped_pkts,
                    stats.marked_pkts,
                    stats.injected_drops,
                    stats.injected_corrupts,
                    stats.injected_dups,
                    stats.injected_reorders,
                    stats.originated_pkts,
                    stats.delivered_pkts,
                    stats.corrupt_discards,
                ],
                [
                    out.dropped_pkts,
                    out.marked_pkts,
                    out.injected_drops,
                    out.injected_corrupts,
                    out.injected_dups,
                    out.injected_reorders,
                    out.originated_pkts,
                    out.delivered_pkts,
                    out.corrupt_discards,
                ],
                "{name}"
            );
            last = Some((load, out));
        }
        // The power series is rendered where the outcome is assembled:
        // finishing the shared simulation under a load it never saw must
        // give the fresh run's series too, element for element.
        let (load, out) = last.expect("LOADS is not empty");
        let finished = sim.finish(load);
        assert!(finished.sender_power_series_w.iter().all(|s| !s.is_empty()));
        assert_eq!(finished_bits(&finished), finished_bits(&out), "{name}");
    }
}

#[test]
fn metering_is_idempotent_and_order_independent() {
    for (name, scenario) in scenarios() {
        let sim = simulate(&scenario).expect("simulation completes");
        let first: Vec<_> = LOADS
            .iter()
            .map(|&l| measurement_bits(&sim.meter(StressLoad::fraction(l))))
            .collect();
        let again: Vec<_> = LOADS
            .iter()
            .rev()
            .map(|&l| measurement_bits(&sim.meter(StressLoad::fraction(l))))
            .collect();
        for (a, b) in first.iter().zip(again.iter().rev()) {
            assert_eq!(a, b, "{name}: a second metering moved a bit");
        }
        assert_ne!(first[0], first[3], "{name}: load must change the energy");
    }
}

#[test]
fn an_observed_run_meters_like_a_plain_one() {
    let (_, scenario) = scenarios().swap_remove(1);
    let load = StressLoad::fraction(0.5);
    let plain = simulate(&scenario).expect("plain simulation completes");
    let observed = run(&scenario.with_observability().with_background_load(load))
        .expect("observed run completes");
    assert_eq!(
        measurement_bits(&plain.meter(load)),
        outcome_bits(&observed)
    );
    assert_eq!(finished_bits(&plain.finish(load)), finished_bits(&observed));
    assert!(observed.obs.is_some(), "run still finalizes the report");
}
