//! End-to-end checks that the measured (simulated-RAPL) energy agrees
//! with the analytic model it was calibrated from.

use green_envy_repro::cca::CcaKind;
use green_envy_repro::energy::prelude::*;
use green_envy_repro::netsim::units::Rate;
use green_envy_repro::workload::prelude::*;

const MB: u64 = 1_000_000;

/// A smoothly throttled sender's measured power lands on the analytic
/// curve across the whole range.
#[test]
fn measured_power_matches_analytic_curve() {
    let model = reference_host_model();
    let ctx = HostContext {
        background_util: 0.0,
        cc_cost_per_ack_j: cc_cost_per_ack_ref_j(),
    };
    for gbps in [1.0, 3.0, 5.0, 8.0] {
        let bytes = ((gbps * 1e9 / 8.0) * 0.1) as u64;
        let out = workload::scenario::run(&Scenario::new(
            9000,
            vec![FlowSpec::bulk(CcaKind::Cubic, bytes.max(10 * MB))
                .with_rate_limit(Rate::from_gbps(gbps))],
        ))
        .unwrap();
        let measured = out.average_sender_power_w();
        let analytic = model.sender_power_at(gbps, 9000, 0.5, ctx);
        assert!(
            (measured - analytic).abs() < 0.7,
            "{gbps} Gbps: measured {measured:.2} W vs analytic {analytic:.2} W"
        );
    }
}

/// Energy scales ~linearly with transfer size at a fixed rate (the
/// justification for running the campaign below 50 GB).
#[test]
fn energy_is_linear_in_transfer_size() {
    let run = |bytes: u64| {
        workload::scenario::run(&Scenario::new(
            9000,
            vec![FlowSpec::bulk(CcaKind::Cubic, bytes)],
        ))
        .unwrap()
        .sender_energy_j
    };
    let e1 = run(100 * MB);
    let e2 = run(200 * MB);
    let ratio = e2 / e1;
    assert!(
        (1.9..2.1).contains(&ratio),
        "doubling the bytes should double the energy: ratio {ratio:.3}"
    );
}

/// Background load raises total energy but *attenuates* the network
/// increment (the §4.2 coupling), end to end.
#[test]
fn background_load_attenuates_network_energy() {
    // Load changes power, not packets: simulate the transfer once and
    // meter it under each load.
    let sim = simulate(&Scenario::new(
        9000,
        vec![FlowSpec::bulk(CcaKind::Cubic, 200 * MB)],
    ))
    .unwrap();
    let energy = |load: f64| sim.meter(StressLoad::fraction(load)).sender_energy_j;
    // Network increment: active energy minus base-power energy over the
    // same window.
    let w = sim.window.as_secs_f64();
    let net_idle = energy(0.0) - P_IDLE_W * w;
    let net_loaded = energy(0.75) - (P_IDLE_W + reference_fan().watts(0.75)) * w;
    assert!(
        net_loaded < 0.2 * net_idle,
        "network energy must attenuate on a busy host: {net_loaded:.2} vs {net_idle:.2}"
    );
}

/// The receiver's energy is reported separately and is of the same order
/// as a sender's (it processes the same volume).
#[test]
fn receiver_energy_is_reported() {
    let out = workload::scenario::run(&Scenario::new(
        9000,
        vec![FlowSpec::bulk(CcaKind::Cubic, 100 * MB)],
    ))
    .unwrap();
    assert!(out.receiver_energy_j > 0.0);
    let ratio = out.receiver_energy_j / out.sender_energy_j;
    assert!(
        (0.5..1.5).contains(&ratio),
        "receiver/sender energy ratio {ratio:.2}"
    );
}

/// RAPL quantization: reported Joules differ from the model total by at
/// most one counter unit per host.
#[test]
fn rapl_quantization_is_tiny() {
    let out = workload::scenario::run(&Scenario::new(
        9000,
        vec![FlowSpec::bulk(CcaKind::Cubic, 50 * MB)],
    ))
    .unwrap();
    for reading in &out.sender_readings {
        assert!(
            (reading.joules - reading.breakdown.total_j()).abs() <= DEFAULT_UNIT_J,
            "quantization error exceeds one RAPL unit"
        );
    }
}

/// The energy breakdown's parts sum to its total for a real run.
#[test]
fn breakdown_is_itemized_consistently() {
    let out = workload::scenario::run(&Scenario::new(
        9000,
        vec![FlowSpec::bulk(CcaKind::Cubic, 50 * MB)],
    ))
    .unwrap();
    let b = out.sender_readings[0].breakdown;
    let sum = b.idle_j + b.compute_j + b.curve_j + b.pkt_j + b.cc_j + b.retx_j;
    assert!((sum - b.total_j()).abs() < 1e-9);
    assert!(b.idle_j > 0.0 && b.curve_j > 0.0 && b.pkt_j > 0.0 && b.cc_j > 0.0);
    assert_eq!(b.compute_j, 0.0, "no background load configured");
}
