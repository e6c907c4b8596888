//! Cross-crate integration tests for the paper's headline claims, at
//! reduced scale so `cargo test` stays quick in debug builds.

use green_envy_repro::cca::CcaKind;
use green_envy_repro::greenenvy::{fig1, fig2, theorem};
use green_envy_repro::workload::prelude::*;

const MB: u64 = 1_000_000;

/// §4.1 / Figure 1: the fair allocation is the least energy-efficient;
/// serial "full speed, then idle" saves on the order of the paper's 16%.
#[test]
fn unfairness_saves_energy() {
    let cfg = fig1::Config {
        per_flow_bytes: 125 * MB,
        mtu: 9000,
        fractions: vec![0.7, 0.9],
        seeds: vec![11],
        background: StressLoad::IDLE,
    };
    let result = fig1::run(&cfg);
    // Savings must increase monotonically with unfairness.
    let mut last = -1.0;
    for p in result.points.iter().filter(|p| p.fraction >= 0.5) {
        assert!(
            p.savings_pct.mean >= last - 0.2,
            "savings must not regress with unfairness: {:?}",
            result.points
        );
        last = p.savings_pct.mean;
    }
    assert!(
        (11.0..18.0).contains(&result.peak_savings_pct),
        "peak savings {:.1}% should be near the paper's 16%",
        result.peak_savings_pct
    );
}

/// §4.1 / Figure 2: measured sender power is strictly concave in
/// throughput and reproduces the calibrated RAPL points.
#[test]
fn power_curve_is_concave_through_the_papers_points() {
    let cfg = fig2::Config {
        rates_gbps: vec![1.0, 2.5, 5.0, 7.5, 10.0],
        duration_s: 0.1,
        mtu: 9000,
        seeds: vec![5],
        background: StressLoad::IDLE,
    };
    let r = fig2::run(&cfg);
    assert!((r.idle_w - 21.49).abs() < 1e-9);
    let p5 = r.points.iter().find(|p| p.target_gbps == 5.0).unwrap();
    let p10 = r.points.iter().find(|p| p.target_gbps == 10.0).unwrap();
    assert!(
        (p5.power_w.mean - 34.23).abs() < 0.5,
        "P(5)={:?}",
        p5.power_w
    );
    assert!(
        (p10.power_w.mean - 35.82).abs() < 0.8,
        "P(10)={:?}",
        p10.power_w
    );
    assert!(r.is_concave(0.3));
}

/// Theorem 1 end-to-end: the fair allocation maximizes power for the
/// calibrated curve and for random strictly concave instances.
#[test]
fn theorem_1_holds() {
    let r = theorem::run(500);
    assert_eq!(r.violations, 0);
    for row in &r.rows {
        assert!(row.power_w < row.fair_power_w);
    }
}

/// §4.4: jumbo frames reduce energy for the flagship CCA.
#[test]
fn jumbo_frames_save_energy() {
    let small = workload::scenario::run(&Scenario::new(
        1500,
        vec![FlowSpec::bulk(CcaKind::Cubic, 100 * MB)],
    ))
    .unwrap();
    let jumbo = workload::scenario::run(&Scenario::new(
        9000,
        vec![FlowSpec::bulk(CcaKind::Cubic, 100 * MB)],
    ))
    .unwrap();
    let saving = (small.sender_energy_j - jumbo.sender_energy_j) / small.sender_energy_j;
    assert!(
        (0.10..0.40).contains(&saving),
        "MTU 1500 -> 9000 saving {:.1}% should be in the paper's band",
        saving * 100.0
    );
}

/// The quickstart scenario end-to-end: the paper's §4.1 worked example.
#[test]
fn full_speed_then_idle_beats_fair_share() {
    let bytes = 125 * MB;
    let pair = Scenario::new(
        9000,
        vec![
            FlowSpec::bulk(CcaKind::Cubic, bytes),
            FlowSpec::bulk(CcaKind::Cubic, bytes),
        ],
    );
    let fair = workload::scenario::run(&pair).unwrap();
    let serial = workload::scenario::run(&pair.serialized().unwrap()).unwrap();

    // Same data, comparable windows, less energy.
    let window_ratio = serial.window.as_secs_f64() / fair.window.as_secs_f64();
    assert!((0.9..1.1).contains(&window_ratio), "windows comparable");
    assert!(serial.sender_energy_j < 0.93 * fair.sender_energy_j);
}
