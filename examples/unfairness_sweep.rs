//! Sweep the bandwidth allocation between two flows and watch energy
//! fall as the split becomes less fair (the paper's Figure 1), with your
//! own parameters.
//!
//! Usage: `cargo run --release --example unfairness_sweep -- [per_flow_MB] [mtu]`
//! Defaults: 500 MB per flow at MTU 9000.

use green_envy_repro::greenenvy::fig1;

fn main() {
    let per_flow_mb: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(500);
    let mtu: u32 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(9000);

    let cfg = fig1::Config {
        per_flow_bytes: per_flow_mb * 1_000_000,
        mtu,
        fractions: (11..20).map(|i| i as f64 * 0.05).collect(),
        seeds: vec![1, 2],
    };
    println!("Sweeping two-flow allocations: {per_flow_mb} MB per flow, MTU {mtu}\n");
    let result = fig1::run(&cfg);
    println!("{}", fig1::render(&result));

    // The monotone story in one line.
    let fair = result
        .points
        .iter()
        .find(|p| p.fraction == 0.5)
        .expect("fair point");
    let serial = result
        .points
        .iter()
        .find(|p| p.fraction == 1.0)
        .expect("serial point");
    println!(
        "fair {:.1} J -> fully unfair {:.1} J: {:.1}% saved",
        fair.energy_j.mean, serial.energy_j.mean, result.peak_savings_pct
    );
}
