//! Quickstart: the paper's headline result in ~40 lines.
//!
//! Two CUBIC flows move 10 Gbit each over a shared 10 Gb/s bottleneck.
//! Schedule A splits the link fairly; schedule B runs the flows
//! back-to-back at line rate ("full speed, then idle"). Both finish at
//! the same time — but B uses measurably less energy, because sender
//! power is a concave function of throughput.
//!
//! Run with: `cargo run --release --example quickstart`

use green_envy_repro::cca::CcaKind;
use green_envy_repro::workload::prelude::*;

const TEN_GBIT: u64 = 1_250_000_000; // bytes

fn main() {
    // Schedule A: both flows start together and share the link fairly.
    let pair = Scenario::new(
        9000,
        vec![
            FlowSpec::bulk(CcaKind::Cubic, TEN_GBIT),
            FlowSpec::bulk(CcaKind::Cubic, TEN_GBIT),
        ],
    );
    let fair = workload::scenario::run(&pair).expect("fair schedule completes");

    // Schedule B: flow 2 waits until flow 1, run alone, is done, then
    // takes the whole link.
    let serial = workload::scenario::run(&pair.serialized().expect("solo run completes"))
        .expect("serial schedule completes");

    println!("schedule            window     sender energy");
    println!(
        "fair share          {:>6.3} s   {:>7.1} J",
        fair.window.as_secs_f64(),
        fair.sender_energy_j
    );
    println!(
        "full-speed-then-idle{:>6.3} s   {:>7.1} J",
        serial.window.as_secs_f64(),
        serial.sender_energy_j
    );
    let saving = 100.0 * (fair.sender_energy_j - serial.sender_energy_j) / fair.sender_energy_j;
    println!("\nunfair schedule saves {saving:.1}% (the paper reports ~16%)");
}
