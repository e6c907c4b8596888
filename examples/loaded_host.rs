//! How background compute load changes the energy story (the paper's
//! §4.2): loaded hosts draw far more base power, and the *marginal*
//! cost of network traffic shrinks — so scheduling tricks save less, in
//! relative terms, on busy machines.
//!
//! Usage: `cargo run --release --example loaded_host -- [per_flow_MB]`

use green_envy_repro::analysis::table::Table;
use green_envy_repro::cca::CcaKind;
use green_envy_repro::energy::calibration::idle_tail_j;
use green_envy_repro::workload::prelude::*;

fn main() {
    let per_flow_mb: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(250);
    let bytes = per_flow_mb * 1_000_000;

    let pair = Scenario::new(
        9000,
        vec![
            FlowSpec::bulk(CcaKind::Cubic, bytes),
            FlowSpec::bulk(CcaKind::Cubic, bytes),
        ],
    );

    // Background load changes power, not packets: simulate each schedule
    // once (`simulate` never sees a load), then meter it per load below.
    // `serialized` holds flow 2 back until flow 1, run alone, is done.
    let fair = simulate(&pair).expect("fair completes");
    let serial =
        simulate(&pair.serialized().expect("solo run completes")).expect("serial completes");

    let mut t = Table::new([
        "background load",
        "fair energy (J)",
        "serial energy (J)",
        "saving (%)",
    ]);
    for load in [0.0, 0.25, 0.5, 0.75] {
        let background = StressLoad::fraction(load);
        // Compare over a common window: a finished host idles at base
        // power, so extend the shorter run analytically.
        let w = fair.window.as_secs_f64().max(serial.window.as_secs_f64());
        let padded = |run: &SimulatedRun| {
            run.meter(background).sender_energy_j
                + idle_tail_j(w - run.window.as_secs_f64(), load, 2.0)
        };
        let (fair_e, serial_e) = (padded(&fair), padded(&serial));

        t.row([
            format!("{:.0}%", load * 100.0),
            format!("{fair_e:.1}"),
            format!("{serial_e:.1}"),
            format!("{:.2}", 100.0 * (fair_e - serial_e) / fair_e),
        ]);
    }
    println!(
        "Fair vs full-speed-then-idle, {per_flow_mb} MB per flow, under `stress`:\n\n{t}\n\
         (paper: ~16% idle, ~1% at 25% load, ~0.17% at 75% load — still\n\
         ~$10M/year at 100k racks)"
    );
}
