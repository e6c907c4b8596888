//! Tier-1 mirror of `crates/workload/tests/golden_population.rs`:
//! `cargo test -q` at the root runs only this package, so the rack
//! runner's tiny `bulk_10k_flows` fingerprint (events, end time, energy
//! bits, retransmit total) is guarded across commits here too. The
//! constants are the same ones; re-capture both files together.

use green_envy_repro::workload::population::{
    run_population, PopulationFingerprint, PopulationSpec,
};

const GOLDEN: PopulationFingerprint = PopulationFingerprint {
    events_processed: 95_035,
    sim_end_ns: 632_312_729,
    sender_energy_bits: 4_637_053_659_719_401_472,
    total_retx: 1_989,
};

#[test]
fn bulk_10k_flows_tiny_matches_the_pinned_fingerprint() {
    let out = run_population(&PopulationSpec::bulk_10k_flows_tiny()).expect("tiny population");
    assert_eq!(out.fingerprint(), GOLDEN, "bulk_10k_flows_tiny moved");
}
