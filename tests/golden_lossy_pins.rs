//! Tier-1 mirror of `crates/core/tests/golden_determinism.rs`'s lossy
//! four-CCA pin: `cargo test -q` at the root runs only this package, so
//! the exact outcome of loss recovery (SACK scoreboard, fast recovery,
//! TLP, RTO) across commits is guarded here too. The constants are the
//! same ones; re-capture both files together.

use green_envy_repro::cca::CcaKind;
use green_envy_repro::netsim::fault::FaultSpec;
use green_envy_repro::netsim::time::SimDuration;
use green_envy_repro::netsim::units::MB;
use green_envy_repro::workload::prelude::*;

/// `(events_processed, sim_end ns, sender_energy_j bits, injected_drops)`.
const PINNED_RUN: (u64, u64, u64, u64) = (89_359, 606_401_672, 4626653305144082432, 98);
/// Per flow `(bytes_acked, retransmits, rtos, fct ns)`.
const PINNED_FLOWS: [(u64, u64, u64, u64); 4] = [
    (8_000_000, 58, 1, 234_475_137),
    (8_000_000, 40, 0, 32_161_480),
    (8_000_000, 40, 0, 18_307_933),
    (8_000_000, 262, 0, 8_657_615),
];

#[test]
fn lossy_mix_matches_the_pinned_fingerprint() {
    let flows = [
        CcaKind::Cubic,
        CcaKind::Reno,
        CcaKind::Bbr,
        CcaKind::Baseline,
    ]
    .into_iter()
    .map(|cca| FlowSpec::bulk(cca, 8 * MB))
    .collect();
    let scenario = Scenario::new(3000, flows).with_seed(13).with_fault(
        FaultSpec::random_loss(0.01)
            .with_reordering(0.001, SimDuration::from_micros(40))
            .with_duplication(0.0005),
    );
    let out = green_envy_repro::workload::scenario::run(&scenario).expect("lossy scenario runs");
    let run = (
        out.engine.events_processed,
        out.sim_end.as_nanos(),
        out.sender_energy_j.to_bits(),
        out.injected_drops,
    );
    let per_flow: Vec<_> = out
        .reports
        .iter()
        .map(|r| (r.bytes_acked, r.retransmits, r.rtos, r.fct.as_nanos()))
        .collect();
    assert_eq!(run, PINNED_RUN, "lossy-mix fingerprint moved");
    assert_eq!(per_flow, PINNED_FLOWS, "per-flow recovery counts moved");
}
