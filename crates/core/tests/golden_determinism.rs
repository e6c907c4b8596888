//! Golden determinism regression tests.
//!
//! The engine promises bit-for-bit reproducibility: same scenario, same
//! seed, same results — regardless of scheduler internals (wheel vs
//! heap placement) or how many campaign threads raced over the matrix.
//! These tests pin an exact fingerprint of a mid-size two-flow run so
//! any change that perturbs event order, RNG draws, or float summation
//! order fails loudly instead of silently shifting figures.
//!
//! If a deliberate behaviour change moves these numbers, re-capture them
//! with `cargo test -p greenenvy --test golden_determinism -- --nocapture`
//! (the failure message prints the observed fingerprint) and say so in
//! the commit message.

use cca::CcaKind;
use greenenvy::matrix::run_matrix_with_threads;
use greenenvy::scale::Scale;
use netsim::fault::FaultSpec;
use netsim::time::{SimDuration, SimTime};
use netsim::units::MB;
use workload::prelude::*;

/// Exact fingerprint of the mid-size two-flow scenario below, captured
/// on the hybrid-scheduler engine. `sender_energy_j` is compared with
/// `==`: the energy pipeline is pure IEEE-754 arithmetic in a
/// deterministic order, so the float is exactly reproducible.
const GOLDEN_EVENTS_PROCESSED: u64 = 204_899;
const GOLDEN_SIM_END_NS: u64 = 200_164_047;
const GOLDEN_SENDER_ENERGY_J: f64 = 4.594573974609375;
const GOLDEN_TOTAL_RETX: u64 = 195;

fn two_flow_scenario() -> Scenario {
    Scenario::new(
        3000,
        vec![
            FlowSpec::bulk(CcaKind::Cubic, 40 * MB),
            FlowSpec::bulk(CcaKind::Reno, 40 * MB),
        ],
    )
    .with_seed(7)
}

#[test]
fn two_flow_fingerprint_is_stable() {
    let out = workload::scenario::run(&two_flow_scenario()).expect("scenario runs");
    let retx: u64 = out.reports.iter().map(|r| r.retransmits).sum();
    let observed = (
        out.engine.events_processed,
        out.sim_end.as_nanos(),
        out.sender_energy_j,
        retx,
    );
    println!("observed fingerprint: {observed:?}");
    assert_eq!(
        observed,
        (
            GOLDEN_EVENTS_PROCESSED,
            GOLDEN_SIM_END_NS,
            GOLDEN_SENDER_ENERGY_J,
            GOLDEN_TOTAL_RETX
        ),
        "golden fingerprint moved — event order, RNG, or float summation changed"
    );
}

/// The fault layer draws from its own RNG stream, so a faulted run must
/// be exactly as reproducible as a clean one: same `FaultSpec`, same
/// seed, identical fingerprint — including the injected-drop tally. No
/// golden constants here; the invariant is run-to-run equality (the
/// chaos spec itself is the changing part of the chaos suite, the
/// clean-run fingerprint above is the frozen part).
#[test]
fn faulted_two_flow_fingerprint_replays_identically() {
    let spec = FaultSpec::random_loss(1e-3)
        .with_reordering(5e-4, SimDuration::from_micros(50))
        .with_flap(SimTime::from_millis(40), SimTime::from_millis(60));
    let scenario = two_flow_scenario().with_fault(spec);
    let fingerprint = |out: &ScenarioOutcome| {
        (
            out.engine.events_processed,
            out.sim_end.as_nanos(),
            out.sender_energy_j,
            out.reports.iter().map(|r| r.retransmits).sum::<u64>(),
            out.injected_drops,
        )
    };
    let a = workload::scenario::run(&scenario).expect("faulted scenario runs");
    let b = workload::scenario::run(&scenario).expect("faulted scenario runs");
    assert!(a.injected_drops > 0, "the fault spec must actually bite");
    assert!(
        a.reports.iter().all(|r| r.outcome.is_completed()),
        "0.1% loss plus a 20 ms flap is survivable"
    );
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "faulted runs must replay bit-identically"
    );
}

/// Exact fingerprint of [`lossy_mix_scenario`], captured at the commit
/// before the SACK scoreboard learned to remember sacked runs: engine
/// events, simulated end, sender Joules as raw bits, injected drops, and
/// per flow `(bytes_acked, retransmits, rtos, fct ns)`. Loss recovery —
/// SACK marking, the RFC 6675 / RACK scan, TLP and RTO — decides every
/// one of these, so a scoreboard change that moves a single loss
/// declaration fails here (this file runs in Tier-1 itself: `cargo test`
/// at the root covers every crate).
const GOLDEN_LOSSY_EVENTS_PROCESSED: u64 = 89_359;
const GOLDEN_LOSSY_SIM_END_NS: u64 = 606_401_672;
const GOLDEN_LOSSY_SENDER_ENERGY_BITS: u64 = 4626653305144082432;
const GOLDEN_LOSSY_INJECTED_DROPS: u64 = 98;
const GOLDEN_LOSSY_FLOWS: [(u64, u64, u64, u64); 4] = [
    (8_000_000, 58, 1, 234_475_137),
    (8_000_000, 40, 0, 32_161_480),
    (8_000_000, 40, 0, 18_307_933),
    (8_000_000, 262, 0, 8_657_615),
];

/// Cubic, Reno, BBR and the constant-cwnd baseline sharing a bottleneck
/// that loses 1 % of frames, reorders and duplicates a few more. Seed 13
/// makes the Cubic flow lose a retransmission too and take one RTO.
fn lossy_mix_scenario() -> Scenario {
    let flows = [
        CcaKind::Cubic,
        CcaKind::Reno,
        CcaKind::Bbr,
        CcaKind::Baseline,
    ]
    .into_iter()
    .map(|cca| FlowSpec::bulk(cca, 8 * MB))
    .collect();
    Scenario::new(3000, flows).with_seed(13).with_fault(
        FaultSpec::random_loss(0.01)
            .with_reordering(0.001, SimDuration::from_micros(40))
            .with_duplication(0.0005),
    )
}

#[test]
fn lossy_mix_fingerprint_is_stable() {
    let out = workload::scenario::run(&lossy_mix_scenario()).expect("lossy scenario runs");
    let flows: Vec<_> = out
        .reports
        .iter()
        .map(|r| (r.bytes_acked, r.retransmits, r.rtos, r.fct.as_nanos()))
        .collect();
    let observed = (
        out.engine.events_processed,
        out.sim_end.as_nanos(),
        out.sender_energy_j.to_bits(),
        out.injected_drops,
    );
    println!("observed lossy fingerprint: {observed:?} {flows:?}");
    assert_eq!(
        observed,
        (
            GOLDEN_LOSSY_EVENTS_PROCESSED,
            GOLDEN_LOSSY_SIM_END_NS,
            GOLDEN_LOSSY_SENDER_ENERGY_BITS,
            GOLDEN_LOSSY_INJECTED_DROPS
        ),
        "lossy-mix fingerprint moved — loss recovery changed behaviour"
    );
    assert_eq!(flows, GOLDEN_LOSSY_FLOWS, "per-flow recovery counts moved");
}

/// The work-stealing campaign runner hands cells to whichever thread
/// asks next, so the *assignment* of cells to threads is racy — but the
/// cells themselves are pure functions of `(cca, mtu, seeds)`. The
/// serialized matrix must therefore be byte-identical at any thread
/// count. (`{:?}`/serde_json print f64 shortest-roundtrip, so equal
/// strings ⇔ bit-equal floats.)
#[test]
fn matrix_is_thread_count_invariant() {
    let scale = Scale {
        transfer_bytes: 10 * MB,
        two_flow_bytes: 10 * MB,
        repetitions: 1,
        name: "golden-tiny",
    };
    let reference =
        serde_json::to_string(&run_matrix_with_threads(scale, 1)).expect("matrix serializes");
    for threads in [2, 8] {
        let got = serde_json::to_string(&run_matrix_with_threads(scale, threads))
            .expect("matrix serializes");
        assert_eq!(
            got, reference,
            "matrix output differs between 1 and {threads} campaign threads"
        );
    }
}
