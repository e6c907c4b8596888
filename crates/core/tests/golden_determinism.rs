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

/// Exact fingerprint of [`hpcc_two_flow_scenario`]: engine events,
/// simulated end, sender Joules as raw bits and per-flow retransmits.
/// HPCC is the only CCA whose window reads the INT record the receiver
/// echoes back on every ack, so this pins the echo path end to end: a
/// change that drops, stales or re-stamps the echoed record moves HPCC's
/// window and fails here.
const GOLDEN_HPCC_EVENTS_PROCESSED: u64 = 67_016;
const GOLDEN_HPCC_SIM_END_NS: u64 = 200_106_845;
const GOLDEN_HPCC_SENDER_ENERGY_BITS: u64 = 4617103054519402496;
const GOLDEN_HPCC_RETX: [u64; 2] = [0, 0];

/// Two HPCC flows sharing the 10 Gb/s bottleneck at MTU 9000.
fn hpcc_two_flow_scenario() -> Scenario {
    Scenario::new(
        9000,
        vec![
            FlowSpec::bulk(CcaKind::Hpcc, 40 * MB),
            FlowSpec::bulk(CcaKind::Hpcc, 40 * MB),
        ],
    )
    .with_seed(11)
}

#[test]
fn hpcc_two_flow_fingerprint_is_stable() {
    let out = workload::scenario::run(&hpcc_two_flow_scenario()).expect("hpcc scenario runs");
    let retx: Vec<u64> = out.reports.iter().map(|r| r.retransmits).collect();
    let observed = (
        out.engine.events_processed,
        out.sim_end.as_nanos(),
        out.sender_energy_j.to_bits(),
    );
    println!("observed hpcc fingerprint: {observed:?} {retx:?}");
    assert!(
        out.reports.iter().all(|r| r.outcome.is_completed()),
        "both HPCC flows finish"
    );
    assert_eq!(
        observed,
        (
            GOLDEN_HPCC_EVENTS_PROCESSED,
            GOLDEN_HPCC_SIM_END_NS,
            GOLDEN_HPCC_SENDER_ENERGY_BITS
        ),
        "hpcc fingerprint moved — the INT echo or HPCC's window changed"
    );
    assert_eq!(retx, GOLDEN_HPCC_RETX, "per-flow HPCC retransmits moved");
}

/// Every CCA x MTU cell of the reference campaign below (10 MB, one
/// seed, one thread): `(cca, mtu, energy_j.mean bits, fct_s.mean bits,
/// retx.mean)`, in matrix order. The figure goldens cover five
/// algorithms; this covers all ten, and a failure names the cell.
#[rustfmt::skip]
const GOLDEN_MATRIX_CELLS: [(&str, u32, u64, u64, f64); 40] = [
    ("bbr", 1500, 4600897610335649792, 4576841998134203070, 0.0),
    ("bbr", 3000, 4599763738969505792, 4576286860088666598, 0.0),
    ("bbr", 6000, 4599137841975394304, 4575927701405090721, 0.0),
    ("bbr", 9000, 4599254115330031616, 4576176375044419372, 0.0),
    ("westwood", 1500, 4602057869980860416, 4578046599345253919, 0.0),
    ("westwood", 3000, 4601221691387936768, 4576543066340645598, 190.0),
    ("westwood", 6000, 4602408889068027904, 4578102453780466102, 191.0),
    ("westwood", 9000, 4602003719033192448, 4578337211657234149, 129.0),
    ("highspeed", 1500, 4602068590219231232, 4578046599345253919, 0.0),
    ("highspeed", 3000, 4600831089882169344, 4576303398171189431, 190.0),
    ("highspeed", 6000, 4600833838661238784, 4576193965167815158, 241.0),
    ("highspeed", 9000, 4600194747527593984, 4576164649832717520, 160.0),
    ("scalable", 1500, 4602079310457602048, 4578046599345253919, 0.0),
    ("scalable", 3000, 4601653524579745792, 4576303398171189431, 313.0),
    ("scalable", 6000, 4601451489318141952, 4576193965167815158, 337.0),
    ("scalable", 9000, 4600632902911262720, 4576164649832717520, 230.0),
    ("reno", 1500, 4602090030695972864, 4578046599345253919, 0.0),
    ("reno", 3000, 4600649120707772416, 4576015167795037719, 190.0),
    ("reno", 6000, 4600333285992693760, 4575905734791663446, 193.0),
    ("reno", 9000, 4600037517364822016, 4576164649832717520, 134.0),
    ("vegas", 1500, 4602722249881944064, 4578775370251687944, 0.0),
    ("vegas", 3000, 4600353626957807616, 4576831704851009940, 0.0),
    ("vegas", 6000, 4599587817109061632, 4576350275959566745, 0.0),
    ("vegas", 9000, 4599624100992778240, 4576530783114935516, 0.0),
    ("dctcp", 1500, 4602049898521559040, 4578046599345253919, 0.0),
    ("dctcp", 3000, 4599773634574155776, 4576303398171189431, 0.0),
    ("dctcp", 6000, 4599096335411445760, 4575905734791663446, 0.0),
    ("dctcp", 9000, 4599256039475380224, 4576164649832717520, 17.0),
    ("cubic", 1500, 4602105973614575616, 4578046599345253919, 0.0),
    ("cubic", 3000, 4601044944893771776, 4576303398171189431, 213.0),
    ("cubic", 6000, 4600833563783331840, 4575905734791663446, 270.0),
    ("cubic", 9000, 4600156264620621824, 4575876419456565808, 185.0),
    ("baseline", 1500, 4601311026707693568, 4577284354515855139, 0.0),
    ("baseline", 3000, 4603252764242345984, 4578886359699093436, 375.0),
    ("baseline", 6000, 4602520489498247168, 4579148211231219743, 182.0),
    ("baseline", 9000, 4602143357009920000, 4579368388109719026, 116.0),
    ("bbr2", 1500, 4603065572387717120, 4579240857697486940, 0.0),
    ("bbr2", 3000, 4601509488556507136, 4577929459061621350, 0.0),
    ("bbr2", 6000, 4600650220219400192, 4577317054252029551, 0.0),
    ("bbr2", 9000, 4600622457550798848, 4577428363058691819, 0.0),
];

/// The work-stealing campaign runner hands cells to whichever thread
/// asks next, so the *assignment* of cells to threads is racy — but the
/// cells themselves are pure functions of `(cca, mtu, seeds)`. The
/// serialized matrix must therefore be byte-identical at any thread
/// count. (`{:?}`/serde_json print f64 shortest-roundtrip, so equal
/// strings ⇔ bit-equal floats.)
/// The 1-thread reference itself is pinned across commits to
/// [`GOLDEN_MATRIX_CELLS`].
#[test]
fn matrix_is_thread_count_invariant() {
    let scale = Scale {
        transfer_bytes: 10 * MB,
        two_flow_bytes: 10 * MB,
        repetitions: 1,
        name: "golden-tiny",
    };
    let matrix = run_matrix_with_threads(scale, 1);
    let observed: Vec<_> = matrix
        .cells
        .iter()
        .map(|c| {
            let row = (
                c.cca.as_str(),
                c.mtu,
                c.energy_j.mean.to_bits(),
                c.fct_s.mean.to_bits(),
                c.retx.mean,
            );
            println!("    {row:?},");
            row
        })
        .collect();
    assert!(matrix.failed.is_empty(), "{:?}", matrix.failed);
    assert_eq!(observed.len(), GOLDEN_MATRIX_CELLS.len());
    for (got, want) in observed.iter().zip(GOLDEN_MATRIX_CELLS) {
        assert_eq!(*got, want, "cell {} @ mtu {} moved", want.0, want.1);
    }

    let reference = serde_json::to_string(&matrix).expect("matrix serializes");
    for threads in [2, 8] {
        let got = serde_json::to_string(&run_matrix_with_threads(scale, threads))
            .expect("matrix serializes");
        assert_eq!(
            got, reference,
            "matrix output differs between 1 and {threads} campaign threads"
        );
    }
}
