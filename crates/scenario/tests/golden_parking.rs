//! Golden pin of the parking-lot runner.
//!
//! `workload::scenario`'s `parking_lot_replays_bit_identically` compares a
//! run with itself; this file pins the runner *across commits*: a 3-hop lot with
//! a CUBIC through flow against CUBIC, BBR and constant-cwnd local
//! flows (so pacing and the baseline-cwnd sizing are on the path), at
//! MTU 1500 and 9000, clean and under 2 % random loss on the first
//! hop, with 1 ms traces on. Captured at the commit before the
//! parking-lot runner moved onto the shared run harness; re-capture
//! only with a deliberate model or engine change.

use cca::CcaKind;
use netsim::fault::FaultSpec;
use netsim::time::SimDuration;
use workload::iperf::FlowSpec;
use workload::scenario::{simulate_parking_lot, Scenario};

/// Per flow `(fct ns, retransmits, acks_processed, segs_sent)`.
type FlowPin = (u64, u64, u64, u64);

/// One pinned run: `(sim_end ns, sender_energy_j bits, injected_drops)`
/// and the four flows (through, then the local flow over each hop).
type Pin = ((u64, u64, u64), [FlowPin; 4]);

const PINNED: [(u32, bool, Pin); 4] = [
    (
        1500,
        false,
        (
            (611_157_158, 4628701278694801408, 0),
            [
                (13_012_322, 230, 1_705, 2_970),
                (317_292_746, 1_358, 2_059, 4_098),
                (11_468_158, 1, 1_371, 2_741),
                (4_401_433, 601, 1_720, 3_341),
            ],
        ),
    ),
    (
        1500,
        true,
        (
            (200_000_000, 4620972974671921152, 119),
            [
                (91_476_568, 59, 1_607, 2_799),
                (50_390_758, 60, 1_607, 2_800),
                (4_068_818, 0, 1_370, 2_740),
                (3_554_233, 0, 1_370, 2_740),
            ],
        ),
    ),
    (
        9000,
        false,
        (
            (200_000_000, 4608291963471396864, 0),
            [
                (6_578_463, 7, 328, 454),
                (9_620_870, 162, 351, 609),
                (8_986_781, 39, 240, 486),
                (7_400_667, 91, 316, 538),
            ],
        ),
    ),
    (
        9000,
        true,
        (
            (200_000_000, 4611415744725385216, 22),
            [
                (18_586_615, 8, 260, 455),
                (12_539_872, 14, 286, 461),
                (4_411_916, 0, 224, 447),
                (4_246_057, 0, 224, 447),
            ],
        ),
    ),
];

fn lot(mtu: u32, lossy: bool) -> Scenario {
    let flow = |cca| FlowSpec::bulk(cca, 4_000_000);
    let flows = vec![
        flow(CcaKind::Cubic),
        flow(CcaKind::Cubic),
        flow(CcaKind::Bbr),
        flow(CcaKind::Baseline),
    ];
    let mut sc = Scenario::new(mtu, flows)
        .with_seed(7)
        .with_trace(SimDuration::from_millis(1));
    sc.buffer_bytes = 500_000;
    sc.host_pps_cap = None;
    sc.start_jitter = SimDuration::ZERO;
    sc.bottleneck_fault = lossy.then(|| FaultSpec::random_loss(0.02));
    sc
}

#[test]
fn three_hop_lot_matches_the_pinned_runs() {
    for (mtu, lossy, pinned) in PINNED {
        let sc = lot(mtu, lossy);
        let out = simulate_parking_lot(&sc, 3)
            .expect("parking lot runs")
            .finish(sc.background_load);
        let run = (
            out.sim_end.as_nanos(),
            out.sender_energy_j.to_bits(),
            out.injected_drops,
        );
        let flows: Vec<FlowPin> = out
            .reports
            .iter()
            .map(|r| {
                (
                    r.fct.as_nanos(),
                    r.retransmits,
                    r.acks_processed,
                    r.segs_sent,
                )
            })
            .collect();
        assert_eq!(
            (run, flows.as_slice()),
            (pinned.0, pinned.1.as_slice()),
            "parking lot moved at MTU {mtu}, lossy={lossy}"
        );
    }
}
