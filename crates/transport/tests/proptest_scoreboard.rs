//! Property-based tests of the scoreboard: under arbitrary sequences of
//! sends, SACKs, cumulative acks, retransmissions, and RTO collapses, the
//! accounting invariants must hold.

use netsim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use transport::scoreboard::{Scoreboard, SegState};

const MSS: u32 = 1000;
const REO: SimDuration = SimDuration::from_micros(50);

#[derive(Clone, Debug)]
enum Op {
    /// Send the next `n` new segments.
    Send(u8),
    /// Cumulatively ack up to segment index (capped at what was sent).
    CumAck(u16),
    /// One ack carrying up to three SACK blocks, each a range of segment
    /// indices `[a, a+len)`.
    Sack(Vec<(u16, u8)>),
    /// Take one retransmission if pending.
    Retx,
    /// RTO: mark everything lost.
    Rto,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..20).prop_map(Op::Send),
        (0u16..400).prop_map(Op::CumAck),
        proptest::collection::vec(((0u16..400), (1u8..10)), 1..4).prop_map(Op::Sack),
        Just(Op::Retx),
        Just(Op::Rto),
    ]
}

/// Replay ops against the scoreboard while tracking ground truth.
fn replay(ops: &[Op]) -> (Scoreboard, u64, u64) {
    let mut board = Scoreboard::new(MSS);
    let mut next_seq: u64 = 0;
    let mut cum: u64 = 0;
    let mut clock: u64 = 0;
    let mut delivered: u64 = 0;
    for op in ops {
        clock += 7;
        let now = SimTime::from_micros(clock);
        match op {
            Op::Send(n) => {
                for _ in 0..*n {
                    board.on_send(next_seq, MSS, now, delivered, false);
                    next_seq += MSS as u64;
                }
            }
            Op::CumAck(idx) => {
                let target = ((*idx as u64) * MSS as u64).min(next_seq);
                if target > cum {
                    cum = target;
                }
                let out = board.on_ack(cum, std::iter::empty(), REO);
                delivered += out.newly_delivered;
            }
            Op::Sack(ranges) => {
                let blocks: Vec<(u64, u64)> = ranges
                    .iter()
                    .map(|&(a, len)| {
                        let start = a as u64 * MSS as u64;
                        (start, (start + len as u64 * MSS as u64).min(next_seq))
                    })
                    .filter(|&(start, end)| start < end && end > cum)
                    .map(|(start, end)| (start.max(cum), end))
                    .collect();
                if blocks.is_empty() {
                    continue;
                }
                let out = board.on_ack(cum, blocks.into_iter(), REO);
                delivered += out.newly_delivered;
            }
            Op::Retx => {
                let _ = board.take_retransmit(now, delivered, false);
            }
            Op::Rto => {
                board.mark_all_lost();
            }
        }
    }
    (board, next_seq, cum)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Accounting invariants survive arbitrary operation sequences.
    #[test]
    fn scoreboard_invariants(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let (board, next_seq, cum) = replay(&ops);

        // snd_una tracks the cumulative ack exactly.
        prop_assert_eq!(board.snd_una(), cum);

        // Tracked segments tile [snd_una, next_seq) contiguously.
        let mut expected = board.snd_una();
        let mut outstanding = 0u64;
        for seg in board.segments() {
            prop_assert_eq!(seg.seq, expected, "segments must be contiguous");
            expected = seg.seq_end();
            if seg.state == SegState::Outstanding {
                outstanding += seg.len as u64;
            }
        }
        prop_assert_eq!(expected, next_seq.max(board.snd_una()));

        // in_flight equals the sum over Outstanding segments.
        prop_assert_eq!(board.in_flight(), outstanding);
    }

    /// Acking everything empties the board, and every byte is counted
    /// delivered exactly once.
    #[test]
    fn full_ack_conserves_bytes(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let (mut board, next_seq, cum) = replay(&ops);
        let mut delivered_tail = 0;
        if next_seq > cum {
            let out = board.on_ack(next_seq, std::iter::empty(), REO);
            delivered_tail = out.newly_delivered;
        }
        prop_assert!(board.is_empty());
        prop_assert_eq!(board.in_flight(), 0);
        prop_assert_eq!(board.snd_una(), next_seq.max(cum));
        // The final cumulative ack can deliver at most the untracked span.
        prop_assert!(delivered_tail <= next_seq - cum);
    }

    /// take_retransmit never yields a segment that isn't Lost, and
    /// re-arming it returns it to flight.
    #[test]
    fn retransmit_restores_flight(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let (mut board, _, _) = replay(&ops);
        let before = board.in_flight();
        if let Some((_, len)) = board.take_retransmit(SimTime::from_secs(10), 0, false) {
            prop_assert_eq!(board.in_flight(), before + len as u64);
        } else {
            prop_assert_eq!(board.in_flight(), before);
        }
    }
}
