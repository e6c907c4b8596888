//! A closed-loop loss-recovery workload for
//! [`transport::scoreboard::Scoreboard`], recorded once and replayed
//! under a timer.
//!
//! The sender keeps `window` segments tracked and loses every 97th first
//! transmission; segments reach a receiver model in the order they were
//! put on the wire (retransmissions a full window late, so about
//! `window / 97` holes are open at any time); the receiver acks every
//! second arrival — at once when the arrival is out of order — with up
//! to `MAX_SACK_BLOCKS` blocks, the one holding the latest arrival first;
//! the sender answers each ack with the retransmissions it owes and new
//! segments up to the window. Recording drives a scoreboard to learn
//! *which* calls the sender makes; [`replay`] then issues exactly those
//! calls to a fresh board with no model in the loop, so a timer around
//! it sees the scoreboard alone. The receiver model is
//! [`transport::testing::ReceiverModel`], the one the scoreboard's
//! reference test uses.

use netsim::packet::SackBlocks;
use netsim::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use transport::scoreboard::Scoreboard;
use transport::testing::ReceiverModel;

const MSS: u32 = 1448;
/// One first transmission in this many is lost.
const LOSS_PERIOD: u64 = 97;
/// RACK tolerance handed to every ack: 20 segment send times.
const REORDER_WINDOW: SimDuration = SimDuration::from_micros(20);

/// One scoreboard call of the recorded sender.
#[derive(Clone, Copy, Debug)]
pub enum BoardOp {
    /// `on_send(seq, MSS, at, ..)`.
    Send { seq: u64, at: SimTime },
    /// `on_ack(cum, blocks, REORDER_WINDOW)`.
    Ack { cum: u64, blocks: SackBlocks },
    /// `take_retransmit(at, ..)`, which the recording saw return a segment.
    Retransmit { at: SimTime },
}

/// Record the scoreboard calls of a transfer that runs until the sender
/// has processed `acks` acknowledgements with `window` segments tracked.
pub fn record(window: usize, acks: usize) -> Vec<BoardOp> {
    let mut ops = Vec::new();
    let mut board = Scoreboard::new(MSS);
    let mut rx = ReceiverModel::default();
    let mut wire: VecDeque<(u64, u32)> = VecDeque::new();
    let (mut next_seq, mut sent, mut now_us, mut acked) = (0u64, 0u64, 0u64, 0usize);
    while acked < acks {
        while board.len() < window {
            now_us += 1;
            let at = SimTime::from_micros(now_us);
            board.on_send(next_seq, MSS, at, 0, false);
            ops.push(BoardOp::Send { seq: next_seq, at });
            sent += 1;
            if sent % LOSS_PERIOD != 0 {
                wire.push_back((next_seq, MSS));
            }
            next_seq += MSS as u64;
        }
        for arrival in 0..2 {
            let Some((seq, len)) = wire.pop_front() else {
                assert!(
                    arrival > 0,
                    "a window of {window} cannot keep the wire busy"
                );
                break;
            };
            if rx.arrive(seq, seq + len as u64) {
                break;
            }
        }
        let (cum, blocks) = rx.ack();
        board.on_ack(cum, blocks.iter(), REORDER_WINDOW);
        ops.push(BoardOp::Ack { cum, blocks });
        acked += 1;
        let at = SimTime::from_micros(now_us);
        while let Some(seg) = board.take_retransmit(at, 0, false) {
            ops.push(BoardOp::Retransmit { at });
            wire.push_back(seg);
        }
    }
    ops
}

/// Issue a recorded trace's calls to a fresh scoreboard. Returns the
/// bytes the acks delivered, so the work cannot be optimised away.
pub fn replay(ops: &[BoardOp]) -> u64 {
    let mut board = Scoreboard::new(MSS);
    let mut delivered = 0;
    for op in ops {
        match *op {
            BoardOp::Send { seq, at } => board.on_send(seq, MSS, at, delivered, false),
            BoardOp::Ack { cum, blocks } => {
                delivered += board
                    .on_ack(cum, blocks.iter(), REORDER_WINDOW)
                    .newly_delivered;
            }
            BoardOp::Retransmit { at } => {
                let seg = board.take_retransmit(at, delivered, false);
                debug_assert!(seg.is_some(), "the recording retransmitted here");
            }
        }
    }
    delivered
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::packet::MAX_SACK_BLOCKS;

    #[test]
    fn a_recorded_trace_has_holes_open_and_replays_to_the_same_delivery() {
        let ops = record(512, 4_000);
        let acks = ops
            .iter()
            .filter(|op| matches!(op, BoardOp::Ack { .. }))
            .count();
        assert_eq!(acks, 4_000);
        // Steady state keeps several holes open: most acks carry blocks,
        // and many carry a full option.
        let full = ops
            .iter()
            .filter(
                |op| matches!(op, BoardOp::Ack { blocks, .. } if blocks.len() == MAX_SACK_BLOCKS),
            )
            .count();
        assert!(full > acks / 2, "{full} of {acks} acks carry three blocks");
        let retransmits = ops
            .iter()
            .filter(|op| matches!(op, BoardOp::Retransmit { .. }))
            .count();
        assert!(retransmits > 50, "{retransmits}");
        // Everything the receiver acknowledged was delivered exactly once.
        let delivered = replay(&ops);
        assert!(delivered > 0 && delivered.is_multiple_of(MSS as u64));
        assert_eq!(delivered, replay(&ops));
    }
}
