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
//! it sees the scoreboard alone. The receiver model is a second copy of
//! the one in `crates/transport/tests/scoreboard_reference.rs` (a test
//! target cannot be a dependency).

use netsim::packet::{SackBlocks, MAX_SACK_BLOCKS};
use netsim::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use transport::scoreboard::Scoreboard;

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

/// Receiver side: the cumulative point and the merged out-of-order
/// ranges (sorted, disjoint, never adjacent).
#[derive(Default)]
struct Receiver {
    rcv_nxt: u64,
    ooo: Vec<(u64, u64)>,
    /// First byte of the most recent out-of-order arrival.
    latest: Option<u64>,
}

impl Receiver {
    /// Take a segment in; true if it must be acked at once.
    fn arrive(&mut self, seq: u64, end: u64) -> bool {
        if end <= self.rcv_nxt {
            return true;
        }
        if seq > self.rcv_nxt {
            self.ooo.push((seq, end));
            self.ooo.sort_unstable();
            self.ooo.dedup_by(|next, kept| {
                let joins = next.0 <= kept.1;
                if joins {
                    kept.1 = kept.1.max(next.1);
                }
                joins
            });
            self.latest = Some(seq);
            return true;
        }
        self.rcv_nxt = end;
        while let Some(&(_, end)) = self.ooo.first().filter(|r| r.0 <= self.rcv_nxt) {
            self.rcv_nxt = self.rcv_nxt.max(end);
            self.ooo.remove(0);
        }
        if self.latest.is_some_and(|l| l < self.rcv_nxt) {
            self.latest = None;
        }
        false
    }

    /// The block holding the latest arrival, then the lowest others.
    fn blocks(&self) -> SackBlocks {
        let first = self
            .latest
            .and_then(|l| self.ooo.iter().rev().find(|r| r.0 <= l))
            .copied();
        let rest = self.ooo.iter().copied().filter(|b| Some(*b) != first);
        let mut blocks = SackBlocks::EMPTY;
        for (start, end) in first.into_iter().chain(rest).take(MAX_SACK_BLOCKS) {
            blocks.push(start, end);
        }
        blocks
    }
}

/// Record the scoreboard calls of a transfer that runs until the sender
/// has processed `acks` acknowledgements with `window` segments tracked.
pub fn record(window: usize, acks: usize) -> Vec<BoardOp> {
    let mut ops = Vec::new();
    let mut board = Scoreboard::new(MSS);
    let mut rx = Receiver::default();
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
        let (cum, blocks) = (rx.rcv_nxt, rx.blocks());
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
