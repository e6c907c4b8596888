//! Models that the tests and measurements of this crate's parts share;
//! not part of the documented API.

use netsim::packet::{SackBlocks, MAX_SACK_BLOCKS};
use std::collections::BTreeMap;

/// What the far end of a connection does with arriving segments: the
/// same bookkeeping as [`crate::receiver`], reduced to the part that
/// shapes acks. `tests/scoreboard_reference.rs` and the `sack_scaling`
/// perf gate put it behind their channels to feed a
/// [`crate::scoreboard::Scoreboard`] the acks a real receiver would send.
#[derive(Default)]
pub struct ReceiverModel {
    rcv_nxt: u64,
    /// Out-of-order ranges, merged, keyed by start.
    ooo: BTreeMap<u64, u64>,
    /// First byte of the most recent out-of-order arrival.
    latest: Option<u64>,
}

impl ReceiverModel {
    /// Take the segment `[seq, end)` in. True if it must be acked at
    /// once (out of order or a duplicate), false if the ack may be
    /// delayed.
    pub fn arrive(&mut self, seq: u64, end: u64) -> bool {
        if end <= self.rcv_nxt {
            return true;
        }
        if seq <= self.rcv_nxt {
            self.rcv_nxt = end;
            while let Some((&s, &e)) = self.ooo.first_key_value() {
                if s > self.rcv_nxt {
                    break;
                }
                self.rcv_nxt = self.rcv_nxt.max(e);
                self.ooo.remove(&s);
            }
            if self.latest.is_some_and(|l| l < self.rcv_nxt) {
                self.latest = None;
            }
            return false;
        }
        let (mut start, mut end) = (seq, end);
        if let Some((&ps, &pe)) = self.ooo.range(..=start).next_back() {
            if pe >= start {
                start = ps;
                end = end.max(pe);
                self.ooo.remove(&ps);
            }
        }
        while let Some((&ns, &ne)) = self.ooo.range(start..).next() {
            if ns > end {
                break;
            }
            end = end.max(ne);
            self.ooo.remove(&ns);
        }
        self.ooo.insert(start, end);
        self.latest = Some(seq);
        true
    }

    /// The ack the receiver would send now: the cumulative point, and the
    /// block holding the latest arrival first, then the lowest others,
    /// [`MAX_SACK_BLOCKS`] at most.
    pub fn ack(&self) -> (u64, SackBlocks) {
        let first = self
            .latest
            .and_then(|l| self.ooo.range(..=l).next_back())
            .map(|(&s, &e)| (s, e));
        let rest = self
            .ooo
            .iter()
            .map(|(&s, &e)| (s, e))
            .filter(|b| Some(*b) != first);
        let mut blocks = SackBlocks::EMPTY;
        for (start, end) in first.into_iter().chain(rest).take(MAX_SACK_BLOCKS) {
            blocks.push(start, end);
        }
        (self.rcv_nxt, blocks)
    }
}
