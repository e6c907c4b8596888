//! Reference model for `transport::scoreboard::Scoreboard`.
//!
//! This is the scoreboard as it stood before it learned to remember
//! Sacked runs, kept verbatim (same fields, same walks, same order of
//! updates) so `scoreboard_reference.rs` can hold the incremental
//! implementation to it step by step. It plays the role `RefSched` plays
//! for `netsim::sched`: a slow, obviously-right implementation the tests
//! compare against — it is not a second code path, nothing outside
//! `tests/` can reach it. Do not optimise it.

use netsim::time::SimTime;
use std::collections::VecDeque;
use transport::scoreboard::{AckOutcome, RateAnchor, SegState, SentSegment, DUPTHRESH};

/// The scoreboard as it was before the run set: every ack walks every
/// segment under every block, then the loss scan walks the window again.
#[derive(Debug)]
pub struct Scoreboard {
    segs: VecDeque<SentSegment>,
    /// First unacknowledged byte.
    snd_una: u64,
    /// Highest SACKed byte end seen.
    high_sacked: u64,
    /// Bytes currently Outstanding.
    in_flight: u64,
    /// Seqs of segments to retransmit (may contain stale entries; state
    /// is re-checked on pop).
    retx_queue: VecDeque<u64>,
    /// Maximum segment size, for the byte-based dupthresh.
    mss: u32,
    /// Latest (re)transmission time among segments that have been SACKed:
    /// the RACK reference point. Only segments sent at or before it may be
    /// declared lost.
    newest_sacked_send: SimTime,
    /// Sequence below which no Outstanding segment exists, letting the
    /// per-ack loss scan skip the settled prefix (amortized O(1)).
    scan_floor: u64,
    /// Bytes currently in the Lost state, maintained across every state
    /// transition so [`Scoreboard::has_retransmit`] is O(1) instead of a
    /// scan of the retransmission queue (it sits on the sender's
    /// per-ack/per-timer hot path).
    lost_bytes: u64,
}

impl Scoreboard {
    /// An empty scoreboard for a flow starting at sequence 0.
    pub fn new(mss: u32) -> Self {
        assert!(mss > 0);
        Scoreboard {
            segs: VecDeque::new(),
            snd_una: 0,
            high_sacked: 0,
            in_flight: 0,
            retx_queue: VecDeque::new(),
            mss,
            newest_sacked_send: SimTime::ZERO,
            scan_floor: 0,
            lost_bytes: 0,
        }
    }

    /// First unacknowledged byte.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Bytes currently in flight (Outstanding).
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// True if nothing is outstanding, lost, or sacked-pending.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Number of tracked segments.
    pub fn len(&self) -> usize {
        self.segs.len()
    }

    /// Record a brand new segment transmission.
    pub fn on_send(&mut self, seq: u64, len: u32, now: SimTime, delivered: u64, app_limited: bool) {
        debug_assert!(len > 0);
        debug_assert!(
            self.segs.back().map_or(self.snd_una, |s| s.seq_end()) == seq,
            "segments must be sent in order"
        );
        self.segs.push_back(SentSegment {
            seq,
            len,
            sent_at: now,
            retx_count: 0,
            state: SegState::Outstanding,
            delivered_at_send: delivered,
            app_limited,
        });
        self.in_flight += len as u64;
    }

    fn index_of(&self, seq: u64) -> Option<usize> {
        self.segs.binary_search_by(|s| s.seq.cmp(&seq)).ok()
    }

    /// Pop the next segment due for retransmission, marking it
    /// Outstanding again. Returns `(seq, len)`.
    pub fn take_retransmit(
        &mut self,
        now: SimTime,
        delivered: u64,
        app_limited: bool,
    ) -> Option<(u64, u32)> {
        while let Some(seq) = self.retx_queue.pop_front() {
            let Some(idx) = self.index_of(seq) else {
                continue; // already cumulatively acked
            };
            let seg = &mut self.segs[idx];
            if seg.state != SegState::Lost {
                continue; // stale entry (e.g. got sacked meanwhile)
            }
            seg.state = SegState::Outstanding;
            seg.retx_count += 1;
            seg.sent_at = now;
            seg.delivered_at_send = delivered;
            seg.app_limited = app_limited;
            let len = seg.len;
            self.in_flight += len as u64;
            self.lost_bytes -= len as u64;
            // The segment is live again below the settled prefix: reopen
            // the loss scan down to it.
            self.scan_floor = self.scan_floor.min(seq);
            return Some((seq, len));
        }
        None
    }

    /// True if a retransmission is pending.
    pub fn has_retransmit(&self) -> bool {
        self.lost_bytes > 0
    }

    /// Process an acknowledgement: cumulative ack plus SACK ranges.
    /// `reorder_window` is the RACK tolerance: SACKed evidence must have
    /// been sent at least this much after a segment before the time rule
    /// declares it lost (use ~`srtt/4`).
    pub fn on_ack(
        &mut self,
        cum_ack: u64,
        sacks: impl Iterator<Item = (u64, u64)>,
        reorder_window: netsim::time::SimDuration,
    ) -> AckOutcome {
        let mut out = AckOutcome::default();

        // 1. Cumulative advancement.
        if cum_ack > self.snd_una {
            out.cum_advanced = cum_ack - self.snd_una;
            while self.segs.front().is_some_and(|f| f.seq_end() <= cum_ack) {
                let Some(seg) = self.segs.pop_front() else {
                    break;
                };
                match seg.state {
                    SegState::Outstanding => {
                        self.in_flight -= seg.len as u64;
                        out.newly_delivered += seg.len as u64;
                    }
                    SegState::Lost => {
                        // Was declared lost but the original arrived after
                        // all (spurious loss marking).
                        out.newly_delivered += seg.len as u64;
                        self.lost_bytes -= seg.len as u64;
                    }
                    SegState::Sacked => {} // already counted delivered
                }
                out.rate_anchor = Some(RateAnchor {
                    sent_at: seg.sent_at,
                    delivered_at_send: seg.delivered_at_send,
                    app_limited: seg.app_limited,
                });
            }
            debug_assert!(
                self.segs.front().is_none_or(|s| s.seq >= cum_ack),
                "partial segment ack is not modeled"
            );
            self.snd_una = cum_ack;
        }

        // 2. SACK marking.
        for (start, end) in sacks {
            if end <= self.snd_una {
                continue;
            }
            self.high_sacked = self.high_sacked.max(end);
            // Find the first segment at or after `start`.
            let mut idx = self.segs.partition_point(|s| s.seq_end() <= start);
            while idx < self.segs.len() {
                let seg = &mut self.segs[idx];
                if seg.seq >= end {
                    break;
                }
                // Only fully covered segments flip to Sacked; the receiver
                // SACKs whole segments, so partial coverage means a block
                // boundary, not a partial segment.
                if seg.seq >= start && seg.seq_end() <= end {
                    match seg.state {
                        SegState::Outstanding => {
                            let sent_at = seg.sent_at;
                            seg.state = SegState::Sacked;
                            self.in_flight -= seg.len as u64;
                            out.newly_delivered += seg.len as u64;
                            self.newest_sacked_send = self.newest_sacked_send.max(sent_at);
                        }
                        SegState::Lost => {
                            // Arrived after all.
                            let sent_at = seg.sent_at;
                            let len = seg.len;
                            seg.state = SegState::Sacked;
                            out.newly_delivered += len as u64;
                            self.lost_bytes -= len as u64;
                            self.newest_sacked_send = self.newest_sacked_send.max(sent_at);
                        }
                        SegState::Sacked => {}
                    }
                }
                idx += 1;
            }
        }

        // 3. Loss detection. A segment qualifies when either
        //    (a) >= DUPTHRESH*mss bytes are SACKed above it, or
        //    (b) RACK: SACKed evidence was sent >= reorder_window later.
        //    In both cases the evidence must be no older than the
        //    segment's own (re)transmission. The scan starts at the
        //    settled prefix boundary and advances it, so repeated acks
        //    don't rescan decided segments.
        if self.high_sacked > self.snd_una {
            self.scan_floor = self.scan_floor.max(self.snd_una);
            let threshold = DUPTHRESH * self.mss as u64;
            let mut newly_lost = 0u64;
            let start = self.segs.partition_point(|s| s.seq < self.scan_floor);
            let mut prefix_settled = true;
            for i in start..self.segs.len() {
                let seg = &self.segs[i];
                if seg.seq_end() > self.high_sacked {
                    break; // segments are ordered; no SACKed data above
                }
                if seg.state == SegState::Outstanding {
                    let dup_rule = seg.seq_end() + threshold <= self.high_sacked
                        && seg.sent_at <= self.newest_sacked_send;
                    let rack_rule = seg
                        .sent_at
                        .checked_add(reorder_window)
                        .is_some_and(|t| t <= self.newest_sacked_send);
                    if dup_rule || rack_rule {
                        let seg = &mut self.segs[i];
                        seg.state = SegState::Lost;
                        newly_lost += seg.len as u64;
                        self.in_flight -= seg.len as u64;
                        self.lost_bytes += seg.len as u64;
                        self.retx_queue.push_back(seg.seq);
                    } else {
                        // A live (re)transmission we must revisit later.
                        prefix_settled = false;
                    }
                }
                if prefix_settled {
                    self.scan_floor = self.segs[i].seq_end();
                }
            }
            out.newly_lost = newly_lost;
        }

        out
    }

    /// Tail-loss probe support: re-send the highest Outstanding segment
    /// without changing its delivery state (it is still presumed in
    /// flight; this transmission merely solicits fresh SACK evidence).
    /// Returns `(seq, len)` if a probe target exists.
    pub fn probe_last(&mut self, now: SimTime) -> Option<(u64, u32)> {
        let seg = self
            .segs
            .iter_mut()
            .rev()
            .find(|s| s.state == SegState::Outstanding)?;
        seg.retx_count += 1;
        seg.sent_at = now;
        Some((seg.seq, seg.len))
    }

    /// RTO collapse: declare every non-SACKed tracked segment lost.
    /// Returns the number of bytes newly marked lost.
    pub fn mark_all_lost(&mut self) -> u64 {
        let mut newly_lost = 0;
        for seg in self.segs.iter_mut() {
            if seg.state == SegState::Outstanding {
                seg.state = SegState::Lost;
                newly_lost += seg.len as u64;
                self.in_flight -= seg.len as u64;
                self.lost_bytes += seg.len as u64;
                self.retx_queue.push_back(seg.seq);
            }
        }
        newly_lost
    }

    /// Iterate tracked segments (tests and diagnostics).
    pub fn segments(&self) -> impl Iterator<Item = &SentSegment> {
        self.segs.iter()
    }
}
