//! Sender-side segment scoreboard: SACK state, loss marking, and the
//! bookkeeping behind delivery-rate samples.
//!
//! Each transmitted segment is tracked from first send until cumulative
//! acknowledgement. A segment is in one of three states:
//!
//! * **Outstanding** — on the wire (or believed to be), counted in flight;
//! * **Sacked** — selectively acknowledged, delivered but not yet
//!   cumulatively acked;
//! * **Lost** — declared lost (RFC 6675-style SACK threshold or RTO),
//!   awaiting retransmission, not counted in flight.
//!
//! Loss rules (RFC 6675 + RFC 8985 RACK):
//!
//! * **Threshold**: a segment is lost once the receiver has SACKed at
//!   least `DUPTHRESH` segments' worth of bytes *above* it — the
//!   byte-based analogue of three duplicate acks;
//! * **Time (RACK)**: a segment is lost once some segment transmitted at
//!   least `reorder_window` *later* has been SACKed, regardless of how
//!   few bytes sit above it — this is what recovers short tails quickly
//!   when combined with the sender's tail-loss probe.
//!
//! Both rules require the SACKed evidence to have been *sent no earlier*
//! than the candidate segment; that time condition keeps retransmissions
//! from being re-declared lost by stale SACK information the instant they
//! are sent (without it a deep loss episode degenerates into a
//! retransmission storm).
//!
//! # Sacked runs and ordinals
//!
//! `Sacked` is absorbing: nothing but the cumulative ack retiring the
//! segment takes a segment out of it ([`Scoreboard::take_retransmit`]
//! only flips `Lost`, [`Scoreboard::mark_all_lost`] and
//! [`Scoreboard::probe_last`] only touch `Outstanding`). The receiver
//! re-reports the same few blocks on every ack, so the board remembers
//! which segments are already `Sacked` as a list of *runs* and never
//! walks one again. Positions are *ordinals*: the n-th segment ever sent
//! has ordinal n, the front of the deque has ordinal `base_ord` (the
//! count of retired segments), so `ordinal = base_ord + index` survives
//! `pop_front` and turns every stored position into an O(1) jump.
//!
//! Run invariants, holding between calls:
//!
//! * each run is a non-empty half-open ordinal range of tracked
//!   segments (`base_ord <= lo < hi <= base_ord + len`);
//! * runs are ascending and disjoint, and *maximal*: a segment is
//!   `Sacked` exactly when a run holds it, and two runs never touch;
//! * a run ends at or below `high_sacked` (every segment in it was
//!   wholly inside some SACK block).
//!
//! Per-ack cost: retiring costs the segments retired (runs are trimmed
//! from the front as they go); each SACK block costs a binary search
//! over the runs plus the segments it *newly* covers — a block inside a
//! known run costs nothing more; the loss scan jumps over runs, so it
//! visits only the hole segments between the scan floor and
//! `high_sacked`. An ack costs what it changes plus the holes, not the
//! window.

use netsim::time::SimTime;
use std::collections::VecDeque;

/// Classic dup-ack threshold, in segments.
pub const DUPTHRESH: u64 = 3;

/// Segment delivery state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegState {
    /// Sent and presumed in flight.
    Outstanding,
    /// Selectively acknowledged.
    Sacked,
    /// Declared lost, awaiting retransmission.
    Lost,
}

/// One transmitted segment's record.
#[derive(Clone, Copy, Debug)]
pub struct SentSegment {
    /// First payload byte.
    pub seq: u64,
    /// Payload length.
    pub len: u32,
    /// Time of the most recent (re)transmission.
    pub sent_at: SimTime,
    /// How many times this segment has been retransmitted.
    pub retx_count: u32,
    /// Delivery state.
    pub state: SegState,
    /// Connection-level delivered-bytes counter captured at (re)send time,
    /// for BBR-style rate samples.
    pub delivered_at_send: u64,
    /// Whether the sender was application-limited at (re)send time.
    pub app_limited: bool,
}

impl SentSegment {
    /// One past the last byte.
    pub fn seq_end(&self) -> u64 {
        self.seq + self.len as u64
    }
}

/// Anchor data for a delivery-rate sample, captured from the segment a
/// cumulative ack just covered.
#[derive(Clone, Copy, Debug)]
pub struct RateAnchor {
    /// When the anchoring segment was (last) sent.
    pub sent_at: SimTime,
    /// Delivered-bytes counter at that send.
    pub delivered_at_send: u64,
    /// Whether that send was application-limited.
    pub app_limited: bool,
}

/// What an ack did to the scoreboard.
#[derive(Clone, Copy, Debug, Default)]
pub struct AckOutcome {
    /// Bytes newly delivered by this ack: cumulative advancement over
    /// not-previously-sacked bytes, plus newly SACKed bytes.
    pub newly_delivered: u64,
    /// Bytes the cumulative ack advanced over.
    pub cum_advanced: u64,
    /// Bytes newly declared lost by the SACK threshold rule.
    pub newly_lost: u64,
    /// Rate-sample anchor, present when the cumulative ack advanced.
    pub rate_anchor: Option<RateAnchor>,
}

/// A maximal run of consecutive `Sacked` segments: the half-open ordinal
/// range `lo..hi` (see the module docs for the invariants).
#[derive(Clone, Copy, Debug)]
struct Run {
    lo: u64,
    hi: u64,
}

/// The scoreboard proper.
#[derive(Debug)]
pub struct Scoreboard {
    segs: VecDeque<SentSegment>,
    /// Ordinal of `segs[0]`: how many segments the cumulative ack has
    /// retired. Segment `i` of the deque has ordinal `base_ord + i`.
    base_ord: u64,
    /// The `Sacked` segments, as ascending disjoint maximal runs.
    runs: VecDeque<Run>,
    /// First unacknowledged byte.
    snd_una: u64,
    /// Highest SACKed byte end seen.
    high_sacked: u64,
    /// Bytes currently Outstanding.
    in_flight: u64,
    /// `(ordinal, seq)` of segments to retransmit (may contain stale
    /// entries; state is re-checked on pop). The ordinal locates the
    /// segment; the seq lets debug builds cross-check it.
    retx_queue: VecDeque<(u64, u64)>,
    /// Maximum segment size, for the byte-based dupthresh.
    mss: u32,
    /// Latest (re)transmission time among segments that have been SACKed:
    /// the RACK reference point. Only segments sent at or before it may be
    /// declared lost.
    newest_sacked_send: SimTime,
    /// Ordinal below which the loss scan has nothing left to decide: no
    /// Outstanding segment sits under it. A live retransmission pins it
    /// (the scan restarts there on every ack until that segment is
    /// retired or lost again), so what bounds the scan is the number of
    /// holes above it, not this floor.
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
            base_ord: 0,
            runs: VecDeque::new(),
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

    /// Deque index of the segment with ordinal `ord`, if still tracked.
    /// `seq` is that segment's first byte, used only to cross-check.
    fn index_of(&self, ord: u64, seq: u64) -> Option<usize> {
        let idx = ord
            .checked_sub(self.base_ord)
            .and_then(|d| usize::try_from(d).ok())
            .filter(|&i| i < self.segs.len());
        debug_assert_eq!(
            idx,
            self.segs.binary_search_by(|s| s.seq.cmp(&seq)).ok(),
            "ordinal and sequence lookups must agree"
        );
        idx
    }

    /// First byte of a run.
    fn run_start(&self, run: &Run) -> u64 {
        self.segs[(run.lo - self.base_ord) as usize].seq
    }

    /// One past the last byte of a run.
    fn run_end(&self, run: &Run) -> u64 {
        self.segs[(run.hi - 1 - self.base_ord) as usize].seq_end()
    }

    /// Pop the next segment due for retransmission, marking it
    /// Outstanding again. Returns `(seq, len)`.
    pub fn take_retransmit(
        &mut self,
        now: SimTime,
        delivered: u64,
        app_limited: bool,
    ) -> Option<(u64, u32)> {
        while let Some((ord, seq)) = self.retx_queue.pop_front() {
            let Some(idx) = self.index_of(ord, seq) else {
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
            self.scan_floor = self.scan_floor.min(ord);
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
                self.base_ord += 1;
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
            // Retired segments leave their runs from the front.
            while let Some(run) = self.runs.front_mut() {
                if run.hi > self.base_ord {
                    run.lo = run.lo.max(self.base_ord);
                    break;
                }
                self.runs.pop_front();
            }
        }

        // 2. SACK marking.
        for (start, end) in sacks {
            if end <= self.snd_una {
                continue;
            }
            self.high_sacked = self.high_sacked.max(end);
            self.mark_sacked(start.max(self.snd_una), end, &mut out);
        }

        // 3. Loss detection. A segment qualifies when either
        //    (a) >= DUPTHRESH*mss bytes are SACKed above it, or
        //    (b) RACK: SACKed evidence was sent >= reorder_window later.
        //    In both cases the evidence must be no older than the
        //    segment's own (re)transmission. The scan starts at the
        //    settled prefix boundary and advances it, and it steps over
        //    each Sacked run in one jump, so repeated acks revisit only
        //    the holes above a live retransmission.
        if self.high_sacked > self.snd_una {
            let base = self.base_ord;
            let top = base + self.segs.len() as u64;
            let threshold = DUPTHRESH * self.mss as u64;
            let mut newly_lost = 0u64;
            let mut ord = self.scan_floor.max(base);
            self.scan_floor = ord;
            let mut next_run = self.runs.partition_point(|r| r.hi <= ord);
            let mut prefix_settled = true;
            while ord < top {
                if let Some(run) = self.runs.get(next_run).filter(|r| r.lo <= ord) {
                    debug_assert!(self.run_end(run) <= self.high_sacked);
                    ord = run.hi;
                    next_run += 1;
                } else {
                    let seg = &mut self.segs[(ord - base) as usize];
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
                            seg.state = SegState::Lost;
                            newly_lost += seg.len as u64;
                            self.in_flight -= seg.len as u64;
                            self.lost_bytes += seg.len as u64;
                            self.retx_queue.push_back((ord, seg.seq));
                        } else {
                            // A live (re)transmission we must revisit later.
                            prefix_settled = false;
                        }
                    }
                    ord += 1;
                }
                if prefix_settled {
                    self.scan_floor = ord;
                }
            }
            out.newly_lost = newly_lost;
        }

        out
    }

    /// Flip every tracked segment wholly inside `[start, end)` to Sacked
    /// and absorb it into the run set. `start` is at or above `snd_una`.
    /// Segments already in a run are stepped over, never visited.
    fn mark_sacked(&mut self, start: u64, end: u64, out: &mut AckOutcome) {
        let base = self.base_ord;
        let top = base + self.segs.len() as u64;
        // The one run that can hold or touch the block's first segment:
        // the first that ends at or above `start`.
        let first_run = self.runs.partition_point(|r| self.run_end(r) < start);
        let mut next_run = first_run;
        // `lo..ord` is the Sacked stretch the block is known to sit in.
        let (lo, mut ord) = match self.runs.get(first_run) {
            Some(run) if self.run_start(run) <= start => {
                if end <= self.run_end(run) {
                    return; // nothing new: the block lies inside a known run
                }
                next_run += 1;
                (run.lo, run.hi)
            }
            _ => {
                let first = base + self.segs.partition_point(|s| s.seq < start) as u64;
                (first, first)
            }
        };
        while ord < top {
            if let Some(run) = self.runs.get(next_run).filter(|r| r.lo <= ord) {
                ord = run.hi;
                next_run += 1;
                continue;
            }
            let seg = &mut self.segs[(ord - base) as usize];
            // Only fully covered segments flip to Sacked; the receiver
            // SACKs whole segments, so partial coverage means a block
            // boundary, not a partial segment.
            if seg.seq_end() > end {
                break;
            }
            match seg.state {
                SegState::Outstanding => self.in_flight -= seg.len as u64,
                // Arrived after all.
                SegState::Lost => self.lost_bytes -= seg.len as u64,
                SegState::Sacked => debug_assert!(false, "a Sacked segment outside every run"),
            }
            seg.state = SegState::Sacked;
            out.newly_delivered += seg.len as u64;
            self.newest_sacked_send = self.newest_sacked_send.max(seg.sent_at);
            ord += 1;
        }
        if ord == lo {
            return; // the block covers no whole segment
        }
        // `lo..ord` is now one maximal run; it replaces those it swallowed.
        let merged = Run { lo, hi: ord };
        match self.runs.get_mut(first_run) {
            Some(slot) if next_run > first_run => {
                *slot = merged;
                self.runs.drain(first_run + 1..next_run);
            }
            _ => self.runs.insert(first_run, merged),
        }
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
        for (ord, seg) in (self.base_ord..).zip(self.segs.iter_mut()) {
            if seg.state == SegState::Outstanding {
                seg.state = SegState::Lost;
                newly_lost += seg.len as u64;
                self.in_flight -= seg.len as u64;
                self.lost_bytes += seg.len as u64;
                self.retx_queue.push_back((ord, seg.seq));
            }
        }
        newly_lost
    }

    /// Iterate tracked segments (tests and diagnostics).
    pub fn segments(&self) -> impl Iterator<Item = &SentSegment> {
        self.segs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimDuration;

    /// Reorder window used by these tests: large enough that only the
    /// dup-threshold rule fires for sub-10 us send spacings.
    const REO: SimDuration = SimDuration::from_micros(50);

    const MSS: u32 = 1000;

    fn board_with(n: u64) -> Scoreboard {
        let mut b = Scoreboard::new(MSS);
        for i in 0..n {
            b.on_send(i * MSS as u64, MSS, SimTime::from_micros(i), 0, false);
        }
        b
    }

    #[test]
    fn send_tracks_flight() {
        let b = board_with(5);
        assert_eq!(b.in_flight(), 5000);
        assert_eq!(b.len(), 5);
        assert_eq!(b.snd_una(), 0);
    }

    #[test]
    fn cumulative_ack_pops_and_counts() {
        let mut b = board_with(5);
        let out = b.on_ack(3000, std::iter::empty(), REO);
        assert_eq!(out.cum_advanced, 3000);
        assert_eq!(out.newly_delivered, 3000);
        assert_eq!(b.in_flight(), 2000);
        assert_eq!(b.snd_una(), 3000);
        assert_eq!(b.len(), 2);
        let anchor = out.rate_anchor.expect("cum advance produces an anchor");
        assert_eq!(anchor.sent_at, SimTime::from_micros(2)); // seg #2 was last popped
    }

    #[test]
    fn duplicate_ack_changes_nothing() {
        let mut b = board_with(3);
        b.on_ack(2000, std::iter::empty(), REO);
        let out = b.on_ack(2000, std::iter::empty(), REO);
        assert_eq!(out.cum_advanced, 0);
        assert_eq!(out.newly_delivered, 0);
        assert!(out.rate_anchor.is_none());
    }

    #[test]
    fn sack_marks_and_counts_once() {
        let mut b = board_with(6);
        let out = b.on_ack(0, [(2000u64, 4000u64)].into_iter(), REO);
        assert_eq!(out.newly_delivered, 2000);
        // 2000 B sacked; segment 0 has exactly DUPTHRESH*mss sacked above
        // it and is declared lost, so flight = 6000 - 2000 - 1000.
        assert_eq!(out.newly_lost, 1000);
        assert_eq!(b.in_flight(), 3000);
        // Re-delivered SACK is idempotent.
        let out2 = b.on_ack(0, [(2000u64, 4000u64)].into_iter(), REO);
        assert_eq!(out2.newly_delivered, 0);
        assert_eq!(out2.newly_lost, 0);
        assert_eq!(b.in_flight(), 3000);
    }

    //= rfc9002#section-6-1
    #[test]
    fn loss_declared_after_dupthresh_worth_of_sack() {
        let mut b = board_with(8);
        // SACK segments 1..=3 (bytes 1000..4000): exactly 3*MSS above
        // segment 0, which must now be lost.
        let out = b.on_ack(0, [(1000u64, 4000u64)].into_iter(), REO);
        assert_eq!(out.newly_lost, 1000);
        assert_eq!(b.in_flight(), 8000 - 3000 - 1000);
        let states: Vec<_> = b.segments().map(|s| s.state).collect();
        assert_eq!(states[0], SegState::Lost);
        assert_eq!(states[1], SegState::Sacked);
    }

    #[test]
    fn insufficient_sack_does_not_declare_loss() {
        let mut b = board_with(8);
        let out = b.on_ack(0, [(1000u64, 3000u64)].into_iter(), REO);
        assert_eq!(out.newly_lost, 0);
        assert_eq!(b.segments().next().unwrap().state, SegState::Outstanding);
    }

    #[test]
    fn retransmit_cycle() {
        let mut b = board_with(8);
        b.on_ack(0, [(1000u64, 4000u64)].into_iter(), REO);
        assert!(b.has_retransmit());
        let (seq, len) = b
            .take_retransmit(SimTime::from_millis(5), 3000, false)
            .expect("retransmission pending");
        assert_eq!((seq, len), (0, 1000));
        assert!(!b.has_retransmit());
        // Retransmitted segment is back in flight with an updated clock.
        let seg = b.segments().next().unwrap();
        assert_eq!(seg.state, SegState::Outstanding);
        assert_eq!(seg.retx_count, 1);
        assert_eq!(seg.sent_at, SimTime::from_millis(5));
        // Its arrival is then cumulatively acked.
        let out = b.on_ack(4000, std::iter::empty(), REO);
        // Segment 0 newly delivered (1000); 1..3 were already sacked.
        assert_eq!(out.newly_delivered, 1000);
        assert_eq!(b.snd_una(), 4000);
    }

    #[test]
    fn stale_retx_queue_entries_are_skipped() {
        let mut b = board_with(8);
        b.on_ack(0, [(1000u64, 4000u64)].into_iter(), REO);
        // Segment 0 is queued for retx but then arrives (spurious loss):
        // cumulative ack covers it.
        b.on_ack(4000, std::iter::empty(), REO);
        assert!(b.take_retransmit(SimTime::ZERO, 0, false).is_none());
    }

    #[test]
    fn sacked_while_queued_is_skipped() {
        let mut b = board_with(10);
        // Lose segment 0 via the threshold.
        b.on_ack(0, [(1000u64, 4000u64)].into_iter(), REO);
        // The "lost" segment gets SACKed before we retransmit (it was
        // merely reordered).
        let out = b.on_ack(0, [(0u64, 1000u64)].into_iter(), REO);
        assert_eq!(out.newly_delivered, 1000);
        assert!(b.take_retransmit(SimTime::ZERO, 0, false).is_none());
    }

    //= rfc9002#section-7-6
    #[test]
    fn rto_marks_everything_outstanding_lost() {
        let mut b = board_with(5);
        b.on_ack(0, [(1000u64, 2000u64)].into_iter(), REO);
        let lost = b.mark_all_lost();
        assert_eq!(lost, 4000); // all but the sacked segment
        assert_eq!(b.in_flight(), 0);
        let mut retx = Vec::new();
        while let Some((seq, _)) = b.take_retransmit(SimTime::ZERO, 0, false) {
            retx.push(seq);
        }
        assert_eq!(retx, vec![0, 2000, 3000, 4000]);
    }

    #[test]
    fn delivered_counts_cum_plus_sack_exactly_once_per_byte() {
        let mut b = board_with(10);
        let mut delivered = 0;
        delivered += b
            .on_ack(2000, [(4000u64, 6000u64)].into_iter(), REO)
            .newly_delivered;
        delivered += b.on_ack(8000, std::iter::empty(), REO).newly_delivered;
        delivered += b.on_ack(10_000, std::iter::empty(), REO).newly_delivered;
        assert_eq!(delivered, 10_000);
        assert!(b.is_empty());
        assert_eq!(b.in_flight(), 0);
    }

    /// The run set must describe the Sacked segments exactly (module
    /// docs, "Sacked runs and ordinals").
    fn assert_run_invariants(b: &Scoreboard) {
        let top = b.base_ord + b.segs.len() as u64;
        let mut prev_hi = None;
        for run in &b.runs {
            assert!(b.base_ord <= run.lo && run.lo < run.hi && run.hi <= top);
            assert!(
                prev_hi.is_none_or(|hi| hi < run.lo),
                "runs ascend and never touch: {:?}",
                b.runs
            );
            assert!(b.run_end(run) <= b.high_sacked);
            prev_hi = Some(run.hi);
        }
        for (ord, seg) in (b.base_ord..).zip(b.segs.iter()) {
            let in_run = b.runs.iter().any(|r| r.lo <= ord && ord < r.hi);
            assert_eq!(seg.state == SegState::Sacked, in_run, "ordinal {ord}");
        }
    }

    fn runs(b: &Scoreboard) -> Vec<(u64, u64)> {
        assert_run_invariants(b);
        b.runs.iter().map(|r| (r.lo, r.hi)).collect()
    }

    //= DESIGN.md#sack-runs-and-ordinals
    #[test]
    fn runs_grow_merge_trim_and_retire() {
        let mut b = board_with(12);
        b.on_ack(0, [(2000u64, 4000u64)].into_iter(), REO);
        b.on_ack(0, [(6000u64, 8000u64), (2000, 4000)].into_iter(), REO);
        assert_eq!(runs(&b), [(2, 4), (6, 8)]);
        // The latest block grows by a segment; the other is old news.
        b.on_ack(0, [(6000u64, 9000u64), (2000, 4000)].into_iter(), REO);
        assert_eq!(runs(&b), [(2, 4), (6, 9)]);
        // A block that touches a run from below joins it, and so does
        // one that starts exactly where a run ends.
        b.on_ack(0, [(5000u64, 6000u64)].into_iter(), REO);
        assert_eq!(runs(&b), [(2, 4), (5, 9)]);
        b.on_ack(0, [(9000u64, 10_000u64)].into_iter(), REO);
        assert_eq!(runs(&b), [(2, 4), (5, 10)]);
        // Filling the hole bridges the two runs; a block inside the
        // result changes nothing.
        b.on_ack(0, [(2000u64, 10_000u64)].into_iter(), REO);
        assert_eq!(runs(&b), [(2, 10)]);
        b.on_ack(0, [(3000u64, 7000u64)].into_iter(), REO);
        assert_eq!(runs(&b), [(2, 10)]);
        // One block swallowing several runs and the holes between them.
        b.on_ack(0, [(11_000u64, 12_000u64)].into_iter(), REO);
        assert_eq!(runs(&b), [(2, 10), (11, 12)]);
        b.on_ack(0, [(1000u64, 12_000u64)].into_iter(), REO);
        assert_eq!(runs(&b), [(1, 12)]);
        // A cumulative ack inside the run trims it; ordinals do not move.
        b.on_ack(5000, std::iter::empty(), REO);
        assert_eq!(runs(&b), [(5, 12)]);
        b.on_ack(12_000, std::iter::empty(), REO);
        assert_eq!(runs(&b), []);
        assert!(b.is_empty());
    }

    //= DESIGN.md#sack-runs-and-ordinals
    #[test]
    fn run_invariants_hold_under_arbitrary_operations() {
        let mut rng = netsim::rng::SimRng::new(0x5ac4);
        for _ in 0..200 {
            let mut b = Scoreboard::new(MSS);
            let mut next_seq = 0u64;
            for step in 0..120u64 {
                let now = SimTime::from_micros(step * 7);
                match rng.next_below(8) {
                    0 | 1 => {
                        for _ in 0..1 + rng.next_below(12) {
                            // Mostly full segments, some short ones.
                            let len = if rng.next_below(5) == 0 { 300 } else { MSS };
                            b.on_send(next_seq, len, now, 0, false);
                            next_seq += len as u64;
                        }
                    }
                    2..=4 => {
                        // A segment boundary at or above snd_una, or a
                        // stale cumulative point.
                        let cum = match rng.next_below(3) {
                            0 => 0,
                            _ => b
                                .segs
                                .get(rng.next_below(b.segs.len() as u64 + 1) as usize)
                                .map_or(next_seq, |s| s.seq),
                        };
                        let blocks: Vec<(u64, u64)> = (0..rng.next_below(4))
                            .map(|_| {
                                // Unaligned edges, or (half the time)
                                // edges on 1000-byte marks, where most
                                // segments start.
                                let grain = 1 + 999 * rng.next_below(2);
                                let start = rng.next_below(next_seq + 2000) / grain * grain;
                                (
                                    start,
                                    start + (1 + rng.next_below(9000)).next_multiple_of(grain),
                                )
                            })
                            .collect();
                        b.on_ack(cum, blocks.into_iter(), REO);
                    }
                    5 => {
                        b.take_retransmit(now, 0, false);
                    }
                    6 => {
                        b.probe_last(now);
                    }
                    _ => {
                        b.mark_all_lost();
                    }
                }
                assert_run_invariants(&b);
            }
        }
    }

    #[test]
    fn rate_anchor_reflects_retransmission_time() {
        let mut b = board_with(5);
        b.on_ack(0, [(1000u64, 4000u64)].into_iter(), REO);
        b.take_retransmit(SimTime::from_millis(9), 3000, true)
            .unwrap();
        let out = b.on_ack(1000, std::iter::empty(), REO);
        let anchor = out.rate_anchor.unwrap();
        assert_eq!(anchor.sent_at, SimTime::from_millis(9));
        assert_eq!(anchor.delivered_at_send, 3000);
        assert!(anchor.app_limited);
    }
}
