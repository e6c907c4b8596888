//! Step-by-step equivalence of the incremental SACK scoreboard with the
//! reference model in `oracle/` (the walk-everything scoreboard it
//! replaced). Both boards are fed the same calls; after every call the
//! return value and the whole observable state — `snd_una`, `in_flight`,
//! `has_retransmit`, `len`, and every field of every tracked segment —
//! must be equal. The acks come from a *receiver model*
//! (`transport::testing::ReceiverModel`: merged out-of-order ranges, the
//! block holding the latest arrival first, at most `MAX_SACK_BLOCKS`
//! blocks) behind a lossy, reordering,
//! duplicating channel, plus hand-mixed stale acks; a second property
//! drops the receiver and feeds arbitrary, unaligned blocks.

mod oracle;

use netsim::rng::SimRng;
use netsim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::VecDeque;
use transport::scoreboard::{AckOutcome, Scoreboard, SegState, SentSegment};
use transport::testing::ReceiverModel;

const MSS: u32 = 1000;
const REO: SimDuration = SimDuration::from_micros(50);

type Block = (u64, u64);

fn outcome_fields(o: &AckOutcome) -> (u64, u64, u64, Option<(SimTime, u64, bool)>) {
    (
        o.newly_delivered,
        o.cum_advanced,
        o.newly_lost,
        o.rate_anchor
            .map(|a| (a.sent_at, a.delivered_at_send, a.app_limited)),
    )
}

fn segment_fields(s: &SentSegment) -> (u64, u32, SimTime, u32, SegState, u64, bool) {
    (
        s.seq,
        s.len,
        s.sent_at,
        s.retx_count,
        s.state,
        s.delivered_at_send,
        s.app_limited,
    )
}

/// The scoreboard under test and the reference model, fed identically
/// and compared after every call.
struct Pair {
    new: Scoreboard,
    old: oracle::Scoreboard,
}

impl Pair {
    fn new() -> Self {
        Pair {
            new: Scoreboard::new(MSS),
            old: oracle::Scoreboard::new(MSS),
        }
    }

    /// `n` MSS-sized segments sent 1 µs apart from time zero.
    fn with_segments(n: u64) -> Self {
        let mut pair = Pair::new();
        for i in 0..n {
            pair.send(i * MSS as u64, MSS, SimTime::from_micros(i), 0, false);
        }
        pair
    }

    fn send(&mut self, seq: u64, len: u32, now: SimTime, delivered: u64, app_limited: bool) {
        self.new.on_send(seq, len, now, delivered, app_limited);
        self.old.on_send(seq, len, now, delivered, app_limited);
        self.check("on_send");
    }

    fn ack(&mut self, cum: u64, blocks: &[Block], reorder_window: SimDuration) -> AckOutcome {
        let got = self.new.on_ack(cum, blocks.iter().copied(), reorder_window);
        let want = self.old.on_ack(cum, blocks.iter().copied(), reorder_window);
        assert_eq!(
            outcome_fields(&got),
            outcome_fields(&want),
            "on_ack({cum}, {blocks:?}, {reorder_window:?})"
        );
        self.check("on_ack");
        got
    }

    fn retransmit(
        &mut self,
        now: SimTime,
        delivered: u64,
        app_limited: bool,
    ) -> Option<(u64, u32)> {
        let got = self.new.take_retransmit(now, delivered, app_limited);
        assert_eq!(
            got,
            self.old.take_retransmit(now, delivered, app_limited),
            "take_retransmit"
        );
        self.check("take_retransmit");
        got
    }

    fn probe(&mut self, now: SimTime) -> Option<(u64, u32)> {
        let got = self.new.probe_last(now);
        assert_eq!(got, self.old.probe_last(now), "probe_last");
        self.check("probe_last");
        got
    }

    fn rto(&mut self) -> u64 {
        let got = self.new.mark_all_lost();
        assert_eq!(got, self.old.mark_all_lost(), "mark_all_lost");
        self.check("mark_all_lost");
        got
    }

    fn check(&self, after: &str) {
        assert_eq!(
            self.new.snd_una(),
            self.old.snd_una(),
            "snd_una after {after}"
        );
        assert_eq!(
            self.new.in_flight(),
            self.old.in_flight(),
            "in_flight after {after}"
        );
        assert_eq!(
            self.new.has_retransmit(),
            self.old.has_retransmit(),
            "has_retransmit after {after}"
        );
        assert_eq!(self.new.len(), self.old.len(), "len after {after}");
        assert_eq!(self.new.is_empty(), self.old.is_empty());
        assert!(
            self.new
                .segments()
                .map(segment_fields)
                .eq(self.old.segments().map(segment_fields)),
            "segments after {after}"
        );
    }

    fn states(&self) -> Vec<SegState> {
        self.new.segments().map(|s| s.state).collect()
    }
}

/// The ack `rx` would send now, blocks as a list.
fn ack_of(rx: &ReceiverModel) -> (u64, Vec<Block>) {
    let (cum, blocks) = rx.ack();
    (cum, blocks.iter().collect())
}

/// What a trace exercised, so the test can insist it was not vacuous.
#[derive(Default, Debug)]
struct Coverage {
    acks: u64,
    stale_acks: u64,
    retransmits: u64,
    probes: u64,
    rtos: u64,
    lost_bytes: u64,
}

/// Drive a whole transfer through both boards: a windowed sender, a
/// channel that drops, reorders and duplicates in both directions, the
/// receiver model, and a sender that retransmits lazily, probes, and
/// times out at random.
fn run_transfer(
    seed: u64,
    window: usize,
    segments: u64,
    loss_pct: u64,
    reorder_pct: u64,
) -> Coverage {
    let mut rng = SimRng::new(seed);
    let mut pair = Pair::new();
    let mut rx = ReceiverModel::default();
    let mut cov = Coverage::default();
    // The last segment is short.
    let total = segments * MSS as u64 - 400;
    let mut next_seq = 0u64;
    let mut now_us = 0u64;
    let mut delivered = 0u64;
    let mut data: VecDeque<(u64, u32)> = VecDeque::new();
    let mut acks: VecDeque<(u64, Vec<Block>)> = VecDeque::new();
    let mut history: Vec<(u64, Vec<Block>)> = Vec::new();
    let mut unacked_arrivals = 0u32;
    let windows = [1u64, 5, 20, 50, 400];
    // Put a segment on the wire; the channel may drop it.
    let transmit = |rng: &mut SimRng, data: &mut VecDeque<(u64, u32)>, seg| {
        if rng.next_below(100) >= loss_pct {
            data.push_back(seg);
        }
    };

    for _step in 0..400_000u32 {
        if next_seq >= total && pair.new.is_empty() {
            assert_eq!(pair.new.snd_una(), total);
            return cov;
        }
        now_us += 1 + rng.next_below(15);
        let now = SimTime::from_micros(now_us);
        let can_send = next_seq < total && pair.new.len() < window;
        let idle = data.is_empty() && acks.is_empty() && unacked_arrivals == 0 && !can_send;
        match rng.next_below(100) {
            // New data, a small burst at a time.
            0..=29 if can_send => {
                for _ in 0..1 + rng.next_below(4) {
                    if next_seq >= total || pair.new.len() >= window {
                        break;
                    }
                    let len = (total - next_seq).min(MSS as u64) as u32;
                    pair.send(next_seq, len, now, delivered, rng.next_below(8) == 0);
                    transmit(&mut rng, &mut data, (next_seq, len));
                    next_seq += len as u64;
                }
            }
            // A segment reaches the receiver.
            30..=59 if !data.is_empty() => {
                let at = if rng.next_below(100) < reorder_pct {
                    rng.next_below(data.len() as u64) as usize
                } else {
                    0
                };
                let Some((seq, len)) = data.remove(at) else {
                    continue;
                };
                if rng.next_below(100) == 0 {
                    data.push_back((seq, len)); // duplicated on the wire
                }
                unacked_arrivals += 1;
                if rx.arrive(seq, seq + len as u64) || unacked_arrivals >= 2 {
                    unacked_arrivals = 0;
                    let ack = ack_of(&rx);
                    history.push(ack.clone());
                    if rng.next_below(100) >= loss_pct {
                        acks.push_back(ack);
                    }
                }
            }
            // An ack reaches the sender, which answers with a few of the
            // retransmissions it owes (not all: Lost segments linger).
            60..=89 if !acks.is_empty() => {
                let at = if rng.next_below(100) < reorder_pct {
                    rng.next_below(acks.len() as u64) as usize
                } else {
                    0
                };
                let Some((cum, blocks)) = acks.remove(at) else {
                    continue;
                };
                if cum < pair.new.snd_una() {
                    cov.stale_acks += 1;
                }
                let reo = SimDuration::from_micros(windows[rng.next_below(5) as usize]);
                let out = pair.ack(cum, &blocks, reo);
                delivered += out.newly_delivered;
                cov.acks += 1;
                cov.lost_bytes += out.newly_lost;
                for _ in 0..rng.next_below(4) {
                    let Some(seg) = pair.retransmit(now, delivered, false) else {
                        break;
                    };
                    cov.retransmits += 1;
                    transmit(&mut rng, &mut data, seg);
                }
            }
            // A cumulative point from one past ack with the blocks of
            // another: old cum + newer blocks, or the reverse.
            90..=92 if history.len() >= 2 => {
                let cum = history[rng.next_below(history.len() as u64) as usize].0;
                let blocks = history[rng.next_below(history.len() as u64) as usize]
                    .1
                    .clone();
                cov.stale_acks += 1;
                delivered += pair.ack(cum, &blocks, REO).newly_delivered;
            }
            93..=95 => {
                if let Some(seg) = pair.retransmit(now, delivered, true) {
                    cov.retransmits += 1;
                    transmit(&mut rng, &mut data, seg);
                }
            }
            // Tail-loss probe.
            96..=97 => {
                if let Some(seg) = pair.probe(now) {
                    cov.probes += 1;
                    transmit(&mut rng, &mut data, seg);
                }
            }
            // Retransmission timeout, spurious or not; always when the
            // connection has nothing else left to wait for.
            98 => {
                pair.rto();
                cov.rtos += 1;
            }
            _ if idle => {
                if !pair.new.has_retransmit() {
                    pair.rto();
                    cov.rtos += 1;
                }
                while let Some(seg) = pair.retransmit(now, delivered, false) {
                    cov.retransmits += 1;
                    transmit(&mut rng, &mut data, seg);
                }
            }
            // The delayed-ack timer.
            _ if unacked_arrivals > 0 => {
                unacked_arrivals = 0;
                let ack = ack_of(&rx);
                history.push(ack.clone());
                acks.push_back(ack);
            }
            _ => {}
        }
    }
    panic!("transfer did not finish: {cov:?}");
}

//= DESIGN.md#sack-runs-and-ordinals
#[test]
fn lossy_reordered_transfers_match_the_reference_step_by_step() {
    let mut total = Coverage::default();
    for seed in 0..24u64 {
        let window = [4usize, 16, 64, 256][seed as usize % 4];
        let loss_pct = [0u64, 2, 5, 15][(seed as usize / 4) % 4];
        let reorder_pct = [0u64, 3, 20][seed as usize % 3];
        let cov = run_transfer(seed, window, 300 + 40 * seed, loss_pct, reorder_pct);
        total.acks += cov.acks;
        total.stale_acks += cov.stale_acks;
        total.retransmits += cov.retransmits;
        total.probes += cov.probes;
        total.rtos += cov.rtos;
        total.lost_bytes += cov.lost_bytes;
    }
    // The traces must have gone through every recovery path.
    assert!(total.acks > 5_000, "{total:?}");
    assert!(total.stale_acks > 100, "{total:?}");
    assert!(total.retransmits > 500, "{total:?}");
    assert!(total.probes > 50 && total.rtos > 20, "{total:?}");
    assert!(total.lost_bytes > 100_000, "{total:?}");
}

//= DESIGN.md#sack-runs-and-ordinals
#[test]
fn a_retransmission_that_fills_a_hole_bridges_two_runs() {
    let mut pair = Pair::with_segments(12);
    pair.ack(0, &[(2000, 5000)], REO);
    // Segment 5 is missing between two sacked stretches; 0 and 1 too.
    let out = pair.ack(0, &[(6000, 9000), (2000, 5000)], REO);
    assert_eq!(out.newly_delivered, 3000);
    assert_eq!(pair.states()[5], SegState::Lost);
    while pair
        .retransmit(SimTime::from_micros(100), 6000, false)
        .is_some()
    {}
    // Its retransmission arrives: the receiver's two blocks become one.
    let out = pair.ack(0, &[(2000, 9000)], REO);
    assert_eq!(out.newly_delivered, 1000, "only the hole is new");
    assert!(pair.states()[2..9].iter().all(|&s| s == SegState::Sacked));
    let again = pair.ack(0, &[(2000, 9000)], REO);
    assert_eq!(outcome_fields(&again), (0, 0, 0, None));
    // The front retransmissions land; the cumulative ack retires the run.
    let out = pair.ack(9000, &[], REO);
    assert_eq!((out.newly_delivered, out.cum_advanced), (2000, 9000));
    assert_eq!(pair.new.len(), 3);
}

//= DESIGN.md#sack-runs-and-ordinals
#[test]
fn blocks_below_and_across_snd_una() {
    let mut pair = Pair::with_segments(10);
    pair.ack(0, &[(3000, 6000)], REO);
    // A cumulative ack that lands inside the sacked run trims it.
    let out = pair.ack(4000, &[(3000, 6000)], REO);
    assert_eq!(out.newly_delivered, 3000, "segments 0..3; 3 was sacked");
    assert_eq!(pair.states()[..2], [SegState::Sacked; 2]);
    // Wholly below snd_una: ignored, and high_sacked does not move.
    let out = pair.ack(4000, &[(1000, 3000)], REO);
    assert_eq!(outcome_fields(&out), (0, 0, 0, None));
    // Partly below: only what is above snd_una and new counts.
    let out = pair.ack(4000, &[(2000, 7000)], REO);
    assert_eq!(out.newly_delivered, 1000);
    assert_eq!(pair.states()[..3], [SegState::Sacked; 3]);
    // Unaligned block edges cover whole segments only.
    // (A 1 us reorder window lets the RACK rule take segment 7.)
    let out = pair.ack(4000, &[(7500, 9999)], SimDuration::from_micros(1));
    assert_eq!(out.newly_delivered, 1000, "just segment 8");
    assert_eq!(
        pair.states()[3..],
        [SegState::Lost, SegState::Sacked, SegState::Outstanding]
    );
}

//= DESIGN.md#sack-runs-and-ordinals
#[test]
fn stale_acks_in_both_directions() {
    let mut pair = Pair::with_segments(16);
    pair.ack(2000, &[(4000, 6000)], REO);
    pair.ack(3000, &[(8000, 10_000), (4000, 6000)], REO);
    // Old cumulative point, newer blocks.
    let out = pair.ack(1000, &[(12_000, 14_000), (8000, 10_000), (4000, 6000)], REO);
    assert_eq!((out.cum_advanced, out.newly_delivered), (0, 2000));
    // Newer cumulative point, blocks from an older ack.
    let out = pair.ack(6000, &[(4000, 6000)], REO);
    assert_eq!(out.cum_advanced, 3000);
    // Both stale: nothing happens.
    let out = pair.ack(2000, &[(4000, 6000)], REO);
    assert_eq!(outcome_fields(&out), (0, 0, 0, None));
    pair.ack(16_000, &[], REO);
    assert!(pair.new.is_empty());
}

//= DESIGN.md#sack-runs-and-ordinals
#[test]
fn probe_and_timeout_leave_sacked_runs_alone() {
    let mut pair = Pair::with_segments(9);
    // A short final segment.
    pair.send(9000, 300, SimTime::from_micros(9), 0, true);
    pair.ack(0, &[(7000, 9300)], REO);
    // The tail is sacked, so the probe re-sends the highest hole.
    assert_eq!(pair.probe(SimTime::from_micros(50)), Some((6000, 1000)));
    assert_eq!(pair.rto(), 1000, "segment 6; 0..6 were already lost");
    assert_eq!(pair.states()[7..], [SegState::Sacked; 3]);
    let mut resent = Vec::new();
    while let Some((seq, _)) = pair.retransmit(SimTime::from_micros(60), 2300, false) {
        resent.push(seq);
    }
    assert_eq!(resent, [0, 1000, 2000, 3000, 4000, 5000, 6000]);
    // A second timeout before anything is acked, then the lot arrives.
    pair.rto();
    pair.ack(3000, &[(4000, 9300)], REO);
    assert_eq!(
        pair.retransmit(SimTime::from_micros(90), 0, false),
        Some((3000, 1000))
    );
    let out = pair.ack(9300, &[], REO);
    assert_eq!(out.newly_delivered, 1000);
    assert!(pair.new.is_empty());
}

#[derive(Clone, Debug)]
enum Op {
    /// Send the next `n` segments.
    Send(u8),
    /// An ack whose cumulative point is segment boundary `cum` (capped at
    /// what was sent; may be stale) with up to three arbitrary byte
    /// ranges as blocks: unaligned, overlapping, below `snd_una`, beyond
    /// the data sent.
    Ack(u16, Vec<(u32, u16)>),
    Retransmit,
    Probe,
    Rto,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..20).prop_map(Op::Send),
        (
            0u16..300,
            proptest::collection::vec((0u32..300_000, 1u16..9_000), 0..4)
        )
            .prop_map(|(cum, blocks)| Op::Ack(cum, blocks)),
        Just(Op::Retransmit),
        Just(Op::Probe),
        Just(Op::Rto),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No receiver at all: whatever blocks an ack carries, the two
    /// boards agree.
    //= DESIGN.md#sack-runs-and-ordinals
    #[test]
    fn arbitrary_acks_match_the_reference(
        ops in proptest::collection::vec(op_strategy(), 1..150),
        reo_us in 1u64..200,
    ) {
        let mut pair = Pair::new();
        let mut next_seq = 0u64;
        let mut delivered = 0u64;
        for (step, op) in ops.iter().enumerate() {
            let now = SimTime::from_micros(7 * step as u64);
            match op {
                Op::Send(n) => {
                    for _ in 0..*n {
                        pair.send(next_seq, MSS, now, delivered, false);
                        next_seq += MSS as u64;
                    }
                }
                Op::Ack(cum, blocks) => {
                    let cum = (*cum as u64 * MSS as u64).min(next_seq);
                    let blocks: Vec<Block> = blocks
                        .iter()
                        .map(|&(start, len)| (start as u64, start as u64 + len as u64))
                        .collect();
                    let out = pair.ack(cum, &blocks, SimDuration::from_micros(reo_us));
                    delivered += out.newly_delivered;
                }
                Op::Retransmit => {
                    pair.retransmit(now, delivered, false);
                }
                Op::Probe => {
                    pair.probe(now);
                }
                Op::Rto => {
                    pair.rto();
                }
            }
        }
    }
}
