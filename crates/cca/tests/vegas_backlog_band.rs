//! Vegas' bottleneck backlog against its band — an oracle that shares no
//! code with `cca::vegas`.
//!
//! Brakmo & Peterson (SIGCOMM 1994): once per RTT, Vegas estimates the
//! segments it keeps queued at the bottleneck as
//! `diff = cwnd (RTT − baseRTT) / RTT`, adds a segment while
//! `diff < α`, removes one while `diff > β`, and holds in between. On a
//! single bottleneck of capacity `C` and propagation RTT `base`, a fluid
//! model gives `RTT = base + max(0, cwnd − BDP) / C`, so above the BDP
//! `diff` is exactly the queued data `cwnd − BDP` in segments: the
//! backlog must settle inside `[α, β]` and the window must then stop
//! moving. The test drives [`Vegas`] with synthetic acks from that model,
//! starting once from a window below the band and once from one above
//! it, with α and β restated here.
//!
//! At a backlog of exactly α the product's floating-point `diff` reads
//! 1.9999999999999978, just under α, so the start from below adds one
//! more segment than the paper's rule and settles at a backlog of 3;
//! from above, `diff` at β reads just under β and the window holds at 4.
//! Both lie inside the band.

use cca::vegas::Vegas;
use netsim::time::{SimDuration, SimTime};
use transport::cc::{AckEvent, CongestionControl, CongestionEvent};

/// The band in segments, restated rather than imported.
const ALPHA: i64 = 2;
const BETA: i64 = 4;

const MSS: u64 = 1000;

/// Propagation RTT of the path.
const BASE_NS: u64 = 100_000;

/// A 10 Gb/s bottleneck drains 5 bytes every 4 ns, so its BDP at
/// `BASE_NS` is 125 000 bytes: 125 segments.
const BDP: u64 = BASE_NS * 5 / 4;

/// Acks per round: Vegas decides on rounds with at least two samples.
const ACKS_PER_ROUND: u64 = 4;

/// Rounds run before the band is checked: the start below it is 122
/// segments short at one segment per round.
const CONVERGE_ROUNDS: u64 = 200;

/// Rounds the window must then hold still.
const HOLD_ROUNDS: u64 = 200;

/// The fluid model's RTT for a window of `cwnd` bytes.
fn model_rtt(cwnd: u64) -> SimDuration {
    let queued = cwnd.saturating_sub(BDP);
    SimDuration::from_nanos(BASE_NS + queued * 4 / 5)
}

/// Queued segments at the bottleneck for a window of `cwnd` bytes
/// (negative while the window is below the BDP).
fn backlog_segs(cwnd: u64) -> i64 {
    (cwnd as i64 - BDP as i64) / MSS as i64
}

/// Drives one Vegas flow through the fluid model, one round at a time.
struct Path {
    cc: Vegas,
    round: u64,
    cum_acked: u64,
    min_rtt: SimDuration,
}

impl Path {
    fn new(cc: Vegas) -> Self {
        Path {
            cc,
            round: 0,
            cum_acked: 0,
            min_rtt: SimDuration::MAX,
        }
    }

    /// One round of acks, each carrying the RTT of the window in force
    /// when it arrives; the round's first ack triggers Vegas' decision
    /// on the round before.
    fn round(&mut self) {
        for _ in 0..ACKS_PER_ROUND {
            let rtt = model_rtt(self.cc.cwnd());
            self.min_rtt = self.min_rtt.min(rtt);
            self.cum_acked += MSS;
            self.cc.on_ack(&AckEvent {
                now: SimTime::from_nanos(self.round * BASE_NS),
                newly_acked_bytes: MSS,
                rtt_sample: Some(rtt),
                srtt: rtt,
                min_rtt: self.min_rtt,
                bytes_in_flight: self.cc.cwnd(),
                delivery_rate: None,
                app_limited: false,
                ce_marked_bytes: 0,
                ecn_echo: false,
                cum_acked: self.cum_acked,
                round: self.round,
                in_recovery: false,
                int: netsim::packet::IntRecord::default(),
                cwnd_limited: true,
            });
        }
        self.round += 1;
    }

    /// Run `CONVERGE_ROUNDS` rounds, check that the backlog lies in
    /// `[α, β]`, then that the window holds still.
    fn settles_in_band(&mut self) {
        for _ in 0..CONVERGE_ROUNDS {
            self.round();
        }
        let settled = self.cc.cwnd();
        assert!(
            (ALPHA..=BETA).contains(&backlog_segs(settled)),
            "backlog {} segments after {CONVERGE_ROUNDS} rounds",
            backlog_segs(settled)
        );
        for n in 1..=HOLD_ROUNDS {
            self.round();
            assert_eq!(
                self.cc.cwnd(),
                settled,
                "window moved {n} rounds after settling at a backlog of {} segments",
                backlog_segs(settled)
            );
        }
    }
}

#[test]
fn backlog_rises_into_the_band() {
    // A loss halves the initial window and leaves slow start.
    let mut cc = Vegas::new(MSS as u32);
    cc.on_congestion_event(&CongestionEvent {
        now: SimTime::ZERO,
        bytes_in_flight: cc.cwnd(),
        srtt: SimDuration::from_nanos(BASE_NS),
    });
    assert!(cc.cwnd() >= cc.ssthresh(), "in congestion avoidance");
    assert!(backlog_segs(cc.cwnd()) < ALPHA);
    Path::new(cc).settles_in_band();
}

#[test]
fn backlog_falls_into_the_band() {
    // Slow start doubles past the BDP before its queue check fires.
    let mut path = Path::new(Vegas::new(MSS as u32));
    while path.cc.cwnd() < path.cc.ssthresh() {
        assert!(path.round < CONVERGE_ROUNDS, "still in slow start");
        path.round();
    }
    assert!(backlog_segs(path.cc.cwnd()) > BETA);
    path.settles_in_band();
}
