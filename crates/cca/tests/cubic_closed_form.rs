//! CUBIC against its closed form — an oracle that shares no code with
//! `cca::cubic`.
//!
//! RFC 9438 §4.2: after a congestion event at window `W_max` the window
//! follows `W(t) = C (t - K)^3 + W_max`, `K = cbrt(W_max (1 - beta) / C)`:
//! it starts at `beta W_max`, flattens out at `W_max` when `t = K`, then
//! probes beyond. The test drives [`Cubic`] with synthetic cwnd-limited
//! acks at a fixed RTT — one window's worth per round trip, spread evenly
//! over it, as an ack clock would — and compares the window at every
//! round boundary over `[0, 1.5 K]` with the formula, written out here
//! from the RFC with its own constants.
//!
//! The two `(RTT, W_max)` points are chosen so that the Reno-friendly
//! estimate `W_est(t) = beta W_max + 3 (1 - beta) / (1 + beta) t / RTT`
//! (§4.3) stays below the cubic curve over the whole interval — each
//! sample asserts that, so a point where the floor binds fails as a bad
//! point instead of being compared with the wrong curve.
//!
//! Tolerance: [`TOLERANCE_SEGS`] = 1 segment, the resolution of the
//! quantity being compared. The per-ack rule closes `1/cwnd` of the gap
//! to `W(t + RTT)` per acked segment; with the target one RTT ahead the
//! first-order lag cancels, and what is left is the curvature term (at
//! most `|W''| RTT^2 / 2 = 3 C K RTT^2`: 0.08 and 0.2 segments at the two
//! points) plus the truncation of the window to whole bytes on every ack.
//! Measured worst case when this was written: 0.40 and 0.28 segments.

use cca::cubic::Cubic;
use netsim::time::{SimDuration, SimTime};
use transport::cc::{AckEvent, CongestionControl, CongestionEvent};

/// RFC 9438 §4.6 / §5: the constants, restated rather than imported.
const C: f64 = 0.4;
const BETA: f64 = 0.7;

const MSS: u64 = 1000;

/// Largest allowed |window - W(t)|, in segments.
const TOLERANCE_SEGS: f64 = 1.0;

fn ack(now: SimTime, bytes: u64, rtt: SimDuration) -> AckEvent {
    AckEvent {
        now,
        newly_acked_bytes: bytes,
        rtt_sample: Some(rtt),
        srtt: rtt,
        min_rtt: rtt,
        bytes_in_flight: 0,
        delivery_rate: None,
        app_limited: false,
        ce_marked_bytes: 0,
        ecn_echo: false,
        cum_acked: 0,
        round: 0,
        in_recovery: false,
        int: netsim::packet::IntRecord::default(),
        cwnd_limited: true,
    }
}

/// Assert |window - W(t)| <= tolerance at every round boundary of `[0, 1.5 K]`.
fn follows_the_closed_form(rtt: SimDuration, w_max: u64) {
    let mut cc = Cubic::new(MSS as u32);
    // Slow start from the initial ten segments straight to W_max, then
    // the one congestion event.
    cc.on_ack(&ack(SimTime::ZERO, (w_max - 10) * MSS, rtt));
    assert_eq!(cc.cwnd(), w_max * MSS);
    let epoch = SimTime::from_secs(1);
    cc.on_congestion_event(&CongestionEvent {
        now: epoch,
        bytes_in_flight: cc.cwnd(),
        srtt: rtt,
    });

    let w_max = w_max as f64;
    let rtt_s = rtt.as_secs_f64();
    let k = (w_max * (1.0 - BETA) / C).cbrt();
    let w = |t: f64| C * (t - k).powi(3) + w_max;
    let w_est = |t: f64| BETA * w_max + 3.0 * (1.0 - BETA) / (1.0 + BETA) * t / rtt_s;

    let rounds = (1.5 * k / rtt_s).ceil() as u64;
    let plateau_round = (k / rtt_s).round() as u64;
    for n in 0..=rounds {
        let t = n as f64 * rtt_s;
        let segs = cc.cwnd() as f64 / MSS as f64;
        assert!(
            n == 0 || w_est(t) < w(t),
            "bad point: the Reno-friendly floor binds at t = {t:.2} s"
        );
        assert!(
            (segs - w(t)).abs() <= TOLERANCE_SEGS,
            "t = {t:.2} s (K = {k:.2} s): window {segs:.2} segments, W(t) = {:.2}",
            w(t)
        );
        if n == plateau_round {
            assert!(
                (segs - w_max).abs() <= TOLERANCE_SEGS,
                "plateau at t = {t:.2} s ~ K: window {segs:.2}, W_max {w_max}"
            );
        }
        // One window's worth of acks, evenly spaced over the next RTT.
        let acks = cc.cwnd() / MSS;
        let round_start = epoch.as_nanos() + n * rtt.as_nanos();
        for i in 1..=acks {
            let now = SimTime::from_nanos(round_start + rtt.as_nanos() * i / acks);
            cc.on_ack(&ack(now, MSS, rtt));
        }
    }
}

#[test]
fn window_follows_w_of_t_at_100ms_and_400_segments() {
    // K = cbrt(300) = 6.69 s: 101 round trips.
    follows_the_closed_form(SimDuration::from_millis(100), 400);
}

#[test]
fn window_follows_w_of_t_at_200ms_and_100_segments() {
    // K = cbrt(75) = 4.22 s: 32 round trips.
    follows_the_closed_form(SimDuration::from_millis(200), 100);
}
