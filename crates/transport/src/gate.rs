//! Transmission gating: application rate limiting, congestion-control
//! pacing, and the host's packet-processing ceiling, unified as a single
//! earliest-send-time computation.
//!
//! The paper's experiments throttle iperf3 flows to fixed bitrates
//! ("sending smoothly at a certain throughput", Fig. 2) — that is the
//! `app_rate` limit here. BBR contributes a `pacing_rate`. The per-packet
//! ceiling (`min_gap`) models the kernel's packet-processing limit that
//! keeps small-MTU senders below line rate (§4.4).

use netsim::time::{SimDuration, SimTime};
use netsim::units::Rate;

/// Computes when the next packet may be handed to the NIC.
#[derive(Clone, Debug)]
pub struct SendGate {
    /// Application-level throttle (iperf3 `-b`), if any.
    app_rate: Option<Rate>,
    /// Minimum inter-packet gap (host pps ceiling); `ZERO` disables.
    min_gap: SimDuration,
    /// Next instant a packet may start.
    next_allowed: SimTime,
}

impl SendGate {
    /// An ungated sender.
    pub fn new() -> Self {
        SendGate {
            app_rate: None,
            min_gap: SimDuration::ZERO,
            next_allowed: SimTime::ZERO,
        }
    }

    /// Set (or clear) the application rate limit.
    pub fn set_app_rate(&mut self, rate: Option<Rate>) {
        self.app_rate = rate;
    }

    /// The application rate limit, if any.
    pub fn app_rate(&self) -> Option<Rate> {
        self.app_rate
    }

    /// Set the host per-packet processing gap.
    pub fn set_min_gap(&mut self, gap: SimDuration) {
        self.min_gap = gap;
    }

    /// Earliest time the next packet may be sent.
    pub fn earliest(&self, now: SimTime) -> SimTime {
        self.next_allowed.max(now)
    }

    /// True if a packet may be sent right now.
    pub fn ready(&self, now: SimTime) -> bool {
        self.next_allowed <= now
    }

    /// Account for a packet of `wire_bytes` sent at `now`, applying the
    /// strictest of the three spacings. `pacing` is the CC's current
    /// pacing rate, if it paces.
    ///
    /// The pump only sends when the gate is `ready`. A loss probe fires
    /// on its own timer and is not held by the pacer; it is charged from
    /// `next_allowed`, so the data that follows it still waits its full
    /// gap and the long-term rate holds.
    pub fn on_send(&mut self, now: SimTime, wire_bytes: u64, pacing: Option<Rate>) {
        let start = self.earliest(now);
        let mut gap = self.min_gap;
        if let Some(rate) = self.app_rate {
            gap = gap.max(rate.serialization_time(wire_bytes));
        }
        if let Some(rate) = pacing {
            if !rate.is_zero() {
                gap = gap.max(rate.serialization_time(wire_bytes));
            }
        }
        self.next_allowed = start + gap;
    }
}

impl Default for SendGate {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ungated_is_always_ready() {
        let mut g = SendGate::new();
        let now = SimTime::from_millis(5);
        assert!(g.ready(now));
        g.on_send(now, 1500, None);
        assert!(g.ready(now), "no limits -> zero gap");
    }

    #[test]
    fn app_rate_spaces_packets() {
        let mut g = SendGate::new();
        g.set_app_rate(Some(Rate::from_gbps(1.0)));
        let t0 = SimTime::ZERO;
        g.on_send(t0, 1500, None);
        // 1500 B at 1 Gb/s = 12 us.
        assert_eq!(g.earliest(t0), SimTime::from_micros(12));
        assert!(!g.ready(SimTime::from_micros(11)));
        assert!(g.ready(SimTime::from_micros(12)));
    }

    #[test]
    fn min_gap_enforces_pps_ceiling() {
        let mut g = SendGate::new();
        g.set_min_gap(SimDuration::from_micros(2));
        g.on_send(SimTime::ZERO, 100, None);
        assert_eq!(g.earliest(SimTime::ZERO), SimTime::from_micros(2));
    }

    #[test]
    fn strictest_limit_wins() {
        let mut g = SendGate::new();
        g.set_app_rate(Some(Rate::from_gbps(10.0))); // 1.2 us per 1500 B
        g.set_min_gap(SimDuration::from_micros(2)); // stricter
        g.on_send(SimTime::ZERO, 1500, Some(Rate::from_gbps(5.0))); // 2.4 us, strictest
        assert_eq!(g.earliest(SimTime::ZERO), SimTime::from_nanos(2_400));
    }

    #[test]
    fn spacing_accumulates_from_virtual_clock() {
        // Two sends back-to-back at t=0 with a 10 us gap: the second is
        // blocked; after waiting, the third spaces from the *allowed*
        // time, not from `now`, so there is no long-term rate drift.
        let mut g = SendGate::new();
        g.set_min_gap(SimDuration::from_micros(10));
        g.on_send(SimTime::ZERO, 100, None);
        let t1 = g.earliest(SimTime::ZERO);
        g.on_send(t1, 100, None);
        assert_eq!(g.earliest(t1), SimTime::from_micros(20));
    }

    #[test]
    fn a_send_ahead_of_the_gate_is_charged_from_next_allowed() {
        // A loss probe at t = 4 us while the gate is closed until 10 us:
        // the next data segment is pushed out to 20 us, not 14 us.
        let mut g = SendGate::new();
        g.set_min_gap(SimDuration::from_micros(10));
        g.on_send(SimTime::ZERO, 100, None);
        let probe_at = SimTime::from_micros(4);
        assert!(!g.ready(probe_at));
        g.on_send(probe_at, 100, None);
        assert_eq!(g.earliest(probe_at), SimTime::from_micros(20));
    }

    #[test]
    fn zero_pacing_rate_is_ignored() {
        let mut g = SendGate::new();
        g.on_send(SimTime::ZERO, 1500, Some(Rate::ZERO));
        assert!(g.ready(SimTime::ZERO));
    }

    #[test]
    fn average_rate_matches_app_limit() {
        let mut g = SendGate::new();
        g.set_app_rate(Some(Rate::from_mbps(100.0)));
        let mut now = SimTime::ZERO;
        let mut sent = 0u64;
        for _ in 0..1000 {
            now = g.earliest(now);
            g.on_send(now, 1500, None);
            sent += 1500;
        }
        let end = g.earliest(now);
        let rate = sent as f64 * 8.0 / end.as_secs_f64();
        assert!((rate - 100e6).abs() / 100e6 < 0.001, "rate={rate}");
    }
}
