//! The congestion-control interface.
//!
//! Mirrors the role of Linux's `tcp_congestion_ops`: the transport machinery
//! (scoreboard, RTO, SACK, pacing) is shared, and algorithms plug in
//! through [`CongestionControl`]. The `cca` crate implements the paper's
//! ten algorithms against this trait; [`FixedCwnd`] here is the minimal
//! implementation used by transport's own tests and by the paper's
//! constant-cwnd baseline module.

use netsim::time::{SimDuration, SimTime};
use netsim::units::Rate;

/// Everything an algorithm may want to know about an acknowledgement.
#[derive(Clone, Copy, Debug)]
pub struct AckEvent {
    /// Current time.
    pub now: SimTime,
    /// Bytes newly acknowledged (cumulatively or via SACK) by this ack.
    pub newly_acked_bytes: u64,
    /// Fresh RTT sample, if one could be taken (Karn's rule filters
    /// retransmissions).
    pub rtt_sample: Option<SimDuration>,
    /// Smoothed RTT estimate.
    pub srtt: SimDuration,
    /// Minimum RTT observed on the connection.
    pub min_rtt: SimDuration,
    /// Bytes in flight *after* processing this ack.
    pub bytes_in_flight: u64,
    /// Sender-side delivery-rate sample (BBR-style), if measurable.
    pub delivery_rate: Option<Rate>,
    /// True if the rate sample was taken while application-limited.
    pub app_limited: bool,
    /// Bytes newly reported CE-marked by the receiver (DCTCP feedback).
    pub ce_marked_bytes: u64,
    /// Classic ECN-Echo flag on this ack.
    pub ecn_echo: bool,
    /// Cumulative bytes acknowledged on the connection so far.
    pub cum_acked: u64,
    /// Monotone round-trip counter (increments once per RTT of acks).
    pub round: u64,
    /// True while the sender is in fast-recovery.
    pub in_recovery: bool,
    /// In-band telemetry echoed by the receiver: the most-utilized hop's
    /// queue occupancy and utilization (HPCC's input). Unstamped when no
    /// INT-capable hop carried the data.
    pub int: netsim::packet::IntRecord,
    /// True if the congestion window actually limited transmission since
    /// the previous ack. When false the sender was application- or
    /// pacing-limited, and window-validation rules (RFC 2861) say the
    /// window must not grow — otherwise an idle or throttled flow inflates
    /// cwnd without ever testing the path.
    pub cwnd_limited: bool,
}

/// A congestion (loss) notification: at most one per round trip, raised
/// when entering fast recovery.
#[derive(Clone, Copy, Debug)]
pub struct CongestionEvent {
    /// Current time.
    pub now: SimTime,
    /// Bytes in flight when the loss was detected.
    pub bytes_in_flight: u64,
    /// Smoothed RTT estimate at the time of loss.
    pub srtt: SimDuration,
}

/// A pluggable congestion-control algorithm. All window quantities are in
/// **bytes**.
pub trait CongestionControl: Send {
    /// Kernel-style algorithm name (`"cubic"`, `"bbr"`, ...).
    fn name(&self) -> &'static str;

    /// Initial congestion window (default: 10 segments, RFC 6928).
    fn initial_cwnd(&self, mss: u32) -> u64 {
        10 * mss as u64
    }

    /// Process an acknowledgement.
    fn on_ack(&mut self, ev: &AckEvent);

    /// A loss-triggered congestion event (entering fast recovery).
    fn on_congestion_event(&mut self, ev: &CongestionEvent);

    /// A retransmission timeout fired: collapse to loss-recovery state.
    fn on_rto(&mut self, now: SimTime, mss: u32);

    /// Current congestion window in bytes.
    fn cwnd(&self) -> u64;

    /// Current slow-start threshold in bytes (`u64::MAX` if unset).
    fn ssthresh(&self) -> u64 {
        u64::MAX
    }

    /// Pacing rate, if the algorithm paces (BBR). `None` means ack-clocked
    /// transmission limited only by cwnd.
    fn pacing_rate(&self) -> Option<Rate> {
        None
    }

    /// True if the algorithm wants ECT marking on its segments (DCTCP).
    fn wants_ecn(&self) -> bool {
        false
    }

    /// True if the algorithm paces its transmissions (BBR family). Paced
    /// senders avoid bursty interrupt/qdisc churn, which raises the host's
    /// sustainable packet rate (see `energy::calibration::PACING_PPS_BONUS`).
    fn uses_pacing(&self) -> bool {
        false
    }

    /// Relative per-ack computation cost of this algorithm, used by the
    /// energy model; 1.0 is the reference (CUBIC). The paper's §4.3
    /// attributes inter-CCA energy differences partly to "cwnd calculation
    /// arithmetic" and per-ack bookkeeping; this factor is each
    /// implementation's estimate of that work.
    fn compute_cost_factor(&self) -> f64 {
        1.0
    }
}

/// The paper's custom baseline: a constant, large congestion window and no
/// per-ack computation at all. §4.3: "a new kernel module that replaces
/// any CC mechanism with a large, constant cwnd value". `cca`'s
/// `CcaKind::Baseline` builds it. RTO, SACK and loss recovery still run;
/// only the window never moves. With no congestion response it must
/// never share a path with competing flows (the paper's footnote 2).
#[derive(Debug, Clone)]
pub struct FixedCwnd {
    cwnd_bytes: u64,
}

impl FixedCwnd {
    /// A fixed window of `cwnd_bytes`.
    pub fn new(cwnd_bytes: u64) -> Self {
        assert!(cwnd_bytes > 0);
        FixedCwnd { cwnd_bytes }
    }
}

impl CongestionControl for FixedCwnd {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn initial_cwnd(&self, _mss: u32) -> u64 {
        self.cwnd_bytes
    }

    fn on_ack(&mut self, _ev: &AckEvent) {}

    fn on_congestion_event(&mut self, _ev: &CongestionEvent) {}

    fn on_rto(&mut self, _now: SimTime, _mss: u32) {}

    fn cwnd(&self) -> u64 {
        self.cwnd_bytes
    }

    fn compute_cost_factor(&self) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_cwnd_never_moves() {
        let mut cc = FixedCwnd::new(1_000_000);
        assert_eq!(cc.cwnd(), 1_000_000);
        assert_eq!(cc.initial_cwnd(1448), 1_000_000);
        cc.on_ack(&AckEvent {
            now: SimTime::ZERO,
            newly_acked_bytes: 100_000,
            rtt_sample: Some(SimDuration::from_micros(100)),
            srtt: SimDuration::from_micros(100),
            min_rtt: SimDuration::from_micros(100),
            bytes_in_flight: 0,
            delivery_rate: None,
            app_limited: false,
            ce_marked_bytes: 0,
            ecn_echo: false,
            cum_acked: 100_000,
            round: 1,
            in_recovery: false,
            int: netsim::packet::IntRecord::default(),
            cwnd_limited: true,
        });
        cc.on_congestion_event(&CongestionEvent {
            now: SimTime::ZERO,
            bytes_in_flight: 500_000,
            srtt: SimDuration::from_micros(100),
        });
        cc.on_rto(SimTime::ZERO, 1448);
        assert_eq!(cc.cwnd(), 1_000_000);
        assert_eq!(cc.ssthresh(), u64::MAX);
        assert!(cc.pacing_rate().is_none());
        assert!(!cc.wants_ecn());
        assert_eq!(cc.compute_cost_factor(), 0.0);
        assert_eq!(cc.name(), "baseline");
    }

    //= rfc9002#section-7
    #[test]
    fn default_initial_window_is_ten_segments() {
        struct Dummy;
        impl CongestionControl for Dummy {
            fn name(&self) -> &'static str {
                "dummy"
            }
            fn on_ack(&mut self, _ev: &AckEvent) {}
            fn on_congestion_event(&mut self, _ev: &CongestionEvent) {}
            fn on_rto(&mut self, _now: SimTime, _mss: u32) {}
            fn cwnd(&self) -> u64 {
                0
            }
        }
        assert_eq!(Dummy.initial_cwnd(1448), 14_480);
        assert_eq!(Dummy.compute_cost_factor(), 1.0);
    }
}
