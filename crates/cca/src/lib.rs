//! # cca — the paper's ten congestion control algorithms
//!
//! From-scratch implementations of every algorithm benchmarked in
//! "Green With Envy" §3, against the `transport` crate's
//! [`transport::cc::CongestionControl`] trait:
//!
//! | name | reference | module |
//! |---|---|---|
//! | `reno` | RFC 5681 | [`reno`] |
//! | `cubic` | RFC 8312 | [`cubic`] |
//! | `dctcp` | Alizadeh et al., SIGCOMM '10 | [`dctcp`] |
//! | `vegas` | Brakmo & Peterson, SIGCOMM '94 | [`vegas`] |
//! | `westwood` | Gerla et al., GLOBECOM '01 | [`westwood`] |
//! | `highspeed` | RFC 3649 | [`highspeed`] |
//! | `scalable` | Kelly, CCR '03 | [`scalable`] |
//! | `bbr` | Cardwell et al., CACM '17 | [`bbr`] |
//! | `bbr2` (alpha) | IETF-104 slides, 2019 | [`bbr`] |
//! | `baseline` | the paper's constant-cwnd kernel module | [`transport::cc::FixedCwnd`] |
//!
//! Beyond the paper's ten, the §5 "benchmark the production algorithms"
//! call is answered with [`swift`] (SIGCOMM '20) and [`hpcc`]
//! (SIGCOMM '19, over the simulator's INT telemetry substrate) — see
//! [`registry::CcaKind::EXTENDED`].
//!
//! Each controller also carries a `compute_cost_factor` — its relative
//! per-ack computation cost, which the energy model multiplies into the
//! per-ack Joule charge. Factors are calibrated to reproduce the measured
//! power ordering of the paper's Figure 6 (see `DESIGN.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bbr;
pub mod common;
pub mod cubic;
pub mod dctcp;
pub mod highspeed;
pub mod hpcc;
pub mod registry;
pub mod reno;
pub mod scalable;
pub mod swift;
pub mod vegas;
pub mod westwood;

pub use registry::{CcaConfig, CcaKind};

/// Builders of synthetic [`transport::cc::AckEvent`]s for algorithm unit
/// tests.
#[cfg(test)]
pub(crate) mod testutil {
    use netsim::time::{SimDuration, SimTime};
    use netsim::units::Rate;
    use transport::cc::{AckEvent, CongestionEvent};

    /// A minimal ack: `bytes` newly acked in `round`.
    pub fn ack(bytes: u64, round: u64) -> AckEvent {
        AckEvent {
            now: SimTime::ZERO,
            newly_acked_bytes: bytes,
            rtt_sample: Some(SimDuration::from_micros(100)),
            srtt: SimDuration::from_micros(100),
            min_rtt: SimDuration::from_micros(100),
            bytes_in_flight: 0,
            delivery_rate: None,
            app_limited: false,
            ce_marked_bytes: 0,
            ecn_echo: false,
            cum_acked: 0,
            round,
            in_recovery: false,
            int: netsim::packet::IntRecord::default(),
            cwnd_limited: true,
        }
    }

    /// An ack at a specific time.
    pub fn ack_at(bytes: u64, now: SimTime) -> AckEvent {
        AckEvent {
            now,
            ..ack(bytes, 0)
        }
    }

    /// An ack in a specific round at a specific time with a given RTT.
    pub fn ack_at_round(bytes: u64, now: SimTime, round: u64, rtt_us: u64) -> AckEvent {
        AckEvent {
            now,
            rtt_sample: Some(SimDuration::from_micros(rtt_us)),
            srtt: SimDuration::from_micros(rtt_us),
            min_rtt: SimDuration::from_micros(rtt_us),
            ..ack(bytes, round)
        }
    }

    /// An ack with distinct current and minimum RTTs (Vegas tests).
    pub fn ack_with_rtt(
        bytes: u64,
        now: SimTime,
        round: u64,
        rtt_us: u64,
        base_us: u64,
    ) -> AckEvent {
        AckEvent {
            now,
            rtt_sample: Some(SimDuration::from_micros(rtt_us)),
            srtt: SimDuration::from_micros(rtt_us),
            min_rtt: SimDuration::from_micros(base_us),
            ..ack(bytes, round)
        }
    }

    /// An ack carrying CE-marked bytes and a cumulative position.
    pub fn ack_marked(bytes: u64, marked: u64, cum: u64) -> AckEvent {
        AckEvent {
            ce_marked_bytes: marked,
            cum_acked: cum,
            ..ack(bytes, 0)
        }
    }

    /// The full-fat ack used by BBR tests: delivery rate and flight.
    pub fn ack_full(
        bytes: u64,
        now: SimTime,
        round: u64,
        rtt_us: u64,
        min_rtt_us: u64,
        rate_gbps: Option<f64>,
        flight: u64,
    ) -> AckEvent {
        AckEvent {
            now,
            rtt_sample: Some(SimDuration::from_micros(rtt_us)),
            srtt: SimDuration::from_micros(rtt_us),
            min_rtt: SimDuration::from_micros(min_rtt_us),
            bytes_in_flight: flight,
            delivery_rate: rate_gbps.map(Rate::from_gbps),
            ..ack(bytes, round)
        }
    }

    /// A congestion event at the given flight size.
    pub fn congestion(flight: u64) -> CongestionEvent {
        CongestionEvent {
            now: SimTime::ZERO,
            bytes_in_flight: flight,
            srtt: SimDuration::from_micros(100),
        }
    }

    /// A congestion event at a specific time.
    pub fn congestion_at(flight: u64, now: SimTime) -> CongestionEvent {
        CongestionEvent {
            now,
            ..congestion(flight)
        }
    }
}

/// The `baseline` row of the table: what [`CcaKind::Baseline`] builds.
#[cfg(test)]
mod baseline {
    mod tests {
        use crate::testutil::{ack, congestion};
        use crate::{CcaConfig, CcaKind};

        #[test]
        fn window_never_moves() {
            let cfg = CcaConfig::new(1448).with_baseline_cwnd(5_000_000);
            let mut cc = CcaKind::Baseline.build(&cfg);
            cc.on_ack(&ack(100_000, 1));
            cc.on_congestion_event(&congestion(1_000_000));
            cc.on_rto(netsim::time::SimTime::ZERO, 1448);
            assert_eq!(cc.cwnd(), 5_000_000);
        }

        #[test]
        fn zero_compute_cost() {
            let cc = CcaKind::Baseline.build(&CcaConfig::new(1448).with_baseline_cwnd(1));
            assert_eq!(cc.compute_cost_factor(), 0.0);
            assert_eq!(cc.name(), "baseline");
        }
    }
}
