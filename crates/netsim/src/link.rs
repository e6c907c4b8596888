//! Unidirectional links.
//!
//! A link ([`LinkSpec`] + engine-internal state) connects a source node
//! to a destination node and models the
//! two delays that matter for congestion control: *serialization* (packet
//! size over link rate) and *propagation* (constant). Packets waiting for
//! the transmitter sit in the link's queue discipline.
//!
//! Links can also model a host-side packet-processing ceiling via
//! `min_pkt_gap`: the transmitter will not start packets closer together
//! than this gap even if serialization is faster. This reproduces the
//! paper's observation that small MTUs cannot reach 10 Gb/s line rate —
//! the per-packet CPU/interrupt cost, not the wire, becomes the bottleneck.

use crate::fault::FaultState;
use crate::ids::NodeId;
use crate::packet::Packet;
use crate::pool::FrameRef;
use crate::queue::{DropTailQueue, Qdisc};
use crate::time::{SimDuration, SimTime};
use crate::units::Rate;

/// Configuration for one unidirectional link.
pub struct LinkSpec {
    /// Wire rate.
    pub rate: Rate,
    /// Propagation delay (distance / signal speed).
    pub prop_delay: SimDuration,
    /// Egress buffer discipline.
    pub qdisc: Box<dyn Qdisc>,
    /// Minimum spacing between packet transmissions; `ZERO` disables the
    /// processing cap. See the module docs.
    pub min_pkt_gap: SimDuration,
}

impl LinkSpec {
    /// A link with a plain drop-tail buffer and no processing cap.
    pub fn droptail(rate: Rate, prop_delay: SimDuration, buffer_bytes: u64) -> Self {
        LinkSpec {
            rate,
            prop_delay,
            qdisc: Box::new(DropTailQueue::new(buffer_bytes)),
            min_pkt_gap: SimDuration::ZERO,
        }
    }

    /// Add a per-packet processing gap (a pps ceiling of `1/gap`).
    pub fn with_min_pkt_gap(mut self, gap: SimDuration) -> Self {
        self.min_pkt_gap = gap;
        self
    }
}

/// Lifetime transmit counters for a link.
///
/// The `injected_*` counters attribute losses to the fault layer
/// ([`crate::fault::FaultSpec`]); congestive drops never appear here —
/// they are counted at the queue ([`crate::queue::QueueStats`]) before
/// the frame ever reaches the wire, so the two tallies are disjoint.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkStats {
    /// Packets fully serialized onto the wire.
    pub tx_pkts: u64,
    /// Wire bytes fully serialized.
    pub tx_bytes: u64,
    /// Cumulative time the transmitter spent busy.
    pub busy_time: SimDuration,
    /// Frames lost to injected faults (random drops + outages).
    pub injected_drops: u64,
    /// Frames bit-corrupted by injected faults.
    pub injected_corrupts: u64,
    /// Frames duplicated by injected faults.
    pub injected_dups: u64,
    /// Frames held back for reordering by injected faults.
    pub injected_reorders: u64,
}

impl LinkStats {
    /// Fraction of `elapsed` the transmitter was busy.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.busy_time.as_secs_f64() / elapsed.as_secs_f64()
    }
}

/// Runtime state of a link inside the engine.
pub(crate) struct LinkState {
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    pub(crate) rate: Rate,
    pub(crate) prop_delay: SimDuration,
    pub(crate) qdisc: Box<dyn Qdisc>,
    pub(crate) min_pkt_gap: SimDuration,
    /// Frame currently being serialized, if any (a ref into the
    /// engine's frame pool).
    pub(crate) in_flight: Option<FrameRef>,
    /// When the current serialization began (valid while `in_flight`).
    pub(crate) tx_started: SimTime,
    /// EWMA of recent utilization (busy fraction between transmission
    /// starts), exported through in-band telemetry.
    pub(crate) util_ewma: f64,
    /// Start of the previous transmission, for the utilization estimate.
    pub(crate) prev_tx_started: Option<SimTime>,
    /// Fault injection state, if a [`crate::fault::FaultSpec`] is
    /// installed. `None` keeps the fault-free hot path to one branch.
    pub(crate) fault: Option<FaultState>,
    pub(crate) stats: LinkStats,
    /// The link rate in whole Mb/s, for in-band telemetry stamps.
    /// Constant per link, so computed once instead of per data frame.
    pub(crate) mbps: u32,
    /// One-slot serialization-time memo: a link carries nearly uniform
    /// frame sizes (full segments one way, acks the other), so the
    /// float division in [`Rate::serialization_time`] is paid only when
    /// the size actually changes. Same inputs, same function — the
    /// cached result is bit-identical to recomputing.
    ser_memo: (u64, SimDuration),
    /// The same memo for [`LinkState::update_util`]: the last
    /// `(occupancy, gap)` pair and its busy fraction. A link fed at a
    /// steady rate — saturated, behind a paced or pps-capped sender, or
    /// carrying an ack stream — repeats the pair packet after packet, so
    /// the two float divisions are paid only when one of them changes.
    util_memo: (SimDuration, SimDuration, f64),
}

impl LinkState {
    pub(crate) fn new(src: NodeId, dst: NodeId, spec: LinkSpec) -> Self {
        LinkState {
            src,
            dst,
            rate: spec.rate,
            prop_delay: spec.prop_delay,
            qdisc: spec.qdisc,
            min_pkt_gap: spec.min_pkt_gap,
            in_flight: None,
            tx_started: SimTime::ZERO,
            util_ewma: 0.0,
            prev_tx_started: None,
            fault: None,
            stats: LinkStats::default(),
            mbps: (spec.rate.bps() / 1e6).round().max(1.0) as u32,
            ser_memo: (u64::MAX, SimDuration::ZERO),
            util_memo: (SimDuration::ZERO, SimDuration::ZERO, 0.0),
        }
    }

    /// Update the utilization EWMA for a transmission starting at `now`
    /// that will occupy the transmitter for `occupancy`.
    pub(crate) fn update_util(&mut self, now: SimTime, occupancy: SimDuration) {
        if let Some(prev) = self.prev_tx_started {
            let gap = now.saturating_since(prev);
            if !gap.is_zero() {
                let (occ, gap_memo, _) = self.util_memo;
                if occ != occupancy || gap_memo != gap {
                    let inst = (occupancy.as_secs_f64() / gap.as_secs_f64()).min(1.0);
                    self.util_memo = (occupancy, gap, inst);
                }
                self.util_ewma = 0.875 * self.util_ewma + 0.125 * self.util_memo.2;
            }
        } else {
            self.util_ewma = 1.0; // first packet: transmitter fully busy
        }
        self.prev_tx_started = Some(now);
    }

    /// Time the transmitter occupies for `pkt`: serialization, but never
    /// less than the processing gap.
    pub(crate) fn occupancy_time(&mut self, pkt: &Packet) -> SimDuration {
        let bytes = pkt.wire_bytes as u64;
        if self.ser_memo.0 != bytes {
            self.ser_memo = (bytes, self.rate.serialization_time(bytes));
        }
        self.ser_memo.1.max(self.min_pkt_gap)
    }

    pub(crate) fn is_busy(&self) -> bool {
        self.in_flight.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `update_util`'s memo keeps the bits of the formula it caches,
    /// `min(occupancy_s / gap_s, 1)` with both sides converted to seconds
    /// per packet, over saturated, idle and zero gaps and repeated and
    /// changing occupancies.
    #[test]
    fn update_util_matches_the_two_division_formula() {
        let spec = LinkSpec::droptail(Rate::from_gbps(10.0), SimDuration::ZERO, 1);
        let mut link = LinkState::new(NodeId::from_raw(0), NodeId::from_raw(1), spec);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = SimTime::from_micros(3);
        link.update_util(now, SimDuration::from_nanos(1_200));
        let mut want = 1.0f64;
        for _ in 0..20_000 {
            let occ = SimDuration::from_nanos(
                [1_200, 67, 1_200, 7_200, next() % 50_000][next() as usize % 5],
            );
            let gap = match next() % 4 {
                0 => occ,
                1 => SimDuration::from_nanos(occ.as_nanos() / 2),
                2 => SimDuration::ZERO,
                _ => SimDuration::from_nanos(next() % 100_000),
            };
            now += gap;
            link.update_util(now, occ);
            if !gap.is_zero() {
                let inst = (occ.as_secs_f64() / gap.as_secs_f64()).min(1.0);
                want = 0.875 * want + 0.125 * inst;
            }
            assert_eq!(
                link.util_ewma.to_bits(),
                want.to_bits(),
                "gap {gap:?} occ {occ:?}"
            );
        }
    }
}
