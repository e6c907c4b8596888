//! The simulated packet.
//!
//! A [`Packet`] models one on-wire frame: either a data segment or an
//! acknowledgement. It carries exactly the header fields the experiments
//! need (sequence numbers, SACK blocks, ECN codepoints, timestamps) and no
//! byte payloads — the simulator tracks payload *sizes*, not contents.

use crate::ids::{FlowId, NodeId};
use crate::time::SimTime;
use core::fmt;

/// Combined IPv4 + TCP header bytes charged to every packet on the wire.
///
/// 20 bytes IPv4 + 20 bytes TCP. Options (SACK, timestamps) are ignored for
/// sizing, matching how iperf3 goodput is usually reasoned about.
pub const HEADER_BYTES: u32 = 40;

/// ECN codepoint carried in the IP header.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EcnCodepoint {
    /// Sender does not support ECN; congested queues must drop.
    #[default]
    NotEct,
    /// ECN-capable transport; congested queues may mark instead of drop.
    Ect0,
    /// Congestion Experienced: set by a queue that would otherwise drop.
    Ce,
}

impl EcnCodepoint {
    /// True if the packet may be CE-marked rather than dropped.
    #[inline]
    pub fn is_capable(self) -> bool {
        !matches!(self, EcnCodepoint::NotEct)
    }

    /// True if the packet has been marked Congestion Experienced.
    #[inline]
    pub fn is_ce(self) -> bool {
        matches!(self, EcnCodepoint::Ce)
    }
}

/// In-band network telemetry stamped by INT-capable switches (the
/// substrate HPCC-style algorithms need; Tofino, the paper's switch,
/// supports INT in silicon). One record carries the most-utilized hop's
/// state; hops overwrite it when their utilization is higher.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntRecord {
    /// Queue occupancy at the stamping hop, in bytes.
    pub queue_bytes: u32,
    /// The hop's recent link utilization, in thousandths (0..=1000).
    pub util_x1000: u16,
    /// The hop's link rate in Mb/s (for normalizing queue terms).
    pub link_mbps: u32,
}

impl IntRecord {
    /// True if any hop stamped this record.
    pub fn is_stamped(&self) -> bool {
        self.link_mbps > 0
    }

    /// HPCC's normalized utilization estimate `U = qlen/(B*T) + txRate/B`
    /// with `t_base_s` as the base RTT `T`.
    pub fn normalized_utilization(&self, t_base_s: f64) -> f64 {
        if !self.is_stamped() {
            return 0.0;
        }
        let b_bytes_per_s = self.link_mbps as f64 * 1e6 / 8.0;
        self.queue_bytes as f64 / (b_bytes_per_s * t_base_s) + self.util_x1000 as f64 / 1000.0
    }
}

/// Maximum SACK blocks carried per ACK (RFC 2018 allows 3-4 with
/// timestamps; we model 3).
pub const MAX_SACK_BLOCKS: usize = 3;

/// A compact, fixed-capacity set of SACK ranges `[start, end)` in byte
/// sequence space, most recently received first.
///
/// A block is stored as a 64-bit start and a 32-bit length, so the set
/// is 40 bytes and an ack fits a 128-byte [`Packet`]. A block longer
/// than `u32::MAX` bytes keeps only its first `u32::MAX` bytes: the set
/// can under-report what arrived, never over-report it. A real block
/// lies inside the receiver's out-of-order window, a few MB at most.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SackBlocks {
    starts: [u64; MAX_SACK_BLOCKS],
    lens: [u32; MAX_SACK_BLOCKS],
    len: u8,
}

impl SackBlocks {
    /// An empty set of blocks.
    pub const EMPTY: SackBlocks = SackBlocks {
        starts: [0; MAX_SACK_BLOCKS],
        lens: [0; MAX_SACK_BLOCKS],
        len: 0,
    };

    /// Number of blocks present.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if no blocks are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a block in insertion order, silently dropping the *oldest*
    /// (first-inserted) block when full. Blocks are half-open byte ranges
    /// `[start, end)`; empty ranges are ignored, and a range longer than
    /// `u32::MAX` bytes is cut to its first `u32::MAX`. Callers that want
    /// RFC 2018's most-recent-first wire order (the receiver) push in that
    /// order themselves.
    pub fn push(&mut self, start: u64, end: u64) {
        if end <= start {
            return;
        }
        let len = (end - start).min(u32::MAX as u64) as u32;
        let i = if (self.len as usize) < MAX_SACK_BLOCKS {
            self.len += 1;
            self.len as usize - 1
        } else {
            // Shift left, dropping the oldest (first) entry; append.
            self.starts.copy_within(1..MAX_SACK_BLOCKS, 0);
            self.lens.copy_within(1..MAX_SACK_BLOCKS, 0);
            MAX_SACK_BLOCKS - 1
        };
        self.starts[i] = start;
        self.lens[i] = len;
    }

    /// Iterate over present blocks as `(start, end)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        // `start + len` cannot overflow: `push` stored `len <= end - start`.
        self.starts
            .iter()
            .zip(&self.lens)
            .take(self.len as usize)
            .map(|(&s, &l)| (s, s + l as u64))
    }
}

/// Acknowledgement header fields.
///
/// The echo of the latest data segment's in-band telemetry is not here:
/// it rides in the ack frame's own [`Packet::int`], which no hop stamps
/// on an ack.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AckInfo {
    /// Cumulative ack: the next byte the receiver expects.
    pub cum_ack: u64,
    /// Selective acknowledgement ranges above `cum_ack`.
    pub sacks: SackBlocks,
    /// ECN-Echo flag (classic ECN semantics; DCTCP uses `ce_bytes`).
    pub ece: bool,
    /// Cumulative count of payload bytes that arrived CE-marked, as
    /// maintained by the receiver. Senders diff successive values to get
    /// the exact marked-byte fraction DCTCP needs.
    pub ce_bytes: u64,
    /// Echo of `sent_at` of the (latest) segment that triggered this ack,
    /// for RTT sampling.
    pub ts_echo: SimTime,
    /// True if the echoed segment was a retransmission (Karn's rule:
    /// the sender must not take an RTT sample from it).
    pub echo_is_retx: bool,
    /// How many data segments this (possibly delayed) ack covers.
    pub segs_acked: u32,
}

/// Whether a packet is a data segment or an acknowledgement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PacketKind {
    /// A data segment carrying `payload_bytes` starting at `seq`.
    Data,
    /// A pure acknowledgement.
    Ack(AckInfo),
}

/// One simulated on-wire frame.
#[derive(Clone, Copy, Debug)]
pub struct Packet {
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Originating host.
    pub src: NodeId,
    /// Final destination host (routing key).
    pub dst: NodeId,
    /// Data or acknowledgement.
    pub kind: PacketKind,
    /// Total size on the wire, including [`HEADER_BYTES`].
    pub wire_bytes: u32,
    /// Application payload bytes carried (zero for pure acks).
    pub payload_bytes: u32,
    /// First payload byte's sequence number (data packets).
    pub seq: u64,
    /// ECN codepoint, possibly rewritten to CE by a congested queue.
    pub ecn: EcnCodepoint,
    /// When the packet was handed to the NIC for transmission.
    pub sent_at: SimTime,
    /// True if this is a retransmission of previously sent data.
    pub is_retx: bool,
    /// True if the fault layer bit-corrupted the frame in transit. The
    /// frame still loads every downstream hop; the destination host's FCS
    /// check discards it before the agent sees it.
    pub corrupted: bool,
    /// In-band telemetry. On a data segment, stamped hop by hop
    /// (INT-capable switches); on an ack, the receiver's echo of the
    /// latest data segment's record, which no hop stamps.
    pub int: IntRecord,
}

impl Packet {
    /// Construct a data segment. `wire_bytes` is derived as
    /// `payload + HEADER_BYTES`.
    pub fn data(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        payload_bytes: u32,
        ecn: EcnCodepoint,
    ) -> Packet {
        Packet {
            flow,
            src,
            dst,
            kind: PacketKind::Data,
            wire_bytes: payload_bytes + HEADER_BYTES,
            payload_bytes,
            seq,
            ecn,
            sent_at: SimTime::ZERO,
            is_retx: false,
            corrupted: false,
            int: IntRecord::default(),
        }
    }

    /// Construct a pure acknowledgement (64 wire bytes: headers + minimal
    /// frame padding).
    pub fn ack(flow: FlowId, src: NodeId, dst: NodeId, info: AckInfo) -> Packet {
        Packet {
            flow,
            src,
            dst,
            kind: PacketKind::Ack(info),
            wire_bytes: 64,
            payload_bytes: 0,
            seq: 0,
            ecn: EcnCodepoint::NotEct,
            sent_at: SimTime::ZERO,
            is_retx: false,
            corrupted: false,
            int: IntRecord::default(),
        }
    }

    /// True if this is a data segment.
    #[inline]
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::Data)
    }

    /// The ack header, if this is an acknowledgement.
    #[inline]
    pub fn ack_info(&self) -> Option<&AckInfo> {
        match &self.kind {
            PacketKind::Ack(info) => Some(info),
            PacketKind::Data => None,
        }
    }

    /// End of this segment's payload in sequence space (`seq + payload`).
    #[inline]
    pub fn seq_end(&self) -> u64 {
        self.seq + self.payload_bytes as u64
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            PacketKind::Data => write!(
                f,
                "{} {}->{} DATA seq={}..{} ({}B{}{})",
                self.flow,
                self.src,
                self.dst,
                self.seq,
                self.seq_end(),
                self.wire_bytes,
                if self.is_retx { " retx" } else { "" },
                if self.ecn.is_ce() { " CE" } else { "" },
            ),
            PacketKind::Ack(a) => write!(
                f,
                "{} {}->{} ACK cum={}{}",
                self.flow,
                self.src,
                self.dst,
                a.cum_ack,
                if a.ece { " ECE" } else { "" },
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_data() -> Packet {
        Packet::data(
            FlowId::from_raw(0),
            NodeId::from_raw(0),
            NodeId::from_raw(1),
            1000,
            1460,
            EcnCodepoint::Ect0,
        )
    }

    #[test]
    fn data_packet_sizes_include_headers() {
        let p = mk_data();
        assert_eq!(p.wire_bytes, 1500);
        assert_eq!(p.payload_bytes, 1460);
        assert_eq!(p.seq_end(), 2460);
        assert!(p.is_data());
        assert!(p.ack_info().is_none());
    }

    #[test]
    fn ack_packet_has_no_payload() {
        let info = AckInfo {
            cum_ack: 5000,
            ..AckInfo::default()
        };
        let p = Packet::ack(
            FlowId::from_raw(0),
            NodeId::from_raw(1),
            NodeId::from_raw(0),
            info,
        );
        assert_eq!(p.payload_bytes, 0);
        assert!(!p.is_data());
        assert_eq!(p.ack_info().unwrap().cum_ack, 5000);
    }

    #[test]
    fn ecn_codepoints() {
        assert!(!EcnCodepoint::NotEct.is_capable());
        assert!(EcnCodepoint::Ect0.is_capable());
        assert!(EcnCodepoint::Ce.is_capable());
        assert!(EcnCodepoint::Ce.is_ce());
        assert!(!EcnCodepoint::Ect0.is_ce());
    }

    #[test]
    fn sack_blocks_push_and_overflow() {
        let mut s = SackBlocks::EMPTY;
        assert!(s.is_empty());
        s.push(10, 20);
        s.push(30, 40);
        s.push(50, 60);
        assert_eq!(s.len(), 3);
        // Fourth push evicts the oldest; insertion order is preserved.
        s.push(70, 80);
        assert_eq!(s.len(), 3);
        let blocks: Vec<_> = s.iter().collect();
        assert_eq!(blocks, vec![(30, 40), (50, 60), (70, 80)]);
    }

    #[test]
    fn sack_block_of_u32_max_bytes_round_trips() {
        let mut s = SackBlocks::EMPTY;
        let start = 7 << 40;
        s.push(start, start + u32::MAX as u64);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![(start, start + u32::MAX as u64)]
        );
    }

    #[test]
    fn sack_block_longer_than_u32_max_keeps_its_first_u32_max_bytes() {
        let mut s = SackBlocks::EMPTY;
        let start = u64::MAX - (1 << 33);
        s.push(start, start + (1 << 33));
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![(start, start + u32::MAX as u64)]
        );
    }

    #[test]
    fn sack_block_eviction_keeps_starts_and_lengths_aligned() {
        let mut s = SackBlocks::EMPTY;
        // Distinct lengths, so a start paired with a neighbour's length
        // would show up as a wrong end.
        for (i, len) in [(0u64, 1u64), (1, 1 << 20), (2, 1 << 40), (3, 77), (4, 5)] {
            s.push(i * (1 << 50), i * (1 << 50) + len);
        }
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![
                (2 << 50, (2 << 50) + u32::MAX as u64),
                (3 << 50, (3 << 50) + 77),
                (4 << 50, (4 << 50) + 5),
            ]
        );
    }

    #[test]
    fn sack_blocks_ignore_empty_ranges() {
        let mut s = SackBlocks::EMPTY;
        s.push(10, 10);
        s.push(20, 15);
        assert!(s.is_empty());
    }

    #[test]
    fn display_is_readable() {
        let p = mk_data();
        let s = format!("{p}");
        assert!(s.contains("DATA"));
        assert!(s.contains("seq=1000..2460"));
    }
}
