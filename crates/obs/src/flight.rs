//! Per-flow flight recorder.
//!
//! A bounded ring of typed events per flow — the black box that ships
//! with a crash. When a flow aborts (RTO retries exhausted) or a
//! campaign cell errors, the ring holds the last `capacity` things the
//! flow did: cwnd moves, losses, RTOs, ECN marks, pacing stalls, energy
//! samples. Overflow is explicit: the ring counts what it evicted
//! instead of silently wrapping.

use crate::entity::EntityTable;
use std::fmt::{self, Write as _};

/// One typed flow event. Timestamps live on [`FlightEntry`]; payloads
/// are plain integers so entries are `Copy`, comparable, and render
/// identically on every platform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowEvent {
    /// The congestion window moved (value after the change).
    CwndChange {
        /// New congestion window in bytes.
        cwnd_bytes: u64,
    },
    /// A new RTT sample was taken.
    RttSample {
        /// The sample in nanoseconds.
        rtt_ns: u64,
    },
    /// Bytes newly declared lost (SACK/dupack inference).
    Loss {
        /// Newly-lost bytes at this instant.
        bytes: u64,
    },
    /// The sender entered fast recovery.
    RecoveryEnter,
    /// The sender left fast recovery.
    RecoveryExit,
    /// A retransmission timeout fired.
    Rto {
        /// Consecutive RTOs so far (1 = first).
        consecutive: u32,
    },
    /// ECN congestion-experienced feedback arrived.
    EcnMark {
        /// Bytes acked with CE marks at this instant.
        bytes: u64,
    },
    /// Pacing refused to send and armed a pace timer.
    PacingStall {
        /// Instant the pacer will wake, sim nanoseconds.
        until_ns: u64,
    },
    /// A segment was retransmitted.
    Retransmit {
        /// First sequence byte of the segment.
        seq: u64,
    },
    /// A host power sample attributed to this flow's sender.
    EnergySample {
        /// Average power over the sample bin, milliwatts.
        milliwatts: u64,
    },
    /// The flow started sending.
    Started,
    /// The flow completed its transfer.
    Completed,
    /// The flow gave up (e.g. RTO retries exhausted).
    Aborted,
}

impl fmt::Display for FlowEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowEvent::CwndChange { cwnd_bytes } => write!(f, "cwnd {cwnd_bytes} B"),
            FlowEvent::RttSample { rtt_ns } => write!(f, "rtt {rtt_ns} ns"),
            FlowEvent::Loss { bytes } => write!(f, "loss {bytes} B"),
            FlowEvent::RecoveryEnter => write!(f, "recovery enter"),
            FlowEvent::RecoveryExit => write!(f, "recovery exit"),
            FlowEvent::Rto { consecutive } => write!(f, "rto #{consecutive}"),
            FlowEvent::EcnMark { bytes } => write!(f, "ecn mark {bytes} B"),
            FlowEvent::PacingStall { until_ns } => write!(f, "pacing stall until {until_ns} ns"),
            FlowEvent::Retransmit { seq } => write!(f, "retx seq {seq}"),
            FlowEvent::EnergySample { milliwatts } => write!(f, "power {milliwatts} mW"),
            FlowEvent::Started => write!(f, "started"),
            FlowEvent::Completed => write!(f, "completed"),
            FlowEvent::Aborted => write!(f, "ABORTED"),
        }
    }
}

/// A timestamped ring entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEntry {
    /// Sim-clock nanoseconds.
    pub at_ns: u64,
    /// What happened.
    pub event: FlowEvent,
}

/// One flow's bounded event ring.
#[derive(Clone, Debug)]
pub struct FlightRing {
    buf: Vec<FlightEntry>,
    capacity: usize,
    head: usize,
    seen: u64,
}

impl FlightRing {
    fn new(capacity: usize) -> Self {
        FlightRing {
            buf: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            seen: 0,
        }
    }

    fn record(&mut self, entry: FlightEntry) {
        self.seen += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(entry);
            return;
        }
        // Ring is full: evict the oldest. `overflowed()` makes the
        // eviction visible instead of silent.
        self.buf[self.head] = entry;
        self.head = (self.head + 1) % self.capacity;
    }

    /// Entries in arrival order (oldest surviving first).
    pub fn entries(&self) -> impl Iterator<Item = &FlightEntry> {
        let (wrapped, start) = self.buf.split_at(self.head);
        start.iter().chain(wrapped.iter())
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded, including evicted ones.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Events evicted because the ring was full.
    pub fn overflowed(&self) -> u64 {
        self.seen - self.buf.len() as u64
    }
}

/// Default per-flow ring capacity.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// Flight rings for every observed flow, reached by index per event.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    capacity: usize,
    rings: EntityTable<FlightRing>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// Recorder whose rings hold `capacity` entries each.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            rings: EntityTable::default(),
        }
    }

    /// Record an event on `flow`'s ring, creating the ring on first use.
    #[inline]
    pub fn record(&mut self, flow: u32, at_ns: u64, event: FlowEvent) {
        let capacity = self.capacity;
        self.rings
            .get_or_insert_with(flow, || FlightRing::new(capacity))
            .record(FlightEntry { at_ns, event });
    }

    /// The ring for `flow`, if it ever recorded.
    pub fn ring(&self, flow: u32) -> Option<&FlightRing> {
        self.rings.get(flow)
    }

    /// Flows with at least one event, ascending.
    pub fn flows(&self) -> impl Iterator<Item = u32> + '_ {
        self.rings.ids()
    }

    /// Events evicted across all rings.
    pub fn total_overflowed(&self) -> u64 {
        self.rings.values().map(FlightRing::overflowed).sum()
    }

    /// Render one flow's ring as text, one event per line.
    pub fn dump_flow(&self, flow: u32) -> String {
        let mut out = String::new();
        match self.rings.get(flow) {
            Some(ring) => write_ring(&mut out, flow, ring),
            None => {
                let _ = writeln!(out, "flow f{flow}: no events recorded");
            }
        }
        out
    }

    /// Render every ring, flows in ascending order.
    pub fn dump_all(&self) -> String {
        let mut out = String::new();
        for (flow, ring) in self.rings.iter() {
            write_ring(&mut out, flow, ring);
        }
        if out.is_empty() {
            out.push_str("flight recorder: no events recorded\n");
        }
        out
    }
}

fn write_ring(out: &mut String, flow: u32, ring: &FlightRing) {
    let _ = writeln!(
        out,
        "flow f{flow}: {} events held, {} seen, {} evicted",
        ring.len(),
        ring.seen(),
        ring.overflowed()
    );
    for e in ring.entries() {
        let _ = writeln!(out, "  {:>14} ns  {}", e.at_ns, e.event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest_and_counts_evictions() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..5u64 {
            fr.record(7, i * 10, FlowEvent::CwndChange { cwnd_bytes: i });
        }
        let ring = fr.ring(7).unwrap();
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.seen(), 5);
        assert_eq!(ring.overflowed(), 2);
        let held: Vec<u64> = ring.entries().map(|e| e.at_ns).collect();
        assert_eq!(held, vec![20, 30, 40], "oldest surviving first");
        assert_eq!(fr.total_overflowed(), 2);
    }

    #[test]
    fn dump_mentions_evictions_and_events() {
        let mut fr = FlightRecorder::new(2);
        fr.record(0, 5, FlowEvent::Rto { consecutive: 1 });
        fr.record(0, 9, FlowEvent::Aborted);
        let text = fr.dump_flow(0);
        assert!(text.contains("flow f0: 2 events held, 2 seen, 0 evicted"));
        assert!(text.contains("rto #1"));
        assert!(text.contains("ABORTED"));
        assert!(fr.dump_flow(3).contains("no events recorded"));
    }
}
