//! Queue disciplines for link egress buffers.
//!
//! Three disciplines cover everything the paper's testbed exercises:
//!
//! * [`DropTailQueue`] — a FIFO with a byte capacity; the Tofino switch in
//!   the paper runs plain tail-drop for the loss-based CCAs.
//! * [`EcnThresholdQueue`] — tail-drop plus DCTCP-style *step marking*:
//!   ECN-capable packets are CE-marked when the instantaneous queue exceeds
//!   a threshold K (Alizadeh et al., SIGCOMM '10).
//! * [`RedQueue`] — classic Random Early Detection with an EWMA of queue
//!   length, provided for completeness and ablation benchmarks.

use crate::pool::{FramePool, FrameRef};
use crate::rng::SimRng;
use crate::time::SimTime;
use std::collections::VecDeque;

/// Outcome of offering a packet to a queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Packet accepted as-is.
    Enqueued,
    /// Packet accepted and CE-marked by the discipline.
    EnqueuedMarked,
    /// Packet dropped (buffer overflow or early drop).
    Dropped,
}

/// Counters every discipline maintains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Packets accepted into the queue.
    pub enqueued_pkts: u64,
    /// Packets dropped at enqueue.
    pub dropped_pkts: u64,
    /// Bytes dropped at enqueue.
    pub dropped_bytes: u64,
    /// Packets CE-marked at enqueue.
    pub marked_pkts: u64,
    /// High-water mark of queue occupancy in bytes.
    pub max_bytes: u64,
}

/// A queue discipline: decides admission/marking and stores frames in
/// FIFO order until the link can serialize them.
///
/// Frames live in the engine's [`FramePool`]; the discipline stores the
/// 4-byte [`FrameRef`] plus a cached wire size, never the 128-byte
/// packet. CE marking mutates the pooled frame in place.
pub trait Qdisc: Send {
    /// Offer a frame. On `Dropped` the ref is NOT stored — the caller
    /// keeps ownership (to log the drop, then release the slot);
    /// otherwise it is stored, possibly CE-marked in the pool.
    fn enqueue(&mut self, frame: FrameRef, pool: &mut FramePool, now: SimTime) -> EnqueueOutcome;

    /// Remove the next frame to transmit, if any. Ownership of the ref
    /// passes back to the caller.
    fn dequeue(&mut self, now: SimTime) -> Option<FrameRef>;

    /// Current occupancy in bytes.
    fn len_bytes(&self) -> u64;

    /// Current occupancy in packets.
    fn len_pkts(&self) -> usize;

    /// Lifetime counters.
    fn stats(&self) -> QueueStats;

    /// Human-readable discipline name, for traces and reports.
    fn name(&self) -> &'static str;

    /// Byte capacity, read by the topology layout tests.
    #[cfg(test)]
    fn capacity_bytes(&self) -> u64;
}

/// Shared FIFO storage used by all disciplines: frame refs plus the
/// cached wire size, so occupancy accounting never dereferences the pool.
#[derive(Debug, Default)]
struct Fifo {
    queue: VecDeque<(FrameRef, u32)>,
    bytes: u64,
    stats: QueueStats,
}

impl Fifo {
    fn push(&mut self, frame: FrameRef, wire_bytes: u32) {
        self.bytes += wire_bytes as u64;
        self.stats.enqueued_pkts += 1;
        self.stats.max_bytes = self.stats.max_bytes.max(self.bytes);
        self.queue.push_back((frame, wire_bytes));
    }

    fn pop(&mut self) -> Option<FrameRef> {
        let (frame, wire_bytes) = self.queue.pop_front()?;
        self.bytes -= wire_bytes as u64;
        Some(frame)
    }

    fn drop_pkt(&mut self, wire_bytes: u32) {
        self.stats.dropped_pkts += 1;
        self.stats.dropped_bytes += wire_bytes as u64;
    }
}

/// Plain tail-drop FIFO with a byte capacity.
#[derive(Debug)]
pub struct DropTailQueue {
    fifo: Fifo,
    capacity_bytes: u64,
}

impl DropTailQueue {
    /// A FIFO that accepts packets while occupancy + packet fits within
    /// `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "queue capacity must be positive");
        DropTailQueue {
            fifo: Fifo::default(),
            capacity_bytes,
        }
    }

    /// Configured capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }
}

impl Qdisc for DropTailQueue {
    fn enqueue(&mut self, frame: FrameRef, pool: &mut FramePool, _now: SimTime) -> EnqueueOutcome {
        let wire_bytes = pool.get(frame).wire_bytes;
        if self.fifo.bytes + wire_bytes as u64 > self.capacity_bytes {
            self.fifo.drop_pkt(wire_bytes);
            return EnqueueOutcome::Dropped;
        }
        self.fifo.push(frame, wire_bytes);
        EnqueueOutcome::Enqueued
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<FrameRef> {
        self.fifo.pop()
    }

    fn len_bytes(&self) -> u64 {
        self.fifo.bytes
    }

    fn len_pkts(&self) -> usize {
        self.fifo.queue.len()
    }

    fn stats(&self) -> QueueStats {
        self.fifo.stats
    }

    fn name(&self) -> &'static str {
        "droptail"
    }

    #[cfg(test)]
    fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }
}

/// Tail-drop FIFO with DCTCP-style instantaneous step marking.
///
/// ECN-capable packets are CE-marked when the queue (including the arriving
/// packet) exceeds `mark_threshold_bytes`. Non-capable packets are only
/// dropped on overflow, like [`DropTailQueue`].
#[derive(Debug)]
pub struct EcnThresholdQueue {
    fifo: Fifo,
    capacity_bytes: u64,
    mark_threshold_bytes: u64,
}

impl EcnThresholdQueue {
    /// Create a marking FIFO. `mark_threshold_bytes` is DCTCP's K.
    pub fn new(capacity_bytes: u64, mark_threshold_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "queue capacity must be positive");
        assert!(
            mark_threshold_bytes <= capacity_bytes,
            "marking threshold cannot exceed capacity"
        );
        EcnThresholdQueue {
            fifo: Fifo::default(),
            capacity_bytes,
            mark_threshold_bytes,
        }
    }

    /// The marking threshold K in bytes.
    pub fn mark_threshold_bytes(&self) -> u64 {
        self.mark_threshold_bytes
    }
}

impl Qdisc for EcnThresholdQueue {
    fn enqueue(&mut self, frame: FrameRef, pool: &mut FramePool, _now: SimTime) -> EnqueueOutcome {
        let pkt = pool.get(frame);
        let wire_bytes = pkt.wire_bytes;
        let capable = pkt.ecn.is_capable();
        let occupancy_after = self.fifo.bytes + wire_bytes as u64;
        if occupancy_after > self.capacity_bytes {
            self.fifo.drop_pkt(wire_bytes);
            return EnqueueOutcome::Dropped;
        }
        if capable && occupancy_after > self.mark_threshold_bytes {
            pool.get_mut(frame).ecn = crate::packet::EcnCodepoint::Ce;
            self.fifo.stats.marked_pkts += 1;
            self.fifo.push(frame, wire_bytes);
            return EnqueueOutcome::EnqueuedMarked;
        }
        self.fifo.push(frame, wire_bytes);
        EnqueueOutcome::Enqueued
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<FrameRef> {
        self.fifo.pop()
    }

    fn len_bytes(&self) -> u64 {
        self.fifo.bytes
    }

    fn len_pkts(&self) -> usize {
        self.fifo.queue.len()
    }

    fn stats(&self) -> QueueStats {
        self.fifo.stats
    }

    fn name(&self) -> &'static str {
        "ecn-threshold"
    }

    #[cfg(test)]
    fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }
}

/// Classic Random Early Detection (Floyd & Jacobson 1993).
///
/// Maintains an EWMA of the queue length; between `min_th` and `max_th`
/// packets are dropped (or CE-marked if ECN-capable) with probability
/// rising linearly to `max_p`; above `max_th` everything is dropped/marked.
#[derive(Debug)]
pub struct RedQueue {
    fifo: Fifo,
    capacity_bytes: u64,
    min_th_bytes: f64,
    max_th_bytes: f64,
    max_p: f64,
    /// EWMA weight for the average queue size.
    weight: f64,
    avg_bytes: f64,
    rng: SimRng,
    /// Packets since last drop/mark, for the uniform-spacing correction.
    count: i64,
}

impl RedQueue {
    /// Create a RED queue. `max_p` is the drop probability at `max_th`.
    pub fn new(
        capacity_bytes: u64,
        min_th_bytes: u64,
        max_th_bytes: u64,
        max_p: f64,
        seed: u64,
    ) -> Self {
        assert!(capacity_bytes > 0);
        assert!(min_th_bytes < max_th_bytes);
        assert!(max_th_bytes <= capacity_bytes);
        assert!((0.0..=1.0).contains(&max_p));
        RedQueue {
            fifo: Fifo::default(),
            capacity_bytes,
            min_th_bytes: min_th_bytes as f64,
            max_th_bytes: max_th_bytes as f64,
            max_p,
            weight: 0.002,
            avg_bytes: 0.0,
            rng: SimRng::new(seed),
            count: -1,
        }
    }

    /// Current EWMA of queue occupancy in bytes.
    pub fn avg_bytes(&self) -> f64 {
        self.avg_bytes
    }

    fn drop_probability(&self) -> f64 {
        if self.avg_bytes < self.min_th_bytes {
            0.0
        } else if self.avg_bytes >= self.max_th_bytes {
            1.0
        } else {
            self.max_p * (self.avg_bytes - self.min_th_bytes)
                / (self.max_th_bytes - self.min_th_bytes)
        }
    }
}

impl Qdisc for RedQueue {
    fn enqueue(&mut self, frame: FrameRef, pool: &mut FramePool, _now: SimTime) -> EnqueueOutcome {
        let pkt = pool.get(frame);
        let wire_bytes = pkt.wire_bytes;
        let capable = pkt.ecn.is_capable();
        self.avg_bytes =
            (1.0 - self.weight) * self.avg_bytes + self.weight * self.fifo.bytes as f64;

        if self.fifo.bytes + wire_bytes as u64 > self.capacity_bytes {
            self.fifo.drop_pkt(wire_bytes);
            self.count = 0;
            return EnqueueOutcome::Dropped;
        }

        let pb = self.drop_probability();
        let early = if pb >= 1.0 {
            true
        } else if pb > 0.0 {
            self.count += 1;
            // Uniform-spacing correction from the RED paper.
            let pa = pb / (1.0 - (self.count as f64 * pb).min(0.999));
            self.rng.next_f64() < pa
        } else {
            self.count = -1;
            false
        };

        if early {
            self.count = 0;
            if capable {
                pool.get_mut(frame).ecn = crate::packet::EcnCodepoint::Ce;
                self.fifo.stats.marked_pkts += 1;
                self.fifo.push(frame, wire_bytes);
                return EnqueueOutcome::EnqueuedMarked;
            }
            self.fifo.drop_pkt(wire_bytes);
            return EnqueueOutcome::Dropped;
        }

        self.fifo.push(frame, wire_bytes);
        EnqueueOutcome::Enqueued
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<FrameRef> {
        self.fifo.pop()
    }

    fn len_bytes(&self) -> u64 {
        self.fifo.bytes
    }

    fn len_pkts(&self) -> usize {
        self.fifo.queue.len()
    }

    fn stats(&self) -> QueueStats {
        self.fifo.stats
    }

    fn name(&self) -> &'static str {
        "red"
    }

    #[cfg(test)]
    fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, NodeId};
    use crate::packet::{EcnCodepoint, Packet};

    fn pkt(bytes: u32, ecn: EcnCodepoint) -> Packet {
        Packet::data(
            FlowId::from_raw(0),
            NodeId::from_raw(0),
            NodeId::from_raw(1),
            0,
            bytes - crate::packet::HEADER_BYTES,
            ecn,
        )
    }

    /// Test shim: the engine's enqueue-or-release contract in one call.
    fn offer(q: &mut dyn Qdisc, pool: &mut FramePool, p: Packet) -> EnqueueOutcome {
        let frame = pool.alloc(p);
        let out = q.enqueue(frame, pool, SimTime::ZERO);
        if out == EnqueueOutcome::Dropped {
            pool.release(frame);
        }
        out
    }

    fn drain(q: &mut dyn Qdisc, pool: &mut FramePool) -> Option<Packet> {
        q.dequeue(SimTime::ZERO).map(|r| pool.take(r))
    }

    #[test]
    fn droptail_accepts_until_capacity() {
        let mut pool = FramePool::new();
        let mut q = DropTailQueue::new(3000);
        assert_eq!(
            offer(&mut q, &mut pool, pkt(1500, EcnCodepoint::NotEct)),
            EnqueueOutcome::Enqueued
        );
        assert_eq!(
            offer(&mut q, &mut pool, pkt(1500, EcnCodepoint::NotEct)),
            EnqueueOutcome::Enqueued
        );
        assert_eq!(
            offer(&mut q, &mut pool, pkt(1500, EcnCodepoint::NotEct)),
            EnqueueOutcome::Dropped
        );
        assert_eq!(q.len_bytes(), 3000);
        assert_eq!(q.len_pkts(), 2);
        let s = q.stats();
        assert_eq!(s.enqueued_pkts, 2);
        assert_eq!(s.dropped_pkts, 1);
        assert_eq!(s.dropped_bytes, 1500);
        assert_eq!(s.max_bytes, 3000);
    }

    #[test]
    fn droptail_dequeues_fifo() {
        let mut pool = FramePool::new();
        let mut q = DropTailQueue::new(10_000);
        let mut a = pkt(1500, EcnCodepoint::NotEct);
        a.seq = 1;
        let mut b = pkt(1500, EcnCodepoint::NotEct);
        b.seq = 2;
        offer(&mut q, &mut pool, a);
        offer(&mut q, &mut pool, b);
        assert_eq!(drain(&mut q, &mut pool).unwrap().seq, 1);
        assert_eq!(drain(&mut q, &mut pool).unwrap().seq, 2);
        assert!(drain(&mut q, &mut pool).is_none());
        assert_eq!(q.len_bytes(), 0);
        assert_eq!(pool.live(), 0, "delivered frames must free their slots");
    }

    #[test]
    fn ecn_threshold_marks_capable_packets_above_k() {
        let mut pool = FramePool::new();
        let mut q = EcnThresholdQueue::new(30_000, 3000);
        // Below K: unmarked.
        assert_eq!(
            offer(&mut q, &mut pool, pkt(1500, EcnCodepoint::Ect0)),
            EnqueueOutcome::Enqueued
        );
        assert_eq!(
            offer(&mut q, &mut pool, pkt(1500, EcnCodepoint::Ect0)),
            EnqueueOutcome::Enqueued
        );
        // This one pushes occupancy past K and is marked.
        assert_eq!(
            offer(&mut q, &mut pool, pkt(1500, EcnCodepoint::Ect0)),
            EnqueueOutcome::EnqueuedMarked
        );
        assert_eq!(q.stats().marked_pkts, 1);
        // Verify the stored packet carries CE.
        drain(&mut q, &mut pool);
        drain(&mut q, &mut pool);
        assert!(drain(&mut q, &mut pool).unwrap().ecn.is_ce());
    }

    #[test]
    fn ecn_threshold_drops_non_capable_only_on_overflow() {
        let mut pool = FramePool::new();
        let mut q = EcnThresholdQueue::new(3000, 1000);
        assert_eq!(
            offer(&mut q, &mut pool, pkt(1500, EcnCodepoint::NotEct)),
            EnqueueOutcome::Enqueued
        );
        assert_eq!(
            offer(&mut q, &mut pool, pkt(1500, EcnCodepoint::NotEct)),
            EnqueueOutcome::Enqueued
        );
        assert_eq!(
            offer(&mut q, &mut pool, pkt(1500, EcnCodepoint::NotEct)),
            EnqueueOutcome::Dropped
        );
        assert_eq!(q.stats().marked_pkts, 0);
    }

    #[test]
    fn red_never_early_drops_below_min_threshold() {
        let mut pool = FramePool::new();
        let mut q = RedQueue::new(100_000, 50_000, 90_000, 0.1, 42);
        for _ in 0..20 {
            assert_eq!(
                offer(&mut q, &mut pool, pkt(1500, EcnCodepoint::NotEct)),
                EnqueueOutcome::Enqueued
            );
        }
        assert_eq!(q.stats().dropped_pkts, 0);
    }

    #[test]
    fn red_drops_or_marks_under_sustained_occupancy() {
        let mut pool = FramePool::new();
        let mut q = RedQueue::new(100_000, 5_000, 20_000, 0.5, 42);
        // Keep the queue full-ish so the EWMA climbs past max_th.
        let mut outcomes = Vec::new();
        for _ in 0..2000 {
            let out = offer(&mut q, &mut pool, pkt(1500, EcnCodepoint::NotEct));
            outcomes.push(out);
            if q.len_pkts() > 20 {
                drain(&mut q, &mut pool);
            }
        }
        let drops = outcomes
            .iter()
            .filter(|o| **o == EnqueueOutcome::Dropped)
            .count();
        assert!(drops > 0, "RED should early-drop under sustained load");
    }

    #[test]
    fn red_marks_ecn_capable_instead_of_dropping() {
        let mut pool = FramePool::new();
        let mut q = RedQueue::new(1_000_000, 1_000, 2_000, 1.0, 7);
        // Force the average up by holding occupancy high.
        for _ in 0..5000 {
            offer(&mut q, &mut pool, pkt(1500, EcnCodepoint::Ect0));
            if q.len_bytes() > 6_000 {
                drain(&mut q, &mut pool);
            }
        }
        assert!(q.stats().marked_pkts > 0);
        // ECN-capable traffic should overwhelmingly be marked, not dropped
        // (overflow is impossible with this capacity).
        assert_eq!(q.stats().dropped_pkts, 0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(DropTailQueue::new(1).name(), "droptail");
        assert_eq!(EcnThresholdQueue::new(10, 5).name(), "ecn-threshold");
        assert_eq!(RedQueue::new(10, 1, 5, 0.1, 0).name(), "red");
    }
}
