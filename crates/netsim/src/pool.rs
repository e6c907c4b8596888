//! A flat frame pool: slab storage for packets in flight.
//!
//! A [`crate::packet::Packet`] is 168 bytes — dominated by the inline
//! ack block — and at population scale (10⁴ flows) every hop used to
//! copy it through the command buffer, the qdisc FIFO, the link's
//! in-flight slot, and the scheduler wheel: ~1.3 KB of memcpy per
//! packet-hop, plus 192-byte scheduler entries that blow out the wheel's
//! cache footprint.
//!
//! [`FramePool`] fixes that shape. A frame is copied into the pool once,
//! by `Ctx::send` inside the agent's callback, and copied out once when a
//! host delivers it; everything between — the command buffer, queueing,
//! serialization, fault injection, switch forwarding, the event wheel —
//! passes a 4-byte [`FrameRef`].
//! Freed slots go on a free list and are reused in LIFO order, so the
//! hot set stays small and cache-resident.
//!
//! # Determinism
//!
//! The pool is pure storage: slot numbers never influence event order,
//! RNG draws, or any simulated quantity, and the packet bytes an agent
//! sees are exactly the bytes its peer sent. Slot reuse order is itself
//! deterministic (LIFO on a deterministic free sequence), so debug
//! traces replay identically too.
//!
//! # Ownership contract
//!
//! `FrameRef` is a plain index with no generation counter: the engine is
//! the only holder, and every ref has exactly one owner (an agent's
//! queued send command, a qdisc FIFO, a link's in-flight slot, or a
//! scheduled `Arrive` event) from `alloc` to `take`/`release`. Double-free or use-after-free is an engine bug, not
//! a runtime condition; debug builds assert liveness on every access.

use crate::packet::Packet;

/// Handle to a pooled frame. 4 bytes, `Copy`; see the module docs for
/// the single-owner contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameRef(u32);

/// Slab of in-flight frames with a LIFO free list.
#[derive(Debug, Default)]
pub struct FramePool {
    slots: Vec<Packet>,
    free: Vec<u32>,
    /// Debug-only liveness map (empty in release builds).
    #[cfg(debug_assertions)]
    live: Vec<bool>,
}

impl FramePool {
    /// An empty pool.
    pub fn new() -> Self {
        FramePool::default()
    }

    /// Number of live (allocated, not yet freed) frames.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Total slots ever allocated (the pool's high-water mark).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Store a frame, reusing a freed slot when one exists.
    #[inline]
    pub fn alloc(&mut self, pkt: Packet) -> FrameRef {
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = pkt;
            #[cfg(debug_assertions)]
            {
                debug_assert!(!self.live[idx as usize], "free list held a live slot");
                self.live[idx as usize] = true;
            }
            FrameRef(idx)
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(pkt);
            #[cfg(debug_assertions)]
            self.live.push(true);
            FrameRef(idx)
        }
    }

    /// Borrow a live frame.
    #[inline]
    pub fn get(&self, r: FrameRef) -> &Packet {
        #[cfg(debug_assertions)]
        debug_assert!(self.live[r.0 as usize], "get on a freed frame");
        &self.slots[r.0 as usize]
    }

    /// Mutably borrow a live frame (in-place stamping: INT, CE, FCS).
    #[inline]
    pub fn get_mut(&mut self, r: FrameRef) -> &mut Packet {
        #[cfg(debug_assertions)]
        debug_assert!(self.live[r.0 as usize], "get_mut on a freed frame");
        &mut self.slots[r.0 as usize]
    }

    /// Copy the frame out and free its slot: the delivery-side exit.
    #[inline]
    pub fn take(&mut self, r: FrameRef) -> Packet {
        let pkt = self.slots[r.0 as usize];
        self.release(r);
        pkt
    }

    /// Free a slot without reading it (drops and injected losses).
    #[inline]
    pub fn release(&mut self, r: FrameRef) {
        #[cfg(debug_assertions)]
        {
            debug_assert!(self.live[r.0 as usize], "double free of a frame");
            self.live[r.0 as usize] = false;
        }
        self.free.push(r.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, NodeId};
    use crate::packet::EcnCodepoint;

    fn pkt(seq: u64) -> Packet {
        Packet::data(
            FlowId::from_raw(1),
            NodeId::from_raw(0),
            NodeId::from_raw(1),
            seq,
            1000,
            EcnCodepoint::NotEct,
        )
    }

    #[test]
    fn alloc_take_roundtrips_bytes() {
        let mut pool = FramePool::new();
        let a = pool.alloc(pkt(7));
        let b = pool.alloc(pkt(9));
        assert_eq!(pool.live(), 2);
        assert_eq!(pool.take(a).seq, 7);
        assert_eq!(pool.take(b).seq, 9);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn freed_slots_are_reused_lifo() {
        let mut pool = FramePool::new();
        let a = pool.alloc(pkt(1));
        let _b = pool.alloc(pkt(2));
        pool.release(a);
        let c = pool.alloc(pkt(3));
        assert_eq!(c, a, "LIFO reuse of the freed slot");
        assert_eq!(pool.capacity(), 2, "no growth while the free list serves");
        assert_eq!(pool.get(c).seq, 3);
    }

    #[test]
    fn get_mut_stamps_in_place() {
        let mut pool = FramePool::new();
        let r = pool.alloc(pkt(5));
        pool.get_mut(r).corrupted = true;
        assert!(pool.take(r).corrupted);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_asserts_in_debug() {
        let mut pool = FramePool::new();
        let r = pool.alloc(pkt(1));
        pool.release(r);
        pool.release(r);
    }
}
