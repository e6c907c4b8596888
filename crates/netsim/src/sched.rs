//! The event scheduler: a calendar-queue wheel backed by a heap.
//!
//! The engine's hot loop pops the globally earliest `(at, seq)` pair
//! millions of times per simulated second. Almost every event it schedules
//! lands within a few serialization times of `now` (TxDone, Arrive, pacing
//! and RACK timers); only RTO-class timers sit hundreds of milliseconds
//! out. A binary heap pays `O(log n)` sift costs on every operation for a
//! workload that is nearly sorted already.
//!
//! [`Scheduler`] exploits that shape:
//!
//! * a **near-future wheel** of `NUM_BUCKETS` buckets, each covering one
//!   1 024 ns *tick* of simulated time: the serialization time of a
//!   1 500-byte frame at 10 Gb/s, the rate of every topology the product
//!   builds, rounded down to a power of two. A network with other link
//!   rates pops in the same order; it only does a different amount of
//!   wheel work per event. Every wheel entry is a node in
//!   one slab `Vec`; a bucket is a singly linked list through that slab,
//!   kept ascending by `(at, seq)`. Pushing an event whose tick is within
//!   the wheel horizon links it (in the common, time-ordered case) behind
//!   the bucket's tail in O(1); popping unlinks the head and puts the
//!   slot on a free list, so the slab grows to the peak number of pending
//!   entries and a scheduler allocates nothing per bucket.
//! * an **overflow heap** for events beyond the horizon. When the wheel
//!   advances, heap entries that have come within the horizon migrate to
//!   their bucket. Far-future timers are usually cancelled/rescheduled
//!   before they migrate (RTO rearms on every ack), so most heap entries
//!   die without ever being sorted into the wheel.
//!
//! # Determinism
//!
//! Pop order is the exact total order `(at, seq)` with `seq` assigned in
//! push order — identical to the `BinaryHeap<Reverse<..>>` it replaced:
//!
//! * the current bucket holds exactly the entries of tick `base_tick`
//!   (inserts require `at >= now`, and the horizon is one wheel length, so
//!   each slot maps to a single tick); its list is ascending by
//!   `(at, seq)`, so unlinking the head yields the global minimum;
//! * every other wheel bucket holds strictly later ticks, and after
//!   migration the heap holds only entries strictly beyond the horizon;
//! * `seq` survives wheel/heap placement and migration untouched, so ties
//!   on `at` preserve FIFO insertion order no matter which side an entry
//!   lived on.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of wheel buckets. Power of two so slot = tick & mask. 1024
/// buckets of ~1 µs give a ~1 ms horizon: several RTTs of the paper's
/// testbed, which keeps all data-path events on the wheel.
const NUM_BUCKETS: usize = 1024;
const MASK: u64 = NUM_BUCKETS as u64 - 1;

/// Bucket width as a shift: 2^10 ns ≈ 1 µs, the serialization time of a
/// 1500-byte frame at 10 Gb/s (the paper's testbed NIC) rounded down.
const BUCKET_SHIFT: u32 = 10;

/// Outcome of [`Scheduler::pop_due`].
pub enum Due<T> {
    /// The earliest entry, removed — it was due at or before the limit.
    Item(SimTime, T),
    /// The earliest entry is beyond the limit; it remains queued.
    Later(SimTime),
    /// The scheduler is empty.
    Empty,
}

/// One scheduled entry. Ordering is on `(at, seq)` only — the payload
/// does not participate.
struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Slab index meaning "no node": ends a bucket's list and the free list.
const NIL: u32 = u32::MAX;

/// One wheel entry, living in the scheduler's slab from push to pop. It
/// is linked into its bucket once and never moved or re-sorted.
pub(crate) struct Node<T> {
    at: SimTime,
    seq: u64,
    /// `None` only while the slot sits on the free list.
    item: Option<T>,
    /// Next node of the bucket (or of the free list), `NIL` at the end.
    next: u32,
}

/// One wheel bucket: the ends of a singly linked list through the slab,
/// ascending by `(at, seq)`. Both are `NIL` when the bucket is empty.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// Operation counters, exported through the engine's perf counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedStats {
    /// Pushes that landed directly in a wheel bucket.
    pub wheel_pushes: u64,
    /// Pushes that went to the overflow heap (beyond the horizon).
    pub heap_pushes: u64,
    /// Heap entries later migrated into the wheel.
    pub migrations: u64,
    /// Entries popped.
    pub pops: u64,
}

impl SchedStats {
    /// Fraction of pushes served by the O(1) wheel path.
    pub fn wheel_hit_rate(&self) -> f64 {
        let total = self.wheel_pushes + self.heap_pushes;
        if total == 0 {
            return 1.0;
        }
        self.wheel_pushes as f64 / total as f64
    }
}

/// Hybrid calendar-wheel + heap priority queue over `(SimTime, insertion
/// seq)`. See the module docs for the design and determinism argument.
pub struct Scheduler<T> {
    /// Every wheel entry, linked or free. Grows to the peak number of
    /// entries pending on the wheel and no further: popped slots are
    /// reused before the `Vec` is extended.
    nodes: Vec<Node<T>>,
    /// Head of the free-slot list through `nodes`.
    free: u32,
    buckets: Vec<Bucket>,
    /// Tick of the current bucket; the wheel covers
    /// `[base_tick, base_tick + NUM_BUCKETS)`.
    base_tick: u64,
    /// Entries currently in wheel buckets.
    wheel_len: usize,
    heap: BinaryHeap<Reverse<Entry<T>>>,
    seq: u64,
    stats: SchedStats,
}

impl<T> Scheduler<T> {
    /// An empty scheduler.
    pub fn new() -> Self {
        Scheduler {
            nodes: Vec::new(),
            free: NIL,
            buckets: vec![EMPTY; NUM_BUCKETS],
            base_tick: 0,
            wheel_len: 0,
            heap: BinaryHeap::new(),
            seq: 0,
            stats: SchedStats::default(),
        }
    }

    /// Number of pending entries (wheel + heap).
    pub fn len(&self) -> usize {
        self.wheel_len + self.heap.len()
    }

    /// True when no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    #[inline]
    fn tick_of(at: SimTime) -> u64 {
        at.as_nanos() >> BUCKET_SHIFT
    }

    /// Insert an item at time `at`. Later inserts at the same `at` pop
    /// later (FIFO within a timestamp).
    ///
    /// Always inlined, as is `wheel_insert` with `alloc` inside it: out
    /// of line, the caller stores the item field by field and the callee
    /// reloads it whole, a store-to-load forward that fails on every push
    /// (DESIGN.md, "Per-event floor"). A plain `#[inline]` hint is not
    /// enough; the engine pushes from four sites.
    #[inline(always)]
    pub fn push(&mut self, at: SimTime, item: T) {
        self.seq += 1;
        let entry = Entry {
            at,
            seq: self.seq,
            item,
        };
        // Clamp: an `at` in the past (engine callers never produce one,
        // timers are clamped to `now`) still lands in the current bucket
        // rather than corrupting a wrapped slot.
        let tick = Self::tick_of(at).max(self.base_tick);
        if tick < self.base_tick + NUM_BUCKETS as u64 {
            self.stats.wheel_pushes += 1;
            self.wheel_insert(tick, entry);
        } else {
            self.stats.heap_pushes += 1;
            self.heap.push(Reverse(entry));
        }
    }

    /// Move `entry` into a slab slot — a freed one if any — and return
    /// its index. The node comes back unlinked (`next == NIL`).
    #[inline]
    fn alloc(&mut self, entry: Entry<T>) -> u32 {
        let node = Node {
            at: entry.at,
            seq: entry.seq,
            item: Some(entry.item),
            next: NIL,
        };
        let idx = self.free;
        if let Some(slot) = self.nodes.get_mut(idx as usize) {
            self.free = slot.next;
            *slot = node;
            return idx;
        }
        self.grow(node)
    }

    /// `alloc` with the free list empty: append a slot. Out of line
    /// because it runs only until the slab reaches the peak pending
    /// count, and `Vec` growth would bloat every inlined push.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, node: Node<T>) -> u32 {
        let idx = self.nodes.len();
        assert!(
            idx < NIL as usize,
            "more than 2^32 - 1 pending wheel entries"
        );
        self.nodes.push(node);
        idx as u32
    }

    #[inline]
    fn key(&self, idx: u32) -> (SimTime, u64) {
        let node = &self.nodes[idx as usize];
        (node.at, node.seq)
    }

    /// Link `entry` into the bucket for `tick`, keeping the list
    /// ascending by `(at, seq)`. The overwhelmingly common case — an
    /// entry later than everything already in its bucket — links behind
    /// the tail; anything else walks from the head to its place. In
    /// practice only an out-of-order push walks: heap migrations leave
    /// the heap in ascending order for a bucket no push could reach
    /// while its tick was beyond the horizon.
    #[inline(always)]
    fn wheel_insert(&mut self, tick: u64, entry: Entry<T>) {
        let key = (entry.at, entry.seq);
        let idx = self.alloc(entry);
        let slot = (tick & MASK) as usize;
        let tail = self.buckets[slot].tail;
        if tail == NIL {
            self.buckets[slot] = Bucket {
                head: idx,
                tail: idx,
            };
        } else if self.key(tail) < key {
            self.nodes[tail as usize].next = idx;
            self.buckets[slot].tail = idx;
        } else {
            self.link_before_tail(slot, idx, key);
        }
        self.wheel_len += 1;
    }

    /// The walk of [`Self::wheel_insert`]: link node `idx`, whose `key`
    /// sorts before the tail of bucket `slot`, into its place. Kept out
    /// of line so the inlined push stays small; it is handed indices, not
    /// the entry, which is already in its node.
    #[inline(never)]
    fn link_before_tail(&mut self, slot: usize, idx: u32, key: (SimTime, u64)) {
        // The tail sorts after `key`, so the walk stops at a node.
        let mut prev = NIL;
        let mut cur = self.buckets[slot].head;
        while self.key(cur) < key {
            prev = cur;
            cur = self.nodes[cur as usize].next;
        }
        self.nodes[idx as usize].next = cur;
        if prev == NIL {
            self.buckets[slot].head = idx;
        } else {
            self.nodes[prev as usize].next = idx;
        }
    }

    /// Advance the wheel to the next non-empty bucket, migrating heap
    /// entries as they come within the horizon. Returns `false` iff the
    /// scheduler is empty. On `true`, the current bucket is non-empty
    /// with the global minimum at its head.
    fn normalize(&mut self) -> bool {
        loop {
            // Migrate heap entries now within the horizon. They come off
            // the heap in ascending order, so per-bucket these are
            // appends too.
            while let Some(Reverse(top)) = self.heap.peek() {
                let tick = Self::tick_of(top.at);
                if tick >= self.base_tick + NUM_BUCKETS as u64 {
                    break;
                }
                // peek() just returned Some, so pop() must too; the
                // let-else keeps the impossible branch panic-free.
                let Some(Reverse(entry)) = self.heap.pop() else {
                    break;
                };
                self.wheel_insert(tick, entry);
                self.stats.migrations += 1;
            }
            if self.wheel_len == 0 {
                let Some(Reverse(top)) = self.heap.peek() else {
                    return false;
                };
                // Nothing within a full horizon: jump straight to the
                // heap's earliest tick instead of stepping through empties.
                self.base_tick = Self::tick_of(top.at);
                continue;
            }
            if self.buckets[(self.base_tick & MASK) as usize].head == NIL {
                self.base_tick += 1;
                continue;
            }
            return true;
        }
    }

    /// The earliest entry. Only meaningful right after `normalize()`
    /// returned `true`, which guarantees the current bucket has a head;
    /// `None` here would be a scheduler bug, reported as an empty queue
    /// rather than by aborting a campaign worker.
    fn head(&self) -> Option<&Node<T>> {
        let head = self.buckets[(self.base_tick & MASK) as usize].head;
        let node = self.nodes.get(head as usize);
        debug_assert!(node.is_some(), "normalize returned an empty bucket");
        node
    }

    /// Unlink the current bucket's head and put its slot on the free
    /// list. Same precondition as [`Scheduler::head`].
    fn pop_head(&mut self) -> Option<(SimTime, T)> {
        let slot = (self.base_tick & MASK) as usize;
        let idx = self.buckets[slot].head;
        let node = self.nodes.get_mut(idx as usize);
        debug_assert!(node.is_some(), "normalize returned an empty bucket");
        let node = node?;
        let item = node.item.take()?;
        let at = node.at;
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = idx;
        self.buckets[slot].head = next;
        if next == NIL {
            self.buckets[slot].tail = NIL;
        }
        self.wheel_len -= 1;
        self.stats.pops += 1;
        Some((at, item))
    }

    /// Timestamp of the earliest entry without removing it.
    pub fn next_at(&mut self) -> Option<SimTime> {
        if !self.normalize() {
            return None;
        }
        self.head().map(|n| n.at)
    }

    /// Remove and return the earliest `(at, item)` iff `pred` approves
    /// it — a peek-then-pop that never exposes references into the wheel.
    /// The engine uses this to coalesce consecutive same-timestamp
    /// deliveries to one host into a single agent dispatch.
    pub fn pop_if(&mut self, pred: impl FnOnce(SimTime, &T) -> bool) -> Option<(SimTime, T)> {
        if !self.normalize() {
            return None;
        }
        let head = self.head()?;
        if !pred(head.at, head.item.as_ref()?) {
            return None;
        }
        self.pop_head()
    }

    /// Pop the earliest entry iff it is due at or before `limit`; an
    /// entry beyond the limit stays queued. One normalize serves both
    /// the peek and the pop, so the engine's run loop pays the wheel
    /// walk once per event instead of twice.
    pub fn pop_due(&mut self, limit: SimTime) -> Due<T> {
        if !self.normalize() {
            return Due::Empty;
        }
        let Some(head) = self.head() else {
            return Due::Empty;
        };
        if head.at > limit {
            return Due::Later(head.at);
        }
        match self.pop_head() {
            Some((at, item)) => Due::Item(at, item),
            None => Due::Empty,
        }
    }

    /// Remove and return the earliest `(at, item)`.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if !self.normalize() {
            return None;
        }
        self.pop_head()
    }
}

impl<T> Default for Scheduler<T> {
    fn default() -> Self {
        Scheduler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Reference implementation: the heap the scheduler replaced.
    struct RefSched<T> {
        heap: BinaryHeap<Reverse<Entry<T>>>,
        seq: u64,
    }

    impl<T> RefSched<T> {
        fn new() -> Self {
            RefSched {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }
        fn push(&mut self, at: SimTime, item: T) {
            self.seq += 1;
            self.heap.push(Reverse(Entry {
                at,
                seq: self.seq,
                item,
            }));
        }
        fn pop(&mut self) -> Option<(SimTime, T)> {
            self.heap.pop().map(|Reverse(e)| (e.at, e.item))
        }
        fn peek(&self) -> Option<(SimTime, &T)> {
            self.heap.peek().map(|Reverse(e)| (e.at, &e.item))
        }
    }

    /// Deterministic xorshift for the randomized tests.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut s = Scheduler::new();
        s.push(SimTime::from_nanos(500), "b");
        s.push(SimTime::from_nanos(100), "a");
        s.push(SimTime::from_nanos(500), "c"); // same time as b: FIFO
        assert_eq!(s.pop(), Some((SimTime::from_nanos(100), "a")));
        assert_eq!(s.pop(), Some((SimTime::from_nanos(500), "b")));
        assert_eq!(s.pop(), Some((SimTime::from_nanos(500), "c")));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn far_future_goes_through_heap_and_back() {
        let mut s = Scheduler::new();
        // Far beyond the wheel horizon (~1 ms).
        s.push(SimTime::from_millis(250), "rto");
        s.push(SimTime::from_nanos(10), "now");
        assert_eq!(s.stats().heap_pushes, 1);
        assert_eq!(s.pop().unwrap().1, "now");
        assert_eq!(s.pop().unwrap().1, "rto");
        assert_eq!(s.stats().migrations, 1);
    }

    #[test]
    fn ties_across_wheel_and_heap_preserve_fifo() {
        let mut s = Scheduler::new();
        let far = SimTime::from_millis(50);
        s.push(far, 1); // beyond horizon -> heap
        s.push(SimTime::from_nanos(1), 0);
        assert_eq!(s.pop().unwrap().1, 0);
        // Peeking jumps the wheel to the far tick and migrates 1 from the
        // heap; a push at the identical time now goes straight to the
        // wheel. Seq order must still break the tie.
        assert_eq!(s.next_at(), Some(far));
        assert_eq!(s.stats().migrations, 1);
        s.push(far, 2);
        assert_eq!(s.stats().wheel_pushes, 2);
        assert_eq!(s.pop(), Some((far, 1)));
        assert_eq!(s.pop(), Some((far, 2)));
    }

    #[test]
    fn insert_into_current_bucket_while_draining() {
        let mut s = Scheduler::new();
        let t = SimTime::from_nanos(100);
        s.push(t, "first");
        assert_eq!(s.next_at(), Some(t)); // makes t's bucket current
                                          // Same-bucket, later time and same-bucket same-time inserts.
        s.push(SimTime::from_nanos(90).max(t), "tie");
        s.push(SimTime::from_nanos(900), "later");
        assert_eq!(s.pop().unwrap().1, "first");
        assert_eq!(s.pop().unwrap().1, "tie");
        assert_eq!(s.pop().unwrap().1, "later");
    }

    #[test]
    fn matches_reference_heap_on_random_workload() {
        // Mixes near-future (serialization-scale), mid-future (RTT-scale)
        // and far-future (RTO-scale) pushes the way the engine does, and
        // interleaves them with every way of looking at or taking the
        // head: `pop`, `pop_if` (accepting and refusing), `pop_due` (limit
        // before, at and after the head) and `next_at`.
        let mut next = xorshift(0x9e3779b97f4a7c15);
        let mut s = Scheduler::new();
        let mut r = RefSched::new();
        let mut now = SimTime::ZERO;
        let mut id = 0u32;
        // Timestamps of far pushes, replayed later as exact ties.
        let mut far_times: Vec<SimTime> = Vec::new();
        let (mut accepted, mut refused) = (0u32, 0u32);
        let (mut due, mut later) = (0u32, 0u32);
        for _ in 0..80_000 {
            // Push-heavy while few entries are pending, drain-heavy above
            // that, so buckets stay populated and time keeps advancing
            // into the far entries.
            let push = next() % 100 < if r.heap.len() < 64 { 60 } else { 30 };
            let op = next() % 10;
            if push {
                let at = match next() % 10 {
                    // Mostly inside the bucket being drained or the next few.
                    0..=5 => now + SimDuration::from_nanos(next() % 5_000),
                    6 | 7 => now + SimDuration::from_nanos(next() % 200_000),
                    8 => {
                        let at = now + SimDuration::from_millis(2 + next() % 20);
                        far_times.push(at);
                        at
                    }
                    // A tie: with a far entry pushed long ago — by now it
                    // has usually migrated from the heap, so the newcomer
                    // must queue behind it on `seq` alone — or with `now`,
                    // the timestamp of the head just popped.
                    _ => match far_times.iter().position(|&t| t >= now) {
                        Some(i) => far_times.swap_remove(i),
                        None => now,
                    },
                };
                // A burst of same-timestamp pushes ~10% of the time.
                let copies = if next().is_multiple_of(10) { 3 } else { 1 };
                for _ in 0..copies {
                    s.push(at, id);
                    r.push(at, id);
                    id += 1;
                }
            } else if op < 4 {
                let a = s.pop();
                assert_eq!(a, r.pop(), "divergence after {id} pushes");
                if let Some((at, _)) = a {
                    now = at;
                }
            } else if op < 6 {
                let want = r.peek().map(|(at, &item)| (at, item));
                let got = s.pop_if(|at, &item| {
                    assert_eq!(Some((at, item)), want, "pop_if showed the wrong head");
                    item % 2 == 0
                });
                match want {
                    Some((at, item)) if item % 2 == 0 => {
                        assert_eq!(got, r.pop());
                        now = at;
                        accepted += 1;
                    }
                    Some(_) => {
                        assert_eq!(got, None, "a refused head must stay queued");
                        refused += 1;
                    }
                    None => assert_eq!(got, None),
                }
            } else if op < 9 {
                let head_at = r.peek().map(|(at, _)| at);
                let limit = match (head_at, next() % 3) {
                    (Some(at), 0) if at > SimTime::ZERO => {
                        SimTime::from_nanos(at.as_nanos() - 1 - next() % at.as_nanos().min(2_000))
                    }
                    (Some(at), 1) => at,
                    (Some(at), _) => at + SimDuration::from_nanos(next() % 2_000),
                    (None, _) => now,
                };
                match s.pop_due(limit) {
                    Due::Item(at, item) => {
                        assert!(at <= limit);
                        assert_eq!(Some((at, item)), r.pop());
                        now = at;
                        due += 1;
                    }
                    Due::Later(at) => {
                        assert!(at > limit);
                        assert_eq!(Some(at), head_at, "Later must name the head");
                        later += 1;
                    }
                    Due::Empty => assert_eq!(head_at, None),
                }
            } else {
                assert_eq!(s.next_at(), r.peek().map(|(at, _)| at));
            }
            assert_eq!(s.len(), r.heap.len());
        }
        // Every branch of the interleaving actually ran.
        assert!(
            accepted > 1_000 && refused > 1_000,
            "{accepted} / {refused}"
        );
        assert!(due > 1_000 && later > 1_000, "{due} / {later}");
        assert!(s.stats().migrations > 1_000);
        loop {
            let a = s.pop();
            assert_eq!(a, r.pop());
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn slab_follows_peak_pending_not_pushes() {
        // Pop one, push one, with K entries pending throughout: however
        // many times the wheel goes round, freed slots are reused and the
        // slab never holds more than K nodes.
        const K: usize = 64;
        let mut s: Scheduler<u64> = Scheduler::new();
        let mut now = SimTime::ZERO;
        for i in 0..K as u64 {
            s.push(now + SimDuration::from_nanos(800 + i * 37), i);
        }
        let mut i = K as u64;
        while s.base_tick < 10 * NUM_BUCKETS as u64 {
            let (at, _) = s.pop().expect("K entries pending");
            now = at;
            // Every 16th entry starts beyond the horizon and reaches the
            // slab by migration.
            let after = if i.is_multiple_of(16) {
                SimDuration::from_millis(3)
            } else {
                SimDuration::from_nanos(800 + (i % 97) * 37)
            };
            s.push(now + after, i);
            i += 1;
            assert_eq!(s.len(), K);
        }
        assert!(s.stats().pops > 10 * K as u64, "the slab was recycled");
        assert!(s.stats().migrations > 0);
        assert!(s.nodes.len() <= K, "slab grew to {} nodes", s.nodes.len());
    }

    #[test]
    fn one_bucket_of_ten_thousand_drains_in_order() {
        // One bucket, filled in random order: nearly every insert walks
        // the list, and the drain must still be the exact (at, seq) order.
        const N: u32 = 10_000;
        let mut next = xorshift(0x2545f4914f6cdd1d);
        let mut s = Scheduler::new();
        let mut want = Vec::new();
        for id in 0..N {
            let at = SimTime::from_nanos(next() % (1 << BUCKET_SHIFT));
            s.push(at, id);
            want.push((at, id));
        }
        assert_eq!(s.stats().wheel_pushes, N as u64);
        assert_ne!(s.buckets[0].head, NIL);
        assert!(
            s.buckets.iter().skip(1).all(|b| b.head == NIL),
            "all entries share the first bucket"
        );
        want.sort(); // ids are push order, so this is (at, seq)
        let got: Vec<_> = std::iter::from_fn(|| s.pop()).collect();
        assert_eq!(got, want);
        assert_eq!(s.nodes.len(), N as usize);
    }

    #[test]
    fn stats_count_operations() {
        let mut s = Scheduler::new();
        s.push(SimTime::from_nanos(10), ());
        s.push(SimTime::from_secs_f64(1.0), ());
        let st = s.stats();
        assert_eq!(st.wheel_pushes, 1);
        assert_eq!(st.heap_pushes, 1);
        assert_eq!(st.wheel_hit_rate(), 0.5);
        while s.pop().is_some() {}
        assert_eq!(s.stats().pops, 2);
    }
}
