//! The flow-id index: `raw id -> position`, insert-only.
//!
//! Population-scale runs (10k+ concurrent flows) spend their hot path
//! looking up per-flow state: a multiplexed sender maps a flow id to its
//! transport state machine on every ack, a receiver maps it to the flow's
//! reassembly state on every segment. That state lives in a plain `Vec`
//! in the order the flows were first seen, and [`FlowIndex`] answers
//! "which element is flow `raw`?" with the element's *position*.
//!
//! A position is a complete handle because nothing is ever removed: a
//! sender's flows are fixed at construction, a receiver learns a flow on
//! its first segment and keeps it, and both live exactly as long as the
//! `Network` they are attached to. A `Vec` that only grows never moves an
//! element to another index, so a position handed out once is valid for
//! the life of the run — there is no stale handle for a generation
//! counter to catch. (`FramePool` is the one table in the engine that
//! *does* recycle slots; it explains there why its refs need no
//! generation either.)
//!
//! The index is sized by the entries it holds, never by the ids'
//! magnitude: a rack of a population serves a thin slice of a global id
//! space (50 of 11 000 flows per host), so the index must cost what the
//! slice costs.

use core::fmt;

/// One occupied slot of a [`FlowIndex`].
#[derive(Clone, Copy)]
struct Entry {
    raw: u32,
    pos: u32,
}

/// Compact `raw id -> position` index: open addressing, linear probing.
///
/// The slot array is a power of two, at least [`FlowIndex::MIN_SLOTS`]
/// once anything is stored, and doubles when an insert would take the
/// load past one half — so it holds at most `max(8, 4 * len)` slots
/// whatever the ids are. A direct-mapped vector is the better table
/// when ids are `0..n` and the table holds all of them; it was the
/// wrong one here because the ids an index sees are a *slice* of a
/// population's global id space — a host serving 50 of 11 000 flows
/// paid for 11 000 slots, and an id near `u32::MAX` sized a 48 GB
/// allocation. The population case decided it; a dumbbell's handful of
/// ids fit the minimum table and probe once.
///
/// There is no removal, so there are no tombstones and no probe chain is
/// ever broken: an id, once set, is found for the life of the index.
///
/// The hash is one fixed multiplication (no `RandomState`, no per-run
/// state), so slot order is a pure function of the operations applied
/// and the index stays inside the replayed surface. Nothing observable
/// depends on that order anyway: lookups are by id and `Debug` prints
/// in ascending id order.
#[derive(Default)]
pub struct FlowIndex {
    /// Empty until the first `set`, then a power of two.
    slots: Vec<Option<Entry>>,
    len: usize,
}

impl FlowIndex {
    /// Smallest non-empty slot array.
    const MIN_SLOTS: usize = 8;

    /// An empty index. Allocates nothing until the first `set`.
    pub fn new() -> Self {
        FlowIndex::default()
    }

    /// Number of ids with an association.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no id has an association.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots allocated: what the index costs, whatever its ids are.
    #[inline]
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Home slot of `raw` in a table of `slots` (a power of two, >= 2):
    /// Fibonacci hashing — multiply by 2^32 / phi and keep the top bits,
    /// which spreads clustered and strided ids alike.
    #[inline]
    fn home(raw: u32, slots: usize) -> usize {
        debug_assert!(slots.is_power_of_two() && slots >= 2);
        (raw.wrapping_mul(0x9E37_79B9) >> (32 - slots.trailing_zeros())) as usize
    }

    /// Slot holding `raw`, or the vacant slot where its probe ends.
    /// `None` only for an unallocated table: a load of at most one half
    /// guarantees every probe meets a vacancy.
    #[inline]
    fn probe(&self, raw: u32) -> Option<usize> {
        let n = self.slots.len();
        if n == 0 {
            return None;
        }
        let mut i = Self::home(raw, n);
        loop {
            match self.slots.get(i)? {
                Some(e) if e.raw != raw => i = (i + 1) & (n - 1),
                _ => return Some(i),
            }
        }
    }

    /// Re-insert every entry into a table of `slots` slots.
    fn rehash(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.slots, vec![None; slots]);
        for e in old.into_iter().flatten() {
            if let Some(slot) = self.probe(e.raw).and_then(|i| self.slots.get_mut(i)) {
                *slot = Some(e);
            }
        }
    }

    /// Associate `raw` with `pos`, growing the table when a new id would
    /// take the load past one half. Returns the previous association, if
    /// any.
    pub fn set(&mut self, raw: u32, pos: u32) -> Option<u32> {
        if let Some(Some(e)) = self.probe(raw).and_then(|i| self.slots.get_mut(i)) {
            return Some(std::mem::replace(&mut e.pos, pos));
        }
        if (self.len + 1) * 2 > self.slots.len() {
            self.rehash((self.slots.len() * 2).max(Self::MIN_SLOTS));
        }
        if let Some(slot) = self.probe(raw).and_then(|i| self.slots.get_mut(i)) {
            *slot = Some(Entry { raw, pos });
            self.len += 1;
        }
        None
    }

    /// The position associated with `raw`, if any.
    #[inline]
    pub fn get(&self, raw: u32) -> Option<u32> {
        let i = self.probe(raw)?;
        self.slots.get(i).copied().flatten().map(|e| e.pos)
    }
}

impl fmt::Debug for FlowIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<(u32, u32)> = self
            .slots
            .iter()
            .flatten()
            .map(|e| (e.raw, e.pos))
            .collect();
        entries.sort_unstable_by_key(|&(raw, _)| raw);
        f.debug_map().entries(entries).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_index_maps_raw_ids() {
        let mut ix = FlowIndex::new();
        assert_eq!(ix.set(5, 0), None);
        assert_eq!(ix.set(9, 1), None);
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.get(5), Some(0));
        assert_eq!(ix.get(9), Some(1));
        assert_eq!(ix.get(7), None);
        assert_eq!(ix.get(100), None);
        assert_eq!(ix.set(5, 1), Some(0), "overwrite returns the old position");
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.get(5), Some(1));
    }

    #[test]
    fn flow_index_allocates_nothing_until_set() {
        let ix = FlowIndex::new();
        assert_eq!(ix.slots(), 0);
        assert!(ix.is_empty());
        assert_eq!(ix.get(0), None);
    }

    /// A direct-mapped vector did `resize(raw + 1)`: one flow with raw id
    /// 4 000 000 000 asked for 48 GB. An id's magnitude must not size
    /// anything.
    #[test]
    fn flow_index_is_sized_by_entries_not_by_id_magnitude() {
        let mut ix = FlowIndex::new();
        let ids = [7u32, 10_999, 4_000_000_000];
        for (pos, &id) in ids.iter().enumerate() {
            ix.set(id, pos as u32);
        }
        assert!(ix.slots() <= 8, "{} slots for three entries", ix.slots());
        for (pos, &id) in ids.iter().enumerate() {
            assert_eq!(ix.get(id), Some(pos as u32));
        }
        assert_eq!(ix.get(u32::MAX), None);
    }

    #[test]
    fn flow_index_debug_prints_in_ascending_id_order() {
        let mut ix = FlowIndex::new();
        for (pos, id) in [4_000_000_000u32, 7, 10_999].into_iter().enumerate() {
            ix.set(id, pos as u32);
        }
        assert_eq!(format!("{ix:?}"), "{7: 1, 10999: 2, 4000000000: 0}");
    }

    #[test]
    fn flow_index_grows_at_half_load_and_keeps_every_entry() {
        let mut ix = FlowIndex::new();
        // One rack host's slice of a population: r, r + 220, ...
        let ids: Vec<u32> = (0..50).map(|i| 13 + 220 * i).collect();
        for (n, &id) in ids.iter().enumerate() {
            ix.set(id, n as u32);
            assert!(ix.slots() >= 2 * (n + 1), "load past one half");
            assert!(ix.slots() <= (4 * (n + 1)).max(8), "table too sparse");
        }
        assert_eq!(ix.slots(), 128);
        for (n, &id) in ids.iter().enumerate() {
            assert_eq!(ix.get(id), Some(n as u32));
        }
    }
}
