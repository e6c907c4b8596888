//! Flat, cache-friendly flow tables with generational handles.
//!
//! Population-scale runs (10k+ concurrent flows) spend their hot path
//! looking up per-flow state: the engine maps a node to its agent on
//! every dispatch, and a multiplexed sender maps a flow id to its
//! transport state machine on every ack. Scattering that state behind
//! `Vec<Option<Box<T>>>` plus linear scans is what made a handful of
//! flows fine and ten thousand unaffordable.
//!
//! [`FlowTable`] is a slab: values live in a dense `Vec`, freed slots go
//! on a free list and are reused, and every handle ([`FlowKey`]) carries
//! the slot's *generation* so a stale handle to a recycled slot is
//! detected instead of silently reading the new occupant. Iteration
//! order is slot order — deterministic and independent of removal
//! history interleaving, so tables are safe inside the replayed
//! simulation surface.
//!
//! [`FlowIndex`] is the companion lookup structure: a compact
//! open-addressed `raw id -> FlowKey` table sized by the entries it
//! holds, never by the ids' magnitude. A rack of a population serves a
//! thin slice of a global id space (50 of 11 000 flows per host), so the
//! index must cost what the slice costs. Together they replace both the
//! `Vec<Option<Box<dyn Agent>>>` agent array and the `O(flows)`
//! per-packet scan in the multiplexed sender.

use core::fmt;

/// Generational handle into a [`FlowTable`].
///
/// `FlowKey`s are cheap to copy and remain valid until their entry is
/// removed; after removal (and any reuse of the slot) every old key is
/// rejected by the generation check.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowKey {
    slot: u32,
    generation: u32,
}

impl FlowKey {
    /// The slot index backing this key (stable while the entry lives).
    #[inline]
    pub const fn slot(self) -> usize {
        self.slot as usize
    }

    /// The generation this key was minted with.
    #[inline]
    pub const fn generation(self) -> u32 {
        self.generation
    }
}

impl fmt::Debug for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}g{}", self.slot, self.generation)
    }
}

struct Slot<T> {
    /// Even = vacant, odd = occupied: a removal bumps the generation, so
    /// keys minted for the previous occupant can never validate again.
    generation: u32,
    value: Option<T>,
}

/// A slab of per-flow (or per-agent) state with generational handles.
pub struct FlowTable<T> {
    slots: Vec<Slot<T>>,
    /// LIFO free list of vacant slot indices.
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for FlowTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FlowTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        FlowTable {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// An empty table with room for `capacity` entries before resizing.
    pub fn with_capacity(capacity: usize) -> Self {
        FlowTable {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots allocated (live + vacant). `len() / capacity()` is
    /// the table's occupancy, surfaced through the obs hooks.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Insert a value; returns its handle. Reuses the most recently
    /// freed slot first (LIFO), which keeps hot tables compact.
    pub fn insert(&mut self, value: T) -> FlowKey {
        self.len += 1;
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.value.is_none(), "free-listed slot was occupied");
            s.generation = s.generation.wrapping_add(1); // even -> odd
            s.value = Some(value);
            return FlowKey {
                slot,
                generation: s.generation,
            };
        }
        let slot = self.slots.len() as u32;
        self.slots.push(Slot {
            generation: 1,
            value: Some(value),
        });
        FlowKey {
            slot,
            generation: 1,
        }
    }

    /// Remove and return the entry behind `key`, or `None` if the key is
    /// stale or was never valid.
    pub fn remove(&mut self, key: FlowKey) -> Option<T> {
        let s = self.slots.get_mut(key.slot())?;
        if s.generation != key.generation {
            return None;
        }
        let value = s.value.take()?;
        s.generation = s.generation.wrapping_add(1); // odd -> even
        self.free.push(key.slot);
        self.len -= 1;
        Some(value)
    }

    /// Borrow the entry behind `key`, if the key is still live.
    #[inline]
    pub fn get(&self, key: FlowKey) -> Option<&T> {
        let s = self.slots.get(key.slot())?;
        if s.generation != key.generation {
            return None;
        }
        s.value.as_ref()
    }

    /// Mutably borrow the entry behind `key`, if the key is still live.
    #[inline]
    pub fn get_mut(&mut self, key: FlowKey) -> Option<&mut T> {
        let s = self.slots.get_mut(key.slot())?;
        if s.generation != key.generation {
            return None;
        }
        s.value.as_mut()
    }

    /// True if `key` still addresses a live entry.
    #[inline]
    pub fn contains(&self, key: FlowKey) -> bool {
        self.get(key).is_some()
    }

    /// Iterate live entries in slot order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (FlowKey, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.value.as_ref().map(|v| {
                (
                    FlowKey {
                        slot: i as u32,
                        generation: s.generation,
                    },
                    v,
                )
            })
        })
    }

    /// Iterate live entries mutably in slot order (deterministic).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (FlowKey, &mut T)> {
        self.slots.iter_mut().enumerate().filter_map(|(i, s)| {
            let generation = s.generation;
            s.value.as_mut().map(move |v| {
                (
                    FlowKey {
                        slot: i as u32,
                        generation,
                    },
                    v,
                )
            })
        })
    }
}

impl<T: fmt::Debug> fmt::Debug for FlowTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// One occupied slot of a [`FlowIndex`].
#[derive(Clone, Copy)]
struct Entry {
    raw: u32,
    key: FlowKey,
}

/// Compact `raw id -> FlowKey` index: open addressing, linear probing.
///
/// The slot array is a power of two, at least [`FlowIndex::MIN_SLOTS`]
/// once anything is stored, and doubles when an insert would take the
/// load past one half — so it holds at most `max(8, 4 * len)` slots
/// whatever the ids are. (It never shrinks: the bound is against the
/// most entries ever held.) A direct-mapped vector is the better table
/// when ids are `0..n` and the table holds all of them; it was the
/// wrong one here because the ids an index sees are a *slice* of a
/// population's global id space — a host serving 50 of 11 000 flows
/// paid for 11 000 slots, and an id near `u32::MAX` sized a 48 GB
/// allocation. The population case decided it; a dumbbell's handful of
/// ids fit the minimum table and probe once.
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

    /// Associate `raw` with `key`, growing the table when a new id would
    /// take the load past one half. Returns the previous association, if
    /// any.
    pub fn set(&mut self, raw: u32, key: FlowKey) -> Option<FlowKey> {
        if let Some(Some(e)) = self.probe(raw).and_then(|i| self.slots.get_mut(i)) {
            return Some(std::mem::replace(&mut e.key, key));
        }
        if (self.len + 1) * 2 > self.slots.len() {
            self.rehash((self.slots.len() * 2).max(Self::MIN_SLOTS));
        }
        if let Some(slot) = self.probe(raw).and_then(|i| self.slots.get_mut(i)) {
            *slot = Some(Entry { raw, key });
            self.len += 1;
        }
        None
    }

    /// The key associated with `raw`, if any.
    #[inline]
    pub fn get(&self, raw: u32) -> Option<FlowKey> {
        let i = self.probe(raw)?;
        self.slots.get(i).copied().flatten().map(|e| e.key)
    }

    /// Remove the association for `raw`, returning it.
    ///
    /// Backward-shift deletion: every entry further along the probe run
    /// that would become unreachable across the new hole is moved back
    /// into it, so no tombstones accumulate and later lookups see exactly
    /// the table a fresh build of the survivors could have produced.
    pub fn clear(&mut self, raw: u32) -> Option<FlowKey> {
        let mut hole = self.probe(raw)?;
        let removed = self.slots.get_mut(hole)?.take()?;
        self.len -= 1;
        let n = self.slots.len();
        let mut j = hole;
        loop {
            j = (j + 1) & (n - 1);
            let Some(e) = self.slots.get(j).copied().flatten() else {
                break;
            };
            // `e` may move back only if its home is not in (hole, j]
            // cyclically — otherwise the move would put it before home.
            let home = Self::home(e.raw, n);
            let stays = if hole <= j {
                hole < home && home <= j
            } else {
                hole < home || home <= j
            };
            if stays {
                continue;
            }
            // `hole` is vacant and `j` holds `e`; both were just read.
            self.slots.swap(hole, j);
            hole = j;
        }
        Some(removed.key)
    }
}

impl fmt::Debug for FlowIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<(u32, FlowKey)> = self
            .slots
            .iter()
            .flatten()
            .map(|e| (e.raw, e.key))
            .collect();
        entries.sort_unstable_by_key(|&(raw, _)| raw);
        f.debug_map().entries(entries).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = FlowTable::new();
        let a = t.insert("a");
        let b = t.insert("b");
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a), Some(&"a"));
        assert_eq!(t.get(b), Some(&"b"));
        assert_eq!(t.remove(a), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(a), None);
        assert_eq!(t.get(b), Some(&"b"));
    }

    #[test]
    fn stale_keys_are_rejected_after_slot_reuse() {
        let mut t = FlowTable::new();
        let a = t.insert(1u32);
        assert_eq!(t.remove(a), Some(1));
        let b = t.insert(2u32); // reuses slot 0
        assert_eq!(b.slot(), a.slot());
        assert_ne!(b.generation(), a.generation());
        assert_eq!(t.get(a), None, "stale key must not see the new occupant");
        assert_eq!(t.remove(a), None);
        assert_eq!(t.get(b), Some(&2));
    }

    #[test]
    fn double_remove_is_none() {
        let mut t = FlowTable::new();
        let a = t.insert(7u8);
        assert_eq!(t.remove(a), Some(7));
        assert_eq!(t.remove(a), None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn iteration_is_slot_ordered_and_skips_vacant() {
        let mut t = FlowTable::new();
        let a = t.insert(10);
        let b = t.insert(20);
        let c = t.insert(30);
        t.remove(b);
        let seen: Vec<i32> = t.iter().map(|(_, v)| *v).collect();
        assert_eq!(seen, vec![10, 30]);
        for (k, v) in t.iter_mut() {
            if k == a {
                *v += 1;
            }
            let _ = c;
        }
        assert_eq!(t.get(a), Some(&11));
    }

    #[test]
    fn freed_slots_are_reused_lifo() {
        let mut t = FlowTable::new();
        let keys: Vec<FlowKey> = (0..4).map(|i| t.insert(i)).collect();
        t.remove(keys[1]);
        t.remove(keys[3]);
        let r1 = t.insert(100); // takes slot 3 (last freed)
        let r2 = t.insert(200); // takes slot 1
        assert_eq!(r1.slot(), 3);
        assert_eq!(r2.slot(), 1);
        assert_eq!(t.capacity(), 4, "no growth while free slots remain");
    }

    #[test]
    fn occupancy_reflects_len_over_capacity() {
        let mut t = FlowTable::with_capacity(8);
        let keys: Vec<FlowKey> = (0..6).map(|i| t.insert(i)).collect();
        assert_eq!(t.len(), 6);
        assert_eq!(t.capacity(), 6);
        t.remove(keys[0]);
        t.remove(keys[1]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.capacity(), 6, "capacity counts vacant slots too");
    }

    #[test]
    fn flow_index_maps_raw_ids() {
        let mut t = FlowTable::new();
        let mut ix = FlowIndex::new();
        let k5 = t.insert("five");
        let k9 = t.insert("nine");
        assert_eq!(ix.set(5, k5), None);
        assert_eq!(ix.set(9, k9), None);
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.get(5), Some(k5));
        assert_eq!(ix.get(7), None);
        assert_eq!(ix.get(100), None);
        assert_eq!(ix.set(5, k9), Some(k5), "overwrite returns the old key");
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.clear(5), Some(k9));
        assert_eq!(ix.clear(5), None);
        assert_eq!(ix.get(5), None);
        assert_eq!(t.get(ix.get(9).unwrap()), Some(&"nine"));
    }

    #[test]
    fn flow_index_allocates_nothing_until_set() {
        let ix = FlowIndex::new();
        assert_eq!(ix.slots(), 0);
        assert!(ix.is_empty());
        assert_eq!(ix.get(0), None);
    }

    /// The parent's direct-mapped vector did `resize(raw + 1)`: one flow
    /// with raw id 4 000 000 000 asked for 48 GB. An id's magnitude must
    /// not size anything.
    #[test]
    fn flow_index_is_sized_by_entries_not_by_id_magnitude() {
        let mut t = FlowTable::new();
        let mut ix = FlowIndex::new();
        let ids = [7u32, 10_999, 4_000_000_000];
        let keys: Vec<FlowKey> = ids.iter().map(|&id| t.insert(id)).collect();
        for (&id, &k) in ids.iter().zip(&keys) {
            ix.set(id, k);
        }
        assert!(ix.slots() <= 8, "{} slots for three entries", ix.slots());
        for (&id, &k) in ids.iter().zip(&keys) {
            assert_eq!(ix.get(id), Some(k));
        }
        assert_eq!(ix.get(u32::MAX), None);
    }

    #[test]
    fn flow_index_debug_prints_in_ascending_id_order() {
        let mut t = FlowTable::new();
        let mut ix = FlowIndex::new();
        for id in [4_000_000_000u32, 7, 10_999] {
            let k = t.insert(id);
            ix.set(id, k);
        }
        assert_eq!(
            format!("{ix:?}"),
            "{7: k1g1, 10999: k2g1, 4000000000: k0g1}"
        );
    }

    #[test]
    fn flow_index_grows_at_half_load_and_keeps_every_entry() {
        let mut t = FlowTable::new();
        let mut ix = FlowIndex::new();
        // One rack host's slice of a population: r, r + 220, ...
        let ids: Vec<u32> = (0..50).map(|i| 13 + 220 * i).collect();
        let keys: Vec<FlowKey> = ids.iter().map(|&id| t.insert(id)).collect();
        for (n, (&id, &k)) in ids.iter().zip(&keys).enumerate() {
            ix.set(id, k);
            assert!(ix.slots() >= 2 * (n + 1), "load past one half");
            assert!(ix.slots() <= (4 * (n + 1)).max(8), "table too sparse");
        }
        assert_eq!(ix.slots(), 128);
        for (&id, &k) in ids.iter().zip(&keys) {
            assert_eq!(ix.get(id), Some(k));
        }
    }
}
