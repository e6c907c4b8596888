//! Per-entity state reached by index.
//!
//! Flows, links and hosts are named by caller-supplied `u32` ids, and
//! the hot hooks need each entity's state on every sample. An
//! [`EntityTable`] keeps that state in a dense `Vec` in first-seen
//! order and finds it through a direct id → slot page for ids below
//! [`DENSE_IDS`]; the ordered index is consulted only the first time a
//! small id is seen, and on every access for the rare id at or above
//! the bound. Memory is therefore proportional to the entities seen
//! (plus at most `4 * DENSE_IDS` bytes of page), never to the largest
//! id: one event on flow 4 000 000 000 costs one map node.

use std::collections::BTreeMap;

/// Ids below this bound are looked up through the direct page.
const DENSE_IDS: u32 = 1 << 16;

/// State per `u32`-named entity, created on first sight.
#[derive(Clone, Debug)]
pub(crate) struct EntityTable<T> {
    /// Every id seen → slot, ascending: what ordered iteration walks.
    index: BTreeMap<u32, u32>,
    /// `page[id]` is `slot + 1` for a seen id below [`DENSE_IDS`], 0
    /// otherwise. Grows to the largest small id seen.
    page: Vec<u32>,
    slots: Vec<T>,
}

impl<T> Default for EntityTable<T> {
    fn default() -> Self {
        EntityTable {
            index: BTreeMap::new(),
            page: Vec::new(),
            slots: Vec::new(),
        }
    }
}

impl<T> EntityTable<T> {
    /// The state for `id`, built by `create` the first time.
    #[inline]
    pub(crate) fn get_or_insert_with(&mut self, id: u32, create: impl FnOnce() -> T) -> &mut T {
        let slot = match self.page.get(id as usize) {
            Some(&hit) if hit != 0 => hit - 1,
            _ => self.slot_slow(id, create),
        };
        &mut self.slots[slot as usize]
    }

    #[cold]
    fn slot_slow(&mut self, id: u32, create: impl FnOnce() -> T) -> u32 {
        let slots = &mut self.slots;
        let slot = *self.index.entry(id).or_insert_with(|| {
            slots.push(create());
            u32::try_from(slots.len() - 1).expect("more entities than u32 ids")
        });
        if id < DENSE_IDS {
            let at = id as usize;
            if self.page.len() <= at {
                self.page.resize(at + 1, 0);
            }
            self.page[at] = slot + 1;
        }
        slot
    }

    /// The state for `id`, if it was ever seen.
    pub(crate) fn get(&self, id: u32) -> Option<&T> {
        self.index.get(&id).map(|&slot| &self.slots[slot as usize])
    }

    /// Seen ids, ascending.
    pub(crate) fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.index.keys().copied()
    }

    /// `(id, state)` pairs in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &T)> + '_ {
        self.index
            .iter()
            .map(|(&id, &slot)| (id, &self.slots[slot as usize]))
    }

    /// Every state, in first-seen order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.slots.iter()
    }

    /// Length of the direct page.
    #[cfg(test)]
    pub(crate) fn page_len(&self) -> usize {
        self.page.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn states_are_created_once_and_found_again() {
        let mut t: EntityTable<u64> = EntityTable::default();
        *t.get_or_insert_with(3, || 10) += 1;
        *t.get_or_insert_with(3, || 99) += 1;
        *t.get_or_insert_with(0, || 5) += 1;
        assert_eq!(t.get(3), Some(&12));
        assert_eq!(t.get(0), Some(&6));
        assert_eq!(t.get(1), None);
        assert_eq!(t.ids().collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(t.values().copied().collect::<Vec<_>>(), vec![12, 6]);
    }

    #[test]
    fn a_huge_id_costs_a_map_node_not_a_page() {
        let mut t: EntityTable<u8> = EntityTable::default();
        for id in [7, 4_000_000_000, 0, u32::MAX] {
            *t.get_or_insert_with(id, || 0) += 1;
            *t.get_or_insert_with(id, || 0) += 1;
        }
        assert_eq!(t.page_len(), 8, "page covers small ids only");
        assert_eq!(
            t.iter().map(|(id, &v)| (id, v)).collect::<Vec<_>>(),
            vec![(0, 2), (7, 2), (4_000_000_000, 2), (u32::MAX, 2)]
        );
    }
}
