//! Windowed map over monotonically assigned `u64` ids.
//!
//! The world hands out task ids from a counter and drops each entry when
//! it completes, so at any instant the live ids occupy a narrow window
//! near the top of the sequence. [`SeqMap`] exploits that: entries live in a
//! `VecDeque` indexed by `id - base`, giving O(1) hash-free insert/lookup/
//! remove on the event hot path, with memory bounded by the *span* of live
//! ids (the window advances as the oldest entries retire). Iteration is in
//! id order for free — no collect-and-sort pass in diagnostics paths.

use simcore::Invariant;
use std::collections::VecDeque;

/// A map from monotone `u64` ids to values (see module docs).
#[derive(Debug)]
pub(crate) struct SeqMap<V> {
    /// Id of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<V>>,
}

impl<V> Default for SeqMap<V> {
    fn default() -> Self {
        SeqMap {
            base: 0,
            slots: VecDeque::new(),
        }
    }
}

impl<V> SeqMap<V> {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        SeqMap {
            base: 0,
            slots: VecDeque::with_capacity(capacity),
        }
    }

    fn index(&self, id: u64) -> Option<usize> {
        id.checked_sub(self.base).map(|i| i as usize)
    }

    /// Inserts `id`. Ids must be assigned by a counter: inserting below the
    /// current window (an id whose slot was already retired) is a logic
    /// error, as is double insertion.
    pub(crate) fn insert(&mut self, id: u64, val: V) {
        if self.slots.is_empty() {
            // Re-anchor an empty window: the front never needs to move back.
            self.base = id;
        }
        let i = self.index(id).invariant("id below the retired window");
        while self.slots.len() <= i {
            self.slots.push_back(None);
        }
        let slot = &mut self.slots[i];
        assert!(slot.is_none(), "SeqMap: duplicate id {id}");
        *slot = Some(val);
    }

    pub(crate) fn get(&self, id: u64) -> Option<&V> {
        self.index(id)
            .and_then(|i| self.slots.get(i))
            .and_then(|s| s.as_ref())
    }

    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        match self.index(id) {
            Some(i) => self.slots.get_mut(i).and_then(|s| s.as_mut()),
            None => None,
        }
    }

    /// Removes `id`, advancing the window past any retired prefix.
    pub(crate) fn remove(&mut self, id: u64) -> Option<V> {
        let i = self.index(id)?;
        let val = self.slots.get_mut(i)?.take()?;
        // Advance the window past the retired prefix; the allocation is
        // kept and the next insert re-anchors an emptied window.
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(val)
    }

    /// Live entries in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| s.as_ref().map(|v| (self.base + i as u64, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut m = SeqMap::default();
        m.insert(0, "a");
        m.insert(1, "b");
        m.insert(2, "c");
        assert_eq!(m.iter().count(), 3);
        assert_eq!(m.get(1), Some(&"b"));
        assert_eq!(m.remove(1), Some("b"));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.get(1), None);
        assert_eq!(m.get(0), Some(&"a"));
        assert_eq!(m.get(2), Some(&"c"));
    }

    #[test]
    fn window_advances_past_retired_prefix() {
        let mut m = SeqMap::default();
        for id in 0..100u64 {
            m.insert(id, id);
        }
        for id in 0..99u64 {
            assert_eq!(m.remove(id), Some(id));
        }
        assert_eq!(m.iter().count(), 1);
        assert!(m.slots.len() <= 1, "window did not advance");
        m.insert(100, 100);
        assert_eq!(m.get(99), Some(&99));
        assert_eq!(m.get(100), Some(&100));
    }

    #[test]
    fn empty_map_reanchors_far_ahead() {
        let mut m = SeqMap::default();
        m.insert(0, 0u32);
        m.remove(0);
        // A long-running world can retire millions of ids; a fresh insert
        // must not materialize the gap.
        m.insert(5_000_000, 1);
        assert!(m.slots.len() <= 1);
        assert_eq!(m.get(5_000_000), Some(&1));
        assert_eq!(m.get(0), None);
    }

    #[test]
    fn iterates_in_id_order() {
        let mut m = SeqMap::default();
        for id in [3u64, 4, 5, 6] {
            m.insert(id, id * 10);
        }
        m.remove(4);
        let got: Vec<(u64, u64)> = m.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(got, [(3, 30), (5, 50), (6, 60)]);
    }

    #[test]
    fn get_mut_updates() {
        let mut m = SeqMap::default();
        m.insert(7, 1u32);
        *m.get_mut(7).unwrap() += 9;
        assert_eq!(m.get(7), Some(&10));
        let _ = SeqMap::<u32>::with_capacity(8);
    }
}
