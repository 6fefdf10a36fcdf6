//! A hash-free map keyed by request tag, sized by the tags that are live.
//!
//! A rank numbers its requests, so tags keep growing over a run while only
//! a handful are outstanding at once. The map is therefore a direct-mapped
//! table: tag `t` lives in slot `t & (len − 1)`. The table starts empty and
//! grows only when a new tag lands on a slot held by a different live tag,
//! and then straight to the smallest power of two that separates the two,
//! up to [`MAX_SLOTS`]. Live tags that no table of that size separates (tags
//! `k·4096` apart, say) go to a short list scanned linearly. So a rank
//! whose outstanding tags are consecutive holds as many slots as the
//! power of two above its peak outstanding count, however many requests it
//! issues, and no tag value can balloon the table. Every operation is O(1)
//! while the spill list is empty.

/// The table never grows past this many slots; colliding tags beyond it
/// go to the spill list.
const MAX_SLOTS: usize = 4096;

/// A map from `u32` request tags to `V`. An empty map allocates nothing.
#[derive(Clone, Debug)]
pub struct TagMap<V> {
    /// Slot `tag & (len − 1)` holds `tag`'s entry; `len` is 0 or a power
    /// of two.
    slots: Vec<Option<(u32, V)>>,
    /// Entries whose slot another live tag holds, in no particular order.
    spill: Vec<(u32, V)>,
}

impl<V> Default for TagMap<V> {
    fn default() -> Self {
        TagMap {
            slots: Vec::new(),
            spill: Vec::new(),
        }
    }
}

impl<V> TagMap<V> {
    /// The slot `tag` maps to; past the end of an empty table.
    fn slot(&self, tag: u32) -> usize {
        tag as usize & self.slots.len().wrapping_sub(1)
    }

    /// Rebuilds the table with `len` slots. Entries apart in the old table
    /// stay apart in the larger one.
    fn grow(&mut self, len: usize) {
        let mut slots = Vec::with_capacity(len);
        slots.resize_with(len, || None);
        for (t, v) in std::mem::take(&mut self.slots).into_iter().flatten() {
            slots[t as usize & (len - 1)] = Some((t, v));
        }
        self.slots = slots;
    }

    /// Binds `tag` to `value`, returning the value it displaced.
    pub fn insert(&mut self, tag: u32, value: V) -> Option<V> {
        if let Some(v) = self.get_mut(tag) {
            return Some(std::mem::replace(v, value));
        }
        loop {
            let i = self.slot(tag);
            let len = match self.slots.get(i) {
                Some(None) => {
                    self.slots[i] = Some((tag, value));
                    return None;
                }
                // The lowest bit where the two tags differ sets the size.
                Some(Some((other, _))) => {
                    let bit = (tag ^ other).trailing_zeros();
                    if bit >= MAX_SLOTS.ilog2() {
                        self.spill.push((tag, value));
                        return None;
                    }
                    2 << bit
                }
                None => 1,
            };
            self.grow(len);
        }
    }

    /// The value bound to `tag`.
    pub fn get(&self, tag: u32) -> Option<&V> {
        match self.slots.get(self.slot(tag)) {
            Some(Some((t, v))) if *t == tag => Some(v),
            _ => self.spill.iter().find(|(t, _)| *t == tag).map(|(_, v)| v),
        }
    }

    /// The value bound to `tag`, mutably.
    pub fn get_mut(&mut self, tag: u32) -> Option<&mut V> {
        let i = self.slot(tag);
        match self.slots.get_mut(i) {
            Some(Some((t, v))) if *t == tag => Some(v),
            _ => self
                .spill
                .iter_mut()
                .find(|(t, _)| *t == tag)
                .map(|(_, v)| v),
        }
    }

    /// Unbinds `tag`, returning its value.
    pub fn remove(&mut self, tag: u32) -> Option<V> {
        let i = self.slot(tag);
        match self.slots.get_mut(i) {
            Some(s) if s.as_ref().is_some_and(|e| e.0 == tag) => s.take().map(|(_, v)| v),
            _ => {
                let j = self.spill.iter().position(|(t, _)| *t == tag)?;
                Some(self.spill.swap_remove(j).1)
            }
        }
    }

    /// The lowest bound tag.
    pub fn lowest(&self) -> Option<u32> {
        let slotted = self.slots.iter().flatten().map(|&(t, _)| t);
        slotted.chain(self.spill.iter().map(|&(t, _)| t)).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Applies one operation to the map and to a `BTreeMap` model and
    /// checks that both answer alike.
    fn step(m: &mut TagMap<u64>, model: &mut BTreeMap<u32, u64>, op: u64, tag: u32, v: u64) {
        match op % 4 {
            0 => assert_eq!(m.insert(tag, v), model.insert(tag, v), "insert {tag}"),
            1 => assert_eq!(m.remove(tag), model.remove(&tag), "remove {tag}"),
            2 => {
                if let (Some(a), Some(b)) = (m.get_mut(tag), model.get_mut(&tag)) {
                    *a += v;
                    *b += v;
                }
            }
            _ => {}
        }
        assert_eq!(m.get(tag), model.get(&tag), "get {tag}");
        assert_eq!(m.lowest(), model.keys().next().copied(), "lowest");
    }

    #[test]
    fn matches_a_btreemap_model() {
        let pools: [&[u32]; 5] = [
            // Dense small tags.
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
            // Tags at and above 4096.
            &[4095, 4096, 4097, 5000, 70_000, 1 << 20],
            // The extremes of the tag range.
            &[0, 1, u32::MAX, u32::MAX - 1, 1 << 31],
            // Tags no table up to 4096 slots separates: all spill.
            &[0, 4096, 2 * 4096, 3 * 4096, 7 * 4096, 4096 * 4096],
            // A mix that grows the table and spills.
            &[0, 2048, 4096, 6144, 3, 4099, u32::MAX, 17],
        ];
        let mut rng = crate::stream_rng(21, 0);
        for pool in pools {
            let mut m = TagMap::default();
            let mut model = BTreeMap::new();
            for _ in 0..4000 {
                let tag = pool[rng.next_u64() as usize % pool.len()];
                let (op, v) = (rng.next_u64(), rng.next_u64() % 1000);
                step(&mut m, &mut model, op, tag, v);
            }
            // Drain: every remaining tag comes back exactly once.
            for tag in pool {
                step(&mut m, &mut model, 1, *tag, 0);
            }
            assert_eq!((m.lowest(), model.len()), (None, 0));
        }
    }

    #[test]
    fn reused_tags_rebind_in_place() {
        for tag in [0, 5, 4096, u32::MAX] {
            let mut m = TagMap::default();
            for round in 0..10u64 {
                assert_eq!(m.insert(tag, round), None);
                assert_eq!(m.insert(tag, round + 100), Some(round));
                assert_eq!(m.remove(tag), Some(round + 100));
                assert_eq!(m.remove(tag), None);
            }
            assert_eq!(m.slots.len(), 1, "tag {tag}");
        }
    }

    #[test]
    fn colliding_tags_spill_without_growing_the_table() {
        let mut m = TagMap::default();
        for k in 0..8u32 {
            assert_eq!(m.insert(k * 4096, k), None);
        }
        assert_eq!((m.slots.len(), m.spill.len()), (1, 7));
        // A tag that a small table separates still lands in a slot.
        m.insert(1, 99);
        assert_eq!((m.slots.len(), m.spill.len()), (2, 7));
        for k in (0..8u32).rev() {
            assert_eq!(m.get(k * 4096), Some(&k));
            assert_eq!(m.remove(k * 4096), Some(k));
        }
        assert_eq!(m.lowest(), Some(1));
    }

    /// ROADMAP item 2's bound: sequential tags with at most two
    /// outstanding keep the table at a few slots.
    #[test]
    fn memory_follows_live_tags_not_tags_issued() {
        let mut m = TagMap::default();
        m.insert(0, ());
        for tag in 1..1000u32 {
            m.insert(tag, ());
            assert_eq!(m.remove(tag - 1), Some(()));
        }
        assert_eq!(m.remove(999), Some(()));
        assert!(m.slots.len() <= 4, "{} slots", m.slots.len());
        assert!(m.spill.capacity() == 0);
        // The burst shape: 64 outstanding, tags growing phase by phase.
        let mut burst = TagMap::default();
        for phase in 0..16u32 {
            for k in 0..64 {
                burst.insert(phase * 64 + k, ());
            }
            for k in 0..64 {
                burst.remove(phase * 64 + k);
            }
        }
        assert_eq!((burst.slots.len(), burst.spill.capacity()), (64, 0));
    }

    #[test]
    fn an_empty_map_allocates_nothing() {
        let m: TagMap<u64> = TagMap::default();
        assert_eq!((m.slots.capacity(), m.spill.capacity()), (0, 0));
        assert_eq!((m.get(0), m.get(u32::MAX), m.lowest()), (None, None, None));
    }
}
