//! Generation-stamped slot arena: a reusable container for hot-loop id
//! maps.
//!
//! A [`GenSlab`] hands out [`GenKey`]s that pack `(slot, generation)`.
//! Lookups are plain array probes with no hashing; removing an entry bumps
//! the slot's generation so stale keys can never alias a recycled slot; and
//! memory is bounded by the *peak* number of live entries instead of growing
//! with the total ever inserted. Runtime crates use it wherever a hot loop
//! would otherwise hash transient ids (in-flight I/O tasks, open tracer
//! spans).

use crate::error::Invariant;

/// Token identifying one live entry of a [`GenSlab`].
///
/// Packs `(slot, generation)`; the key dies as soon as its entry is removed,
/// even if the slot is later recycled for a new entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GenKey(u64);

impl GenKey {
    fn new(slot: u32, gen: u32) -> Self {
        GenKey((slot as u64) | ((gen as u64) << 32))
    }

    /// The raw slot index (stable while the entry is live). Useful as a
    /// dense array index for side tables sized like the slab.
    pub fn slot(self) -> u32 {
        self.0 as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

struct Entry<T> {
    gen: u32,
    val: Option<T>,
}

/// A generation-stamped slot arena (see module docs).
pub struct GenSlab<T> {
    entries: Vec<Entry<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for GenSlab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> GenSlab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty slab pre-sized for `capacity` concurrently live entries,
    /// avoiding reallocation in the insertion hot path.
    pub fn with_capacity(capacity: usize) -> Self {
        GenSlab {
            entries: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots ever allocated (the peak-liveness bound).
    pub fn slot_count(&self) -> usize {
        self.entries.len()
    }

    /// Inserts `val`, returning its key.
    pub fn insert(&mut self, val: T) -> GenKey {
        self.len += 1;
        match self.free.pop() {
            Some(slot) => {
                let e = &mut self.entries[slot as usize];
                debug_assert!(e.val.is_none());
                e.val = Some(val);
                GenKey::new(slot, e.gen)
            }
            None => {
                let slot = u32::try_from(self.entries.len()).invariant("slot count fits in u32");
                self.entries.push(Entry {
                    gen: 0,
                    val: Some(val),
                });
                GenKey::new(slot, 0)
            }
        }
    }

    fn entry(&self, key: GenKey) -> Option<&Entry<T>> {
        self.entries
            .get(key.slot() as usize)
            .filter(|e| e.gen == key.gen() && e.val.is_some())
    }

    /// True while `key`'s entry is live.
    pub fn contains(&self, key: GenKey) -> bool {
        self.entry(key).is_some()
    }

    /// Borrows the entry behind `key`, if still live.
    pub fn get(&self, key: GenKey) -> Option<&T> {
        self.entry(key).and_then(|e| e.val.as_ref())
    }

    /// Mutably borrows the entry behind `key`, if still live.
    pub fn get_mut(&mut self, key: GenKey) -> Option<&mut T> {
        self.entries
            .get_mut(key.slot() as usize)
            .filter(|e| e.gen == key.gen())
            .and_then(|e| e.val.as_mut())
    }

    /// Removes and returns the entry behind `key`. Stale keys (already
    /// removed, possibly recycled) return `None` and disturb nothing.
    pub fn remove(&mut self, key: GenKey) -> Option<T> {
        let e = self
            .entries
            .get_mut(key.slot() as usize)
            .filter(|e| e.gen == key.gen())?;
        let val = e.val.take()?;
        // Bump the generation on removal so the outgoing key (and any copy
        // of it) can never match the slot's next occupant.
        e.gen = e.gen.wrapping_add(1);
        self.free.push(key.slot());
        self.len -= 1;
        Some(val)
    }

    /// Iterates live entries in slot order (not insertion order).
    pub fn iter(&self) -> impl Iterator<Item = (GenKey, &T)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.val.as_ref().map(|v| (GenKey::new(i as u32, e.gen), v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = GenSlab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.remove(a), None, "double remove is a no-op");
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(a), None);
        assert_eq!(s.get(b), Some(&"b"));
    }

    #[test]
    fn stale_key_misses_recycled_slot() {
        let mut s = GenSlab::new();
        let a = s.insert(1);
        s.remove(a);
        let b = s.insert(2);
        assert_eq!(b.slot(), a.slot(), "slot is recycled");
        assert_eq!(s.get(a), None, "stale key must not alias the new entry");
        assert!(!s.contains(a));
        assert_eq!(s.remove(a), None);
        assert_eq!(s.get(b), Some(&2));
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut s = GenSlab::new();
        let k = s.insert(10);
        *s.get_mut(k).unwrap() += 5;
        assert_eq!(s.get(k), Some(&15));
    }

    #[test]
    fn churn_is_peak_bounded() {
        let mut s = GenSlab::with_capacity(4);
        for i in 0..10_000 {
            let k = s.insert(i);
            s.remove(k);
        }
        assert!(s.is_empty());
        assert!(
            s.slot_count() <= 1,
            "churn leaked {} slots (expected peak-bounded)",
            s.slot_count()
        );
    }

    #[test]
    fn iter_walks_live_entries() {
        let mut s = GenSlab::new();
        let a = s.insert("a");
        let _b = s.insert("b");
        s.insert("c");
        s.remove(a);
        let got: Vec<&str> = s.iter().map(|(_, v)| *v).collect();
        assert_eq!(got, ["b", "c"]);
    }
}
