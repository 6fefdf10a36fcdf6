//! A hash-free map keyed by request tag.
//!
//! Request tags are small integers in practice (a rank numbers its
//! outstanding requests), so tags below [`DENSE_TAGS`] index a per-map
//! array grown lazily to the highest tag seen. Larger tags (a hostile
//! `u32::MAX`, say) go to a short list scanned linearly, so no tag value
//! can balloon the array. Every operation is O(1) on the dense path.

/// Tags below this bound live in the dense array.
pub const DENSE_TAGS: u32 = 4096;

/// A map from `u32` request tags to `V`. An empty map allocates nothing.
#[derive(Clone, Debug)]
pub struct TagMap<V> {
    /// `tag -> value` for tags below [`DENSE_TAGS`].
    dense: Vec<Option<V>>,
    /// Entries for larger tags, in no particular order.
    sparse: Vec<(u32, V)>,
}

impl<V> Default for TagMap<V> {
    fn default() -> Self {
        TagMap {
            dense: Vec::new(),
            sparse: Vec::new(),
        }
    }
}

impl<V> TagMap<V> {
    /// An empty map whose dense array already covers the tags below `n`
    /// (at most the 4096 dense tags), for callers that know their tag range.
    pub fn with_dense_len(n: usize) -> Self {
        let mut dense = Vec::new();
        dense.resize_with(n.min(DENSE_TAGS as usize), || None);
        TagMap {
            dense,
            sparse: Vec::new(),
        }
    }

    /// Binds `tag` to `value`, returning the value it displaced.
    pub fn insert(&mut self, tag: u32, value: V) -> Option<V> {
        if tag < DENSE_TAGS {
            let i = tag as usize;
            if i >= self.dense.len() {
                self.dense.resize_with(i + 1, || None);
            }
            self.dense[i].replace(value)
        } else {
            match self.sparse.iter_mut().find(|(t, _)| *t == tag) {
                Some((_, v)) => Some(std::mem::replace(v, value)),
                None => {
                    self.sparse.push((tag, value));
                    None
                }
            }
        }
    }

    /// The value bound to `tag`.
    pub fn get(&self, tag: u32) -> Option<&V> {
        if tag < DENSE_TAGS {
            self.dense.get(tag as usize)?.as_ref()
        } else {
            self.sparse.iter().find(|(t, _)| *t == tag).map(|(_, v)| v)
        }
    }

    /// The value bound to `tag`, mutably.
    pub fn get_mut(&mut self, tag: u32) -> Option<&mut V> {
        if tag < DENSE_TAGS {
            self.dense.get_mut(tag as usize)?.as_mut()
        } else {
            let e = self.sparse.iter_mut().find(|(t, _)| *t == tag);
            e.map(|(_, v)| v)
        }
    }

    /// Unbinds `tag`, returning its value.
    pub fn remove(&mut self, tag: u32) -> Option<V> {
        if tag < DENSE_TAGS {
            self.dense.get_mut(tag as usize)?.take()
        } else {
            let i = self.sparse.iter().position(|(t, _)| *t == tag)?;
            Some(self.sparse.swap_remove(i).1)
        }
    }

    /// The lowest bound tag. Every sparse tag is above every dense one.
    pub fn lowest(&self) -> Option<u32> {
        match self.dense.iter().position(Option::is_some) {
            Some(i) => Some(i as u32),
            None => self.sparse.iter().map(|&(t, _)| t).min(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_sparse_tags_behave_alike() {
        for base in [0, 7, DENSE_TAGS - 1, DENSE_TAGS, u32::MAX - 3] {
            let mut m = TagMap::default();
            assert_eq!(m.insert(base, 'a'), None);
            assert_eq!(m.insert(base + 2, 'b'), None);
            assert_eq!(m.get(base), Some(&'a'));
            assert_eq!(m.get(base + 1), None);
            assert_eq!(m.insert(base, 'c'), Some('a'));
            *m.get_mut(base + 2).unwrap() = 'd';
            assert_eq!(m.lowest(), Some(base));
            assert_eq!(m.remove(base), Some('c'));
            assert_eq!(m.remove(base), None);
            assert_eq!(m.get_mut(base), None);
            assert_eq!(m.lowest(), Some(base + 2));
            assert_eq!(m.remove(base + 2), Some('d'));
            assert_eq!(m.lowest(), None);
        }
    }

    #[test]
    fn lowest_prefers_dense_tags() {
        let mut m = TagMap::default();
        m.insert(u32::MAX, ());
        m.insert(DENSE_TAGS + 5, ());
        assert_eq!(m.lowest(), Some(DENSE_TAGS + 5));
        m.insert(DENSE_TAGS - 1, ());
        assert_eq!(m.lowest(), Some(DENSE_TAGS - 1));
    }

    #[test]
    fn a_presized_map_behaves_like_an_empty_one() {
        let mut m = TagMap::with_dense_len(8);
        assert_eq!(m.lowest(), None);
        assert_eq!(m.get(3), None);
        assert_eq!(m.insert(20, 'x'), None);
        assert_eq!(m.lowest(), Some(20));
        assert_eq!(TagMap::<u8>::with_dense_len(usize::MAX).dense.len(), 4096);
    }

    #[test]
    fn an_empty_map_allocates_nothing() {
        let m: TagMap<u64> = TagMap::default();
        assert_eq!((m.dense.capacity(), m.sparse.capacity()), (0, 0));
    }
}
