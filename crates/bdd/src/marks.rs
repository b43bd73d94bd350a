//! Epoch-stamped scratch maps for graph walks.
//!
//! A walk over a BDD needs a visited set; a walk that also numbers what
//! it reaches needs a map. Hashing every reached node costs a hash and a
//! probe per visit, and a fresh array sized to the arena costs the whole
//! arena per walk. [`VisitMarks`] is an array kept between walks whose
//! entries are valid only when stamped with the current epoch: starting
//! a walk bumps the epoch, so a walk costs what it reaches, and the array
//! grows (amortized) with the largest arena it has served.

/// A map from small integer keys (arena indices, or [`crate::Edge::raw`]
/// values for walks over complemented edges) to `u32` slots, cleared in
/// O(1) by [`VisitMarks::begin`].
#[derive(Clone, Debug, Default)]
pub struct VisitMarks {
    /// `stamp[k] == epoch` iff key `k` is present in the current walk.
    stamp: Vec<u32>,
    slot: Vec<u32>,
    epoch: u32,
}

impl VisitMarks {
    /// An empty map; the first [`VisitMarks::begin`] sizes it.
    pub fn new() -> Self {
        VisitMarks::default()
    }

    /// Starts a new walk over keys `0..keys`: every key becomes absent.
    pub fn begin(&mut self, keys: usize) {
        if self.stamp.len() < keys {
            self.stamp.resize(keys, 0);
            self.slot.resize(keys, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale stamps could now match; clear them once.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `key` present with slot 0; `true` on its first visit in
    /// this walk (a visited-set insert).
    #[inline]
    pub fn insert(&mut self, key: usize) -> bool {
        let stamp = &mut self.stamp[key];
        if *stamp == self.epoch {
            return false;
        }
        *stamp = self.epoch;
        self.slot[key] = 0;
        true
    }

    /// Marks `key` present with `value` in its slot.
    #[inline]
    pub fn set(&mut self, key: usize, value: u32) {
        self.stamp[key] = self.epoch;
        self.slot[key] = value;
    }

    /// The slot of `key`, or `None` when this walk has not marked it.
    #[inline]
    pub fn get(&self, key: usize) -> Option<u32> {
        (self.stamp[key] == self.epoch).then(|| self.slot[key])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_clears_every_key() {
        let mut m = VisitMarks::new();
        m.begin(8);
        assert!(m.insert(3));
        assert!(!m.insert(3));
        m.set(5, 42);
        assert_eq!(m.get(5), Some(42));
        assert_eq!(m.get(3), Some(0));
        m.begin(4);
        assert_eq!(m.get(3), None);
        assert_eq!(m.get(5), None, "a smaller walk still clears the rest");
        assert!(m.insert(3));
    }

    #[test]
    fn epoch_wrap_clears_stale_stamps() {
        let mut m = VisitMarks::new();
        m.begin(2);
        m.set(1, 7);
        // Jump to the last epoch before the wrap; key 1 holds stamp 1.
        m.epoch = u32::MAX;
        m.begin(2);
        assert_eq!(m.epoch, 1);
        assert_eq!(m.get(1), None, "stamp 1 from the old cycle must not match");
    }
}
