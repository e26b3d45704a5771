//! Small performance-oriented utilities shared across the workspace.

/// A compact growable bitset over `usize` indices.
///
/// Reachability analysis unions many R-hop neighborhood sets per node
/// (Figs 5–9); doing that with hash sets would dominate the runtime of the
/// larger scenarios. A `Vec<u64>`-backed bitset makes the union a word-wise
/// OR.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Create a bitset able to hold indices `0..capacity`, all clear.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The index capacity this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Set bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(
            i < self.capacity,
            "BitSet index {i} out of range {}",
            self.capacity
        );
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clear bit `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        assert!(
            i < self.capacity,
            "BitSet index {i} out of range {}",
            self.capacity
        );
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Test bit `i`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bits are set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Clear all bits.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// In-place union with `other` (capacities must match).
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "BitSet capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// Size of the intersection without materializing it.
    pub fn intersection_len(&self, other: &BitSet) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// True if the two sets share at least one element. This is the hot
    /// "neighborhood overlap" predicate in contact selection.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Iterate over set indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// Collect set indices into a vector.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert!(!s.contains(500)); // out of range reads as absent
        assert_eq!(s.len(), 4);
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn union_and_intersection() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        for i in [1, 5, 50] {
            a.insert(i);
        }
        for i in [5, 50, 99] {
            b.insert(i);
        }
        assert!(a.intersects(&b));
        assert_eq!(a.intersection_len(&b), 2);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_vec(), vec![1, 5, 50, 99]);
    }

    #[test]
    fn disjoint_sets_do_not_intersect() {
        let mut a = BitSet::new(64);
        let mut b = BitSet::new(64);
        a.insert(1);
        b.insert(2);
        assert!(!a.intersects(&b));
        assert_eq!(a.intersection_len(&b), 0);
    }

    #[test]
    fn clear_resets() {
        let mut s = BitSet::new(10);
        s.insert(3);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn iter_order_is_increasing() {
        let mut s = BitSet::new(200);
        for i in [199, 0, 64, 65, 127, 128] {
            s.insert(i);
        }
        assert_eq!(s.to_vec(), vec![0, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn zero_capacity_is_fine() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert!(!s.contains(0));
        assert_eq!(s.to_vec(), Vec::<usize>::new());
    }

    proptest! {
        /// BitSet agrees with BTreeSet on arbitrary insert sequences.
        #[test]
        fn prop_matches_btreeset(indices in proptest::collection::vec(0usize..256, 0..100)) {
            let mut bs = BitSet::new(256);
            let mut reference = BTreeSet::new();
            for &i in &indices {
                bs.insert(i);
                reference.insert(i);
            }
            prop_assert_eq!(bs.len(), reference.len());
            prop_assert_eq!(bs.to_vec(), reference.iter().copied().collect::<Vec<_>>());
        }

        /// Union is commutative and yields the set-union cardinality.
        #[test]
        fn prop_union_commutes(
            xs in proptest::collection::vec(0usize..128, 0..50),
            ys in proptest::collection::vec(0usize..128, 0..50),
        ) {
            let mut a = BitSet::new(128);
            let mut b = BitSet::new(128);
            for &x in &xs { a.insert(x); }
            for &y in &ys { b.insert(y); }
            let mut ab = a.clone();
            ab.union_with(&b);
            let mut ba = b.clone();
            ba.union_with(&a);
            prop_assert_eq!(&ab, &ba);
            let expect: BTreeSet<usize> = xs.iter().chain(ys.iter()).copied().collect();
            prop_assert_eq!(ab.len(), expect.len());
            // intersects ⇔ intersection_len > 0
            prop_assert_eq!(a.intersects(&b), a.intersection_len(&b) > 0);
        }
    }
}
