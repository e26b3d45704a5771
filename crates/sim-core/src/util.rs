//! Small performance-oriented utilities shared across the workspace.

/// A tiny Bloom filter over `u64` keys, sized to an expected element count.
///
/// The zone-local neighborhood tables keep a sorted member array per node
/// (O(zone) memory) instead of the former whole-network bitset (O(N) bits
/// per node). Membership tests then cost a binary search — unless a filter
/// answers "definitely not a member" first, which is the common case for
/// the overlap checks contact selection hammers (the queried node is
/// usually far outside the zone). `BloomSet` is that filter: ~8 bits and
/// two probes per expected element, so a negative answer is two word reads
/// and a positive one falls through to the exact check.
///
/// False positives are possible by design (callers must confirm with an
/// exact structure); false negatives are not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BloomSet {
    /// Power-of-two number of words, so probes mask instead of mod.
    words: Box<[u64]>,
}

impl BloomSet {
    /// Bits provisioned per expected element (two probe bits are drawn
    /// from a 64-bit mix per key).
    const BITS_PER_ELEMENT: usize = 8;

    /// A filter sized for about `expected` elements (~8 bits each, minimum
    /// 128 bits).
    pub fn with_capacity(expected: usize) -> Self {
        BloomSet {
            words: vec![0u64; Self::words_for(expected)].into_boxed_slice(),
        }
    }

    /// Word count of a filter sized for `expected` elements.
    fn words_for(expected: usize) -> usize {
        (expected * Self::BITS_PER_ELEMENT)
            .div_ceil(64)
            .next_power_of_two()
            .max(2)
    }

    /// SplitMix64 finalizer: both probe positions come from one mix.
    #[inline]
    fn mix(key: u64) -> u64 {
        let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[inline]
    fn probes(&self, key: u64) -> (usize, u64, usize, u64) {
        let h = Self::mix(key);
        let bits = self.words.len() * 64;
        let b1 = (h as usize) & (bits - 1);
        let b2 = ((h >> 32) as usize) & (bits - 1);
        (b1 >> 6, 1u64 << (b1 & 63), b2 >> 6, 1u64 << (b2 & 63))
    }

    /// Record `key` in the filter.
    #[inline]
    pub fn insert(&mut self, key: u64) {
        let (w1, m1, w2, m2) = self.probes(key);
        self.words[w1] |= m1;
        self.words[w2] |= m2;
    }

    /// `false` means `key` was definitely never inserted; `true` means it
    /// *may* have been (confirm with an exact structure).
    #[inline]
    pub fn may_contain(&self, key: u64) -> bool {
        let (w1, m1, w2, m2) = self.probes(key);
        (self.words[w1] & m1 != 0) && (self.words[w2] & m2 != 0)
    }

    /// Remove every element (keeps the allocated size).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Empty the filter and size it for about `expected` elements, exactly
    /// as [`BloomSet::with_capacity`] would: cleared in place when that
    /// size is the current one, reallocated otherwise.
    pub fn reset(&mut self, expected: usize) {
        if Self::words_for(expected) == self.words.len() {
            self.clear();
        } else {
            *self = Self::with_capacity(expected);
        }
    }

    /// Heap bytes held by the filter.
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

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
    fn bloom_no_false_negatives() {
        let mut f = BloomSet::with_capacity(64);
        for k in 0..64u64 {
            f.insert(k * 7919);
        }
        for k in 0..64u64 {
            assert!(f.may_contain(k * 7919), "inserted key {k} reported absent");
        }
    }

    #[test]
    fn bloom_mostly_rejects_absent_keys() {
        let mut f = BloomSet::with_capacity(100);
        for k in 0..100u64 {
            f.insert(k);
        }
        // At ~8 bits/element and 2 probes the false-positive rate is a few
        // percent; well under half of a large absent sample may pass.
        let false_positives = (1_000u64..11_000).filter(|&k| f.may_contain(k)).count();
        assert!(
            false_positives < 2_000,
            "filter saturated: {false_positives}/10000 absent keys passed"
        );
    }

    #[test]
    fn bloom_clear_resets() {
        let mut f = BloomSet::with_capacity(10);
        f.insert(42);
        assert!(f.may_contain(42));
        f.clear();
        assert!(!f.may_contain(42));
        assert!(f.heap_bytes() >= 16);
    }

    #[test]
    fn bloom_reset_equals_a_fresh_filter_of_that_capacity() {
        let mut f = BloomSet::with_capacity(10);
        f.insert(42);
        f.reset(12); // same word count: cleared in place
        assert_eq!(f, BloomSet::with_capacity(12));
        f.insert(42);
        f.reset(300); // grows
        assert_eq!(f, BloomSet::with_capacity(300));
        f.insert(42);
        f.reset(0); // shrinks
        assert_eq!(f, BloomSet::with_capacity(0));
    }

    #[test]
    fn bloom_zero_capacity_is_usable() {
        let mut f = BloomSet::with_capacity(0);
        assert!(!f.may_contain(5));
        f.insert(5);
        assert!(f.may_contain(5));
    }

    proptest! {
        /// Every inserted key is reported as possibly present (no false
        /// negatives), for arbitrary key sets and filter sizes.
        #[test]
        fn prop_bloom_no_false_negatives(
            keys in proptest::collection::vec(any::<u64>(), 0..200),
            capacity in 0usize..300,
        ) {
            let mut f = BloomSet::with_capacity(capacity);
            for &k in &keys {
                f.insert(k);
            }
            for &k in &keys {
                prop_assert!(f.may_contain(k));
            }
        }
    }

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
