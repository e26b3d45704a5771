//! Deterministic, splittable random-number streams.
//!
//! Reproducibility is a hard requirement for the experiment harness: the
//! same scenario seed must produce the same topology, the same mobility
//! traces and the same protocol decisions on every platform and every run.
//! We therefore implement the generator ourselves instead of relying on the
//! (version-dependent) algorithm behind `rand::rngs::SmallRng`:
//!
//! * [`RngStream`] — xoshiro256++ (Blackman & Vigna), a fast 256-bit-state
//!   generator with excellent statistical quality;
//! * [`SeedSplitter`] — SplitMix64-based derivation of independent
//!   sub-streams from a root seed and a (label, index) pair, so every
//!   node/purpose combination draws from its own stream. This keeps protocol
//!   decisions independent of event interleaving.
//!
//! `RngStream` implements [`rand::RngCore`], so the full `rand` distribution
//! API (`gen_range`, `Uniform`, shuffles, …) works on top of it.

use rand::RngCore;

/// SplitMix64 step — used for seeding and stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// xoshiro256++ pseudo-random generator with deterministic seeding.
#[derive(Clone, Debug)]
pub struct RngStream {
    s: [u64; 4],
}

impl RngStream {
    /// Create a stream from a 64-bit seed (expanded via SplitMix64).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro must not start from the all-zero state; SplitMix64 of any
        // seed cannot produce four zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E3779B97F4A7C15;
        }
        RngStream { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` using the high 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` via Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0)");
        // Lemire rejection sampling: unbiased and branch-light.
        let mut x = self.next_raw();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_raw();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` index in `[0, n)`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.next_below(n as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Fisher–Yates shuffle of a slice.
    // Out of line on purpose: its one hot caller is `csq::select_contacts`
    // (once per node), and whether LLVM inlines it there flips with
    // unrelated changes to the crate; inlined, the selection sweep reads
    // ≈2% slower (`card_bench`, `bootstrap_static` / `mobile_*`).
    #[inline(never)]
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Choose a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.index(slice.len())])
        }
    }
}

impl RngCore for RngStream {
    fn next_u32(&mut self) -> u32 {
        (self.next_raw() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_raw().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_raw().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// Derives independent named sub-streams from a root seed.
///
/// Streams are identified by a string label and a numeric index (typically a
/// node id), hashed together with the root seed through SplitMix64. Distinct
/// `(label, index)` pairs yield statistically independent streams.
#[derive(Clone, Copy, Debug)]
pub struct SeedSplitter {
    root: u64,
}

impl SeedSplitter {
    /// Create a splitter from the experiment's root seed.
    pub fn new(root_seed: u64) -> Self {
        SeedSplitter { root: root_seed }
    }

    /// The root seed.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Derive the 64-bit seed for `(label, index)`.
    pub fn derive_seed(&self, label: &str, index: u64) -> u64 {
        // FNV-1a over the label, then SplitMix64 mixing with root and index.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in label.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        let mut state = self.root.wrapping_mul(0x9E3779B97F4A7C15)
            ^ h.rotate_left(17)
            ^ index.wrapping_mul(0xD1B54A32D192ED03);
        let a = splitmix64(&mut state);
        let b = splitmix64(&mut state);
        a ^ b.rotate_left(32)
    }

    /// Derive a ready-to-use stream for `(label, index)`.
    pub fn stream(&self, label: &str, index: u64) -> RngStream {
        RngStream::seed_from_u64(self.derive_seed(label, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = RngStream::seed_from_u64(42);
        let mut b = RngStream::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = RngStream::seed_from_u64(1);
        let mut b = RngStream::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_raw() == b.next_raw()).count();
        assert!(same < 4, "streams with different seeds should diverge");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = RngStream::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_bounds_and_coverage() {
        let mut r = RngStream::seed_from_u64(11);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.next_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "next_below(0)")]
    fn next_below_zero_panics() {
        RngStream::seed_from_u64(0).next_below(0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = RngStream::seed_from_u64(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_roughly_calibrated() {
        let mut r = RngStream::seed_from_u64(5);
        let hits = (0..20_000).filter(|_| r.chance(0.25)).count();
        let frac = hits as f64 / 20_000.0;
        assert!((frac - 0.25).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = RngStream::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "50 elements should not stay in place"
        );
    }

    #[test]
    fn choose_empty_and_singleton() {
        let mut r = RngStream::seed_from_u64(1);
        let empty: [u8; 0] = [];
        assert_eq!(r.choose(&empty), None);
        assert_eq!(r.choose(&[42]), Some(&42));
    }

    #[test]
    fn splitter_streams_independent() {
        let sp = SeedSplitter::new(1234);
        let mut a = sp.stream("mobility", 0);
        let mut b = sp.stream("mobility", 1);
        let mut c = sp.stream("csq", 0);
        let ra: Vec<u64> = (0..8).map(|_| a.next_raw()).collect();
        let rb: Vec<u64> = (0..8).map(|_| b.next_raw()).collect();
        let rc: Vec<u64> = (0..8).map(|_| c.next_raw()).collect();
        assert_ne!(ra, rb);
        assert_ne!(ra, rc);
        assert_ne!(rb, rc);
        // Re-derivation reproduces exactly.
        let mut a2 = sp.stream("mobility", 0);
        let ra2: Vec<u64> = (0..8).map(|_| a2.next_raw()).collect();
        assert_eq!(ra, ra2);
    }

    #[test]
    fn rngcore_fill_bytes_all_lengths() {
        let mut r = RngStream::seed_from_u64(77);
        for len in 0..33 {
            let mut buf = vec![0u8; len];
            // disambiguate: proptest's prelude also globs an RngCore
            rand::RngCore::fill_bytes(&mut r, &mut buf);
            if len >= 16 {
                assert!(
                    buf.iter().any(|&b| b != 0),
                    "16+ random bytes all zero is implausible"
                );
            }
        }
    }

    #[test]
    fn range_f64_bounds() {
        let mut r = RngStream::seed_from_u64(13);
        for _ in 0..1000 {
            let x = r.range_f64(-5.0, 5.0);
            assert!((-5.0..5.0).contains(&x));
        }
    }

    proptest! {
        #[test]
        fn prop_next_below_in_range(seed in any::<u64>(), n in 1u64..1_000_000) {
            let mut r = RngStream::seed_from_u64(seed);
            for _ in 0..32 {
                prop_assert!(r.next_below(n) < n);
            }
        }

        #[test]
        fn prop_derive_seed_stable(root in any::<u64>(), idx in any::<u64>()) {
            let sp = SeedSplitter::new(root);
            prop_assert_eq!(sp.derive_seed("x", idx), sp.derive_seed("x", idx));
        }
    }
}
