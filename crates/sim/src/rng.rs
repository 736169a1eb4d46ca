//! Seedable, dependency-free pseudo-random number generation.
//!
//! The engine must be exactly reproducible from a seed, so it ships its own
//! small PRNG instead of depending on `rand` (whose output may change across
//! versions). The generator is xoshiro256** seeded via SplitMix64 — the
//! combination recommended by the xoshiro authors.

use crate::SimDuration;

/// A deterministic pseudo-random number generator (xoshiro256**).
///
/// Not cryptographically secure; intended for workload generation and
/// processing-jitter models inside the simulator.
///
/// # Example
///
/// ```
/// use netco_sim::SimRng;
/// let mut a = SimRng::new(7);
/// let mut b = SimRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

/// The SplitMix64 finalizer — the workspace's one digest mixer: fold a
/// value into a running digest as `mix64(digest ^ value)`.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    mix64(*state)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent child generator; useful for giving each
    /// simulated component its own stream while staying reproducible.
    pub fn fork(&mut self, label: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Returns the next 64 random bits.
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

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased output.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniformly distributed value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.next_below(hi - lo)
    }

    /// Returns a uniform float in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Returns `base` perturbed by a uniform jitter of at most
    /// `±fraction·base`, never going negative.
    ///
    /// A `fraction` of zero returns `base` unchanged.
    pub fn jitter(&mut self, base: SimDuration, fraction: f64) -> SimDuration {
        if fraction <= 0.0 || base.is_zero() {
            return base;
        }
        let f = 1.0 + fraction * (2.0 * self.next_f64() - 1.0);
        base.mul_f64(f.max(0.0))
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::new(123);
        let mut b = SimRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut parent1 = SimRng::new(9);
        let mut parent2 = SimRng::new(9);
        let mut c1 = parent1.fork(1);
        let mut c2 = parent2.fork(1);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut c3 = parent1.fork(2);
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SimRng::new(5);
        for _ in 0..10_000 {
            assert!(rng.next_below(7) < 7);
        }
    }

    #[test]
    fn range_inclusive_exclusive() {
        let mut rng = SimRng::new(6);
        let mut seen_lo = false;
        for _ in 0..10_000 {
            let v = rng.range(10, 13);
            assert!((10..13).contains(&v));
            seen_lo |= v == 10;
        }
        assert!(seen_lo, "lower bound should be reachable");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(7);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(8);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn chance_roughly_calibrated() {
        let mut rng = SimRng::new(9);
        let hits = (0..100_000).filter(|_| rng.chance(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn jitter_bounds() {
        let mut rng = SimRng::new(10);
        let base = SimDuration::from_micros(100);
        for _ in 0..1_000 {
            let j = rng.jitter(base, 0.2);
            assert!(j >= SimDuration::from_micros(80), "{j}");
            assert!(j <= SimDuration::from_micros(120), "{j}");
        }
        assert_eq!(rng.jitter(base, 0.0), base);
        assert_eq!(rng.jitter(SimDuration::ZERO, 0.5), SimDuration::ZERO);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(12);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
