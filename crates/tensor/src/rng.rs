//! Deterministic pseudo-random number generation.
//!
//! Every stochastic component of the reproduction (weight initialization,
//! dataset synthesis, environment drift, permutation choice) draws from
//! [`Rng`], a small PCG32 generator seeded through SplitMix64. The entire
//! pipeline is therefore reproducible from a single `u64` seed, which the
//! experiment harness relies on when comparing system variants on *the
//! same* simulated data stream.

/// A deterministic PCG32 pseudo-random number generator.
///
/// Not cryptographically secure; intended for simulations and
/// initialization only.
///
/// # Examples
///
/// ```
/// use insitu_tensor::Rng;
///
/// let mut a = Rng::seed_from(42);
/// let mut b = Rng::seed_from(42);
/// assert_eq!(a.next_u32(), b.next_u32()); // same seed, same stream
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
    inc: u64,
    /// Cached second output of the Box-Muller transform.
    gauss_spare: Option<f32>,
}

const PCG_MULT: u64 = 6364136223846793005;

/// SplitMix64 step, used to expand a single seed into PCG state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let state = splitmix64(&mut sm);
        let inc = splitmix64(&mut sm) | 1; // stream selector must be odd
        let mut rng = Rng { state, inc, gauss_spare: None };
        // Advance once so that nearby seeds decorrelate immediately.
        rng.next_u32();
        rng
    }

    /// Derives an independent child generator; useful for giving each
    /// simulated component its own stream.
    pub fn fork(&mut self) -> Rng {
        Rng::seed_from(((self.next_u32() as u64) << 32) | self.next_u32() as u64)
    }

    /// Next 32 uniformly distributed bits (PCG-XSH-RR).
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        // 24 high bits give full f32 mantissa precision.
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform `f32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `lo > hi`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.next_f32()
    }

    /// Uniform integer in `[0, n)` via Lemire rejection; `n` must be > 0.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "Rng::below called with n = 0");
        let n = n as u64;
        let threshold = n.wrapping_neg() % n; // (2^64 - n) mod n
        loop {
            let x = self.next_u64();
            let m = x as u128 * n as u128;
            let lo = m as u64;
            if lo >= threshold {
                return (m >> 64) as usize;
            }
        }
    }

    /// Standard normal sample (Box-Muller with caching).
    pub fn normal(&mut self) -> f32 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        loop {
            let u1 = self.next_f32();
            if u1 <= f32::EPSILON {
                continue;
            }
            let u2 = self.next_f32();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            self.gauss_spare = Some(r * theta.sin());
            return r * theta.cos();
        }
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal()
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f32) -> bool {
        self.next_f32() < p.clamp(0.0, 1.0)
    }

    /// Fisher-Yates shuffle of a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Rng::seed_from(7);
        let mut b = Rng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4);
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = Rng::seed_from(3);
        for _ in 0..1000 {
            let x = rng.uniform(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn below_covers_range_uniformly() {
        let mut rng = Rng::seed_from(11);
        let mut counts = [0usize; 5];
        for _ in 0..5000 {
            counts[rng.below(5)] += 1;
        }
        for &c in &counts {
            assert!(c > 800 && c < 1200, "count {c} outside tolerance");
        }
    }

    #[test]
    #[should_panic(expected = "n = 0")]
    fn below_zero_panics() {
        Rng::seed_from(0).below(0);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from(5);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::seed_from(9);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>()); // astronomically unlikely to be identity
    }

    #[test]
    fn fork_decorrelates() {
        let mut parent = Rng::seed_from(21);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let same = (0..32).filter(|_| c1.next_u32() == c2.next_u32()).count();
        assert!(same < 4);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::seed_from(17);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }
}
