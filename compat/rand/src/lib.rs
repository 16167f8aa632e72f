//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the subset it actually uses: `rngs::StdRng`,
//! `SeedableRng::seed_from_u64`, and `Rng::gen` for the primitive types
//! the simulator samples. The generator is xoshiro256** seeded through
//! SplitMix64 — different algorithm than upstream `StdRng` (ChaCha12),
//! but the workspace only requires *reproducibility within itself*, never
//! bit-compatibility with upstream streams.

#![forbid(unsafe_code)]

/// A source of random 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Types samplable uniformly from an RNG (the `Standard` distribution of
/// real `rand`, collapsed into one trait).
pub trait Standard: Sized {
    /// Draws a uniform sample.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Convenience sampling methods, blanket-implemented for every RNG.
pub trait Rng: RngCore {
    /// Draws a uniform sample of type `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }
}

impl<R: RngCore> Rng for R {}

/// RNGs constructible from seeds.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub mod rngs {
    //! Concrete generators (the `rand::rngs` subset).

    use super::{splitmix64, RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256** (Blackman &
    /// Vigna), seeded via SplitMix64 as its authors recommend.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let mut s = [0u64; 4];
            for word in &mut s {
                *word = splitmix64(&mut state);
            }
            // An all-zero state is a fixed point; SplitMix64 cannot emit
            // four zeros from any seed, but keep the guard explicit.
            if s == [0, 0, 0, 0] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            Self { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
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
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn f64_samples_are_uniform_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
