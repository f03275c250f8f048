//! Hermetic deterministic substrate for the incam workspace.
//!
//! Four things live here, and the whole workspace builds offline because
//! of them:
//!
//! 1. **A deterministic PRNG** ([`Xoshiro256PlusPlus`], seeded through
//!    [`SplitMix64`]) exposing the narrow `rand`-style surface the
//!    codebase actually uses: [`SeedableRng::seed_from_u64`],
//!    [`Rng::gen`], [`Rng::gen_range`], [`Rng::gen_bool`], and
//!    [`seq::SliceRandom::shuffle`]. [`StdRng`] is an alias for the
//!    xoshiro generator so call sites read exactly like `rand` ones.
//! 2. **A property-test harness** ([`prop`], the [`proptest!`] macro):
//!    case generation from a seeded RNG, shrinking by halving, and
//!    failure-seed reporting.
//! 3. **A bench harness** ([`mod@bench`]): warmup, N timed iterations,
//!    median/MAD statistics, and `BENCH_*.json` output for trajectory
//!    tracking.
//! 4. **A digest** ([`Digest`], 64-bit FNV-1a): the one hash every
//!    pinned report, trace and kernel digest in the workspace goes
//!    through.
//!
//! The crate has **zero dependencies** — not even on the rest of the
//! workspace — so every other crate can depend on it, in any build mode,
//! with no network access.
//!
//! # Determinism contract
//!
//! The generator's output stream for a given `seed_from_u64` seed is
//! fixed forever: golden tests pin figures derived from it, so changing
//! the stream is a breaking change that must update
//! `crates/bench/tests/golden.rs` in the same PR.
//!
//! ```
//! use incam_rng::{Rng, SeedableRng, StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(2017);
//! let x: f64 = rng.gen_range(0.0..1.0);
//! let again: f64 = StdRng::seed_from_u64(2017).gen_range(0.0..1.0);
//! assert_eq!(x, again);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
mod digest;
mod distr;
pub mod prop;
pub mod seq;
mod xoshiro;

pub use digest::Digest;
pub use distr::{SampleRange, SampleUniform, StandardSample};
pub use xoshiro::{SplitMix64, Xoshiro256PlusPlus};

/// The workspace's standard deterministic generator.
///
/// Named `StdRng` so migrated call sites (`use incam_rng::StdRng`) read
/// like their former `rand` selves. Unlike rand's, this one is portable
/// and its stream is pinned by golden tests.
pub type StdRng = Xoshiro256PlusPlus;

/// Mirror of rand's `rngs` module so imports migrate mechanically.
pub mod rngs {
    pub use crate::StdRng;
}

/// A source of uniformly distributed 64-bit words.
///
/// Object-safe on purpose: pipeline code passes `&mut dyn RngCore`
/// across closure boundaries.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits (the upper half of a 64-bit
    /// draw, which are the strongest bits of xoshiro256++).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
}

/// High-level sampling methods, blanket-implemented for every
/// [`RngCore`] (including unsized ones like `dyn RngCore`).
pub trait Rng: RngCore {
    /// Samples a value from the "standard" distribution of `T`:
    /// uniform over `[0, 1)` for floats, uniform over the full domain
    /// for integers and `bool`.
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Samples uniformly from `range` (`a..b` or `a..=b`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p={p} not in [0, 1]");
        // Compare against a 64-bit integer threshold rather than a
        // float draw so p == 1.0 is always true and p == 0.0 never is.
        if p >= 1.0 {
            return true;
        }
        let threshold = (p * (1u128 << 64) as f64) as u64;
        self.next_u64() < threshold
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministic construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Everything a test or bench file needs, in one glob import.
///
/// Mirrors `proptest::prelude::*` closely enough that migrating a test
/// file is a one-line import change.
pub mod prelude {
    pub use crate::prop::{self, any, Strategy};
    pub use crate::seq::SliceRandom;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, Rng, RngCore, SeedableRng, StdRng,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "{same} collisions in 64 draws");
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert!(rng.gen_bool(1.0));
            assert!(!rng.gen_bool(0.0));
        }
    }

    #[test]
    fn gen_bool_frequency() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "hits {hits}");
    }

    #[test]
    fn dyn_rng_core_is_usable() {
        let mut rng = StdRng::seed_from_u64(9);
        let dyn_rng: &mut dyn RngCore = &mut rng;
        let x: f32 = dyn_rng.gen_range(0.0..1.0);
        assert!((0.0..1.0).contains(&x));
        assert!(Rng::gen_bool(&mut &mut *dyn_rng, 1.0));
    }

    #[test]
    fn stream_is_pinned() {
        // The first three words of seed 0 — if this test fails, every
        // golden figure downstream moved too. See the crate docs.
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(rng.next_u64(), 0x53175d61490b23df);
        assert_eq!(rng.next_u64(), 0x61da6f3dc380d507);
        assert_eq!(rng.next_u64(), 0x5c0fdf91ec9a7bfc);
    }
}
