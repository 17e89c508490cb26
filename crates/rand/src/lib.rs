//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the small slice of the rand 0.8 API it actually uses: the
//! [`Rng`]/[`RngCore`]/[`SeedableRng`] traits, [`rngs::StdRng`], uniform
//! `gen_range` over integer and float ranges, and `gen::<T>()` for the
//! primitive types. The generator behind [`rngs::StdRng`] is
//! xoshiro256++, seeded through SplitMix64 — deterministic, fast and
//! statistically sound for the simulations in this repository (it is not
//! cryptographically secure, and its streams differ from upstream
//! `StdRng`).
//!
//! Unlike upstream, [`rngs::StdRng`] implements `serde::Serialize` and
//! `serde::Deserialize`: the characterization framework snapshots whole
//! servers (RNG state included) for checkpoint/resume.
//!
//! Beside the generators sit the workspace's two stateless hashes, one
//! definition each: the SplitMix64 finalizer [`mix64`] (and
//! [`splitmix64`], one SplitMix64 step) for address- and seed-keyed
//! streams, and [`fnv1a`] for output fingerprints.

/// The SplitMix64 finalizer: a bijective 64-bit avalanche mix.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step from state `x`: the golden-gamma increment
/// followed by [`mix64`].
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    mix64(x.wrapping_add(GOLDEN_GAMMA))
}

/// SplitMix64's state increment, 2^64 / φ.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folds `bytes` into the FNV-1a (64-bit) state `hash`. Start from the
/// offset basis [`FNV_OFFSET`]; chaining calls hashes the concatenation.
#[inline]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Core trait: a source of random 64-bit words.
pub trait RngCore {
    /// Returns the next random `u64`.
    fn next_u64(&mut self) -> u64;

    /// Returns the next random `u32`.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types samplable by [`Rng::gen`] (the `Standard` distribution).
pub trait Standard: Sized {
    /// Draws one value from the full-range/unit distribution.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a uniform value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(uniform_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_u64(rng, span) as $t)
            }
        }
    )*};
}
impl_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let u = <$t as Standard>::sample_standard(rng);
                self.start + u * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let u = <$t as Standard>::sample_standard(rng);
                lo + u * (hi - lo)
            }
        }
    )*};
}
impl_range_float!(f32, f64);

/// Uniform integer in `[0, span)` by widening multiply (Lemire's method,
/// without the rejection step — the bias is below 2⁻⁶⁴·span, irrelevant
/// for simulation workloads).
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

/// The user-facing random-value API, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value of type `T` from its standard distribution.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws a uniform value from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        <f64 as Standard>::sample_standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Raw seed type.
    type Seed: AsMut<[u8]> + Default;

    /// Builds the generator from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64` via SplitMix64 expansion.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = SplitMix64(state);
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = sm.next().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        Self::from_seed(seed)
    }
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        out
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
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

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks(8).enumerate() {
                let mut b = [0u8; 8];
                b.copy_from_slice(chunk);
                s[i] = u64::from_le_bytes(b);
            }
            // An all-zero state is a fixed point of xoshiro; nudge it.
            if s == [0, 0, 0, 0] {
                s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
            }
            StdRng { s }
        }
    }

    impl serde::Serialize for StdRng {
        fn to_value(&self) -> serde::Value {
            serde::Value::Seq(self.s.iter().map(|w| serde::Value::U64(*w)).collect())
        }
    }

    impl serde::Deserialize for StdRng {
        fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
            let seq = v.as_seq()?;
            if seq.len() != 4 {
                return Err(serde::Error::custom("StdRng state must have 4 words"));
            }
            let mut s = [0u64; 4];
            for (slot, w) in s.iter_mut().zip(seq) {
                *slot = <u64 as serde::Deserialize>::from_value(w)?;
            }
            Ok(StdRng { s })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    use super::RngCore;

    #[test]
    fn seeds_decorrelate() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn unit_floats_stay_in_range_and_cover() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            lo = lo.min(x);
            hi = hi.max(x);
        }
        assert!(lo < 0.01 && hi > 0.99, "poor coverage: [{lo}, {hi}]");
    }

    #[test]
    fn gen_range_honors_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u32..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let f = rng.gen_range(1.5f64..2.5);
            assert!((1.5..2.5).contains(&f));
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = StdRng::seed_from_u64(5);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn mean_of_uniform_is_centered() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn hashes_match_their_known_answers() {
        use super::{fnv1a, splitmix64, FNV_OFFSET};
        assert_eq!(fnv1a(0xcbf2_9ce4_8422_2325, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn serde_roundtrip_preserves_stream() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..17 {
            rng.next_u64();
        }
        let snapshot = serde::json::to_string(&rng);
        let mut restored: StdRng = serde::json::from_str(&snapshot).unwrap();
        for _ in 0..100 {
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
    }
}
