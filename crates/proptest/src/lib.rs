//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the slice of the proptest 1.x API its tests use: the
//! [`Strategy`](strategy::Strategy) trait with range / tuple /
//! [`Just`](strategy::Just) / `prop_map` / [`prop_oneof!`] combinators,
//! [`collection::vec`], `any::<T>()` for the primitives, and the
//! [`proptest!`] / [`prop_assert!`] / [`prop_assert_eq!`] /
//! [`prop_assume!`] macros.
//!
//! Semantics differ from upstream in one deliberate way: there is **no
//! shrinking**. Each `#[test]` inside [`proptest!`] runs a fixed number
//! of cases from an RNG seeded deterministically from the test's name,
//! and a failing case panics with the case index so the run is exactly
//! reproducible. For the simulation invariants in this repository that
//! trade-off (reproducibility without minimization) is acceptable.

pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng;

    /// A reusable recipe for generating values of `Self::Value`.
    ///
    /// Unlike upstream this is sample-based (no value tree / shrinking),
    /// which keeps it object-safe apart from the provided combinators.
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn sample(&self, rng: &mut StdRng) -> S::Value {
            (**self).sample(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;

        fn sample(&self, rng: &mut StdRng) -> S::Value {
            (**self).sample(rng)
        }
    }

    /// Coerces a concrete strategy to a boxed trait object (used by
    /// [`prop_oneof!`](crate::prop_oneof)).
    pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
    where
        S: Strategy + 'static,
    {
        Box::new(s)
    }

    /// Always produces a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn sample(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Picks one of several alternative strategies uniformly at random
    /// (the engine behind [`prop_oneof!`](crate::prop_oneof)).
    pub struct Union<T> {
        arms: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        /// Builds a union; panics if `arms` is empty.
        pub fn new(arms: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn sample(&self, rng: &mut StdRng) -> T {
            let idx = rng.gen_range(0..self.arms.len());
            self.arms[idx].sample(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }

            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn sample(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }
    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::{Rng, Standard};
    use std::marker::PhantomData;

    /// Strategy for `any::<T>()`: the full domain of a primitive type.
    #[derive(Debug)]
    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    impl<T: Standard> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut StdRng) -> T {
            rng.gen()
        }
    }

    /// Generates arbitrary values of a primitive type (integers, `bool`,
    /// floats in `[0, 1)`).
    pub fn any<T: Standard>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Length bounds for [`fn@vec`]: built from `usize`, `a..b` or `a..=b`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s of `element` values with a length drawn
    /// from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The result of [`fn@vec`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Number of random cases each property runs.
    pub const CASES: u32 = 128;

    /// A failed (or rejected) test case.
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        message: String,
        reject: bool,
    }

    impl TestCaseError {
        /// An assertion failure: the property is falsified.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
                reject: false,
            }
        }

        /// A rejected case (`prop_assume!`): skipped, not a failure.
        pub fn reject(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
                reject: true,
            }
        }
    }

    /// Deterministic per-test seed: FNV-1a over the test name, so every
    /// property has its own reproducible stream independent of run order.
    pub fn seed_for(test_name: &str) -> u64 {
        rand::fnv1a(rand::FNV_OFFSET, test_name.as_bytes())
    }

    /// Runs `case` [`CASES`] times with a deterministic RNG; panics with
    /// the case index on the first falsified property.
    pub fn run_cases(test_name: &str, case: impl Fn(&mut StdRng) -> Result<(), TestCaseError>) {
        let mut rng = StdRng::seed_from_u64(seed_for(test_name));
        let mut rejected = 0u32;
        for i in 0..CASES {
            match case(&mut rng) {
                Ok(()) => {}
                Err(e) if e.reject => rejected += 1,
                Err(e) => panic!(
                    "property `{test_name}` falsified at case {i}/{CASES}: {}",
                    e.message
                ),
            }
        }
        assert!(
            rejected < CASES,
            "property `{test_name}` rejected every case (prop_assume! too strict)"
        );
    }
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Declares property tests. Each `fn` becomes a `#[test]` that runs
/// [`test_runner::CASES`] deterministic random cases.
#[macro_export]
macro_rules! proptest {
    ($( $(#[$meta:meta])* fn $name:ident ( $($params:tt)* ) $body:block )*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::test_runner::run_cases(stringify!($name), |__pt_rng| {
                $crate::__proptest_bind!(__pt_rng, $($params)*);
                $body
                Ok(())
            });
        }
    )*};
}

/// Internal: binds each `name in strategy` / `name: Type` parameter.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident $(,)?) => {};
    ($rng:ident, $name:ident in $strat:expr $(, $($rest:tt)*)?) => {
        let $name = $crate::strategy::Strategy::sample(&$strat, $rng);
        $crate::__proptest_bind!($rng $(, $($rest)*)?);
    };
    ($rng:ident, $name:ident : $ty:ty $(, $($rest:tt)*)?) => {
        let $name = $crate::strategy::Strategy::sample(&$crate::arbitrary::any::<$ty>(), $rng);
        $crate::__proptest_bind!($rng $(, $($rest)*)?);
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!("assertion failed: {}", ::std::stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__pt_l, __pt_r) = (&$left, &$right);
        if !(*__pt_l == *__pt_r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: `{:?} == {:?}`",
                    __pt_l, __pt_r
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__pt_l, __pt_r) = (&$left, &$right);
        if !(*__pt_l == *__pt_r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    }};
}

/// Discards the current case (without failing) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                ::std::stringify!($cond),
            ));
        }
    };
}

/// Picks uniformly between several strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![$($crate::strategy::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn seeds_are_stable_per_name() {
        assert_eq!(
            crate::test_runner::seed_for("alpha"),
            crate::test_runner::seed_for("alpha")
        );
        assert_ne!(
            crate::test_runner::seed_for("alpha"),
            crate::test_runner::seed_for("beta")
        );
    }

    proptest! {
        #[test]
        fn ranges_respect_bounds(v in 10u32..20, w in -3i64..=3, x in 0.25f64..0.75) {
            prop_assert!((10..20).contains(&v));
            prop_assert!((-3..=3).contains(&w));
            prop_assert!((0.25..0.75).contains(&x));
        }

        #[test]
        fn tuples_map_and_oneof_compose(
            pair in (0u8..4, 0.0f64..=1.0).prop_map(|(a, b)| f64::from(a) + b),
            tag in prop_oneof![Just(1u8), Just(2), Just(3)],
            raw: u64,
        ) {
            prop_assert!((0.0..5.0).contains(&pair));
            prop_assert!((1..=3).contains(&tag));
            let _ = raw;
        }

        #[test]
        fn vec_lengths_respect_size_range(items in prop::collection::vec(0u64..100, 2..6)) {
            prop_assert!((2..6).contains(&items.len()));
            prop_assert!(items.iter().all(|&x| x < 100), "out of range: {items:?}");
        }

        #[test]
        fn assume_discards_without_failing(a in 0u32..10, b in 0u32..10) {
            prop_assume!(a != b);
            prop_assert!(a != b);
        }
    }
}
