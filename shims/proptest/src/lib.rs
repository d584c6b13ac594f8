//! Offline stand-in for `proptest`.
//!
//! Implements the subset the workspace's property tests use: the
//! [`proptest!`] macro, range/tuple/`vec`/`any` strategies, `prop_map`,
//! and the `prop_assert*` macros. Cases are generated from a fixed
//! deterministic seed (derived from the test's name), so failures
//! reproduce exactly; there is **no shrinking** — a failing case panics
//! with its case index. The engine suites draw their cases from
//! `glp_test_support::oracle` instead, which shrinks a failure to a
//! paste-able `Case` literal.

// Vendored stand-in for an external crate: exempt from workspace lints.
#![allow(clippy::all)]
/// Deterministic generator behind every strategy (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform integer in `[0, bound)` via widening multiply.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A value generator. Unlike the real crate there is no value tree or
/// shrinking; `generate` draws one case.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always generates a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span as u64) as i128) as $t
            }
        }
        impl Strategy for core::ops::RangeFrom<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                (self.start..=<$t>::MAX).generate(rng)
            }
        }
    )*};
}
int_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (rng.unit_f64() as $t) * (self.end - self.start)
            }
        }
    )*};
}
float_strategies!(f32, f64);

macro_rules! tuple_strategies {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategies! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
    (A, B, C, D, E, F, G)
    (A, B, C, D, E, F, G, H)
}

/// Types with a canonical full-domain strategy (the real crate's
/// `Arbitrary`).
pub trait Arbitrary: Sized {
    type Strategy: Strategy<Value = Self>;

    fn arbitrary() -> Self::Strategy;
}

/// Full-domain strategy for primitive types.
#[derive(Clone, Copy, Debug, Default)]
pub struct Any<T> {
    _marker: core::marker::PhantomData<T>,
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
        impl Arbitrary for $t {
            type Strategy = Any<$t>;
            fn arbitrary() -> Any<$t> { Any::default() }
        }
    )*};
}
arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Any<bool> {
    type Value = bool;

    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = Any<bool>;

    fn arbitrary() -> Any<bool> {
        Any::default()
    }
}

impl Strategy for Any<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        // Finite, sign-symmetric spread; full bit patterns would mostly
        // produce astronomical magnitudes and NaNs.
        (rng.unit_f64() - 0.5) * 2e6
    }
}

impl Arbitrary for f64 {
    type Strategy = Any<f64>;

    fn arbitrary() -> Any<f64> {
        Any::default()
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

pub mod collection {
    //! Collection strategies (`vec`).
    use super::{Strategy, TestRng};

    /// Element counts for [`vec`]: an exact size or a range.
    pub trait IntoSizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for core::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    impl IntoSizeRange for core::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            let (lo, hi) = (*self.start(), *self.end());
            lo + rng.below((hi - lo + 1) as u64) as usize
        }
    }

    /// Strategy producing `Vec`s of `element` with a size drawn from
    /// `size`.
    pub fn vec<S: Strategy, Z: IntoSizeRange>(element: S, size: Z) -> VecStrategy<S, Z> {
        VecStrategy { element, size }
    }

    /// Output of [`vec`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S, Z> {
        element: S,
        size: Z,
    }

    impl<S: Strategy, Z: IntoSizeRange> Strategy for VecStrategy<S, Z> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Runner configuration. Only `cases` is consulted.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Cases generated per property.
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Explicit failure value for property bodies (the real crate's
/// `TestCaseError`); the shim's `prop_assert*` macros panic instead, but
/// bodies may still `return Ok(())` / construct this directly.
#[derive(Clone, Debug)]
pub struct TestCaseError(pub String);

/// Derives the per-test RNG seed from the test's name, so each property
/// sees a distinct but reproducible stream.
pub fn seed_for(test_name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Declares property tests: each function runs `config.cases` times with
/// inputs drawn from its strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest! { @run ($cfg); $($rest)* }
    };
    (@run ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::new($crate::seed_for(stringify!($name)));
            $(let $arg = $strat;)*
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&$arg, &mut rng);)*
                // Bodies may `return Ok(())` early, like the real crate.
                let run = move || -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    Ok(())
                };
                let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(run));
                match outcome {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => panic!(
                        "proptest {}: case {} of {} rejected: {:?} (deterministic seed {})",
                        stringify!($name), case, config.cases, e,
                        $crate::seed_for(stringify!($name)),
                    ),
                    Err(panic) => {
                        eprintln!(
                            "proptest {}: failing case {} of {} (deterministic seed {})",
                            stringify!($name), case, config.cases,
                            $crate::seed_for(stringify!($name)),
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest! { @run ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Asserts inside a property (panics like `assert!`; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

pub mod prelude {
    //! Everything a property-test file needs, like the real crate's
    //! prelude. `prop` aliases the crate root so `prop::collection::vec`
    //! resolves.
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_and_tuples(t in (0u32..10, 5usize..8), c in 1u64..) {
            let (a, b) = t;
            prop_assert!(a < 10);
            prop_assert!((5..8).contains(&b));
            prop_assert!(c >= 1);
        }

        #[test]
        fn vec_and_map(v in prop::collection::vec(0u8..4, 1..20).prop_map(|v| v.len())) {
            prop_assert!((1..20).contains(&v));
        }

        #[test]
        fn any_bool_flips(x in any::<bool>(), y in any::<u32>()) {
            let _ = (x, y);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let s = (0u32..100, prop::collection::vec(0u32..9, 3));
        let mut r1 = crate::TestRng::new(9);
        let mut r2 = crate::TestRng::new(9);
        for _ in 0..50 {
            assert_eq!(s.generate(&mut r1), s.generate(&mut r2));
        }
    }
}
