//! Offline shim for `proptest`.
//!
//! See `shims/README.md`. Provides the macro-and-strategy surface the
//! workspace's property tests use — `proptest!`, `prop_assert*!`,
//! `prop_assume!`, range/tuple/`vec`/`any` strategies with `prop_map` and
//! `prop_flat_map` — backed by a deterministic per-test generator.
//! Unlike the real crate there is no shrinking: a failing case reports
//! the raw inputs via the panic message (inputs are reproducible because
//! case seeds derive from the test's module path and name alone).

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Run-time configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// Deterministic generator handed to strategies (SplitMix64 stream).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform `usize` in `[lo, hi]`.
    pub fn usize_inclusive(&mut self, lo: usize, hi: usize) -> usize {
        let span = (hi - lo) as u128 + 1;
        lo + ((self.next_u64() as u128) % span) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Drives the cases of one property (used by the `proptest!` expansion).
#[derive(Debug)]
pub struct TestRunner {
    seed: u64,
}

impl TestRunner {
    /// A runner whose case seeds derive from the test's identity, so runs
    /// are reproducible without any persisted state.
    #[must_use]
    pub fn new(_config: &ProptestConfig, module_path: &str, test_name: &str) -> TestRunner {
        let mut seed = 0xCBF2_9CE4_8422_2325u64;
        for b in module_path.bytes().chain(test_name.bytes()) {
            seed ^= u64::from(b);
            seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRunner { seed }
    }

    /// The generator for case number `case`.
    #[must_use]
    pub fn rng_for_case(&self, case: u32) -> TestRng {
        TestRng {
            state: self.seed ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Feeds generated values into a strategy-producing `f` and samples
    /// the produced strategy.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Boxes the strategy (API-compat helper).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: std::rc::Rc::new(self),
        }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T> {
    inner: std::rc::Rc<dyn Strategy<Value = T>>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: std::rc::Rc::clone(&self.inner),
        }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.inner.generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// A uniform choice among boxed strategies; built by [`prop_oneof!`].
/// (Real proptest supports per-branch weights; the shim picks uniformly.)
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Creates a union over `options`; panics if `options` is empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!options.is_empty(), "prop_oneof! needs at least one strategy");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.usize_inclusive(0, self.options.len() - 1);
        self.options[i].generate(rng)
    }
}

/// Picks one of the listed strategies per case, uniformly.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// A constant strategy.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// ---- numeric range strategies -----------------------------------------

macro_rules! impl_int_range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + ((rng.next_u64() as u128) % span) as i128) as $ty
            }
        }
        impl Strategy for RangeInclusive<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start() <= self.end(), "empty strategy range");
                let span = (*self.end() as i128 - *self.start() as i128) as u128 + 1;
                (*self.start() as i128 + ((rng.next_u64() as u128) % span) as i128) as $ty
            }
        }
    )*};
}

impl_int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start() + rng.unit_f64() * (self.end() - self.start())
    }
}

// ---- tuple strategies -------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

// ---- `any` ------------------------------------------------------------

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Sized {
    /// One arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($ty:ty),*) => {$(
        impl Arbitrary for $ty {
            fn arbitrary(rng: &mut TestRng) -> $ty {
                rng.next_u64() as $ty
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.unit_f64()
    }
}

/// The full-domain strategy of `T` (`any::<T>()`).
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

// ---- collections ------------------------------------------------------

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// An inclusive length range for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    /// A strategy producing `Vec`s of `element` with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.usize_inclusive(self.size.lo, self.size.hi);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ---- macros -----------------------------------------------------------

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a test running `body` for `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let __runner =
                    $crate::TestRunner::new(&__cfg, ::core::module_path!(), ::core::stringify!($name));
                for __case in 0..__cfg.cases {
                    let mut __rng = __runner.rng_for_case(__case);
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)*
                    $body
                }
            }
        )*
    };
}

/// `assert!` under a property (no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` under a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` under a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

/// The glob-import surface: strategies, macros, and config.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestRng, TestRunner, Union,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_tuples((a, b) in (0i64..10, 5u64..=6), v in collection::vec(any::<bool>(), 3)) {
            prop_assert!((0..10).contains(&a));
            prop_assert!((5..=6).contains(&b));
            prop_assert_eq!(v.len(), 3);
        }

        #[test]
        fn maps_and_assume(x in (1usize..=3).prop_flat_map(|n| collection::vec(0.0f64..=1.0, n))) {
            prop_assume!(!x.is_empty());
            let m = x.iter().cloned().fold(f64::NAN, f64::max);
            prop_assert!((0.0..=1.0).contains(&m));
        }
    }

    #[test]
    fn deterministic_across_runners() {
        let cfg = ProptestConfig::default();
        let r1 = TestRunner::new(&cfg, "m", "t");
        let r2 = TestRunner::new(&cfg, "m", "t");
        let mut a = r1.rng_for_case(5);
        let mut b = r2.rng_for_case(5);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRunner::new(&cfg, "m", "other").rng_for_case(5);
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
