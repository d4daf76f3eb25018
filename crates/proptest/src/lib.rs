//! Minimal, deterministic, offline re-implementation of the `proptest`
//! surface this workspace uses.
//!
//! The build environment has no network access to crates.io, so the real
//! `proptest` cannot be vendored; this crate supplies just enough of its
//! API for the property tests in `/tests` to compile and run:
//!
//! - the [`proptest!`] macro (with `#![proptest_config(..)]`),
//! - [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`],
//! - range strategies for the integer types and `f64`,
//! - tuple strategies + [`strategy::Strategy::prop_map`],
//! - [`collection::vec`] with `Range`/`RangeInclusive` sizes,
//! - [`num::u64::ANY`].
//!
//! Unlike the real crate there is **no shrinking**: a failing case panics
//! with the formatted assertion message and the case index. Generation is
//! fully deterministic — each test's RNG is seeded from a hash of the
//! test's name, so a given test sees the same inputs on every run, which
//! matches this workspace's determinism-first conventions.

#![warn(missing_docs)]
#![deny(unsafe_code)]

/// Test-runner configuration and the deterministic RNG behind generation.
pub mod test_runner {
    /// Subset of proptest's config: only the case count is honoured.
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` generated inputs per property.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    /// Deterministic splitmix64 generator seeded from the test name.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator from an FNV-1a hash of `name`.
        pub fn from_name(name: &str) -> TestRng {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next raw 64-bit draw (splitmix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, 1)` with 53 bits of precision.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Runs one generated case; exists so the `proptest!` expansion does
    /// not trip `clippy::redundant_closure_call`.
    pub fn run_case<F>(case: F) -> Result<(), String>
    where
        F: FnOnce() -> Result<(), String>,
    {
        case()
    }
}

/// The [`Strategy`](strategy::Strategy) trait and the adapters this workspace needs.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A source of generated values (no shrinking in this shim).
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Draws one value from `rng`.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy producing a fixed value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Adapter returned by [`Strategy::prop_map`].
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
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for ::core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end - self.start) as u64;
                    self.start + (rng.next_u64() % span) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

    impl Strategy for ::core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty strategy range");
            self.start + (self.end - self.start) * rng.next_f64()
        }
    }

    macro_rules! tuple_strategy {
        ($($name:ident . $idx:tt),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A.0, B.1);
    tuple_strategy!(A.0, B.1, C.2);
    tuple_strategy!(A.0, B.1, C.2, D.3);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Inclusive length range for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<::core::ops::Range<usize>> for SizeRange {
        fn from(r: ::core::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<::core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: ::core::ops::RangeInclusive<usize>) -> SizeRange {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from a [`SizeRange`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo + 1) as u64;
            let len = self.size.lo + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Generates a `Vec` whose elements come from `element` and whose
    /// length is drawn uniformly from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// Numeric "any value" strategies (`proptest::num::u64::ANY`).
pub mod num {
    /// Strategies over `u64`.
    pub mod u64 {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;

        /// Strategy type behind [`ANY`].
        #[derive(Debug, Clone, Copy)]
        pub struct Any;

        /// Any `u64`, uniformly.
        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = u64;
            fn generate(&self, rng: &mut TestRng) -> u64 {
                rng.next_u64()
            }
        }
    }
}

/// Everything the property tests import with `use proptest::prelude::*`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Fails the current case with a formatted message unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: {}",
                stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Fails the current case unless the two expressions compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: `{:?}` != `{:?}`",
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err(::std::format!($($fmt)+));
        }
    }};
}

/// Fails the current case if the two expressions compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: `{:?}` == `{:?}`",
                l,
                r
            ));
        }
    }};
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// item becomes a `#[test]`-able function that runs `cases` generated
/// inputs through the body.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{ ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{
            ($crate::test_runner::ProptestConfig::default()); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (
        ($config:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let mut rng = $crate::test_runner::TestRng::from_name(stringify!($name));
            for case in 0..config.cases {
                let ($($arg,)+) =
                    ($($crate::strategy::Strategy::generate(&($strat), &mut rng),)+);
                let outcome = $crate::test_runner::run_case(|| {
                    $body
                    ::core::result::Result::Ok(())
                });
                if let ::core::result::Result::Err(msg) = outcome {
                    panic!("proptest case {case} failed: {msg}");
                }
            }
        }
        $crate::__proptest_fns!{ ($config); $($rest)* }
    };
    (($config:expr);) => {};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn generation_is_deterministic_per_test_name() {
        let mut a = crate::test_runner::TestRng::from_name("x");
        let mut b = crate::test_runner::TestRng::from_name("x");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::test_runner::TestRng::from_name("y");
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(
            a in 3u32..9,
            b in -2.5f64..4.5,
            v in prop::collection::vec(0usize..5, 2..=4),
        ) {
            prop_assert!((3..9).contains(&a));
            prop_assert!((-2.5..4.5).contains(&b));
            prop_assert!(v.len() >= 2 && v.len() <= 4, "len {}", v.len());
            for x in &v {
                prop_assert!(*x < 5);
            }
        }

        #[test]
        fn prop_map_applies(
            pair in (1u32..4, 10u32..14).prop_map(|(x, y)| x + y),
        ) {
            prop_assert!((11..=16).contains(&pair));
        }

        #[test]
        fn any_u64_runs(seed in crate::num::u64::ANY) {
            let _ = seed;
            prop_assert_eq!(seed, seed);
        }
    }
}
