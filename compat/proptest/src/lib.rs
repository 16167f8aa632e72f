//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the subset its property tests actually use:
//!
//! * the [`proptest!`] macro with an optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]` header,
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_oneof!`],
//! * range strategies (`0.1f64..100.0`, `0u32..1000`, …), tuples of
//!   strategies, [`strategy::Just`], `.prop_map(..)`, and
//!   [`collection::vec`].
//!
//! Differences from upstream, by design: case generation is fully
//! **deterministic** (seeded from the test name, so CI runs are
//! reproducible), and there is **no shrinking** — a failing case reports
//! its case number and assertion message instead of a minimized input.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Deterministic RNG driving case generation.

    /// SplitMix64-based generator; one per test function, seeded from the
    /// test's name so every run explores the same cases.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator from an arbitrary string (the test name).
        pub fn deterministic(name: &str) -> Self {
            let mut state: u64 = 0x517C_C1B7_2722_0A95;
            for b in name.bytes() {
                state = (state ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
            }
            Self { state }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform integer in `[0, bound)`; `bound` must be positive.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            // Lemire-style multiply-shift; negligible bias at these sizes.
            ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
        }
    }
}

pub mod strategy {
    //! Value-generation strategies (the `proptest::strategy` subset).

    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Erases the strategy's concrete type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(move |rng| self.generate(rng)))
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, U> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Type-erased strategy, as produced by [`Strategy::boxed`].
    pub struct BoxedStrategy<T>(Box<dyn Fn(&mut TestRng) -> T>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Weighted choice among boxed strategies (backs [`crate::prop_oneof!`]).
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
    }

    impl<T> Union<T> {
        /// Builds a union; weights must not all be zero.
        pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            assert!(
                arms.iter().any(|(w, _)| *w > 0),
                "prop_oneof! needs a positive weight"
            );
            Self { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let total: u64 = self.arms.iter().map(|(w, _)| u64::from(*w)).sum();
            let mut pick = rng.below(total);
            for (w, strat) in &self.arms {
                let w = u64::from(*w);
                if pick < w {
                    return strat.generate(rng);
                }
                pick -= w;
            }
            unreachable!("weights sum covers all picks")
        }
    }

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

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty integer range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty integer range strategy");
                    let span = (hi - lo) as u64 + 1;
                    lo + rng.below(span) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

    macro_rules! tuple_strategy {
        ($(($($name:ident),+);)*) => {$(
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

    tuple_strategy! {
        (A);
        (A, B);
        (A, B, C);
        (A, B, C, D);
        (A, B, C, D, E);
        (A, B, C, D, E, F);
        (A, B, C, D, E, F, G);
        (A, B, C, D, E, F, G, H);
        (A, B, C, D, E, F, G, H, I);
        (A, B, C, D, E, F, G, H, I, J);
    }
}

pub mod collection {
    //! Collection strategies (the `proptest::collection` subset).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Anything convertible to a size range for [`vec()`].
    pub trait IntoSizeRange {
        /// Lower and inclusive upper bound on the collection length.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty size range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// Strategy generating `Vec`s of values from an element strategy.
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    /// Generates vectors whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.max - self.min) as u64 + 1;
            let len = self.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Per-test configuration (case count).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases generated per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Overrides the number of generated cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.

    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    pub mod prop {
        //! The `prop::` module path used inside strategies.
        pub use crate::collection;
        pub use crate::strategy;
    }
}

/// Defines deterministic property tests.
///
/// Supports the upstream surface this workspace uses: an optional
/// `#![proptest_config(..)]` header followed by `#[test] fn name(pat in
/// strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    ($cfg:expr; $( $(#[$meta:meta])* fn $name:ident( $($pat:pat_param in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let mut __rng =
                    $crate::test_runner::TestRng::deterministic(stringify!($name));
                let __strategies = ($($strat,)+);
                for __case in 0..__config.cases {
                    let ($($pat,)+) = $crate::strategy::Strategy::generate(
                        &__strategies,
                        &mut __rng,
                    );
                    let __outcome: ::std::result::Result<(), ::std::string::String> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(__msg) = __outcome {
                        panic!(
                            "property failed at case {}/{}: {}",
                            __case + 1,
                            __config.cases,
                            __msg
                        );
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a [`proptest!`] body, failing the current
/// case (with formatted context) instead of panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {}",
                stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} ({})",
                stringify!($cond),
                format!($($fmt)+)
            ));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                stringify!($left),
                stringify!($right),
                __l,
                __r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?}): {}",
                stringify!($left),
                stringify!($right),
                __l,
                __r,
                format!($($fmt)+)
            ));
        }
    }};
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if __l == __r {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} != {} (both: {:?})",
                stringify!($left),
                stringify!($right),
                __l
            ));
        }
    }};
}

/// Weighted (or unweighted) choice among strategies yielding one type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat)),)+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat)),)+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        Push(u32),
        Pop,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 1.5f64..9.5, n in 3u32..17) {
            prop_assert!((1.5..9.5).contains(&x));
            prop_assert!((3..17).contains(&n));
        }

        #[test]
        fn vec_strategy_respects_size_and_element_bounds(
            v in prop::collection::vec(0.0f64..1.0, 2..6),
        ) {
            prop_assert!(v.len() >= 2 && v.len() <= 5, "len {}", v.len());
            prop_assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
        }

        #[test]
        fn tuple_patterns_and_maps_work(
            (a, b) in (0u32..10, 0u32..10).prop_map(|(x, y)| (x + 100, y)),
        ) {
            prop_assert!(a >= 100);
            prop_assert_eq!(b, b);
        }

        #[test]
        fn oneof_hits_every_arm(ops in prop::collection::vec(
            prop_oneof![
                3 => (0u32..50).prop_map(Op::Push),
                1 => Just(Op::Pop),
            ],
            1..100,
        )) {
            prop_assert!(!ops.is_empty());
        }
    }

    #[test]
    fn cases_are_deterministic_across_runs() {
        use crate::strategy::Strategy;
        let strat = (0.0f64..1.0, 0u32..100);
        let sample = |seed_name: &str| {
            let mut rng = crate::test_runner::TestRng::deterministic(seed_name);
            (0..10)
                .map(|_| strat.generate(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(sample("t"), sample("t"));
        assert_ne!(sample("t"), sample("u"));
    }

    #[test]
    #[should_panic(expected = "property failed at case")]
    fn failures_report_case_numbers() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            fn inner(x in 0u32..10) {
                prop_assert!(x < 3, "saw {}", x);
            }
        }
        inner();
    }
}
