//! Offline drop-in replacement for the subset of `proptest` this
//! workspace uses. The build environment cannot reach crates.io, so the
//! real crate is unavailable; this shim keeps the property-test files
//! source-compatible.
//!
//! Differences from real proptest, by design:
//!
//! * **No shrinking.** A failing case reports its inputs (via the
//!   assertion message) and the RNG seed, but is not minimized.
//! * **Derived seeding.** Each test's RNG is seeded from a hash of its
//!   name, overridable with the `PROPTEST_SEED` environment variable,
//!   so runs are reproducible by default.
//! * Only the combinators the workspace uses are provided: integer
//!   ranges, tuples (arity 2–4), [`strategy::Just`], `any::<bool>()`,
//!   [`strategy::Strategy::prop_map`], `prop_oneof!`, and
//!   [`collection::vec`].

#![warn(missing_docs)]

use rand::{Rng, SeedableRng};

/// Per-test configuration (mirrors `proptest::test_runner::ProptestConfig`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of successful cases required for the test to pass.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Why a generated case did not count as a pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; try another case.
    Reject,
    /// A `prop_assert…!` failed.
    Fail(String),
}

pub mod test_runner {
    //! The runner's RNG (mirrors `proptest::test_runner` loosely).

    pub use super::ProptestConfig;

    /// The source of generation entropy for one property test.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        inner: rand::rngs::StdRng,
        seed: u64,
    }

    impl TestRng {
        /// Deterministic RNG derived from the test's name; the
        /// `PROPTEST_SEED` environment variable overrides it.
        pub fn deterministic(name: &str) -> Self {
            let seed = std::env::var("PROPTEST_SEED")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| {
                    // FNV-1a over the test name.
                    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
                    })
                });
            TestRng {
                inner: <rand::rngs::StdRng as super::SeedableRng>::seed_from_u64(seed),
                seed,
            }
        }

        /// The seed in effect (reported on failure for reproduction).
        pub fn seed(&self) -> u64 {
            self.seed
        }

        /// Next raw 64 bits.
        pub fn next_u64(&mut self) -> u64 {
            super::Rng::next_u64(&mut self.inner)
        }

        /// Uniform integer in `[0, bound)`.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0);
            self.next_u64() % bound
        }
    }
}

pub mod strategy {
    //! Value-generation strategies (mirrors `proptest::strategy`).

    use super::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Generates values of an associated type from an RNG.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generate one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Type-erase the strategy (used by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// Object-safe generation, for [`BoxedStrategy`].
    trait DynStrategy<V> {
        fn dyn_generate(&self, rng: &mut TestRng) -> V;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn dyn_generate(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<V>(Box<dyn DynStrategy<V>>);

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            self.0.dyn_generate(rng)
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

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice among same-typed strategies (`prop_oneof!`).
    pub struct Union<V> {
        arms: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// A union over `arms` (must be non-empty).
        pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128) - (self.start as u128);
                    let wide = ((rng.next_u64() as u128) % span) as u128;
                    (self.start as u128 + wide) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (a, b) = (*self.start(), *self.end());
                    assert!(a <= b, "empty range strategy");
                    let span = (b as u128) - (a as u128) + 1;
                    let wide = ((rng.next_u64() as u128) % span) as u128;
                    (a as u128 + wide) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
    }

    /// Strategy for "any value of `T`" (`any::<T>()`).
    pub struct Any<T>(PhantomData<T>);

    /// `any::<T>()` — currently implemented for `bool` and `u64`.
    pub fn any<T>() -> Any<T> {
        Any(PhantomData)
    }

    impl Strategy for Any<bool> {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Strategy for Any<u64> {
        type Value = u64;
        fn generate(&self, rng: &mut TestRng) -> u64 {
            rng.next_u64()
        }
    }
}

pub mod bool {
    //! Boolean strategies (mirrors `proptest::bool`).

    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Strategy generating `true` with fixed probability.
    pub struct Weighted(f64);

    /// Generate `true` with probability `p`.
    pub fn weighted(p: f64) -> Weighted {
        assert!((0.0..=1.0).contains(&p), "weighted: p out of range");
        Weighted(p)
    }

    impl Strategy for Weighted {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            // 53 bits of entropy → uniform in [0, 1).
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            u < self.0
        }
    }
}

pub mod collection {
    //! Collection strategies (mirrors `proptest::collection`).

    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Strategy producing `Vec`s with lengths drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// Generate vectors of `element` values with length in `len`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start).max(1) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! Everything the workspace's test files import.

    pub use super::collection;
    pub use super::strategy::{any, Just, Strategy};
    pub use super::test_runner::TestRng;
    pub use super::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};

    /// The `prop::…` alias used by `prop::collection::vec` and
    /// `prop::bool::weighted`.
    pub mod prop {
        pub use super::super::bool;
        pub use super::super::collection;
    }
}

/// Reject the current case unless `cond` holds (does not count toward
/// the case budget).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Fail the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+),
                l,
                r
            )));
        }
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::Strategy::boxed($arm)),+])
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ($cfg:expr; $($arg:ident in $strat:expr),* ; $body:block ; $name:ident) => {{
        let cfg: $crate::ProptestConfig = $cfg;
        let mut rng = $crate::test_runner::TestRng::deterministic(concat!(
            module_path!(),
            "::",
            stringify!($name)
        ));
        let mut passed: u32 = 0;
        let mut rejected: u32 = 0;
        while passed < cfg.cases {
            $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)*
            let outcome: ::core::result::Result<(), $crate::TestCaseError> = (|| {
                $body
                #[allow(unreachable_code)]
                ::core::result::Result::Ok(())
            })();
            match outcome {
                ::core::result::Result::Ok(()) => passed += 1,
                ::core::result::Result::Err($crate::TestCaseError::Reject) => {
                    rejected += 1;
                    assert!(
                        rejected < cfg.cases.saturating_mul(64).saturating_add(1024),
                        "prop_assume! rejected too many cases ({} rejections)",
                        rejected
                    );
                }
                ::core::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                    panic!(
                        "property failed after {} passing case(s) [seed {}]: {}",
                        passed,
                        rng.seed(),
                        msg
                    );
                }
            }
        }
    }};
}

/// The property-test entry macro (mirrors `proptest::proptest!`).
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::__proptest_body!($cfg; $($arg in $strat),* ; $body ; $name)
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($arg in $strat),*) $body
            )*
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum E {
        A(u8),
        B,
    }

    fn e_strategy() -> impl Strategy<Value = E> {
        prop_oneof![(0..10u8).prop_map(E::A), Just(E::B)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_tuples(x in 1..5u64, pair in (0..3u8, 10..20usize)) {
            prop_assert!((1..5).contains(&x));
            prop_assert!(pair.0 < 3 && (10..20).contains(&pair.1));
        }

        #[test]
        fn vecs_and_unions(v in collection::vec(e_strategy(), 0..4)) {
            prop_assert!(v.len() < 4);
            for e in &v {
                if let E::A(n) = e {
                    prop_assert!(*n < 10, "bad A payload {}", n);
                }
            }
        }

        #[test]
        fn assume_rejects(x in 0..100u32) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failing_property_panics() {
        #[allow(unused)]
        fn inner() {
            crate::__proptest_body!(
                ProptestConfig::with_cases(10);
                x in 0..4u8 ;
                { prop_assert!(x < 2, "x was {}", x); } ;
                failing_property_panics
            )
        }
        inner();
    }
}
