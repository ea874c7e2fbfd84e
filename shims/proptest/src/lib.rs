//! Offline stand-in for `proptest`.
//!
//! The build container has no crates.io access, so this crate vendors the
//! subset of proptest the workspace's property tests use: the [`Strategy`]
//! trait with `prop_map`, range and tuple strategies, `any`, `Just`,
//! `prop_oneof!`, `proptest::collection::vec`, and the `proptest!` /
//! `prop_assert*` / `prop_assume!` macros.
//!
//! Differences from real proptest, deliberately accepted:
//! - No shrinking: a failing case reports its inputs via the assertion
//!   message but is not minimized.
//! - Deterministic seeding: the RNG is seeded from the test's module path
//!   and name, so every run explores the same cases. Regression files
//!   (`proptest-regressions/`) are ignored.

pub mod strategy;
pub mod test_runner;

pub use strategy::{any, Any, Just, Strategy};
pub use test_runner::{ProptestConfig, TestRng};

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The length specification for [`vec()`]: an exact size or a range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    /// Conversion into [`SizeRange`]; implemented for `usize` and ranges.
    pub trait IntoSizeRange {
        /// The concrete `[lo, hi]` bounds.
        fn into_size_range(self) -> SizeRange;
    }

    impl IntoSizeRange for usize {
        fn into_size_range(self) -> SizeRange {
            SizeRange { lo: self, hi: self }
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn into_size_range(self) -> SizeRange {
            SizeRange {
                lo: self.start,
                hi: self.end.saturating_sub(1).max(self.start),
            }
        }
    }

    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn into_size_range(self) -> SizeRange {
            SizeRange {
                lo: *self.start(),
                hi: (*self.end()).max(*self.start()),
            }
        }
    }

    /// Strategy producing `Vec`s whose elements are drawn from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Vectors of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into_size_range(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let span = self.size.hi - self.size.lo + 1;
            let len = self.size.lo + (rng.next_u64() as usize) % span;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a property-test module typically imports.
pub mod prelude {
    /// Alias so `prop::collection::vec(...)` paths resolve.
    pub use crate as prop;
    pub use crate::collection;
    pub use crate::strategy::{any, Any, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Assert a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Assert inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Skip the current case when its inputs do not satisfy a precondition.
///
/// Each `proptest!` case body runs inside a closure returning
/// `Result<(), TestCaseError>`; rejecting a case is an early `Ok` return.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Ok(());
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Ok(());
        }
    };
}

/// Choose uniformly among several strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(Box::new($strategy) as Box<dyn $crate::strategy::Strategy<Value = _>>),+
        ])
    };
}

/// Define property tests: each `fn name(input in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr);
     $(
         $(#[$meta:meta])*
         fn $name:ident ( $($arg:pat in $strat:expr),* $(,)? ) $body:block
     )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $cfg;
                let mut __rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                for __case in 0..__config.cases {
                    let _ = __case;
                    $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)*
                    // The body runs in a closure so `?` and `prop_assume!`
                    // (early `Ok` return) work exactly as in real proptest.
                    let __outcome: ::core::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > = (|| {
                        { $body }
                        ::core::result::Result::Ok(())
                    })();
                    if let ::core::result::Result::Err(e) = __outcome {
                        panic!("property failed: {e}");
                    }
                }
            }
        )*
    };
}
