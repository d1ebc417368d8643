//! Offline drop-in subset of the [proptest](https://docs.rs/proptest)
//! property-testing API.
//!
//! The MALS workspace must build in environments with no access to a crates
//! registry, so `tests/properties.rs` depends on this shim (renamed to
//! `proptest` in the workspace manifest) instead of the real crate. It
//! implements the API surface that file uses: the [`Strategy`](strategy::Strategy)
//! trait with [`prop_map`](strategy::Strategy::prop_map), [`any`](strategy::any),
//! numeric range strategies, tuple strategies, [`collection::vec`],
//! [`ProptestConfig`](test_runner::ProptestConfig) and the [`proptest!`],
//! [`prop_assert!`] / [`prop_assert_eq!`] macros.
//!
//! Differences from real proptest, by design:
//!
//! * inputs are drawn from a fixed-seed [SplitMix64](https://prng.di.unimi.it/splitmix64.c)
//!   stream (seeded from the test name), so every run of a test sees the
//!   same cases — failures are exactly reproducible but the search never
//!   varies between runs;
//! * there is **no shrinking**: a failing case is reported as a plain panic
//!   by the surrounding libtest harness with the case index in the message.
//!
//! Once a registry is reachable, point the `proptest` entry of
//! `[workspace.dependencies]` back at crates.io and everything recompiles
//! unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collection;
pub mod strategy;
pub mod test_runner;

/// The `use proptest::prelude::*;` surface.
pub mod prelude {
    pub use crate::strategy::{any, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Strategies: composable recipes for generating random test inputs.
pub mod strategies {
    pub use crate::strategy::*;
}

/// Assert a condition inside a [`proptest!`] body.
///
/// Real proptest records the failure and shrinks; the shim panics via
/// [`assert!`], which libtest reports together with the case counter that
/// [`proptest!`] appends to the panic message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Assert equality inside a [`proptest!`] body (see [`prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => { assert_eq!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_eq!($left, $right, $($fmt)+) };
}

/// Define property tests.
///
/// Each `fn name(arg in strategy, ...) { body }` item expands to a regular
/// `#[test]`-style function that draws `ProptestConfig::cases` inputs from
/// the strategies and runs the body on each. An optional leading
/// `#![proptest_config(expr)]` applies to every test in the block.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($config) $($rest)*);
    };
    (@with_config ($config:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let mut rng = $crate::test_runner::TestRng::from_name(stringify!($name));
                for case in 0..config.cases {
                    $(
                        let $arg = $crate::strategy::Strategy::generate(&($strategy), &mut rng);
                    )+
                    let run = move || $body;
                    if let Err(payload) = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(run),
                    ) {
                        eprintln!(
                            "proptest shim: property `{}` failed at case {}/{} (fixed seed, rerun reproduces it)",
                            stringify!($name), case + 1, config.cases,
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}
