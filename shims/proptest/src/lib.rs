//! Minimal offline stand-in for `proptest`.
//!
//! Provides the [`Strategy`] trait (ranges, tuples, `prop_map`), the
//! `collection`/`array`/`bool` strategy constructors, and the `proptest!`
//! / `prop_assert!` macros this workspace's property tests use. Instead of
//! upstream's shrinking test runner, each property runs a fixed number of
//! deterministic cases seeded from the test name — no shrinking, but
//! failures reproduce exactly across runs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of cases each property runs.
pub const CASES: u32 = 64;

/// A failed test case (returned through `?` / `prop_assert!`).
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Creates a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A generator of test-case values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { strategy: self, f }
    }
}

/// Strategy adapter produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    strategy: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.strategy.generate(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($t:ident $idx:tt),+))*) => {$(
        impl<$($t: Strategy),+> Strategy for ($($t,)+) {
            type Value = ($($t::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
}

/// Fixed-size array strategies.
pub mod array {
    use super::{StdRng, Strategy};

    /// Strategy for `[S::Value; 3]`.
    pub struct Uniform3<S>(S);

    impl<S: Strategy> Strategy for Uniform3<S> {
        type Value = [S::Value; 3];

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            [
                self.0.generate(rng),
                self.0.generate(rng),
                self.0.generate(rng),
            ]
        }
    }

    /// Three independent draws from `strategy`.
    pub fn uniform3<S: Strategy>(strategy: S) -> Uniform3<S> {
        Uniform3(strategy)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// Strategy for `Vec<S::Value>` with a length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let len = rng.gen_range(self.size.clone());
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `len in size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(!size.is_empty(), "empty size range");
        VecStrategy { element, size }
    }

    /// Strategy for `HashSet<S::Value>` with a size drawn from a range.
    pub struct HashSetStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    #[expect(
        clippy::disallowed_types,
        reason = "the set type is the caller's choice; generation draws from the seeded StdRng, not from set order"
    )]
    impl<S: Strategy> Strategy for HashSetStrategy<S>
    where
        S::Value: std::hash::Hash + Eq,
    {
        type Value = std::collections::HashSet<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let target = rng.gen_range(self.size.clone());
            let mut set = std::collections::HashSet::with_capacity(target);
            // Bounded attempts so a too-small value domain degrades to a
            // smaller set instead of hanging.
            let mut attempts = 0usize;
            while set.len() < target && attempts < 50 * (target + 1) {
                set.insert(self.element.generate(rng));
                attempts += 1;
            }
            set
        }
    }

    /// `size` distinct elements drawn from `element` (best effort when the
    /// domain is small).
    pub fn hash_set<S: Strategy>(element: S, size: std::ops::Range<usize>) -> HashSetStrategy<S> {
        assert!(!size.is_empty(), "empty size range");
        HashSetStrategy { element, size }
    }
}

/// Boolean strategies.
pub mod bool {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// Uniform `true` / `false`.
    pub struct Any;

    /// The uniform boolean strategy.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = core::primitive::bool;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            rng.gen::<u64>() & 1 == 1
        }
    }
}

/// Builds the deterministic per-test RNG (seeded from the test name).
pub fn runner_rng(test_name: &str, case: u32) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^= u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut seed = [0u8; 32];
    for chunk in seed.chunks_exact_mut(8) {
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        chunk.copy_from_slice(&h.to_le_bytes());
    }
    StdRng::from_seed(seed)
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Strategy, TestCaseError,
    };
}

/// Skips the current case when the assumption does not hold (the shim
/// simply passes the case instead of resampling).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Ok(());
        }
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

/// Fails the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} != {} (both: {:?})",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running [`CASES`] deterministic cases.
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )+) => {$(
        $(#[$meta])*
        fn $name() {
            for case in 0..$crate::CASES {
                let mut __rng = $crate::runner_rng(stringify!($name), case);
                $(let $arg = $crate::Strategy::generate(&$strategy, &mut __rng);)+
                let __result: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body Ok(()) })();
                if let Err(e) = __result {
                    panic!("property `{}` failed on case {case}: {e}", stringify!($name));
                }
            }
        }
    )+};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn even() -> impl Strategy<Value = u64> {
        (0u64..100).prop_map(|x| x * 2)
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u32..10, y in 0.25f64..0.75) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((0.25..0.75).contains(&y), "y out of range: {}", y);
        }

        #[test]
        fn mapped_strategy_applies(x in even()) {
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn collections_respect_size(v in crate::collection::vec(0u8..5, 1..9)) {
            prop_assert!((1..9).contains(&v.len()));
            prop_assert!(v.iter().all(|&b| b < 5));
        }

        #[test]
        fn hash_sets_are_distinct(s in crate::collection::hash_set((0i32..50, 0i32..50), 2..10)) {
            prop_assert!(s.len() >= 2);
        }

        #[test]
        fn arrays_and_bools(a in crate::array::uniform3(0u64..7), b in crate::bool::ANY) {
            prop_assert!(a.iter().all(|&x| x < 7));
            let _: bool = b;
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let a: Vec<u64> = (0..5)
            .map(|c| Strategy::generate(&(0u64..1000), &mut crate::runner_rng("t", c)))
            .collect();
        let b: Vec<u64> = (0..5)
            .map(|c| Strategy::generate(&(0u64..1000), &mut crate::runner_rng("t", c)))
            .collect();
        assert_eq!(a, b);
    }
}
