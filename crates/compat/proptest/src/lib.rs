//! Vendored stand-in for `proptest`.
//!
//! Implements the strategy combinators and macros this workspace uses —
//! ranges, tuples, `Just`, `any`, `prop_map` / `prop_flat_map`,
//! `collection::{vec, btree_set}`, `prop_oneof!`, and the `proptest!` /
//! `prop_assert!` / `prop_assert_eq!` macros — over the vendored `rand`. Cases are generated
//! from a deterministic per-test seed, so failures reproduce exactly.
//! Shrinking is intentionally omitted: a failing case reports its index and
//! message, and re-running the test replays the identical inputs.

/// The generator handed to strategies (deterministic per test × case).
pub type TestRng = rand::rngs::StdRng;

pub mod test_runner {
    use super::TestRng;
    use rand::SeedableRng;

    /// Mirror of `proptest::test_runner::Config` (the `cases` knob only).
    #[derive(Clone, Copy, Debug)]
    pub struct Config {
        pub cases: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// A failed test case (what `prop_assert*!` produces).
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Deterministic per-(test, case) generator: FNV-1a over the test path,
    /// mixed with the case index.
    pub fn case_rng(test_path: &str, case: u32) -> TestRng {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in test_path.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng::seed_from_u64(h ^ (case as u64).wrapping_mul(0x9E3779B97F4A7C15))
    }
}

pub mod strategy {
    use super::TestRng;
    use rand::Rng;

    /// A value generator. Unlike upstream there is no value tree / shrinking;
    /// `generate` directly yields a value.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// Type-erased strategy (what `prop_oneof!` unions over).
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (**self).generate(rng)
        }
    }

    /// Constant strategy.
    #[derive(Clone, Copy, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, T> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.generate(rng))
        }
    }

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

    /// Uniform choice among boxed strategies (built by `prop_oneof!`).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.gen_range(0..self.options.len());
            self.options[i].generate(rng)
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    range_strategy!(u8, u16, u32, u64, usize, i32, i64, f32, f64);

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F2);
    tuple_strategy!(A, B, C, D, E, F2, G);
    tuple_strategy!(A, B, C, D, E, F2, G, H);

    /// Types with a canonical full-range strategy (see [`any`]).
    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rand::RngCore::next_u64(rng) as $t
                }
            }
        )*};
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i32, i64);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rand::RngCore::next_u64(rng) & 1 == 1
        }
    }

    /// Full-range strategy for an [`Arbitrary`] type.
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use rand::Rng;

    /// Element-count specification, convertible from the range forms the
    /// call sites use.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl SizeRange {
        fn sample(&self, rng: &mut TestRng) -> usize {
            if self.lo + 1 >= self.hi {
                self.lo
            } else {
                rng.gen_range(self.lo..self.hi)
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi: r.end.max(r.start + 1),
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = std::collections::BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let want = self.size.sample(rng);
            let mut set = std::collections::BTreeSet::new();
            // Duplicates may keep the set below `want`; bound the attempts so
            // narrow element domains still terminate (upstream behaves the
            // same way: the size is a target, not a guarantee).
            for _ in 0..want.saturating_mul(4) {
                if set.len() >= want {
                    break;
                }
                set.insert(self.element.generate(rng));
            }
            set
        }
    }

    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod prelude {
    pub use super::strategy::{any, Just, Strategy};
    pub use super::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use super::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Fails the current case (returns `Err(TestCaseError)` from the enclosing
/// `proptest!` body or `Result`-returning closure).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// The test-definition macro. Each function runs `config.cases` generated
/// cases; `prop_assert*!` failures abort the run reporting the case index.
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_fns!(($crate::test_runner::Config::default()) $($rest)*);
    };
}

/// Implementation detail of [`proptest!`]: the config is threaded in as a
/// plain expression so it can be transcribed into every generated function.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (
        ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        )+
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config = $cfg;
                for case in 0..config.cases {
                    let mut proptest_rng = $crate::test_runner::case_rng(
                        concat!(module_path!(), "::", stringify!($name)),
                        case,
                    );
                    $(
                        let $pat = $crate::strategy::Strategy::generate(
                            &($strat),
                            &mut proptest_rng,
                        );
                    )+
                    let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $body
                            ::core::result::Result::Ok(())
                        })();
                    if let ::core::result::Result::Err(e) = outcome {
                        panic!(
                            "proptest {} failed at case {}/{}: {}",
                            stringify!($name), case, config.cases, e
                        );
                    }
                }
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_generate_in_domain() {
        let mut rng = crate::test_runner::case_rng("self", 0);
        let s = (0u32..10, 0.5f64..1.0).prop_map(|(a, b)| (a * 2, b));
        for _ in 0..200 {
            let (a, b) = s.generate(&mut rng);
            assert!(a < 20 && a % 2 == 0);
            assert!((0.5..1.0).contains(&b));
        }
    }

    #[test]
    fn collections_respect_size() {
        let mut rng = crate::test_runner::case_rng("self", 1);
        let v = crate::collection::vec(0u32..5, 2..6);
        for _ in 0..100 {
            let xs = v.generate(&mut rng);
            assert!((2..6).contains(&xs.len()));
            assert!(xs.iter().all(|&x| x < 5));
        }
        let s = crate::collection::btree_set(0u32..1000, 0..10);
        assert!(s.generate(&mut rng).len() < 10);
    }

    #[test]
    fn oneof_covers_all_arms() {
        let mut rng = crate::test_runner::case_rng("self", 2);
        let u = prop_oneof![Just(1u8), Just(2u8)];
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(u.generate(&mut rng));
        }
        assert_eq!(seen.len(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_end_to_end((a, b) in (0u32..100, 0u32..100), mut v in crate::collection::vec(0u8..4, 0..8)) {
            v.sort_unstable();
            prop_assert!(a < 100 && b < 100);
            prop_assert_eq!(v.len(), v.len());
            prop_assert!(a + 1 != a);
        }
    }
}
