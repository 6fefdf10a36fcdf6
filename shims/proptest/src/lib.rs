//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! Differences from the real crate: no shrinking, no persisted failure
//! seeds. Case generation is fully deterministic — the RNG for case `k` of
//! test `t` is derived from `hash(t) ^ k` — so a failing case reproduces
//! exactly on re-run, and the printed inputs identify it.

use test_runner::TestRng;

pub mod strategy;
pub use strategy::{BoxedStrategy, Just, Strategy};

/// Runner configuration.
pub mod test_runner {
    /// Mirrors `proptest::test_runner::ProptestConfig` (cases knob only).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// The case generator: xoshiro256++ with its state expanded from a
    /// 64-bit seed through SplitMix64 (the generator of
    /// `simcore::SmallRng`, copied so the shim stays self-contained).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl TestRng {
        pub(crate) fn seed_from_u64(mut seed: u64) -> Self {
            let s = [
                splitmix64(&mut seed),
                splitmix64(&mut seed),
                splitmix64(&mut seed),
                splitmix64(&mut seed),
            ];
            TestRng { s }
        }

        /// Next 64 uniformly random bits.
        pub fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        /// Uniform in `[0, 1)` from 53 random mantissa bits.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

/// `any::<T>()` support.
pub mod arbitrary {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::fmt;
    use std::marker::PhantomData;

    /// Types with a canonical "anything goes" strategy.
    pub trait Arbitrary: Sized + fmt::Debug {
        /// Draws an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            // Finite, mixed-magnitude values; real proptest is wilder but
            // nothing in this workspace relies on NaN/inf generation.
            let m = rng.next_f64() * 2.0 - 1.0;
            let e = (-60i32..60).generate(rng) as f64;
            m * e.exp2()
        }
    }

    /// Strategy returned by [`any`].
    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }
}

/// `prop::collection` strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates vectors whose length is uniform in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `prop::option` strategies.
pub mod option {
    use super::strategy::Strategy;
    use super::TestRng;

    /// Strategy for `Option<S::Value>`.
    pub struct OptionStrategy<S>(S);

    /// `None` about 25% of the time, `Some` otherwise.
    pub fn of<S: Strategy>(element: S) -> OptionStrategy<S> {
        OptionStrategy(element)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.next_f64() < 0.25 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

/// Derives the deterministic RNG for one test case. Public only for the
/// `proptest!` macro expansion.
#[doc(hidden)]
pub fn __case_rng(test_name: &str, case: u64) -> TestRng {
    // FNV-1a over the test name, mixed with the case index.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    TestRng::seed_from_u64(h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Declares property tests. Supports the `#![proptest_config(..)]` header
/// and `fn name(pat in strategy, ...) { body }` items, like the real crate.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            for __case in 0..__cfg.cases {
                let mut __rng = $crate::__case_rng(stringify!($name), __case as u64);
                let __vals = ( $( $crate::Strategy::generate(&($strat), &mut __rng), )+ );
                let __desc = format!("{:?}", __vals);
                let __result = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(move || {
                        let ( $($pat,)+ ) = __vals;
                        $body
                    }),
                );
                if let ::std::result::Result::Err(__e) = __result {
                    eprintln!(
                        "proptest: {} failed at case {}/{} with inputs {}",
                        stringify!($name), __case, __cfg.cases, __desc
                    );
                    ::std::panic::resume_unwind(__e);
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ( ($cfg:expr) ) => {};
}

/// Asserts inside a property body (maps to `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Equality assertion inside a property body (maps to `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Inequality assertion inside a property body (maps to `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Uniform choice among boxed strategies of a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![ $( $crate::Strategy::boxed($strat) ),+ ])
    };
}

/// Everything a test file normally imports.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespaced re-exports (`prop::collection::vec`, `prop::option::of`).
    pub mod prop {
        pub use crate::collection;
        pub use crate::option;
        pub use crate::strategy;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn vec_lengths_respect_range(v in prop::collection::vec(0u32..10, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn tuples_and_oneof(pair in (0.0f64..1.0, prop_oneof![Just(1u8), Just(2)]),
                            flag in any::<bool>()) {
            let (x, k) = pair;
            prop_assert!((0.0..1.0).contains(&x));
            prop_assert!(k == 1 || k == 2);
            let _ = flag;
        }
    }

    #[test]
    fn cases_are_deterministic() {
        use crate::Strategy;
        let s = crate::collection::vec(0u64..1000, 1..10);
        let a = s.generate(&mut crate::__case_rng("t", 3));
        let b = s.generate(&mut crate::__case_rng("t", 3));
        assert_eq!(a, b);
    }

    /// 64-bit FNV-1a over the raw bits of 4096 values of `s`: 64 draws from
    /// each of the first 64 case generators of one test name.
    fn digest<S: Strategy>(s: S, bits: impl Fn(S::Value) -> Vec<u64>) -> String {
        let mut words = Vec::new();
        for case in 0..64 {
            let mut rng = crate::__case_rng("pinned", case);
            for _ in 0..64 {
                words.extend(bits(s.generate(&mut rng)));
            }
        }
        let h = words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            });
        format!("{h:016x}")
    }

    /// Pins the cases every property test draws: a change to the case
    /// generator or a strategy's sampling moves a digest.
    #[test]
    fn case_streams_are_pinned() {
        let got = [
            digest(0u32..10, |v| vec![v.into()]),
            digest(-60i32..60, |v| vec![v as u64]),
            digest(0u64..=1000, |v| vec![v]),
            digest(any::<u64>(), |v| vec![v]),
            digest(0.0f64..1.0, |v| vec![v.to_bits()]),
            digest(-2.5f64..=2.5, |v| vec![v.to_bits()]),
            digest(any::<f64>(), |v| vec![v.to_bits()]),
            digest(any::<bool>(), |v| vec![v.into()]),
            digest(prop_oneof![Just(1u8), Just(2), Just(3)], |v| vec![v.into()]),
            digest(prop::collection::vec(0usize..100, 0..8), |v| {
                v.into_iter().map(|x| x as u64).chain([u64::MAX]).collect()
            }),
            digest(prop::option::of(0u8..4), |v| {
                vec![v.map_or(u64::MAX, u64::from)]
            }),
        ];
        let want = [
            "c8ff9a34c725a741",
            "56e7351e68ef81c3",
            "1ebe64a084136993",
            "18e6775c162c2254",
            "8d9575ce56d0a1c9",
            "8d3cd1f28e8b8a73",
            "d32cf13639faec05",
            "55b00a8d79b1e3c5",
            "e5f8229f3ee5bce6",
            "9e4de9034350d27d",
            "a796c93b3f3ceb9e",
        ];
        assert_eq!(got, want);
    }
}
