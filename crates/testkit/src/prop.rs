//! A minimal property-testing engine: generator combinators, an N-case
//! driver, and greedy shrinking.
//!
//! Replaces the `proptest` dependency with the small surface the
//! workspace actually uses. Every run is driven by one 64-bit seed
//! (`MIRAGE_TEST_SEED`, default [`crate::DEFAULT_SEED`]); a failing
//! property panics with the minimal counterexample *and* the seed needed
//! to reproduce it.
//!
//! Properties are written with the [`crate::property!`] macro:
//!
//! ```
//! mirage_testkit::property! {
//!     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
//!         assert_eq!(a + b, b + a);
//!     }
//! }
//! ```

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::{Rng, UniformInt};

/// A value generator with optional shrinking.
///
/// `shrink` proposes strictly "smaller" candidates for a failing value;
/// the driver greedily descends through candidates that still fail until
/// none do. Returning an empty `Vec` opts out of shrinking.
pub trait Gen {
    /// The generated value type.
    type Value: Clone + Debug;
    /// Draws one value from `rng`.
    fn generate(&self, rng: &mut Rng) -> Self::Value;
    /// Candidate simplifications of `value`, simplest first.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

// ---------------------------------------------------------------- ranges

macro_rules! impl_gen_for_int_range {
    ($($t:ty),*) => {$(
        impl Gen for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_int(self.start, *value)
            }
        }
        impl Gen for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_int(*self.start(), *value)
            }
        }
    )*};
}

impl_gen_for_int_range!(u8, u16, u32, u64, usize, i32, i64);

/// Shrink an integer toward `lo`: first `lo` itself, then successive
/// halvings of the distance, then the immediate predecessor.
fn shrink_int<T>(lo: T, value: T) -> Vec<T>
where
    T: UniformInt + PartialEq + PartialOrd + Copy + ShrinkArith,
{
    if value == lo {
        return Vec::new();
    }
    // Candidates ascend from `lo` toward `value` (binary descent): the
    // greedy driver takes the *first* failing candidate, so ordering
    // simplest-first makes each accepted shrink halve the remaining
    // distance instead of stepping by one.
    let dist = value.wrapping_dist(lo);
    let mut out = Vec::new();
    let mut d = dist;
    while d > 0 {
        let cand = lo.add_u64(dist - d);
        if !out.contains(&cand) {
            out.push(cand);
        }
        d /= 2;
    }
    out
}

/// Arithmetic the integer shrinker needs, implemented for every
/// [`UniformInt`].
pub trait ShrinkArith: Copy {
    /// `|self - other|` as a u64 (saturating).
    fn wrapping_dist(self, other: Self) -> u64;
    /// `self + d`, saturating at the type's max.
    fn add_u64(self, d: u64) -> Self;
}

macro_rules! impl_shrink_arith {
    ($($t:ty),*) => {$(
        impl ShrinkArith for $t {
            fn wrapping_dist(self, other: Self) -> u64 {
                let (a, b) = (self as i128, other as i128);
                (a - b).unsigned_abs().min(u64::MAX as u128) as u64
            }
            fn add_u64(self, d: u64) -> Self {
                ((self as i128).saturating_add(d as i128))
                    .clamp(<$t>::MIN as i128, <$t>::MAX as i128) as $t
            }
        }
    )*};
}

impl_shrink_arith!(u8, u16, u32, u64, usize, i32, i64);

// ------------------------------------------------------------- arbitrary

/// Types with a canonical full-range generator, used via [`any`].
pub trait Arbitrary: Clone + Debug {
    /// Draws a value covering the type's whole range.
    fn arbitrary(rng: &mut Rng) -> Self;
    /// Candidate simplifications (see [`Gen::shrink`]).
    fn shrink_value(&self) -> Vec<Self> {
        Vec::new()
    }
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut Rng) -> $t {
                rng.next_u64() as $t
            }
            fn shrink_value(&self) -> Vec<$t> {
                shrink_int(0, *self)
            }
        }
    )*};
}

impl_arbitrary_uint!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut Rng) -> bool {
        rng.next_u64() & 1 == 1
    }
    fn shrink_value(&self) -> Vec<bool> {
        if *self {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl<const N: usize> Arbitrary for [u8; N] {
    fn arbitrary(rng: &mut Rng) -> [u8; N] {
        let mut out = [0u8; N];
        rng.fill_bytes(&mut out);
        out
    }
    fn shrink_value(&self) -> Vec<[u8; N]> {
        if self.iter().all(|&b| b == 0) {
            Vec::new()
        } else {
            vec![[0u8; N]]
        }
    }
}

/// The generator returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// A full-range generator for `T`, mirroring proptest's `any::<T>()`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Gen for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut Rng) -> T {
        T::arbitrary(rng)
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        value.shrink_value()
    }
}

// ---------------------------------------------------------------- tuples

macro_rules! impl_gen_for_tuple {
    ($(($($g:ident / $v:ident / $i:tt),+))*) => {$(
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);
            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$i.shrink(&value.$i) {
                        let mut next = value.clone();
                        next.$i = cand;
                        out.push(next);
                    }
                )+
                out
            }
        }
    )*};
}

impl_gen_for_tuple! {
    (A/a/0)
    (A/a/0, B/b/1)
    (A/a/0, B/b/1, C/c/2)
    (A/a/0, B/b/1, C/c/2, D/d/3)
    (A/a/0, B/b/1, C/c/2, D/d/3, E/e/4)
}

// ------------------------------------------------------------ containers

/// `proptest::collection`-shaped combinators.
pub mod collection {
    use super::*;

    /// A generator of `Vec`s whose length is drawn from `len` and whose
    /// elements come from `element`.
    pub fn vec<G: Gen>(element: G, len: Range<usize>) -> VecGen<G> {
        VecGen { element, len }
    }

    /// See [`vec`].
    #[derive(Debug, Clone)]
    pub struct VecGen<G> {
        element: G,
        len: Range<usize>,
    }

    impl<G: Gen> Gen for VecGen<G> {
        type Value = Vec<G::Value>;

        fn generate(&self, rng: &mut Rng) -> Vec<G::Value> {
            let n = rng.gen_range(self.len.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }

        fn shrink(&self, value: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
            let mut out = Vec::new();
            let min = self.len.start;
            // Structural shrinks first: empty-ish, halves, drop-one.
            if value.len() > min {
                out.push(value[..min].to_vec());
                let half = (value.len() / 2).max(min);
                if half < value.len() && half > min {
                    out.push(value[..half].to_vec());
                }
                // Drop the last, then the first element.
                out.push(value[..value.len() - 1].to_vec());
                out.push(value[1..].to_vec());
            }
            // Then element-wise shrinks.
            for (i, item) in value.iter().enumerate() {
                for cand in self.element.shrink(item) {
                    let mut next = value.clone();
                    next[i] = cand;
                    out.push(next);
                }
            }
            out
        }
    }
}

// --------------------------------------------------------------- strings

/// A generator of strings matching `[a-z]{len}` with `len` drawn from
/// the given range — the workspace's replacement for proptest's regex
/// string strategies.
pub fn lowercase(len: Range<usize>) -> LowercaseGen {
    LowercaseGen {
        len,
        alphabet: b"abcdefghijklmnopqrstuvwxyz",
    }
}

/// A generator of URL-ish paths: `/` followed by `[a-z0-9/]{len}`.
pub fn path(len: Range<usize>) -> PathGen {
    PathGen {
        inner: LowercaseGen {
            len,
            alphabet: b"abcdefghijklmnopqrstuvwxyz0123456789/",
        },
    }
}

/// See [`lowercase`].
#[derive(Debug, Clone)]
pub struct LowercaseGen {
    len: Range<usize>,
    alphabet: &'static [u8],
}

impl Gen for LowercaseGen {
    type Value = String;

    fn generate(&self, rng: &mut Rng) -> String {
        let n = rng.gen_range(self.len.clone());
        (0..n)
            .map(|_| self.alphabet[rng.gen_index(self.alphabet.len())] as char)
            .collect()
    }

    fn shrink(&self, value: &String) -> Vec<String> {
        let mut out = Vec::new();
        let min = self.len.start;
        if value.len() > min {
            out.push(value.chars().take(min).collect());
            out.push(value.chars().take(value.len() - 1).collect());
        }
        // Normalise characters toward 'a'.
        if let Some(pos) = value.chars().position(|c| c != 'a') {
            let mut next: Vec<char> = value.chars().collect();
            next[pos] = 'a';
            out.push(next.into_iter().collect());
        }
        out
    }
}

/// See [`path`].
#[derive(Debug, Clone)]
pub struct PathGen {
    inner: LowercaseGen,
}

impl Gen for PathGen {
    type Value = String;

    fn generate(&self, rng: &mut Rng) -> String {
        format!("/{}", self.inner.generate(rng))
    }

    fn shrink(&self, value: &String) -> Vec<String> {
        let tail: String = value.chars().skip(1).collect();
        self.inner
            .shrink(&tail)
            .into_iter()
            .map(|t| format!("/{t}"))
            .collect()
    }
}

// ---------------------------------------------------------------- driver

/// Property-driver configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Cases to run per property.
    pub cases: u32,
    /// Cap on shrink iterations after a failure.
    pub max_shrink_steps: u32,
    /// The run seed (every property derives its own stream from it).
    pub seed: u64,
}

impl Config {
    /// Defaults, with the seed taken from `MIRAGE_TEST_SEED` when set.
    pub fn from_env() -> Config {
        Config {
            cases: 64,
            max_shrink_steps: 2000,
            seed: crate::test_seed(),
        }
    }

    /// Overrides the case count.
    pub fn cases(mut self, cases: u32) -> Config {
        self.cases = cases;
        self
    }
}

/// Runs `test` against `cfg.cases` generated values; on failure, shrinks
/// greedily and panics with the minimal counterexample and the seed.
pub fn run_with<G: Gen>(cfg: Config, name: &str, gen: G, test: impl Fn(G::Value)) {
    let mut rng = Rng::for_stream(cfg.seed, name);
    for case in 0..cfg.cases {
        let value = gen.generate(&mut rng);
        if let Err(panic_msg) = run_one(&test, value.clone()) {
            let (minimal, steps) = shrink_failure(&cfg, &gen, &test, value);
            panic!(
                "property `{name}` falsified (case {case}/{cases}, seed {seed}):\n  \
                 minimal counterexample: {minimal:?}\n  \
                 ({steps} shrink steps; reproduce with MIRAGE_TEST_SEED={seed})\n  \
                 original failure: {panic_msg}",
                cases = cfg.cases,
                seed = cfg.seed,
            );
        }
    }
}

/// [`run_with`] under [`Config::from_env`] — the `property!` entry point.
pub fn run<G: Gen>(name: &str, gen: G, test: impl Fn(G::Value)) {
    run_with(Config::from_env(), name, gen, test);
}

/// Executes one case, converting a panic into its message.
fn run_one<V>(test: &impl Fn(V), value: V) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| test(value))) {
        Ok(()) => Ok(()),
        Err(payload) => Err(panic_message(payload.as_ref())),
    }
}

/// Greedy shrink: repeatedly take the first candidate that still fails.
fn shrink_failure<G: Gen>(
    cfg: &Config,
    gen: &G,
    test: &impl Fn(G::Value),
    mut current: G::Value,
) -> (G::Value, u32) {
    let mut steps = 0;
    'outer: while steps < cfg.max_shrink_steps {
        for candidate in gen.shrink(&current) {
            steps += 1;
            if run_one(test, candidate.clone()).is_err() {
                current = candidate;
                continue 'outer;
            }
            if steps >= cfg.max_shrink_steps {
                break;
            }
        }
        break;
    }
    (current, steps)
}

fn panic_message(payload: &dyn std::any::Any) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Defines property tests: each function body runs against generated
/// inputs via [`run`]. An optional leading `#![cases(N)]` overrides the
/// case count for every property in the block.
#[macro_export]
macro_rules! property {
    (
        #![cases($cases:expr)]
        $( $(#[doc = $doc:expr])* fn $name:ident($($arg:pat in $gen:expr),+ $(,)?) $body:block )+
    ) => {$(
        $(#[doc = $doc])*
        #[test]
        fn $name() {
            $crate::prop::run_with(
                $crate::prop::Config::from_env().cases($cases),
                stringify!($name),
                ($($gen,)+),
                |($($arg,)+)| $body,
            );
        }
    )+};
    (
        $( $(#[doc = $doc:expr])* fn $name:ident($($arg:pat in $gen:expr),+ $(,)?) $body:block )+
    ) => {$(
        $(#[doc = $doc])*
        #[test]
        fn $name() {
            $crate::prop::run(
                stringify!($name),
                ($($gen,)+),
                |($($arg,)+)| $body,
            );
        }
    )+};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let counter = std::cell::Cell::new(0u32);
        run(
            "always_true",
            (0u32..100,),
            |(_v,)| {
                counter.set(counter.get() + 1);
            },
        );
        assert_eq!(counter.get(), Config::from_env().cases);
    }

    #[test]
    fn shrinking_converges_on_minimal_counterexample() {
        // Property: v < 500. Minimal counterexample in 0..10_000 is 500.
        let cfg = Config {
            cases: 200,
            max_shrink_steps: 5000,
            seed: 12345,
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_with(cfg, "lt_500", (0u32..10_000,), |(v,)| {
                assert!(v < 500);
            });
        }));
        let msg = panic_message(result.expect_err("property must fail").as_ref());
        assert!(
            msg.contains("minimal counterexample: (500,)"),
            "greedy shrink should reach exactly 500, got: {msg}"
        );
    }

    #[test]
    fn failure_message_reports_the_seed() {
        let cfg = Config {
            cases: 50,
            max_shrink_steps: 100,
            seed: 0xABCD,
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_with(cfg, "always_false", (0u32..10,), |(_v,)| {
                panic!("nope");
            });
        }));
        let msg = panic_message(result.expect_err("property must fail").as_ref());
        assert!(
            msg.contains(&format!("MIRAGE_TEST_SEED={}", 0xABCD)),
            "failure must tell the user how to reproduce: {msg}"
        );
        assert!(msg.contains("original failure: nope"), "{msg}");
    }

    #[test]
    fn vec_shrinking_reaches_small_vectors() {
        // Property: no vec contains a value >= 200. Minimal counterexample
        // is a single-element vec [200].
        let cfg = Config {
            cases: 300,
            max_shrink_steps: 5000,
            seed: 777,
        };
        let gen = (collection::vec(0u32..1000, 0..20),);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_with(cfg, "all_lt_200", gen, |(v,)| {
                assert!(v.iter().all(|&x| x < 200));
            });
        }));
        let msg = panic_message(result.expect_err("property must fail").as_ref());
        assert!(
            msg.contains("minimal counterexample: ([200],)"),
            "vec shrink should reach [200], got: {msg}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        // The same seed must generate the same case sequence.
        let collect = |seed: u64| {
            let mut values = Vec::new();
            let cfg = Config {
                cases: 20,
                max_shrink_steps: 0,
                seed,
            };
            // SAFETY of pattern: capture via RefCell to record generated cases.
            let cell = std::cell::RefCell::new(&mut values);
            run_with(cfg, "record", (0u64..1_000_000,), |(v,)| {
                cell.borrow_mut().push(v);
            });
            values
        };
        assert_eq!(collect(99), collect(99));
        assert_ne!(collect(99), collect(100));
    }

    #[test]
    fn tuple_generators_shrink_componentwise() {
        let gen = (0u32..100, 0u32..100);
        let shrinks = gen.shrink(&(50, 0));
        assert!(shrinks.iter().any(|&(a, _)| a < 50));
        assert!(shrinks.iter().all(|&(_, b)| b == 0), "minimal stays put");
    }

    property! {
        fn macro_defined_property_holds(a in 0u32..1000, b in 0u32..1000) {
            assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
        }
    }

    property! {
        #![cases(16)]
        fn macro_cases_override_works(v in collection::vec(any::<u8>(), 0..8)) {
            assert!(v.len() < 8);
        }
    }
}
