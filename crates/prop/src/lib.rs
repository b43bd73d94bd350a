//! Deterministic randomness and a minimal property-testing harness.
//!
//! The BDS workspace builds in hermetic environments with no registry
//! access, so it cannot depend on `rand` or `proptest`. This crate
//! provides the two pieces the workspace actually needs:
//!
//! * [`Rng`] — a small, fast, seedable PRNG (SplitMix64) with the handful
//!   of sampling helpers the circuit generators and tests use. The same
//!   seed always yields the same stream, so experiments and failures are
//!   reproducible.
//! * [`check`] / [`check_cases`] — a property runner: a closure receives a
//!   fresh seeded [`Rng`] per case; on panic the runner reports the failing
//!   case index and seed so the failure can be replayed deterministically.
//! * [`digest`] — output digests (64-bit FNV-1a) checked against a
//!   checked-in baseline per test suite, which pin a flow's output bytes
//!   across commits.
//!
//! # Example
//!
//! ```
//! use bds_prop::{check, Rng};
//!
//! check("addition commutes", |rng| {
//!     let a = rng.range_u32(0..1000);
//!     let b = rng.range_u32(0..1000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

#![warn(missing_docs)]
// Library lint policy outside unit tests (DESIGN.md §10); lists in `clippy.toml`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

/// Seeded fault-injection plans for the chaos differential suite.
pub mod chaos;
/// Output digests checked against checked-in baseline files.
pub mod digest;

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default number of cases run by [`check`].
pub const DEFAULT_CASES: u32 = 64;

/// A deterministic SplitMix64 pseudo-random number generator.
///
/// Not cryptographically secure — it exists for reproducible test-input
/// and benchmark-circuit generation only.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Next raw 64-bit value (SplitMix64 step).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `range` (half-open). `range` must be non-empty.
    pub fn range_u64(&mut self, range: Range<u64>) -> u64 {
        debug_assert!(range.start < range.end, "empty range");
        let span = range.end - range.start;
        // Multiply-shift reduction; bias is negligible for test-sized spans.
        let hi = ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64;
        range.start + hi
    }

    /// Uniform draw from `range` (half-open). `range` must be non-empty.
    pub fn range_u32(&mut self, range: Range<u32>) -> u32 {
        self.range_u64(u64::from(range.start)..u64::from(range.end)) as u32
    }

    /// Uniform draw from `range` (half-open). `range` must be non-empty.
    pub fn range_usize(&mut self, range: Range<usize>) -> usize {
        self.range_u64(range.start as u64..range.end as u64) as usize
    }

    /// A uniformly random boolean.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn ratio(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Picks a uniformly random element of `items` (must be non-empty).
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range_usize(0..items.len())]
    }
}

/// Runs `property` for [`DEFAULT_CASES`] seeded cases. See [`check_cases`].
pub fn check<F: FnMut(&mut Rng)>(name: &str, property: F) {
    check_cases(name, DEFAULT_CASES, property);
}

/// Runs `property` for `cases` seeded cases.
///
/// Each case gets an [`Rng`] seeded from the case index, so a failure
/// report ("case k, seed s") is enough to replay it exactly:
/// `property(&mut Rng::new(s))`.
///
/// # Panics
/// Re-raises the first failing case, prefixed with its index and seed.
#[expect(clippy::panic, reason = "the property harness must fail the test")]
pub fn check_cases<F: FnMut(&mut Rng)>(name: &str, cases: u32, mut property: F) {
    for case in 0..cases {
        // Decorrelate neighbouring cases: the seed is itself mixed.
        let seed = Rng::new(u64::from(case)).next_u64();
        let mut rng = Rng::new(seed);
        #[expect(
            clippy::disallowed_methods,
            reason = "the harness contains a failing case to re-report its seed"
        )]
        let outcome = catch_unwind(AssertUnwindSafe(|| property(&mut rng)));
        if let Err(payload) = outcome {
            let detail = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            panic!("property `{name}` failed at case {case} (seed {seed:#x}): {detail}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        let mut c = Rng::new(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::new(7);
        for _ in 0..1000 {
            let v = rng.range_u32(3..17);
            assert!((3..17).contains(&v));
            let u = rng.range_usize(0..1);
            assert_eq!(u, 0);
        }
    }

    #[test]
    fn ratio_extremes() {
        let mut rng = Rng::new(1);
        assert!(!(0..100).any(|_| rng.ratio(0.0)));
        assert!((0..100).all(|_| rng.ratio(1.0)));
    }

    #[test]
    fn check_reports_seed_on_failure() {
        let result = std::panic::catch_unwind(|| {
            check_cases("always fails", 3, |_rng| {
                assert_eq!(1, 2, "intentional");
            });
        });
        let err = result.expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("case 0"), "got: {msg}");
        assert!(msg.contains("seed"), "got: {msg}");
    }

    #[test]
    fn check_passes_quietly() {
        check("tautology", |rng| {
            let x = rng.next_u64();
            assert_eq!(x, x);
        });
    }
}
