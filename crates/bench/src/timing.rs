//! A minimal wall-clock micro-benchmark runner.
//!
//! The workspace builds hermetically (no registry), so the bench targets
//! cannot depend on `criterion`. This runner covers what the tables in
//! `benches/*` actually need: warm-up, a fixed measurement budget,
//! per-iteration statistics, and stable one-line output.

#![expect(clippy::print_stdout, reason = "measurement output goes to stdout")]

use std::time::{Duration, Instant};

/// Default measurement budget per benchmark.
pub const DEFAULT_BUDGET: Duration = Duration::from_millis(500);

/// Statistics for one benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Number of timed iterations.
    pub iterations: u32,
    /// Mean wall time per iteration.
    pub mean: Duration,
    /// Fastest single iteration.
    pub min: Duration,
    /// Slowest single iteration.
    pub max: Duration,
}

impl Measurement {
    fn format_duration(d: Duration) -> String {
        bds_trace::fmt_duration_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }
}

/// Times `f` repeatedly within `budget` (after one warm-up call) and
/// prints a `name: mean [min .. max] (n iters)` line.
///
/// Returns the measurement so callers can aggregate.
pub fn bench_with_budget<T>(name: &str, budget: Duration, mut f: impl FnMut() -> T) -> Measurement {
    // Warm-up: first call pays one-time setup (allocations, caches).
    std::hint::black_box(f());
    let mut iterations = 0u32;
    let mut total = Duration::ZERO;
    let mut min = Duration::MAX;
    let mut max = Duration::ZERO;
    while total < budget && iterations < 1_000_000 {
        #[expect(clippy::disallowed_methods, reason = "a harness reads the wall clock")]
        let t0 = Instant::now();
        std::hint::black_box(f());
        let dt = t0.elapsed();
        total += dt;
        min = min.min(dt);
        max = max.max(dt);
        iterations += 1;
    }
    let mean = total / iterations.max(1);
    let m = Measurement {
        iterations,
        mean,
        min,
        max,
    };
    println!(
        "{name:<40} {:>12} [{} .. {}] ({} iters)",
        Measurement::format_duration(m.mean),
        Measurement::format_duration(m.min),
        Measurement::format_duration(m.max),
        m.iterations
    );
    m
}

/// [`bench_with_budget`] with the default budget.
pub fn bench<T>(name: &str, f: impl FnMut() -> T) -> Measurement {
    bench_with_budget(name, DEFAULT_BUDGET, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_reports() {
        let m = bench_with_budget("noop", Duration::from_millis(5), || 1 + 1);
        assert!(m.iterations > 0);
        assert!(m.min <= m.mean && m.mean <= m.max);
    }
}
