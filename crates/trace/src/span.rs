//! Wall-clock timing: span guards and the always-on [`Stopwatch`].
//!
//! Library code outside the trace layer may not call `Instant::now()`
//! directly (clippy's `disallowed_methods`, DESIGN.md §10); everything
//! else times itself through spans or a [`Stopwatch`].

use std::time::Instant;

use crate::store;

/// RAII guard for an open span: records elapsed wall-clock time into the
/// registry's span tree when dropped. Created by [`span_enter`] or the
/// `span!` macro.
#[must_use = "dropping the guard immediately records a zero-length span"]
pub struct SpanGuard {
    name: &'static str,
    start: Instant,
}

/// Opens a span named `name` nested under the innermost open span on
/// this thread. Hold the returned guard for the duration of the work.
#[expect(clippy::disallowed_methods, reason = "spans measure wall time")]
pub fn span_enter(name: &'static str) -> SpanGuard {
    store::with(|r| r.enter(name));
    SpanGuard {
        name,
        start: Instant::now(),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // u64 nanoseconds cover ~584 years; saturate rather than wrap.
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        store::with(|r| r.exit(self.name, ns));
    }
}

/// Zero-sized stand-in guard returned by the disabled `span!` macro, so
/// instrumented call sites bind a guard the same way whether or not the
/// `enabled` feature is compiled in. Carries no state and no `Drop`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSpan;

/// Minimal wall-clock stopwatch for code that needs a duration as data
/// (e.g. a report field) rather than a span. Always live regardless of
/// the `enabled` feature.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    #[expect(clippy::disallowed_methods, reason = "a stopwatch measures wall time")]
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Elapsed wall-clock seconds since [`Stopwatch::start`].
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Elapsed wall-clock nanoseconds, saturating at `u64::MAX`.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Formats a nanosecond duration with an adaptive unit: `ns`, `µs`,
/// `ms`, or `s`. Shared by the span tree printer and `bds-bench`.
#[must_use]
pub fn fmt_duration_ns(ns: u64) -> String {
    // Unit thresholds keep three significant digits readable.
    #[expect(
        clippy::cast_precision_loss,
        reason = "a display value: three significant digits survive any rounding"
    )]
    let nsf = ns as f64;
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", nsf / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", nsf / 1_000_000.0)
    } else {
        format!("{:.2} s", nsf / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_moves_forward() {
        let sw = Stopwatch::start();
        assert!(sw.seconds() >= 0.0);
        assert!(sw.elapsed_ns() <= sw.elapsed_ns().max(1));
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(fmt_duration_ns(15), "15 ns");
        assert_eq!(fmt_duration_ns(1_500), "1.50 µs");
        assert_eq!(fmt_duration_ns(2_500_000), "2.50 ms");
        assert_eq!(fmt_duration_ns(3_250_000_000), "3.25 s");
    }
}
