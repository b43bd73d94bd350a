//! Instrumentation macros, feature-gated to no-ops by default.
//!
//! Every macro has two definitions selected by the `enabled` feature.
//! The disabled variants still *name* their arguments (`let _ = ...`) so
//! call sites never grow unused-variable warnings, but evaluate nothing
//! beyond the argument expressions themselves (which are cheap field
//! reads or literals at every call site in this workspace).
//!
//! Both variants of the metric macros check the name at
//! compile time with [`is_metric_name`], so a badly named metric fails
//! every build, traced or not.

/// True when `name` is a dotted lowercase metric name
/// (`area.thing.metric`): at least two non-empty `.`-separated segments,
/// each `[a-z0-9_]+`. Names are grep-able constants because they end up
/// in report files and gate output.
///
/// The instrumentation macros assert this in a constant, so a name
/// assembled at runtime does not compile either:
///
/// ```compile_fail
/// bds_trace::counter!(format!("flow.{}.nodes", 1).as_str());
/// ```
///
/// ```compile_fail
/// bds_trace::counter!("Flow.Demo.Calls");
/// ```
#[must_use]
pub const fn is_metric_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    let (mut i, mut dots, mut segment) = (0, 0, 0);
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'.' && segment > 0 {
            dots += 1;
            segment = 0;
        } else if b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' {
            segment += 1;
        } else {
            return false;
        }
        i += 1;
    }
    dots > 0 && segment > 0
}

/// Increments a monotonic counter by one.
///
/// ```
/// bds_trace::counter!("bdd.reorder.passes");
/// ```
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        const _: () = assert!(
            $crate::is_metric_name($name),
            "metric names are dotted lowercase"
        );
        $crate::add_counter($name, 1)
    }};
}

/// Increments a monotonic counter by one. (No-op: `enabled` is off.)
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        const _: () = assert!(
            $crate::is_metric_name($name),
            "metric names are dotted lowercase"
        );
    }};
}

/// Adds an amount to a monotonic counter.
///
/// ```
/// bds_trace::counter_add!("net.sweep.rewrites", 12u64);
/// ```
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! counter_add {
    ($name:expr, $by:expr) => {{
        const _: () = assert!(
            $crate::is_metric_name($name),
            "metric names are dotted lowercase"
        );
        $crate::add_counter($name, $by)
    }};
}

/// Adds an amount to a monotonic counter. (No-op: `enabled` is off.)
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! counter_add {
    ($name:expr, $by:expr) => {{
        const _: () = assert!(
            $crate::is_metric_name($name),
            "metric names are dotted lowercase"
        );
        let _ = &$by;
    }};
}

/// Raises a peak gauge (the higher value wins).
///
/// ```
/// bds_trace::gauge!("bdd.peak_nodes", 1024u64);
/// ```
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {{
        const _: () = assert!(
            $crate::is_metric_name($name),
            "metric names are dotted lowercase"
        );
        $crate::set_gauge($name, $value)
    }};
}

/// Raises a peak gauge (the higher value wins). (No-op: `enabled` is off.)
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {{
        const _: () = assert!(
            $crate::is_metric_name($name),
            "metric names are dotted lowercase"
        );
        let _ = &$value;
    }};
}

/// Opens a hierarchical wall-clock span; bind the result so the guard
/// lives for the region being timed.
///
/// ```
/// let _span = bds_trace::span!("flow.decompose");
/// ```
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span_enter($name)
    };
}

/// Opens a span. (No-op: `enabled` is off — yields a [`crate::NoopSpan`].)
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        let _ = $name;
        $crate::NoopSpan
    }};
}

#[cfg(test)]
mod tests {
    use super::is_metric_name;

    #[test]
    fn metric_names_are_dotted_lowercase() {
        for good in "bdd.reorder.passes net.sweep.rewrites flow.jobs a1.b_2".split(' ') {
            assert!(is_metric_name(good), "{good}");
        }
        // The first four are the old metric-name rule's seeded violations.
        for bad in "Flow.Demo.Calls,peakbytes,bdd.demo..load,DemoChoice,,.bdd,bdd.,a.b c".split(',')
        {
            assert!(!is_metric_name(bad), "{bad:?}");
        }
    }
}
