//! In-tree observability for the BDS workspace: counters, gauges, log2
//! histograms, hierarchical wall-clock spans, and report sinks.
//!
//! The paper's evaluation (§V) is a table of per-phase costs — literals,
//! BDD sizes, CPU seconds — and every performance PR in this repo reports
//! against the same signals. `bds-trace` collects them without dragging in
//! external dependencies:
//!
//! * a **process-local registry** (one per thread) holding monotonic `u64`
//!   counters, peak gauges (the higher value wins), and latency histograms with fixed
//!   log2 buckets;
//! * **hierarchical spans** — `span!("flow.eliminate")` returns a guard
//!   that records wall-clock time into a call tree aggregated by
//!   `(parent, name)`;
//! * a **flight recorder** ([`journal`]) — a bounded ring buffer of
//!   time-ordered structured events (`event!` marks plus every span
//!   enter/exit), drained by [`take_journal`] and exported by
//!   [`export::perfetto_trace`] (Chrome/Perfetto trace-event JSON) and
//!   [`export::folded_stacks`] (flamegraph folded-stack text);
//! * **sinks** — [`Snapshot::render_tree`] for humans and
//!   [`Snapshot::to_json`] for `BENCH_*.json` reports, with a serde-free
//!   parser ([`json::parse`]) so reports can be diffed and compared by the
//!   bench `summary` tool;
//! * a **structural gate** ([`gate`]) — exact comparison of two report
//!   files' structural fields, shared by `bds-bench summary --compare`
//!   and `cargo xtask perfgate` (wall time is `flowbench/`'s job);
//! * a **deterministic sampling profiler** ([`profile`]) — effort-tick
//!   samples of the open span path + op class, byte-identical at any
//!   job count.
//!
//! # Feature gating
//!
//! The registry, snapshot, journal, and JSON machinery are always
//! compiled (tests and the bench harness drive them directly), but the
//! instrumentation macros — [`counter!`], [`counter_add!`], [`gauge!`],
//! [`histogram!`], [`span!`], [`event!`] — expand to no-ops unless the
//! `enabled` feature is on. Instrumented crates forward a `trace` feature
//! to `bds-trace/enabled`, so a default build pays nothing on its hot
//! paths.
//!
//! # Thread locality and the parallel drain protocol
//!
//! The registry and the journal are **thread-local**: each thread
//! accumulates into its own instance, so the hot path takes no locks and
//! parallel tests cannot contaminate each other. The flip side is that
//! [`take_snapshot`] and [`take_journal`] only see the calling thread's
//! data — metrics recorded on sibling threads are **silently absent**
//! from the result, not merged. Parallel phases (the sharded BDS flow's
//! worker threads) bridge the gap with the explicit drain/merge API:
//!
//! 1. each worker drains its own thread with [`take_snapshot`] /
//!    [`drain_into`] and [`take_journal`] before it exits,
//! 2. the coordinating thread folds the results back — in a **fixed
//!    worker order**, so the merged output is deterministic regardless
//!    of completion order — with [`Snapshot::merge`] /
//!    [`Journal::merge_by_time`], or re-injects them into its own live
//!    registry and ring with [`absorb_snapshot`] / [`absorb_journal`]
//!    (worker spans graft under the coordinator's open span; journal
//!    events keep their original thread ids and timestamps).
//!
//! Counters sum, gauges keep the maximum (every gauge here is a peak),
//! histograms add bucket-wise, and span trees merge by `(parent, name)`.
//!
//! # Example
//!
//! ```
//! bds_trace::reset();
//! {
//!     let _flow = bds_trace::span_enter("flow");
//!     let _phase = bds_trace::span_enter("flow.decompose");
//!     bds_trace::add_counter("decompose.and_dom", 3);
//! }
//! let snap = bds_trace::take_snapshot();
//! assert_eq!(snap.counter("decompose.and_dom"), Some(3));
//! let text = snap.to_json().render();
//! let back = bds_trace::json::parse(&text).unwrap();
//! assert_eq!(bds_trace::Snapshot::from_json(&back), Some(snap));
//! ```

#![warn(missing_docs)]
// Library lint policy outside unit tests (DESIGN.md §10); lists in `clippy.toml`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

/// Trace exporters: Perfetto trace-event JSON and folded flamegraph text.
pub mod export;
/// Structural gate: exact comparison of two report files.
pub mod gate;
/// Flight-recorder journal: bounded ring buffer of structured events.
pub mod journal;
/// Serde-free JSON value, renderer and parser for report files.
pub mod json;
mod macros;
/// Deterministic sampling profiler: effort-tick samples of span + op.
pub mod profile;
mod registry;
mod span;

pub use journal::{
    absorb_journal, clear_journal, journal_len, record_event, set_journal_capacity, take_journal,
    Event, EventKind, FieldValue, Journal, DEFAULT_JOURNAL_CAPACITY,
};
pub use macros::is_metric_name;
pub use registry::{
    absorb_snapshot, add_counter, counter_value, drain_into, record_histogram, restore_snapshot,
    set_gauge, span_depth, take_snapshot, take_snapshot_in_flight, Histogram, Snapshot, SpanSnap,
};
pub use span::{fmt_duration_ns, span_enter, NoopSpan, SpanGuard, Stopwatch};

/// Clears every metric on this thread — registry (counters, gauges,
/// histograms, spans), journal events and profiler samples alike. The
/// journal's timestamp epoch and ring capacity survive, so events
/// recorded after a reset still share one ordered timeline with earlier
/// drains.
pub fn reset() {
    registry::reset();
    journal::clear_journal();
    profile::clear_profile();
}

/// `true` when the crate was built with the `enabled` feature, i.e. the
/// instrumentation macros are live rather than no-ops.
#[must_use]
pub const fn is_enabled() -> bool {
    cfg!(feature = "enabled")
}
