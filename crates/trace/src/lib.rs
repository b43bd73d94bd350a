//! In-tree observability for the BDS workspace: counters, gauges,
//! hierarchical wall-clock spans, and report sinks.
//!
//! The paper's evaluation (§V) is a table of per-phase costs — literals,
//! BDD sizes, CPU seconds — and every performance PR in this repo reports
//! against the same signals. `bds-trace` collects them without dragging in
//! external dependencies:
//!
//! * a **registry** (one per thread) holding monotonic `u64` counters
//!   and peak gauges (the higher value wins);
//! * **hierarchical spans** — `span!("flow.eliminate")` returns a guard
//!   that records wall-clock time into a call tree aggregated by
//!   `(parent, name)`;
//! * **sinks** — [`Snapshot::render_tree`] for humans,
//!   [`Snapshot::folded`] for flamegraph tools and [`Snapshot::to_json`]
//!   for `BENCH_*.json` reports, written by a serde-free renderer
//!   ([`json::Json::render`]).
//!
//! # Feature gating
//!
//! The registry, snapshot and JSON machinery are always compiled (tests
//! and the bench harness drive them directly), but the instrumentation
//! macros — [`counter!`], [`counter_add!`], [`gauge!`], [`span!`] —
//! expand to no-ops unless the `enabled` feature is on.
//! Instrumented crates forward a `trace` feature to `bds-trace/enabled`,
//! so a default build pays nothing on its hot paths.
//!
//! # One thread-local registry
//!
//! Each thread records into its own **thread-local** registry, so the
//! hot path takes no locks and parallel tests cannot contaminate each
//! other. What another thread records is absent here until it is moved
//! over. Two calls move a registry's contents, each in one piece:
//!
//! * [`take`] drains the calling thread into a [`Snapshot`]. Workers
//!   call it before exiting; the bench harness calls it once per
//!   circuit.
//! * [`absorb`] merges a [`Snapshot`] into the live registry under the
//!   innermost open span: worker span roots graft there. The
//!   coordinator absorbs worker snapshots in a **fixed worker order**,
//!   so the merged trace does not depend on thread scheduling.
//!
//! Counters sum, gauges keep the maximum (every gauge here is a peak),
//! and span trees merge by `(parent, name)`.
//!
//! # Example
//!
//! ```
//! bds_trace::reset();
//! let worker = std::thread::spawn(|| {
//!     let phase = bds_trace::span_enter("flow.decompose");
//!     bds_trace::add_counter("decompose.and_dom", 3);
//!     drop(phase);
//!     bds_trace::take()
//! })
//! .join()
//! .unwrap();
//! {
//!     let _flow = bds_trace::span_enter("flow");
//!     bds_trace::absorb(worker);
//! }
//! let trace = bds_trace::take();
//! assert_eq!(trace.counter("decompose.and_dom"), Some(3));
//! assert_eq!(trace.spans[0].children[0].name, "flow.decompose");
//! ```

#![warn(missing_docs)]
// Library lint policy outside unit tests (DESIGN.md §10); lists in `clippy.toml`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

mod export;
/// Serde-free JSON value and renderer for report files.
pub mod json;
mod macros;
mod registry;
mod span;
mod store;

pub use macros::is_metric_name;
pub use registry::{add_counter, set_gauge, span_depth, Snapshot, SpanSnap};
pub use span::{fmt_duration_ns, span_enter, NoopSpan, SpanGuard, Stopwatch};
pub use store::{absorb, reset, take};

/// `true` when the crate was built with the `enabled` feature, i.e. the
/// instrumentation macros are live rather than no-ops.
#[must_use]
pub const fn is_enabled() -> bool {
    cfg!(feature = "enabled")
}
