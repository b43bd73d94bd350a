//! In-tree observability for the BDS workspace: counters, gauges, log2
//! histograms, hierarchical wall-clock spans, and report sinks.
//!
//! The paper's evaluation (§V) is a table of per-phase costs — literals,
//! BDD sizes, CPU seconds — and every performance PR in this repo reports
//! against the same signals. `bds-trace` collects them without dragging in
//! external dependencies:
//!
//! * a **registry** (one per thread) holding monotonic `u64` counters,
//!   peak gauges (the higher value wins), and latency histograms with
//!   fixed log2 buckets;
//! * **hierarchical spans** — `span!("flow.eliminate")` returns a guard
//!   that records wall-clock time into a call tree aggregated by
//!   `(parent, name)`;
//! * a **flight recorder** ([`journal`]) — a bounded ring buffer of
//!   time-ordered structured events (`event!` marks plus every span
//!   enter/exit), exported by [`export::perfetto_trace`]
//!   (Chrome/Perfetto trace-event JSON) and [`export::folded_stacks`]
//!   (flamegraph folded-stack text);
//! * a **deterministic sampling profiler** ([`profile`]) — effort-tick
//!   samples of the open span path + op class, byte-identical at any
//!   job count;
//! * **sinks** — [`Snapshot::render_tree`] for humans and
//!   [`Snapshot::to_json`] for `BENCH_*.json` reports, with a serde-free
//!   parser ([`json::parse`]) so reports can be diffed and compared by the
//!   bench `summary` tool;
//! * a **structural gate** ([`gate`]) — exact comparison of two report
//!   files' structural fields, shared by `bds-bench summary --compare`
//!   and `cargo xtask perfgate` (wall time is `flowbench/`'s job).
//!
//! # Feature gating
//!
//! The store, snapshot, journal, and JSON machinery are always compiled
//! (tests and the bench harness drive them directly), but the
//! instrumentation macros — [`counter!`], [`counter_add!`], [`gauge!`],
//! [`histogram!`], [`span!`], [`event!`] — expand to no-ops unless the
//! `enabled` feature is on. Instrumented crates forward a `trace` feature
//! to `bds-trace/enabled`, so a default build pays nothing on its hot
//! paths.
//!
//! # One thread-local store
//!
//! Registry, journal and profile live together in one **thread-local**
//! store: each thread accumulates into its own, so the hot path takes no
//! locks and parallel tests cannot contaminate each other. What another
//! thread records is absent here until it is moved over. Four calls move
//! a store's contents, each in one piece:
//!
//! * [`take`] drains the calling thread into a [`Trace`] (snapshot,
//!   journal, profile). Workers call it before exiting; the bench
//!   harness calls it once per circuit.
//! * [`absorb`] merges a [`Trace`] into the live store under the
//!   innermost open span: worker span roots and profile stacks graft
//!   there, journal events keep their thread ids and timestamps. The
//!   coordinator absorbs worker traces in a **fixed worker order**, so
//!   the merged trace does not depend on thread scheduling.
//! * [`set_aside`] moves the live store out and reopens the chain of
//!   open spans in a fresh one, in O(open depth).
//! * [`rejoin`] swaps the saved store back and, only when told to keep
//!   it, merges what was recorded in between at root level — in
//!   O(recorded). The flow's panic quarantine brackets each supernode
//!   attempt with this pair and keeps the attempt only if it did not
//!   panic.
//!
//! Counters sum, gauges keep the maximum (every gauge here is a peak),
//! histograms add bucket-wise, and span trees merge by `(parent, name)`.
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
//! assert_eq!(trace.snapshot.counter("decompose.and_dom"), Some(3));
//! assert_eq!(trace.snapshot.spans[0].children[0].name, "flow.decompose");
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
mod store;

pub use journal::{record_event, Event, EventKind, FieldValue, Journal, DEFAULT_JOURNAL_CAPACITY};
pub use macros::is_metric_name;
pub use registry::{
    add_counter, record_histogram, set_gauge, span_depth, take_snapshot, Histogram, Snapshot,
    SpanSnap,
};
pub use span::{fmt_duration_ns, span_enter, NoopSpan, SpanGuard, Stopwatch};
pub use store::{absorb, rejoin, reset, set_aside, take, Aside, Trace};

/// `true` when the crate was built with the `enabled` feature, i.e. the
/// instrumentation macros are live rather than no-ops.
#[must_use]
pub const fn is_enabled() -> bool {
    cfg!(feature = "enabled")
}
