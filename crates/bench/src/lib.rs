//! Benchmark harnesses for the BDS reproduction.
//!
//! The runnable entry points live in [`bins`] — thin `src/bin/` shims in
//! the workspace root package call into them, so every experiment is
//! `cargo run --release --bin <name>` (optionally `--features trace` for
//! live instrumentation and populated `--json` reports). [`harness`]
//! runs both flows and assembles comparison rows, and [`report`]
//! serializes them. Wall-time measurement lives in the stand-alone
//! `flowbench/` benchmark.
// Library lint policy outside unit tests (DESIGN.md §10); lists in `clippy.toml`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
pub mod bins;
pub mod harness;
pub mod report;
