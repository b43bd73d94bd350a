//! Core BDS decomposition engine (modules assembled incrementally).
// Library lint policy outside unit tests (DESIGN.md §10); lists in `clippy.toml`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), deny(clippy::cast_precision_loss))]

pub mod decompose;
pub mod dominators;
pub mod factor_tree;
pub mod flow;
pub mod gendom;
pub mod lifted;
pub mod mux;
pub mod sdc;
pub mod sharing;
pub mod sis_flow;
pub mod xor_decomp;
