//! Umbrella crate for the BDS reproduction workspace.
//!
//! Re-exports every workspace crate under one roof so examples and
//! downstream users can depend on a single crate:
//!
//! * [`bdd`] — the ROBDD package (complement edges, ITE, restrict,
//!   reordering, transfer),
//! * [`sop`] — cube/SOP algebra (kernels, algebraic division, factoring),
//! * [`network`] — multi-level Boolean networks with BLIF I/O, sweep,
//!   eliminate and equivalence checking,
//! * [`core`] — the BDS decomposition engine and synthesis flows,
//! * [`map`] — the tree-covering technology mapper,
//! * [`circuits`] — benchmark circuit generators.
//!
//! See `README.md` for a tour and `examples/` for runnable entry points.

// Library lint policy outside unit tests (DESIGN.md §10); lists in `clippy.toml`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub use bds as core;
pub use bds_bdd as bdd;
pub use bds_circuits as circuits;
pub use bds_map as map;
pub use bds_network as network;
pub use bds_sop as sop;
