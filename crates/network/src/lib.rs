//! Multi-level Boolean networks.
//!
//! A Boolean network is a DAG whose internal nodes carry local functions
//! (stored as sum-of-products [`bds_sop::Cover`]s over their fanins) —
//! exactly the representation the BDS paper starts from (§II-A): "various
//! Boolean network presentations differ mainly in the way they represent
//! local functions". This crate provides the network plumbing shared by
//! the BDS flow and the algebraic baseline:
//!
//! * the [`Network`] DAG with named signals, primary inputs/outputs and
//!   structural queries (topological order, fanout, levels),
//! * **BLIF** reading/writing ([`blif`]) — the interchange format of the
//!   original evaluation (MCNC benchmarks are BLIF files),
//! * [`sweep`](Network::sweep) — constant propagation, buffer/inverter
//!   collapsing and removal of functionally-equivalent duplicate nodes
//!   (paper §IV-A: "removal of functionally duplicated nodes at this
//!   initial stage significantly improves runtime"),
//! * [`eliminate`](Network::eliminate) — iterative partial collapse into
//!   supernodes costed in **BDD nodes** (paper §IV-B), which is BDS's
//!   network partitioning,
//! * global-BDD construction and combinational equivalence
//!   [`verify`](verify::verify) (how the paper checked all results, §V),
//! * simulation and statistics.
//!
//! # Example
//!
//! ```
//! use bds_network::Network;
//! use bds_sop::{Cover, Cube};
//!
//! # fn main() -> Result<(), bds_network::NetworkError> {
//! let mut net = Network::new("demo");
//! let a = net.add_input("a")?;
//! let b = net.add_input("b")?;
//! // f = a·b  (cover variables index the fanin list)
//! let cover = Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])]);
//! let f = net.add_node("f", vec![a, b], cover)?;
//! net.mark_output(f)?;
//! assert_eq!(net.eval(&[true, true])?, vec![true]);
//! assert_eq!(net.eval(&[true, false])?, vec![false]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// Library lint policy outside unit tests (DESIGN.md §10); lists in `clippy.toml`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), deny(clippy::cast_precision_loss))]

/// BLIF reading and writing.
pub mod blif;
mod dot;
mod eliminate;
mod error;
mod global;
mod invariants;
mod network;
mod stats;
mod sweep;
/// BDD-based combinational equivalence checking.
pub mod verify;

pub use eliminate::{EliminateCost, EliminateParams};
pub use error::NetworkError;
pub use invariants::STRICT_CHECKS;
pub use network::{Network, SignalId};
pub use stats::NetworkStats;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NetworkError>;
