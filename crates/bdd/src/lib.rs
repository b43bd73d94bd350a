//! Reduced ordered binary decision diagrams with complement edges.
//!
//! This crate is the foundational substrate of the BDS reproduction: a
//! self-contained ROBDD package in the style of Brace–Rudell–Bryant
//! (`Efficient implementation of a BDD package`, DAC 1990), providing
//! everything the decomposition engine in the `bds` crate needs:
//!
//! * canonical ROBDDs with **complement edges** (only the else/0-edge may be
//!   complemented, matching the convention in the BDS paper §II-A),
//! * the `ITE` operator with a computed table, plus the derived Boolean
//!   connectives ([`Manager::and`], [`Manager::or`], [`Manager::xor`], …),
//! * cofactors, variable composition and existential/universal
//!   quantification,
//! * the **Coudert–Madre `restrict`** operator used by BDS for
//!   don't-care minimization during Boolean division (paper §III-B),
//! * Minato–Morreale **ISOP** extraction (irredundant sum-of-products) used
//!   when factoring-tree leaves are emitted as network nodes,
//! * structural queries (node counts, support, satisfy counts)
//!   that the dominator/cut analyses of the decomposition engine build on,
//! * **cross-manager transfer** — the paper's "BDD mapping" / `bddPool`
//!   mechanism (§IV-B) that re-homes BDDs into a fresh manager with a
//!   compacted variable range,
//! * **variable reordering** by sifting (§IV-C subjects every BDD to
//!   reordering before decomposition): candidate orders are sized by
//!   Rudell's adjacent level swaps on a private table, and the chosen
//!   order is rebuilt into a fresh manager,
//! * DOT export for debugging.
//!
//! # Example
//!
//! ```
//! use bds_bdd::Manager;
//!
//! # fn main() -> Result<(), bds_bdd::BddError> {
//! let mut m = Manager::new();
//! let a = m.new_var("a");
//! let b = m.new_var("b");
//! let fa = m.literal(a, true);
//! let fb = m.literal(b, true);
//! let f = m.and(fa, fb)?;        // f = a · b
//! let g = m.or(fa, fb)?;         // g = a + b
//! assert_ne!(f, g);
//! assert_eq!(m.and(f, g)?, f);   // absorption: (a·b)(a+b) = a·b
//! # Ok(())
//! # }
//! ```
//!
//! # Design notes
//!
//! Nodes live in a per-[`Manager`] arena and are identified by compact
//! 32-bit [`Edge`]s carrying a complement bit. The canonical-form invariants
//! are:
//!
//! 1. no node has identical then/else children,
//! 2. the then-edge (1-edge) is never complemented,
//! 3. structurally identical nodes are unique (hash-consed).
//!
//! Node references are bex-style packed *nids*: a 32-bit word holding
//! the arena index, a complement bit, and the constants inlined (see
//! [`Edge`]). The unique and computed tables key on single packed words
//! hashed by an in-tree wyhash/FNV-style function — no `SipHash`, no
//! external dependency — and `ite` queries are reduced to canonical
//! *standard triples* before the computed table is consulted (see the
//! `canon` module docs).
//!
//! Long-lived managers are kept clean the paper's way: by rebuilding
//! into a fresh manager ("BDD mapping", §IV-B), which
//! [`transfer::transfer`] implements directly and sifting uses for every
//! order it adopts. The rebuild holds only what is reachable from the
//! transferred roots, so the flow drops each build manager as soon as
//! sifting hands back its rebuild instead of collecting garbage in it.

#![warn(missing_docs)]
// Library lint policy outside unit tests (DESIGN.md §10); lists in `clippy.toml`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), deny(clippy::cast_precision_loss))]

mod apply;
/// Deterministic effort budgets and fault injection.
pub mod budget;
mod canon;
mod cofactor;
mod count;
mod cube;
mod dot;
mod edge;
mod error;
mod hash;
mod invariants;
mod isop;
/// Seeded lint-policy violations; compiled only under clippy.
#[cfg(clippy)]
pub mod lint_canary;
mod manager;
mod nid;
/// Variable reordering: sifting, explicit reorder and exact search.
pub mod reorder;
mod restrict;
mod stats;
mod swap;
/// Cross-manager BDD transfer (rebuild under a new variable order).
pub mod transfer;

pub use budget::Fault;
pub use canon::IteNorm;
pub use cube::Cube;
pub use edge::{Edge, Var};
pub use error::{BddError, OpClass};
pub use invariants::STRICT_CHECKS;
pub use manager::Manager;
pub use stats::{OpStats, TableStats};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, BddError>;
