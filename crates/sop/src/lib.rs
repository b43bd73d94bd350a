//! Cube / sum-of-products algebra.
//!
//! This crate is the substrate for the **algebraic baseline** of the BDS
//! reproduction: the paper (§V) compares BDS against SIS running
//! `script.rugged`, whose engine is cube-based algebraic factorization
//! (Brayton–McMullen kernels, weak division). Everything needed for a
//! faithful baseline is here:
//!
//! * [`Cube`] — product terms as sorted literal lists,
//! * [`Cover`] — sums of cubes with containment/merging simplification,
//! * algebraic (weak) [division](division::divide),
//! * [kernel/co-kernel enumeration](kernel::kernels),
//! * recursive [algebraic factoring](factor::factor) into expression
//!   trees with literal counting,
//! * a light two-level [simplify](Cover::simplify) (single-cube
//!   containment + distance-1 merging), standing in for espresso-style
//!   simplification.
//!
//! Variables are plain `u32` indices; the `bds-network` crate bridges them
//! to named network signals.
//!
//! # Example
//!
//! ```
//! use bds_sop::{Cover, Cube, factor::factor};
//!
//! // F = ab + ac + ad  →  a(b + c + d): 4 literals instead of 6.
//! let f = Cover::from_cubes(vec![
//!     Cube::parse(&[(0, true), (1, true)]),
//!     Cube::parse(&[(0, true), (2, true)]),
//!     Cube::parse(&[(0, true), (3, true)]),
//! ]);
//! let e = factor(&f);
//! assert_eq!(e.literal_count(), 4);
//! ```

#![warn(missing_docs)]
// Library lint policy outside unit tests (DESIGN.md §10); lists in `clippy.toml`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

mod cover;
mod cube;
pub mod division;
pub mod expr;
pub mod factor;
pub mod kernel;

pub use cover::Cover;
pub use cube::{Cube, Lit};
pub use expr::Expr;
