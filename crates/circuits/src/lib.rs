//! Benchmark circuit generators for the BDS reproduction.
//!
//! The paper evaluates on MCNC/ISCAS'85 BLIF files plus a set of
//! arithmetic circuits produced by "a proprietary HDL-to-blif translator"
//! (`bshiftN` barrel shifters and `mNxN` array multipliers, Table II).
//! Those files are not redistributable, so this crate regenerates the
//! same circuit *families* structurally (see `DESIGN.md` §3 for the
//! substitution argument):
//!
//! * [`shifter::barrel_shifter`] — the `bshift16…512` workloads,
//! * [`multiplier::multiplier`] — the `m2x2…m64x64` workloads
//!   (`m16x16` doubles as the C6288 stand-in),
//! * [`adder`] — ripple-carry and carry-select adders (XOR-intensive
//!   class),
//! * [`parity::parity_tree`] — pure XOR trees,
//! * [`ecc::hamming_encoder`] — the C499/C1355 error-correcting class,
//! * [`alu::alu`] — the C880/dalu ALU class,
//! * [`comparator::comparator`] — wide comparators,
//! * [`random_logic::random_logic`] — seeded AND/OR-intensive control
//!   logic (the paper's "random logic" class),
//! * [`figures`] — the exact worked functions of the paper's Figures
//!   1–11 as reusable constructions,
//! * [`misc`] — carry-lookahead adders, decoders, priority encoders,
//!   population counters and Gray-code converters for wider suites,
//! * [`suites`] — the circuit sets each experiment and digest suite
//!   runs (Tables I and II, the global-BDD and scaling sets).
//!
//! Everything is produced as a [`bds_network::Network`], so real MCNC
//! BLIF files can be swapped in via [`bds_network::blif::parse`]
//! unchanged.

#![warn(missing_docs)]
// Library lint policy outside unit tests (DESIGN.md §10); lists in `clippy.toml`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod adder;
pub mod alu;
mod builder;
pub mod comparator;
pub mod ecc;
pub mod figures;
pub mod misc;
pub mod multiplier;
pub mod parity;
pub mod random_logic;
pub mod shifter;
pub mod suites;

pub use builder::Builder;
