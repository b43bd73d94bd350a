//! Tree-covering technology mapper.
//!
//! The paper's evaluation maps every synthesized circuit "onto
//! mcnc.genlib" with the SIS tree-based mapper (§V). This crate
//! reproduces that methodology:
//!
//! * [`library`] — a genlib-style cell library with NAND/INV tree
//!   patterns; [`Library::mcnc`](library::Library::mcnc) is a built-in
//!   library in the spirit of `mcnc.genlib` (INV/NAND/NOR/AND/OR 2–4,
//!   AOI/OAI, XOR/XNOR, MUX),
//! * [`subject`] — technology decomposition of a Boolean network into a
//!   structurally-hashed subject graph of NAND2/INV nodes (with XOR/MUX
//!   shapes canonicalized so the tree mapper *can* preserve explicit
//!   XORs — and loses the multi-fanout ones, exactly the behaviour the
//!   paper reports for the SIS mapper),
//! * [`cover`] — dynamic-programming tree covering minimizing area, with
//!   a unit + per-gate delay model for critical-path reporting.
//!
//! # Example
//!
//! ```
//! use bds_map::{map_network, Library};
//! use bds_network::blif;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = blif::parse(".model m\n.inputs a b c\n.outputs f\n.names a b c f\n11- 1\n--1 1\n.end\n")?;
//! let mapped = map_network(&net, &Library::mcnc())?;
//! assert!(mapped.area > 0.0);
//! assert!(mapped.gate_count >= 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// Library lint policy outside unit tests (DESIGN.md §10); lists in `clippy.toml`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod cover;
pub mod genlib;
pub mod library;
pub mod lut;
pub mod subject;

pub use cover::{map_network, map_network_delay, MapGoal, MappedNetlist};
pub use genlib::parse_genlib;
pub use library::Library;
pub use lut::{map_network_luts, LutNetlist};
pub use subject::Subject;
