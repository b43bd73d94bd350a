//! The tree mapper as it was before covering stopped allocating and
//! technology decomposition began planning each distinct cover once,
//! kept as the reference for the differential test in
//! `tests/mapper_differential.rs`.
//!
//! `subject.rs` and `cover.rs` are the old `bds_map::subject` and
//! `bds_map::cover` verbatim, minus their unit tests and the public
//! helpers nothing here calls. Every subject node tries every library
//! gate with a fresh 8-slot binding cloned at each NAND it backtracks
//! through, keeps its best choice as an owned leaf list, and selects
//! through hash tables; every network node re-runs XOR/XNOR/MUX
//! recognition and algebraic factoring.
//!
//! It lives in the test tree and is compiled only into the tests that
//! declare `mod reference_mapper;`, so library code cannot reach it.

mod cover;
mod subject;

pub use cover::{map_subject_with, MapGoal};
pub use subject::Subject;
