//! The circuit sets the experiments run, each defined once.
//!
//! The `table1` and `table2` binaries and the digest suites under
//! `tests/` read these sets, so a digest pins exactly what a table
//! publishes. A suite that runs a subset or a union of them picks its
//! circuits by name, and its digest labels are the names given here.
//!
//! `flowbench/` builds outside this workspace and keeps its own copy of
//! three sets in its `workloads` module: `scale_arith` is [`scale`],
//! `global_bdd` is [`global_bdd`] and `sis_rugged` is [`table1`] at
//! [`Sizes::Full`]. A change to one of those sets needs the same change
//! there, which is a change of the benchmark.

use bds_network::Network;

use crate::adder::{carry_select_adder, ripple_adder};
use crate::alu::alu;
use crate::comparator::comparator;
use crate::ecc::hamming_encoder;
use crate::misc::{gray_to_bin, popcount};
use crate::multiplier::multiplier;
use crate::parity::parity_tree;
use crate::random_logic::{random_logic, RandomLogicParams};
use crate::shifter::{barrel_shifter, logical_shifter};

/// One circuit of a set.
pub struct Circuit {
    /// The name every table row and digest label uses.
    pub name: String,
    /// The paper circuit a Table I row stands in for; `-` elsewhere.
    pub stands_for: &'static str,
    /// The circuit.
    pub net: Network,
}

/// The sizes of the Table I set.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Sizes {
    /// The sizes Table I reports.
    Full,
    /// Half-size random logic, mult8 at 4×4 and shift32 at 16 bits: the
    /// `table1` binary's smoke-run set. The names stay the same.
    Fast,
}

/// [`random_logic`] with `inputs`, `outputs` and `nodes` and the default
/// fanin and cube limits: the random control logic of the sets.
#[must_use]
pub fn random_control(inputs: usize, outputs: usize, nodes: usize, seed: u64) -> Network {
    let params = RandomLogicParams {
        inputs,
        outputs,
        nodes,
        ..RandomLogicParams::default()
    };
    random_logic(&params, seed)
}

fn circuits<const N: usize>(list: [(&str, &'static str, Network); N]) -> Vec<Circuit> {
    list.into_iter()
        .map(|(name, stands_for, net)| Circuit {
            name: name.into(),
            stands_for,
            net,
        })
        .collect()
}

/// Table I: circuit-family stand-ins for the paper's LGSynth91 and
/// ISCAS'85 circuits, with the circuit each stands in for.
#[must_use]
pub fn table1(sizes: Sizes) -> Vec<Circuit> {
    let (k, shift) = match sizes {
        Sizes::Full => (2, 32),
        Sizes::Fast => (1, 16),
    };
    circuits([
        ("ctrl36", "C432", random_control(36, 7, 60 * k, 42)),
        ("ecc32", "C499", hamming_encoder(32)),
        ("ecc26", "C1355", hamming_encoder(26)),
        ("alu8", "C880", alu(8)),
        ("alu16", "C3540", alu(16)),
        ("csel16", "pair", carry_select_adder(16, 4)),
        ("cmp16", "rot", comparator(16)),
        ("mult8", "C6288", multiplier(4 * k, 4 * k)),
        ("ctrl20", "vda", random_control(20, 12, 50 * k, 7)),
        ("ctrl24", "dalu", random_control(24, 16, 60 * k, 13)),
        ("shift32", "-", barrel_shifter(shift)),
        ("parity16", "-", parity_tree(16)),
    ])
}

/// Table II: barrel shifters `bshiftN` from 16 bits and array
/// multipliers `mNxN` from 2×2, doubling up to `shift_max` bits and
/// `mult_max`×`mult_max`.
#[must_use]
pub fn table2(shift_max: usize, mult_max: usize) -> Vec<Circuit> {
    let shifters = std::iter::successors(Some(16), |w| Some(w * 2))
        .take_while(|&w| w <= shift_max)
        .map(|w| (format!("bshift{w}"), barrel_shifter(w)));
    let multipliers = std::iter::successors(Some(2), |n| Some(n * 2))
        .take_while(|&n| n <= mult_max)
        .map(|n| (format!("m{n}x{n}"), multiplier(n, n)));
    shifters
        .chain(multipliers)
        .map(|(name, net)| Circuit {
            name,
            stands_for: "-",
            net,
        })
        .collect()
}

/// Circuits of at most 64 inputs whose global BDDs fit, so the global
/// flow runs in full.
#[must_use]
pub fn global_bdd() -> Vec<Circuit> {
    circuits([
        ("bshift16", "-", barrel_shifter(16)),
        ("bshift32", "-", barrel_shifter(32)),
        ("alu8", "-", alu(8)),
        ("alu12", "-", alu(12)),
        ("parity32", "-", parity_tree(32)),
        ("cmp24", "-", comparator(24)),
        ("cmp32", "-", comparator(32)),
        ("lshift32", "-", logical_shifter(32)),
        ("popcount16", "-", popcount(16)),
        ("gray2bin32", "-", gray_to_bin(32)),
    ])
}

/// The scaling circuits the flow's wall time is measured on.
#[must_use]
pub fn scale() -> Vec<Circuit> {
    circuits([
        ("mult16", "-", multiplier(16, 16)),
        ("bshift128", "-", barrel_shifter(128)),
        ("adder128", "-", ripple_adder(128)),
    ])
}

/// [`global_bdd`], then the circuits of [`table1`] at full size that it
/// does not name.
#[must_use]
pub fn global_bdd_and_table1() -> Vec<Circuit> {
    let mut set = global_bdd();
    for c in table1(Sizes::Full) {
        if set.iter().all(|g| g.name != c.name) {
            set.push(c);
        }
    }
    set
}
