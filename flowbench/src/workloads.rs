//! The three workloads: which circuits each one optimizes, and why.

use bds_circuits::adder::{carry_select_adder, ripple_adder};
use bds_circuits::alu::alu;
use bds_circuits::comparator::comparator;
use bds_circuits::ecc::hamming_encoder;
use bds_circuits::misc::{gray_to_bin, popcount};
use bds_circuits::multiplier::multiplier;
use bds_circuits::parity::parity_tree;
use bds_circuits::random_logic::{random_logic, RandomLogicParams};
use bds_circuits::shifter::{barrel_shifter, logical_shifter};
use bds_network::Network;

use crate::measure::splitmix64;

/// A named circuit list and the flow that optimizes it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The scaling families at the sizes the paper's Table II argument
    /// rests on. Partitioned mode; the network layer (sweep, eliminate)
    /// does most of the work and the BDD engine only a few percent.
    ScaleArith,
    /// Circuits with at most 64 inputs and feasible global BDDs, so
    /// `optimize_global` runs in full: the BDD engine (ITE build,
    /// sifting, decomposition) dominates.
    GlobalBdd,
    /// The Table I circuit set through the SIS-style `script_rugged`
    /// baseline: literal-cost eliminate plus many node replacements from
    /// kernel extraction and resubstitution on the same network code.
    SisRugged,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "scale_arith" => Some(Workload::ScaleArith),
            "global_bdd" => Some(Workload::GlobalBdd),
            "sis_rugged" => Some(Workload::SisRugged),
            _ => None,
        }
    }

    /// Whether this workload runs the SIS-style baseline instead of BDS.
    pub fn is_sis(self) -> bool {
        self == Workload::SisRugged
    }

    /// Generates the workload's circuits in canonical order. They do not
    /// depend on the seed, so the quality totals are the same on every
    /// run and their medians are always values a run produced.
    pub fn circuits(self) -> Vec<(&'static str, Network)> {
        match self {
            Workload::ScaleArith => vec![
                ("mult16", multiplier(16, 16)),
                ("bshift128", barrel_shifter(128)),
                ("adder128", ripple_adder(128)),
            ],
            Workload::GlobalBdd => vec![
                ("bshift16", barrel_shifter(16)),
                ("bshift32", barrel_shifter(32)),
                ("alu8", alu(8)),
                ("alu12", alu(12)),
                ("parity32", parity_tree(32)),
                ("cmp24", comparator(24)),
                ("cmp32", comparator(32)),
                ("lshift32", logical_shifter(32)),
                ("popcount16", popcount(16)),
                ("gray2bin32", gray_to_bin(32)),
            ],
            // `table1`'s full-size workload list, random members included
            // with `table1`'s own seeds.
            Workload::SisRugged => {
                let rl = |inputs, outputs, nodes, seed| {
                    let params = RandomLogicParams {
                        inputs,
                        outputs,
                        nodes,
                        ..RandomLogicParams::default()
                    };
                    random_logic(&params, seed)
                };
                vec![
                    ("ctrl36", rl(36, 7, 120, 42)),
                    ("ecc32", hamming_encoder(32)),
                    ("ecc26", hamming_encoder(26)),
                    ("alu8", alu(8)),
                    ("alu16", alu(16)),
                    ("csel16", carry_select_adder(16, 4)),
                    ("cmp16", comparator(16)),
                    ("mult8", multiplier(8, 8)),
                    ("ctrl20", rl(20, 12, 100, 7)),
                    ("ctrl24", rl(24, 16, 120, 13)),
                    ("shift32", barrel_shifter(32)),
                    ("parity16", parity_tree(16)),
                ]
            }
        }
    }
}

/// The order in which one repetition visits the circuits: a Fisher–Yates
/// shuffle of `0..n` drawn from the workload seed, so each seed runs the
/// calls in a different sequence of allocator and cache states. Results
/// are always totalled in canonical order.
pub fn visit_order(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = splitmix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visit_order_is_a_seeded_permutation() {
        let a = visit_order(7, 12);
        assert_eq!(a, visit_order(7, 12));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
        assert!((0..20).any(|s| visit_order(s, 12) != a));
    }
}
