//! Combinational equivalence checking.
//!
//! The paper verified every synthesis result against the original
//! specification by building global BDDs (§V: "all the results produced by
//! BDS … were independently verified w.r.t. the original specification").
//! [`verify`] does the same: both networks' outputs are built in one
//! manager over shared input variables and compared edge-for-edge. For
//! circuits whose global BDDs blow up (the paper could not verify the
//! C6288 multiplier either),
//! [`verify_by_simulation`](crate::verify::verify_by_simulation)
//! provides a randomized smoke check.
//! [`equivalence`](crate::verify::equivalence) is the experiments' rule
//! that combines the two.

use std::collections::HashMap;

use bds_bdd::{Manager, Var};

use crate::error::NetworkError;
use crate::network::{Network, SignalId};
use crate::Result;

/// Outcome of a BDD-based equivalence check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// All outputs proved equal.
    Equivalent,
    /// A named output differs.
    Inequivalent {
        /// Name of the first differing output.
        output: String,
    },
}

/// Proves or refutes equivalence of two networks with matching interface
/// names by comparing global BDDs in a shared manager.
///
/// # Errors
/// [`NetworkError::Inconsistent`] when the interfaces differ;
/// [`NetworkError::Bdd`] when the global BDDs exceed `node_limit`
/// (inconclusive — fall back to [`verify_by_simulation`]).
pub fn verify(a: &Network, b: &Network, node_limit: usize) -> Result<Verdict> {
    let _span = bds_trace::span!("net.verify");
    let a_in: Vec<&str> = a.inputs().iter().map(|&s| a.signal_name(s)).collect();
    let b_in: Vec<&str> = b.inputs().iter().map(|&s| b.signal_name(s)).collect();
    {
        let mut asort = a_in.clone();
        let mut bsort = b_in.clone();
        asort.sort_unstable();
        bsort.sort_unstable();
        if asort != bsort {
            return Err(NetworkError::Inconsistent {
                detail: "primary input names differ".into(),
            });
        }
    }
    let a_out: Vec<&str> = a.outputs().iter().map(|&s| a.signal_name(s)).collect();
    let b_out: Vec<&str> = b.outputs().iter().map(|&s| b.signal_name(s)).collect();
    {
        let mut asort = a_out.clone();
        let mut bsort = b_out.clone();
        asort.sort_unstable();
        bsort.sort_unstable();
        if asort != bsort {
            return Err(NetworkError::Inconsistent {
                detail: "primary output names differ".into(),
            });
        }
    }

    let mut mgr = Manager::with_node_limit(node_limit);
    // Shared variables keyed by input name, ordered by a's static order.
    let mut var_by_name: HashMap<String, Var> = HashMap::new();
    let mut a_vars: HashMap<SignalId, Var> = HashMap::new();
    for sig in a.static_input_order() {
        let v = mgr.new_var(a.signal_name(sig));
        var_by_name.insert(a.signal_name(sig).to_string(), v);
        a_vars.insert(sig, v);
    }
    let mut b_vars: HashMap<SignalId, Var> = HashMap::new();
    for &sig in b.inputs() {
        b_vars.insert(sig, var_by_name[b.signal_name(sig)]);
    }
    let a_edges = a.global_bdds_in(&mut mgr, &a_vars)?;
    let b_edges = b.global_bdds_in(&mut mgr, &b_vars)?;
    let b_by_name: HashMap<&str, bds_bdd::Edge> = b_out.iter().copied().zip(b_edges).collect();
    for (name, ea) in a_out.iter().zip(a_edges) {
        if b_by_name[name] != ea {
            return Ok(Verdict::Inequivalent {
                output: (*name).to_string(),
            });
        }
    }
    Ok(Verdict::Equivalent)
}

/// Randomized simulation check: `rounds` random input vectors from a
/// deterministic xorshift generator seeded with `seed`. Never proves
/// equivalence, only refutes it — the fallback the paper used in spirit
/// for C6288 ("we verify each step of the elimination process").
///
/// # Errors
/// [`NetworkError::Inconsistent`] when the interfaces differ: the input
/// counts or names, or the output names.
pub fn verify_by_simulation(a: &Network, b: &Network, rounds: usize, seed: u64) -> Result<Verdict> {
    let _span = bds_trace::span!("net.verify");
    if a.inputs().len() != b.inputs().len() {
        return Err(NetworkError::Inconsistent {
            detail: "input counts differ".into(),
        });
    }
    // Map b's inputs/outputs by name.
    let mut b_input_pos: HashMap<&str, usize> = HashMap::new();
    for (i, &s) in b.inputs().iter().enumerate() {
        b_input_pos.insert(b.signal_name(s), i);
    }
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let b_out_pos: HashMap<&str, usize> = b
        .outputs()
        .iter()
        .enumerate()
        .map(|(i, &s)| (b.signal_name(s), i))
        .collect();
    // Position in `b` of each of `a`'s outputs. Output names are unique
    // within a network, so equal counts and every name found mean equal
    // output sets.
    let out_pos: Vec<usize> = a
        .outputs()
        .iter()
        .filter_map(|&o| b_out_pos.get(a.signal_name(o)).copied())
        .collect();
    if out_pos.len() != a.outputs().len() || out_pos.len() != b.outputs().len() {
        return Err(NetworkError::Inconsistent {
            detail: "primary output names differ".into(),
        });
    }
    for _ in 0..rounds {
        let mut a_assign = vec![false; a.inputs().len()];
        let mut b_assign = vec![false; b.inputs().len()];
        for (i, &sig) in a.inputs().iter().enumerate() {
            let bit = next() & 1 == 1;
            a_assign[i] = bit;
            let name = a.signal_name(sig);
            let Some(&bp) = b_input_pos.get(name) else {
                return Err(NetworkError::Inconsistent {
                    detail: format!("input `{name}` missing in second network"),
                });
            };
            b_assign[bp] = bit;
        }
        let ra = a.eval(&a_assign)?;
        let rb = b.eval(&b_assign)?;
        for ((&oa, &va), &bp) in a.outputs().iter().zip(&ra).zip(&out_pos) {
            if va != rb[bp] {
                return Ok(Verdict::Inequivalent {
                    output: a.signal_name(oa).to_string(),
                });
            }
        }
    }
    Ok(Verdict::Equivalent)
}

/// Which check decided an [`equivalence`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Check {
    /// [`verify`] compared the global BDDs.
    Bdd,
    /// The global BDDs did not fit, so [`verify_by_simulation`] decided.
    Simulation,
}

impl Check {
    /// `bdd` or `sim`, as the tables print it.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Check::Bdd => "bdd",
            Check::Simulation => "sim",
        }
    }
}

/// The experiments' equivalence rule: [`verify`] within 2,000,000 BDD
/// nodes, and when that cannot decide, 512 rounds of
/// [`verify_by_simulation`] with seed `0xB5D5`. Returns the verdict and
/// the check that gave it.
///
/// # Errors
/// [`NetworkError::Inconsistent`] when the interfaces differ.
pub fn equivalence(a: &Network, b: &Network) -> Result<(Verdict, Check)> {
    match verify(a, b, 2_000_000) {
        Ok(verdict) => Ok((verdict, Check::Bdd)),
        Err(_) => Ok((verify_by_simulation(a, b, 512, 0xB5D5)?, Check::Simulation)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_sop::{Cover, Cube};

    fn xor_via_muxes() -> Network {
        // f = a·b̄ + ā·b as one node.
        let mut n = Network::new("x1");
        let a = n.add_input("a").unwrap();
        let b = n.add_input("b").unwrap();
        let cover = Cover::from_cubes(vec![
            Cube::parse(&[(0, true), (1, false)]),
            Cube::parse(&[(0, false), (1, true)]),
        ]);
        let f = n.add_node("f", vec![a, b], cover).unwrap();
        n.mark_output(f).unwrap();
        n
    }

    fn xor_via_gates() -> Network {
        // Same function, structurally different: f = (a+b)·!(a·b).
        let mut n = Network::new("x2");
        let a = n.add_input("a").unwrap();
        let b = n.add_input("b").unwrap();
        let or = Cover::from_cubes(vec![Cube::lit(0, true), Cube::lit(1, true)]);
        let nand = Cover::from_cubes(vec![Cube::lit(0, false), Cube::lit(1, false)]);
        let and = Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])]);
        let g1 = n.add_node("g1", vec![a, b], or).unwrap();
        let g2 = n.add_node("g2", vec![a, b], nand).unwrap();
        let f = n.add_node("f", vec![g1, g2], and).unwrap();
        n.mark_output(f).unwrap();
        n
    }

    #[test]
    fn equivalent_networks_verify() {
        let a = xor_via_muxes();
        let b = xor_via_gates();
        assert_eq!(verify(&a, &b, 10_000).unwrap(), Verdict::Equivalent);
        assert_eq!(
            verify_by_simulation(&a, &b, 64, 42).unwrap(),
            Verdict::Equivalent
        );
    }

    #[test]
    fn inequivalent_networks_refuted() {
        let a = xor_via_muxes();
        let mut b = xor_via_gates();
        // Corrupt b: make f an AND instead.
        let f = b.signal_id("f").unwrap();
        let (fanins, _) = b.node(f).unwrap();
        let fanins = fanins.to_vec();
        let and = Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, false)])]);
        b.replace_node(f, fanins, and).unwrap();
        assert!(matches!(
            verify(&a, &b, 10_000).unwrap(),
            Verdict::Inequivalent { .. }
        ));
        assert!(matches!(
            verify_by_simulation(&a, &b, 256, 7).unwrap(),
            Verdict::Inequivalent { .. }
        ));
    }

    #[test]
    fn interface_mismatch_is_an_error() {
        let a = xor_via_muxes();
        let mut c = Network::new("c");
        c.add_input("a").unwrap();
        assert!(verify(&a, &c, 1000).is_err());
    }

    #[test]
    fn extra_output_in_second_network_is_an_error() {
        let a = xor_via_muxes();
        let mut b = xor_via_gates();
        let g1 = b.signal_id("g1").unwrap();
        b.mark_output(g1).unwrap();
        assert!(matches!(
            verify(&a, &b, 10_000),
            Err(NetworkError::Inconsistent { .. })
        ));
        for (x, y) in [(&a, &b), (&b, &a)] {
            assert!(matches!(
                verify_by_simulation(x, y, 64, 42),
                Err(NetworkError::Inconsistent { .. })
            ));
        }
    }
}
