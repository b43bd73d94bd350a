//! Satisfiability-don't-care simplification — the paper's future-work
//! item 1 (§VI): "BDD-based logic minimization with satisfiability don't
//! cares, similar to full_simplify of SIS, should be developed to improve
//! the area performance of BDS."
//!
//! For a node `f(y₁…y_k)` whose fanins compute `gᵢ(x)` over a bounded
//! window of primary-input-side signals `x`, the reachable fanin
//! combinations form the *care set*
//! `C(y) = ∃x ∧ᵢ (yᵢ ⊙ gᵢ(x))`; combinations outside `C` can never occur
//! and are free don't-cares. The node function is minimized against `C`
//! with the Coudert–Madre `restrict` — the same operator the
//! decomposition engine uses — and re-expressed as an ISOP cover when
//! that shrinks it.

use std::collections::HashMap;

use bds_bdd::{Edge, Manager, Var};
use bds_network::{Network, NetworkError, SignalId};
use bds_sop::{Cover, Cube};

/// Tuning knobs for [`sdc_simplify`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SdcParams {
    /// Skip nodes whose fanin support window exceeds this many signals
    /// (the window BDD is exponential in it).
    pub max_window: usize,
    /// Node limit for the scratch manager (a blown limit skips the node).
    pub bdd_limit: usize,
    /// Maximum node fanin count to consider.
    pub max_fanin: usize,
}

impl Default for SdcParams {
    fn default() -> Self {
        SdcParams {
            max_window: 16,
            bdd_limit: 20_000,
            max_fanin: 10,
        }
    }
}

/// Minimizes node covers against their satisfiability don't-cares.
/// Returns the number of nodes rewritten. Function-preserving by
/// construction (the new cover agrees with the old on every reachable
/// fanin combination).
///
/// # Errors
/// Propagates network errors; per-node BDD blow-ups are skipped, not
/// reported.
pub fn sdc_simplify(net: &mut Network, params: &SdcParams) -> Result<usize, NetworkError> {
    let mut rewritten = 0;
    for sig in net.topo_order() {
        let Some((fanins, cover)) = net.node(sig) else {
            continue;
        };
        if fanins.len() < 2 || fanins.len() > params.max_fanin {
            continue;
        }
        let fanins = fanins.to_vec();
        let cover = cover.clone();
        let Some(new_cover) = minimize_node(net, sig, &fanins, &cover, params) else {
            continue;
        };
        if new_cover.literal_count() < cover.literal_count() {
            net.replace_node(sig, fanins, new_cover)?;
            rewritten += 1;
        }
    }
    Ok(rewritten)
}

/// Computes the minimized cover of one node, or `None` when the window
/// is too large / the care set is total / BDDs blow up.
fn minimize_node(
    net: &Network,
    sig: SignalId,
    fanins: &[SignalId],
    cover: &Cover,
    params: &SdcParams,
) -> Option<Cover> {
    // Collect the window: the union of the fanins' transitive fanin
    // *frontier* signals, stopping at primary inputs; bail out early if
    // it exceeds the cap.
    let mut window: Vec<SignalId> = Vec::new();
    let mut stack: Vec<SignalId> = fanins.to_vec();
    let mut seen: Vec<SignalId> = fanins.to_vec();
    while let Some(s) = stack.pop() {
        match net.node(s) {
            None => {
                if !window.contains(&s) {
                    window.push(s);
                    if window.len() > params.max_window {
                        return None;
                    }
                }
            }
            Some((fs, _)) => {
                for &f in fs {
                    if !seen.contains(&f) {
                        seen.push(f);
                        stack.push(f);
                    }
                }
            }
        }
        if seen.len() > params.max_window * 8 {
            return None; // cone too big to be worth it
        }
    }
    let _ = sig;

    // Scratch manager: window variables (x) on top, then one variable per
    // fanin (y).
    let mut mgr = Manager::with_node_limit(params.bdd_limit);
    let mut var_of: HashMap<SignalId, Var> = HashMap::new();
    for &w in &window {
        var_of.insert(w, mgr.new_var(net.signal_name(w)));
    }
    let y_vars: Vec<Var> = (0..fanins.len())
        .map(|i| mgr.new_var(format!("y{i}")))
        .collect();

    // Build each fanin's function over the window variables.
    let mut value: HashMap<SignalId, Edge> = HashMap::new();
    // Walk `window` (not `var_of`): literal nodes must be allocated in a
    // deterministic order or manager node indices become run-dependent.
    for &w in &window {
        value.insert(w, mgr.literal_checked(var_of[&w], true).ok()?);
    }
    for s in net.topo_order() {
        if value.contains_key(&s) || net.node(s).is_none() {
            continue;
        }
        #[expect(clippy::expect_used, reason = "node(s).is_none() continues above")]
        let (fs, c) = net.node(s).expect("node");
        if !fs.iter().all(|f| value.contains_key(f)) {
            continue; // outside the cone
        }
        let fanin_edges: Vec<Edge> = fs.iter().map(|f| value[f]).collect();
        let e = cover_edges(&mut mgr, c, &fanin_edges).ok()?;
        value.insert(s, e);
    }

    // Care set C(y) = ∃x ∧ᵢ (yᵢ ⊙ gᵢ(x)).
    let mut rel = Edge::ONE;
    for (i, &f) in fanins.iter().enumerate() {
        let g = *value.get(&f)?;
        let y = mgr.literal_checked(y_vars[i], true).ok()?;
        let eq = mgr.xnor(y, g).ok()?;
        rel = mgr.and(rel, eq).ok()?;
    }
    let xs: Vec<Var> = window.iter().map(|w| var_of[w]).collect();
    let care = mgr.exists(rel, &xs).ok()?;
    if care.is_one() {
        return None; // no don't-cares: every combination reachable
    }

    // Minimize f(y) against the care set and re-extract a cover.
    let mut prod_vars = Vec::with_capacity(fanins.len());
    for &y in &y_vars {
        prod_vars.push(y);
    }
    let f_edge = cover_vars(&mut mgr, cover, &prod_vars).ok()?;
    let minimized = mgr.restrict(f_edge, care).ok()?;
    let lower = mgr.and(f_edge, care).ok()?;
    debug_assert_eq!(mgr.and(minimized, care).ok()?, lower, "restrict contract");
    let (cubes, _) = mgr.isop(minimized, minimized).ok()?;
    let pos_of: HashMap<usize, u32> = y_vars
        .iter()
        .enumerate()
        .map(|(i, v)| (v.index(), i as u32))
        .collect();
    #[expect(
        clippy::expect_used,
        reason = "pos_of indexes every y variable by construction, \
                  and ISOP cubes never contain both phases"
    )]
    let new_cover: Cover = cubes
        .iter()
        .map(|c| {
            Cube::new(
                c.literals()
                    .iter()
                    .map(|&(v, p)| (*pos_of.get(&v.index()).expect("y var"), p))
                    .collect(),
            )
            .expect("isop cubes consistent")
        })
        .collect();
    Some(new_cover)
}

fn cover_edges(mgr: &mut Manager, cover: &Cover, fanin_edges: &[Edge]) -> bds_bdd::Result<Edge> {
    let mut acc = Edge::ZERO;
    for cube in cover.cubes() {
        let mut prod = Edge::ONE;
        for &(pos, phase) in cube.literals() {
            prod = mgr.and(prod, fanin_edges[pos as usize].complement_if(!phase))?;
        }
        acc = mgr.or(acc, prod)?;
    }
    Ok(acc)
}

fn cover_vars(mgr: &mut Manager, cover: &Cover, vars: &[Var]) -> bds_bdd::Result<Edge> {
    let mut acc = Edge::ZERO;
    for cube in cover.cubes() {
        let mut prod = Edge::ONE;
        for &(pos, phase) in cube.literals() {
            let lit = mgr.literal_checked(vars[pos as usize], phase)?;
            prod = mgr.and(prod, lit)?;
        }
        acc = mgr.or(acc, prod)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_network::verify::{verify, Verdict};

    fn xor2() -> Cover {
        Cover::from_cubes(vec![
            Cube::parse(&[(0, true), (1, false)]),
            Cube::parse(&[(0, false), (1, true)]),
        ])
    }

    /// A node fed by `g` and `!g` can never see (0,0) or (1,1): SDC
    /// shrinks an XOR consumer to a constant-like form.
    #[test]
    fn complementary_fanins_collapse() {
        let mut n = Network::new("t");
        let a = n.add_input("a").unwrap();
        let b = n.add_input("b").unwrap();
        let g = n.add_node("g", vec![a, b], xor2()).unwrap();
        let ng = n
            .add_node(
                "ng",
                vec![a, b],
                Cover::from_cubes(vec![
                    Cube::parse(&[(0, true), (1, true)]),
                    Cube::parse(&[(0, false), (1, false)]),
                ]),
            )
            .unwrap();
        // f = g ⊕ ng ≡ 1 under SDC (fanins always differ).
        let f = n.add_node("f", vec![g, ng], xor2()).unwrap();
        n.mark_output(f).unwrap();
        let before = n.clone();
        let rewritten = sdc_simplify(&mut n, &SdcParams::default()).unwrap();
        assert!(
            rewritten >= 1,
            "the xor of complementary signals must simplify"
        );
        assert_eq!(verify(&before, &n, 100_000).unwrap(), Verdict::Equivalent);
        let (_, cover) = n.node(f).unwrap();
        assert!(
            cover.literal_count() < 4,
            "f should need fewer than the original 4 literals: {cover}"
        );
    }

    /// Reconvergent AND: h = (a·b)·(a·c); the pair (ab, ac) can never be
    /// (1,·) without a=1 — SDC finds reachable combinations only.
    #[test]
    fn reconvergence_is_function_preserving() {
        let mut n = Network::new("t");
        let a = n.add_input("a").unwrap();
        let b = n.add_input("b").unwrap();
        let c = n.add_input("c").unwrap();
        let and2 = Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])]);
        let g1 = n.add_node("g1", vec![a, b], and2.clone()).unwrap();
        let g2 = n.add_node("g2", vec![a, c], and2.clone()).unwrap();
        let h = n.add_node("h", vec![g1, g2], and2).unwrap();
        n.mark_output(h).unwrap();
        let before = n.clone();
        let _ = sdc_simplify(&mut n, &SdcParams::default()).unwrap();
        assert_eq!(verify(&before, &n, 100_000).unwrap(), Verdict::Equivalent);
    }

    /// Independent fanins have a total care set — nothing changes.
    #[test]
    fn independent_fanins_untouched() {
        let mut n = Network::new("t");
        let a = n.add_input("a").unwrap();
        let b = n.add_input("b").unwrap();
        let f = n.add_node("f", vec![a, b], xor2()).unwrap();
        n.mark_output(f).unwrap();
        let rewritten = sdc_simplify(&mut n, &SdcParams::default()).unwrap();
        assert_eq!(rewritten, 0);
    }

    /// Window cap respected: huge cones are skipped silently.
    #[test]
    fn window_cap_skips_wide_cones() {
        let mut n = Network::new("t");
        let ins: Vec<_> = (0..24)
            .map(|i| n.add_input(format!("i{i}")).unwrap())
            .collect();
        let wide = Cover::from_cubes(vec![Cube::parse(
            &(0..24).map(|i| (i as u32, true)).collect::<Vec<_>>(),
        )]);
        let g = n.add_node("g", ins.clone(), wide.clone()).unwrap();
        let g2 = n.add_node("g2", ins, wide).unwrap();
        let f = n
            .add_node(
                "f",
                vec![g, g2],
                Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])]),
            )
            .unwrap();
        n.mark_output(f).unwrap();
        let params = SdcParams {
            max_window: 8,
            ..Default::default()
        };
        let rewritten = sdc_simplify(&mut n, &params).unwrap();
        assert_eq!(rewritten, 0, "cone wider than the window must be skipped");
    }
}
