//! `Network::eliminate` as it was before it decided on BDD size in one
//! reused scratch manager, kept as the reference for the differential
//! test in `tests/eliminate_differential.rs`.
//!
//! The code is the old `eliminate` / `try_eliminate` / `composed_cover` /
//! `local_bdd_size` verbatim, rewritten as free functions over the public
//! `Network` API, except that trace spans, counters and events are gone.
//! Every pass re-tries every candidate, and every fanout of every
//! candidate gets a fresh manager and a full ISOP cover before the cost
//! comparison.
//!
//! It lives in the test tree and is compiled only into the tests that
//! declare `mod reference_eliminate;`, so library code cannot reach it.

use std::collections::HashMap;

use bds_repro::bdd::{Edge, Manager, Var};
use bds_repro::network::{
    cover_to_bdd, cover_to_bdd_edges, EliminateCost, EliminateParams, Network, NetworkError,
    SignalId,
};
use bds_repro::sop::{Cover, Cube};

/// Per-signal `collapse_cost` results for one `eliminate` call; `None`
/// means not yet computed. An entry is dropped when its node is rewritten.
type CostMemo = Vec<Option<Option<usize>>>;

/// The old `Network::eliminate`.
pub fn eliminate(net: &mut Network, params: &EliminateParams) -> Result<usize, NetworkError> {
    let signals = net.signals().count();
    let mut eliminated = 0;
    let mut is_output = vec![false; signals];
    for &o in net.outputs() {
        is_output[o.index()] = true;
    }
    let mut costs: CostMemo = vec![None; signals];
    for _ in 0..params.max_passes {
        let mut changed = 0;
        // Reverse topological order: collapsing sinks first exposes
        // further candidates cheaply.
        let mut order = net.topo_order();
        order.reverse();
        for sig in order {
            if net.node(sig).is_none() || is_output[sig.index()] {
                continue;
            }
            if try_eliminate(net, sig, params, &mut costs)? {
                changed += 1;
            }
        }
        if changed == 0 {
            break;
        }
        eliminated += changed;
    }
    net.audit()?;
    Ok(eliminated)
}

/// Attempts to collapse the node driving `sig` into every fanout.
/// `Ok(false)` means the collapse was not profitable or not feasible;
/// errors are reserved for structural corruption.
fn try_eliminate(
    net: &mut Network,
    sig: SignalId,
    params: &EliminateParams,
    costs: &mut CostMemo,
) -> Result<bool, NetworkError> {
    let fanouts = net.fanouts(sig).to_vec();
    if fanouts.is_empty() || fanouts.len() > params.max_fanout {
        return Ok(false);
    }
    let Some((own_fanins, _)) = net.node(sig) else {
        return Ok(false);
    };
    let own_fanins = own_fanins.to_vec();

    // Cost before: sizes of sig and each fanout under the cost model.
    let Some(own_size) = memo_cost(net, sig, params, costs) else {
        return Ok(false);
    };
    let mut old_cost = own_size as isize;
    let mut new_nodes: Vec<(SignalId, Vec<SignalId>, Cover)> = Vec::new();
    let mut new_cost = 0isize;
    for &fo in &fanouts {
        let Some(fo_size) = memo_cost(net, fo, params, costs) else {
            return Ok(false);
        };
        old_cost += fo_size as isize;
        // Merged fanin list: fanout fanins minus sig, plus sig's fanins.
        let Some((fo_fanins, _)) = net.node(fo) else {
            return Err(NetworkError::Inconsistent {
                detail: format!("fanout map lists non-node `{}`", net.signal_name(fo)),
            });
        };
        let mut merged: Vec<SignalId> = Vec::new();
        for &f in fo_fanins {
            if f != sig && !merged.contains(&f) {
                merged.push(f);
            }
        }
        for &f in &own_fanins {
            if !merged.contains(&f) {
                merged.push(f);
            }
        }
        if merged.len() > params.max_support {
            return Ok(false);
        }
        let Some((cover, bdd_size)) = composed_cover(net, fo, sig, &merged, params.max_local_bdd)
        else {
            return Ok(false);
        };
        new_cost += match params.cost {
            EliminateCost::BddNodes => bdd_size as isize,
            EliminateCost::Literals => cover.literal_count() as isize,
        };
        new_nodes.push((fo, merged, cover));
    }
    if new_cost - old_cost > params.growth_allowance {
        return Ok(false);
    }
    for (fo, fanins, cover) in new_nodes {
        net.replace_node(fo, fanins, cover)?;
        costs[fo.index()] = None;
    }
    Ok(true)
}

/// `collapse_cost` through the per-call memo.
fn memo_cost(
    net: &Network,
    sig: SignalId,
    params: &EliminateParams,
    costs: &mut CostMemo,
) -> Option<usize> {
    *costs[sig.index()].get_or_insert_with(|| collapse_cost(net, sig, params))
}

/// Cost of the node driving `sig` under the configured model, still
/// requiring the local BDD to fit within the structural cap.
fn collapse_cost(net: &Network, sig: SignalId, params: &EliminateParams) -> Option<usize> {
    match params.cost {
        EliminateCost::BddNodes => local_bdd_size(net, sig, params.max_local_bdd),
        EliminateCost::Literals => {
            // Still guard against structurally huge nodes.
            local_bdd_size(net, sig, params.max_local_bdd)?;
            let (_, cover) = net.node(sig)?;
            Some(cover.literal_count())
        }
    }
}

/// Size (in BDD nodes) of the local function of `sig`, or `None` when
/// it exceeds `limit`.
fn local_bdd_size(net: &Network, sig: SignalId, limit: usize) -> Option<usize> {
    let (fanins, cover) = net.node(sig)?;
    let mut mgr = Manager::with_node_limit(limit.saturating_mul(4).max(64));
    let vars = mgr.new_vars(fanins.len());
    let edge = cover_to_bdd(&mut mgr, cover, &vars).ok()?;
    let size = mgr.size(edge);
    (size <= limit).then_some(size)
}

/// Builds the cover of `fanout` with `sig` substituted by its local
/// function, over the `merged` fanin list. Returns the cover and the
/// BDD size, or `None` on blow-up.
fn composed_cover(
    net: &Network,
    fanout: SignalId,
    sig: SignalId,
    merged: &[SignalId],
    limit: usize,
) -> Option<(Cover, usize)> {
    let (fo_fanins, fo_cover) = net.node(fanout)?;
    let (own_fanins, own_cover) = net.node(sig)?;
    let mut mgr = Manager::with_node_limit(limit.saturating_mul(8).max(256));
    let mut var_of: HashMap<SignalId, Var> = HashMap::new();
    for &f in merged {
        var_of.insert(f, mgr.new_var(net.signal_name(f)));
    }
    // Build sig's function over merged vars.
    let own_vars: Vec<Var> = own_fanins.iter().map(|f| var_of[f]).collect();
    let own_edge = cover_to_bdd(&mut mgr, own_cover, &own_vars).ok()?;
    // Build the fanout function with sig's position replaced by the
    // composed edge.
    let fanin_edges: Vec<Edge> = fo_fanins
        .iter()
        .map(|&f| {
            if f == sig {
                Ok(own_edge)
            } else {
                mgr.literal_checked(var_of[&f], true)
            }
        })
        .collect::<Result<_, bds_repro::bdd::BddError>>()
        .ok()?;
    let composed = cover_to_bdd_edges(&mut mgr, fo_cover, &fanin_edges).ok()?;
    let size = mgr.size(composed);
    if size > limit {
        return None;
    }
    // Extract an ISOP cover over the merged positions.
    let (cubes, _) = mgr.isop(composed, composed).ok()?;
    let pos_of: HashMap<usize, u32> = merged
        .iter()
        .enumerate()
        .map(|(i, &f)| (var_of[&f].index(), i as u32))
        .collect();
    let mut mapped_cubes = Vec::with_capacity(cubes.len());
    for c in &cubes {
        // ISOP cubes are consistent by construction; treat a
        // contradictory one as blow-up rather than unwinding.
        let cube = Cube::new(
            c.literals()
                .iter()
                .map(|&(v, p)| (pos_of[&v.index()], p))
                .collect(),
        )?;
        mapped_cubes.push(cube);
    }
    let cover = Cover::from_cubes(mapped_cubes);
    Some((cover, size))
}
