//! `Network::sweep` and `Network::compacted` as they were before their
//! no-change paths stopped allocating, kept as the reference for the
//! differential test in `tests/sweep_differential.rs`.
//!
//! The code is the old `sweep` / `simplify_covers` /
//! `prune_unused_fanins` / `propagate_constants` / `collapse_buffers` /
//! `replace_uses` / `dedup_equivalent_nodes` and `compacted` verbatim,
//! rewritten as free functions over the public `Network` API, except that
//! trace spans, counters and events are gone. Every node's cover is
//! simplified and its fanins pruned through full copies, every dedup pass
//! builds a fresh manager with one named variable per signal, and
//! `compacted` tracks liveness and renumbering in hash tables.
//!
//! It lives in the test tree and is compiled only into the tests that
//! declare `mod reference_sweep;`, so library code cannot reach it.

use std::collections::HashMap;

use bds_repro::bdd::{Manager, Var};
use bds_repro::network::{cover_to_bdd, Network, NetworkError, SignalId};
use bds_repro::sop::{Cover, Cube};

type Result<T> = std::result::Result<T, NetworkError>;

/// The old `Network::sweep`.
pub fn sweep(net: &mut Network) -> Result<usize> {
    let mut total = 0;
    loop {
        let mut changed = 0;
        changed += simplify_covers(net)?;
        changed += propagate_constants(net)?;
        changed += collapse_buffers(net)?;
        changed += dedup_equivalent_nodes(net)?;
        if changed == 0 {
            break;
        }
        total += changed;
    }
    net.audit()?;
    Ok(total)
}

fn node_checked(net: &Network, sig: SignalId) -> Result<(&[SignalId], &Cover)> {
    net.node(sig).ok_or_else(|| NetworkError::Inconsistent {
        detail: format!("`{}` is not an internal node", net.signal_name(sig)),
    })
}

fn simplify_covers(net: &mut Network) -> Result<usize> {
    let mut changed = 0;
    for sig in net.node_ids() {
        let (fanins, cover) = node_checked(net, sig)?;
        let simplified = cover.simplify();
        if simplified != *cover {
            let fanins = fanins.to_vec();
            net.replace_node(sig, fanins, simplified)?;
            changed += 1;
        }
        // Drop fanins the cover no longer mentions.
        changed += prune_unused_fanins(net, sig)?;
    }
    Ok(changed)
}

/// Removes fanins whose position never occurs in the cover, and merges
/// duplicate fanin signals into a single position.
fn prune_unused_fanins(net: &mut Network, sig: SignalId) -> Result<usize> {
    let Some((fanins, cover)) = net.node(sig) else {
        return Ok(0);
    };
    let fanins = fanins.to_vec();
    let cover = cover.clone();
    // Merge duplicate fanin signals: all positions of a signal map to its
    // first position.
    let mut first_pos: HashMap<SignalId, u32> = HashMap::new();
    let mut pos_map: Vec<u32> = Vec::with_capacity(fanins.len());
    for (i, &f) in fanins.iter().enumerate() {
        let p = *first_pos.entry(f).or_insert(i as u32);
        pos_map.push(p);
    }
    let merged: Cover = cover
        .cubes()
        .iter()
        .filter_map(|c| {
            Cube::new(
                c.literals()
                    .iter()
                    .map(|&(v, p)| (pos_map[v as usize], p))
                    .collect(),
            )
        })
        .collect();
    // Now drop unused positions and renumber.
    let used = merged.support();
    let keep: Vec<usize> = used.iter().map(|&v| v as usize).collect();
    if keep.len() == fanins.len() && merged == cover {
        return Ok(0);
    }
    let renumber: HashMap<u32, u32> = used
        .iter()
        .enumerate()
        .map(|(new, &old)| (old, new as u32))
        .collect();
    let mut new_cubes = Vec::with_capacity(merged.len());
    for c in merged.cubes() {
        let lits: Vec<(u32, bool)> = c
            .literals()
            .iter()
            .map(|&(v, p)| (renumber[&v], p))
            .collect();
        let cube = Cube::new(lits).ok_or_else(|| NetworkError::Inconsistent {
            detail: format!(
                "fanin renumbering produced a contradictory cube on `{}`",
                net.signal_name(sig)
            ),
        })?;
        new_cubes.push(cube);
    }
    let new_cover = Cover::from_cubes(new_cubes);
    let new_fanins: Vec<SignalId> = keep.iter().map(|&i| fanins[i]).collect();
    net.replace_node(sig, new_fanins, new_cover)?;
    Ok(1)
}

/// Folds constant nodes into their fanouts.
fn propagate_constants(net: &mut Network) -> Result<usize> {
    let mut changed = 0;
    let node_ids = net.node_ids();
    for sig in node_ids {
        let Some((fanins, cover)) = net.node(sig) else {
            continue;
        };
        if !fanins.is_empty() {
            continue;
        }
        let value = !cover.is_empty();
        // Substitute into every fanout.
        for fo in net.fanouts(sig).to_vec() {
            let (fo_fanins, fo_cover) = node_checked(net, fo)?;
            let pos = fo_fanins.iter().position(|&f| f == sig).ok_or_else(|| {
                NetworkError::Inconsistent {
                    detail: format!(
                        "fanout map lists `{}` under `{}` but the fanin list disagrees",
                        net.signal_name(fo),
                        net.signal_name(sig)
                    ),
                }
            })? as u32;
            let new_cover = fo_cover.cofactor_lit(pos, value);
            let fo_fanins = fo_fanins.to_vec();
            net.replace_node(fo, fo_fanins, new_cover)?;
            prune_unused_fanins(net, fo)?;
            changed += 1;
        }
    }
    Ok(changed)
}

/// Re-points uses of buffer nodes (`f = x`) to their source, and rewrites
/// inverter-of-inverter as a buffer first.
fn collapse_buffers(net: &mut Network) -> Result<usize> {
    let mut changed = 0;
    for sig in net.node_ids() {
        let Some((fanins, cover)) = net.node(sig) else {
            continue;
        };
        if fanins.len() != 1 || cover.len() != 1 || cover.cubes()[0].len() != 1 {
            continue;
        }
        let source = fanins[0];
        let positive = cover.cubes()[0].literals()[0].1;
        if !positive {
            // Inverter: collapse only chains of two.
            if let Some((src_fanins, src_cover)) = net.node(source) {
                let src_is_inv = src_fanins.len() == 1
                    && src_cover.len() == 1
                    && src_cover.cubes()[0].len() == 1
                    && !src_cover.cubes()[0].literals()[0].1;
                if src_is_inv {
                    let grand = src_fanins[0];
                    net.replace_node(
                        sig,
                        vec![grand],
                        Cover::from_cubes(vec![Cube::lit(0, true)]),
                    )?;
                    changed += 1;
                }
            }
            continue;
        }
        // Buffer: re-point all fanout uses to the source.
        changed += replace_uses(net, sig, source)?;
    }
    Ok(changed)
}

/// Replaces every *fanin* use of `old` by `new`. Outputs keep their
/// driver. Returns the number of nodes rewritten.
fn replace_uses(net: &mut Network, old: SignalId, new: SignalId) -> Result<usize> {
    let mut changed = 0;
    for fo in net.fanouts(old).to_vec() {
        if fo == new {
            continue;
        }
        let (fanins, cover) = node_checked(net, fo)?;
        let new_fanins: Vec<SignalId> = fanins
            .iter()
            .map(|&f| if f == old { new } else { f })
            .collect();
        let cover = cover.clone();
        if net.replace_node(fo, new_fanins, cover).is_ok() {
            prune_unused_fanins(net, fo)?;
            changed += 1;
        }
    }
    Ok(changed)
}

/// Identifies nodes computing the same function of the same signals (via
/// canonical local BDDs in a scratch manager) and re-points all uses to
/// one representative.
fn dedup_equivalent_nodes(net: &mut Network) -> Result<usize> {
    let mut scratch = Manager::new();
    let mut var_of: HashMap<SignalId, Var> = HashMap::new();
    let mut repr: HashMap<u32, SignalId> = HashMap::new();
    let mut changed = 0;
    for sig in net.topo_order() {
        let Some((fanins, cover)) = net.node(sig) else {
            continue;
        };
        if fanins.is_empty() {
            continue; // constants handled elsewhere
        }
        let fanins = fanins.to_vec();
        let cover = cover.clone();
        let vars: Vec<Var> = fanins
            .iter()
            .map(|&f| {
                *var_of
                    .entry(f)
                    .or_insert_with(|| scratch.new_var(format!("s{}", f.index())))
            })
            .collect();
        let Ok(edge) = cover_to_bdd(&mut scratch, &cover, &vars) else {
            continue;
        };
        match repr.get(&edge.raw()) {
            Some(&r) if r != sig => {
                changed += replace_uses(net, sig, r)?;
            }
            _ => {
                repr.insert(edge.raw(), sig);
            }
        }
    }
    Ok(changed)
}

/// The old `Network::compacted`, with its hash-set liveness and hash-map
/// renumbering.
pub fn compacted(net: &Network) -> Result<Network> {
    use std::collections::HashSet;
    let mut live: HashSet<SignalId> = HashSet::new();
    let mut stack: Vec<SignalId> = net.outputs().to_vec();
    while let Some(s) = stack.pop() {
        if !live.insert(s) {
            continue;
        }
        if let Some((fanins, _)) = net.node(s) {
            stack.extend(fanins.iter().copied());
        }
    }
    let mut out = Network::new(net.name());
    let mut map: HashMap<SignalId, SignalId> = HashMap::new();
    for &i in net.inputs() {
        let ni = out.add_input(net.signal_name(i))?;
        map.insert(i, ni);
    }
    for sig in net.topo_order() {
        if net.is_input(sig) || !live.contains(&sig) {
            continue;
        }
        let (node_fanins, cover) = net.node(sig).ok_or_else(|| NetworkError::Inconsistent {
            detail: format!("`{}` is neither input nor node", net.signal_name(sig)),
        })?;
        let mut fanins = Vec::with_capacity(node_fanins.len());
        for f in node_fanins {
            let mapped = map
                .get(f)
                .copied()
                .ok_or_else(|| NetworkError::Inconsistent {
                    detail: format!(
                        "fanin `{}` of `{}` not placed by topological order",
                        net.signal_name(*f),
                        net.signal_name(sig)
                    ),
                })?;
            fanins.push(mapped);
        }
        let ns = out.add_node(net.signal_name(sig), fanins, cover.clone())?;
        map.insert(sig, ns);
    }
    for &o in net.outputs() {
        let mapped = map
            .get(&o)
            .copied()
            .ok_or_else(|| NetworkError::Inconsistent {
                detail: format!("output `{}` was not rebuilt", net.signal_name(o)),
            })?;
        out.mark_output(mapped)?;
    }
    Ok(out)
}
