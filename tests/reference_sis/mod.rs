//! The `script_rugged` pipeline as it was before kernel extraction kept
//! per-node caches and a support index, kept as the reference for the
//! differential test in `tests/sis_differential.rs`.
//!
//! The code is the old `bds::sis_flow` verbatim, except that trace spans
//! and timing are gone and the cover-to-BDD step calls the public
//! `cover_to_bdd`. Every (candidate, node) pair is divided, kernels are
//! re-enumerated on every iteration, and resubstitution divides by every
//! divisor. It uses only public APIs.
//!
//! It lives in the test tree and is compiled only into the tests that
//! declare `mod reference_sis;`, so library code cannot reach it.

use std::collections::{BTreeMap, HashMap};

use bds_repro::bdd::Manager;
use bds_repro::core::sis_flow::{SisParams, SisReport};
use bds_repro::network::{cover_to_bdd, Network, NetworkError, SignalId};
use bds_repro::sop::division::divide;
use bds_repro::sop::kernel::kernels;
use bds_repro::sop::{Cover, Cube};

/// The old `script_rugged` (`seconds` is left at zero).
pub fn script_rugged(
    net: &Network,
    params: &SisParams,
) -> Result<(Network, SisReport), NetworkError> {
    let mut work = net.compacted()?;
    let mut report = SisReport::default();
    work.sweep()?;
    work.eliminate(&params.eliminate)?;
    work.sweep()?;
    isop_simplify(&mut work, params.isop_simplify_limit)?;
    report.extracted += extract_divisors(&mut work, params)?;
    work.sweep()?;
    report.resubstituted += resubstitute(&mut work, params)?;
    work.sweep()?;
    // A second, cheaper extraction round after resubstitution (rugged
    // iterates; two rounds capture most of the benefit).
    report.extracted += extract_divisors(&mut work, params)?;
    work.sweep()?;
    let out = work.compacted()?;
    out.audit()?;
    Ok((out, report))
}

/// Replaces node covers by the irredundant SOP of their local BDD when
/// that is smaller — SIS's `simplify` in spirit (two-level minimization
/// per node, no external don't-cares). Returns the rewrite count.
fn isop_simplify(net: &mut Network, limit: usize) -> Result<usize, NetworkError> {
    if limit == 0 {
        return Ok(0);
    }
    let mut rewritten = 0;
    for sig in net.node_ids() {
        let Some((fanins, cover)) = net.node(sig) else {
            continue;
        };
        let fanins = fanins.to_vec();
        let cover = cover.clone();
        if cover.len() < 2 {
            continue;
        }
        let mut mgr = Manager::with_node_limit(limit);
        let vars = mgr.new_vars(fanins.len());
        let Ok(edge) = cover_to_bdd(&mut mgr, &cover, &vars) else {
            continue;
        };
        let Ok((cubes, _)) = mgr.isop(edge, edge) else {
            continue;
        };
        // ISOP cubes are consistent by construction; skip the node if one
        // somehow is not, rather than unwinding.
        let mapped: Option<Vec<Cube>> = cubes
            .iter()
            .map(|c| {
                Cube::new(
                    c.literals()
                        .iter()
                        .map(|&(v, p)| (v.index() as u32, p))
                        .collect(),
                )
            })
            .collect();
        let Some(mapped) = mapped else { continue };
        let new_cover = Cover::from_cubes(mapped);
        if new_cover.literal_count() < cover.literal_count() {
            net.replace_node(sig, fanins, new_cover)?;
            rewritten += 1;
        }
    }
    Ok(rewritten)
}

/// A cover lifted from node-local positions to global signal indices.
fn signal_cover(net: &Network, sig: SignalId) -> Option<Cover> {
    let (fanins, cover) = net.node(sig)?;
    Some(translate(cover, &|pos| fanins[pos as usize].index() as u32))
}

fn translate(cover: &Cover, map: &dyn Fn(u32) -> u32) -> Cover {
    cover
        .cubes()
        .iter()
        .filter_map(|c| Cube::new(c.literals().iter().map(|&(v, p)| (map(v), p)).collect()))
        .collect()
}

/// Installs a signal-space cover back onto a node.
fn install(net: &mut Network, sig: SignalId, cover: &Cover) -> Result<(), NetworkError> {
    let support = cover.support();
    let mut fanins: Vec<SignalId> = Vec::with_capacity(support.len());
    for &s in &support {
        let id = net
            .signals()
            .nth(s as usize)
            .ok_or_else(|| NetworkError::UnknownSignal {
                name: format!("#{s}"),
            })?;
        fanins.push(id);
    }
    let pos_of: HashMap<u32, u32> = support
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i as u32))
        .collect();
    let local = translate(cover, &|s| pos_of[&s]);
    net.replace_node(sig, fanins, local)
}

/// A scored extraction candidate: divisor, total literal savings, and
/// the beneficiary rewrites.
type ExtractionPick = (Cover, isize, Vec<(SignalId, Cover)>);

/// One round of kernel/cube extraction: repeatedly finds the divisor with
/// the best literal savings across all nodes, creates a node for it, and
/// rewrites the beneficiaries. Returns the number of divisors extracted.
fn extract_divisors(net: &mut Network, params: &SisParams) -> Result<usize, NetworkError> {
    let mut extracted = 0;
    for _ in 0..params.max_extractions {
        // Gather candidate divisors in signal space.
        // BTreeMap: the best-candidate scan below breaks score ties by
        // taking the first hit, so iteration order must be canonical.
        let mut candidates: BTreeMap<Vec<Cube>, Cover> = BTreeMap::new();
        let node_ids = net.node_ids();
        for &sig in &node_ids {
            let Some(cover) = signal_cover(net, sig) else {
                continue;
            };
            if cover.len() < 2 || cover.len() > params.kernel_cube_limit {
                continue;
            }
            for k in kernels(&cover) {
                if k.kernel.len() >= 2 && k.kernel.len() <= params.kernel_cube_limit {
                    candidates
                        .entry(k.kernel.cubes().to_vec())
                        .or_insert_with(|| k.kernel.clone());
                }
                // Co-kernel cubes with ≥2 literals are single-cube
                // divisor candidates.
                if k.co_kernel.len() >= 2 {
                    let c = Cover::from_cubes(vec![k.co_kernel.clone()]);
                    candidates.entry(c.cubes().to_vec()).or_insert(c);
                }
            }
        }
        // Score each candidate by total literal savings.
        let covers: Vec<(SignalId, Cover)> = node_ids
            .iter()
            .filter_map(|&sig| signal_cover(net, sig).map(|c| (sig, c)))
            .filter(|(_, c)| c.len() <= params.kernel_cube_limit * 4)
            .collect();
        let mut best: Option<ExtractionPick> = None;
        for divisor in candidates.into_values() {
            let dsupport = divisor.support();
            let dlits = divisor.literal_count() as isize;
            let mut total = -dlits;
            let mut rewrites: Vec<(SignalId, Cover)> = Vec::new();
            for (sig, cover) in &covers {
                let (sig, cover) = (*sig, cover.clone());
                // Quick reject: the divisor's support must be contained.
                let sup = cover.support();
                if !dsupport.iter().all(|v| sup.binary_search(v).is_ok()) {
                    continue;
                }
                let div = divide(&cover, &divisor);
                if div.quotient.is_empty() {
                    continue;
                }
                let new_lits = div.quotient.literal_count()
                    + div.quotient.len()
                    + div.remainder.literal_count();
                let saving = cover.literal_count() as isize - new_lits as isize;
                if saving > 0 {
                    total += saving;
                    rewrites.push((sig, cover));
                }
            }
            if rewrites.len() >= 2 && total > 0 && best.as_ref().is_none_or(|&(_, t, _)| total > t)
            {
                best = Some((divisor, total, rewrites));
            }
        }
        let Some((divisor, _, rewrites)) = best else {
            break;
        };
        // Materialize the divisor node.
        let name = net.fresh_name("sis");
        let support = divisor.support();
        let mut fanins: Vec<SignalId> = Vec::with_capacity(support.len());
        for &s in &support {
            let id = net
                .signals()
                .nth(s as usize)
                .ok_or_else(|| NetworkError::UnknownSignal {
                    name: format!("#{s}"),
                })?;
            fanins.push(id);
        }
        let pos_of: HashMap<u32, u32> = support
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i as u32))
            .collect();
        let local = translate(&divisor, &|s| pos_of[&s]);
        let dsig = net.add_node(name, fanins, local)?;
        // Rewrite the beneficiaries: f = q·d + r in signal space, where
        // the divisor is now the literal of `dsig`.
        for (sig, cover) in rewrites {
            let div = divide(&cover, &divisor);
            let dlit = Cover::from_cubes(vec![Cube::lit(dsig.index() as u32, true)]);
            let new_cover = div.quotient.and(&dlit).or(&div.remainder);
            install(net, sig, &new_cover)?;
        }
        extracted += 1;
    }
    Ok(extracted)
}

/// Algebraic resubstitution: tries to divide each node by each existing
/// node function; rewrites when literals are saved.
fn resubstitute(net: &mut Network, params: &SisParams) -> Result<usize, NetworkError> {
    let mut rewritten = 0;
    for _ in 0..params.resub_passes {
        let mut changed = 0;
        let node_ids = net.node_ids();
        // Divisor candidates: node functions in signal space.
        let mut divisors: Vec<(SignalId, Cover)> = Vec::new();
        for &d in &node_ids {
            if let Some(cover) = signal_cover(net, d) {
                if cover.literal_count() >= 2 && cover.len() <= params.kernel_cube_limit {
                    divisors.push((d, cover));
                }
            }
        }
        for &sig in &node_ids {
            let Some(cover) = signal_cover(net, sig) else {
                continue;
            };
            let mut best: Option<(SignalId, Cover, isize)> = None;
            for (d, dcover) in &divisors {
                if *d == sig {
                    continue;
                }
                let div = divide(&cover, dcover);
                if div.quotient.is_empty() {
                    continue;
                }
                let new_lits = div.quotient.literal_count()
                    + div.quotient.len()
                    + div.remainder.literal_count();
                let saving = cover.literal_count() as isize - new_lits as isize;
                if saving > 0 && best.as_ref().is_none_or(|&(_, _, s)| saving > s) {
                    let dlit = Cover::from_cubes(vec![Cube::lit(d.index() as u32, true)]);
                    let new_cover = div.quotient.and(&dlit).or(&div.remainder);
                    best = Some((*d, new_cover, saving));
                }
            }
            if let Some((_, new_cover, _)) = best {
                // `install` may fail with a cycle when the divisor
                // transitively depends on `sig` — skip those.
                if install(net, sig, &new_cover).is_ok() {
                    changed += 1;
                }
            }
        }
        if changed == 0 {
            break;
        }
        rewritten += changed;
    }
    Ok(rewritten)
}
