//! The algebraic baseline: a SIS-style `script.rugged` pipeline.
//!
//! The paper's evaluation (§V) compares BDS against SIS running
//! `script.rugged` — sweep, eliminate, two-level simplification, kernel
//! based extraction, resubstitution and algebraic factoring, all on
//! cube representations. This module reproduces that pipeline on top of
//! the `bds-sop` algebra so that the comparison dimension of the paper
//! (cube-based algebraic optimization vs. BDD-structural decomposition)
//! is preserved, with the *same* network substrate and the *same*
//! technology mapper downstream.

use std::collections::BTreeMap;

use bds_bdd::Manager;
use bds_network::{cover_to_bdd, EliminateCost, EliminateParams, Network, NetworkError, SignalId};
use bds_sop::division::{divide, Division};
use bds_sop::kernel::kernels;
use bds_sop::{Cover, Cube};
use bds_trace::Stopwatch;

/// Tuning knobs for the baseline flow.
#[derive(Clone, Debug)]
pub struct SisParams {
    /// Partial-collapse parameters (literal cost model, as in SIS).
    pub eliminate: EliminateParams,
    /// Maximum extraction iterations (each extracts one divisor).
    pub max_extractions: usize,
    /// Skip kernel enumeration for nodes with more cubes than this.
    pub kernel_cube_limit: usize,
    /// Maximum resubstitution passes.
    pub resub_passes: usize,
    /// Per-node ISOP re-minimization (a light `simplify`): node covers are
    /// replaced by the irredundant SOP extracted from their local BDD
    /// when that is smaller. Bounded by this local-BDD node cap
    /// (0 disables).
    pub isop_simplify_limit: usize,
}

impl Default for SisParams {
    fn default() -> Self {
        SisParams {
            eliminate: EliminateParams {
                cost: EliminateCost::Literals,
                ..EliminateParams::default()
            },
            max_extractions: 400,
            kernel_cube_limit: 24,
            resub_passes: 2,
            isop_simplify_limit: 2_000,
        }
    }
}

/// Flow report for the baseline.
#[derive(Clone, Debug, Default)]
pub struct SisReport {
    /// Divisors extracted (new nodes created).
    pub extracted: usize,
    /// Nodes rewritten by resubstitution.
    pub resubstituted: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// Runs the `script.rugged`-style pipeline and returns the optimized
/// network plus a report.
///
/// # Errors
/// Propagates network construction errors.
pub fn script_rugged(
    net: &Network,
    params: &SisParams,
) -> Result<(Network, SisReport), NetworkError> {
    let _span = bds_trace::span!("sis_flow");
    let start = Stopwatch::start();
    let mut work = {
        let _span = bds_trace::span!("sis_flow.prologue");
        let mut work = net.compacted()?;
        work.sweep()?;
        work.eliminate(&params.eliminate)?;
        work.sweep()?;
        work
    };
    let mut report = SisReport::default();
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
    report.seconds = start.seconds();
    Ok((out, report))
}

/// Replaces node covers by the irredundant SOP of their local BDD when
/// that is smaller — SIS's `simplify` in spirit (two-level minimization
/// per node, no external don't-cares). Returns the rewrite count.
fn isop_simplify(net: &mut Network, limit: usize) -> Result<usize, NetworkError> {
    let _span = bds_trace::span!("sis_flow.simplify");
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

/// Lowers a signal-space cover to a node: its support, in ascending
/// signal order, becomes the fanin list. `ids[s]` is signal `s`.
fn localize(ids: &[SignalId], cover: &Cover) -> Result<(Vec<SignalId>, Cover), NetworkError> {
    let support = cover.support();
    let fanins = support
        .iter()
        .map(|&s| {
            ids.get(s as usize)
                .copied()
                .ok_or_else(|| NetworkError::UnknownSignal {
                    name: format!("#{s}"),
                })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let local = translate(cover, &|s| support.partition_point(|&x| x < s) as u32);
    Ok((fanins, local))
}

/// Installs a signal-space cover back onto a node.
fn install(
    net: &mut Network,
    ids: &[SignalId],
    sig: SignalId,
    cover: &Cover,
) -> Result<(), NetworkError> {
    let (fanins, local) = localize(ids, cover)?;
    net.replace_node(sig, fanins, local)
}

/// True if the sorted `support` contains every variable of `vars`.
fn contains_all(support: &[u32], vars: &[u32]) -> bool {
    vars.iter().all(|v| support.binary_search(v).is_ok())
}

/// Literals of `f = q·d + r` once the divisor is a single literal `d`.
fn rewritten_literals(div: &Division) -> usize {
    div.quotient.literal_count() + div.quotient.len() + div.remainder.literal_count()
}

/// The signal-space cover `q·d + r`, where `d` is the divisor's node.
fn substitute(div: &Division, d: SignalId) -> Cover {
    let dlit = Cover::from_cubes(vec![Cube::lit(d.index() as u32, true)]);
    div.quotient.and(&dlit).or(&div.remainder)
}

/// What extraction keeps per node between iterations; refreshed only
/// when the node is rewritten.
struct NodeInfo {
    /// The cover in signal space.
    cover: Cover,
    /// `cover.support()`.
    support: Vec<u32>,
    /// `cover.literal_count()`.
    literals: usize,
    /// The divisor candidates the cover's kernels yield, each once:
    /// kernels and co-kernel cubes of at least two literals.
    candidates: Vec<Cover>,
}

impl NodeInfo {
    /// The entry for `sig`, or `None` for a primary input.
    fn of(net: &Network, sig: SignalId, kernel_cube_limit: usize) -> Option<NodeInfo> {
        let cover = signal_cover(net, sig)?;
        let mut candidates = Vec::new();
        if (2..=kernel_cube_limit).contains(&cover.len()) {
            for k in kernels(&cover) {
                if (2..=kernel_cube_limit).contains(&k.kernel.len()) {
                    candidates.push(k.kernel);
                }
                if k.co_kernel.len() >= 2 {
                    candidates.push(Cover::from_cubes(vec![k.co_kernel]));
                }
            }
        }
        candidates.sort_unstable_by(|a, b| a.cubes().cmp(b.cubes()));
        candidates.dedup();
        Some(NodeInfo {
            support: cover.support(),
            literals: cover.literal_count(),
            cover,
            candidates,
        })
    }

    /// True if extraction scores the node: at most four times the kernel
    /// cube limit.
    fn scored(&self, limit: usize) -> bool {
        self.cover.len() <= limit * 4
    }

    /// The literals saved by rewriting the node as `q·d + r` with the
    /// divisor `d`, if positive.
    fn gain(&self, divisor: &Cover, dsupport: &[u32]) -> Option<isize> {
        // Weak division intersects f / dᵢ over the divisor cubes dᵢ, so a
        // divisor variable outside f's support leaves the quotient empty.
        if !contains_all(&self.support, dsupport) {
            return None;
        }
        let div = divide(&self.cover, divisor);
        if div.quotient.is_empty() {
            return None;
        }
        let saving = self.literals as isize - rewritten_literals(&div) as isize;
        (saving > 0).then_some(saving)
    }
}

/// A divisor candidate on the extraction [`Board`].
struct Candidate {
    cover: Cover,
    /// `cover.support()`.
    support: Vec<u32>,
    /// How many nodes yield it; it leaves the board at zero.
    yielders: usize,
    /// Positive literal savings by scored node (signal index).
    gains: BTreeMap<usize, isize>,
    /// The sum of `gains` less the candidate's own literals.
    total: isize,
    /// The support variable it is filed under in `Board::filed`.
    filed_under: u32,
}

/// Extraction's score board for one round: every candidate some node
/// yields, with its gains over every scored node. An extraction changes
/// only the rewritten nodes and adds the divisor node, so only those are
/// re-scored (after SIS's `fx`, which updates only the gains a rewrite
/// changed).
#[derive(Default)]
struct Board {
    /// Slots by the candidate's cubes: the canonical order in which score
    /// ties are broken.
    keys: BTreeMap<Vec<Cube>, usize>,
    /// Candidates by slot; a retired candidate leaves `None`.
    slots: Vec<Option<Candidate>>,
    /// Scored nodes by support variable, each list ascending.
    by_var: Vec<Vec<usize>>,
    /// Slots by the support variable their candidate is filed under.
    filed: Vec<Vec<usize>>,
    /// `gained[i]`: the slots in which node `i` has a gain.
    gained: Vec<Vec<usize>>,
}

impl Board {
    /// The board of `info`, built with every node new to it.
    fn new(info: &[Option<NodeInfo>], limit: usize) -> Board {
        let mut board = Board::default();
        board.update(info, (0..info.len()).map(|i| (i, None)).collect(), limit);
        board
    }

    /// The candidate with the best total over at least two gains, and its
    /// gaining nodes (ascending). Ties go to the first in cube order.
    fn best(&self) -> Option<(Cover, Vec<usize>)> {
        let mut best: Option<&Candidate> = None;
        for c in self
            .keys
            .values()
            .filter_map(|&slot| self.slots[slot].as_ref())
        {
            if c.gains.len() >= 2 && c.total > 0 && best.is_none_or(|b| c.total > b.total) {
                best = Some(c);
            }
        }
        best.map(|c| (c.cover.clone(), c.gains.keys().copied().collect()))
    }

    /// Brings the board up to date after the nodes in `changed` were
    /// given new entries in `info`; each comes with its old entry.
    fn update(
        &mut self,
        info: &[Option<NodeInfo>],
        changed: Vec<(usize, Option<NodeInfo>)>,
        limit: usize,
    ) {
        for list in [&mut self.by_var, &mut self.filed, &mut self.gained] {
            list.resize_with(info.len(), Vec::new);
        }
        // Retire the old entries: their gains, index entries and yields.
        let mut orphans = Vec::new();
        for (i, old) in &changed {
            for slot in std::mem::take(&mut self.gained[*i]) {
                if let Some(c) = self.slots[slot].as_mut() {
                    c.total -= c.gains.remove(i).unwrap_or(0);
                }
            }
            let Some(old) = old else { continue };
            if old.scored(limit) {
                for &v in &old.support {
                    let list = &mut self.by_var[v as usize];
                    if let Ok(pos) = list.binary_search(i) {
                        list.remove(pos);
                    }
                }
            }
            for cand in &old.candidates {
                let slot = self.keys.get(cand.cubes()).copied();
                if let Some(c) = slot.and_then(|s| self.slots[s].as_mut()) {
                    c.yielders -= 1;
                    if c.yielders == 0 {
                        orphans.extend(slot);
                    }
                }
            }
        }
        // Admit the new entries' yields; candidates new to the board wait
        // until the index is complete.
        let mut fresh: BTreeMap<Vec<Cube>, (Cover, usize)> = BTreeMap::new();
        for &(i, _) in &changed {
            let Some(n) = &info[i] else { continue };
            if n.scored(limit) {
                for &v in &n.support {
                    let list = &mut self.by_var[v as usize];
                    let pos = list.partition_point(|&j| j < i);
                    list.insert(pos, i);
                }
            }
            for cand in &n.candidates {
                let slot = self.keys.get(cand.cubes()).copied();
                match slot.and_then(|s| self.slots[s].as_mut()) {
                    Some(c) => c.yielders += 1,
                    None => {
                        fresh
                            .entry(cand.cubes().to_vec())
                            .or_insert_with(|| (cand.clone(), 0))
                            .1 += 1;
                    }
                }
            }
        }
        for slot in orphans {
            if self.slots[slot].as_ref().is_some_and(|c| c.yielders == 0) {
                self.remove(slot);
            }
        }
        // Score the changed nodes against the candidates that stay. A
        // node gains only from a candidate whose support it holds, so it
        // meets each such candidate once, under its filing variable.
        for &(i, _) in &changed {
            let Some(n) = info[i].as_ref().filter(|n| n.scored(limit)) else {
                continue;
            };
            for &v in &n.support {
                for &slot in &self.filed[v as usize] {
                    let Some(c) = self.slots[slot].as_mut() else {
                        continue;
                    };
                    if let Some(g) = n.gain(&c.cover, &c.support) {
                        c.gains.insert(i, g);
                        c.total += g;
                        self.gained[i].push(slot);
                    }
                }
            }
        }
        for (key, (cover, yielders)) in fresh {
            self.insert(info, key, cover, yielders);
        }
    }

    /// Adds a candidate, scored against every scored node.
    fn insert(&mut self, info: &[Option<NodeInfo>], key: Vec<Cube>, cover: Cover, yielders: usize) {
        let support = cover.support();
        // A node can only be divided if it has every divisor variable, so
        // the rarest variable's list holds every gaining node. Candidates
        // always have a literal: kernels have two distinct cubes,
        // co-kernel candidates two literals.
        let Some(&var) = support
            .iter()
            .min_by_key(|&&v| self.by_var[v as usize].len())
        else {
            return;
        };
        let slot = self.slots.len();
        let mut gains = BTreeMap::new();
        for &i in &self.by_var[var as usize] {
            if let Some(g) = info[i].as_ref().and_then(|n| n.gain(&cover, &support)) {
                gains.insert(i, g);
                self.gained[i].push(slot);
            }
        }
        let total = gains.values().sum::<isize>() - cover.literal_count() as isize;
        self.filed[var as usize].push(slot);
        self.keys.insert(key, slot);
        self.slots.push(Some(Candidate {
            cover,
            support,
            yielders,
            gains,
            total,
            filed_under: var,
        }));
    }

    /// Takes a candidate off the board.
    fn remove(&mut self, slot: usize) {
        let Some(c) = self.slots[slot].take() else {
            return;
        };
        self.keys.remove(c.cover.cubes());
        let unlist = |list: &mut Vec<usize>| {
            if let Some(pos) = list.iter().position(|&s| s == slot) {
                list.swap_remove(pos);
            }
        };
        unlist(&mut self.filed[c.filed_under as usize]);
        for &i in c.gains.keys() {
            unlist(&mut self.gained[i]);
        }
    }
}

/// The state of one extraction round.
struct Extraction {
    limit: usize,
    /// `ids[s]` is signal `s`.
    ids: Vec<SignalId>,
    /// Indexed by signal; only rewritten nodes and new divisors change.
    info: Vec<Option<NodeInfo>>,
    board: Board,
}

impl Extraction {
    fn new(net: &Network, limit: usize) -> Extraction {
        let ids: Vec<SignalId> = net.signals().collect();
        let info: Vec<Option<NodeInfo>> =
            ids.iter().map(|&s| NodeInfo::of(net, s, limit)).collect();
        let board = Board::new(&info, limit);
        Extraction {
            limit,
            ids,
            info,
            board,
        }
    }

    /// Extracts the best divisor: creates a node for it and rewrites the
    /// nodes that gain from it. Returns `false` when no divisor gains.
    fn step(&mut self, net: &mut Network) -> Result<bool, NetworkError> {
        let Some((divisor, beneficiaries)) = self.board.best() else {
            return Ok(false);
        };
        let (fanins, local) = localize(&self.ids, &divisor)?;
        let name = net.fresh_name("sis");
        let dsig = net.add_node(name, fanins, local)?;
        self.ids.push(dsig);
        // Rewrite the beneficiaries: f = q·d + r in signal space, where
        // the divisor is now the literal of `dsig`.
        for &i in &beneficiaries {
            if let Some(n) = &self.info[i] {
                let cover = substitute(&divide(&n.cover, &divisor), dsig);
                install(net, &self.ids, self.ids[i], &cover)?;
            }
        }
        let mut changed: Vec<(usize, Option<NodeInfo>)> = beneficiaries
            .into_iter()
            .map(|i| {
                let fresh = NodeInfo::of(net, self.ids[i], self.limit);
                (i, std::mem::replace(&mut self.info[i], fresh))
            })
            .collect();
        changed.push((self.info.len(), None));
        self.info.push(NodeInfo::of(net, dsig, self.limit));
        self.board.update(&self.info, changed, self.limit);
        Ok(true)
    }
}

/// One round of kernel/cube extraction: repeatedly finds the divisor with
/// the best literal savings across all nodes, creates a node for it, and
/// rewrites the beneficiaries. Returns the number of divisors extracted.
fn extract_divisors(net: &mut Network, params: &SisParams) -> Result<usize, NetworkError> {
    let _span = bds_trace::span!("sis_flow.extract");
    let mut round = Extraction::new(net, params.kernel_cube_limit);
    let mut extracted = 0;
    while extracted < params.max_extractions && round.step(net)? {
        extracted += 1;
    }
    Ok(extracted)
}

/// Algebraic resubstitution: tries to divide each node by each existing
/// node function whose support it holds; rewrites when literals are
/// saved.
fn resubstitute(net: &mut Network, params: &SisParams) -> Result<usize, NetworkError> {
    let _span = bds_trace::span!("sis_flow.resub");
    let ids: Vec<SignalId> = net.signals().collect();
    let mut rewritten = 0;
    let mut nearby = Vec::new();
    for _ in 0..params.resub_passes {
        let mut changed = 0;
        let node_ids = net.node_ids();
        // Divisor candidates: node functions in signal space, with their
        // supports.
        let mut divisors: Vec<(SignalId, Vec<u32>, Cover)> = Vec::new();
        for &d in &node_ids {
            if let Some(cover) = signal_cover(net, d) {
                if cover.literal_count() >= 2 && cover.len() <= params.kernel_cube_limit {
                    divisors.push((d, cover.support(), cover));
                }
            }
        }
        // Weak division intersects f / dᵢ over the divisor cubes dᵢ, so a
        // divisor variable outside f's support leaves the quotient empty.
        // Each divisor is filed under its support variable read by the
        // fewest nodes; a node meets only the divisors filed under its own
        // support.
        let mut readers = vec![0usize; ids.len()];
        for &sig in &node_ids {
            for f in net.node(sig).map_or(&[][..], |(fanins, _)| fanins) {
                readers[f.index()] += 1;
            }
        }
        let mut filed: Vec<Vec<usize>> = vec![Vec::new(); ids.len()];
        for (k, (_, dsupport, _)) in divisors.iter().enumerate() {
            if let Some(&v) = dsupport.iter().min_by_key(|&&v| readers[v as usize]) {
                filed[v as usize].push(k);
            }
        }
        for &sig in &node_ids {
            let Some(cover) = signal_cover(net, sig) else {
                continue;
            };
            let support = cover.support();
            nearby.clear();
            for &v in &support {
                nearby.extend_from_slice(&filed[v as usize]);
            }
            // The original order, so that ties go to the same divisor.
            nearby.sort_unstable();
            let mut best: Option<(SignalId, Cover, isize)> = None;
            for (d, dsupport, dcover) in nearby.iter().map(|&k| &divisors[k]) {
                // A divisor with the unit cube yields q = f, which never
                // saves literals.
                if *d == sig || !contains_all(&support, dsupport) {
                    continue;
                }
                let div = divide(&cover, dcover);
                if div.quotient.is_empty() {
                    continue;
                }
                let saving = cover.literal_count() as isize - rewritten_literals(&div) as isize;
                if saving > 0 && best.as_ref().is_none_or(|&(_, _, s)| saving > s) {
                    best = Some((*d, substitute(&div, *d), saving));
                }
            }
            if let Some((_, new_cover, _)) = best {
                match install(net, &ids, sig, &new_cover) {
                    Ok(()) => changed += 1,
                    // The divisor may transitively depend on `sig` (it was
                    // itself rewritten earlier in this pass): skip it.
                    Err(NetworkError::Cycle { .. }) => {}
                    Err(e) => return Err(e),
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

#[cfg(test)]
mod tests {
    use super::*;
    use bds_network::verify::{verify, Verdict};
    use bds_prop::{check_cases, Rng};

    fn two_shared_products() -> Network {
        // f = a·c + a·d + b·c + b·d + e ; g = a·c + a·d + b·c + b·d + k
        // Both contain the (a+b)(c+d) structure — extraction must share it.
        let mut n = Network::new("ex");
        let sigs: Vec<SignalId> = ["a", "b", "c", "d", "e", "k"]
            .iter()
            .map(|s| n.add_input(*s).unwrap())
            .collect();
        let cover = |extra: usize| {
            Cover::from_cubes(vec![
                Cube::parse(&[(0, true), (2, true)]),
                Cube::parse(&[(0, true), (3, true)]),
                Cube::parse(&[(1, true), (2, true)]),
                Cube::parse(&[(1, true), (3, true)]),
                Cube::parse(&[(extra as u32, true)]),
            ])
        };
        let f = n
            .add_node(
                "f",
                vec![sigs[0], sigs[1], sigs[2], sigs[3], sigs[4]],
                cover(4),
            )
            .unwrap();
        let g = n
            .add_node(
                "g",
                vec![sigs[0], sigs[1], sigs[2], sigs[3], sigs[5]],
                cover(4),
            )
            .unwrap();
        n.mark_output(f).unwrap();
        n.mark_output(g).unwrap();
        n
    }

    #[test]
    fn extraction_reduces_literals_and_preserves_function() {
        let net = two_shared_products();
        let before = net.stats().literals;
        let (opt, report) = script_rugged(&net, &SisParams::default()).unwrap();
        assert!(report.extracted > 0, "a common kernel must be extracted");
        let after = opt.stats().literals;
        assert!(after < before, "literals must drop: {before} → {after}");
        assert_eq!(verify(&net, &opt, 1_000_000).unwrap(), Verdict::Equivalent);
    }

    #[test]
    fn resubstitution_skips_a_rewrite_that_closes_a_cycle() {
        // p = q = a·b + c·d. The pass divides p by q (p := q), then q by
        // p's cover from the start of the pass (q := p): a cycle, which
        // must be skipped rather than returned.
        let mut n = Network::new("twins");
        let ins: Vec<SignalId> = ["a", "b", "c", "d"]
            .iter()
            .map(|s| n.add_input(*s).unwrap())
            .collect();
        let cover = Cover::from_cubes(vec![
            Cube::parse(&[(0, true), (1, true)]),
            Cube::parse(&[(2, true), (3, true)]),
        ]);
        let p = n.add_node("p", ins.clone(), cover.clone()).unwrap();
        let q = n.add_node("q", ins, cover).unwrap();
        n.mark_output(p).unwrap();
        n.mark_output(q).unwrap();
        let before = n.clone();
        assert_eq!(resubstitute(&mut n, &SisParams::default()), Ok(1));
        assert_eq!(n.node(p).unwrap().0, &[q]);
        assert_eq!(n.node(q).unwrap().0.len(), 4, "q keeps its own cover");
        n.check_invariants().unwrap();
        assert_eq!(verify(&before, &n, 1_000_000).unwrap(), Verdict::Equivalent);
    }

    /// The board's content by candidate: yield count, total and gains.
    type Summary = BTreeMap<Vec<Cube>, (usize, isize, Vec<(usize, isize)>)>;

    fn summary(board: &Board) -> Summary {
        board
            .keys
            .iter()
            .map(|(key, &slot)| {
                let c = board.slots[slot].as_ref().unwrap();
                let gains = c.gains.iter().map(|(&i, &g)| (i, g)).collect();
                (key.clone(), (c.yielders, c.total, gains))
            })
            .collect()
    }

    /// A random network whose nodes read distinct earlier signals through
    /// covers of two to six cubes, mostly positive literals, so that many
    /// nodes share kernels.
    fn random_network(rng: &mut Rng) -> Network {
        let mut net = Network::new("rand");
        let mut sigs: Vec<SignalId> = (0..rng.range_usize(4..10))
            .map(|i| net.add_input(format!("i{i}")).unwrap())
            .collect();
        for k in 0..rng.range_usize(4..24) {
            let arity = rng.range_usize(2..6).min(sigs.len());
            let mut pool = sigs.clone();
            for j in 0..arity {
                let pick = rng.range_usize(j..pool.len());
                pool.swap(j, pick);
            }
            pool.truncate(arity);
            let cubes = (0..rng.range_usize(2..7))
                .filter_map(|_| {
                    let lits = (0..arity as u32)
                        .filter_map(|v| match rng.range_u32(0..4) {
                            0 => None,
                            p => Some((v, p > 1)),
                        })
                        .collect();
                    Cube::new(lits)
                })
                .collect();
            let sig = net
                .add_node(format!("n{k}"), pool, Cover::from_cubes(cubes))
                .unwrap();
            net.mark_output(sig).unwrap();
            sigs.push(sig);
        }
        net
    }

    #[test]
    fn incremental_board_matches_a_rebuild_after_every_extraction() {
        let mut steps = 0;
        check_cases("extraction board", 60, |rng| {
            let mut net = random_network(rng);
            let limit = rng.range_usize(2..9);
            let mut round = Extraction::new(&net, limit);
            while round.step(&mut net).unwrap() {
                let rebuilt = Board::new(&round.info, limit);
                assert_eq!(summary(&round.board), summary(&rebuilt));
                assert_eq!(round.board.by_var, rebuilt.by_var);
                steps += 1;
            }
        });
        assert!(steps >= 60, "too few extraction steps: {steps}");
    }

    #[cfg(feature = "trace")]
    #[test]
    fn phases_are_spans_under_sis_flow() {
        bds_trace::reset();
        script_rugged(&two_shared_products(), &SisParams::default()).unwrap();
        let snap = bds_trace::take();
        let root = snap.spans.iter().find(|s| s.name == "sis_flow").unwrap();
        for phase in [
            "sis_flow.prologue",
            "sis_flow.simplify",
            "sis_flow.extract",
            "sis_flow.resub",
        ] {
            assert!(
                root.children.iter().any(|c| c.name == phase),
                "`{phase}` missing under `sis_flow`"
            );
        }
    }

    #[test]
    fn rugged_is_sound_on_mixed_logic() {
        // A small random-ish mixed network.
        let mut n = Network::new("mix");
        let sigs: Vec<SignalId> = (0..5)
            .map(|i| n.add_input(format!("i{i}")).unwrap())
            .collect();
        let c1 = Cover::from_cubes(vec![
            Cube::parse(&[(0, true), (1, false)]),
            Cube::parse(&[(2, true), (3, true)]),
        ]);
        let c2 = Cover::from_cubes(vec![
            Cube::parse(&[(0, true), (1, true), (2, false)]),
            Cube::parse(&[(3, false)]),
        ]);
        let g1 = n.add_node("g1", sigs.clone(), c1).unwrap();
        let g2 = n.add_node("g2", sigs.clone(), c2).unwrap();
        let top = Cover::from_cubes(vec![
            Cube::parse(&[(0, true), (1, true)]),
            Cube::parse(&[(2, true)]),
        ]);
        let f = n.add_node("f", vec![g1, g2, sigs[4]], top).unwrap();
        n.mark_output(f).unwrap();
        let (opt, _) = script_rugged(&n, &SisParams::default()).unwrap();
        assert_eq!(verify(&n, &opt, 1_000_000).unwrap(), Verdict::Equivalent);
    }
}
