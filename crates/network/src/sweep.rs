//! The `sweep` pass: initial redundancy removal (paper §IV-A).
//!
//! "The first step … is the removal of initial redundancy from the Boolean
//! network using procedure sweep. … In addition to removing constant and
//! single-variable nodes, all functionally equivalent nodes are also
//! identified and removed."
//!
//! Most nodes are already clean, so the common outcome of each sub-pass
//! is "nothing changed": [`Cover::is_simplified`] and `prune_is_noop`
//! decide that without allocating, a node of at most six distinct fanins
//! is keyed by a truth table, and all dedup passes of one call share one
//! scratch manager for wider nodes (DESIGN.md, "`sweep` no-change paths").
//!
//! The per-node rules are free items, [`prune_fanins`],
//! [`single_literal`] and [`FunctionKeys`], so that a writer that emits
//! nodes already swept (the BDS stitch) applies the same policy.

use std::hash::{Hash, Hasher};

use bds_bdd::{FastMap, Manager, Var};
use bds_sop::{BitCube, Cover, Cube};

use crate::error::NetworkError;
use crate::invariants::STRICT_CHECKS;
use crate::network::{Network, SignalId};
use crate::Result;

impl Network {
    /// Runs sweep to fixpoint: local-cover simplification, constant
    /// propagation, buffer collapsing, double-inverter elimination and
    /// duplicate-node removal. Returns the number of rewrites performed.
    ///
    /// Primary outputs always keep their driving node (possibly reduced to
    /// a buffer/constant) so their names survive — matching SIS behaviour.
    ///
    /// # Errors
    /// [`NetworkError::Inconsistent`] if the network was structurally
    /// corrupt going in (a rewrite found a node or cover in a state the
    /// pass's own invariants rule out); [`NetworkError::Cycle`] if a
    /// rewrite would close a combinational cycle. A healthy network never
    /// produces either.
    pub fn sweep(&mut self) -> Result<usize> {
        let _span = bds_trace::span!("net.sweep");
        // Dedup scratch shared by every pass of this call.
        let mut keys = FunctionKeys::default();
        let mut total = 0;
        loop {
            let mut changed = 0;
            changed += self.simplify_covers()?;
            changed += self.propagate_constants()?;
            changed += self.collapse_buffers()?;
            changed += self.dedup_equivalent_nodes(&mut keys)?;
            if changed == 0 {
                break;
            }
            total += changed;
        }
        bds_trace::counter_add!("net.sweep.rewrites", total as u64);
        self.audit()?;
        Ok(total)
    }

    fn node_checked(&self, sig: SignalId) -> Result<(&[SignalId], &Cover)> {
        self.node(sig).ok_or_else(|| NetworkError::Inconsistent {
            detail: format!("`{}` is not an internal node", self.signal_name(sig)),
        })
    }

    fn simplify_covers(&mut self) -> Result<usize> {
        let mut changed = 0;
        for sig in self.node_ids() {
            let (fanins, cover) = self.node_checked(sig)?;
            if !cover.is_simplified() {
                // The predicate is exact, so `simplify` changes the cover.
                let simplified = cover.simplify();
                let fanins = fanins.to_vec();
                self.replace_node(sig, fanins, simplified)?;
                changed += 1;
            } else if STRICT_CHECKS && cover.simplify() != *cover {
                return Err(NetworkError::Inconsistent {
                    detail: format!(
                        "`is_simplified` passed the cover of `{}` but `simplify` changes it",
                        self.signal_name(sig)
                    ),
                });
            }
            // Drop fanins the cover no longer mentions.
            changed += self.prune_unused_fanins(sig)?;
        }
        Ok(changed)
    }

    /// Applies [`prune_fanins`] to node `sig`; returns 1 if it changed.
    fn prune_unused_fanins(&mut self, sig: SignalId) -> Result<usize> {
        let Some((fanins, cover)) = self.node(sig) else {
            return Ok(0);
        };
        let Some((fanins, cover)) = prune_fanins(fanins, cover) else {
            return Ok(0);
        };
        self.replace_node(sig, fanins, cover)?;
        Ok(1)
    }

    /// Folds constant nodes into their fanouts.
    fn propagate_constants(&mut self) -> Result<usize> {
        let mut changed = 0;
        let node_ids = self.node_ids();
        for sig in node_ids {
            let Some((fanins, cover)) = self.node(sig) else {
                continue;
            };
            if !fanins.is_empty() {
                continue;
            }
            let value = !cover.is_empty();
            // Substitute into every fanout.
            for fo in self.fanouts(sig).to_vec() {
                let (fo_fanins, fo_cover) = self.node_checked(fo)?;
                let pos = fo_fanins.iter().position(|&f| f == sig).ok_or_else(|| {
                    NetworkError::Inconsistent {
                        detail: format!(
                            "fanout map lists `{}` under `{}` but the fanin list disagrees",
                            self.signal_name(fo),
                            self.signal_name(sig)
                        ),
                    }
                })? as u32;
                let new_cover = fo_cover.cofactor_lit(pos, value);
                let fo_fanins = fo_fanins.to_vec();
                self.replace_node(fo, fo_fanins, new_cover)?;
                self.prune_unused_fanins(fo)?;
                changed += 1;
            }
        }
        Ok(changed)
    }

    /// Re-points uses of buffer nodes (`f = x`) to their source, and
    /// rewrites inverter-of-inverter as a buffer first.
    fn collapse_buffers(&mut self) -> Result<usize> {
        let mut changed = 0;
        for sig in self.node_ids() {
            let Some((fanins, cover)) = self.node(sig) else {
                continue;
            };
            let Some((source, positive)) = single_literal(fanins, cover) else {
                continue;
            };
            if !positive {
                // Inverter: collapse only chains of two.
                let grand = self.node(source).and_then(|(f, c)| single_literal(f, c));
                if let Some((grand, false)) = grand {
                    self.replace_node(
                        sig,
                        vec![grand],
                        Cover::from_cubes(vec![Cube::lit(0, true)]),
                    )?;
                    changed += 1;
                }
                continue;
            }
            // Buffer: re-point all fanout uses to the source.
            changed += self.replace_uses(sig, source)?;
        }
        Ok(changed)
    }

    /// Replaces every *fanin* use of `old` by `new`. Outputs keep their
    /// driver. Returns the number of nodes rewritten.
    fn replace_uses(&mut self, old: SignalId, new: SignalId) -> Result<usize> {
        let mut changed = 0;
        for fo in self.fanouts(old).to_vec() {
            if fo == new {
                continue;
            }
            let (fanins, cover) = self.node_checked(fo)?;
            let new_fanins: Vec<SignalId> = fanins
                .iter()
                .map(|&f| if f == old { new } else { f })
                .collect();
            let cover = cover.clone();
            match self.replace_node(fo, new_fanins, cover) {
                Ok(()) => {
                    self.prune_unused_fanins(fo)?;
                    changed += 1;
                }
                // `new` depends on `fo`: leave this use in place.
                Err(NetworkError::Cycle { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(changed)
    }

    /// Identifies nodes computing the same function of the same signals
    /// (equal [`FunctionKeys`]) and re-points all uses to the first of
    /// them in topological order.
    ///
    /// `keys` lives for the whole `sweep` call: a key depends neither on
    /// the variable order nor on what the scratch manager built before.
    fn dedup_equivalent_nodes(&mut self, keys: &mut FunctionKeys) -> Result<usize> {
        let mut repr: FastMap<FunctionKey, SignalId> = FastMap::default();
        let mut changed = 0;
        for sig in self.topo_order() {
            let Some((fanins, cover)) = self.node(sig) else {
                continue;
            };
            if fanins.is_empty() {
                continue; // constants handled elsewhere
            }
            let Some(key) = keys.key(fanins.iter().map(|f| f.index()), cover) else {
                continue;
            };
            match repr.get(&key) {
                Some(&r) if r != sig => {
                    changed += self.replace_uses(sig, r)?;
                }
                _ => {
                    repr.insert(key, sig);
                }
            }
        }
        Ok(changed)
    }
}

/// `sweep`'s fanin clean-up of one node whose cover variable `i` is
/// `fanins[i]`: every position of a repeated fanin becomes its first
/// position (cubes that turn contradictory drop out), then the positions
/// the cover does not use are removed and the rest renumbered in order.
/// `None` when that leaves the node as it is.
pub fn prune_fanins<T: Copy + Eq + Hash>(fanins: &[T], cover: &Cover) -> Option<(Vec<T>, Cover)> {
    if prune_is_noop(fanins, cover) {
        return None;
    }
    // Merge duplicate fanin signals: all positions of a signal map to
    // its first position.
    let mut first_pos: FastMap<T, u32> = FastMap::default();
    let pos_map: Vec<u32> = (0..fanins.len())
        .map(|i| *first_pos.entry(fanins[i]).or_insert(i as u32))
        .collect();
    let merged = cover.renumbered(|v| pos_map[v as usize]);
    // Now drop unused positions and renumber.
    let used = merged.support();
    if used.len() == fanins.len() && merged == *cover {
        return None;
    }
    let mut renumber = vec![0u32; fanins.len()];
    for (new, &old) in used.iter().enumerate() {
        renumber[old as usize] = new as u32;
    }
    // Renumbering keeps the order of positions, so no cube changes form.
    let cover = merged.renumbered(|v| renumber[v as usize]);
    let fanins = used.iter().map(|&v| fanins[v as usize]).collect();
    Some((fanins, cover))
}

/// True when [`prune_fanins`] would leave the node as it is: at most 64
/// fanins, pairwise distinct, every position below the fanin count and
/// used by the cover, and the cubes strictly sorted. Then its position
/// map is the identity, the merged cover equals the cover and every
/// position is kept. Allocates nothing; a `false` only means the full
/// check runs.
fn prune_is_noop<T: Eq>(fanins: &[T], cover: &Cover) -> bool {
    let n = fanins.len();
    if n > 64 || (0..n).any(|i| fanins[i + 1..].contains(&fanins[i])) {
        return false;
    }
    let mut used = 0u64;
    for cube in cover.cubes() {
        for &(v, _) in cube.literals() {
            if v as usize >= n {
                return false;
            }
            used |= 1 << v;
        }
    }
    let all = if n == 64 { u64::MAX } else { (1 << n) - 1 };
    used == all && cover.cubes().windows(2).all(|w| w[0] < w[1])
}

/// `Some((source, phase))` when the node is a single literal of its one
/// fanin: a buffer (`phase`) or an inverter (`!phase`), the two forms
/// `sweep` collapses.
pub fn single_literal<T: Copy>(fanins: &[T], cover: &Cover) -> Option<(T, bool)> {
    match (fanins, cover.cubes()) {
        ([source], [cube]) if cube.len() == 1 => Some((*source, cube.literals()[0].1)),
        _ => None,
    }
}

/// Functions of at most this many signals are keyed by a truth table.
const TABLE_VARS: usize = 6;

/// `MASKS[i]`: the rows of a six-variable table where variable `i` is 1.
const MASKS: [u64; TABLE_VARS] = [
    0xaaaa_aaaa_aaaa_aaaa,
    0xcccc_cccc_cccc_cccc,
    0xf0f0_f0f0_f0f0_f0f0,
    0xff00_ff00_ff00_ff00,
    0xffff_0000_ffff_0000,
    0xffff_ffff_0000_0000,
];

/// A [`FunctionKeys`] key: equal exactly when two nodes compute the same
/// function of the same signals.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct FunctionKey(Key);

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Key {
    /// A function of at most [`TABLE_VARS`] signals: the signals it
    /// depends on in ascending order (`u32::MAX` past the last), and its
    /// truth table with signal `i` as variable `i`; the variables past
    /// the last signal do not change it.
    Table([u32; TABLE_VARS], u64),
    /// A wider function: its edge in the scratch manager.
    Edge(u32),
}

impl Hash for FunctionKey {
    /// Three words for either kind: the table (or edge) and the signals
    /// folded pairwise. Equal keys hash equally; `Eq` tells the rest apart.
    fn hash<H: Hasher>(&self, h: &mut H) {
        let (s, word) = match self.0 {
            Key::Table(s, table) => (s, table),
            Key::Edge(e) => ([u32::MAX; TABLE_VARS], u64::from(e)),
        };
        let pair = |i: usize| u64::from(s[i]) | u64::from(s[i + 1]) << 32;
        h.write_u64(word);
        h.write_u64(pair(0));
        h.write_u64(pair(2) ^ pair(4).rotate_left(16));
    }
}

/// Keys for `sweep`'s duplicate search: two nodes compute the same
/// function of the same signals exactly when their keys are equal.
///
/// A node with at most six distinct fanins is keyed by the `u64` truth
/// table of its function over the signals it depends on. A wider node is
/// built as a BDD in a scratch manager (a variable per signal, numbered by
/// the caller); if that depends on at most six signals it gets the same
/// table, so a function of given signals has one key on either path.
#[derive(Default)]
pub struct FunctionKeys {
    scratch: Manager,
    var_of: Vec<Option<Var>>,
    /// The fanin signals of the node being keyed, and their variables.
    signals: Vec<u32>,
    vars: Vec<Var>,
}

impl FunctionKeys {
    /// The key of `cover` over the signals `fanins` (cover variable `i`
    /// is the `i`-th). `None` when a signal number exceeds `u32::MAX` or
    /// the scratch manager cannot build the node; `sweep` then leaves the
    /// node out of the search.
    pub fn key(
        &mut self,
        fanins: impl IntoIterator<Item = usize>,
        cover: &Cover,
    ) -> Option<FunctionKey> {
        self.signals.clear();
        for s in fanins {
            self.signals.push(u32::try_from(s).ok()?);
        }
        let cubes = || cover.cubes().iter().map(|c| c.literals().iter().copied());
        match self.support() {
            Some((support, k)) => self.table_key(&support[..k], cubes),
            None => self.edge_key(cover),
        }
        .map(FunctionKey)
    }

    /// [`FunctionKeys::key`] of the cover made of `cubes` (variable `i` is
    /// `fanins[i]`), computed without building it. `None` when the
    /// fanins hold more than six distinct signals.
    pub fn key_of_bits(&mut self, fanins: &[u32], cubes: &[BitCube]) -> Option<FunctionKey> {
        self.signals.clear();
        self.signals.extend_from_slice(fanins);
        let (support, k) = self.support()?;
        self.table_key(&support[..k], || cubes.iter().map(|c| c.literals()))
            .map(FunctionKey)
    }

    /// The distinct fanin signals in ascending order and their number,
    /// or `None` when there are more than six.
    fn support(&self) -> Option<([u32; TABLE_VARS], usize)> {
        let mut support = [u32::MAX; TABLE_VARS];
        let mut k = 0;
        for &s in &self.signals {
            if let Err(at) = support[..k].binary_search(&s) {
                if k == TABLE_VARS {
                    return None;
                }
                support.copy_within(at..k, at + 1);
                support[at] = s;
                k += 1;
            }
        }
        Some((support, k))
    }

    /// The table key of the cover whose cubes' literals `cubes` lists,
    /// over its distinct fanin signals `support`: the signals whose two
    /// cofactors differ, and the table over them.
    fn table_key<C, L>(&self, support: &[u32], cubes: impl Fn() -> C) -> Option<Key>
    where
        C: Iterator<Item = L>,
        L: Iterator<Item = (u32, bool)>,
    {
        let k = support.len();
        let table = self.table(cubes(), support)?;
        // Drop the signals whose two cofactors are equal.
        let mut used = [u32::MAX; TABLE_VARS];
        let mut n = 0;
        for (i, &s) in support.iter().enumerate() {
            if ((table >> (1 << i)) ^ table) & !MASKS[i] != 0 {
                used[n] = s;
                n += 1;
            }
        }
        let table = if n == k {
            table
        } else {
            self.table(cubes(), &used[..n])?
        };
        Some(Key::Table(used, table))
    }

    /// The key of a node with more than six distinct fanins.
    fn edge_key(&mut self, cover: &Cover) -> Option<Key> {
        self.vars.clear();
        for &s in &self.signals {
            let s = s as usize;
            if self.var_of.len() <= s {
                self.var_of.resize(s + 1, None);
            }
            let scratch = &mut self.scratch;
            self.vars
                .push(*self.var_of[s].get_or_insert_with(|| scratch.new_var(String::new())));
        }
        let edge = crate::global::cover_to_bdd(&mut self.scratch, cover, &self.vars).ok()?;
        let vars = self.scratch.support(edge);
        if vars.len() > TABLE_VARS {
            return Some(Key::Edge(edge.raw()));
        }
        let mut support = [u32::MAX; TABLE_VARS];
        for (slot, v) in support.iter_mut().zip(&vars) {
            *slot = self.signals[self.vars.iter().position(|w| w == v)?];
        }
        support.sort_unstable();
        let cubes = cover.cubes().iter().map(|c| c.literals().iter().copied());
        Some(Key::Table(
            support,
            self.table(cubes, &support[..vars.len()])?,
        ))
    }

    /// The truth table of the cover whose cubes' literals `cubes` lists,
    /// with signal `support[i]` as variable `i` and every other fanin at
    /// 0: the node's function when it does not depend on those.
    fn table(
        &self,
        cubes: impl Iterator<Item = impl Iterator<Item = (u32, bool)>>,
        support: &[u32],
    ) -> Option<u64> {
        let mut table = 0;
        for cube in cubes {
            let mut product = u64::MAX;
            for (v, phase) in cube {
                let s = *self.signals.get(v as usize)?;
                let mask = support.binary_search(&s).map_or(0, |r| MASKS[r]);
                product &= if phase { mask } else { !mask };
            }
            table |= product;
        }
        Some(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit_cover(pos: u32, phase: bool) -> Cover {
        Cover::from_cubes(vec![Cube::lit(pos, phase)])
    }

    #[test]
    fn constant_propagation() {
        let mut n = Network::new("t");
        let a = n.add_input("a").unwrap();
        let one = n.add_constant("one", true).unwrap();
        // f = a · one
        let f = n
            .add_node(
                "f",
                vec![a, one],
                Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])]),
            )
            .unwrap();
        n.mark_output(f).unwrap();
        n.sweep().unwrap();
        let (fanins, cover) = n.node(f).unwrap();
        assert_eq!(fanins, &[a]);
        assert_eq!(cover, &lit_cover(0, true));
        assert_eq!(n.eval(&[true]).unwrap(), vec![true]);
    }

    #[test]
    fn buffer_chain_collapses() {
        let mut n = Network::new("t");
        let a = n.add_input("a").unwrap();
        let b1 = n.add_node("b1", vec![a], lit_cover(0, true)).unwrap();
        let b2 = n.add_node("b2", vec![b1], lit_cover(0, true)).unwrap();
        let f = n.add_node("f", vec![b2], lit_cover(0, false)).unwrap();
        n.mark_output(f).unwrap();
        n.sweep().unwrap();
        let (fanins, _) = n.node(f).unwrap();
        assert_eq!(fanins, &[a], "f should read the input directly");
        assert_eq!(n.eval(&[true]).unwrap(), vec![false]);
    }

    #[test]
    fn double_inverter_becomes_buffer() {
        let mut n = Network::new("t");
        let a = n.add_input("a").unwrap();
        let i1 = n.add_node("i1", vec![a], lit_cover(0, false)).unwrap();
        let i2 = n.add_node("i2", vec![i1], lit_cover(0, false)).unwrap();
        let f = n
            .add_node(
                "f",
                vec![i2, a],
                Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])]),
            )
            .unwrap();
        n.mark_output(f).unwrap();
        n.sweep().unwrap();
        let (fanins, cover) = n.node(f).unwrap();
        // i2 == a, and the duplicate-fanin merge reduces f to a buffer of a.
        assert_eq!(fanins, &[a]);
        assert_eq!(cover, &lit_cover(0, true));
    }

    #[test]
    fn duplicates_merged() {
        let mut n = Network::new("t");
        let a = n.add_input("a").unwrap();
        let b = n.add_input("b").unwrap();
        let and = Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])]);
        let g1 = n.add_node("g1", vec![a, b], and.clone()).unwrap();
        let g2 = n.add_node("g2", vec![a, b], and).unwrap();
        let f = n
            .add_node(
                "f",
                vec![g1, g2],
                Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])]),
            )
            .unwrap();
        n.mark_output(f).unwrap();
        n.sweep().unwrap();
        let (fanins, cover) = n.node(f).unwrap();
        assert_eq!(
            fanins.len(),
            1,
            "duplicate AND gates must merge: {fanins:?}"
        );
        assert_eq!(cover.literal_count(), 1);
        let c = n.compacted().unwrap();
        assert_eq!(c.node_count(), 2); // one AND + the buffer f
    }

    #[test]
    fn sweep_preserves_function() {
        let mut n = Network::new("t");
        let a = n.add_input("a").unwrap();
        let b = n.add_input("b").unwrap();
        let c = n.add_input("c").unwrap();
        let one = n.add_constant("k1", true).unwrap();
        let nand = Cover::from_cubes(vec![Cube::parse(&[(0, false)]), Cube::parse(&[(1, false)])]);
        let g1 = n.add_node("g1", vec![a, b], nand.clone()).unwrap();
        let g2 = n
            .add_node(
                "g2",
                vec![g1, one],
                Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])]),
            )
            .unwrap();
        let g3 = n.add_node("g3", vec![g2, c], nand).unwrap();
        n.mark_output(g3).unwrap();
        let before: Vec<Vec<bool>> = (0..8)
            .map(|bits| {
                n.eval(&[(bits & 1) == 1, (bits >> 1 & 1) == 1, (bits >> 2 & 1) == 1])
                    .unwrap()
            })
            .collect();
        n.sweep().unwrap();
        for (bits, want) in before.iter().enumerate() {
            let bits = bits as u32;
            let got = n
                .eval(&[(bits & 1) == 1, (bits >> 1 & 1) == 1, (bits >> 2 & 1) == 1])
                .unwrap();
            assert_eq!(&got, want);
        }
    }
}
