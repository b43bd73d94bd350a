//! The `sweep` pass: initial redundancy removal (paper §IV-A).
//!
//! "The first step … is the removal of initial redundancy from the Boolean
//! network using procedure sweep. … In addition to removing constant and
//! single-variable nodes, all functionally equivalent nodes are also
//! identified and removed."
//!
//! Most nodes are already clean, so the common outcome of each sub-pass
//! is "nothing changed": [`Cover::is_simplified`] and `prune_is_noop`
//! decide that without allocating, and all dedup passes of one call share
//! one scratch manager (DESIGN.md, "`sweep` no-change paths").

use std::collections::HashMap;

use bds_bdd::{Manager, Var};
use bds_sop::{Cover, Cube};

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
        // Dedup scratch shared by every pass of this call. Sweep never
        // adds signals, so the variable map's length is fixed.
        let mut scratch = Manager::new();
        let mut var_of: Vec<Option<Var>> = vec![None; self.signals.len()];
        let mut total = 0;
        loop {
            let mut changed = 0;
            changed += self.simplify_covers()?;
            changed += self.propagate_constants()?;
            changed += self.collapse_buffers()?;
            changed += self.dedup_equivalent_nodes(&mut scratch, &mut var_of)?;
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

    /// Removes fanins whose position never occurs in the cover, and
    /// merges duplicate fanin signals into a single position.
    fn prune_unused_fanins(&mut self, sig: SignalId) -> Result<usize> {
        let Some((fanins, cover)) = self.node(sig) else {
            return Ok(0);
        };
        if Self::prune_is_noop(fanins, cover) {
            return Ok(0);
        }
        let fanins = fanins.to_vec();
        let cover = cover.clone();
        // Merge duplicate fanin signals: all positions of a signal map to
        // its first position.
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
                    self.signal_name(sig)
                ),
            })?;
            new_cubes.push(cube);
        }
        let new_cover = Cover::from_cubes(new_cubes);
        let new_fanins: Vec<SignalId> = keep.iter().map(|&i| fanins[i]).collect();
        self.replace_node(sig, new_fanins, new_cover)?;
        Ok(1)
    }

    /// True when [`Network::prune_unused_fanins`] would leave the node
    /// as it is: at most 64 fanins, pairwise distinct, every position
    /// below the fanin count and used by the cover, and the cubes
    /// strictly sorted. Then its position map is the identity, the merged
    /// cover equals the cover and every position is kept. Allocates
    /// nothing; a `false` only means the full check runs.
    fn prune_is_noop(fanins: &[SignalId], cover: &Cover) -> bool {
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
            if fanins.len() != 1 || cover.len() != 1 || cover.cubes()[0].len() != 1 {
                continue;
            }
            let source = fanins[0];
            let positive = cover.cubes()[0].literals()[0].1;
            if !positive {
                // Inverter: collapse only chains of two.
                if let Some((src_fanins, src_cover)) = self.node(source) {
                    let src_is_inv = src_fanins.len() == 1
                        && src_cover.len() == 1
                        && src_cover.cubes()[0].len() == 1
                        && !src_cover.cubes()[0].literals()[0].1;
                    if src_is_inv {
                        let grand = src_fanins[0];
                        self.replace_node(
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
    /// (via canonical local BDDs in a scratch manager) and re-points all
    /// uses to one representative.
    ///
    /// `scratch` and `var_of` (one variable per signal, created on first
    /// use) live for the whole `sweep` call: two nodes merge exactly when
    /// their canonical BDDs are equal, which depends neither on the
    /// variable order nor on what the manager built before.
    fn dedup_equivalent_nodes(
        &mut self,
        scratch: &mut Manager,
        var_of: &mut [Option<Var>],
    ) -> Result<usize> {
        let mut repr: HashMap<u32, SignalId> = HashMap::new();
        let mut vars: Vec<Var> = Vec::new();
        let mut changed = 0;
        for sig in self.topo_order() {
            let Some((fanins, cover)) = self.node(sig) else {
                continue;
            };
            if fanins.is_empty() {
                continue; // constants handled elsewhere
            }
            vars.clear();
            for &f in fanins {
                vars.push(*var_of[f.index()].get_or_insert_with(|| scratch.new_var(String::new())));
            }
            let Ok(edge) = crate::global::cover_to_bdd(scratch, cover, &vars) else {
                continue;
            };
            match repr.get(&edge.raw()) {
                Some(&r) if r != sig => {
                    changed += self.replace_uses(sig, r)?;
                }
                _ => {
                    repr.insert(edge.raw(), sig);
                }
            }
        }
        Ok(changed)
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
