//! Minato–Morreale irredundant sum-of-products extraction, recorded as
//! a DAG with one record per memo entry whose cubes are handed out only
//! on demand, so a caller that compares literal counts visits no cube.

use crate::hash::FastMap;

use crate::edge::{Edge, Var};
use crate::manager::Manager;
use crate::Result;

/// Record id of the empty cover (constant false).
const EMPTY: u32 = 0;
/// Record id of the cover holding the one empty cube (constant true).
const TOP: u32 = 1;

/// One ISOP recursion step: the cubes of `kids[0]` with `var`'s negative
/// literal, then those of `kids[1]` with its positive literal, then those
/// of `kids[2]` as they are.
#[derive(Copy, Clone, Debug)]
struct Record {
    var: Var,
    kids: [u32; 3],
    cubes: usize,
    lits: usize,
}

/// An irredundant sum-of-products cover as recorded by
/// [`Manager::isop_record`]: its cube and literal counts are known at
/// once, its cubes are handed out by [`Isop::for_each_cube`].
#[derive(Clone, Debug)]
pub struct Isop {
    /// Ids [`EMPTY`] and [`TOP`] hold the two leaves.
    records: Vec<Record>,
    root: u32,
}

impl Isop {
    /// Number of cubes in the cover.
    pub fn cube_count(&self) -> usize {
        self.records[self.root as usize].cubes
    }

    /// Total number of literals over all cubes.
    pub fn literal_count(&self) -> usize {
        self.records[self.root as usize].lits
    }

    /// Hands each cube's literals, as `(variable, phase)` pairs sorted by
    /// variable, to `f`: at each step the cubes with the variable's
    /// negative literal, then those with its positive literal, then the
    /// cubes without it.
    pub fn for_each_cube(&self, mut f: impl FnMut(&[(Var, bool)])) {
        self.write(self.root, &mut Vec::new(), &mut Vec::new(), &mut f);
    }

    fn write<F: FnMut(&[(Var, bool)])>(
        &self,
        id: u32,
        path: &mut Vec<(Var, bool)>,
        sorted: &mut Vec<(Var, bool)>,
        f: &mut F,
    ) {
        match id {
            EMPTY => {}
            TOP => {
                sorted.clone_from(path);
                sorted.sort_unstable_by_key(|&(v, _)| v);
                f(sorted);
            }
            _ => {
                let r = self.records[id as usize];
                for (kid, phase) in [(r.kids[0], false), (r.kids[1], true)] {
                    path.push((r.var, phase));
                    self.write(kid, path, sorted, f);
                    path.pop();
                }
                self.write(r.kids[2], path, sorted, f);
            }
        }
    }
}

impl Manager {
    /// Computes an irredundant sum-of-products cover `c` of the incompletely
    /// specified function bounded by `lower ⊆ c ⊆ upper` (Minato–Morreale
    /// ISOP). Returns the recorded cover, whose counts are free and whose
    /// cubes are handed out on demand, together with the BDD of the cover.
    ///
    /// With `lower == upper` this is an ISOP of a completely specified
    /// function — how factoring-tree leaves and BLIF node functions are
    /// emitted in the BDS flow.
    ///
    /// # Errors
    /// [`crate::BddError::NodeLimit`] if the node limit is hit.
    ///
    /// # Panics
    /// Debug-asserts `lower ⊆ upper`; in release an inconsistent pair
    /// yields an unspecified (but well-formed) cover.
    pub fn isop_record(&mut self, lower: Edge, upper: Edge) -> Result<(Isop, Edge)> {
        debug_assert!(
            self.ite_is(lower, upper, Edge::ONE, Edge::ONE),
            "isop requires lower ⊆ upper"
        );
        let leaf = |cubes| Record {
            var: Var::from_index(0),
            kids: [EMPTY; 3],
            cubes,
            lits: 0,
        };
        let mut records = vec![leaf(0), leaf(1)];
        let mut memo = FastMap::default();
        let (root, cover) = self.isop_rec(lower, upper, &mut records, &mut memo)?;
        Ok((Isop { records, root }, cover))
    }

    fn isop_rec(
        &mut self,
        l: Edge,
        u: Edge,
        records: &mut Vec<Record>,
        memo: &mut FastMap<(Edge, Edge), (u32, Edge)>,
    ) -> Result<(u32, Edge)> {
        if l.is_zero() {
            return Ok((EMPTY, Edge::ZERO));
        }
        if u.is_one() {
            return Ok((TOP, Edge::ONE));
        }
        if let Some(&r) = memo.get(&(l, u)) {
            return Ok(r);
        }
        let level = self.node_level(l).min(self.node_level(u));
        let var = self.var_at(level);
        let (l1, l0) = self.cofactors_at(l, level);
        let (u1, u0) = self.cofactors_at(u, level);

        // Cubes that must contain the negative literal of `var`:
        // cover the part of l0 not coverable under u1.
        let l0_only = self.and_not(l0, u1)?;
        let (c0, b0) = self.isop_rec(l0_only, u0, records, memo)?;
        // Cubes that must contain the positive literal.
        let l1_only = self.and_not(l1, u0)?;
        let (c1, b1) = self.isop_rec(l1_only, u1, records, memo)?;
        // What remains to be covered, var-independently.
        let l0_rest = self.and_not(l0, b0)?;
        let l1_rest = self.and_not(l1, b1)?;
        let l_rest = self.or(l0_rest, l1_rest)?;
        let u_common = self.and(u0, u1)?;
        let (cd, bd) = self.isop_rec(l_rest, u_common, records, memo)?;

        let [r0, r1, rd] = [c0, c1, cd].map(|id| records[id as usize]);
        let id = records.len() as u32;
        records.push(Record {
            var,
            kids: [c0, c1, cd],
            cubes: r0.cubes + r1.cubes + rd.cubes,
            lits: r0.lits + r0.cubes + r1.lits + r1.cubes + rd.lits,
        });
        // Fallible, so that a budget or an injected fault tripping here
        // surfaces as an `Err`.
        let lit = self.literal_checked(var, true)?;
        let vb0 = self.ite(lit, Edge::ZERO, b0)?;
        let vb1 = self.ite(lit, b1, Edge::ZERO)?;
        let mut cover = self.or(vb0, vb1)?;
        cover = self.or(cover, bd)?;
        memo.insert((l, u), (id, cover));
        Ok((id, cover))
    }
}

#[cfg(test)]
mod tests {
    use crate::{Edge, Isop, Manager};

    /// The sum of the cubes `isop` hands out, rebuilt in `m`.
    fn rebuild(m: &mut Manager, isop: &Isop) -> Edge {
        let mut cubes = Vec::new();
        isop.for_each_cube(|lits| cubes.push(lits.to_vec()));
        let mut sum = Edge::ZERO;
        for lits in cubes {
            let mut cube = Edge::ONE;
            for (v, p) in lits {
                let lit = m.literal(v, p);
                cube = m.and(cube, lit).unwrap();
            }
            sum = m.or(sum, cube).unwrap();
        }
        sum
    }

    #[test]
    fn isop_exactly_covers() {
        let mut m = Manager::new();
        let vars = m.new_vars(4);
        let lits: Vec<Edge> = vars.iter().map(|&v| m.literal(v, true)).collect();
        let ab = m.and(lits[0], lits[1]).unwrap();
        let cd = m.and(lits[2], lits[3]).unwrap();
        let f1 = m.or(ab, cd).unwrap();
        let f2 = m.xor(lits[0], lits[1]).unwrap();
        let x = m.xor(f2, lits[2]).unwrap();
        for f in [f1, f2, x, f1.complement(), Edge::ONE, Edge::ZERO] {
            let (isop, cover) = m.isop_record(f, f).unwrap();
            assert_eq!(cover, f, "cover must equal the function exactly");
            assert_eq!(rebuild(&mut m, &isop), f, "cubes must rebuild the function");
        }
    }

    #[test]
    fn isop_uses_dont_cares() {
        let mut m = Manager::new();
        let vars = m.new_vars(2);
        let la = m.literal(vars[0], true);
        let lb = m.literal(vars[1], true);
        let ab = m.and(la, lb).unwrap();
        let aorb = m.or(la, lb).unwrap();
        // Interval [a·b, a+b]: a single-literal cover exists.
        let (isop, cover) = m.isop_record(ab, aorb).unwrap();
        assert!(m.leq(ab, cover).unwrap());
        assert!(m.leq(cover, aorb).unwrap());
        assert_eq!((isop.cube_count(), isop.literal_count()), (1, 1));
    }

    #[test]
    fn isop_cube_count_is_irredundant_for_xor() {
        let mut m = Manager::new();
        let vars = m.new_vars(2);
        let la = m.literal(vars[0], true);
        let lb = m.literal(vars[1], true);
        let x = m.xor(la, lb).unwrap();
        let (isop, _) = m.isop_record(x, x).unwrap();
        assert_eq!(isop.cube_count(), 2); // a·b̄ + ā·b
    }
}
