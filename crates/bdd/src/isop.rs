//! Minato–Morreale irredundant sum-of-products extraction.

use crate::hash::FastMap;

use crate::cube::Cube;
use crate::edge::Edge;
use crate::manager::Manager;
use crate::Result;

impl Manager {
    /// Computes an irredundant sum-of-products cover `c` of the incompletely
    /// specified function bounded by `lower ⊆ c ⊆ upper` (Minato–Morreale
    /// ISOP). Returns the cover's cubes together with the BDD of the cover.
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
    pub fn isop(&mut self, lower: Edge, upper: Edge) -> Result<(Vec<Cube>, Edge)> {
        debug_assert!(
            self.ite_is(lower, upper, Edge::ONE, Edge::ONE),
            "isop requires lower ⊆ upper"
        );
        let mut memo = FastMap::default();
        self.isop_rec(lower, upper, &mut memo)
    }

    fn isop_rec(
        &mut self,
        l: Edge,
        u: Edge,
        memo: &mut FastMap<(Edge, Edge), (Vec<Cube>, Edge)>,
    ) -> Result<(Vec<Cube>, Edge)> {
        if l.is_zero() {
            return Ok((Vec::new(), Edge::ZERO));
        }
        if u.is_one() {
            return Ok((vec![Cube::top()], Edge::ONE));
        }
        if let Some(r) = memo.get(&(l, u)) {
            return Ok(r.clone());
        }
        let level = self.node_level(l).min(self.node_level(u));
        let var = self.var_at(level);
        let (l1, l0) = self.cofactors_at(l, level);
        let (u1, u0) = self.cofactors_at(u, level);

        // Cubes that must contain the negative literal of `var`:
        // cover the part of l0 not coverable under u1.
        let l0_only = self.and_not(l0, u1)?;
        let (c0, b0) = self.isop_rec(l0_only, u0, memo)?;
        // Cubes that must contain the positive literal.
        let l1_only = self.and_not(l1, u0)?;
        let (c1, b1) = self.isop_rec(l1_only, u1, memo)?;
        // What remains to be covered, var-independently.
        let l0_rest = self.and_not(l0, b0)?;
        let l1_rest = self.and_not(l1, b1)?;
        let l_rest = self.or(l0_rest, l1_rest)?;
        let u_common = self.and(u0, u1)?;
        let (cd, bd) = self.isop_rec(l_rest, u_common, memo)?;

        let mut cubes = Vec::with_capacity(c0.len() + c1.len() + cd.len());
        cubes.extend(c0.iter().map(|c| c.with_lit(var, false)));
        cubes.extend(c1.iter().map(|c| c.with_lit(var, true)));
        cubes.extend(cd.iter().cloned());
        let lit = self.literal_level(level)?;
        let vb0 = self.ite(lit, Edge::ZERO, b0)?;
        let vb1 = self.ite(lit, b1, Edge::ZERO)?;
        let mut cover = self.or(vb0, vb1)?;
        cover = self.or(cover, bd)?;
        let r = (cubes, cover);
        memo.insert((l, u), r.clone());
        Ok(r)
    }

    /// The positive literal of the variable at `level` (helper that avoids
    /// borrowing issues in ISOP). Fallible so a budget or injected fault
    /// tripping mid-extraction surfaces as an `Err`, not a panic.
    fn literal_level(&mut self, level: u32) -> Result<Edge> {
        let var = self.var_at(level);
        self.literal_checked(var, true)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Edge, Manager};

    /// Checks isop(f, f) covers exactly f for a pool of functions.
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
            let (cubes, cover) = m.isop(f, f).unwrap();
            assert_eq!(cover, f, "cover must equal the function exactly");
            let rebuilt = m.sum_of_cubes(&cubes).unwrap();
            assert_eq!(rebuilt, f, "cube list must rebuild the function");
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
        let (cubes, cover) = m.isop(ab, aorb).unwrap();
        assert!(m.leq(ab, cover).unwrap());
        assert!(m.leq(cover, aorb).unwrap());
        assert_eq!(cubes.len(), 1);
        assert_eq!(cubes[0].len(), 1);
    }

    #[test]
    fn isop_cube_count_is_irredundant_for_xor() {
        let mut m = Manager::new();
        let vars = m.new_vars(2);
        let la = m.literal(vars[0], true);
        let lb = m.literal(vars[1], true);
        let x = m.xor(la, lb).unwrap();
        let (cubes, _) = m.isop(x, x).unwrap();
        assert_eq!(cubes.len(), 2); // a·b̄ + ā·b
    }
}
