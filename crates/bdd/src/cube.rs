//! Product-term (cube) values extracted from BDDs.

use std::fmt;

use crate::edge::{Edge, Var};
use crate::manager::Manager;
use crate::Result;

/// A product term over manager variables: a conjunction of literals
/// (the default, empty cube is the constant-true product).
///
/// Cubes are what [`Manager::isop`](crate::Manager::isop) returns and what
/// the network layer uses to exchange two-level logic with the `bds-sop`
/// algebra.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Cube {
    /// Literals as `(variable, phase)` pairs, sorted by variable index,
    /// each variable appearing at most once.
    lits: Vec<(Var, bool)>,
}

impl Cube {
    /// Builds a cube from literals; sorts and deduplicates.
    ///
    /// Returns `None` if the literals are contradictory (both phases of a
    /// variable present).
    pub fn from_lits(mut lits: Vec<(Var, bool)>) -> Option<Self> {
        lits.sort_unstable_by_key(|&(v, _)| v);
        lits.dedup();
        for w in lits.windows(2) {
            if w[0].0 == w[1].0 {
                return None;
            }
        }
        Some(Cube { lits })
    }

    /// The literals of this cube, sorted by variable.
    pub fn literals(&self) -> &[(Var, bool)] {
        &self.lits
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// True for the constant-true cube.
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// The cube of literals over distinct variables, sorted (used by
    /// ISOP extraction, whose paths never repeat a variable).
    pub(crate) fn sorted(mut lits: Vec<(Var, bool)>) -> Cube {
        lits.sort_unstable_by_key(|&(v, _)| v);
        Cube { lits }
    }

    /// Evaluates the cube under a total assignment indexed by variable.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.lits.iter().all(|&(v, p)| assignment[v.index()] == p)
    }
}

impl Manager {
    /// Builds the BDD of a single cube.
    ///
    /// # Errors
    /// [`crate::BddError::UnknownVar`] / [`crate::BddError::NodeLimit`].
    pub fn cube(&mut self, cube: &Cube) -> Result<Edge> {
        let mut acc = Edge::ONE;
        for &(v, p) in cube.literals() {
            let lit = self.literal_checked(v, p)?;
            acc = self.and(acc, lit)?;
        }
        Ok(acc)
    }

    /// Builds the BDD of a sum of cubes.
    ///
    /// # Errors
    /// [`crate::BddError::UnknownVar`] / [`crate::BddError::NodeLimit`].
    pub fn sum_of_cubes(&mut self, cubes: &[Cube]) -> Result<Edge> {
        let mut acc = Edge::ZERO;
        for c in cubes {
            let cb = self.cube(c)?;
            acc = self.or(acc, cb)?;
        }
        Ok(acc)
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lits.is_empty() {
            return write!(f, "1");
        }
        for (i, (v, p)) in self.lits.iter().enumerate() {
            if i > 0 {
                write!(f, "·")?;
            }
            write!(f, "{}{}", if *p { "" } else { "!" }, v)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contradictory_cube_rejected() {
        let v = Var::from_index(0);
        assert!(Cube::from_lits(vec![(v, true), (v, false)]).is_none());
        assert!(Cube::from_lits(vec![(v, true), (v, true)]).is_some());
    }

    #[test]
    fn cube_bdd_round_trip() {
        let mut m = Manager::new();
        let vars = m.new_vars(3);
        let c = Cube::from_lits(vec![(vars[0], true), (vars[2], false)]).unwrap();
        let e = m.cube(&c).unwrap();
        for bits in 0..8u32 {
            let assign: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(m.eval(e, &assign), c.eval(&assign));
        }
    }

    #[test]
    fn display_forms() {
        let v0 = Var::from_index(0);
        let v1 = Var::from_index(1);
        let c = Cube::from_lits(vec![(v0, true), (v1, false)]).unwrap();
        assert_eq!(c.to_string(), "v0·!v1");
        assert_eq!(Cube::default().to_string(), "1");
    }
}
