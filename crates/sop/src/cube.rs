//! Product terms (cubes) as sorted literal lists.

use std::fmt;

/// A literal: a variable index together with a phase
/// (`true` = positive, `false` = negated).
pub type Lit = (u32, bool);

/// A product term: a conjunction of literals over `u32`-indexed variables.
///
/// Invariant: literals are sorted by variable and no variable appears
/// twice (a cube with both phases of a variable is the constant false and
/// is never represented; constructors return `None` for it).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub struct Cube {
    lits: Vec<Lit>,
}

impl Cube {
    /// The empty cube: constant true.
    pub fn one() -> Self {
        Cube { lits: Vec::new() }
    }

    /// A single-literal cube.
    pub fn lit(var: u32, phase: bool) -> Self {
        Cube {
            lits: vec![(var, phase)],
        }
    }

    /// Builds a cube from literals, sorting and deduplicating.
    ///
    /// Returns `None` when the literals are contradictory.
    pub fn new(mut lits: Vec<Lit>) -> Option<Self> {
        lits.sort_unstable();
        lits.dedup();
        for w in lits.windows(2) {
            if w[0].0 == w[1].0 {
                return None;
            }
        }
        Some(Cube { lits })
    }

    /// Like [`Cube::new`] but panics on contradictory input — convenient
    /// for literals known statically (tests, generators).
    ///
    /// # Panics
    /// Panics if both phases of some variable are present.
    pub fn parse(lits: &[Lit]) -> Self {
        #[expect(clippy::expect_used, reason = "documented panicking test-data helper")]
        Cube::new(lits.to_vec()).expect("contradictory cube literal list")
    }

    /// The literals, sorted by variable index.
    pub fn literals(&self) -> &[Lit] {
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

    /// Phase of `var` in this cube, if present.
    pub fn phase_of(&self, var: u32) -> Option<bool> {
        self.lits
            .binary_search_by_key(&var, |&(v, _)| v)
            .ok()
            .map(|i| self.lits[i].1)
    }

    /// True if this cube contains the literal `(var, phase)`.
    pub fn has_lit(&self, var: u32, phase: bool) -> bool {
        self.phase_of(var) == Some(phase)
    }

    /// Cube product `self · other`; `None` if contradictory.
    pub fn product(&self, other: &Cube) -> Option<Cube> {
        let mut lits = Vec::with_capacity(self.lits.len() + other.lits.len());
        let (mut i, mut j) = (0, 0);
        while i < self.lits.len() && j < other.lits.len() {
            let (a, b) = (self.lits[i], other.lits[j]);
            match a.0.cmp(&b.0) {
                std::cmp::Ordering::Less => {
                    lits.push(a);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    lits.push(b);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    if a.1 != b.1 {
                        return None;
                    }
                    lits.push(a);
                    i += 1;
                    j += 1;
                }
            }
        }
        lits.extend_from_slice(&self.lits[i..]);
        lits.extend_from_slice(&other.lits[j..]);
        Some(Cube { lits })
    }

    /// True if every literal of `self` occurs in `other`
    /// (so `other ⊆ self` as sets of minterms — `self` *covers* `other`).
    pub fn subsumes(&self, other: &Cube) -> bool {
        if self.lits.len() > other.lits.len() {
            return false;
        }
        let mut j = 0;
        for &l in &self.lits {
            loop {
                if j >= other.lits.len() {
                    return false;
                }
                match other.lits[j].0.cmp(&l.0) {
                    std::cmp::Ordering::Less => j += 1,
                    std::cmp::Ordering::Equal => {
                        if other.lits[j].1 != l.1 {
                            return false;
                        }
                        j += 1;
                        break;
                    }
                    std::cmp::Ordering::Greater => return false,
                }
            }
        }
        true
    }

    /// Algebraic cube quotient `self / divisor`: the cube `q` such that
    /// `q · divisor == self`, or `None` if `divisor`'s literals are not a
    /// subset of `self`'s.
    pub fn quotient(&self, divisor: &Cube) -> Option<Cube> {
        if !divisor.subsumes(self) {
            return None;
        }
        let lits = self
            .lits
            .iter()
            .copied()
            .filter(|l| !divisor.lits.contains(l))
            .collect();
        Some(Cube { lits })
    }

    /// Hamming-style distance: number of variables on which the cubes
    /// conflict in phase.
    pub fn conflict_count(&self, other: &Cube) -> usize {
        let mut conflicts = 0;
        let (mut i, mut j) = (0, 0);
        while i < self.lits.len() && j < other.lits.len() {
            match self.lits[i].0.cmp(&other.lits[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if self.lits[i].1 != other.lits[j].1 {
                        conflicts += 1;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        conflicts
    }

    /// Removes `var` from the cube if present (cofactoring helper).
    pub fn without_var(&self, var: u32) -> Cube {
        Cube {
            lits: self
                .lits
                .iter()
                .copied()
                .filter(|&(v, _)| v != var)
                .collect(),
        }
    }

    /// Evaluates under a total assignment indexed by variable.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.lits.iter().all(|&(v, p)| assignment[v as usize] == p)
    }
}

/// A cube over variables `0..8` in two bit masks, cheaper than a [`Cube`]
/// for small gates: bit `v` of `care` when the cube mentions variable
/// `v`, and of `phase` when that literal is positive (`phase ⊆ care`).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct BitCube {
    /// The variables the cube mentions.
    pub care: u8,
    /// The positive ones among them.
    pub phase: u8,
}

impl BitCube {
    /// The literals, sorted by variable.
    pub fn literals(self) -> impl Iterator<Item = Lit> {
        let mut rest = self.care;
        std::iter::from_fn(move || {
            let v = (rest != 0).then(|| rest.trailing_zeros())?;
            rest &= rest - 1;
            Some((v, self.phase >> v & 1 == 1))
        })
    }

    /// As a [`Cube`].
    pub fn to_cube(self) -> Cube {
        Cube {
            lits: self.literals().collect(),
        }
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lits.is_empty() {
            return write!(f, "1");
        }
        for (i, &(v, p)) in self.lits.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}x{}", if p { "" } else { "!" }, v)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contradiction_returns_none() {
        assert!(Cube::new(vec![(1, true), (1, false)]).is_none());
        assert!(Cube::new(vec![(1, true), (1, true)]).is_some());
    }

    #[test]
    fn product_merges_sorted() {
        let a = Cube::parse(&[(0, true), (2, false)]);
        let b = Cube::parse(&[(1, true), (2, false)]);
        let p = a.product(&b).unwrap();
        assert_eq!(p.literals(), &[(0, true), (1, true), (2, false)]);
        let c = Cube::parse(&[(2, true)]);
        assert!(a.product(&c).is_none());
    }

    #[test]
    fn subsumption_and_quotient() {
        let big = Cube::parse(&[(0, true), (1, true), (2, false)]);
        let small = Cube::parse(&[(0, true), (2, false)]);
        assert!(small.subsumes(&big));
        assert!(!big.subsumes(&small));
        let q = big.quotient(&small).unwrap();
        assert_eq!(q, Cube::lit(1, true));
        assert!(small.quotient(&big).is_none());
    }

    #[test]
    fn conflicts_and_eval() {
        let a = Cube::parse(&[(0, true), (1, true)]);
        let b = Cube::parse(&[(0, false), (1, true)]);
        assert_eq!(a.conflict_count(&b), 1);
        assert!(a.eval(&[true, true]));
        assert!(!a.eval(&[false, true]));
        assert!(Cube::one().eval(&[]));
    }
}
