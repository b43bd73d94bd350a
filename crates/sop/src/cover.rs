//! Sums of cubes (two-level covers).

use std::collections::BTreeSet;
use std::fmt;

use crate::cube::Cube;

/// A sum of product terms.
///
/// Invariants kept loose: duplicates may exist transiently but every
/// mutating helper finishes with [`Cover::dedup`]-ed content; call
/// [`Cover::simplify`] for containment-minimal form.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Cover {
    cubes: Vec<Cube>,
}

impl Cover {
    /// The empty cover: constant false.
    pub fn zero() -> Self {
        Cover { cubes: Vec::new() }
    }

    /// The tautology cover `{1}`.
    pub fn one() -> Self {
        Cover {
            cubes: vec![Cube::one()],
        }
    }

    /// Builds a cover from cubes (sorted + deduplicated).
    pub fn from_cubes(cubes: Vec<Cube>) -> Self {
        let mut c = Cover { cubes };
        c.dedup();
        c
    }

    /// The cubes, sorted.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of cubes.
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// True for the constant-false cover.
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// True if the cover contains the constant-true cube (and therefore is
    /// the tautology after simplification).
    pub fn has_unit_cube(&self) -> bool {
        self.cubes.iter().any(Cube::is_empty)
    }

    /// Total number of literals — SIS's primary cost function.
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(Cube::len).sum()
    }

    /// All variables appearing in the cover, sorted.
    pub fn support(&self) -> Vec<u32> {
        let set: BTreeSet<u32> = self
            .cubes
            .iter()
            .flat_map(|c| c.literals().iter().map(|&(v, _)| v))
            .collect();
        set.into_iter().collect()
    }

    /// Sorts and removes duplicate cubes.
    pub fn dedup(&mut self) {
        self.cubes.sort();
        self.cubes.dedup();
    }

    /// Adds a cube (no simplification).
    pub fn push(&mut self, cube: Cube) {
        self.cubes.push(cube);
    }

    /// Disjunction of two covers.
    pub fn or(&self, other: &Cover) -> Cover {
        let mut cubes = self.cubes.clone();
        cubes.extend(other.cubes.iter().cloned());
        Cover::from_cubes(cubes)
    }

    /// Product of two covers (cross product of cubes, dropping
    /// contradictions).
    pub fn and(&self, other: &Cover) -> Cover {
        let mut cubes = Vec::new();
        for a in &self.cubes {
            for b in &other.cubes {
                if let Some(p) = a.product(b) {
                    cubes.push(p);
                }
            }
        }
        Cover::from_cubes(cubes)
    }

    /// Multiplies every cube by `cube`.
    pub fn times_cube(&self, cube: &Cube) -> Cover {
        let cubes = self.cubes.iter().filter_map(|c| c.product(cube)).collect();
        Cover::from_cubes(cubes)
    }

    /// The algebraic cofactor with respect to literal `(var, phase)`:
    /// cubes containing the opposite literal are dropped, the literal is
    /// stripped from the rest.
    pub fn cofactor_lit(&self, var: u32, phase: bool) -> Cover {
        let cubes = self
            .cubes
            .iter()
            .filter(|c| c.phase_of(var) != Some(!phase))
            .map(|c| c.without_var(var))
            .collect();
        Cover::from_cubes(cubes)
    }

    /// This cover with each position `v` renamed `map(v)`: cubes that
    /// become contradictory drop out, and the rest are sorted and
    /// deduplicated as by [`Cover::from_cubes`].
    pub fn renumbered(&self, map: impl Fn(u32) -> u32) -> Cover {
        let rename = |c: &Cube| Cube::new(c.literals().iter().map(|&(v, p)| (map(v), p)).collect());
        self.cubes.iter().filter_map(rename).collect()
    }

    /// Single-cube containment minimization only: drops cubes covered by
    /// another cube. Function-preserving and purely algebraic — the
    /// canonical pre-pass for kernel enumeration and factoring.
    pub fn scc_minimal(&self) -> Cover {
        let mut cubes = self.cubes.clone();
        cubes.sort();
        cubes.dedup();
        let snapshot = cubes.clone();
        cubes.retain(|c| !snapshot.iter().any(|d| d != c && d.subsumes(c)));
        Cover::from_cubes(cubes)
    }

    /// True exactly when [`Cover::simplify`] would return this cover
    /// unchanged: the cubes are strictly sorted, no cube subsumes
    /// another, and no two cubes over the same variables differ in the
    /// phase of exactly one. Allocates nothing.
    ///
    /// Each failing condition makes `simplify` re-sort, drop a cube or
    /// merge two, so its result differs; when none fails, its first
    /// iteration is an identity.
    pub fn is_simplified(&self) -> bool {
        let cubes = &self.cubes;
        if cubes.windows(2).any(|w| w[0] >= w[1]) {
            return false;
        }
        for (i, c) in cubes.iter().enumerate() {
            for d in &cubes[i + 1..] {
                if c.subsumes(d) || d.subsumes(c) {
                    return false;
                }
                let distance_one = c.len() == d.len()
                    && c.conflict_count(d) == 1
                    && c.literals()
                        .iter()
                        .zip(d.literals())
                        .all(|(a, b)| a.0 == b.0);
                if distance_one {
                    return false;
                }
            }
        }
        true
    }

    /// Single-cube containment minimization followed by iterated
    /// distance-1 merging (`a·x + a·x̄ = a`) and subsumption removal.
    /// A lightweight stand-in for espresso's `simplify`.
    pub fn simplify(&self) -> Cover {
        let mut cubes = self.cubes.clone();
        loop {
            cubes.sort();
            cubes.dedup();
            // Single-cube containment: drop cubes subsumed by another
            // (ties broken by index so exactly one survivor remains).
            let before = cubes.len();
            let snapshot = cubes.clone();
            cubes.retain(|c| !snapshot.iter().any(|d| d != c && d.subsumes(c)));
            let mut changed = cubes.len() != before;

            // Distance-1 merging over identical variable sets:
            // a·x + a·x̄ → a.
            let mut out: Vec<Cube> = Vec::with_capacity(cubes.len());
            let mut used = vec![false; cubes.len()];
            for i in 0..cubes.len() {
                if used[i] {
                    continue;
                }
                let mut merged_into: Option<Cube> = None;
                for j in i + 1..cubes.len() {
                    if used[j] || cubes[i].len() != cubes[j].len() {
                        continue;
                    }
                    if cubes[i].conflict_count(&cubes[j]) != 1 {
                        continue;
                    }
                    let same_vars = cubes[i]
                        .literals()
                        .iter()
                        .zip(cubes[j].literals())
                        .all(|(a, b)| a.0 == b.0);
                    if !same_vars {
                        continue;
                    }
                    #[expect(clippy::expect_used, reason = "distance-1 cubes differ in one var")]
                    let confl_var = cubes[i]
                        .literals()
                        .iter()
                        .find(|&&(v, p)| cubes[j].phase_of(v) == Some(!p))
                        .map(|&(v, _)| v)
                        .expect("conflict exists");
                    merged_into = Some(cubes[i].without_var(confl_var));
                    used[j] = true;
                    break;
                }
                used[i] = true;
                match merged_into {
                    Some(m) => {
                        changed = true;
                        out.push(m);
                    }
                    None => out.push(cubes[i].clone()),
                }
            }
            if !changed {
                return Cover::from_cubes(out);
            }
            cubes = out;
        }
    }

    /// Evaluates the cover under a total assignment indexed by variable.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.cubes.iter().any(|c| c.eval(assignment))
    }
}

impl fmt::Display for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "0");
        }
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl FromIterator<Cube> for Cover {
    fn from_iter<T: IntoIterator<Item = Cube>>(iter: T) -> Self {
        Cover::from_cubes(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(lits: &[(u32, bool)]) -> Cube {
        Cube::parse(lits)
    }

    #[test]
    fn or_and_literal_count() {
        let f = Cover::from_cubes(vec![c(&[(0, true)]), c(&[(1, true)])]);
        let g = Cover::from_cubes(vec![c(&[(2, true)])]);
        let h = f.or(&g);
        assert_eq!(h.len(), 3);
        assert_eq!(h.literal_count(), 3);
        let p = f.and(&g);
        assert_eq!(p.len(), 2);
        assert_eq!(p.literal_count(), 4);
    }

    #[test]
    fn and_drops_contradictions() {
        let f = Cover::from_cubes(vec![c(&[(0, true)])]);
        let g = Cover::from_cubes(vec![c(&[(0, false)])]);
        assert!(f.and(&g).is_empty());
    }

    #[test]
    fn cofactor_lit_basics() {
        // F = a·b + ā·c + d
        let f = Cover::from_cubes(vec![
            c(&[(0, true), (1, true)]),
            c(&[(0, false), (2, true)]),
            c(&[(3, true)]),
        ]);
        let fa = f.cofactor_lit(0, true);
        assert_eq!(
            fa,
            Cover::from_cubes(vec![c(&[(1, true)]), c(&[(3, true)])])
        );
        let fna = f.cofactor_lit(0, false);
        assert_eq!(
            fna,
            Cover::from_cubes(vec![c(&[(2, true)]), c(&[(3, true)])])
        );
    }

    #[test]
    fn simplify_containment_and_merge() {
        // a + a·b → a ; x·y + x·ȳ → x
        let f = Cover::from_cubes(vec![
            c(&[(0, true)]),
            c(&[(0, true), (1, true)]),
            c(&[(2, true), (3, true)]),
            c(&[(2, true), (3, false)]),
        ]);
        let s = f.simplify();
        assert_eq!(s, Cover::from_cubes(vec![c(&[(0, true)]), c(&[(2, true)])]));
    }

    #[test]
    fn eval_matches_semantics() {
        let f = Cover::from_cubes(vec![c(&[(0, true), (1, false)]), c(&[(2, true)])]);
        assert!(f.eval(&[true, false, false]));
        assert!(f.eval(&[false, true, true]));
        assert!(!f.eval(&[false, true, false]));
        assert!(!Cover::zero().eval(&[]));
        assert!(Cover::one().eval(&[]));
    }

    #[test]
    fn support_is_sorted_unique() {
        let f = Cover::from_cubes(vec![c(&[(5, true), (1, false)]), c(&[(1, true)])]);
        assert_eq!(f.support(), vec![1, 5]);
    }
}
