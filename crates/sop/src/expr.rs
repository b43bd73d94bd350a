//! Factored-form expression trees.

use std::fmt;

use crate::cover::Cover;
use crate::cube::Cube;

/// A factored Boolean expression over `u32`-indexed variables.
///
/// Produced by [`factor::factor`](crate::factor::factor); the literal
/// count of the factored form is SIS's quality measure for a network node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// Constant true/false.
    Const(bool),
    /// A literal `(variable, phase)`.
    Lit(u32, bool),
    /// Conjunction of factors.
    And(Vec<Expr>),
    /// Disjunction of terms.
    Or(Vec<Expr>),
}

impl Expr {
    /// Number of literal leaves — the factored-form cost.
    pub fn literal_count(&self) -> usize {
        match self {
            Expr::Const(_) => 0,
            Expr::Lit(..) => 1,
            Expr::And(xs) | Expr::Or(xs) => xs.iter().map(Expr::literal_count).sum(),
        }
    }

    /// Expression depth (a proxy for pre-mapping delay).
    pub fn depth(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Lit(..) => 0,
            Expr::And(xs) | Expr::Or(xs) => 1 + xs.iter().map(Expr::depth).max().unwrap_or(0),
        }
    }

    /// Builds the expression of a single cube.
    pub fn from_cube(cube: &Cube) -> Expr {
        match cube.literals() {
            [] => Expr::Const(true),
            [(v, p)] => Expr::Lit(*v, *p),
            lits => Expr::And(lits.iter().map(|&(v, p)| Expr::Lit(v, p)).collect()),
        }
    }

    /// Builds the flat (unfactored) expression of a cover.
    pub fn from_cover(cover: &Cover) -> Expr {
        match cover.cubes() {
            [] => Expr::Const(false),
            [c] => Expr::from_cube(c),
            cs => Expr::Or(cs.iter().map(Expr::from_cube).collect()),
        }
    }

    /// Multiplies out the expression back into a cover (algebraic
    /// expansion; used to verify factorizations).
    pub fn expand(&self) -> Cover {
        match self {
            Expr::Const(false) => Cover::zero(),
            Expr::Const(true) => Cover::one(),
            Expr::Lit(v, p) => Cover::from_cubes(vec![Cube::lit(*v, *p)]),
            Expr::Or(xs) => xs.iter().fold(Cover::zero(), |acc, x| acc.or(&x.expand())),
            Expr::And(xs) => xs.iter().fold(Cover::one(), |acc, x| acc.and(&x.expand())),
        }
    }

    /// Evaluates under a total assignment indexed by variable.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        match self {
            Expr::Const(b) => *b,
            Expr::Lit(v, p) => assignment[*v as usize] == *p,
            Expr::And(xs) => xs.iter().all(|x| x.eval(assignment)),
            Expr::Or(xs) => xs.iter().any(|x| x.eval(assignment)),
        }
    }

    /// Flattens nested And-of-And / Or-of-Or and drops absorbing or
    /// neutral constants.
    pub fn normalized(self) -> Expr {
        match self {
            Expr::And(xs) => {
                let mut flat = Vec::new();
                for x in xs {
                    match x.normalized() {
                        Expr::Const(true) => {}
                        Expr::Const(false) => return Expr::Const(false),
                        Expr::And(inner) => flat.extend(inner),
                        other => flat.push(other),
                    }
                }
                match flat.len() {
                    0 => Expr::Const(true),
                    #[expect(clippy::expect_used, reason = "guarded: len() == 1")]
                    1 => flat.pop().expect("len checked"),
                    _ => Expr::And(flat),
                }
            }
            Expr::Or(xs) => {
                let mut flat = Vec::new();
                for x in xs {
                    match x.normalized() {
                        Expr::Const(false) => {}
                        Expr::Const(true) => return Expr::Const(true),
                        Expr::Or(inner) => flat.extend(inner),
                        other => flat.push(other),
                    }
                }
                match flat.len() {
                    0 => Expr::Const(false),
                    #[expect(clippy::expect_used, reason = "guarded: len() == 1")]
                    1 => flat.pop().expect("len checked"),
                    _ => Expr::Or(flat),
                }
            }
            other => other,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(b) => write!(f, "{}", if *b { "1" } else { "0" }),
            Expr::Lit(v, p) => write!(f, "{}x{}", if *p { "" } else { "!" }, v),
            Expr::And(xs) => {
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "·")?;
                    }
                    match x {
                        Expr::Or(_) => write!(f, "({x})")?,
                        _ => write!(f, "{x}")?,
                    }
                }
                Ok(())
            }
            Expr::Or(xs) => {
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{x}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_count_and_depth() {
        let e = Expr::And(vec![
            Expr::Lit(0, true),
            Expr::Or(vec![Expr::Lit(1, true), Expr::Lit(2, false)]),
        ]);
        assert_eq!(e.literal_count(), 3);
        assert_eq!(e.depth(), 2);
    }

    #[test]
    fn expand_round_trips() {
        let e = Expr::And(vec![
            Expr::Lit(0, true),
            Expr::Or(vec![Expr::Lit(1, true), Expr::Lit(2, true)]),
        ]);
        let cover = e.expand();
        assert_eq!(cover.len(), 2);
        for bits in 0..8u32 {
            let a: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(e.eval(&a), cover.eval(&a));
        }
    }

    #[test]
    fn normalized_flattens() {
        let e = Expr::And(vec![
            Expr::Const(true),
            Expr::And(vec![Expr::Lit(0, true), Expr::Lit(1, true)]),
        ]);
        assert_eq!(
            e.normalized(),
            Expr::And(vec![Expr::Lit(0, true), Expr::Lit(1, true)])
        );
        let z = Expr::Or(vec![Expr::Const(true), Expr::Lit(0, true)]);
        assert_eq!(z.normalized(), Expr::Const(true));
    }

    #[test]
    fn display_parenthesizes_or_inside_and() {
        let e = Expr::And(vec![
            Expr::Lit(0, true),
            Expr::Or(vec![Expr::Lit(1, true), Expr::Lit(2, true)]),
        ]);
        assert_eq!(e.to_string(), "x0·(x1 + x2)");
    }
}
