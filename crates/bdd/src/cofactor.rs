//! Cofactors, composition and quantification.

use crate::hash::FastMap;

use crate::edge::{Edge, Var};
use crate::manager::Manager;
use crate::Result;

impl Manager {
    /// The cofactor `f|_{var=value}`.
    ///
    /// # Errors
    /// [`crate::BddError::UnknownVar`] if `var` is foreign,
    /// [`crate::BddError::NodeLimit`] if the node limit is hit.
    pub fn cofactor(&mut self, f: Edge, var: Var, value: bool) -> Result<Edge> {
        self.check_var(var)?;
        let level = self.level_of(var);
        let mut memo = FastMap::default();
        self.cofactor_rec(f, level, value, &mut memo)
    }

    fn cofactor_rec(
        &mut self,
        f: Edge,
        level: u32,
        value: bool,
        memo: &mut FastMap<Edge, Edge>,
    ) -> Result<Edge> {
        let fl = self.node_level(f);
        if fl > level {
            // f does not depend on the variable (or is constant).
            return Ok(f);
        }
        if fl == level {
            let (t, e) = self.cofactors_at(f, level);
            return Ok(if value { t } else { e });
        }
        if let Some(&r) = memo.get(&f) {
            return Ok(r);
        }
        let (t, e) = self.cofactors_at(f, fl);
        let rt = self.cofactor_rec(t, level, value, memo)?;
        let re = self.cofactor_rec(e, level, value, memo)?;
        let r = self.mk(fl, rt, re)?;
        memo.insert(f, r);
        Ok(r)
    }

    /// Functional composition `f[var := g]`.
    ///
    /// # Errors
    /// [`crate::BddError::UnknownVar`] if `var` is foreign,
    /// [`crate::BddError::NodeLimit`] if the node limit is hit.
    pub fn compose(&mut self, f: Edge, var: Var, g: Edge) -> Result<Edge> {
        self.check_var(var)?;
        let f1 = self.cofactor(f, var, true)?;
        let f0 = self.cofactor(f, var, false)?;
        self.ite(g, f1, f0)
    }

    /// Existential quantification `∃ vars. f`.
    ///
    /// # Errors
    /// [`crate::BddError::UnknownVar`] / [`crate::BddError::NodeLimit`].
    pub fn exists(&mut self, f: Edge, vars: &[Var]) -> Result<Edge> {
        let mut levels: Vec<u32> = Vec::with_capacity(vars.len());
        for &v in vars {
            self.check_var(v)?;
            levels.push(self.level_of(v));
        }
        levels.sort_unstable();
        let mut memo = FastMap::default();
        self.exists_rec(f, &levels, &mut memo)
    }

    fn exists_rec(
        &mut self,
        f: Edge,
        levels: &[u32],
        memo: &mut FastMap<Edge, Edge>,
    ) -> Result<Edge> {
        let fl = self.node_level(f);
        // Quantified levels entirely above f are irrelevant.
        let levels = {
            let start = levels.partition_point(|&l| l < fl);
            &levels[start..]
        };
        if f.is_const() || levels.is_empty() {
            return Ok(f);
        }
        if let Some(&r) = memo.get(&f) {
            return Ok(r);
        }
        let (t, e) = self.cofactors_at(f, fl);
        let rt = self.exists_rec(t, levels, memo)?;
        let re = self.exists_rec(e, levels, memo)?;
        let r = if levels.first() == Some(&fl) {
            self.or(rt, re)?
        } else {
            self.mk(fl, rt, re)?
        };
        memo.insert(f, r);
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Edge, Manager};

    #[test]
    fn cofactor_of_ite() {
        let mut m = Manager::new();
        let a = m.new_var("a");
        let b = m.new_var("b");
        let c = m.new_var("c");
        let (la, lb, lc) = (m.literal(a, true), m.literal(b, true), m.literal(c, true));
        let f = m.ite(la, lb, lc).unwrap();
        assert_eq!(m.cofactor(f, a, true).unwrap(), lb);
        assert_eq!(m.cofactor(f, a, false).unwrap(), lc);
        // Cofactor w.r.t. a middle variable.
        let f_b1 = m.cofactor(f, b, true).unwrap();
        let expect = m.or(la, lc).unwrap(); // ite(a,1,c) = a + c
        assert_eq!(f_b1, expect);
    }

    #[test]
    fn cofactor_of_independent_var_is_identity() {
        let mut m = Manager::new();
        let a = m.new_var("a");
        let b = m.new_var("b");
        let la = m.literal(a, true);
        let f = la; // depends only on a
        assert_eq!(m.cofactor(f, b, true).unwrap(), f);
        assert_eq!(m.cofactor(f, b, false).unwrap(), f);
    }

    #[test]
    fn compose_substitutes() {
        let mut m = Manager::new();
        let a = m.new_var("a");
        let b = m.new_var("b");
        let c = m.new_var("c");
        let (la, lb, lc) = (m.literal(a, true), m.literal(b, true), m.literal(c, true));
        let f = m.and(la, lb).unwrap(); // a·b
        let g = m.or(lb, lc).unwrap(); // b+c
        let h = m.compose(f, a, g).unwrap(); // (b+c)·b = b
        assert_eq!(h, lb);
    }

    #[test]
    fn exists_and_forall() {
        let mut m = Manager::new();
        let a = m.new_var("a");
        let b = m.new_var("b");
        let (la, lb) = (m.literal(a, true), m.literal(b, true));
        let f = m.and(la, lb).unwrap();
        assert_eq!(m.exists(f, &[a]).unwrap(), lb);
        // ∀a f = ¬∃a ¬f, which exercises `exists` on complement edges.
        let universal =
            |m: &mut Manager, f: Edge, v| m.exists(f.complement(), &[v]).unwrap().complement();
        assert_eq!(universal(&mut m, f, a), Edge::ZERO);
        let g = m.or(la, lb).unwrap();
        assert_eq!(m.exists(g, &[a, b]).unwrap(), Edge::ONE);
        assert_eq!(universal(&mut m, g, a), lb);
    }

    #[test]
    fn quantify_no_vars_is_identity() {
        let mut m = Manager::new();
        let a = m.new_var("a");
        let la = m.literal(a, true);
        assert_eq!(m.exists(la, &[]).unwrap(), la);
    }
}
