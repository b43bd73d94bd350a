//! Technology decomposition: Boolean network → NAND2/INV subject graph.
//!
//! Each network node is factored algebraically and expanded into NAND2
//! and INV primitives, with structural hashing (double inverters cancel,
//! identical nodes merge). Two- and three-input nodes whose truth tables
//! are XOR/XNOR/MUX are expanded into the *canonical* NAND trees of those
//! functions so the tree mapper can recover the corresponding cells —
//! when the tree is not broken by multi-fanout, which mirrors the SIS
//! mapper behaviour the paper reports (only a fraction of XORs survive).

use std::collections::HashMap;
use std::sync::Arc;

use bds_bdd::FastMap;
use bds_network::{Network, NetworkError};
use bds_sop::factor::factor;
use bds_sop::{Cover, Expr};

/// A subject-graph node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SNode {
    /// Primary input (with its network name, shared with the network).
    Pi(Arc<str>),
    /// Constant true/false.
    Const(bool),
    /// Inverter.
    Inv(u32),
    /// 2-input NAND.
    Nand(u32, u32),
}

/// A structurally-hashed NAND2/INV subject graph.
#[derive(Clone, Debug, Default)]
pub struct Subject {
    nodes: Vec<SNode>,
    hash: FastMap<(u8, u32, u32), u32>,
    outputs: Vec<(u32, Arc<str>)>,
}

impl Subject {
    /// Technology-decomposes a network.
    ///
    /// # Errors
    /// Never fails for well-formed networks; the `Result` guards against
    /// internal inconsistencies surfaced as [`NetworkError`].
    pub fn from_network(net: &Network) -> Result<Subject, NetworkError> {
        let mut s = Subject::default();
        let order = net.topo_order();
        // Subject node of each signal, indexed by `SignalId::index`.
        let mut of_signal = vec![u32::MAX; order.len()];
        for &i in net.inputs() {
            of_signal[i.index()] = s.push(SNode::Pi(net.shared_name(i)));
        }
        // A partitioned network repeats a handful of small covers many
        // times over, so each distinct `(fanin count, cover)` is planned
        // once per call: `plan_of[n]` maps a cover over `n` fanins to its
        // index in `plans`.
        let mut plan_of: Vec<FastMap<Cover, usize>> = Vec::new();
        let mut plans: Vec<Plan> = Vec::new();
        let mut fanin_nodes: Vec<u32> = Vec::new();
        for sig in order {
            if net.is_input(sig) {
                continue;
            }
            #[expect(clippy::expect_used, reason = "guarded: inputs are skipped above")]
            let (fanins, cover) = net.node(sig).expect("non-input");
            fanin_nodes.clear();
            fanin_nodes.extend(fanins.iter().map(|f| of_signal[f.index()]));
            let n = fanins.len();
            if plan_of.len() <= n {
                plan_of.resize_with(n + 1, FastMap::default);
            }
            let at = match plan_of[n].get(cover) {
                Some(&at) => at,
                None => {
                    plans.push(Plan::of(cover, n));
                    plan_of[n].insert(cover.clone(), plans.len() - 1);
                    plans.len() - 1
                }
            };
            of_signal[sig.index()] = s.emit_plan(&plans[at], &fanin_nodes);
        }
        for &o in net.outputs() {
            s.outputs.push((of_signal[o.index()], net.shared_name(o)));
        }
        Ok(s)
    }

    /// The nodes, index-addressed.
    pub fn nodes(&self) -> &[SNode] {
        &self.nodes
    }

    /// Output references `(node, name)`.
    pub fn outputs(&self) -> &[(u32, Arc<str>)] {
        &self.outputs
    }

    fn push(&mut self, n: SNode) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(n);
        id
    }

    /// Structurally-hashed constant.
    pub fn constant(&mut self, v: bool) -> u32 {
        let key = (0u8, v as u32, 0);
        if let Some(&id) = self.hash.get(&key) {
            return id;
        }
        let id = self.push(SNode::Const(v));
        self.hash.insert(key, id);
        id
    }

    /// Structurally-hashed inverter (cancels double inversion and folds
    /// constants).
    pub fn inv(&mut self, a: u32) -> u32 {
        match self.nodes[a as usize] {
            SNode::Inv(b) => return b,
            SNode::Const(v) => return self.constant(!v),
            _ => {}
        }
        let key = (1u8, a, 0);
        if let Some(&id) = self.hash.get(&key) {
            return id;
        }
        let id = self.push(SNode::Inv(a));
        self.hash.insert(key, id);
        id
    }

    /// Structurally-hashed NAND2 (commutative normalization + constant
    /// folding).
    pub fn nand(&mut self, a: u32, b: u32) -> u32 {
        if let SNode::Const(v) = self.nodes[a as usize] {
            return if v { self.inv(b) } else { self.constant(true) };
        }
        if let SNode::Const(v) = self.nodes[b as usize] {
            return if v { self.inv(a) } else { self.constant(true) };
        }
        if a == b {
            return self.inv(a);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let key = (2u8, a, b);
        if let Some(&id) = self.hash.get(&key) {
            return id;
        }
        let id = self.push(SNode::Nand(a, b));
        self.hash.insert(key, id);
        id
    }

    /// AND via NAND + INV.
    pub fn and(&mut self, a: u32, b: u32) -> u32 {
        let n = self.nand(a, b);
        self.inv(n)
    }

    /// OR via NAND over inverters.
    pub fn or(&mut self, a: u32, b: u32) -> u32 {
        let (na, nb) = (self.inv(a), self.inv(b));
        self.nand(na, nb)
    }

    /// Canonical XOR tree (3×NAND + 2×INV form matched by the `xor2`
    /// pattern).
    pub fn xor(&mut self, a: u32, b: u32) -> u32 {
        let nb = self.inv(b);
        let na = self.inv(a);
        let l = self.nand(a, nb);
        let r = self.nand(na, b);
        self.nand(l, r)
    }

    /// Canonical XNOR tree (inverter-free top: `nand(nand(a,b),
    /// nand(ā,b̄))`), so XNOR chains keep their cell boundaries.
    pub fn xnor(&mut self, a: u32, b: u32) -> u32 {
        let na = self.inv(a);
        let nb = self.inv(b);
        let l = self.nand(a, b);
        let r = self.nand(na, nb);
        self.nand(l, r)
    }

    /// Canonical MUX tree `ite(s, h, l)`.
    pub fn mux(&mut self, s: u32, h: u32, l: u32) -> u32 {
        let ns = self.inv(s);
        let top = self.nand(s, h);
        let bot = self.nand(ns, l);
        self.nand(top, bot)
    }

    /// Emits a planned node over already-built fanin nodes.
    fn emit_plan(&mut self, plan: &Plan, fanins: &[u32]) -> u32 {
        match plan {
            Plan::Const(v) => self.constant(*v),
            Plan::Xor => self.xor(fanins[0], fanins[1]),
            Plan::Xnor => self.xnor(fanins[0], fanins[1]),
            &Plan::Mux {
                s,
                h,
                l,
                cs,
                ch,
                cl,
            } => {
                let mut sel = fanins[s];
                if cs {
                    sel = self.inv(sel);
                }
                let mut hi = fanins[h];
                if ch {
                    hi = self.inv(hi);
                }
                let mut lo = fanins[l];
                if cl {
                    lo = self.inv(lo);
                }
                self.mux(sel, hi, lo)
            }
            Plan::Factored(expr) => self.emit_expr(expr, fanins),
        }
    }

    fn emit_expr(&mut self, expr: &Expr, fanins: &[u32]) -> u32 {
        match expr {
            Expr::Const(v) => self.constant(*v),
            Expr::Lit(v, p) => {
                let base = fanins[*v as usize];
                if *p {
                    base
                } else {
                    self.inv(base)
                }
            }
            Expr::And(xs) => {
                let ids: Vec<u32> = xs.iter().map(|x| self.emit_expr(x, fanins)).collect();
                self.balanced(&ids, true)
            }
            Expr::Or(xs) => {
                let ids: Vec<u32> = xs.iter().map(|x| self.emit_expr(x, fanins)).collect();
                self.balanced(&ids, false)
            }
        }
    }

    /// Balanced binary reduction (keeps mapped depth low).
    fn balanced(&mut self, ids: &[u32], is_and: bool) -> u32 {
        match ids.len() {
            0 => self.constant(is_and),
            1 => ids[0],
            _ => {
                let mid = ids.len() / 2;
                let l = self.balanced(&ids[..mid], is_and);
                let r = self.balanced(&ids[mid..], is_and);
                if is_and {
                    self.and(l, r)
                } else {
                    self.or(l, r)
                }
            }
        }
    }

    /// Evaluates the subject graph under a PI assignment keyed by name.
    pub fn eval(&self, assignment: &HashMap<&str, bool>) -> Vec<bool> {
        let mut val = vec![false; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            val[i] = match n {
                SNode::Pi(name) => assignment[&**name],
                SNode::Const(v) => *v,
                SNode::Inv(a) => !val[*a as usize],
                SNode::Nand(a, b) => !(val[*a as usize] && val[*b as usize]),
            };
        }
        self.outputs.iter().map(|&(n, _)| val[n as usize]).collect()
    }
}

/// How technology decomposition expands one node, decided from its
/// fanin count and cover alone.
#[derive(Clone, Debug, PartialEq)]
enum Plan {
    /// An empty cover (false) or one with a unit cube (true).
    Const(bool),
    /// Two inputs, `x0 ⊕ x1`: the canonical XOR tree.
    Xor,
    /// Two inputs, `x0 ⊙ x1`: the canonical XNOR tree.
    Xnor,
    /// Three inputs, `ite(x_s ⊕ cs, x_h ⊕ ch, x_l ⊕ cl)`: the canonical
    /// MUX tree.
    Mux {
        s: usize,
        h: usize,
        l: usize,
        cs: bool,
        ch: bool,
        cl: bool,
    },
    /// Anything else: the algebraically factored cover.
    Factored(Expr),
}

impl Plan {
    /// Recognizes XOR/XNOR/MUX truth tables on up to three fanins and
    /// falls back to algebraic factoring. The first matching MUX shape
    /// in `(s, (h, l), complement mask)` order wins.
    fn of(cover: &Cover, n: usize) -> Plan {
        if cover.is_empty() {
            return Plan::Const(false);
        }
        if cover.has_unit_cube() {
            return Plan::Const(true);
        }
        if n == 2 {
            match truth_table(cover, n) {
                0b0110 => return Plan::Xor,
                0b1001 => return Plan::Xnor,
                _ => {}
            }
        }
        if n == 3 {
            let tt = truth_table(cover, n);
            for s in 0..3usize {
                let (r0, r1) = match s {
                    0 => (1, 2),
                    1 => (0, 2),
                    _ => (0, 1),
                };
                for (h, l) in [(r0, r1), (r1, r0)] {
                    for mask in 0..8u8 {
                        let (cs, ch, cl) = (mask & 1 != 0, mask & 2 != 0, mask & 4 != 0);
                        let mut want = 0u64;
                        for bits in 0..8u32 {
                            let vs = (bits >> s & 1 == 1) ^ cs;
                            let vh = (bits >> h & 1 == 1) ^ ch;
                            let vl = (bits >> l & 1 == 1) ^ cl;
                            if if vs { vh } else { vl } {
                                want |= 1 << bits;
                            }
                        }
                        if want == tt {
                            return Plan::Mux {
                                s,
                                h,
                                l,
                                cs,
                                ch,
                                cl,
                            };
                        }
                    }
                }
            }
        }
        Plan::Factored(factor(cover))
    }
}

/// Truth table of a cover over `n ≤ 6` positional variables: bit `m`
/// is the value at the minterm whose variable `i` is bit `i` of `m`.
fn truth_table(cover: &Cover, n: usize) -> u64 {
    debug_assert!(n <= 6);
    /// Minterms where variable `i` is true.
    const VAR: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    let all = u64::MAX >> (64 - (1u32 << n));
    cover.cubes().iter().fold(0, |tt, cube| {
        tt | cube.literals().iter().fold(all, |m, &(v, p)| {
            let var = VAR[v as usize];
            m & if p { var } else { !var }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_network::SignalId;
    use bds_sop::Cube;

    fn net_with(cover: Cover, n: usize) -> Network {
        let mut net = Network::new("t");
        let ins: Vec<SignalId> = (0..n)
            .map(|i| net.add_input(format!("i{i}")).unwrap())
            .collect();
        let f = net.add_node("f", ins, cover).unwrap();
        net.mark_output(f).unwrap();
        net
    }

    fn check_subject(net: &Network, n: usize) {
        let s = Subject::from_network(net).unwrap();
        for bits in 0..1u32 << n {
            let assign: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            let want = net.eval(&assign).unwrap();
            let names: Vec<String> = (0..n).map(|i| format!("i{i}")).collect();
            let by_name: HashMap<&str, bool> = names
                .iter()
                .map(String::as_str)
                .zip(assign.iter().copied())
                .collect();
            let got = s.eval(&by_name);
            assert_eq!(got, want, "at {assign:?}");
        }
    }

    #[test]
    fn xor_canonical_tree() {
        let cover = Cover::from_cubes(vec![
            Cube::parse(&[(0, true), (1, false)]),
            Cube::parse(&[(0, false), (1, true)]),
        ]);
        let net = net_with(cover, 2);
        let s = Subject::from_network(&net).unwrap();
        check_subject(&net, 2);
        // XOR canonical form: 2 PIs + 2 INV + 3 NAND = 7 nodes.
        assert_eq!(s.nodes().len(), 7);
    }

    #[test]
    fn mux_recognized() {
        // ite(i0, i1, i2)
        let cover = Cover::from_cubes(vec![
            Cube::parse(&[(0, true), (1, true)]),
            Cube::parse(&[(0, false), (2, true)]),
        ]);
        let net = net_with(cover, 3);
        check_subject(&net, 3);
        let s = Subject::from_network(&net).unwrap();
        // 3 PIs + INV(s) + 3 NANDs = 7 nodes.
        assert_eq!(s.nodes().len(), 7);
    }

    #[test]
    fn random_covers_sound() {
        let mut seed = 12345u64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..15 {
            let n = 4;
            let mut cubes = Vec::new();
            for _ in 0..3 + rnd() % 3 {
                let mut lits = Vec::new();
                for v in 0..n {
                    match rnd() % 3 {
                        0 => lits.push((v as u32, true)),
                        1 => lits.push((v as u32, false)),
                        _ => {}
                    }
                }
                if let Some(c) = Cube::new(lits) {
                    cubes.push(c);
                }
            }
            if cubes.is_empty() {
                continue;
            }
            let net = net_with(Cover::from_cubes(cubes), n);
            check_subject(&net, n);
        }
    }

    #[test]
    fn structural_hashing_shares() {
        let mut s = Subject::default();
        let a = s.push(SNode::Pi("a".into()));
        let b = s.push(SNode::Pi("b".into()));
        let n1 = s.nand(a, b);
        let n2 = s.nand(b, a);
        assert_eq!(n1, n2, "commutative normalization");
        let i1 = s.inv(n1);
        assert_eq!(s.inv(i1), n1, "double inverter cancels");
        let c = s.constant(true);
        assert_eq!(s.nand(a, c), s.inv(a), "nand with constant folds");
    }
}
