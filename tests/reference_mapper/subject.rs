//! The old `bds_map::subject`: technology decomposition that re-runs
//! XOR/XNOR/MUX recognition and factoring on every node.

use std::collections::HashMap;

use bds_repro::network::{Network, NetworkError, SignalId};
use bds_repro::sop::factor::factor;
use bds_repro::sop::{Cover, Expr};

/// A subject-graph node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SNode {
    /// Primary input (with its network name).
    Pi(String),
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
    hash: HashMap<(u8, u32, u32), u32>,
    outputs: Vec<(u32, String)>,
}

impl Subject {
    /// Technology-decomposes a network.
    ///
    /// # Errors
    /// Never fails for well-formed networks; the `Result` guards against
    /// internal inconsistencies surfaced as [`NetworkError`].
    pub fn from_network(net: &Network) -> Result<Subject, NetworkError> {
        let mut s = Subject::default();
        let mut of_signal: HashMap<SignalId, u32> = HashMap::new();
        for &i in net.inputs() {
            let id = s.push(SNode::Pi(net.signal_name(i).to_string()));
            of_signal.insert(i, id);
        }
        for sig in net.topo_order() {
            if net.is_input(sig) {
                continue;
            }
            #[expect(clippy::expect_used, reason = "guarded: inputs are skipped above")]
            let (fanins, cover) = net.node(sig).expect("non-input");
            let fanin_nodes: Vec<u32> = fanins.iter().map(|f| of_signal[f]).collect();
            let id = s.emit_cover(cover, &fanin_nodes);
            of_signal.insert(sig, id);
        }
        for &o in net.outputs() {
            s.outputs
                .push((of_signal[&o], net.signal_name(o).to_string()));
        }
        Ok(s)
    }

    /// The nodes, index-addressed.
    pub fn nodes(&self) -> &[SNode] {
        &self.nodes
    }

    /// Output references `(node, name)`.
    pub fn outputs(&self) -> &[(u32, String)] {
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

    /// Emits a node cover over already-built fanin nodes, recognizing
    /// XOR/XNOR/MUX truth tables and falling back to algebraic factoring.
    fn emit_cover(&mut self, cover: &Cover, fanins: &[u32]) -> u32 {
        if cover.is_empty() {
            return self.constant(false);
        }
        if cover.has_unit_cube() {
            return self.constant(true);
        }
        if fanins.len() <= 3 {
            if let Some(id) = self.try_special(cover, fanins) {
                return id;
            }
        }
        let expr = factor(cover);
        self.emit_expr(&expr, fanins)
    }

    fn try_special(&mut self, cover: &Cover, fanins: &[u32]) -> Option<u32> {
        let n = fanins.len();
        let tt = truth_table(cover, n);
        if n == 2 {
            if tt == 0b0110 {
                return Some(self.xor(fanins[0], fanins[1]));
            }
            if tt == 0b1001 {
                return Some(self.xnor(fanins[0], fanins[1]));
            }
        }
        if n == 3 {
            // MUX shapes: ite(x_s ⊕ cs, x_h ⊕ ch, x_l ⊕ cl).
            for s in 0..3usize {
                let rest: Vec<usize> = (0..3).filter(|&i| i != s).collect();
                for &(h, l) in &[(rest[0], rest[1]), (rest[1], rest[0])] {
                    for mask in 0..8u8 {
                        let (cs, ch, cl) = (mask & 1 != 0, mask & 2 != 0, mask & 4 != 0);
                        let mut want = 0u8;
                        for bits in 0..8u32 {
                            let vs = (bits >> s & 1 == 1) ^ cs;
                            let vh = (bits >> h & 1 == 1) ^ ch;
                            let vl = (bits >> l & 1 == 1) ^ cl;
                            if if vs { vh } else { vl } {
                                want |= 1 << bits;
                            }
                        }
                        if u64::from(want) == tt {
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
                            return Some(self.mux(sel, hi, lo));
                        }
                    }
                }
            }
        }
        None
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
}

/// Truth table of a cover over `n ≤ 6` positional variables.
fn truth_table(cover: &Cover, n: usize) -> u64 {
    debug_assert!(n <= 6);
    let mut tt = 0u64;
    for bits in 0..1u32 << n {
        let assign: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        if cover.eval(&assign) {
            tt |= 1 << bits;
        }
    }
    tt
}
