//! A small gate-level network builder shared by all generators.

#![expect(
    clippy::expect_used,
    reason = "generator builders drive an unlimited manager; node creation cannot fail"
)]

use std::sync::Arc;

use bds_network::{Network, SignalId};
use bds_sop::{Cover, Cube};

/// Fluent construction of gate-level [`Network`]s.
///
/// All gate helpers create fresh internal nodes; panics are impossible
/// for the generator use case (names are fresh, fanins exist by
/// construction), so the API is panic-on-error for ergonomics.
#[derive(Debug)]
pub struct Builder {
    net: Network,
}

impl Builder {
    /// Starts a new network named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Builder {
            net: Network::new(name),
        }
    }

    /// Declares a primary input.
    pub fn input(&mut self, name: impl Into<Arc<str>>) -> SignalId {
        self.net
            .add_input(name)
            .expect("generator names are unique")
    }

    /// Declares `n` inputs named `{prefix}{i}`.
    pub fn inputs(&mut self, prefix: &str, n: usize) -> Vec<SignalId> {
        (0..n).map(|i| self.input(format!("{prefix}{i}"))).collect()
    }

    /// Marks a primary output, giving it `name` via a buffer node.
    pub fn output(&mut self, name: impl Into<Arc<str>>, sig: SignalId) {
        let buf = self
            .net
            .add_node(name, vec![sig], Cover::from_cubes(vec![Cube::lit(0, true)]))
            .expect("generator names are unique");
        self.net.mark_output(buf).expect("valid signal");
    }

    /// Finishes construction.
    pub fn finish(self) -> Network {
        self.net
    }

    fn gate(&mut self, fanins: Vec<SignalId>, cover: Cover) -> SignalId {
        let name = self.net.fresh_name("g");
        self.net.add_node(name, fanins, cover).expect("fresh name")
    }

    /// Constant signal.
    pub fn constant(&mut self, v: bool) -> SignalId {
        let name = self.net.fresh_name("k");
        self.net.add_constant(name, v).expect("fresh name")
    }

    /// Inverter.
    pub fn not(&mut self, a: SignalId) -> SignalId {
        self.gate(vec![a], Cover::from_cubes(vec![Cube::lit(0, false)]))
    }

    /// 2-input AND.
    pub fn and2(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.gate(
            vec![a, b],
            Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])]),
        )
    }

    /// 2-input OR.
    pub fn or2(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.gate(
            vec![a, b],
            Cover::from_cubes(vec![Cube::lit(0, true), Cube::lit(1, true)]),
        )
    }

    /// 2-input XOR.
    pub fn xor2(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.gate(
            vec![a, b],
            Cover::from_cubes(vec![
                Cube::parse(&[(0, true), (1, false)]),
                Cube::parse(&[(0, false), (1, true)]),
            ]),
        )
    }

    /// 2-input XNOR.
    pub fn xnor2(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.gate(
            vec![a, b],
            Cover::from_cubes(vec![
                Cube::parse(&[(0, true), (1, true)]),
                Cube::parse(&[(0, false), (1, false)]),
            ]),
        )
    }

    /// 2:1 multiplexer `ite(sel, hi, lo)`.
    pub fn mux2(&mut self, sel: SignalId, hi: SignalId, lo: SignalId) -> SignalId {
        self.gate(
            vec![sel, hi, lo],
            Cover::from_cubes(vec![
                Cube::parse(&[(0, true), (1, true)]),
                Cube::parse(&[(0, false), (2, true)]),
            ]),
        )
    }

    /// Balanced n-ary AND.
    pub fn and_n(&mut self, xs: &[SignalId]) -> SignalId {
        self.reduce(xs, Builder::and2, true)
    }

    /// Balanced n-ary OR.
    pub fn or_n(&mut self, xs: &[SignalId]) -> SignalId {
        self.reduce(xs, Builder::or2, false)
    }

    /// Balanced n-ary XOR.
    pub fn xor_n(&mut self, xs: &[SignalId]) -> SignalId {
        match xs.len() {
            0 => self.constant(false),
            _ => self.reduce(xs, Builder::xor2, false),
        }
    }

    fn reduce(
        &mut self,
        xs: &[SignalId],
        mut op: impl FnMut(&mut Self, SignalId, SignalId) -> SignalId + Copy,
        empty: bool,
    ) -> SignalId {
        match xs.len() {
            0 => self.constant(empty),
            1 => xs[0],
            _ => {
                let mid = xs.len() / 2;
                let l = self.reduce(&xs[..mid], op, empty);
                let r = self.reduce(&xs[mid..], op, empty);
                op(self, l, r)
            }
        }
    }

    /// Full adder: returns `(sum, carry)`.
    pub fn full_adder(&mut self, a: SignalId, b: SignalId, cin: SignalId) -> (SignalId, SignalId) {
        let axb = self.xor2(a, b);
        let sum = self.xor2(axb, cin);
        let t1 = self.and2(a, b);
        let t2 = self.and2(axb, cin);
        let carry = self.or2(t1, t2);
        (sum, carry)
    }

    /// Half adder: returns `(sum, carry)`.
    pub fn half_adder(&mut self, a: SignalId, b: SignalId) -> (SignalId, SignalId) {
        (self.xor2(a, b), self.and2(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_compute_expected_functions() {
        let mut b = Builder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.input("z");
        let and = b.and2(x, y);
        let or = b.or2(x, y);
        let xor = b.xor2(x, y);
        let xnor = b.xnor2(x, y);
        let mux = b.mux2(x, y, z);
        let not = b.not(x);
        for (i, s) in [and, or, xor, xnor, mux, not].into_iter().enumerate() {
            b.output(format!("o{i}"), s);
        }
        let net = b.finish();
        for bits in 0..8u32 {
            let (vx, vy, vz) = (bits & 1 == 1, bits >> 1 & 1 == 1, bits >> 2 & 1 == 1);
            let out = net.eval(&[vx, vy, vz]).unwrap();
            assert_eq!(out[0], vx && vy);
            assert_eq!(out[1], vx || vy);
            assert_eq!(out[2], vx ^ vy);
            assert_eq!(out[3], !(vx ^ vy));
            assert_eq!(out[4], if vx { vy } else { vz });
            assert_eq!(out[5], !vx);
        }
    }

    #[test]
    fn full_adder_truth_table() {
        let mut b = Builder::new("fa");
        let x = b.input("x");
        let y = b.input("y");
        let c = b.input("c");
        let (s, co) = b.full_adder(x, y, c);
        b.output("s", s);
        b.output("co", co);
        let net = b.finish();
        for bits in 0..8u32 {
            let vals = [bits & 1 == 1, bits >> 1 & 1 == 1, bits >> 2 & 1 == 1];
            let total = vals.iter().filter(|&&v| v).count();
            let out = net.eval(&vals).unwrap();
            assert_eq!(out[0], total % 2 == 1);
            assert_eq!(out[1], total >= 2);
        }
    }

    #[test]
    fn nary_reductions() {
        let mut b = Builder::new("n");
        let xs = b.inputs("x", 5);
        let a = b.and_n(&xs);
        let o = b.or_n(&xs);
        let x = b.xor_n(&xs);
        b.output("a", a);
        b.output("o", o);
        b.output("x", x);
        let net = b.finish();
        for bits in 0..32u32 {
            let vals: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
            let out = net.eval(&vals).unwrap();
            assert_eq!(out[0], vals.iter().all(|&v| v));
            assert_eq!(out[1], vals.iter().any(|&v| v));
            assert_eq!(out[2], vals.iter().filter(|&&v| v).count() % 2 == 1);
        }
    }
}
