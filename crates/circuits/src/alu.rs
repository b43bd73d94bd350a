//! A small ALU — the C880/dalu circuit class (mixed arithmetic and
//! control logic).

use bds_network::Network;

use crate::builder::Builder;

/// An `n`-bit ALU with a 2-bit opcode: `00` → `a+b`, `01` → `a·b`,
/// `10` → `a+b (bitwise or)`, `11` → `a⊕b`. Inputs `a0..`, `b0..`,
/// `op0`, `op1`; outputs `r0..r{n-1}`, `cout` (valid for the add op).
pub fn alu(bits: usize) -> Network {
    let mut bld = Builder::new(format!("alu{bits}"));
    let a = bld.inputs("a", bits);
    let b = bld.inputs("b", bits);
    let op0 = bld.input("op0");
    let op1 = bld.input("op1");
    let mut carry = bld.constant(false);
    for i in 0..bits {
        let (sum, c) = bld.full_adder(a[i], b[i], carry);
        carry = c;
        let and = bld.and2(a[i], b[i]);
        let or = bld.or2(a[i], b[i]);
        let xor = bld.xor2(a[i], b[i]);
        // op1 selects between {add, and} and {or, xor}; op0 picks within.
        let lo = bld.mux2(op0, and, sum);
        let hi = bld.mux2(op0, xor, or);
        let r = bld.mux2(op1, hi, lo);
        bld.output(format!("r{i}"), r);
    }
    bld.output("cout", carry);
    bld.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_ops() {
        let bits = 4;
        let net = alu(bits);
        for av in 0..16u64 {
            for bv in 0..16u64 {
                for op in 0..4u32 {
                    let mut inputs = Vec::new();
                    for i in 0..bits {
                        inputs.push(av >> i & 1 == 1);
                    }
                    for i in 0..bits {
                        inputs.push(bv >> i & 1 == 1);
                    }
                    inputs.push(op & 1 == 1);
                    inputs.push(op >> 1 & 1 == 1);
                    let out = net.eval(&inputs).unwrap();
                    let want = match op {
                        0 => av + bv,
                        1 => av & bv,
                        2 => av | bv,
                        _ => av ^ bv,
                    };
                    #[expect(clippy::needless_range_loop, reason = "`i` is the bit under test")]
                    for i in 0..bits {
                        assert_eq!(out[i], want >> i & 1 == 1, "op {op} bit {i} of {av},{bv}");
                    }
                    if op == 0 {
                        assert_eq!(out[bits], want >> bits & 1 == 1, "cout of {av}+{bv}");
                    }
                }
            }
        }
    }
}
