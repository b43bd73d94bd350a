//! Array multipliers — the paper's `m2x2 … m64x64` workloads (Table II);
//! `m16x16` is also the structural class of ISCAS'85 C6288.

#![expect(
    clippy::expect_used,
    reason = "fixed-size generator circuits on an unlimited manager; node creation cannot fail"
)]

use bds_network::Network;

use crate::builder::Builder;

/// An `n×m` unsigned array multiplier: inputs `a0..a{n-1}`, `b0..b{m-1}`;
/// outputs `p0..p{n+m-1}`.
///
/// Built exactly like the classic carry-save array: an AND-gate partial
/// product matrix reduced row by row with full/half adders.
pub fn multiplier(n: usize, m: usize) -> Network {
    let mut bld = Builder::new(format!("m{n}x{m}"));
    let a = bld.inputs("a", n);
    let b = bld.inputs("b", m);
    // Partial products per output column.
    let mut columns: Vec<Vec<bds_network::SignalId>> = vec![Vec::new(); n + m];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            let pp = bld.and2(ai, bj);
            columns[i + j].push(pp);
        }
    }
    // Column compression: reduce each column with full/half adders,
    // pushing carries into the next column.
    for col in 0..n + m {
        while columns[col].len() > 1 {
            if columns[col].len() >= 3 {
                let x = columns[col].pop().expect("len>=3");
                let y = columns[col].pop().expect("len>=3");
                let z = columns[col].pop().expect("len>=3");
                let (s, c) = bld.full_adder(x, y, z);
                columns[col].push(s);
                columns[col + 1].push(c);
            } else {
                let x = columns[col].pop().expect("len==2");
                let y = columns[col].pop().expect("len==2");
                let (s, c) = bld.half_adder(x, y);
                columns[col].push(s);
                columns[col + 1].push(c);
            }
        }
        let bit = columns[col].first().copied();
        match bit {
            Some(sig) => bld.output(format!("p{col}"), sig),
            None => {
                let zero = bld.constant(false);
                bld.output(format!("p{col}"), zero);
            }
        }
    }
    bld.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_mult(n: usize, m: usize) {
        let net = multiplier(n, m);
        for av in 0..1u64 << n {
            for bv in 0..1u64 << m {
                let mut inputs = Vec::new();
                for i in 0..n {
                    inputs.push(av >> i & 1 == 1);
                }
                for i in 0..m {
                    inputs.push(bv >> i & 1 == 1);
                }
                let out = net.eval(&inputs).unwrap();
                let want = av * bv;
                for (i, &bit) in out.iter().enumerate() {
                    assert_eq!(bit, want >> i & 1 == 1, "bit {i} of {av}×{bv}");
                }
            }
        }
    }

    #[test]
    fn m2x2_exhaustive() {
        check_mult(2, 2);
    }

    #[test]
    fn m4x4_exhaustive() {
        check_mult(4, 4);
    }

    #[test]
    fn m3x5_rectangular() {
        check_mult(3, 5);
    }

    #[test]
    fn size_grows_quadratically() {
        let s4 = multiplier(4, 4).stats().nodes;
        let s8 = multiplier(8, 8).stats().nodes;
        assert!(
            s8 > 3 * s4,
            "array multiplier area is quadratic: {s4} vs {s8}"
        );
    }
}
