//! Additional circuit families: carry-lookahead adder, decoder,
//! priority encoder, population count and Gray-code converters — used to
//! widen the evaluation suites beyond the paper's core workloads.

#![expect(
    clippy::expect_used,
    reason = "fixed-size generator circuits on an unlimited manager; node creation cannot fail"
)]

use bds_network::Network;

use crate::builder::Builder;

/// An `n`-bit carry-lookahead adder (single-level lookahead): computes
/// all carries as `cᵢ₊₁ = gᵢ + pᵢgᵢ₋₁ + … + pᵢ…p₀·c₀` — wide AND/OR
/// structure instead of the ripple chain. Inputs `a0.. b0.. cin`;
/// outputs `s0.. cout`.
pub fn carry_lookahead_adder(bits: usize) -> Network {
    let mut bld = Builder::new(format!("cla{bits}"));
    let a = bld.inputs("a", bits);
    let b = bld.inputs("b", bits);
    let cin = bld.input("cin");
    let g: Vec<_> = (0..bits).map(|i| bld.and2(a[i], b[i])).collect();
    let p: Vec<_> = (0..bits).map(|i| bld.xor2(a[i], b[i])).collect();
    let mut carries = vec![cin];
    for i in 0..bits {
        // c_{i+1} = g_i + Σ_{j<i} (p_i…p_{j+1}) g_j + p_i…p_0 c_0
        let mut terms = vec![g[i]];
        for j in (0..i).rev() {
            let chain = bld.and_n(&p[j + 1..=i]);
            let t = bld.and2(chain, g[j]);
            terms.push(t);
        }
        let full_chain = bld.and_n(&p[0..=i]);
        let t = bld.and2(full_chain, cin);
        terms.push(t);
        carries.push(bld.or_n(&terms));
    }
    for i in 0..bits {
        let s = bld.xor2(p[i], carries[i]);
        bld.output(format!("s{i}"), s);
    }
    bld.output("cout", carries[bits]);
    bld.finish()
}

/// An `n`-to-`2^n` decoder: output `oK` is high iff the input equals `K`.
pub fn decoder(n: usize) -> Network {
    let mut bld = Builder::new(format!("dec{n}"));
    let ins = bld.inputs("s", n);
    let negs: Vec<_> = ins.iter().map(|&i| bld.not(i)).collect();
    for k in 0..1usize << n {
        let term: Vec<_> = (0..n)
            .map(|i| if k >> i & 1 == 1 { ins[i] } else { negs[i] })
            .collect();
        let o = bld.and_n(&term);
        bld.output(format!("o{k}"), o);
    }
    bld.finish()
}

/// An `n`-input priority encoder: outputs the index of the
/// highest-priority (highest-index) asserted input in binary, plus a
/// `valid` flag.
pub fn priority_encoder(n: usize) -> Network {
    assert!(n >= 2, "priority encoder needs at least 2 inputs");
    let bits = usize::BITS as usize - (n - 1).leading_zeros() as usize;
    let mut bld = Builder::new(format!("prio{n}"));
    let ins = bld.inputs("r", n);
    // grant[i] = r[i] · !r[i+1] · … · !r[n-1]
    let mut grants = Vec::with_capacity(n);
    for i in 0..n {
        let mut term = vec![ins[i]];
        for &above in &ins[i + 1..] {
            term.push(bld.not(above));
        }
        grants.push(bld.and_n(&term));
    }
    for bit in 0..bits {
        let contributors: Vec<_> = (0..n)
            .filter(|&i| i >> bit & 1 == 1)
            .map(|i| grants[i])
            .collect();
        let o = bld.or_n(&contributors);
        bld.output(format!("y{bit}"), o);
    }
    let valid = bld.or_n(&ins);
    bld.output("valid", valid);
    bld.finish()
}

/// An `n`-input population counter: outputs the binary count of asserted
/// inputs using a full-adder compression tree.
pub fn popcount(n: usize) -> Network {
    let mut bld = Builder::new(format!("popcount{n}"));
    let ins = bld.inputs("d", n);
    // Column-compression: bucket of weight-w signals.
    let out_bits = usize::BITS as usize - n.leading_zeros() as usize;
    let mut columns: Vec<Vec<bds_network::SignalId>> = vec![Vec::new(); out_bits + 1];
    columns[0] = ins;
    for w in 0..out_bits {
        while columns[w].len() > 1 {
            if columns[w].len() >= 3 {
                let x = columns[w].pop().expect("len>=3");
                let y = columns[w].pop().expect("len>=3");
                let z = columns[w].pop().expect("len>=3");
                let (s, c) = bld.full_adder(x, y, z);
                columns[w].push(s);
                columns[w + 1].push(c);
            } else {
                let x = columns[w].pop().expect("len==2");
                let y = columns[w].pop().expect("len==2");
                let (s, c) = bld.half_adder(x, y);
                columns[w].push(s);
                columns[w + 1].push(c);
            }
        }
    }
    #[expect(clippy::needless_range_loop, reason = "`w` is the output weight")]
    for w in 0..=out_bits {
        match columns[w].first().copied() {
            Some(sig) => bld.output(format!("c{w}"), sig),
            None => {
                let zero = bld.constant(false);
                bld.output(format!("c{w}"), zero);
            }
        }
    }
    bld.finish()
}

/// Binary → Gray converter (`gᵢ = bᵢ ⊕ bᵢ₊₁`).
pub fn bin_to_gray(bits: usize) -> Network {
    let mut bld = Builder::new(format!("b2g{bits}"));
    let b = bld.inputs("b", bits);
    for i in 0..bits {
        if i + 1 < bits {
            let g = bld.xor2(b[i], b[i + 1]);
            bld.output(format!("g{i}"), g);
        } else {
            bld.output(format!("g{i}"), b[i]);
        }
    }
    bld.finish()
}

/// Gray → binary converter (`bᵢ = gᵢ ⊕ gᵢ₊₁ ⊕ …` — an XOR suffix scan).
pub fn gray_to_bin(bits: usize) -> Network {
    let mut bld = Builder::new(format!("g2b{bits}"));
    let g = bld.inputs("g", bits);
    let mut acc = g[bits - 1];
    let mut outs = vec![acc; bits];
    for i in (0..bits - 1).rev() {
        acc = bld.xor2(g[i], acc);
        outs[i] = acc;
    }
    for (i, &o) in outs.iter().enumerate() {
        bld.output(format!("b{i}"), o);
    }
    bld.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adder::ripple_adder;
    use bds_network::verify::{verify, Verdict};

    #[test]
    fn cla_matches_ripple() {
        // Same interface names ⇒ BDD equivalence check directly.
        let cla = carry_lookahead_adder(5);
        let ripple = ripple_adder(5);
        assert_eq!(
            verify(&cla, &ripple, 1_000_000).unwrap(),
            Verdict::Equivalent
        );
    }

    #[test]
    fn cla_is_shallower_than_ripple() {
        let c = carry_lookahead_adder(12).stats();
        let r = ripple_adder(12).stats();
        assert!(
            c.depth < r.depth,
            "lookahead must cut depth: {c:?} vs {r:?}"
        );
        assert!(c.nodes > r.nodes, "…at an area cost");
    }

    #[test]
    fn decoder_one_hot() {
        let n = 3;
        let net = decoder(n);
        for k in 0..8u32 {
            let ins: Vec<bool> = (0..n).map(|i| k >> i & 1 == 1).collect();
            let out = net.eval(&ins).unwrap();
            for (j, &o) in out.iter().enumerate() {
                assert_eq!(o, j as u32 == k, "decoder({k}) output {j}");
            }
        }
    }

    #[test]
    fn priority_encoder_semantics() {
        let n = 6;
        let net = priority_encoder(n);
        for bits in 0..1u32 << n {
            let ins: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            let out = net.eval(&ins).unwrap();
            let expect_valid = bits != 0;
            let width = out.len() - 1;
            assert_eq!(out[width], expect_valid, "valid for {bits:06b}");
            if expect_valid {
                let top = (31 - bits.leading_zeros()) as usize;
                #[expect(clippy::needless_range_loop, reason = "`b` is the bit under test")]
                for b in 0..width {
                    assert_eq!(out[b], top >> b & 1 == 1, "bit {b} of prio({bits:06b})");
                }
            }
        }
    }

    #[test]
    fn popcount_counts() {
        let n = 7;
        let net = popcount(n);
        for bits in 0..1u32 << n {
            let ins: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            let out = net.eval(&ins).unwrap();
            let want = bits.count_ones();
            for (w, &o) in out.iter().enumerate() {
                assert_eq!(o, want >> w & 1 == 1, "popcount({bits:07b}) bit {w}");
            }
        }
    }

    #[test]
    fn gray_round_trip() {
        let bits = 5;
        let b2g = bin_to_gray(bits);
        let g2b = gray_to_bin(bits);
        for v in 0..1u32 << bits {
            let ins: Vec<bool> = (0..bits).map(|i| v >> i & 1 == 1).collect();
            let gray = b2g.eval(&ins).unwrap();
            let back = g2b.eval(&gray).unwrap();
            assert_eq!(back, ins, "gray round trip of {v:05b}");
            // Adjacent codes differ in exactly one bit.
            if v + 1 < 1 << bits {
                let ins2: Vec<bool> = (0..bits).map(|i| (v + 1) >> i & 1 == 1).collect();
                let gray2 = b2g.eval(&ins2).unwrap();
                let diff = gray.iter().zip(&gray2).filter(|(a, b)| a != b).count();
                assert_eq!(diff, 1, "gray property at {v}");
            }
        }
    }
}
