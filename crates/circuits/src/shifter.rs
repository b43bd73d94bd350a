//! Barrel shifters — the paper's `bshift16 … bshift512` workloads
//! (Table II).

use bds_network::Network;

use crate::builder::Builder;

/// A `width`-bit barrel rotator (rotate left by `shamt`): inputs
/// `d0..d{width-1}` and `s0..s{log2(width)-1}`; outputs `o0..`.
///
/// `log₂(width)` MUX stages, stage `k` rotating by `2^k` — the classic
/// MUX-intensive structure of the `bshiftN` benchmarks.
///
/// # Panics
/// Panics unless `width` is a power of two ≥ 2.
pub fn barrel_shifter(width: usize) -> Network {
    assert!(
        width >= 2 && width.is_power_of_two(),
        "width must be a power of two"
    );
    let stages = width.trailing_zeros() as usize;
    let mut b = Builder::new(format!("bshift{width}"));
    let data = b.inputs("d", width);
    let sel = b.inputs("s", stages);
    let mut cur = data;
    for (k, &s) in sel.iter().enumerate() {
        let shift = 1usize << k;
        let mut next = Vec::with_capacity(width);
        for i in 0..width {
            // Rotate left: output i takes input (i - shift) mod width
            // when the stage is active.
            let from = (i + width - shift) % width;
            next.push(b.mux2(s, cur[from], cur[i]));
        }
        cur = next;
    }
    for (i, &o) in cur.iter().enumerate() {
        b.output(format!("o{i}"), o);
    }
    b.finish()
}

/// A logical left shifter (zero fill) of the same structure, for variety
/// in the arithmetic class.
///
/// # Panics
/// Panics unless `width` is a power of two ≥ 2.
pub fn logical_shifter(width: usize) -> Network {
    assert!(
        width >= 2 && width.is_power_of_two(),
        "width must be a power of two"
    );
    let stages = width.trailing_zeros() as usize;
    let mut b = Builder::new(format!("lshift{width}"));
    let data = b.inputs("d", width);
    let sel = b.inputs("s", stages);
    let zero = b.constant(false);
    let mut cur = data;
    for (k, &s) in sel.iter().enumerate() {
        let shift = 1usize << k;
        let mut next = Vec::with_capacity(width);
        for i in 0..width {
            let src = if i >= shift { cur[i - shift] } else { zero };
            next.push(b.mux2(s, src, cur[i]));
        }
        cur = next;
    }
    for (i, &o) in cur.iter().enumerate() {
        b.output(format!("o{i}"), o);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotate_semantics() {
        let width = 8;
        let net = barrel_shifter(width);
        let stages = 3;
        for value in [0b1011_0001u64, 0b0000_0001, 0b1111_0000] {
            for sh in 0..width {
                let mut inputs = Vec::new();
                for i in 0..width {
                    inputs.push(value >> i & 1 == 1);
                }
                for k in 0..stages {
                    inputs.push(sh >> k & 1 == 1);
                }
                let out = net.eval(&inputs).unwrap();
                #[expect(clippy::needless_range_loop, reason = "`i` is the bit under test")]
                for i in 0..width {
                    let src = (i + width - sh) % width;
                    assert_eq!(
                        out[i],
                        value >> src & 1 == 1,
                        "rot {sh} bit {i} of {value:08b}"
                    );
                }
            }
        }
    }

    #[test]
    fn logical_shift_zero_fills() {
        let width = 4;
        let net = logical_shifter(width);
        for value in 0..16u64 {
            for sh in 0..width {
                let mut inputs = Vec::new();
                for i in 0..width {
                    inputs.push(value >> i & 1 == 1);
                }
                for k in 0..2 {
                    inputs.push(sh >> k & 1 == 1);
                }
                let out = net.eval(&inputs).unwrap();
                let want = (value << sh) & 0xF;
                #[expect(clippy::needless_range_loop, reason = "`i` is the bit under test")]
                for i in 0..width {
                    assert_eq!(out[i], want >> i & 1 == 1, "shift {sh} of {value:04b}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = barrel_shifter(6);
    }

    #[test]
    fn gate_count_scales_n_log_n() {
        let s16 = barrel_shifter(16).stats().nodes;
        let s64 = barrel_shifter(64).stats().nodes;
        // 16·4 = 64 muxes vs 64·6 = 384: ratio 6.
        assert!(s64 > 4 * s16);
        assert!(s64 < 12 * s16);
    }
}
