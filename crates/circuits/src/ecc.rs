//! Hamming-style single-error-correcting encoders — the structural class
//! of ISCAS'85 C499/C1355 (a 32-bit SEC circuit built from XOR trees).

use bds_network::Network;

use crate::builder::Builder;

/// A Hamming encoder over `data_bits` inputs: outputs the data bits plus
/// `r` parity bits with `2^r ≥ data_bits + r + 1`, each parity bit an XOR
/// over the positions whose index contains the corresponding power of
/// two (even parity).
pub fn hamming_encoder(data_bits: usize) -> Network {
    let r = parity_bit_count(data_bits);
    let mut b = Builder::new(format!("hamming{data_bits}"));
    let data = b.inputs("d", data_bits);

    // Place data bits at non-power-of-two codeword positions (1-based).
    let total = data_bits + r;
    let mut data_iter = data.iter().copied();
    let mut at_position: Vec<Option<bds_network::SignalId>> = vec![None; total + 1];
    #[expect(clippy::needless_range_loop, reason = "`pos` is the 1-based position")]
    for pos in 1..=total {
        if !pos.is_power_of_two() {
            at_position[pos] = data_iter.next();
        }
    }
    // Parity bit k covers positions with bit k set.
    for k in 0..r {
        let mask = 1usize << k;
        let members: Vec<_> = (1..=total)
            .filter(|&p| p & mask != 0)
            .filter_map(|p| at_position[p])
            .collect();
        let parity = b.xor_n(&members);
        b.output(format!("p{k}"), parity);
    }
    for (i, &d) in data.iter().enumerate() {
        b.output(format!("q{i}"), d);
    }
    b.finish()
}

/// Number of Hamming parity bits for `data_bits` data bits.
pub fn parity_bit_count(data_bits: usize) -> usize {
    let mut r = 0usize;
    while (1usize << r) < data_bits + r + 1 {
        r += 1;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_counts() {
        assert_eq!(parity_bit_count(4), 3);
        assert_eq!(parity_bit_count(11), 4);
        assert_eq!(parity_bit_count(26), 5);
        assert_eq!(parity_bit_count(32), 6);
    }

    /// Every single-bit data flip must change at least one parity bit
    /// (that is what makes the code error-detecting).
    #[test]
    fn single_flip_changes_parity() {
        let n = 8;
        let net = hamming_encoder(n);
        let r = parity_bit_count(n);
        let base = vec![false; n];
        let base_out = net.eval(&base).unwrap();
        for flip in 0..n {
            let mut inp = base.clone();
            inp[flip] = true;
            let out = net.eval(&inp).unwrap();
            let parity_changed = (0..r).any(|k| out[k] != base_out[k]);
            assert!(parity_changed, "flipping d{flip} must disturb parity");
        }
    }

    /// Parity outputs are linear: p(x ⊕ y) = p(x) ⊕ p(y).
    #[test]
    fn parity_is_linear() {
        let n = 6;
        let net = hamming_encoder(n);
        let r = parity_bit_count(n);
        let xv = 0b101101u32;
        let yv = 0b010111u32;
        let eval = |v: u32| {
            let inp: Vec<bool> = (0..n).map(|i| v >> i & 1 == 1).collect();
            net.eval(&inp).unwrap()
        };
        let px = eval(xv);
        let py = eval(yv);
        let pxy = eval(xv ^ yv);
        for k in 0..r {
            assert_eq!(pxy[k], px[k] ^ py[k], "parity bit {k}");
        }
    }
}
