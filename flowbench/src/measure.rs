//! Timing arithmetic: the reference kernel, kernel-normalized samples,
//! summed per-circuit medians, and ratios that keep their bases.
//!
//! The machine this benchmark runs on drifts in speed by tens of percent
//! between (and within) processes, while on-CPU time tracks wall time.
//! Every timed call is therefore bracketed by runs of a fixed reference
//! kernel, and reported as seconds at the speed where one kernel unit
//! takes [`KERNEL_NOMINAL_S`].

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Nominal duration of one reference-kernel unit: a normalized time is a
/// raw time multiplied by `KERNEL_NOMINAL_S / measured unit seconds`.
pub const KERNEL_NOMINAL_S: f64 = 0.001;

/// Distinct keys in the kernel's map: 6,000 `u64` pairs fill 8,192
/// buckets (~140 KB with the key array), a working set that stays in
/// L2. Kernels of 1.5 MB and up tracked the flows' speed worse here:
/// their own time moved with cache contention the flows did not see.
const KERNEL_KEYS: usize = 6_000;

/// Insert-then-lookup passes per unit, and lookup sweeps per pass
/// (fixed, never calibrated: the kernel must do identical work on every
/// commit and machine).
const KERNEL_PASSES: usize = 2;
const KERNEL_LOOKUP_ROUNDS: u64 = 3;

/// Units per bracket; a bracket reports their median, so an interrupt
/// landing in one unit does not move it.
const BRACKET_UNITS: usize = 9;

/// A fixed hash-map workload — inserts then repeated random lookups —
/// whose duration measures the machine's current speed on the kind of
/// work the flows do (hashing, probing, short allocations).
pub struct RefKernel {
    keys: Vec<u64>,
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
}

impl RefKernel {
    /// Builds the kernel's key array and its (reused) map allocation.
    pub fn new() -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let keys = (0..KERNEL_KEYS)
            .map(|_| {
                state = splitmix64(state);
                state
            })
            .collect();
        RefKernel {
            keys,
            map: HashMap::with_capacity_and_hasher(KERNEL_KEYS, BuildHasherDefault::default()),
        }
    }

    /// Runs one kernel unit and returns its wall-clock seconds.
    pub fn unit(&mut self) -> f64 {
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..KERNEL_PASSES {
            self.map.clear();
            for (i, &k) in self.keys.iter().enumerate() {
                self.map.insert(k, i as u64);
            }
            for round in 0..KERNEL_LOOKUP_ROUNDS {
                for &k in &self.keys {
                    acc = acc
                        .wrapping_add(self.map.get(&(k ^ (round & 1))).copied().unwrap_or(round));
                }
            }
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    }

    /// Median seconds of `BRACKET_UNITS` units.
    pub fn bracket(&mut self) -> f64 {
        let units: Vec<f64> = (0..BRACKET_UNITS).map(|_| self.unit()).collect();
        median(&units)
    }
}

/// SplitMix64 step: the benchmark's only source of pseudo-randomness.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Converts raw seconds to seconds at reference speed, given the kernel
/// unit times measured just before and just after the work.
pub fn normalize(raw_s: f64, kernel_before_s: f64, kernel_after_s: f64) -> f64 {
    raw_s * KERNEL_NOMINAL_S / ((kernel_before_s + kernel_after_s) / 2.0)
}

/// One measured call: its raw wall seconds and the factor that turns any
/// raw interval inside it into seconds at reference speed.
#[derive(Copy, Clone, Debug)]
pub struct Timed {
    /// Raw wall-clock seconds of the whole call.
    pub raw_s: f64,
    scale: f64,
}

impl Timed {
    /// The whole call in seconds at reference speed.
    pub fn norm_s(self) -> f64 {
        self.raw_s * self.scale
    }

    /// A raw interval measured inside the call, normalized by the same
    /// kernel pair as the call.
    pub fn normalize(self, inner_raw_s: f64) -> f64 {
        inner_raw_s * self.scale
    }
}

/// Times calls between reference-kernel brackets. Consecutive calls
/// share the bracket between them, so each call costs one bracket.
pub struct Meter {
    kernel: RefKernel,
    last_kernel_s: f64,
    kernel_samples: Vec<f64>,
}

impl Meter {
    /// Builds the kernel and takes the first bracket.
    pub fn new() -> Self {
        let mut kernel = RefKernel::new();
        let last_kernel_s = kernel.bracket();
        Meter {
            kernel,
            last_kernel_s,
            kernel_samples: vec![last_kernel_s],
        }
    }

    /// Runs `f` between two kernel brackets.
    pub fn measure<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let before = self.last_kernel_s;
        let start = Instant::now();
        let out = black_box(f());
        let raw_s = start.elapsed().as_secs_f64();
        let after = self.kernel.bracket();
        self.last_kernel_s = after;
        self.kernel_samples.push(after);
        let scale = normalize(1.0, before, after);
        (out, Timed { raw_s, scale })
    }

    /// Median raw seconds of every kernel bracket so far.
    pub fn kernel_median_s(&self) -> f64 {
        median(&self.kernel_samples)
    }
}

/// Runs `f` and adds its raw wall seconds to `*acc`.
pub fn stopwatch<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

/// Median of `values` (mean of the middle pair for an even count; `0`
/// for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Repetition samples of one timing, kept per circuit: each circuit's
/// work is deterministic, so the spread between its repetitions is
/// machine noise, and the median per circuit discards it before summing.
#[derive(Clone, Debug)]
pub struct PerCircuit {
    samples: Vec<Vec<f64>>,
}

impl PerCircuit {
    /// An empty table for `circuits` circuits.
    pub fn new(circuits: usize) -> Self {
        PerCircuit {
            samples: vec![Vec::new(); circuits],
        }
    }

    /// Records one repetition's value for `circuit`.
    pub fn push(&mut self, circuit: usize, value: f64) {
        self.samples[circuit].push(value);
    }

    /// The repetition samples of `circuit`.
    pub fn samples(&self, circuit: usize) -> &[f64] {
        &self.samples[circuit]
    }

    /// Sum over circuits of each circuit's median (circuits without
    /// samples contribute nothing).
    pub fn summed_median(&self) -> f64 {
        self.samples.iter().map(|s| median(s)).sum()
    }
}

/// A ratio that keeps its numerator and denominator, so every printed
/// ratio can be printed with its bases.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator.
    pub den: f64,
}

impl Ratio {
    /// `num / den`, or `0` when the denominator is zero (nothing was
    /// attempted, so nothing succeeded).
    pub fn value(self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }

    /// `value (num/den)`, the form every ratio is printed in.
    pub fn describe(self) -> String {
        format!("{} ({}/{})", self.value(), self.num, self.den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn summed_median_ignores_one_slow_repetition_per_circuit() {
        let mut t = PerCircuit::new(2);
        for v in [1.0, 1.1, 9.0] {
            t.push(0, v);
        }
        for v in [0.5, 0.4, 0.6] {
            t.push(1, v);
        }
        assert!((t.summed_median() - 1.6).abs() < 1e-12);
        assert_eq!(PerCircuit::new(3).summed_median(), 0.0);
    }

    #[test]
    fn normalization_cancels_machine_speed() {
        // A call taking 0.3 s on a machine where the kernel takes exactly
        // its nominal time is 0.3 s at reference speed.
        let nominal = KERNEL_NOMINAL_S;
        assert!((normalize(0.3, nominal, nominal) - 0.3).abs() < 1e-12);
        // The same call on a machine running at half speed takes twice
        // as long, and so does the kernel: the normalized time is equal.
        let slow = normalize(0.6, 2.0 * nominal, 2.0 * nominal);
        assert!((slow - 0.3).abs() < 1e-12);
        // Speed drifting during the call: the kernel pair is averaged.
        let drift = normalize(0.45, nominal, 2.0 * nominal);
        assert!((drift - 0.3).abs() < 1e-12);
    }

    #[test]
    fn timed_scales_inner_intervals_like_the_call() {
        // The kernel ran at half its nominal speed around a 2 s call.
        let t = Timed {
            raw_s: 2.0,
            scale: normalize(1.0, 2.0 * KERNEL_NOMINAL_S, 2.0 * KERNEL_NOMINAL_S),
        };
        assert!((t.norm_s() - 1.0).abs() < 1e-12);
        assert!((t.normalize(0.5) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ratio_keeps_its_bases() {
        let r = Ratio { num: 3.0, den: 4.0 };
        assert_eq!(r.value(), 0.75);
        assert_eq!(r.describe(), "0.75 (3/4)");
        let none = Ratio { num: 0.0, den: 0.0 };
        assert_eq!(none.value(), 0.0);
        assert_eq!(none.describe(), "0 (0/0)");
    }

    #[test]
    fn kernel_is_timed_and_meter_brackets_calls() {
        let mut meter = Meter::new();
        let (v, t) = meter.measure(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(t.raw_s >= 0.0 && t.norm_s() >= 0.0);
        assert!(meter.kernel_median_s() > 0.0);
    }

    #[test]
    fn splitmix_is_a_fixed_sequence() {
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
