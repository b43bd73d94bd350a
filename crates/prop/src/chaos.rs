//! Seeded fault-injection plans.
//!
//! The robustness contract of the BDS flow is differential: for any
//! injected fault the flow must either degrade to a verified-equivalent
//! netlist or return a structured error — it must never panic outward,
//! and the outcome must be identical at every worker count. This module
//! generates the *plans* for that suite as plain data, so `bds-prop`
//! stays dependency-free: the flow crate maps a
//! [`FaultKind`](crate::chaos::FaultKind) onto its own fault enum when
//! arming a manager.
//!
//! Plans are derived from a seed via the in-tree SplitMix64 [`Rng`], so
//! a failing plan is fully described by its seed and can be replayed
//! with `InjectionPlan::from_seed(seed)`.

use crate::Rng;

/// The kind of fault a plan injects into one supernode's BDD manager.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The effort budget is exhausted at the planned tick.
    BudgetExhausted,
    /// A unique-table allocation fails at the planned tick.
    AllocFailure,
    /// The worker thread panics at the planned tick.
    WorkerPanic,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultKind::BudgetExhausted => "budget-exhausted",
            FaultKind::AllocFailure => "alloc-failure",
            FaultKind::WorkerPanic => "worker-panic",
        })
    }
}

/// One deterministic fault-injection plan.
///
/// `supernode` is an abstract index; consumers reduce it modulo the
/// number of supernodes actually present, so every plan targets *some*
/// real unit of work regardless of circuit size.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct InjectionPlan {
    /// The seed this plan was derived from (for replay and reporting).
    pub seed: u64,
    /// Which fault to arm.
    pub kind: FaultKind,
    /// Abstract target supernode index (reduce modulo the work count).
    pub supernode: usize,
    /// Effort tick (ITE steps + unique-table insertions) at which the
    /// fault fires. Always ≥ 1.
    pub at_tick: u64,
}

impl InjectionPlan {
    /// Derives a plan deterministically from `seed`.
    ///
    /// Ticks are spread across magnitudes (1..10 × 10^0..4) so plans hit
    /// managers both at the very first charge and deep into a build.
    pub fn from_seed(seed: u64) -> InjectionPlan {
        let mut rng = Rng::new(seed);
        let kind = match rng.range_u32(0..3) {
            0 => FaultKind::BudgetExhausted,
            1 => FaultKind::AllocFailure,
            _ => FaultKind::WorkerPanic,
        };
        let supernode = rng.range_usize(0..64);
        let mantissa = rng.range_u64(1..10);
        let exponent = rng.range_u32(0..4);
        let at_tick = mantissa * 10u64.pow(exponent);
        InjectionPlan {
            seed,
            kind,
            supernode,
            at_tick,
        }
    }

    /// One-line description for failure artifacts and logs.
    pub fn describe(&self) -> String {
        format!(
            "seed={:#x} kind={} supernode={} at_tick={}",
            self.seed, self.kind, self.supernode, self.at_tick
        )
    }
}

/// The fixed seed set exercised by CI: plans for seeds `0..count`,
/// each mixed through SplitMix64 so neighbouring seeds decorrelate.
pub fn suite(count: u64) -> Vec<InjectionPlan> {
    (0..count)
        .map(|i| InjectionPlan::from_seed(Rng::new(i).next_u64()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic() {
        let a = InjectionPlan::from_seed(0xDEAD_BEEF);
        let b = InjectionPlan::from_seed(0xDEAD_BEEF);
        assert_eq!(a, b);
        assert_eq!(a.seed, 0xDEAD_BEEF);
    }

    #[test]
    fn suite_covers_every_kind_and_varied_ticks() {
        let plans = suite(64);
        assert_eq!(plans.len(), 64);
        for kind in [
            FaultKind::BudgetExhausted,
            FaultKind::AllocFailure,
            FaultKind::WorkerPanic,
        ] {
            assert!(
                plans.iter().any(|p| p.kind == kind),
                "no plan with kind {kind}"
            );
        }
        assert!(plans.iter().all(|p| p.at_tick >= 1));
        assert!(plans.iter().any(|p| p.at_tick < 10), "no early-firing plan");
        assert!(
            plans.iter().any(|p| p.at_tick >= 1000),
            "no late-firing plan"
        );
    }

    #[test]
    fn describe_names_the_seed() {
        let p = InjectionPlan::from_seed(7);
        let s = p.describe();
        assert!(s.contains("seed=0x7"), "got: {s}");
        assert!(s.contains("at_tick="), "got: {s}");
    }
}
