//! Micro-benchmarks of the BDD substrate: ITE throughput, restrict,
//! ISOP extraction and sifting, on parametric functions and on the
//! global BDD of a benchmark circuit.

use bds::flow::FlowParams;
use bds_bdd::reorder::{sift, SiftLimits};
use bds_bdd::{Edge, Manager};
use bds_bench::timing::bench;
use bds_circuits::comparator::comparator;

/// Builds the order-sensitive function Σ aᵢ·bᵢ with the bad monolithic
/// order (all a's above all b's).
fn interleaving_victim(pairs: usize) -> (Manager, Edge) {
    let mut m = Manager::new();
    let a = m.new_vars(pairs);
    let b = m.new_vars(pairs);
    let mut f = Edge::ZERO;
    for i in 0..pairs {
        let la = m.literal(a[i], true);
        let lb = m.literal(b[i], true);
        let t = m.and(la, lb).expect("unlimited");
        f = m.or(f, t).expect("unlimited");
    }
    (m, f)
}

fn main() {
    println!("== micro_bdd ==");
    for &n in &[8usize, 12, 16] {
        bench(&format!("ite_build/{n}"), || {
            let (m, f) = interleaving_victim(n);
            (m.size(f), f)
        });
    }
    {
        let (mut m, f) = interleaving_victim(8);
        let vars = m.order();
        let l0 = m.literal(vars[0], true);
        let l8 = m.literal(vars[8], true);
        let care = m.or(l0, l8).expect("unlimited");
        bench("restrict_quotient", || {
            m.restrict(f, care).expect("unlimited")
        });
    }
    {
        let (mut m, f) = interleaving_victim(6);
        bench("isop_extract", || m.isop(f, f).expect("unlimited").0.len());
    }
    {
        let (m, f) = interleaving_victim(6);
        bench("sift_interleaving_victim", || {
            let (m2, r) = sift(&m, &[f], SiftLimits::default()).expect("unlimited");
            m2.size(r[0])
        });
    }
    {
        // What `optimize_global` sifts on cmp32: 64 inputs, 2 outputs,
        // built under the flow's global node limit.
        let params = FlowParams::default();
        let (m, roots, _) = comparator(32)
            .global_bdds(params.global_limit)
            .expect("cmp32 fits the global limit");
        bench("sift_cmp32_global", || {
            let (m2, r) = sift(&m, &roots, params.sift).expect("fits the limit");
            m2.count_nodes(&r)
        });
    }
}
