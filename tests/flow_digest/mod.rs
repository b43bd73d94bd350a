//! What the flow suites digest for one `optimize` or `script_rugged`
//! run, shared so that `tests/scale_equivalence.rs` and
//! `tests/differential_flow.rs` pin the same fields.

use bds_prop::digest::Digests;
use bds_repro::core::flow::FlowReport;
use bds_repro::core::sis_flow::SisReport;
use bds_repro::network::{blif, Network};

/// Digests the BLIF and every `FlowReport` field but `seconds` under
/// `label`, and the BDD operation counters under `label ops`.
pub fn optimize(d: &mut Digests, label: &str, out: &Network, r: &FlowReport) {
    d.add(
        label,
        format!(
            "{:?} {:?} peak={} eliminated={} degraded={}\n{}",
            r.mode,
            r.decompose,
            r.peak_bdd_nodes,
            r.eliminated,
            r.degraded,
            blif::write(out)
        ),
    );
    d.add(format!("{label} ops"), format!("{:?}", r.bdd_ops));
}

/// Digests the BLIF and the `SisReport` counts (`seconds` aside) under
/// `label`.
pub fn script_rugged(d: &mut Digests, label: &str, out: &Network, r: &SisReport) {
    d.add(
        label,
        format!(
            "extracted={} resubstituted={}\n{}",
            r.extracted,
            r.resubstituted,
            blif::write(out)
        ),
    );
}
