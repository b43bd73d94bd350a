//! Shared experiment harness: run BDS and the SIS-style baseline on a
//! circuit, map both with the same library, verify both against the
//! original, and render paper-style table rows.

#![expect(clippy::expect_used, reason = "setup aborts loudly on broken fixtures")]
#![expect(clippy::print_stdout, reason = "this module renders tables to stdout")]

use bds::flow::{optimize, FlowParams, FlowReport};
use bds::sis_flow::{script_rugged, SisParams};
use bds_map::{map_network, Library, MappedNetlist};
use bds_network::verify::{verify, verify_by_simulation, Verdict};
use bds_network::Network;
use bds_trace::Snapshot;

/// Result of one flow on one circuit.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// Mapped gate count.
    pub gates: usize,
    /// Mapped cell area.
    pub area: f64,
    /// Mapped critical-path delay.
    pub delay: f64,
    /// Flow CPU seconds (synthesis only; mapping excluded for both).
    pub seconds: f64,
    /// Memory proxy: peak BDD nodes (BDS) or network literals (SIS).
    pub mem_proxy: usize,
    /// Pre-mapping literal count of the optimized network.
    pub literals: usize,
    /// Mapped XOR/XNOR cell count (the paper discusses XOR preservation).
    pub xor_cells: usize,
}

/// A full comparison row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Circuit label.
    pub name: String,
    /// Paper circuit this stands in for (`-` when it is the paper's own
    /// workload regenerated exactly).
    pub stands_for: &'static str,
    /// Baseline result.
    pub sis: FlowResult,
    /// BDS result.
    pub bds: FlowResult,
    /// `sis.seconds / bds.seconds`.
    pub speedup: f64,
    /// Verification status of both results.
    pub verified: &'static str,
    /// The BDS flow's full report: mode, decomposition step counts, and
    /// BDD operation counters (computed-table hit rate and friends).
    pub report: FlowReport,
    /// Trace snapshot captured across the BDS flow alone — per-phase
    /// wall-clock spans and registry counters. Empty unless the crate is
    /// built with the `trace` feature.
    pub trace: Snapshot,
    /// Trace snapshot captured across the baseline flow alone: its
    /// `sis_flow.*` phase spans. Empty without `trace`.
    pub sis_trace: Snapshot,
}

fn mapped(net: &Network, lib: &Library) -> MappedNetlist {
    map_network(net, lib).expect("mapping cannot fail on swept networks")
}

fn check(original: &Network, result: &Network) -> &'static str {
    match verify(original, result, 2_000_000) {
        Ok(Verdict::Equivalent) => "bdd",
        Ok(Verdict::Inequivalent { .. }) => "FAIL",
        Err(_) => match verify_by_simulation(original, result, 512, 0xB5D5) {
            Ok(Verdict::Equivalent) => "sim",
            _ => "FAIL",
        },
    }
}

/// Runs both flows on `net` and assembles a comparison row.
pub fn run_both(
    name: impl Into<String>,
    stands_for: &'static str,
    net: &Network,
    flow_params: &FlowParams,
    sis_params: &SisParams,
) -> Row {
    let lib = Library::mcnc();

    // The baseline's spans get a window of their own.
    bds_trace::reset();
    let (sis_net, sis_report) = script_rugged(net, sis_params).expect("baseline flow");
    let sis_trace = bds_trace::take();
    let sis_mapped = mapped(&sis_net, &lib);
    let sis_stats = sis_net.stats();

    // Scope the trace registry to the BDS flow so each circuit's
    // snapshot covers exactly one `optimize` call (the baseline flow ran
    // above and verification below stays outside the window).
    bds_trace::reset();
    let (bds_net, bds_report) = optimize(net, flow_params).expect("bds flow");
    let trace = bds_trace::take();
    let bds_mapped = mapped(&bds_net, &lib);
    let bds_stats = bds_net.stats();

    let v1 = check(net, &sis_net);
    let v2 = check(net, &bds_net);
    let verified = match (v1, v2) {
        ("FAIL", _) | (_, "FAIL") => "FAIL",
        ("sim", _) | (_, "sim") => "sim",
        _ => "bdd",
    };

    let speedup = if bds_report.seconds > 0.0 {
        sis_report.seconds / bds_report.seconds
    } else {
        f64::INFINITY
    };
    Row {
        name: name.into(),
        stands_for,
        sis: FlowResult {
            gates: sis_mapped.gate_count,
            area: sis_mapped.area,
            delay: sis_mapped.delay,
            seconds: sis_report.seconds,
            mem_proxy: sis_stats.literals,
            literals: sis_stats.literals,
            xor_cells: sis_mapped.count_of("xor2") + sis_mapped.count_of("xnor2"),
        },
        bds: FlowResult {
            gates: bds_mapped.gate_count,
            area: bds_mapped.area,
            delay: bds_mapped.delay,
            seconds: bds_report.seconds,
            mem_proxy: bds_report.peak_bdd_nodes,
            literals: bds_stats.literals,
            xor_cells: bds_mapped.count_of("xor2") + bds_mapped.count_of("xnor2"),
        },
        speedup,
        verified,
        report: bds_report,
        trace,
        sis_trace,
    }
}

/// One-line live progress summary for `--live` runs: the headline
/// numbers a user watches scroll by on stderr while a bench runs.
#[must_use]
pub fn live_line(row: &Row) -> String {
    format!(
        "{:<14} gates {:>5} area {:>9.1} cpu {:>7.3}s hit-rate {:>5.1}% peak {:>9}B [{}]",
        row.name,
        row.bds.gates,
        row.bds.area,
        row.bds.seconds,
        row.report.bdd_ops.cache_hit_rate() * 100.0,
        row.report.peak_arena_bytes,
        row.verified
    )
}

/// Prints a table of rows in the layout of the paper's tables.
pub fn print_rows(title: &str, rows: &[Row]) {
    println!("== {title} ==");
    println!(
        "{:<14} {:<10} | {:>6} {:>9} {:>7} {:>8} | {:>6} {:>9} {:>7} {:>8} | {:>8} {:>6}",
        "circuit",
        "stands for",
        "gates",
        "area",
        "delay",
        "cpu[s]",
        "gates",
        "area",
        "delay",
        "cpu[s]",
        "speedup",
        "verify"
    );
    println!(
        "{:<14} {:<10} | {:>41} | {:>41} |",
        "", "", "------------------- SIS -------------", "------------------- BDS -------------"
    );
    let mut totals = (0usize, 0f64, 0f64, 0f64, 0usize, 0f64, 0f64, 0f64);
    for r in rows {
        println!(
            "{:<14} {:<10} | {:>6} {:>9.1} {:>7.2} {:>8.3} | {:>6} {:>9.1} {:>7.2} {:>8.3} | {:>7.1}x {:>6}",
            r.name,
            r.stands_for,
            r.sis.gates,
            r.sis.area,
            r.sis.delay,
            r.sis.seconds,
            r.bds.gates,
            r.bds.area,
            r.bds.delay,
            r.bds.seconds,
            r.speedup,
            r.verified
        );
        totals.0 += r.sis.gates;
        totals.1 += r.sis.area;
        totals.2 = totals.2.max(r.sis.delay);
        totals.3 += r.sis.seconds;
        totals.4 += r.bds.gates;
        totals.5 += r.bds.area;
        totals.6 = totals.6.max(r.bds.delay);
        totals.7 += r.bds.seconds;
    }
    println!(
        "{:<14} {:<10} | {:>6} {:>9.1} {:>7.2} {:>8.3} | {:>6} {:>9.1} {:>7.2} {:>8.3} | {:>7.1}x",
        "TOTAL",
        "",
        totals.0,
        totals.1,
        totals.2,
        totals.3,
        totals.4,
        totals.5,
        totals.6,
        totals.7,
        if totals.7 > 0.0 {
            totals.3 / totals.7
        } else {
            f64::INFINITY
        },
    );
}

/// Geometric mean of ratios `num/den` over rows.
pub fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v.is_finite() && v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_circuits::adder::ripple_adder;

    #[test]
    fn run_both_produces_verified_row() {
        let net = ripple_adder(4);
        let row = run_both(
            "add4",
            "-",
            &net,
            &FlowParams::default(),
            &SisParams::default(),
        );
        assert_ne!(row.verified, "FAIL");
        assert!(row.bds.gates > 0 && row.sis.gates > 0);
        assert!(row.bds.area > 0.0 && row.sis.area > 0.0);
    }

    #[test]
    fn geomean_of_identity_is_one() {
        let g = geomean([1.0, 1.0, 1.0].into_iter());
        assert!((g - 1.0).abs() < 1e-12);
        let g = geomean([2.0, 0.5].into_iter());
        assert!((g - 1.0).abs() < 1e-12);
    }
}
