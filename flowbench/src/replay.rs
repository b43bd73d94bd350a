//! The traced run's view of a flow: the same public calls `optimize`
//! makes, issued one at a time from here with a stopwatch around each,
//! so per-layer time is measured without any tracing in the program.

use std::cell::Cell;

use bds::flow::{optimize_global, optimize_partitioned, FlowMode, FlowParams};
use bds::sis_flow::SisParams;
use bds_bdd::reorder::sift;
use bds_map::{map_network, Library};
use bds_network::{Network, NetworkError};

use crate::measure::stopwatch;

/// Raw seconds spent in each layer during one replay.
#[derive(Copy, Clone, Debug, Default)]
pub struct Phases {
    /// `compacted` + `sweep` of the input network.
    pub prologue: f64,
    /// Clone, `eliminate` (BDD cost), `sweep`.
    pub eliminate: f64,
    /// `optimize_global`.
    pub global: f64,
    /// `optimize_partitioned` on both candidates.
    pub partitioned: f64,
    /// Every `map_network` call.
    pub map: f64,
}

/// What one replay produced.
pub struct Replay {
    /// The selected network (must equal `optimize`'s byte for byte).
    pub net: Network,
    /// Mode of the selected candidate.
    pub mode: FlowMode,
    /// Raw per-layer seconds.
    pub phases: Phases,
    /// The swept input network (for the BDD-engine probes).
    pub work: Network,
    /// Whether `optimize_global` was attempted.
    pub global_attempted: bool,
    /// Node count of the network after eliminate + sweep, when it ran.
    pub nodes_after_eliminate: Option<usize>,
}

/// Replays `bds::flow::optimize` (with `params.sdc == None`) as a
/// sequence of its public phase calls, timing each one.
pub fn replay_optimize(net: &Network, params: &FlowParams) -> Result<Replay, NetworkError> {
    let lib = Library::mcnc();
    let mut ph = Phases::default();
    let map_s = Cell::new(0.0);
    let area = |n: &Network| {
        let mut t = map_s.get();
        let a = stopwatch(&mut t, || {
            map_network(n, &lib).map_or(f64::INFINITY, |m| m.area)
        });
        map_s.set(t);
        a
    };
    let work = stopwatch(&mut ph.prologue, || -> Result<Network, NetworkError> {
        let mut w = net.compacted()?;
        w.sweep()?;
        Ok(w)
    })?;
    let base_literals = work.stats().literals;
    let base_area = area(&work);

    let mut candidates: Vec<(Network, FlowMode)> = Vec::new();
    let global_attempted =
        params.global_limit > 0 && work.inputs().len() <= params.global_max_inputs;
    if global_attempted {
        match stopwatch(&mut ph.global, || optimize_global(&work, params)) {
            Ok((out, report)) => {
                let out_area = area(&out);
                if out.stats().literals <= base_literals && out_area <= base_area {
                    out.audit()?;
                    ph.map = map_s.get();
                    return Ok(Replay {
                        net: out,
                        mode: report.mode,
                        phases: ph,
                        work,
                        global_attempted,
                        nodes_after_eliminate: None,
                    });
                }
                candidates.push((out, report.mode));
            }
            Err(NetworkError::Bdd(_)) => {}
            Err(other) => return Err(other),
        }
    }

    let collapsed = stopwatch(&mut ph.eliminate, || -> Result<Network, NetworkError> {
        let mut c = work.clone();
        c.eliminate(&params.eliminate)?;
        c.sweep()?;
        Ok(c)
    })?;
    let nodes_after_eliminate = Some(collapsed.stats().nodes);
    for input in [&collapsed, &work] {
        let (out, report) = stopwatch(&mut ph.partitioned, || optimize_partitioned(input, params))?;
        candidates.push((out, report.mode));
    }
    // The same selection as `optimize`, including its map calls.
    let (out, mode) = candidates
        .into_iter()
        .min_by(|(a, _), (b, _)| area(a).total_cmp(&area(b)))
        .ok_or_else(|| NetworkError::Inconsistent {
            detail: "replayed portfolio is empty".to_string(),
        })?;
    out.audit()?;
    ph.map = map_s.get();
    Ok(Replay {
        net: out,
        mode,
        phases: ph,
        work,
        global_attempted,
        nodes_after_eliminate,
    })
}

/// Raw seconds of the BDD-engine calls inside `optimize_global`,
/// re-issued on the swept network: the global build and, when the flow
/// would reach it, sifting with the flow's limits.
#[derive(Copy, Clone, Debug, Default)]
pub struct BddProbe {
    /// `Network::global_bdds`.
    pub build: f64,
    /// `reorder::sift`.
    pub sift: f64,
}

/// Runs the BDD-engine probes on `work` (the swept input network).
pub fn probe_bdd(work: &Network, params: &FlowParams) -> Result<BddProbe, String> {
    let mut probe = BddProbe::default();
    let Ok((mgr, edges, _)) = stopwatch(&mut probe.build, || work.global_bdds(params.global_limit))
    else {
        return Ok(probe);
    };
    // `optimize_global`'s structure-loss guard: past it, the flow never sifts.
    let literals = work.stats().literals.max(1);
    let factor = params.global_blowup_factor;
    if factor > 0 && mgr.count_nodes(&edges) > factor * literals {
        return Ok(probe);
    }
    stopwatch(&mut probe.sift, || sift(&mgr, &edges, params.sift)).map_err(|e| e.to_string())?;
    Ok(probe)
}

/// Raw seconds of `script_rugged`'s first two phases, re-issued on the
/// input: `compacted` + `sweep`, then `eliminate` (literal cost) + `sweep`.
/// The rest of the baseline (extraction, resubstitution) is private to
/// `bds::sis_flow` and is not split further.
#[derive(Copy, Clone, Debug, Default)]
pub struct SisProbe {
    /// `compacted` + `sweep`.
    pub prologue: f64,
    /// `eliminate` with the SIS literal cost, then `sweep`.
    pub eliminate_lits: f64,
    /// Node count after eliminate + sweep.
    pub nodes_after_eliminate: usize,
}

/// Runs the SIS-prologue probes on `net`.
pub fn probe_sis(net: &Network, params: &SisParams) -> Result<SisProbe, NetworkError> {
    let mut probe = SisProbe::default();
    let mut work = stopwatch(&mut probe.prologue, || -> Result<Network, NetworkError> {
        let mut w = net.compacted()?;
        w.sweep()?;
        Ok(w)
    })?;
    stopwatch(&mut probe.eliminate_lits, || -> Result<(), NetworkError> {
        work.eliminate(&params.eliminate)?;
        work.sweep()?;
        Ok(())
    })?;
    probe.nodes_after_eliminate = work.stats().nodes;
    Ok(probe)
}
