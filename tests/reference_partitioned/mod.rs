//! `optimize_partitioned` as it was before it decomposed each distinct
//! supernode function once, kept as the reference for the differential
//! test in `tests/partitioned_differential.rs`.
//!
//! The code is the old sequential (`jobs = 1`) path verbatim — the
//! per-supernode pipeline, the degradation ladder, budgets and fault
//! arming — rewritten as free functions over the public API, except that
//! trace spans, counters and events are gone, and so is the garbage
//! collection the old path ran at the build→reorder boundary, which
//! never changed its output. Every supernode gets its own named variables, a
//! fresh manager, a build, a sift and a decomposition, whether or not an
//! earlier supernode had the same function.
//!
//! It lives in the test tree and is compiled only into the tests that
//! declare `mod reference_partitioned;`, so library code cannot reach it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bds_repro::bdd::reorder::{sift, SiftLimits};
use bds_repro::bdd::{Fault, Manager, OpStats};
use bds_repro::core::decompose::{DecomposeStats, Decomposer};
use bds_repro::core::factor_tree::{FactorForest, FactorRef};
use bds_repro::core::flow::{FlowMode, FlowParams, FlowReport, GovernParams};
use bds_repro::core::sharing::{alias, emit_expr, emit_forest};
use bds_repro::network::{cover_to_bdd, Network, NetworkError, SignalId};
use bds_repro::sop::{Cover, Expr};

/// The supernodes `optimize_partitioned` decomposes, in its order: every
/// non-input node of the compacted network with a cover, in topological
/// order, as `(signal, fanin count, cover)`.
pub fn supernodes(work: &Network) -> Vec<(SignalId, usize, Cover)> {
    work.topo_order()
        .into_iter()
        .filter(|&sig| !work.is_input(sig))
        .filter_map(|sig| {
            work.node(sig)
                .map(|(fanins, cover)| (sig, fanins.len(), cover.clone()))
        })
        .collect()
}

/// The old `ArtifactBody`.
enum ArtifactBody {
    Forest {
        forest: FactorForest,
        root: FactorRef,
    },
    Factored(Expr),
    Verbatim(Cover),
}

/// The old `NodeArtifact`, without the trace-only peaks.
struct NodeArtifact {
    body: ArtifactBody,
    rung: u8,
    stats: DecomposeStats,
    ops: OpStats,
    peak: usize,
    build_bytes: usize,
    decompose_bytes: usize,
}

impl NodeArtifact {
    fn degraded(body: ArtifactBody, rung: u8) -> NodeArtifact {
        NodeArtifact {
            body,
            rung,
            stats: DecomposeStats::default(),
            ops: OpStats::default(),
            peak: 0,
            build_bytes: 0,
            decompose_bytes: 0,
        }
    }
}

/// The old `decompose_supernode_bdd`: one rung's attempt.
fn decompose_supernode_bdd(
    work: &Network,
    sig: SignalId,
    fanins: &[SignalId],
    params: &FlowParams,
    sift_limits: SiftLimits,
    fault: Option<(Fault, u64)>,
) -> Result<NodeArtifact, NetworkError> {
    let budget = params.govern.supernode_budget;
    let mut ops = OpStats::default();
    let mut mgr = Manager::new();
    if budget > 0 {
        mgr.set_effort_limit(budget);
    }
    if let Some((f, tick)) = fault {
        mgr.arm_fault(f, tick);
    }
    let vars: Vec<_> = fanins
        .iter()
        .map(|&f| mgr.new_var(work.signal_name(f)))
        .collect();
    // The old code called `Network::local_bdd`, which was this lookup
    // and `cover_to_bdd`.
    let Some((_, cover)) = work.node(sig) else {
        return Err(NetworkError::Inconsistent {
            detail: format!("`{}` is a primary input", work.signal_name(sig)),
        });
    };
    let edge = cover_to_bdd(&mut mgr, cover, &vars)?;
    ops.merge(&mgr.op_stats());
    let build_bytes = mgr.table_stats().estimated_bytes();
    // The old code read the peak after sifting; it now takes the build
    // manager before sifting and the decompose manager at the end, as
    // `optimize_partitioned` does.
    let build_peak = mgr.arena_size();
    let spent = mgr.effort_spent();
    let (mut mgr, edges) = sift(&mgr, &[edge], sift_limits).map_err(NetworkError::Bdd)?;
    if budget > 0 {
        mgr.set_effort_limit(budget);
    }
    mgr.seed_effort(spent);
    if let Some((f, tick)) = fault {
        if spent < tick {
            mgr.arm_fault(f, tick);
        }
    }
    let edge = edges[0];

    let mut forest = FactorForest::new();
    let mut dec = Decomposer::new();
    let root = dec
        .decompose(&mut mgr, edge, &mut forest, &params.decompose)
        .map_err(NetworkError::Bdd)?;
    ops.merge(&mgr.op_stats());
    let decompose_bytes = mgr.table_stats().estimated_bytes();
    Ok(NodeArtifact {
        body: ArtifactBody::Forest { forest, root },
        rung: 0,
        stats: dec.stats,
        ops,
        peak: build_peak.max(mgr.arena_size()),
        build_bytes,
        decompose_bytes,
    })
}

/// The old `run_quarantined`, without the trace set-aside.
fn run_quarantined<T>(
    work: &Network,
    sig: SignalId,
    attempt: impl FnOnce() -> T,
) -> Result<T, NetworkError> {
    catch_unwind(AssertUnwindSafe(attempt)).map_err(|payload| {
        let detail = if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else {
            "non-string panic payload".to_string()
        };
        NetworkError::WorkerPanic {
            node: work.signal_name(sig).to_string(),
            detail,
        }
    })
}

/// The old `fault_for`.
fn fault_for(govern: &GovernParams, index: usize, total: usize) -> Option<(Fault, u64)> {
    let plan = govern.inject.as_ref()?;
    (total > 0 && plan.supernode % total == index).then_some((plan.fault, plan.at_tick))
}

/// The old `decompose_supernode`: the degradation ladder.
fn decompose_supernode(
    work: &Network,
    sig: SignalId,
    fanins: &[SignalId],
    params: &FlowParams,
    fault: Option<(Fault, u64)>,
) -> Result<NodeArtifact, NetworkError> {
    let first = run_quarantined(work, sig, || {
        decompose_supernode_bdd(work, sig, fanins, params, params.sift, fault)
    })?;
    match first {
        Ok(artifact) => return Ok(artifact),
        Err(NetworkError::Bdd(_)) if params.govern.degrade => {}
        Err(other) => return Err(other),
    }

    let no_reorder = SiftLimits {
        max_nodes: 0,
        max_vars: 0,
        passes: 0,
    };
    let second = run_quarantined(work, sig, || {
        decompose_supernode_bdd(work, sig, fanins, params, no_reorder, fault)
    })?;
    match second {
        Ok(mut artifact) => {
            artifact.rung = 1;
            return Ok(artifact);
        }
        Err(NetworkError::Bdd(_)) => {}
        Err(other) => return Err(other),
    }

    let Some((_, cover)) = work.node(sig) else {
        return Err(NetworkError::Inconsistent {
            detail: format!("supernode `{}` has no cover", work.signal_name(sig)),
        });
    };
    if cover.len() <= params.govern.sop_cube_limit {
        let expr = bds_repro::sop::factor::factor(cover);
        return Ok(NodeArtifact::degraded(ArtifactBody::Factored(expr), 2));
    }
    Ok(NodeArtifact::degraded(
        ArtifactBody::Verbatim(cover.clone()),
        3,
    ))
}

/// The old `optimize_partitioned` at `jobs = 1`.
pub fn optimize_partitioned(
    net: &Network,
    params: &FlowParams,
) -> Result<(Network, FlowReport), NetworkError> {
    let work = net.compacted()?;
    let mut out = Network::new(work.name());
    let mut stats = DecomposeStats::default();
    let mut ops = OpStats::default();
    let mut peak = 0usize;
    let mut build_bytes = 0usize;
    let mut decompose_bytes = 0usize;
    let mut map: Vec<Option<SignalId>> = vec![None; work.signals().count()];
    for &i in work.inputs() {
        map[i.index()] = Some(out.add_input(work.signal_name(i))?);
    }
    let items: Vec<(SignalId, Vec<SignalId>)> = work
        .topo_order()
        .into_iter()
        .filter(|&sig| !work.is_input(sig))
        .filter_map(|sig| work.node(sig).map(|(fanins, _)| (sig, fanins.to_vec())))
        .collect();
    let artifacts: Vec<NodeArtifact> = items
        .iter()
        .enumerate()
        .map(|(i, (sig, fanins))| {
            let fault = fault_for(&params.govern, i, items.len());
            decompose_supernode(&work, *sig, fanins, params, fault)
        })
        .collect::<Result<_, _>>()?;
    let mut degraded = 0usize;
    for ((sig, fanins), artifact) in items.iter().zip(artifacts) {
        let sig = *sig;
        stats.merge(artifact.stats);
        ops.merge(&artifact.ops);
        peak = peak.max(artifact.peak);
        build_bytes = build_bytes.max(artifact.build_bytes);
        decompose_bytes = decompose_bytes.max(artifact.decompose_bytes);
        degraded += usize::from(artifact.rung > 0);

        let mut var_signals: Vec<SignalId> = Vec::with_capacity(fanins.len());
        for f in fanins {
            let mapped = map[f.index()].ok_or_else(|| NetworkError::Inconsistent {
                detail: format!(
                    "fanin `{}` not emitted before `{}`",
                    work.signal_name(*f),
                    work.signal_name(sig)
                ),
            })?;
            var_signals.push(mapped);
        }
        let named = match &artifact.body {
            ArtifactBody::Forest { forest, root } => {
                let emitted = emit_forest(&mut out, forest, &[*root], &var_signals, "bds")?;
                alias(&mut out, emitted[0], work.signal_name(sig))?
            }
            ArtifactBody::Factored(expr) => {
                let resolved = emit_expr(&mut out, expr, &var_signals, "bds")?;
                alias(&mut out, resolved, work.signal_name(sig))?
            }
            ArtifactBody::Verbatim(cover) => {
                out.add_node(work.signal_name(sig), var_signals.clone(), cover.clone())?
            }
        };
        map[sig.index()] = Some(named);
    }
    for &o in work.outputs() {
        let mapped = map[o.index()].ok_or_else(|| NetworkError::Inconsistent {
            detail: format!("output `{}` was never emitted", work.signal_name(o)),
        })?;
        out.mark_output(mapped)?;
    }
    out.sweep()?;
    let out = out.compacted()?;
    Ok((
        out,
        FlowReport {
            mode: FlowMode::Partitioned,
            decompose: stats,
            seconds: 0.0,
            peak_bdd_nodes: peak,
            eliminated: 0,
            bdd_ops: ops,
            peak_arena_bytes: build_bytes.max(decompose_bytes),
            degraded,
        },
    ))
}
