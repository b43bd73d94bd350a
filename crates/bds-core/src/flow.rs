//! The complete BDS synthesis flow (paper §IV, Fig. 12 right-hand side).
//!
//! ```text
//! network partitioning → sweep / constant propagation / equivalent-node
//! removal → eliminate based on BDD statistics → BDD variable reordering
//! → recursive BDD decomposition → sharing extraction → network
//! ```
//!
//! Two operating modes, as in the paper's evaluation:
//!
//! * **global** — small and medium circuits are collapsed into one global
//!   BDD per output and decomposed with full sharing across outputs,
//! * **partitioned** — large circuits are partially collapsed into
//!   supernodes by `eliminate` and each supernode's local BDD is
//!   decomposed independently (what makes `m64x64` feasible).
//!
//! [`optimize`] picks automatically: it attempts the global build under a
//! node budget and falls back to partitioned mode.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use bds_bdd::reorder::{sift, SiftLimits};
use bds_bdd::{BddError, Fault, Manager, OpStats};
use bds_network::{cover_to_bdd, EliminateParams, Network, NetworkError, SignalId};
use bds_sop::{Cover, Expr};
use bds_trace::Stopwatch;

use bds_map::{map_network, Library};

use crate::decompose::{DecomposeParams, DecomposeStats, Decomposer};
use crate::factor_tree::{FactorForest, FactorRef};
use crate::sharing::{alias, emit_expr, emit_forest};

/// Which flow variant produced a result.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FlowMode {
    /// One global BDD per output, shared decomposition.
    Global,
    /// Partitioned supernodes (local BDDs).
    Partitioned,
}

/// Tuning knobs for the BDS flow.
#[derive(Clone, Debug)]
pub struct FlowParams {
    /// Partial-collapse parameters (BDD-node cost model).
    pub eliminate: EliminateParams,
    /// Decomposition engine parameters.
    pub decompose: DecomposeParams,
    /// Variable-reordering effort.
    pub sift: SiftLimits,
    /// Node budget for attempting global BDDs (`0` forces partitioned
    /// mode).
    pub global_limit: usize,
    /// Never attempt global BDDs above this many primary inputs.
    pub global_max_inputs: usize,
    /// Reject global mode when the global BDDs are more than this many
    /// times larger than the network's literal count — a sign (e.g. for
    /// multipliers) that the BDD form loses the circuit's structure and
    /// partitioned local BDDs will synthesize better, exactly the
    /// situation the paper's partitioned environment exists for.
    pub global_blowup_factor: usize,
    /// Worker threads for the sharded partitioned flow (and the
    /// portfolio candidates inside [`optimize`]). `1` keeps everything
    /// on the calling thread; `0` means "use the machine"
    /// (`std::thread::available_parallelism`). Any value is a **pure
    /// scheduling choice**: every structural result — networks, literal
    /// counts, decompose statistics, BDD operation counters, peak
    /// gauges — is identical for every `jobs` setting; only wall-clock
    /// fields may differ.
    pub jobs: usize,
    /// Resource governance: per-supernode effort budget, degradation
    /// ladder, and fault injection (see [`GovernParams`]).
    pub govern: GovernParams,
}

impl Default for FlowParams {
    fn default() -> Self {
        FlowParams {
            eliminate: EliminateParams::default(),
            decompose: DecomposeParams::default(),
            sift: SiftLimits::default(),
            global_limit: 20_000,
            global_max_inputs: 64,
            global_blowup_factor: 1,
            jobs: default_jobs(),
            govern: GovernParams::default(),
        }
    }
}

/// Deterministic resource governance for the partitioned flow.
///
/// Effort is counted in the BDD manager's deterministic *effort ticks*
/// (one per ITE step, one per fresh unique-table insertion — see
/// [`bds_bdd::budget`]), never wall clock, so a budget trips at exactly
/// the same point at any [`FlowParams::jobs`] setting and the flow's
/// byte-identical determinism contract survives budgeting, degradation,
/// and fault injection alike.
#[derive(Clone, Debug)]
pub struct GovernParams {
    /// Effort-tick budget for each rung attempt of a supernode's
    /// decomposition (`0` = unbudgeted). The budget spans the local-BDD
    /// build and decompose phases cumulatively; reorder scratch managers
    /// run unbudgeted (sifting already bounds itself via
    /// [`SiftLimits::max_nodes`]).
    pub supernode_budget: u64,
    /// Walk down the degradation ladder on BDD back-pressure
    /// ([`BddError::NodeLimit`] / [`BddError::BudgetExceeded`]) instead
    /// of failing the whole flow: full pipeline → no-reorder retry under
    /// a fresh budget → algebraic SOP refactor → verbatim original
    /// cover. Panics never degrade; they surface as
    /// [`NetworkError::WorkerPanic`].
    pub degrade: bool,
    /// The SOP rung refactors the original cover only when it has at
    /// most this many cubes; larger covers fall through to the verbatim
    /// rung (algebraic factoring is quadratic-ish in cube count).
    pub sop_cube_limit: usize,
    /// Fault-injection plan for the chaos suite. `None` — the default —
    /// leaves every code path byte-identical to an ungoverned run.
    pub inject: Option<FaultPlan>,
}

impl Default for GovernParams {
    fn default() -> Self {
        GovernParams {
            supernode_budget: 0,
            degrade: true,
            sop_cube_limit: 64,
            inject: None,
        }
    }
}

/// A seeded fault-injection plan: fire `fault` inside the decomposition
/// of one supernode once its manager's effort clock reaches `at_tick`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Target supernode, taken modulo the candidate's supernode count
    /// (so one plan is meaningful for any circuit size).
    pub supernode: usize,
    /// The fault to fire (see [`bds_bdd::Fault`]).
    pub fault: Fault,
    /// Absolute effort tick at which the fault fires.
    pub at_tick: u64,
}

/// Default worker count: the `BDS_FLOW_JOBS` environment variable when
/// set and parseable (`0` = auto-detect), else `1` (sequential). The
/// env hook lets an entire test suite or CI leg exercise the sharded
/// path without threading a flag through every call site.
fn default_jobs() -> usize {
    std::env::var("BDS_FLOW_JOBS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(1)
}

/// Resolves a `jobs` setting to a concrete worker count (`0` = one
/// worker per available core).
#[expect(clippy::disallowed_methods, reason = "the scheduler reads core counts")]
fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        jobs
    }
}

/// What the flow did, for tables and logs.
#[derive(Clone, Debug)]
pub struct FlowReport {
    /// Mode actually used.
    pub mode: FlowMode,
    /// Decomposition step counts.
    pub decompose: DecomposeStats,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Peak BDD arena size observed across managers (memory proxy).
    pub peak_bdd_nodes: usize,
    /// Nodes eliminated during partitioning.
    pub eliminated: usize,
    /// BDD operation counters aggregated across the managers this flow
    /// variant built and decomposed (scratch managers inside sifting and
    /// cost probes are not included).
    pub bdd_ops: OpStats,
    /// Peak modeled manager bytes (arena + both tables, see
    /// [`bds_bdd::TableStats::estimated_bytes`]) across the flow's
    /// managers, sampled at phase boundaries. Deterministic — gated
    /// exactly by perfgate at any thread count.
    pub peak_arena_bytes: usize,
    /// Supernodes that retreated down the degradation ladder (any rung
    /// below the full pipeline). `0` unless a budget, node limit, or
    /// injected fault forced a retreat. Deterministic.
    pub degraded: usize,
}

/// Runs the full BDS flow on `net` and returns the optimized network
/// (gate-level granularity: 1–3-input nodes) plus a report.
///
/// # Errors
/// Propagates network errors; BDD node-limit errors trigger the
/// partitioned fallback instead of failing.
pub fn optimize(net: &Network, params: &FlowParams) -> Result<(Network, FlowReport), NetworkError> {
    let _span = bds_trace::span!("flow");
    let start = Stopwatch::start();
    let mut work = net.compacted()?;
    // Phase boundary: sweep audits the network on exit (strict builds).
    work.sweep()?;
    let base_literals = work.stats().literals;
    let lib = Library::mcnc();

    // The decomposition is "a search process for the most efficient
    // decomposition" (paper §IV-C); at the flow level we likewise keep a
    // small portfolio and select by mapped area. Each candidate is mapped
    // once, and carries its area.
    let area_of = |n: &Network| {
        let _span = bds_trace::span!("flow.map");
        map_network(n, &lib).map_or(f64::INFINITY, |m| m.area)
    };
    let mut candidates: Vec<(f64, Network, FlowReport)> = Vec::new();

    if params.global_limit > 0 && work.inputs().len() <= params.global_max_inputs {
        match optimize_global(&work, params) {
            Ok((out, mut report)) => {
                // Only this fast-path test reads the input's mapped area.
                let base_area = area_of(&work);
                let area = area_of(&out);
                if out.stats().literals <= base_literals && area <= base_area {
                    // Fast path: the global decomposition improved (or
                    // matched) both the network and its mapping — accept
                    // it without trying alternatives (keeps the paper's
                    // CPU profile on small circuits).
                    out.audit()?;
                    report.seconds = start.seconds();
                    return Ok((out, report));
                }
                candidates.push((area, out, report));
            }
            Err(NetworkError::Bdd(_)) => { /* global form infeasible */ }
            Err(other) => return Err(other),
        }
    }

    // Two partitioned candidates: the eliminate-collapsed network, and a
    // structure-preserving decomposition of the swept network without
    // any collapse. For array-like circuits (multipliers, adders) the
    // input structure is already near-optimal and both the global form
    // and the eliminate-collapse destroy it. The partial collapse runs
    // on this thread (its audit ordering matches the sequential flow);
    // with `jobs > 1` the two independent candidate pipelines then run
    // concurrently, each draining its trace state for a deterministic
    // fixed-order merge back into this thread.
    let mut collapsed = work.clone();
    // Phase boundary: eliminate audits the partial collapse on exit.
    let eliminated = collapsed.eliminate(&params.eliminate)?;
    collapsed.sweep()?;
    let (first, second) = if effective_jobs(params.jobs) > 1 {
        let (first, second) = run_candidate_pair(
            || optimize_partitioned(&collapsed, params),
            || optimize_partitioned(&work, params),
        );
        (first?, second?)
    } else {
        (
            optimize_partitioned(&collapsed, params)?,
            optimize_partitioned(&work, params)?,
        )
    };
    let (out, mut report) = first;
    report.eliminated = eliminated;
    candidates.push((area_of(&out), out, report));
    let (out, report) = second;
    candidates.push((area_of(&out), out, report));

    // Select by the real objective: mapped cell area under the shared
    // mcnc-style library (literal counts undervalue XOR/MUX cells).
    // `min_by` keeps the first of equal minima.
    let (_, out, mut report) = candidates
        .into_iter()
        .min_by(|(a, _, _), (b, _, _)| a.total_cmp(b))
        .ok_or_else(|| NetworkError::Inconsistent {
            detail: "flow portfolio is empty".to_string(),
        })?;
    // Phase boundary: final selected network must be structurally sound.
    out.audit()?;
    report.seconds = start.seconds();
    Ok((out, report))
}

/// Runs two independent flow candidates on scoped worker threads and
/// returns their results in argument order. Each worker drains its
/// thread-local trace on exit; the coordinator absorbs the two traces
/// in the same fixed order, so the merged trace does not depend on
/// which candidate finished first.
#[expect(
    clippy::disallowed_methods,
    reason = "flow.rs is the scheduler: scoped workers, re-raising a worker's panic on join"
)]
fn run_candidate_pair<T: Send>(
    a: impl FnOnce() -> T + Send,
    b: impl FnOnce() -> T + Send,
) -> (T, T) {
    let ((ra, trace_a), (rb, trace_b)) = std::thread::scope(|s| {
        let ha = s.spawn(move || (a(), bds_trace::take()));
        let hb = s.spawn(move || (b(), bds_trace::take()));
        let join = |h: std::thread::ScopedJoinHandle<'_, _>| match h.join() {
            Ok(out) => out,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        (join(ha), join(hb))
    });
    bds_trace::absorb(trace_a);
    bds_trace::absorb(trace_b);
    (ra, rb)
}

/// Global-mode flow: one BDD per output in a shared manager, sifted
/// together, decomposed with cross-output sharing.
///
/// # Errors
/// [`NetworkError::Bdd`] when the global build exceeds the node budget.
pub fn optimize_global(
    net: &Network,
    params: &FlowParams,
) -> Result<(Network, FlowReport), NetworkError> {
    let (mgr, edges, var_of) = {
        let _span = bds_trace::span!("flow.build");
        let built = net.global_bdds(params.global_limit)?;
        // Phase boundary: the freshly built global manager must be canonical.
        built.0.audit().map_err(NetworkError::Bdd)?;
        built
    };
    // Structure-loss guard: when the global form dwarfs the netlist
    // (multiplier-like circuits), report a node-limit condition so the
    // caller falls back to the partitioned flow.
    let literals = net.stats().literals.max(1);
    let global_size = mgr.count_nodes(&edges);
    if params.global_blowup_factor > 0 && global_size > params.global_blowup_factor * literals {
        return Err(NetworkError::Bdd(BddError::NodeLimit {
            limit: params.global_blowup_factor * literals,
        }));
    }
    let peak0 = mgr.arena_size();
    let mut ops = mgr.op_stats();
    let build_bytes = mgr.table_stats().estimated_bytes();
    // Reorder (paper §IV-C: reordering precedes decomposition). Sifting
    // rebuilds into a fresh manager, so the build manager and its dead
    // intermediates are dropped as soon as it returns.
    let (mut mgr, edges) = {
        let _span = bds_trace::span!("flow.reorder");
        let built = mgr;
        sift(&built, &edges, params.sift).map_err(NetworkError::Bdd)?
    };
    let mut forest = FactorForest::new();
    let mut dec = Decomposer::new();
    let mut roots = Vec::with_capacity(edges.len());
    {
        let _span = bds_trace::span!("flow.decompose");
        for &e in &edges {
            roots.push(
                dec.decompose(&mut mgr, e, &mut forest, &params.decompose)
                    .map_err(NetworkError::Bdd)?,
            );
        }
    }
    ops.merge(&mgr.op_stats());

    let _sharing_span = bds_trace::span!("flow.sharing");
    let mut out = Network::new(net.name());
    // var index → output-network input signal.
    let mut var_slots: Vec<Option<SignalId>> = vec![None; mgr.var_count()];
    for &i in net.inputs() {
        let sig = out.add_input(net.signal_name(i))?;
        if let Some(&v) = var_of.get(&i) {
            var_slots[v.index()] = Some(sig);
        }
    }
    let mut var_signals: Vec<SignalId> = Vec::with_capacity(var_slots.len());
    for (v, slot) in var_slots.into_iter().enumerate() {
        let sig = slot.ok_or_else(|| NetworkError::Inconsistent {
            detail: format!("global-BDD variable #{v} matches no primary input"),
        })?;
        var_signals.push(sig);
    }
    let emitted = emit_forest(&mut out, &forest, &roots, &var_signals, "bds")?;
    for (idx, &o) in net.outputs().iter().enumerate() {
        let sig = alias(&mut out, emitted[idx], net.signal_name(o))?;
        out.mark_output(sig)?;
    }
    out.sweep()?;
    let out = out.compacted()?;
    let table = mgr.table_stats();
    let decompose_bytes = table.estimated_bytes();
    bds_trace::gauge!("bdd.global.computed_entries", table.computed_entries as u64);
    bds_trace::gauge!(
        "bdd.global.peak_arena_nodes",
        peak0.max(mgr.arena_size()) as u64
    );
    bds_trace::gauge!("bdd.phase.build.peak_arena_bytes", build_bytes as u64);
    bds_trace::gauge!(
        "bdd.phase.decompose.peak_arena_bytes",
        decompose_bytes as u64
    );
    publish_trace(&dec.stats, &ops);
    Ok((
        out,
        FlowReport {
            mode: FlowMode::Global,
            decompose: dec.stats,
            seconds: 0.0,
            peak_bdd_nodes: peak0.max(mgr.arena_size()),
            eliminated: 0,
            bdd_ops: ops,
            peak_arena_bytes: build_bytes.max(decompose_bytes),
            degraded: 0,
        },
    ))
}

/// The logic a supernode's (possibly degraded) decomposition produced,
/// in whichever form the ladder rung that succeeded emits.
enum ArtifactBody {
    /// Full BDD decomposition: a factoring forest plus its root (rungs
    /// 0 and 1).
    Forest {
        /// Factoring forest holding this node's decomposition.
        forest: FactorForest,
        /// Root of the decomposition within `forest`.
        root: FactorRef,
    },
    /// Algebraic SOP fallback (rung 2): the original cover refactored
    /// by `bds-sop`'s kernel-based factoring.
    Factored(Expr),
    /// Last rung: the original cover, kept verbatim.
    Verbatim(Cover),
}

/// Everything a supernode's decomposition produces, independent of the
/// output network: the pure, parallelizable part of the partitioned
/// flow. Plain data (logic body + counters), so shards cross thread
/// boundaries freely. It is a function of the supernode's fanin count,
/// its positional cover, the flow parameters and its fault plan alone,
/// so every supernode with the same (fanin count, cover) and no fault
/// shares one artifact.
struct NodeArtifact {
    /// The produced logic, shaped by the ladder rung that succeeded.
    body: ArtifactBody,
    /// Degradation-ladder rung that produced `body` (`1` = no-reorder
    /// retry, `2` = SOP, `3` = verbatim); `None` for the full pipeline.
    degrade: Option<u8>,
    /// Decomposition step counts for this node.
    stats: DecomposeStats,
    /// BDD operation counters from this node's managers.
    ops: OpStats,
    /// Larger of the build manager's arena before sifting and the
    /// decompose manager's arena after decomposition.
    peak: usize,
    /// Computed-table entries of the decompose manager at the end.
    peak_computed: usize,
    /// Modeled manager bytes right after the local BDD build.
    build_bytes: usize,
    /// Modeled manager bytes after decomposition finished.
    decompose_bytes: usize,
}

impl NodeArtifact {
    /// An artifact for a degraded rung that never touched a BDD manager
    /// (SOP or verbatim): all counters zero.
    fn degraded(body: ArtifactBody, rung: u8) -> NodeArtifact {
        NodeArtifact {
            body,
            degrade: Some(rung),
            stats: DecomposeStats::default(),
            ops: OpStats::default(),
            peak: 0,
            peak_computed: 0,
            build_bytes: 0,
            decompose_bytes: 0,
        }
    }
}

/// Runs one supernode through the local-BDD pipeline — build → sift →
/// decompose — on the calling thread, touching nothing but its own
/// fresh [`Manager`], [`Decomposer`], and [`FactorForest`]. Because no
/// state crosses from one supernode to the next, the result is
/// bit-identical whether the calls happen on one thread or many: the
/// determinism the sharded driver is built on.
///
/// One ladder rung's attempt: `sift_limits` selects the reordering
/// effort, `fault` is the injection to arm (if this supernode is the
/// plan's target), and [`GovernParams::supernode_budget`] bounds the
/// build and decompose phases cumulatively.
fn decompose_supernode_bdd(
    fanins: usize,
    cover: &Cover,
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
    // Unnamed variables: nothing downstream reads a name, and leaving
    // them out keeps the artifact independent of the fanins' identity.
    let vars: Vec<bds_bdd::Var> = (0..fanins).map(|_| mgr.new_var(String::new())).collect();
    let edge = {
        let _span = bds_trace::span!("flow.build");
        cover_to_bdd(&mut mgr, cover, &vars)?
    };
    ops.merge(&mgr.op_stats());
    let build_bytes = mgr.table_stats().estimated_bytes();
    let build_peak = mgr.arena_size();
    let spent = mgr.effort_spent();
    // Phase boundary: the freshly built local manager must be canonical.
    mgr.audit().map_err(NetworkError::Bdd)?;
    // Sifting rebuilds into a fresh manager, so the build manager and
    // its dead intermediates are dropped as soon as it returns.
    let (mut mgr, edges) = {
        let _span = bds_trace::span!("flow.reorder");
        let built = mgr;
        sift(&built, &[edge], sift_limits).map_err(NetworkError::Bdd)?
    };
    // Sift scratch managers (and the rebuild that produced `mgr`) run
    // unbudgeted; the rung's budget resumes cumulatively here, so an
    // error after this point still reports cumulative tick numbers and
    // an armed fault still fires at its absolute tick.
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
    let root = {
        let _span = bds_trace::span!("flow.decompose");
        dec.decompose(&mut mgr, edge, &mut forest, &params.decompose)
            .map_err(NetworkError::Bdd)?
    };
    ops.merge(&mgr.op_stats());
    let table = mgr.table_stats();
    Ok(NodeArtifact {
        body: ArtifactBody::Forest { forest, root },
        degrade: None,
        stats: dec.stats,
        ops,
        peak: build_peak.max(mgr.arena_size()),
        peak_computed: table.computed_entries,
        build_bytes,
        decompose_bytes: table.estimated_bytes(),
    })
}

/// Counts one degradation under its rung's counter.
fn record_degrade(rung: u8) {
    match rung {
        1 => bds_trace::counter_add!("flow.degrade.noreorder", 1),
        2 => bds_trace::counter_add!("flow.degrade.sop", 1),
        _ => bds_trace::counter_add!("flow.degrade.verbatim", 1),
    }
}

/// Runs one rung attempt under panic quarantine. The calling thread's
/// trace store is set aside first and rejoined afterwards, keeping the
/// attempt's own recordings only if it did not panic; a panicked
/// supernode therefore leaves the merged trace exactly as if it had
/// never run — deterministically, because the discarded delta is
/// precisely the attempt's recordings and nothing else runs on this
/// thread meanwhile. Both steps cost what the attempt recorded, not
/// the size of the accumulated trace. The panic payload is converted
/// into [`NetworkError::WorkerPanic`]; the ladder never degrades past a
/// panic (a panic is a bug or an injected fault, not back-pressure).
fn run_quarantined<T>(
    work: &Network,
    sig: SignalId,
    attempt: impl FnOnce() -> T,
) -> Result<T, NetworkError> {
    let saved = bds_trace::set_aside();
    #[expect(
        clippy::disallowed_methods,
        reason = "the per-supernode panic quarantine is the flow's one unwind boundary"
    )]
    let outcome = catch_unwind(AssertUnwindSafe(attempt));
    bds_trace::rejoin(saved, outcome.is_ok());
    outcome.map_err(|payload| {
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

/// The fault to arm for item `index` of `total` supernodes, if the
/// governance plan targets it (plan index taken modulo `total`).
fn fault_for(govern: &GovernParams, index: usize, total: usize) -> Option<(Fault, u64)> {
    let plan = govern.inject.as_ref()?;
    (total > 0 && plan.supernode % total == index).then_some((plan.fault, plan.at_tick))
}

/// One supernode of the partitioned flow: its signal, fanins and cover,
/// borrowed from the network being decomposed.
type Supernode<'a> = (SignalId, &'a [SignalId], &'a Cover);

/// Decomposes one supernode, walking the degradation ladder on BDD
/// back-pressure (paper §IV's graceful-retreat strategy, carried below
/// the global/partitioned split):
///
/// 0. full pipeline (configured reordering, fresh budget),
/// 1. retry without reordering under a fresh budget — the cheapest BDD
///    form that still decomposes,
/// 2. algebraic SOP refactor of the original cover (no BDDs at all),
/// 3. the original cover verbatim.
///
/// Only [`NetworkError::Bdd`] back-pressure descends the ladder (and
/// only when [`GovernParams::degrade`] is on); panics are quarantined
/// into [`NetworkError::WorkerPanic`] and fail the supernode outright,
/// and every other error propagates unchanged.
fn decompose_supernode(
    work: &Network,
    (sig, fanins, cover): Supernode<'_>,
    params: &FlowParams,
    fault: Option<(Fault, u64)>,
) -> Result<NodeArtifact, NetworkError> {
    let fanins = fanins.len();
    // Rung 0: the full pipeline.
    let first = run_quarantined(work, sig, || {
        decompose_supernode_bdd(fanins, cover, params, params.sift, fault)
    })?;
    match first {
        Ok(artifact) => return Ok(artifact),
        Err(NetworkError::Bdd(_)) if params.govern.degrade => {}
        Err(other) => return Err(other),
    }

    // Rung 1: no reordering, fresh budget. `max_nodes: 0` makes `sift`
    // fall back to a plain same-order rebuild.
    let no_reorder = SiftLimits {
        max_nodes: 0,
        max_vars: 0,
        passes: 0,
    };
    let second = run_quarantined(work, sig, || {
        decompose_supernode_bdd(fanins, cover, params, no_reorder, fault)
    })?;
    match second {
        Ok(mut artifact) => {
            artifact.degrade = Some(1);
            return Ok(artifact);
        }
        Err(NetworkError::Bdd(_)) => {}
        Err(other) => return Err(other),
    }

    // Rungs 2 and 3 rebuild from the original cover without BDDs, so
    // they cannot trip a budget and always succeed.
    if cover.len() <= params.govern.sop_cube_limit {
        // Rung 2: the sis-style algebraic path.
        let expr = bds_sop::factor::factor(cover);
        return Ok(NodeArtifact::degraded(ArtifactBody::Factored(expr), 2));
    }
    // Rung 3: keep the original factored form verbatim.
    Ok(NodeArtifact::degraded(
        ArtifactBody::Verbatim(cover.clone()),
        3,
    ))
}

/// Decomposes `count` jobs across `jobs` scoped worker threads and
/// returns the artifacts **in job order**: `run(k)` decomposes job `k`.
/// Workers claim jobs from a shared atomic cursor, record trace data
/// into their own thread-local trace stores, and drain them before
/// exiting; the coordinator absorbs every worker's trace in fixed
/// worker-index order, so the merged trace is the same regardless of
/// which thread processed which job or finished first.
///
/// On failure the error with the **smallest job index** is returned
/// (matching what a sequential run would hit first), and remaining
/// workers stop claiming jobs at the next cursor check.
#[expect(
    clippy::disallowed_methods,
    reason = "flow.rs is the scheduler: scoped workers, re-raising a worker's panic on join"
)]
fn decompose_sharded(
    count: usize,
    jobs: usize,
    run: impl Fn(usize) -> Result<NodeArtifact, NetworkError> + Sync,
) -> Result<Vec<NodeArtifact>, NetworkError> {
    type WorkerOut = (
        Vec<(usize, Result<NodeArtifact, NetworkError>)>,
        bds_trace::Snapshot,
    );
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let worker_outs: Vec<WorkerOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut done: Vec<(usize, Result<NodeArtifact, NetworkError>)> = Vec::new();
                    loop {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        if k >= count {
                            break;
                        }
                        let r = run(k);
                        if r.is_err() {
                            abort.store(true, Ordering::Relaxed);
                        }
                        done.push((k, r));
                    }
                    // Hand the thread-local trace state to the
                    // coordinator; a worker that exits without draining
                    // would silently lose its metrics.
                    (done, bds_trace::take())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(out) => out,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut slots: Vec<Option<NodeArtifact>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);
    let mut first_err: Option<(usize, NetworkError)> = None;
    for (done, trace) in worker_outs {
        bds_trace::absorb(trace);
        for (k, r) in done {
            match r {
                Ok(artifact) => slots[k] = Some(artifact),
                Err(e) => {
                    if first_err.as_ref().is_none_or(|(fk, _)| k < *fk) {
                        first_err = Some((k, e));
                    }
                }
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(k, slot)| {
            slot.ok_or_else(|| NetworkError::Inconsistent {
                detail: format!("sharded flow lost job #{k}"),
            })
        })
        .collect()
}

/// Partitioned-mode flow: each supernode is decomposed on its own local
/// BDD (fresh manager per node, as in the paper's partitioned Boolean
/// network environment). Supernodes with the same fanin count and cover
/// have the same local BDD, so each such function is decomposed once per
/// call and its artifact reused (the paper's §IV-D canonicity argument,
/// one level up). With [`FlowParams::jobs`] > 1 the per-node
/// pipelines run on worker threads; sharing extraction then stitches
/// the artifacts into the output network **in topological-index order**
/// on the calling thread, so the emitted network, the report, and the
/// merged trace are identical for every thread count.
///
/// # Errors
/// Propagates network construction errors.
pub fn optimize_partitioned(
    net: &Network,
    params: &FlowParams,
) -> Result<(Network, FlowReport), NetworkError> {
    let work = net.compacted()?;
    let mut out = Network::new(work.name());
    let mut stats = DecomposeStats::default();
    let mut ops = OpStats::default();
    let mut peak = 0usize;
    // Peak computed-table load across the per-node managers.
    let mut peak_computed = 0usize;
    // Always-on memory accounting: modeled bytes per phase, maxed
    // across per-node managers (order-independent, so identical at any
    // thread count).
    let mut build_bytes = 0usize;
    let mut decompose_bytes = 0usize;
    // work signal → out signal.
    let mut map: Vec<Option<SignalId>> = vec![None; work.signals().count()];
    for &i in work.inputs() {
        map[i.index()] = Some(out.add_input(work.signal_name(i))?);
    }
    // Every non-input node with a cover, in topological order.
    let items: Vec<Supernode<'_>> = work
        .topo_order()
        .into_iter()
        .filter(|&sig| !work.is_input(sig))
        .filter_map(|sig| work.node(sig).map(|(fanins, cover)| (sig, fanins, cover)))
        .collect();
    // The shard unit is a distinct supernode function: items with equal
    // (fanin count, cover) get equal artifacts, so only the first item of
    // each group (its leader) is decomposed. The fault plan's target
    // always leads a group of its own, so it is never shared.
    let mut leader_slot: HashMap<(usize, &Cover), usize> = HashMap::new();
    let mut leaders: Vec<usize> = Vec::new();
    let mut slot_of: Vec<usize> = Vec::with_capacity(items.len());
    for (i, &(_, fanins, cover)) in items.iter().enumerate() {
        let slot = if fault_for(&params.govern, i, items.len()).is_some() {
            leaders.len()
        } else {
            *leader_slot
                .entry((fanins.len(), cover))
                .or_insert(leaders.len())
        };
        if slot == leaders.len() {
            leaders.push(i);
        }
        slot_of.push(slot);
    }
    let decompose_leader = |k: usize| {
        let i = leaders[k];
        let fault = fault_for(&params.govern, i, items.len());
        decompose_supernode(&work, items[i], params, fault)
    };
    let jobs = effective_jobs(params.jobs).min(leaders.len().max(1));
    let artifacts: Vec<NodeArtifact> = if jobs > 1 {
        decompose_sharded(leaders.len(), jobs, decompose_leader)?
    } else {
        (0..leaders.len())
            .map(decompose_leader)
            .collect::<Result<_, _>>()?
    };
    // Stitch every item from its leader's artifact. The counters are
    // merged once per item, so the report describes every supernode.
    let _sharing_span = bds_trace::span!("flow.sharing");
    let mut degraded = 0usize;
    for (&(sig, fanins, _), &slot) in items.iter().zip(&slot_of) {
        let artifact = &artifacts[slot];
        stats.merge(artifact.stats);
        ops.merge(&artifact.ops);
        peak = peak.max(artifact.peak);
        peak_computed = peak_computed.max(artifact.peak_computed);
        build_bytes = build_bytes.max(artifact.build_bytes);
        decompose_bytes = decompose_bytes.max(artifact.decompose_bytes);
        if let Some(rung) = artifact.degrade {
            degraded += 1;
            record_degrade(rung);
        }
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
            // The verbatim rung re-adds the original cover unchanged
            // (cover literals index fanin positions, exactly as stored).
            ArtifactBody::Verbatim(cover) => {
                out.add_node(work.signal_name(sig), var_signals, cover.clone())?
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
    bds_trace::gauge!("bdd.partitioned.peak_arena_nodes", peak as u64);
    bds_trace::gauge!(
        "bdd.partitioned.peak_computed_entries",
        peak_computed as u64
    );
    bds_trace::gauge!("bdd.phase.build.peak_arena_bytes", build_bytes as u64);
    bds_trace::gauge!(
        "bdd.phase.decompose.peak_arena_bytes",
        decompose_bytes as u64
    );
    publish_trace(&stats, &ops);
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

/// Publishes per-decomposition-kind counts and aggregated BDD operation
/// counters into the `bds-trace` registry. Compiles to nothing without
/// the `trace` feature.
fn publish_trace(stats: &DecomposeStats, ops: &OpStats) {
    bds_trace::counter_add!("decompose.and_dom", stats.and_dom as u64);
    bds_trace::counter_add!("decompose.or_dom", stats.or_dom as u64);
    bds_trace::counter_add!("decompose.xnor_dom", stats.xnor_dom as u64);
    bds_trace::counter_add!("decompose.func_mux", stats.func_mux as u64);
    bds_trace::counter_add!("decompose.gen_dom", stats.gen_dom as u64);
    bds_trace::counter_add!("decompose.gen_xdom", stats.gen_xdom as u64);
    bds_trace::counter_add!("decompose.shannon", stats.shannon as u64);
    bds_trace::counter_add!("decompose.leaves", stats.leaves as u64);
    bds_trace::counter_add!("decompose.shared", stats.shared as u64);
    bds_trace::counter_add!("bdd.ite_calls", ops.ite_calls);
    bds_trace::counter_add!("bdd.cache_hits", ops.cache_hits);
    bds_trace::counter_add!("bdd.cache_misses", ops.cache_misses);
    bds_trace::counter_add!("bdd.restrict_calls", ops.restrict_calls);
    bds_trace::counter_add!("bdd.unique_hits", ops.unique_hits);
    bds_trace::counter_add!("bdd.nodes_created", ops.nodes_created);
    bds_trace::counter_add!("bdd.cache.terminal_hits", ops.terminal_hits);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_network::verify::{verify, Verdict};
    use bds_sop::{Cover, Cube};

    fn adder_bit(
        net: &mut Network,
        a: SignalId,
        b: SignalId,
        cin: SignalId,
        i: usize,
    ) -> (SignalId, SignalId) {
        // sum = a ⊕ b ⊕ cin ; cout = ab + ac + bc — as flat covers.
        let sum_cover = Cover::from_cubes(vec![
            Cube::parse(&[(0, true), (1, false), (2, false)]),
            Cube::parse(&[(0, false), (1, true), (2, false)]),
            Cube::parse(&[(0, false), (1, false), (2, true)]),
            Cube::parse(&[(0, true), (1, true), (2, true)]),
        ]);
        let cout_cover = Cover::from_cubes(vec![
            Cube::parse(&[(0, true), (1, true)]),
            Cube::parse(&[(0, true), (2, true)]),
            Cube::parse(&[(1, true), (2, true)]),
        ]);
        let s = net
            .add_node(format!("sum{i}"), vec![a, b, cin], sum_cover)
            .unwrap();
        let c = net
            .add_node(format!("cout{i}"), vec![a, b, cin], cout_cover)
            .unwrap();
        (s, c)
    }

    fn ripple_adder(bits: usize) -> Network {
        let mut net = Network::new("adder");
        let a: Vec<SignalId> = (0..bits)
            .map(|i| net.add_input(format!("a{i}")).unwrap())
            .collect();
        let b: Vec<SignalId> = (0..bits)
            .map(|i| net.add_input(format!("b{i}")).unwrap())
            .collect();
        let mut carry = net.add_constant("c0", false).unwrap();
        for i in 0..bits {
            let (s, c) = adder_bit(&mut net, a[i], b[i], carry, i);
            net.mark_output(s).unwrap();
            carry = c;
        }
        net.mark_output(carry).unwrap();
        net
    }

    #[test]
    fn flow_preserves_adder_function_global() {
        let net = ripple_adder(4);
        let (opt, report) = optimize(&net, &FlowParams::default()).unwrap();
        // The portfolio may pick either mode; the function must hold.
        let _ = report.mode;
        assert_eq!(verify(&net, &opt, 1_000_000).unwrap(), Verdict::Equivalent);
        // The decomposition must have exploited XOR structure.
        let d = report.decompose;
        assert!(
            d.xnor_dom + d.gen_xdom > 0,
            "adders are XOR-intensive: {d:?}"
        );
    }

    #[test]
    fn flow_partitioned_mode_works() {
        let net = ripple_adder(6);
        let params = FlowParams {
            global_limit: 0,
            ..Default::default()
        };
        let (opt, report) = optimize(&net, &params).unwrap();
        assert_eq!(report.mode, FlowMode::Partitioned);
        assert_eq!(verify(&net, &opt, 1_000_000).unwrap(), Verdict::Equivalent);
    }

    #[test]
    fn tiny_budget_degrades_but_stays_equivalent() {
        let net = ripple_adder(4);
        let params = FlowParams {
            global_limit: 0,
            jobs: 1,
            govern: GovernParams {
                supernode_budget: 10,
                ..GovernParams::default()
            },
            ..FlowParams::default()
        };
        let (opt, report) = optimize(&net, &params).unwrap();
        assert!(
            report.degraded > 0,
            "a 10-tick budget must force the ladder"
        );
        assert_eq!(verify(&net, &opt, 1_000_000).unwrap(), Verdict::Equivalent);
        // Determinism: the sharded path degrades identically.
        let sharded = FlowParams { jobs: 4, ..params };
        let (opt4, report4) = optimize(&net, &sharded).unwrap();
        assert_eq!(report.degraded, report4.degraded);
        assert_eq!(
            bds_network::blif::write(&opt),
            bds_network::blif::write(&opt4),
            "degraded output must be byte-identical at any jobs count"
        );
    }

    #[test]
    fn injected_panic_surfaces_as_worker_panic() {
        let net = ripple_adder(4);
        let mut params = FlowParams {
            global_limit: 0,
            jobs: 1,
            ..FlowParams::default()
        };
        params.govern.inject = Some(FaultPlan {
            supernode: 2,
            fault: Fault::Panic,
            at_tick: 5,
        });
        let err = optimize(&net, &params).unwrap_err();
        assert!(
            matches!(err, NetworkError::WorkerPanic { .. }),
            "got {err:?}"
        );
        // The same plan produces the same structured error when sharded
        // (smallest-index-error-wins merge).
        let err4 = optimize(&net, &FlowParams { jobs: 4, ..params }).unwrap_err();
        assert_eq!(format!("{err}"), format!("{err4}"));
    }

    #[test]
    fn injected_budget_fault_degrades_instead_of_failing() {
        let net = ripple_adder(4);
        let mut params = FlowParams {
            global_limit: 0,
            jobs: 1,
            ..FlowParams::default()
        };
        params.govern.inject = Some(FaultPlan {
            supernode: 1,
            fault: Fault::Budget,
            at_tick: 3,
        });
        let (opt, report) = optimize(&net, &params).unwrap();
        assert!(report.degraded > 0, "the faulted supernode must degrade");
        assert_eq!(verify(&net, &opt, 1_000_000).unwrap(), Verdict::Equivalent);
    }

    #[test]
    fn partitioned_peak_counts_the_build_manager() {
        let xor3 = Cover::from_cubes(vec![
            Cube::parse(&[(0, true), (1, false), (2, false)]),
            Cube::parse(&[(0, false), (1, true), (2, false)]),
            Cube::parse(&[(0, false), (1, false), (2, true)]),
            Cube::parse(&[(0, true), (1, true), (2, true)]),
        ]);
        let mut net = Network::new("xor3");
        let ins: Vec<SignalId> = (0..3)
            .map(|i| net.add_input(format!("x{i}")).unwrap())
            .collect();
        let f = net.add_node("f", ins, xor3.clone()).unwrap();
        net.mark_output(f).unwrap();
        let params = FlowParams {
            global_limit: 0,
            ..FlowParams::default()
        };
        let (_, report) = optimize(&net, &params).unwrap();
        assert_eq!(report.mode, FlowMode::Partitioned);
        // The build manager holds the literals and the cubes' partial
        // products besides the XOR itself; sifting's rebuild sheds them.
        let mut mgr = Manager::new();
        let vars = mgr.new_vars(3);
        cover_to_bdd(&mut mgr, &xor3, &vars).unwrap();
        assert!(
            report.peak_bdd_nodes >= mgr.arena_size(),
            "peak {} below the build arena {}",
            report.peak_bdd_nodes,
            mgr.arena_size()
        );
    }

    #[test]
    fn flow_output_granularity_is_gate_level() {
        let net = ripple_adder(3);
        let (opt, _) = optimize(&net, &FlowParams::default()).unwrap();
        for sig in opt.node_ids() {
            let (fanins, _) = opt.node(sig).unwrap();
            assert!(
                fanins.len() <= 3,
                "gates must stay at ≤3 inputs (MUX worst case)"
            );
        }
    }
}
