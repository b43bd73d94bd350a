//! The `Decomposer` pinned by digests: decomposing the same roots in
//! the same order must give the factoring-forest nodes, roots,
//! `DecomposeStats`, arena size, `OpStats` and effort ticks (which
//! together pin the sequence of BDD operations it issued) recorded in
//! `tests/digests/decompose_differential.txt`, and under a tight effort
//! budget or an armed `Fault` the recorded error (an injected panic with
//! its message). The roots are the sifted global BDDs of flowbench's
//! `global_bdd` circuits and of table1's circuits, and seeded random
//! functions, under several decomposition parameter sets. The baseline
//! was recorded while a frozen copy of the engine this replaced, whose
//! per-function analyses hashed every vertex they visited and walked
//! each BDD several times, still agreed with it.
//!
//! CI also runs it in release, where the governed and random sets are
//! larger:
//! `cargo test --release --features strict-checks --test decompose_differential -- --nocapture`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use bds_prop::digest::Digests;
use bds_prop::{check_cases, Rng};
use bds_repro::bdd::reorder::sift;
use bds_repro::bdd::{Edge, Fault, Manager, OpStats};
use bds_repro::circuits::suites;
use bds_repro::core::decompose::{DecomposeParams, DecomposeStats, Decomposer, Method};
use bds_repro::core::factor_tree::{FactorForest, FactorRef};
use bds_repro::core::flow::FlowParams;
use bds_repro::network::Network;

/// Random cases; debug builds (the tier-1 run) take fewer.
const CASES: u32 = if cfg!(debug_assertions) { 30 } else { 400 };

/// Parameter sets tried on each circuit besides the default; debug
/// builds take the first few.
const CIRCUIT_SETS: usize = if cfg!(debug_assertions) {
    2
} else {
    usize::MAX
};

/// The governed variants of a run whose ungoverned decomposition spent
/// `effort` ticks: budgets that trip early, midway, one tick short and
/// not at all, and each fault armed a third of the way in (release
/// builds add more points).
fn governed(effort: u64) -> Vec<Govern> {
    let at = |num: u64, den: u64| effort * num / den;
    let mut out = vec![
        Govern::Budget(at(1, 2)),
        Govern::Budget(effort.saturating_sub(1)),
        Govern::Budget(effort),
    ];
    if !cfg!(debug_assertions) {
        out.extend([Govern::Budget(0), Govern::Budget(at(1, 10))]);
    }
    for fault in [Fault::Budget, Fault::Alloc, Fault::Panic] {
        out.push(Govern::Fault(fault, at(1, 3)));
        if !cfg!(debug_assertions) {
            out.extend([Govern::Fault(fault, 0), Govern::Fault(fault, at(2, 3))]);
        }
    }
    out
}

/// Keeps the default panic hook quiet for injected panics, which the
/// decomposer propagates and the harness catches.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|m| m.contains("injected fault"));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

/// How a run is limited once the roots are built: an effort budget or
/// an armed fault, both counted in ticks past the build.
#[derive(Copy, Clone, Debug, PartialEq)]
enum Govern {
    Free,
    Budget(u64),
    Fault(Fault, u64),
}

impl Govern {
    fn apply(self, mgr: &mut Manager) {
        let spent = mgr.effort_spent();
        match self {
            Govern::Free => {}
            Govern::Budget(allowance) => mgr.set_effort_limit(spent + allowance),
            Govern::Fault(fault, after) => mgr.arm_fault(fault, spent + after),
        }
    }
}

/// Everything one decomposition run is digested on.
#[derive(Debug)]
struct Run {
    roots: Vec<FactorRef>,
    forest: FactorForest,
    stats: DecomposeStats,
    arena: usize,
    ops: OpStats,
    /// Effort ticks spent past the build.
    effort: u64,
}

/// The run's result, or its error's (or injected panic's) text.
type Outcome = Result<Run, String>;

/// Catches an injected panic as its message.
fn caught(run: impl FnOnce() -> Outcome) -> Outcome {
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        Err(format!("panic: {msg}"))
    })
}

fn run(build: &dyn Fn() -> (Manager, Vec<Edge>), p: &DecomposeParams, g: Govern) -> Outcome {
    caught(|| {
        let (mut mgr, edges) = build();
        let built = mgr.effort_spent();
        g.apply(&mut mgr);
        let mut forest = FactorForest::new();
        let mut dec = Decomposer::new();
        let roots = edges
            .iter()
            .map(|&e| dec.decompose(&mut mgr, e, &mut forest, p))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok(Run {
            roots,
            forest,
            stats: dec.stats,
            arena: mgr.arena_size(),
            ops: mgr.op_stats(),
            effort: mgr.effort_spent() - built,
        })
    })
}

/// Runs the decomposer on `build`, digests the outcome under `label`
/// and returns it. An ungoverned run's factoring forest, roots, stats
/// and arena size, and its counters and effort (`label ops`), are
/// digested in every build; the governed runs (`label governed`) in
/// release builds only, as debug builds try fewer of them (see
/// `Digests::add_release`).
fn check(
    d: &mut Digests,
    label: &str,
    build: &dyn Fn() -> (Manager, Vec<Edge>),
    p: &DecomposeParams,
    g: Govern,
) -> Outcome {
    let got = run(build, p, g);
    match (&got, g) {
        (Ok(run), Govern::Free) => {
            d.add(
                label,
                format!(
                    "{:?} {:?} {:?} arena={}",
                    run.roots, run.forest, run.stats, run.arena
                ),
            );
            d.add(
                format!("{label} ops"),
                format!("{:?} effort={}", run.ops, run.effort),
            );
        }
        (Err(e), Govern::Free) => d.add(label, e),
        _ => d.add_release(format!("{label} governed"), format!("{g:?} {got:?}")),
    }
    got
}

/// Parameter sets: the default, each ablation the flows expose, and
/// settings that reach the Shannon fallback and the flat comparison
/// more often.
fn param_sets() -> Vec<(&'static str, DecomposeParams)> {
    let d = DecomposeParams::default();
    let mut reversed = d.clone();
    reversed.priority.reverse();
    let no_simple = DecomposeParams {
        priority: vec![
            Method::FunctionalMux,
            Method::GeneralizedDominator,
            Method::GeneralizedXDominator,
        ],
        ..d.clone()
    };
    vec![
        ("default", d.clone()),
        (
            "small search, wide leaves",
            DecomposeParams {
                max_search_size: 24,
                leaf_support: 3,
                flat_compare_support: 0,
                ..d.clone()
            },
        ),
        (
            "deepest dominator",
            DecomposeParams {
                balance_dominators: false,
                ..d.clone()
            },
        ),
        ("reversed priority", reversed),
        ("no simple dominators", no_simple),
        (
            "mux only, flat compare 12",
            DecomposeParams {
                priority: vec![Method::FunctionalMux],
                flat_compare_support: 12,
                ..d
            },
        ),
    ]
}

/// flowbench's `global_bdd` circuits and table1's circuits but shift32
/// (bshift32 under another name), as `optimize` hands them to the global
/// flow (compacted and swept).
fn circuits() -> Vec<(String, Network)> {
    suites::global_bdd_and_table1()
        .into_iter()
        .filter(|c| c.name != "shift32")
        .map(|c| {
            let mut work = c.net.compacted().expect("compacts");
            work.sweep().expect("sweeps");
            (c.name, work)
        })
        .collect()
}

/// The global flow's roots for `net`: every output's global BDD, sifted
/// together under the flow's default limits. `None` when the global
/// build exceeds the flow's node limit.
fn global_roots(net: &Network) -> Option<(Manager, Vec<Edge>)> {
    let params = FlowParams::default();
    let (mgr, edges, _) = net.global_bdds(params.global_limit).ok()?;
    Some(sift(&mgr, &edges, params.sift).expect("sifts"))
}

/// Checks `build` ungoverned and under every [`governed`] variant,
/// digested under `label`; returns how many governed runs failed.
fn check_governed(
    d: &mut Digests,
    label: &str,
    name: &str,
    build: &dyn Fn() -> (Manager, Vec<Edge>),
    p: &DecomposeParams,
) -> usize {
    let free = check(d, label, build, p, Govern::Free);
    let Ok(free) = free else {
        return 0;
    };
    let mut failed = 0;
    for g in governed(free.effort) {
        let run = check(d, label, build, p, g);
        if g == Govern::Budget(free.effort) {
            assert!(run.is_ok(), "{name}: the exact budget must suffice");
        } else if free.effort > 0 && g == Govern::Budget(free.effort - 1) {
            assert!(run.is_err(), "{name}: one tick short must fail");
        }
        failed += usize::from(run.is_err());
    }
    failed
}

#[test]
fn matches_reference_on_circuit_global_bdds() {
    quiet_injected_panics();
    let mut built = 0;
    let mut d = bds_prop::digests!("circuits");
    for (name, net) in circuits() {
        if global_roots(&net).is_none() {
            continue;
        }
        built += 1;
        let build = || global_roots(&net).expect("built once already");
        let default = DecomposeParams::default();
        let failed = check_governed(&mut d, &name, &name, &build, &default);
        let free = run(&build, &default, Govern::Free);
        assert!(
            free.is_ok(),
            "{name} fails under default parameters: {free:?}"
        );
        let (mut tried, mut ok) = (0, 0);
        for (label, p) in param_sets().into_iter().skip(1).take(CIRCUIT_SETS) {
            tried += 1;
            let label = format!("{name} ({label})");
            ok += usize::from(check(&mut d, &label, &build, &p, Govern::Free).is_ok());
        }
        println!(
            "{name}: {ok} of {tried} other parameter sets decompose within the node limit; \
             {failed} governed runs failed"
        );
    }
    assert!(built >= 15, "only {built} circuits built a global BDD");
    d.check();
}

/// A random function over `vars` variables: a random mix of AND, OR,
/// XOR and ITE over literals and earlier terms.
fn random_function(m: &mut Manager, rng: &mut Rng, vars: usize) -> Edge {
    let mut pool: Vec<Edge> = (0..vars)
        .map(|i| m.literal(bds_repro::bdd::Var::from_index(i), true))
        .collect();
    let steps = rng.range_usize(vars..3 * vars + 2);
    for _ in 0..steps {
        let a = rng.choose(&pool).complement_if(rng.bool());
        let b = rng.choose(&pool).complement_if(rng.bool());
        let f = match rng.range_u32(0..4) {
            0 => m.and(a, b),
            1 => m.or(a, b),
            2 => m.xor(a, b),
            _ => {
                let c = *rng.choose(&pool);
                m.ite(c, a, b)
            }
        }
        .expect("unlimited manager");
        pool.push(f);
    }
    *pool.last().expect("at least the literals")
}

#[test]
fn matches_reference_on_random_functions() {
    quiet_injected_panics();
    let sets = param_sets();
    let mut d = bds_prop::digests!("random");
    let mut case = 0u32;
    check_cases("decompose_differential_random", CASES, |rng| {
        let vars = rng.range_usize(3..13);
        let outputs = rng.range_usize(1..5);
        let seed = rng.next_u64();
        let build = move || {
            let mut m = Manager::new();
            m.new_vars(vars);
            let mut r = Rng::new(seed);
            let roots = (0..outputs)
                .map(|_| random_function(&mut m, &mut r, vars))
                .collect();
            (m, roots)
        };
        let (label, p) = rng.choose(&sets);
        let name = format!("random vars={vars} outputs={outputs} seed={seed} ({label})");
        check_governed(&mut d, &format!("{case:04}"), &name, &build, p);
        case += 1;
    });
    d.check();
}
