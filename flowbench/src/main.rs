//! End-to-end and per-layer benchmark of the BDS flow and the SIS-style
//! baseline.
//!
//! ```text
//! cargo run --release --manifest-path flowbench/Cargo.toml -- \
//!     --workload <scale_arith|global_bdd|sis_rugged> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload on one thread. It generates the
//! workload's circuits, round-trips them through BLIF, and optimizes
//! every circuit once per repetition, in an order drawn from the seed,
//! until `--seconds` have passed (at least three repetitions). Every call is timed between runs
//! of a reference kernel and reported in seconds at reference speed (see
//! [`measure`]). Every output must be byte-identical across repetitions
//! and proven equivalent to its input.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics, measured by
//! replaying each flow's public phase calls from here ([`replay`]).

mod measure;
mod replay;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use bds::flow::{optimize, FlowMode, FlowParams, FlowReport};
use bds::sis_flow::{script_rugged, SisParams, SisReport};
use bds_map::{map_network, Library};
use bds_network::verify::{verify, verify_by_simulation, Verdict};
use bds_network::{blif, Network, NetworkError};

use measure::{median, stopwatch, Meter, PerCircuit, Ratio};
use workloads::{visit_order, Workload};

/// Set-up repetitions per process; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Fewest flow repetitions per process, however long they take.
const MIN_REPS: usize = 3;
/// The equivalence rule of `bds_bench::harness`: global-BDD `verify` at
/// this node limit, falling back to random simulation.
const VERIFY_NODE_LIMIT: usize = 2_000_000;
const SIM_ROUNDS: usize = 512;
const SIM_SEED: u64 = 0xB5D5;

const USAGE: &str =
    "usage: flowbench --workload <scale_arith|global_bdd|sis_rugged> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The BDS flow's parameters. `FlowParams::default()` takes `jobs` from
/// `BDS_FLOW_JOBS`; the benchmark pins one thread so every workload is
/// one single-threaded process whatever the environment says.
fn flow_params() -> FlowParams {
    FlowParams {
        jobs: 1,
        ..FlowParams::default()
    }
}

/// One generated circuit, as the program receives it (parsed from BLIF).
struct Circuit {
    name: &'static str,
    net: Network,
}

struct Setup {
    circuits: Vec<Circuit>,
    /// Normalized seconds of each set-up repetition.
    times: Vec<f64>,
    /// Normalized `blif::parse` seconds per circuit and repetition.
    parse: PerCircuit,
}

/// Generates the circuits and round-trips them through BLIF,
/// `SETUP_REPS` times. Each repetition must produce the same text, and
/// the parsed network must write back to the same text.
fn set_up(meter: &mut Meter, workload: Workload) -> Result<Setup, String> {
    let mut times = Vec::new();
    let mut parse = PerCircuit::new(0);
    let mut texts: Vec<String> = Vec::new();
    let mut circuits = Vec::new();
    for rep in 0..SETUP_REPS {
        let mut parse_raw = Vec::new();
        let (built, t) = meter.measure(|| {
            workload
                .circuits()
                .into_iter()
                .map(|(name, net)| {
                    let text = blif::write(&net);
                    let mut raw = 0.0;
                    let parsed = stopwatch(&mut raw, || blif::parse(&text))
                        .map_err(|e| format!("{name}: BLIF parse failed: {e}"))?;
                    parse_raw.push(raw);
                    Ok((name, text, parsed))
                })
                .collect::<Result<Vec<_>, String>>()
        });
        let built = built?;
        times.push(t.norm_s());
        if rep == 0 {
            parse = PerCircuit::new(built.len());
            texts = built.iter().map(|(_, text, _)| text.clone()).collect();
        }
        for (i, raw) in parse_raw.into_iter().enumerate() {
            parse.push(i, t.normalize(raw));
        }
        for ((name, text, parsed), first) in built.iter().zip(&texts) {
            if text != first {
                return Err(format!(
                    "{name}: set-up repetition {rep} generated different BLIF"
                ));
            }
            if blif::write(parsed) != *text {
                return Err(format!("{name}: BLIF round trip changed the network"));
            }
        }
        circuits = built
            .into_iter()
            .map(|(name, _, net)| Circuit { name, net })
            .collect();
    }
    Ok(Setup {
        circuits,
        times,
        parse,
    })
}

/// The report of whichever flow ran.
enum Report {
    Bds(Box<FlowReport>),
    Sis(SisReport),
}

/// One optimize call: `bds::flow::optimize`, or `script_rugged` on
/// `sis_rugged`.
fn run_flow(workload: Workload, net: &Network) -> Result<(Network, Report), NetworkError> {
    if workload.is_sis() {
        script_rugged(net, &SisParams::default()).map(|(n, r)| (n, Report::Sis(r)))
    } else {
        optimize(net, &flow_params()).map(|(n, r)| (n, Report::Bds(Box::new(r))))
    }
}

/// Outcome of the equivalence rule on one output.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Proof {
    Bdd,
    Simulation,
    Refuted,
}

impl Proof {
    fn holds(self) -> bool {
        self != Proof::Refuted
    }
}

/// `bds_bench::harness`'s rule: BDD `verify`; when it cannot decide
/// (node limit), 512 rounds of random simulation.
fn check(original: &Network, result: &Network) -> Proof {
    match verify(original, result, VERIFY_NODE_LIMIT) {
        Ok(Verdict::Equivalent) => Proof::Bdd,
        Ok(Verdict::Inequivalent { .. }) => Proof::Refuted,
        Err(_) => match verify_by_simulation(original, result, SIM_ROUNDS, SIM_SEED) {
            Ok(Verdict::Equivalent) => Proof::Simulation,
            _ => Proof::Refuted,
        },
    }
}

/// Per-circuit bookkeeping shared by both runs: the first output (every
/// later repetition must match it byte for byte) and whether each
/// repetition's operation succeeded.
struct Ledger {
    first: Vec<Option<(String, Network, Report)>>,
    ok: Vec<Vec<bool>>,
}

impl Ledger {
    fn new(n: usize) -> Self {
        Ledger {
            first: (0..n).map(|_| None).collect(),
            ok: vec![Vec::new(); n],
        }
    }

    /// Records one repetition's result for circuit `c`; returns the BLIF
    /// text when the call succeeded.
    fn record(
        &mut self,
        c: &Circuit,
        idx: usize,
        res: Result<(Network, Report), NetworkError>,
    ) -> Option<String> {
        let (net, report) = match res {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{}: flow failed: {e}", c.name);
                self.ok[idx].push(false);
                return None;
            }
        };
        let text = blif::write(&net);
        let same = match &self.first[idx] {
            None => {
                self.first[idx] = Some((text.clone(), net, report));
                true
            }
            Some((first, _, _)) => *first == text,
        };
        if !same {
            eprintln!("{}: output BLIF differs from the first repetition", c.name);
        }
        self.ok[idx].push(same);
        Some(text)
    }

    /// Marks the latest repetition of circuit `idx` failed.
    fn fail_last(&mut self, idx: usize) {
        if let Some(ok) = self.ok[idx].last_mut() {
            *ok = false;
        }
    }

    /// Marks every repetition of circuit `idx` failed (its output was refuted).
    fn refute(&mut self, idx: usize) {
        self.ok[idx].iter_mut().for_each(|ok| *ok = false);
    }

    fn attempted(&self) -> usize {
        self.ok.iter().map(Vec::len).sum()
    }

    fn failed(&self) -> usize {
        self.ok.iter().flatten().filter(|ok| !**ok).count()
    }
}

/// Runs `body` once per repetition until `seconds` have passed (it starts
/// a repetition only if one more of average length still fits), with at
/// least `MIN_REPS` repetitions. Returns the repetition count.
fn repeat_for(seconds: f64, mut body: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut reps = 0;
    loop {
        let spent = start.elapsed().as_secs_f64();
        if reps >= MIN_REPS && spent + spent / reps as f64 > seconds {
            return reps;
        }
        body();
        reps += 1;
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// A metric value: counts print as integers, everything else in full.
#[derive(Copy, Clone, Debug)]
enum Num {
    F(f64),
    U(u64),
}

impl std::fmt::Display for Num {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Num::F(v) => write!(f, "{v}"),
            Num::U(v) => write!(f, "{v}"),
        }
    }
}

type Metrics = Vec<(&'static str, &'static str, Num)>;

/// Quality of one checked output.
struct Quality {
    literals: u64,
    area: f64,
    delay: f64,
}

fn quality(net: &Network, lib: &Library) -> Result<Quality, NetworkError> {
    let mapped = map_network(net, lib)?;
    Ok(Quality {
        literals: net.stats().literals as u64,
        area: mapped.area,
        delay: mapped.delay,
    })
}

/// Checks the first output of every circuit against its input, refuting
/// the circuit's repetitions when it fails; returns the proofs and, in
/// `verify_s`, each check's normalized seconds.
fn check_outputs(
    meter: &mut Meter,
    circuits: &[Circuit],
    ledger: &mut Ledger,
    verify_s: &mut PerCircuit,
) -> Vec<Proof> {
    let mut proofs = Vec::new();
    for (i, c) in circuits.iter().enumerate() {
        let proof = match &ledger.first[i] {
            Some((_, out, _)) => {
                let (proof, t) = meter.measure(|| check(&c.net, out));
                verify_s.push(i, t.norm_s());
                proof
            }
            None => Proof::Refuted,
        };
        if !proof.holds() {
            eprintln!("{}: output is not equivalent to its input", c.name);
            ledger.refute(i);
        }
        proofs.push(proof);
    }
    proofs
}

/// The `--trace 0` run: end-to-end metrics.
fn end_to_end(meter: &mut Meter, args: &Args, setup: &Setup) -> Result<(Ledger, Metrics), String> {
    let circuits = &setup.circuits;
    let n = circuits.len();
    let order = visit_order(args.seed, n);
    let mut ledger = Ledger::new(n);
    let mut flow = PerCircuit::new(n);
    let mut wall = PerCircuit::new(n);
    let reps = repeat_for(args.seconds, || {
        for &i in &order {
            let (res, t) = meter.measure(|| run_flow(args.workload, &circuits[i].net));
            if ledger.record(&circuits[i], i, res).is_some() {
                flow.push(i, t.norm_s());
                wall.push(i, t.raw_s);
            }
        }
    });
    // Before the checks: BDD `verify` on the scale circuits builds up to
    // two million nodes and would otherwise set the high-water mark.
    let rss = peak_rss_mb()?;
    let lib = Library::mcnc();
    let proofs = check_outputs(meter, circuits, &mut ledger, &mut PerCircuit::new(n));
    let (mut literals, mut area, mut delay) = (0u64, 0f64, 0f64);
    println!(
        "{:<12} {:>5} {:>10} {:>10} {:>8} {:>10} {:>8} {:>6}",
        "circuit", "reps", "flow_s", "wall_s", "literals", "area", "delay", "proof"
    );
    for (i, c) in circuits.iter().enumerate() {
        let Some((_, out, _)) = &ledger.first[i] else {
            continue;
        };
        let q = match quality(out, &lib) {
            Ok(q) => q,
            Err(e) => {
                eprintln!("{}: mapping failed: {e}", c.name);
                ledger.refute(i);
                continue;
            }
        };
        literals += q.literals;
        area += q.area;
        delay += q.delay;
        println!(
            "{:<12} {:>5} {:>10.4} {:>10.4} {:>8} {:>10.1} {:>8.2} {:>6?}",
            c.name,
            reps,
            median(flow.samples(i)),
            median(wall.samples(i)),
            q.literals,
            q.area,
            q.delay,
            proofs[i]
        );
    }
    let proven = Ratio {
        num: proofs.iter().filter(|p| p.holds()).count() as f64,
        den: n as f64,
    };
    println!("verify_pass_ratio = {}", proven.describe());
    println!(
        "flow wall (raw) = {} s over {reps} repetitions; reference kernel median = {} s",
        wall.summed_median(),
        meter.kernel_median_s()
    );
    let setup_s = median(&setup.times);
    Ok((
        ledger,
        vec![
            ("flow_s", "s", Num::F(flow.summed_median())),
            ("setup_s", "s", Num::F(setup_s)),
            ("literals", "count", Num::U(literals)),
            ("mapped_area", "area", Num::F(area)),
            ("mapped_delay", "delay", Num::F(delay)),
            ("verify_pass_ratio", "ratio", Num::F(proven.value())),
            ("peak_rss_mb", "MB", Num::F(rss)),
        ],
    ))
}

/// Per-layer timing tables of the traced run (normalized seconds).
struct Layers {
    flow: PerCircuit,
    traced: PerCircuit,
    wall: PerCircuit,
    prologue: PerCircuit,
    eliminate: PerCircuit,
    eliminate_lits: PerCircuit,
    global: PerCircuit,
    partitioned: PerCircuit,
    build: PerCircuit,
    sift: PerCircuit,
    map: PerCircuit,
    verify: PerCircuit,
    /// Node count after eliminate + sweep, from each circuit's first
    /// repetition (the flows are deterministic).
    nodes_after_eliminate: Vec<Option<usize>>,
}

impl Layers {
    fn new(n: usize) -> Self {
        let t = || PerCircuit::new(n);
        Layers {
            flow: t(),
            traced: t(),
            wall: t(),
            prologue: t(),
            eliminate: t(),
            eliminate_lits: t(),
            global: t(),
            partitioned: t(),
            build: t(),
            sift: t(),
            map: t(),
            verify: t(),
            nodes_after_eliminate: vec![None; n],
        }
    }
}

/// One traced repetition of circuit `i`: the untraced call (timed whole),
/// then the same flow replayed phase by phase, then the probes.
fn traced_rep(
    meter: &mut Meter,
    workload: Workload,
    c: &Circuit,
    i: usize,
    ledger: &mut Ledger,
    layers: &mut Layers,
) {
    let (res, t) = meter.measure(|| run_flow(workload, &c.net));
    let first_rep = ledger.ok[i].is_empty();
    let Some(text) = ledger.record(c, i, res) else {
        return;
    };
    layers.flow.push(i, t.norm_s());
    layers.wall.push(i, t.raw_s);
    if workload.is_sis() {
        // `script_rugged` cannot be split from outside past its prologue:
        // the traced pass is the same whole call, and the prologue
        // phases are re-issued as probes.
        let (res, t) = meter.measure(|| run_flow(workload, &c.net));
        match res {
            Ok((out, _)) if blif::write(&out) == text => layers.traced.push(i, t.norm_s()),
            _ => ledger.fail_last(i),
        }
        let (probe, t) = meter.measure(|| replay::probe_sis(&c.net, &SisParams::default()));
        match probe {
            Ok(p) => {
                layers.prologue.push(i, t.normalize(p.prologue));
                layers.eliminate_lits.push(i, t.normalize(p.eliminate_lits));
                if first_rep {
                    layers.nodes_after_eliminate[i] = Some(p.nodes_after_eliminate);
                }
            }
            Err(e) => {
                eprintln!("{}: prologue probe failed: {e}", c.name);
                ledger.fail_last(i);
            }
        }
        return;
    }
    let params = flow_params();
    let (res, t) = meter.measure(|| replay::replay_optimize(&c.net, &params));
    let r = match res {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: replay failed: {e}", c.name);
            ledger.fail_last(i);
            return;
        }
    };
    let expected_mode = match &ledger.first[i] {
        Some((_, _, Report::Bds(report))) => Some(report.mode),
        _ => None,
    };
    if blif::write(&r.net) != text || expected_mode != Some(r.mode) {
        eprintln!("{}: replay diverged from optimize", c.name);
        ledger.fail_last(i);
    }
    layers.traced.push(i, t.norm_s());
    layers.prologue.push(i, t.normalize(r.phases.prologue));
    layers.eliminate.push(i, t.normalize(r.phases.eliminate));
    layers.global.push(i, t.normalize(r.phases.global));
    layers
        .partitioned
        .push(i, t.normalize(r.phases.partitioned));
    layers.map.push(i, t.normalize(r.phases.map));
    if first_rep {
        layers.nodes_after_eliminate[i] = r.nodes_after_eliminate;
    }
    if r.global_attempted {
        let (probe, t) = meter.measure(|| replay::probe_bdd(&r.work, &params));
        match probe {
            Ok(p) => {
                layers.build.push(i, t.normalize(p.build));
                layers.sift.push(i, t.normalize(p.sift));
            }
            Err(e) => {
                eprintln!("{}: BDD probe failed: {e}", c.name);
                ledger.fail_last(i);
            }
        }
    }
}

/// The `--trace 1` run: per-layer metrics.
fn per_layer(meter: &mut Meter, args: &Args, setup: &Setup) -> Result<(Ledger, Metrics), String> {
    let circuits = &setup.circuits;
    let n = circuits.len();
    let order = visit_order(args.seed, n);
    let mut ledger = Ledger::new(n);
    let mut layers = Layers::new(n);
    repeat_for(args.seconds, || {
        for &i in &order {
            traced_rep(
                meter,
                args.workload,
                &circuits[i],
                i,
                &mut ledger,
                &mut layers,
            );
        }
    });
    check_outputs(meter, circuits, &mut ledger, &mut layers.verify);

    let mut ops = bds_bdd::OpStats::default();
    let (mut peak_nodes, mut eliminated, mut degraded, mut steps, mut shared) = (0, 0, 0, 0, 0);
    let (mut extracted, mut resubstituted) = (0, 0);
    let mut global = Ratio { num: 0.0, den: 0.0 };
    for first in ledger.first.iter().flatten() {
        match &first.2 {
            Report::Bds(r) => {
                ops.merge(&r.bdd_ops);
                peak_nodes += r.peak_bdd_nodes as u64;
                eliminated += r.eliminated as u64;
                degraded += r.degraded as u64;
                steps += r.decompose.steps() as u64;
                shared += r.decompose.shared as u64;
                global.den += 1.0;
                if r.mode == FlowMode::Global {
                    global.num += 1.0;
                }
            }
            Report::Sis(r) => {
                extracted += r.extracted as u64;
                resubstituted += r.resubstituted as u64;
            }
        }
    }
    let hits = Ratio {
        num: ops.cache_hits as f64,
        den: (ops.cache_hits + ops.cache_misses) as f64,
    };
    let flow_s = layers.flow.summed_median();
    let traced_s = layers.traced.summed_median();
    let layer_sum_s: f64 = [
        &layers.prologue,
        &layers.eliminate,
        &layers.eliminate_lits,
        &layers.global,
        &layers.partitioned,
        &layers.map,
    ]
    .iter()
    .map(|t| t.summed_median())
    .sum();
    let coverage = Ratio {
        num: layer_sum_s,
        den: flow_s,
    };
    let overhead = Ratio {
        num: traced_s,
        den: flow_s,
    };
    let nodes_after: usize = layers.nodes_after_eliminate.iter().flatten().sum();
    println!("bdd.cache_hit_ratio = {}", hits.describe());
    println!("flow.global_share = {}", global.describe());
    println!("bench.layer_coverage = {}", coverage.describe());
    println!("bench.trace_overhead + 1 = {}", overhead.describe());
    let f = Num::F;
    Ok((
        ledger,
        vec![
            ("network.parse_s", "s", f(setup.parse.summed_median())),
            (
                "network.prologue_s",
                "s",
                f(layers.prologue.summed_median()),
            ),
            (
                "network.eliminate_s",
                "s",
                f(layers.eliminate.summed_median()),
            ),
            (
                "network.eliminate_lits_s",
                "s",
                f(layers.eliminate_lits.summed_median()),
            ),
            ("bds.global_s", "s", f(layers.global.summed_median())),
            (
                "bds.partitioned_s",
                "s",
                f(layers.partitioned.summed_median()),
            ),
            ("bdd.build_s", "s", f(layers.build.summed_median())),
            ("bdd.sift_s", "s", f(layers.sift.summed_median())),
            ("map.area_s", "s", f(layers.map.summed_median())),
            ("network.verify_s", "s", f(layers.verify.summed_median())),
            ("bdd.ite_calls", "count", Num::U(ops.ite_calls)),
            ("bdd.nodes_created", "count", Num::U(ops.nodes_created)),
            ("bdd.peak_nodes", "count", Num::U(peak_nodes)),
            ("bdd.cache_hits", "count", Num::U(ops.cache_hits)),
            ("bdd.cache_misses", "count", Num::U(ops.cache_misses)),
            ("bdd.cache_hit_ratio", "ratio", f(hits.value())),
            ("flow.eliminated", "count", Num::U(eliminated)),
            ("flow.global_circuits", "count", Num::U(global.num as u64)),
            ("flow.bds_circuits", "count", Num::U(global.den as u64)),
            ("flow.global_share", "ratio", f(global.value())),
            ("flow.degraded", "count", Num::U(degraded)),
            ("decompose.steps", "count", Num::U(steps)),
            ("decompose.shared", "count", Num::U(shared)),
            ("sis.extracted", "count", Num::U(extracted)),
            ("sis.resubstituted", "count", Num::U(resubstituted)),
            (
                "network.nodes_after_eliminate",
                "count",
                Num::U(nodes_after as u64),
            ),
            ("bench.ref_kernel_s", "s", f(meter.kernel_median_s())),
            ("bench.flow_wall_s", "s", f(layers.wall.summed_median())),
            ("bench.flow_s", "s", f(flow_s)),
            ("bench.traced_flow_s", "s", f(traced_s)),
            ("bench.layer_sum_s", "s", f(layer_sum_s)),
            ("bench.layer_coverage", "ratio", f(coverage.value())),
            ("bench.trace_overhead", "ratio", f(overhead.value() - 1.0)),
        ],
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("flowbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut meter = Meter::new();
    let run = set_up(&mut meter, args.workload).and_then(|setup| {
        if args.trace {
            per_layer(&mut meter, &args, &setup)
        } else {
            end_to_end(&mut meter, &args, &setup)
        }
    });
    let (ledger, metrics) = match run {
        Ok(out) => out,
        Err(msg) => {
            eprintln!("flowbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let failed = ledger.failed();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        ledger.attempted(),
        body.join(", ")
    );
    ExitCode::SUCCESS
}
