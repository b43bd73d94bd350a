//! The tree mapper pinned by digests: the subject graph and the `area`,
//! `delay` bits, `gate_count` and `gate_histogram` of mapping it for
//! area, or the error, with the built-in library and with a parsed
//! genlib library, must be those recorded in
//! `tests/digests/mapper_differential.txt`. The networks are every
//! network `optimize` maps on the scaling circuits and the table1 set
//! (the swept input, the global candidate and both partitioned
//! candidates), and seeded random networks of 1–6-input nodes built to
//! hold XOR/XNOR/MUX covers in every phase and fanin order, repeated
//! covers, constant and unit covers, and multi-fanout XOR trees. The
//! baseline was recorded while a frozen copy of the mapper this one
//! replaced (which allocated per match and re-planned every cover) still
//! agreed with it.
//!
//! CI also runs it in release, where the random set is larger:
//! `cargo test --release --features strict-checks --test mapper_differential -- --nocapture`.

use bds_prop::digest::Digests;
use bds_prop::{check_cases, Rng};
use bds_repro::circuits::suites::{self, Circuit, Sizes};
use bds_repro::core::flow::{optimize_global, optimize_partitioned, FlowParams};
use bds_repro::map::cover::{map_subject, MappedNetlist};
use bds_repro::map::{parse_genlib, Library, Subject};
use bds_repro::network::{Network, SignalId};
use bds_repro::sop::{Cover, Cube};

/// Random networks; debug builds (the tier-1 run) take fewer.
const CASES: u32 = if cfg!(debug_assertions) { 40 } else { 600 };

/// A genlib library unlike the built-in one: fractional areas and
/// delays (so the order of the cost sums shows), a buffer (an
/// input-rooted pattern), cells of up to six inputs, a MUX with its
/// select second, and two cells sharing a name.
const GENLIB: &str = "
GATE buf    1.25 O=A;                 PIN * NONINV 1 999 0.7 0.1 0.7 0.1
GATE inv    1.0  O=!A;                PIN * INV 1 999 0.45 0.1 0.55 0.1
GATE nand2  1.5  O=!(A*B);            PIN * INV 1 999 0.8 0.2 0.85 0.2
GATE nor2   1.5  O=!(A+B);            PIN * INV 1 999 0.95 0.2 0.9 0.2
GATE and3   2.75 O=A*B*C;             PIN * NONINV 1 999 1.3 0.2 1.35 0.2
GATE or3    2.75 O=A+B+C;             PIN * NONINV 1 999 1.45 0.2 1.4 0.2
GATE aoi21  2.1  O=!(A*B+C);          PIN * INV 1 999 1.05 0.2 1.1 0.2
GATE oai22  2.6  O=!((A+B)*(C+D));    PIN * INV 1 999 1.2 0.2 1.15 0.2
GATE aoi222 4.35 O=!(A*B+C*D+E*F);    PIN * INV 1 999 1.7 0.2 1.65 0.2
GATE xor2   3.3  O=A*!B+!A*B;         PIN * UNKNOWN 2 999 1.6 0.3 1.55 0.3
GATE xnor2  3.3  O=A*B+!A*!B;         PIN * UNKNOWN 2 999 1.6 0.3 1.65 0.3
GATE mux21  4.05 O=A*S+B*!S;          PIN * UNKNOWN 1 999 1.75 0.3 1.8 0.3
GATE nand2  1.4  O=!(A*B);            PIN * INV 1 999 0.9 0.2 0.9 0.2
";

/// The mapped figures digested, or the error's text.
fn figures(m: Result<MappedNetlist, impl std::fmt::Display>) -> Result<String, String> {
    match m {
        Ok(m) => Ok(format!(
            "area={} delay={:#x} gates={} {:?}",
            m.area,
            m.delay.to_bits(),
            m.gate_count,
            m.gate_histogram
        )),
        Err(e) => Err(e.to_string()),
    }
}

/// Digests the subject graph of `net` and its mapping for area with
/// every library under `name`.
fn check(d: &mut Digests, name: &str, net: &Network, libs: &[(&str, Library)]) {
    let subject = Subject::from_network(net).expect("decomposes");
    d.add(
        name,
        format!("{:?} {:?}", subject.nodes(), subject.outputs()),
    );
    for (lib_name, lib) in libs {
        d.add(
            name,
            format!("{lib_name}: {:?}", figures(map_subject(&subject, lib))),
        );
    }
}

fn libraries() -> Vec<(&'static str, Library)> {
    vec![
        ("mcnc", Library::mcnc()),
        ("genlib", parse_genlib(GENLIB).expect("test library parses")),
    ]
}

/// Every network `optimize` maps on `net` under default parameters: the
/// swept input and the global candidate (when the global form is tried
/// and fits), and both partitioned candidates. `optimize` skips the last
/// two when the global form wins outright; they are mapped here anyway.
fn mapped_by_optimize(net: &Network) -> Vec<(&'static str, Network)> {
    let params = FlowParams {
        jobs: 1,
        ..FlowParams::default()
    };
    let mut work = net.compacted().expect("compacts");
    work.sweep().expect("sweeps");
    let mut out = Vec::new();
    if work.inputs().len() <= params.global_max_inputs {
        if let Ok((global, _)) = optimize_global(&work, &params) {
            out.push(("global", global));
        }
    }
    let mut collapsed = work.clone();
    collapsed.eliminate(&params.eliminate).expect("eliminates");
    collapsed.sweep().expect("sweeps");
    let (from_collapsed, _) = optimize_partitioned(&collapsed, &params).expect("partitions");
    let (from_swept, _) = optimize_partitioned(&work, &params).expect("partitions");
    out.push(("partitioned collapsed", from_collapsed));
    out.push(("partitioned swept", from_swept));
    out.push(("swept", work));
    out
}

fn check_flow_networks(group: &str, suite: &[Circuit]) {
    let libs = libraries();
    let mut d = bds_prop::digests!(group);
    for Circuit { name, net, .. } in suite {
        let networks = mapped_by_optimize(net);
        for (form, mapped) in &networks {
            check(&mut d, &format!("{name} ({form})"), mapped, &libs);
        }
        eprintln!("{name}: {} networks", networks.len());
    }
    d.check();
}

#[test]
fn scaling_circuits_match_the_reference() {
    check_flow_networks("scaling", &suites::scale());
}

#[test]
fn table1_circuits_match_the_reference() {
    check_flow_networks("table1", &suites::table1(Sizes::Full));
}

/// `ite(x_s ⊕ cs, x_h ⊕ ch, x_l ⊕ cl)` over the positions `s, h, l`.
fn mux_cover(s: u32, h: u32, l: u32, cs: bool, ch: bool, cl: bool) -> Cover {
    Cover::from_cubes(vec![
        Cube::parse(&[(s, !cs), (h, !ch)]),
        Cube::parse(&[(s, cs), (l, !cl)]),
    ])
}

/// `x0 ⊕ x1`, or `x0 ⊙ x1` with `xnor`, with its cubes in either order.
fn xor_cover(xnor: bool, swapped: bool) -> Cover {
    let mut cubes = vec![
        Cube::parse(&[(0, true), (1, xnor)]),
        Cube::parse(&[(0, false), (1, !xnor)]),
    ];
    if swapped {
        cubes.reverse();
    }
    Cover::from_cubes(cubes)
}

/// A random cover over positions `0..arity`; it may hold the unit cube.
fn random_cover(rng: &mut Rng, arity: usize) -> Cover {
    let mut cubes = Vec::new();
    for _ in 0..rng.range_usize(1..5) {
        let mut lits = Vec::new();
        for v in 0..arity as u32 {
            if rng.ratio(0.5) {
                lits.push((v, rng.bool()));
            }
        }
        cubes.push(Cube::new(lits).expect("distinct positions"));
    }
    Cover::from_cubes(cubes)
}

/// `count` distinct signals of `pool`, in random order.
fn pick(rng: &mut Rng, pool: &[SignalId], count: usize) -> Vec<SignalId> {
    let mut pool = pool.to_vec();
    (0..count)
        .map(|_| pool.swap_remove(rng.range_usize(0..pool.len())))
        .collect()
}

/// A seeded random network of 1–6-input nodes.
fn random_network(rng: &mut Rng) -> Network {
    let mut net = Network::new("random");
    let mut signals: Vec<SignalId> = (0..rng.range_usize(4..9))
        .map(|i| net.add_input(format!("i{i}")).expect("unique name"))
        .collect();
    // Covers drawn again and again, so the plan memo is hit.
    let palette: Vec<(usize, Cover)> = (0..3)
        .map(|_| {
            let arity = rng.range_usize(1..4);
            (arity, random_cover(rng, arity))
        })
        .collect();
    for k in 0..rng.range_usize(5..40) {
        let (fanins, cover) = match rng.range_u32(0..7) {
            0 => (pick(rng, &signals, 2), xor_cover(rng.bool(), rng.bool())),
            1 => {
                // Select, then-input and else-input in a random order.
                let mut pos = [0, 1, 2];
                for i in (1..3).rev() {
                    pos.swap(i, rng.range_usize(0..i + 1));
                }
                let cover = mux_cover(pos[0], pos[1], pos[2], rng.bool(), rng.bool(), rng.bool());
                (pick(rng, &signals, 3), cover)
            }
            2 => {
                let arity = rng.range_usize(0..3);
                let cover = if rng.bool() {
                    Cover::one()
                } else {
                    Cover::zero()
                };
                (pick(rng, &signals, arity), cover)
            }
            3 => {
                let (arity, cover) = rng.choose(&palette).clone();
                (pick(rng, &signals, arity), cover)
            }
            4 => {
                // A multi-fanout XOR tree: an XOR node read by two more.
                let [a, b, c, d] = pick(rng, &signals, 4)[..] else {
                    unreachable!("four signals")
                };
                let x = net
                    .add_node(format!("x{k}"), vec![a, b], xor_cover(false, false))
                    .expect("unique name");
                let y = net
                    .add_node(format!("y{k}"), vec![x, c], xor_cover(rng.bool(), false))
                    .expect("unique name");
                signals.extend([x, y]);
                (vec![x, d], xor_cover(rng.bool(), rng.bool()))
            }
            _ => {
                let arity = rng.range_usize(1..7).min(signals.len());
                (pick(rng, &signals, arity), random_cover(rng, arity))
            }
        };
        let sig = net
            .add_node(format!("n{k}"), fanins, cover)
            .expect("unique name");
        signals.push(sig);
    }
    // The last node, and a few more signals (inputs among them).
    net.mark_output(*signals.last().expect("nonempty"))
        .expect("known signal");
    for _ in 0..rng.range_usize(0..4) {
        net.mark_output(*rng.choose(&signals))
            .expect("known signal");
    }
    net
}

#[test]
fn random_networks_match_the_reference() {
    let libs = libraries();
    let mut d = bds_prop::digests!("random");
    let mut case = 0u32;
    check_cases("mapper_differential", CASES, |rng| {
        let net = random_network(rng);
        check(&mut d, &format!("{case:04}"), &net, &libs);
        case += 1;
    });
    d.check();
}
