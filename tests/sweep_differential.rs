//! `Network::sweep` and `Network::compacted` pinned by digests: the
//! rewrite count and the BLIF after `compacted`, after `sweep` and after
//! both must be those recorded in `tests/digests/sweep_differential.txt`
//! on the scaling circuits' inputs and collapsed networks and on seeded
//! random networks built to hold what every sub-pass acts on: constants,
//! buffer and inverter chains, repeated and unused fanins, functionally
//! equal nodes with permuted fanins, and covers with contained cubes,
//! distance-1 pairs, duplicates and unsorted cubes. The baseline was
//! recorded while frozen copies of the allocating `sweep` and
//! `compacted` these replaced still agreed with them.
//!
//! CI also runs it in release, where the random set is larger:
//! `cargo test --release --features strict-checks --test sweep_differential -- --nocapture`.

use bds_prop::digest::Digests;
use bds_prop::{check_cases, Rng};
use bds_repro::circuits::suites;
use bds_repro::network::{blif, EliminateParams, Network, SignalId};
use bds_repro::sop::{Cover, Cube};

/// Random networks; debug builds (the tier-1 run) take fewer.
const CASES: u32 = if cfg!(debug_assertions) { 20 } else { 300 };

/// Digests the BLIF of `compacted`, then the rewrite count and BLIF of
/// `sweep`, then the BLIF of both, under `name`; returns the rewrite
/// count.
fn check(d: &mut Digests, name: &str, net: &Network) -> usize {
    d.add(name, blif::write(&net.compacted().expect("compacts")));
    let mut swept = net.clone();
    let rewrites = swept.sweep().expect("sweep succeeds");
    d.add(
        name,
        format!("rewrites={rewrites}\n{}", blif::write(&swept)),
    );
    d.add(name, blif::write(&swept.compacted().expect("compacts")));
    rewrites
}

#[test]
fn scaling_circuits_match_the_reference() {
    let mut d = bds_prop::digests!("scaling");
    for c in suites::scale() {
        let (name, net) = (&c.name, &c.net);
        let input = check(&mut d, name, net);
        // The network the flow sweeps after the partial collapse.
        let mut collapsed = net.compacted().expect("compacts");
        collapsed.sweep().expect("sweeps");
        collapsed
            .eliminate(&EliminateParams::default())
            .expect("eliminates");
        let after_collapse = check(&mut d, &format!("{name} (collapsed)"), &collapsed);
        eprintln!("{name}: {input} rewrites on the input, {after_collapse} collapsed");
    }
    d.check();
}

/// A buffer (`phase`) or inverter (`!phase`) of `src`.
fn add_gate(net: &mut Network, name: String, src: SignalId, phase: bool) -> SignalId {
    net.add_node(
        name,
        vec![src],
        Cover::from_cubes(vec![Cube::lit(0, phase)]),
    )
    .expect("unique name")
}

/// A random cube over positions `0..arity`; it may be the unit cube.
fn random_cube(rng: &mut Rng, arity: usize) -> Cube {
    let mut lits = Vec::new();
    for v in 0..arity as u32 {
        if rng.ratio(0.4) {
            lits.push((v, rng.bool()));
        }
    }
    Cube::new(lits).expect("distinct positions")
}

/// A cover over `0..arity` that often has a cube contained in another,
/// a distance-1 pair, a duplicate or unsorted cubes.
fn random_cover(rng: &mut Rng, arity: usize) -> Cover {
    let mut cubes: Vec<Cube> = (0..rng.range_usize(1..5))
        .map(|_| random_cube(rng, arity))
        .collect();
    for _ in 0..rng.range_usize(0..3) {
        let base = rng.choose(&cubes).clone();
        let mut lits = base.literals().to_vec();
        match rng.range_u32(0..3) {
            // Contained: one more literal on a free position.
            0 => {
                let v = rng.range_u32(0..arity as u32);
                if base.phase_of(v).is_none() {
                    lits.push((v, rng.bool()));
                }
            }
            // Distance 1: flip one literal's phase.
            1 if !lits.is_empty() => {
                let i = rng.range_usize(0..lits.len());
                lits[i].1 = !lits[i].1;
            }
            // Duplicate.
            _ => {}
        }
        cubes.push(Cube::new(lits).expect("distinct positions"));
    }
    if rng.bool() {
        return Cover::from_cubes(cubes);
    }
    // Pushed as generated: unsorted, duplicates kept.
    let mut cover = Cover::zero();
    for c in cubes {
        cover.push(c);
    }
    cover
}

/// A seeded random network holding what every sub-pass of `sweep` acts
/// on, including an alias buffer or inverter after some nodes, as the
/// stitch emits for supernode roots.
fn random_sweepable(rng: &mut Rng) -> Network {
    let mut net = Network::new("sweepable");
    let mut pool: Vec<SignalId> = (0..rng.range_usize(2..11))
        .map(|i| net.add_input(format!("i{i}")).expect("unique name"))
        .collect();
    let mut nodes: Vec<SignalId> = Vec::new();
    for k in 0..rng.range_usize(1..61) {
        let name = format!("n{k}");
        let sig = match rng.range_u32(0..10) {
            0 => net.add_constant(name, rng.bool()).expect("unique name"),
            1 | 2 => {
                let src = *rng.choose(&pool);
                add_gate(&mut net, name, src, rng.bool())
            }
            3 if !nodes.is_empty() => {
                // The function of an earlier node with its fanins permuted.
                let orig = *rng.choose(&nodes);
                let (fanins, cover) = net.node(orig).expect("internal node");
                let arity = fanins.len();
                let mut perm: Vec<u32> = (0..arity as u32).collect();
                for i in (1..arity).rev() {
                    perm.swap(i, rng.range_usize(0..i + 1));
                }
                let mut new_fanins = fanins.to_vec();
                for (i, &f) in fanins.iter().enumerate() {
                    new_fanins[perm[i] as usize] = f;
                }
                let new_cover: Cover = cover
                    .cubes()
                    .iter()
                    .map(|c| {
                        let lits = c.literals().iter().map(|&(v, p)| (perm[v as usize], p));
                        Cube::new(lits.collect()).expect("distinct positions")
                    })
                    .collect();
                net.add_node(name, new_fanins, new_cover)
                    .expect("unique name")
            }
            _ => {
                // Fanins drawn with replacement, so some repeat; the
                // cover may leave some unused.
                let arity = rng.range_usize(1..6);
                let fanins: Vec<SignalId> = (0..arity).map(|_| *rng.choose(&pool)).collect();
                let cover = random_cover(rng, arity);
                net.add_node(name, fanins, cover).expect("unique name")
            }
        };
        pool.push(sig);
        nodes.push(sig);
        if rng.ratio(0.3) {
            let alias = add_gate(&mut net, format!("n{k}_alias"), sig, rng.bool());
            pool.push(alias);
            nodes.push(alias);
        }
    }
    for &s in &nodes {
        if rng.ratio(0.2) {
            net.mark_output(s).expect("known signal");
        }
    }
    let last = *nodes.last().expect("at least one node");
    net.mark_output(last).expect("known signal");
    net
}

#[test]
fn random_networks_match_the_reference() {
    let mut rewriting = 0u32;
    let mut d = bds_prop::digests!("random");
    let mut case = 0u32;
    check_cases("sweep matches its digests", CASES, |rng| {
        let net = random_sweepable(rng);
        let n = check(&mut d, &format!("{case:04}"), &net);
        case += 1;
        rewriting += u32::from(n > 0);
    });
    eprintln!("{CASES} random networks: {rewriting} with rewrites");
    assert!(
        rewriting > CASES / 2,
        "too few cases rewrite anything: {rewriting}"
    );
    d.check();
}
