//! The SIS-style baseline pinned by digests: `script_rugged` (per-node
//! kernel caches, an extraction score board re-scored only where a
//! rewrite changed it, resubstitution divisors filed by support
//! variable) must produce the BLIF and `SisReport` counts (`seconds`
//! aside) recorded in `tests/digests/sis_differential.txt` on the
//! `sis_rugged` benchmark circuits, bshift64, mult16 (release builds
//! only) and seeded random logic networks under random `SisParams`
//! limits. The baseline was recorded while a frozen copy of the uncached
//! extraction loop `script_rugged` replaced still agreed with it.
//!
//! CI also runs it in release, where the random set is larger:
//! `cargo test --release --features strict-checks --test sis_differential -- --nocapture`.

use bds_prop::digest::Digests;
use bds_prop::{check_cases, Rng};
use bds_repro::circuits::random_logic::{random_logic, RandomLogicParams};
use bds_repro::circuits::shifter::barrel_shifter;
use bds_repro::circuits::suites::{self, Sizes};
use bds_repro::core::sis_flow::{script_rugged, SisParams, SisReport};
use bds_repro::network::{blif, Network};

/// Random networks; debug builds (the tier-1 run) take fewer.
const CASES: u32 = if cfg!(debug_assertions) { 20 } else { 300 };

/// Runs `script_rugged`, digests its output under `name`, and returns
/// the report.
fn check(d: &mut Digests, name: &str, net: &Network, params: &SisParams) -> SisReport {
    let (new, report) = script_rugged(net, params).expect("script_rugged succeeds");
    d.add(
        name,
        format!(
            "extracted={} resubstituted={}\n{}",
            report.extracted,
            report.resubstituted,
            blif::write(&new)
        ),
    );
    report
}

#[test]
fn sis_rugged_circuits_match_the_reference() {
    // flowbench's `sis_rugged` set: Table I at full size.
    let mut d = bds_prop::digests!("sis_rugged");
    for c in suites::table1(Sizes::Full) {
        let (name, net) = (&c.name, &c.net);
        let r = check(&mut d, name, net, &SisParams::default());
        eprintln!(
            "{name}: {} extracted, {} resubstituted",
            r.extracted, r.resubstituted
        );
    }
    d.check();
}

#[test]
fn bshift64_matches_the_reference() {
    let mut d = bds_prop::digests!("bshift64");
    let r = check(
        &mut d,
        "bshift64",
        &barrel_shifter(64),
        &SisParams::default(),
    );
    eprintln!(
        "bshift64: {} extracted, {} resubstituted",
        r.extracted, r.resubstituted
    );
    d.check();
}

/// mult16 gains back edges from extraction, so resubstitution's 449
/// rewrites run the cycle search. Debug builds leave the case out.
#[cfg(not(debug_assertions))]
#[test]
fn mult16_matches_the_reference() {
    let mut d = bds_prop::digests!("mult16");
    let mult16 = bds_repro::circuits::multiplier::multiplier(16, 16);
    let r = check(&mut d, "mult16", &mult16, &SisParams::default());
    eprintln!(
        "mult16: {} extracted, {} resubstituted",
        r.extracted, r.resubstituted
    );
    d.check();
}

/// Random `SisParams`: small and large kernel limits, few or many
/// extractions, zero to three resubstitution passes.
fn random_params(rng: &mut Rng) -> SisParams {
    SisParams {
        max_extractions: *rng.choose(&[1, 3, 20, 400]),
        kernel_cube_limit: rng.range_usize(2..33),
        resub_passes: rng.range_usize(0..4),
        ..SisParams::default()
    }
}

#[test]
fn random_logic_matches_the_reference() {
    let (mut extracting, mut resubstituting) = (0u32, 0u32);
    let mut d = bds_prop::digests!("random");
    let mut case = 0u32;
    check_cases("script_rugged matches its digests", CASES, |rng| {
        let params = RandomLogicParams {
            inputs: rng.range_usize(3..41),
            outputs: rng.range_usize(1..17),
            nodes: rng.range_usize(2..161),
            max_fanin: rng.range_usize(2..7),
            max_cubes: rng.range_usize(1..7),
        };
        let seed = rng.next_u64();
        let net = random_logic(&params, seed);
        let sis = if rng.ratio(0.5) {
            SisParams::default()
        } else {
            random_params(rng)
        };
        let r = check(&mut d, &format!("{case:04}"), &net, &sis);
        case += 1;
        extracting += u32::from(r.extracted > 0);
        resubstituting += u32::from(r.resubstituted > 0);
    });
    eprintln!(
        "{CASES} random networks: {extracting} with extractions, \
         {resubstituting} with resubstitutions"
    );
    assert!(
        extracting > CASES / 4,
        "too few cases exercise extraction: {extracting}"
    );
    d.check();
}
