//! A signal's name is one allocation that every copy of a network
//! shares, while each copy keeps its own name index: after `clone` and
//! after `compacted`, a name added to one copy is unknown to the other
//! and taken in the copy that holds it. `check_invariants`, which checks
//! the index against every signal, passes after a clone, a `compacted`,
//! a stitch's `finish` and the parse of a BLIF with 10,000 names.

use std::sync::Arc;

use bds_repro::core::sharing::Stitch;
use bds_repro::network::{blif, Network, NetworkError};
use bds_repro::sop::{Cover, Cube};

fn and2() -> Cover {
    Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])])
}

/// `a`, `b`, an output `f = a·b` and a dead node.
fn small() -> Network {
    let mut n = Network::new("t");
    let a = n.add_input("a").unwrap();
    let b = n.add_input("b").unwrap();
    let f = n.add_node("f", vec![a, b], and2()).unwrap();
    n.add_node("dead", vec![b, a], and2()).unwrap();
    n.mark_output(f).unwrap();
    n
}

#[test]
fn copies_share_names_but_not_the_index() {
    let n = small();
    let a = n.signal_id("a").unwrap();
    for kind in ["clone", "compacted"] {
        let mut orig = n.clone();
        let mut copy = match kind {
            "clone" => n.clone(),
            _ => n.compacted().unwrap(),
        };
        copy.check_invariants().unwrap();
        let copy_a = copy.signal_id("a").unwrap();
        assert!(
            Arc::ptr_eq(&n.shared_name(a), &copy.shared_name(copy_a)),
            "{kind}"
        );
        let g = copy.add_input("g").unwrap();
        let h = orig.add_node("h", vec![a, a], and2()).unwrap();
        assert_eq!(
            (copy.signal_id("g"), orig.signal_id("g")),
            (Some(g), None),
            "{kind}"
        );
        assert_eq!(
            (orig.signal_id("h"), copy.signal_id("h")),
            (Some(h), None),
            "{kind}"
        );
        for (net, name) in [(&mut copy, "g"), (&mut orig, "h")] {
            assert!(
                matches!(net.add_input(name), Err(NetworkError::DuplicateName { name: taken }) if taken == name),
                "{kind}: `{name}` accepted twice"
            );
            net.check_invariants().unwrap();
        }
    }
}

#[test]
fn a_stitch_writes_given_names_without_a_copy() {
    let src = small();
    let (a, f) = (src.signal_id("a").unwrap(), src.signal_id("f").unwrap());
    let mut stitch = Stitch::new(src.name(), "bds");
    let x = [
        stitch.add_input(src.shared_name(a)).unwrap(),
        stitch.add_input("b").unwrap(),
    ];
    let inner = stitch.node("inner", &x, and2(), false).unwrap();
    let or = Cover::from_cubes(vec![Cube::lit(0, true), Cube::lit(1, false)]);
    let out = stitch
        .node(src.shared_name(f), &[inner, x[1]], or, true)
        .unwrap();
    stitch.mark_output(out).unwrap();
    let net = stitch.finish().unwrap();
    net.check_invariants().unwrap();
    for (sig, name) in [(a, "a"), (f, "f")] {
        let written = net.signal_id(name).unwrap();
        assert!(
            Arc::ptr_eq(&src.shared_name(sig), &net.shared_name(written)),
            "{name}"
        );
    }
    assert!(net.signal_id("inner").is_some());
}

#[test]
fn a_blif_with_ten_thousand_names_parses_into_a_sound_index() {
    let mut text = String::from(".model big\n.inputs");
    for i in 0..5_000 {
        text.push_str(&format!(" i{i}"));
    }
    text.push_str("\n.outputs o4999\n");
    for i in 0..5_000 {
        let prev = if i == 0 {
            "i0".to_string()
        } else {
            format!("o{}", i - 1)
        };
        text.push_str(&format!(".names {prev} i{i} o{i}\n11 1\n"));
    }
    let net = blif::parse(&text).unwrap();
    assert_eq!(net.signals().count(), 10_000);
    net.check_invariants().unwrap();
    let o = net.signal_id("o4999").unwrap();
    assert_eq!((net.signal_name(o), net.outputs()), ("o4999", &[o][..]));
    net.clone().check_invariants().unwrap();
    net.compacted().unwrap().check_invariants().unwrap();
}
