//! Folded-stack export of span trees recorded by real span guards and
//! drained through `take`.

/// A live span tree folds to one line per span with positive self time,
/// each carrying the full `prefix;path;span` stack, and the lines add up
/// to the root's total.
#[test]
fn folded_stacks_carry_every_span_self_time() {
    bds_trace::reset();
    {
        let _flow = bds_trace::span_enter("flow");
        {
            let _build = bds_trace::span_enter("build");
        }
        {
            let _dec = bds_trace::span_enter("decompose");
            {
                let _s = bds_trace::span_enter("shannon");
            }
            {
                let _x = bds_trace::span_enter("xdom");
            }
        }
    }
    let snap = bds_trace::take();
    let folded = snap.folded("c17");
    let lines: Vec<&str> = folded.lines().collect();
    assert!(lines.iter().all(|l| l.starts_with("c17;flow")));
    let mut sum = 0;
    for line in &lines {
        let (_, value) = line.rsplit_once(' ').expect("stack value separator");
        let ns = value.parse::<u64>().expect("value is integer nanoseconds");
        assert!(ns > 0, "{line}");
        sum += ns;
    }
    assert_eq!(sum, snap.spans[0].total_ns, "{folded}");
    // Leaves have only self time; the two parents add at most a line each.
    for leaf in [
        "c17;flow;build ",
        "c17;flow;decompose;shannon ",
        "c17;flow;decompose;xdom ",
    ] {
        assert!(lines.iter().any(|l| l.starts_with(leaf)), "{folded}");
    }
    assert!((3..=5).contains(&lines.len()), "{folded}");
}
