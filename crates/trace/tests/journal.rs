//! Folded-stack export of span trees recorded by real span guards and
//! drained through `take`.

/// A live span tree folds to exactly one line per leaf, each carrying
/// the full `prefix;path;leaf` stack.
#[test]
fn folded_stacks_emit_one_line_per_live_leaf() {
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
    let folded = bds_trace::take().folded("c17");
    let lines: Vec<&str> = folded.lines().collect();
    assert_eq!(lines.len(), 3, "leaves: build, shannon, xdom");
    assert!(lines.iter().all(|l| l.starts_with("c17;flow;")));
    assert!(lines
        .iter()
        .any(|l| l.starts_with("c17;flow;decompose;shannon ")));
    for line in &lines {
        let (_, value) = line.rsplit_once(' ').expect("stack value separator");
        value.parse::<u64>().expect("value is integer nanoseconds");
    }
}
