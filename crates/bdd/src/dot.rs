//! Graphviz DOT export for debugging and documentation figures.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::edge::Edge;
use crate::manager::Manager;

impl Manager {
    /// Renders the shared graph of `roots` in Graphviz DOT syntax.
    ///
    /// Solid arrows are then-edges, dashed arrows are else-edges, and a dot
    /// (`●`) decoration marks complement edges — matching the drawing
    /// conventions of the BDS paper.
    pub fn to_dot(&self, roots: &[(Edge, &str)]) -> String {
        let mut out = String::from("digraph bdd {\n  rankdir=TB;\n  node [shape=circle];\n");
        let _ = writeln!(out, "  t1 [shape=box,label=\"1\"];");
        let mut seen: HashSet<u32> = HashSet::new();
        let mut stack: Vec<Edge> = Vec::new();
        for (i, (root, name)) in roots.iter().enumerate() {
            let _ = writeln!(out, "  f{i} [shape=plaintext,label=\"{name}\"];");
            let _ = writeln!(
                out,
                "  f{i} -> {} [style=solid{}];",
                node_name(*root),
                dot_attr(*root)
            );
            stack.push(root.regular());
        }
        while let Some(e) = stack.pop() {
            if e.is_const() || !seen.insert(e.node()) {
                continue;
            }
            #[expect(clippy::expect_used, reason = "guarded: constants are skipped above")]
            let (var, high, low) = self.node_raw(e).expect("non-const");
            let _ = writeln!(out, "  n{} [label=\"{}\"];", e.node(), self.var_name(var));
            let _ = writeln!(
                out,
                "  n{} -> {} [style=solid{}];",
                e.node(),
                node_name(high),
                dot_attr(high)
            );
            let _ = writeln!(
                out,
                "  n{} -> {} [style=dashed{}];",
                e.node(),
                node_name(low),
                dot_attr(low)
            );
            stack.push(high.regular());
            stack.push(low.regular());
        }
        out.push_str("}\n");
        out
    }
}

fn node_name(e: Edge) -> String {
    if e.is_const() {
        "t1".to_string()
    } else {
        format!("n{}", e.node())
    }
}

fn dot_attr(e: Edge) -> &'static str {
    if e.is_complemented() {
        ",arrowhead=\"dotnormal\""
    } else {
        ""
    }
}

#[cfg(test)]
mod tests {
    use crate::Manager;

    #[test]
    fn dot_contains_nodes_and_edges() {
        let mut m = Manager::new();
        let a = m.new_var("a");
        let b = m.new_var("b");
        let (la, lb) = (m.literal(a, true), m.literal(b, true));
        let f = m.and(la, lb).unwrap();
        let dot = m.to_dot(&[(f, "F")]);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("label=\"a\""));
        assert!(dot.contains("label=\"b\""));
        assert!(dot.contains("style=dashed"));
        assert!(dot.ends_with("}\n"));
    }
}
