//! Gate libraries with NAND/INV tree patterns.

use std::fmt;

/// A structural pattern over the subject-graph primitives.
///
/// Pattern inputs are numbered leaves; internal nodes must match
/// single-fanout subject nodes during covering (classic tree-mapping
/// rule).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Pattern {
    /// A pattern input (leaf), identified by position.
    Input(u8),
    /// An inverter over a sub-pattern.
    Inv(Box<Pattern>),
    /// A 2-input NAND over sub-patterns.
    Nand(Box<Pattern>, Box<Pattern>),
}

impl Pattern {
    /// Leaf count (number of distinct input positions is the gate's
    /// input count; this counts leaf *occurrences*).
    pub fn leaf_occurrences(&self) -> usize {
        match self {
            Pattern::Input(_) => 1,
            Pattern::Inv(p) => p.leaf_occurrences(),
            Pattern::Nand(a, b) => a.leaf_occurrences() + b.leaf_occurrences(),
        }
    }

    /// Evaluates the pattern for checking against a gate's intended
    /// function (`inputs[i]` is the value of `Input(i)`).
    pub fn eval(&self, inputs: &[bool]) -> bool {
        match self {
            Pattern::Input(i) => inputs[*i as usize],
            Pattern::Inv(p) => !p.eval(inputs),
            Pattern::Nand(a, b) => !(a.eval(inputs) && b.eval(inputs)),
        }
    }
}

/// Convenience constructors used to define libraries tersely.
pub mod pat {
    use super::Pattern;
    /// Pattern input leaf `i`.
    pub fn x(i: u8) -> Pattern {
        Pattern::Input(i)
    }
    /// Inverter.
    pub fn inv(p: Pattern) -> Pattern {
        Pattern::Inv(Box::new(p))
    }
    /// 2-input NAND.
    pub fn nand(a: Pattern, b: Pattern) -> Pattern {
        Pattern::Nand(Box::new(a), Box::new(b))
    }
    /// AND via NAND+INV.
    pub fn and(a: Pattern, b: Pattern) -> Pattern {
        inv(nand(a, b))
    }
    /// OR via NAND of inverters.
    pub fn or(a: Pattern, b: Pattern) -> Pattern {
        nand(inv(a), inv(b))
    }
}

/// A library cell.
#[derive(Clone, Debug)]
pub struct Gate {
    /// Cell name as reported in netlists.
    pub name: String,
    /// Cell area (arbitrary consistent units; λ²-flavoured).
    pub area: f64,
    /// Pin-to-pin delay (single number; unit-delay-with-weights model).
    pub delay: f64,
    /// Number of logical inputs.
    pub inputs: usize,
    /// Structural pattern the mapper matches.
    pub pattern: Pattern,
}

/// A gate library.
#[derive(Clone, Debug)]
pub struct Library {
    gates: Vec<Gate>,
    inv: usize,
}

impl Library {
    /// Builds a library from gates. The list must contain a cell named
    /// `inv` (single-input inverter) — required to repair phase
    /// mismatches at boundaries.
    ///
    /// # Panics
    /// Panics if no inverter cell is present; use [`Library::try_new`]
    /// for libraries loaded from external input.
    pub fn new(gates: Vec<Gate>) -> Self {
        #[expect(clippy::expect_used, reason = "only for statically known libraries")]
        Self::try_new(gates).expect("library must contain an inverter cell")
    }

    /// Builds a library from gates, returning `None` when no inverter
    /// cell is present.
    pub fn try_new(gates: Vec<Gate>) -> Option<Self> {
        let inv = gates.iter().position(
            |g| matches!(g.pattern, Pattern::Inv(ref p) if matches!(**p, Pattern::Input(_))),
        )?;
        Some(Library { gates, inv })
    }

    /// The built-in `mcnc.genlib`-flavoured library used by the
    /// reproduction experiments.
    pub fn mcnc() -> Self {
        use pat::*;
        let g = |name: &str, area: f64, delay: f64, inputs: usize, pattern: Pattern| Gate {
            name: name.to_string(),
            area,
            delay,
            inputs,
            pattern,
        };
        Library::new(vec![
            g("inv", 16.0, 1.0, 1, inv(x(0))),
            g("nand2", 16.0, 1.0, 2, nand(x(0), x(1))),
            g("nand3", 24.0, 1.2, 3, nand(and(x(0), x(1)), x(2))),
            g(
                "nand4",
                32.0,
                1.4,
                4,
                nand(and(x(0), x(1)), and(x(2), x(3))),
            ),
            g("nor2", 16.0, 1.2, 2, inv(or(x(0), x(1)))),
            g("nor3", 24.0, 1.4, 3, inv(or(or(x(0), x(1)), x(2)))),
            g("and2", 24.0, 1.3, 2, and(x(0), x(1))),
            g("or2", 24.0, 1.5, 2, or(x(0), x(1))),
            g("aoi21", 24.0, 1.4, 3, inv(or(and(x(0), x(1)), x(2)))),
            g("oai21", 24.0, 1.4, 3, inv(and(or(x(0), x(1)), x(2)))),
            g(
                "aoi22",
                32.0,
                1.6,
                4,
                inv(or(and(x(0), x(1)), and(x(2), x(3)))),
            ),
            g(
                "xor2",
                40.0,
                1.9,
                2,
                nand(nand(x(0), inv(x(1))), nand(inv(x(0)), x(1))),
            ),
            g(
                "xnor2",
                40.0,
                1.9,
                2,
                nand(nand(x(0), x(1)), nand(inv(x(0)), inv(x(1)))),
            ),
            g(
                "mux21",
                48.0,
                2.0,
                3,
                nand(nand(x(0), x(1)), nand(inv(x(0)), x(2))),
            ),
        ])
    }

    /// All gates.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The inverter cell.
    pub fn inverter(&self) -> &Gate {
        &self.gates[self.inv]
    }
}

impl fmt::Display for Library {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for g in &self.gates {
            writeln!(
                f,
                "GATE {} area={} delay={} inputs={}",
                g.name, g.area, g.delay, g.inputs
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every pattern must compute the function its name promises.
    #[test]
    fn patterns_match_semantics() {
        let lib = Library::mcnc();
        for gate in lib.gates() {
            let n = gate.inputs;
            for bits in 0..1u32 << n {
                let ins: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                let got = gate.pattern.eval(&ins);
                let want = match gate.name.as_str() {
                    "inv" => !ins[0],
                    "nand2" => !(ins[0] && ins[1]),
                    "nand3" => !(ins[0] && ins[1] && ins[2]),
                    "nand4" => !(ins[0] && ins[1] && ins[2] && ins[3]),
                    "nor2" => !(ins[0] || ins[1]),
                    "nor3" => !(ins[0] || ins[1] || ins[2]),
                    "and2" => ins[0] && ins[1],
                    "or2" => ins[0] || ins[1],
                    "aoi21" => !((ins[0] && ins[1]) || ins[2]),
                    "oai21" => !((ins[0] || ins[1]) && ins[2]),
                    "aoi22" => !((ins[0] && ins[1]) || (ins[2] && ins[3])),
                    "xor2" => ins[0] ^ ins[1],
                    "xnor2" => !(ins[0] ^ ins[1]),
                    "mux21" => {
                        if ins[0] {
                            ins[1]
                        } else {
                            ins[2]
                        }
                    }
                    other => panic!("untested gate {other}"),
                };
                assert_eq!(got, want, "gate {} at {ins:?}", gate.name);
            }
        }
    }

    #[test]
    fn inverter_lookup() {
        let lib = Library::mcnc();
        assert_eq!(lib.inverter().name, "inv");
    }
}
