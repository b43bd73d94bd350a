//! A `genlib` cell-library parser.
//!
//! Parses the SIS/MCNC `genlib` format the paper's evaluation used
//! (`mcnc.genlib`), e.g.:
//!
//! ```text
//! GATE nand2  16 O=!(A*B);             PIN * INV 1 999 1.0 0.2 1.0 0.2
//! GATE xor2   40 O=A*!B+!A*B;          PIN * UNKNOWN 2 999 1.9 0.3 1.9 0.3
//! ```
//!
//! Each gate's Boolean expression is parsed (operators `!`, `'`, `*`,
//! `+`, implicit AND by juxtaposition is **not** supported, matching
//! genlib) and converted into the NAND2/INV tree [`Pattern`] the tree
//! mapper matches on. Pin block delays become the gate delay (worst of
//! rise/fall over all pins).

use std::error::Error;
use std::fmt;

use crate::library::{Gate, Library, Pattern};

/// Errors from genlib parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseGenlibError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for ParseGenlibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "genlib parse error at line {}: {}",
            self.line, self.detail
        )
    }
}

impl Error for ParseGenlibError {}

/// Parses genlib text into a [`Library`].
///
/// Constant cells (`O=0;` / `O=1;`) are skipped (the mapper folds
/// constants structurally). The library must define an inverter.
///
/// # Errors
/// [`ParseGenlibError`] on malformed input, or when the library defines
/// no inverter cell (the mapper requires one to repair phases).
pub fn parse_genlib(text: &str) -> Result<Library, ParseGenlibError> {
    let mut gates = Vec::new();
    // Gates span until the next GATE keyword; normalize whitespace first.
    let mut lineno_of_gate = Vec::new();
    let mut chunks: Vec<String> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = match line.find('#') {
            Some(p) => &line[..p],
            None => line,
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed.starts_with("GATE") || trimmed.starts_with("LATCH") {
            chunks.push(trimmed.to_string());
            lineno_of_gate.push(i + 1);
        } else if let Some(last) = chunks.last_mut() {
            last.push(' ');
            last.push_str(trimmed);
        }
    }
    for (chunk, &line) in chunks.iter().zip(&lineno_of_gate) {
        if chunk.starts_with("LATCH") {
            return Err(ParseGenlibError {
                line,
                detail: "sequential cells unsupported".into(),
            });
        }
        let rest = chunk.trim_start_matches("GATE").trim_start();
        let mut tokens = rest.split_whitespace();
        let name = tokens
            .next()
            .ok_or_else(|| ParseGenlibError {
                line,
                detail: "missing gate name".into(),
            })?
            .trim_matches('"')
            .to_string();
        let area: f64 = tokens
            .next()
            .ok_or_else(|| ParseGenlibError {
                line,
                detail: "missing area".into(),
            })?
            .parse()
            .map_err(|_| ParseGenlibError {
                line,
                detail: "bad area".into(),
            })?;
        // The function runs up to the first ';'.
        let after_area =
            rest.splitn(3, char::is_whitespace)
                .nth(2)
                .ok_or_else(|| ParseGenlibError {
                    line,
                    detail: "missing function".into(),
                })?;
        let semi = after_area.find(';').ok_or_else(|| ParseGenlibError {
            line,
            detail: "missing `;`".into(),
        })?;
        let func = &after_area[..semi];
        let pins = &after_area[semi + 1..];
        let eq = func.find('=').ok_or_else(|| ParseGenlibError {
            line,
            detail: "missing `=`".into(),
        })?;
        let expr_text = func[eq + 1..].trim();
        if expr_text == "0" || expr_text == "1" {
            continue; // constant cells folded structurally
        }
        let (expr, inputs) =
            ExprParser::parse(expr_text).map_err(|detail| ParseGenlibError { line, detail })?;
        let pattern = simplify_pattern(expr.to_pattern());
        let delay = parse_pin_delay(pins).unwrap_or(1.0);
        gates.push(Gate {
            name,
            area,
            delay,
            inputs: inputs.len(),
            pattern,
        });
    }
    Library::try_new(gates).ok_or_else(|| ParseGenlibError {
        line: 0,
        detail: "library defines no inverter cell".to_string(),
    })
}

/// Cancels double inversions so parsed patterns match the
/// structurally-hashed subject graph (which never contains `Inv(Inv(…))`).
fn simplify_pattern(p: Pattern) -> Pattern {
    match p {
        Pattern::Input(i) => Pattern::Input(i),
        Pattern::Inv(inner) => match simplify_pattern(*inner) {
            Pattern::Inv(q) => *q,
            other => Pattern::Inv(Box::new(other)),
        },
        Pattern::Nand(a, b) => Pattern::Nand(
            Box::new(simplify_pattern(*a)),
            Box::new(simplify_pattern(*b)),
        ),
    }
}

fn parse_pin_delay(pins: &str) -> Option<f64> {
    // PIN <name> <phase> <load> <maxload> <rb> <rf> <fb> <ff> …
    let mut worst: Option<f64> = None;
    for pin in pins.split("PIN").skip(1) {
        let nums: Vec<f64> = pin
            .split_whitespace()
            .filter_map(|t| t.parse().ok())
            .collect();
        // numbers: load, maxload, rise-block, rise-fanout, fall-block, fall-fanout
        if nums.len() >= 5 {
            let block = nums[2].max(nums[4]);
            worst = Some(worst.map_or(block, |w: f64| w.max(block)));
        }
    }
    worst
}

/// A parsed genlib Boolean expression.
#[derive(Debug, Clone, PartialEq)]
enum GExpr {
    Var(u8),
    Not(Box<GExpr>),
    And(Box<GExpr>, Box<GExpr>),
    Or(Box<GExpr>, Box<GExpr>),
}

impl GExpr {
    fn to_pattern(&self) -> Pattern {
        match self {
            GExpr::Var(i) => Pattern::Input(*i),
            GExpr::Not(e) => match &**e {
                // !(a*b) → NAND directly (keeps patterns small).
                GExpr::And(a, b) => {
                    Pattern::Nand(Box::new(a.to_pattern()), Box::new(b.to_pattern()))
                }
                other => Pattern::Inv(Box::new(other.to_pattern())),
            },
            GExpr::And(a, b) => Pattern::Inv(Box::new(Pattern::Nand(
                Box::new(a.to_pattern()),
                Box::new(b.to_pattern()),
            ))),
            GExpr::Or(a, b) => Pattern::Nand(
                Box::new(Pattern::Inv(Box::new(a.to_pattern()))),
                Box::new(Pattern::Inv(Box::new(b.to_pattern()))),
            ),
        }
    }
}

/// Recursive-descent parser for `!`, `'`, `*`, `+`, parentheses.
struct ExprParser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    vars: Vec<String>,
}

impl<'a> ExprParser<'a> {
    fn parse(text: &'a str) -> Result<(GExpr, Vec<String>), String> {
        let mut p = ExprParser {
            chars: text.chars().peekable(),
            vars: Vec::new(),
        };
        let e = p.or_expr()?;
        p.skip_ws();
        if p.chars.peek().is_some() {
            return Err(format!("trailing input in `{text}`"));
        }
        Ok((e, p.vars))
    }

    fn skip_ws(&mut self) {
        while self.chars.peek().is_some_and(|c| c.is_whitespace()) {
            self.chars.next();
        }
    }

    fn or_expr(&mut self) -> Result<GExpr, String> {
        let mut acc = self.and_expr()?;
        loop {
            self.skip_ws();
            if self.chars.peek() == Some(&'+') {
                self.chars.next();
                let rhs = self.and_expr()?;
                acc = GExpr::Or(Box::new(acc), Box::new(rhs));
            } else {
                return Ok(acc);
            }
        }
    }

    fn and_expr(&mut self) -> Result<GExpr, String> {
        let mut acc = self.unary()?;
        loop {
            self.skip_ws();
            match self.chars.peek() {
                Some('*') => {
                    self.chars.next();
                    let rhs = self.unary()?;
                    acc = GExpr::And(Box::new(acc), Box::new(rhs));
                }
                // genlib also allows implicit AND by juxtaposition of
                // terms (identifiers / parens / negations).
                Some(c) if c.is_alphanumeric() || *c == '(' || *c == '!' => {
                    let rhs = self.unary()?;
                    acc = GExpr::And(Box::new(acc), Box::new(rhs));
                }
                _ => return Ok(acc),
            }
        }
    }

    fn unary(&mut self) -> Result<GExpr, String> {
        self.skip_ws();
        let mut e = match self.chars.peek() {
            Some('!') => {
                self.chars.next();
                GExpr::Not(Box::new(self.unary()?))
            }
            Some('(') => {
                self.chars.next();
                let inner = self.or_expr()?;
                self.skip_ws();
                if self.chars.next() != Some(')') {
                    return Err("missing `)`".into());
                }
                inner
            }
            Some(c) if c.is_alphanumeric() || *c == '_' => {
                let mut name = String::new();
                while self
                    .chars
                    .peek()
                    .is_some_and(|c| c.is_alphanumeric() || *c == '_' || *c == '[' || *c == ']')
                {
                    #[expect(clippy::expect_used, reason = "guarded: peek() returned Some")]
                    name.push(self.chars.next().expect("peeked"));
                }
                let idx = match self.vars.iter().position(|v| v == &name) {
                    Some(i) => i,
                    None => {
                        self.vars.push(name);
                        self.vars.len() - 1
                    }
                };
                GExpr::Var(idx as u8)
            }
            other => return Err(format!("unexpected token {other:?}")),
        };
        // Postfix complement: a'
        loop {
            self.skip_ws();
            if self.chars.peek() == Some(&'\'') {
                self.chars.next();
                e = GExpr::Not(Box::new(e));
            } else {
                break;
            }
        }
        Ok(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# a tiny mcnc-flavoured library
GATE inv    16 O=!A;          PIN A INV 1 999 1.0 0.2 1.0 0.2
GATE nand2  16 O=!(A*B);      PIN * INV 1 999 1.0 0.2 1.0 0.2
GATE or2    24 O=A+B;         PIN * NONINV 1 999 1.5 0.3 1.4 0.3
GATE xor2   40 O=A*!B+!A*B;   PIN * UNKNOWN 2 999 1.9 0.3 1.9 0.3
GATE aoi21  24 O=!(A*B+C);    PIN * INV 1 999 1.4 0.2 1.4 0.2
GATE zero    0 O=0;
"#;

    #[test]
    fn parses_sample_library() {
        let lib = parse_genlib(SAMPLE).expect("sample parses");
        assert_eq!(lib.gates().len(), 5, "constant cell skipped");
        let names: Vec<&str> = lib.gates().iter().map(|g| g.name.as_str()).collect();
        assert_eq!(names, ["inv", "nand2", "or2", "xor2", "aoi21"]);
        assert_eq!(lib.inverter().name, "inv");
    }

    #[test]
    fn parsed_patterns_compute_right_functions() {
        let lib = parse_genlib(SAMPLE).unwrap();
        for g in lib.gates() {
            let check: fn(&[bool]) -> bool = match g.name.as_str() {
                "inv" => |v| !v[0],
                "nand2" => |v| !(v[0] && v[1]),
                "or2" => |v| v[0] || v[1],
                "xor2" => |v| v[0] ^ v[1],
                "aoi21" => |v| !((v[0] && v[1]) || v[2]),
                other => panic!("unexpected {other}"),
            };
            for bits in 0..1u32 << g.inputs {
                let ins: Vec<bool> = (0..g.inputs).map(|i| bits >> i & 1 == 1).collect();
                assert_eq!(g.pattern.eval(&ins), check(&ins), "{} at {ins:?}", g.name);
            }
        }
    }

    #[test]
    fn delays_taken_from_pins() {
        let lib = parse_genlib(SAMPLE).unwrap();
        let xor = lib.gates().iter().find(|g| g.name == "xor2").unwrap();
        assert!((xor.delay - 1.9).abs() < 1e-9);
        let or2 = lib.gates().iter().find(|g| g.name == "or2").unwrap();
        assert!((or2.delay - 1.5).abs() < 1e-9);
    }

    #[test]
    fn postfix_complement_and_juxtaposition() {
        let (e, vars) = ExprParser::parse("A B' + C").unwrap();
        assert_eq!(vars, ["A", "B", "C"]);
        // (A · !B) + C
        let p = e.to_pattern();
        for bits in 0..8u32 {
            let ins: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(p.eval(&ins), (ins[0] && !ins[1]) || ins[2]);
        }
    }

    #[test]
    fn errors_are_reported_with_lines() {
        let bad = "GATE broken 16 O=!(A*B\n";
        let err = parse_genlib(bad).unwrap_err();
        assert_eq!(err.line, 1);
        let latch = "LATCH dff 16 O=D; PIN D NONINV 1 999 1 1 1 1";
        assert!(parse_genlib(latch).is_err());
    }

    /// A library parsed from genlib must be usable for real mapping.
    #[test]
    fn parsed_library_maps_a_network() {
        use bds_network::blif;
        let lib = parse_genlib(SAMPLE).unwrap();
        let net =
            blif::parse(".model m\n.inputs a b\n.outputs f\n.names a b f\n10 1\n01 1\n.end\n")
                .unwrap();
        let mapped = crate::cover::map_network(&net, &lib).unwrap();
        assert_eq!(mapped.count_of("xor2"), 1);
    }
}
