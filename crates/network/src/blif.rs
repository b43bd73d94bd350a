//! BLIF (Berkeley Logic Interchange Format) reading and writing.
//!
//! Supports the combinational subset used by the MCNC/ISCAS benchmark
//! suites of the paper's evaluation: `.model`, `.inputs`, `.outputs`,
//! `.names` (with both output phases and `-` don't-cares), comments and
//! line continuations. Sequential constructs (`.latch`) are rejected —
//! the BDS evaluation is purely combinational.

use std::collections::HashMap;
use std::fmt::Write as _;

use bds_sop::{Cover, Cube};

use crate::error::NetworkError;
use crate::network::{Network, SignalId};
use crate::Result;

/// Renders a fragment of user input for an error message: control
/// characters are escaped and over-long fragments are truncated, so a
/// hostile file cannot smuggle terminal control sequences (or megabytes
/// of noise) through an error report.
fn snippet(text: &str) -> String {
    const MAX: usize = 60;
    let mut out = String::new();
    for c in text.chars() {
        if out.chars().count() >= MAX {
            out.push('…');
            break;
        }
        if c.is_control() {
            let _ = write!(out, "{}", c.escape_default());
        } else {
            out.push(c);
        }
    }
    out
}

/// Parses a BLIF model from text.
///
/// # Errors
/// [`NetworkError::Blif`] with a line number on any syntax problem;
/// [`NetworkError::Cycle`] if the `.names` sections form a combinational
/// loop.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), bds_network::NetworkError> {
/// let net = bds_network::blif::parse(
///     ".model and2\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n",
/// )?;
/// assert_eq!(net.eval(&[true, true])?, vec![true]);
/// # Ok(())
/// # }
/// ```
pub fn parse(text: &str) -> Result<Network> {
    // Join continuation lines, strip comments, remember line numbers.
    let mut lines: Vec<(usize, String)> = Vec::new();
    let mut pending = String::new();
    let mut pending_start = 0usize;
    for (i, raw) in text.lines().enumerate() {
        let no_comment = match raw.find('#') {
            Some(p) => &raw[..p],
            None => raw,
        };
        let chunk = no_comment.trim_end();
        if pending.is_empty() {
            pending_start = i + 1;
        }
        if let Some(stripped) = chunk.strip_suffix('\\') {
            pending.push_str(stripped);
            pending.push(' ');
            continue;
        }
        pending.push_str(chunk);
        let full = std::mem::take(&mut pending);
        if !full.trim().is_empty() {
            lines.push((pending_start, full));
        }
    }

    let mut model_name = String::from("unnamed");
    let mut input_names: Vec<String> = Vec::new();
    let mut output_names: Vec<String> = Vec::new();
    struct RawNode {
        line: usize,
        signals: Vec<String>, // fanins then output name
        cubes: Vec<(String, char)>,
    }
    let mut raw_nodes: Vec<RawNode> = Vec::new();

    let mut idx = 0;
    while idx < lines.len() {
        let (lineno, line) = &lines[idx];
        let mut tokens = line.split_whitespace();
        #[expect(clippy::expect_used, reason = "blank lines were filtered out above")]
        let head = tokens.next().expect("blank lines were filtered");
        match head {
            ".model" => {
                if let Some(name) = tokens.next() {
                    model_name = name.to_string();
                }
                idx += 1;
            }
            ".inputs" => {
                input_names.extend(tokens.map(str::to_string));
                idx += 1;
            }
            ".outputs" => {
                output_names.extend(tokens.map(str::to_string));
                idx += 1;
            }
            ".names" => {
                let signals: Vec<String> = tokens.map(str::to_string).collect();
                if signals.is_empty() {
                    return Err(NetworkError::Blif {
                        line: *lineno,
                        detail: ".names requires at least an output signal".into(),
                    });
                }
                let mut cubes = Vec::new();
                idx += 1;
                while idx < lines.len() && !lines[idx].1.trim_start().starts_with('.') {
                    let (cl, cube_line) = &lines[idx];
                    let parts: Vec<&str> = cube_line.split_whitespace().collect();
                    match parts.as_slice() {
                        [out] if signals.len() == 1 => {
                            #[expect(
                                clippy::expect_used,
                                reason = "split_whitespace never yields empty tokens"
                            )]
                            let ch = out.chars().next().expect("non-empty token");
                            cubes.push((String::new(), ch));
                        }
                        [ins, out] => {
                            #[expect(
                                clippy::expect_used,
                                reason = "split_whitespace never yields empty tokens"
                            )]
                            let ch = out.chars().next().expect("non-empty token");
                            cubes.push(((*ins).to_string(), ch));
                        }
                        _ => {
                            return Err(NetworkError::Blif {
                                line: *cl,
                                detail: format!("malformed cube line `{}`", snippet(cube_line)),
                            })
                        }
                    }
                    idx += 1;
                }
                raw_nodes.push(RawNode {
                    line: *lineno,
                    signals,
                    cubes,
                });
            }
            ".end" => break,
            ".latch" | ".gate" | ".mlatch" | ".subckt" => {
                return Err(NetworkError::Blif {
                    line: *lineno,
                    detail: format!(
                        "unsupported construct `{}` (combinational blif only)",
                        snippet(head)
                    ),
                })
            }
            _ if head.starts_with('.') => {
                // Unknown dot-directives (e.g. .default_input_arrival) are
                // skipped along with nothing else (single line).
                idx += 1;
            }
            _ => {
                return Err(NetworkError::Blif {
                    line: *lineno,
                    detail: format!("unexpected token `{}`", snippet(head)),
                })
            }
        }
    }

    // Build the network: inputs, then placeholder nodes (BLIF allows
    // forward references), then the real functions.
    let mut net = Network::new(model_name);
    let mut ids: HashMap<String, SignalId> = HashMap::new();
    for name in &input_names {
        let id = net.add_input(name.clone())?;
        ids.insert(name.clone(), id);
    }
    for rn in &raw_nodes {
        #[expect(clippy::expect_used, reason = "raw nodes were validated non-empty")]
        let out_name = rn.signals.last().expect("validated non-empty");
        if ids.contains_key(out_name) {
            return Err(NetworkError::Blif {
                line: rn.line,
                detail: format!("signal `{}` defined twice", snippet(out_name)),
            });
        }
        let id = net.add_node(out_name.clone(), Vec::new(), Cover::zero())?;
        ids.insert(out_name.clone(), id);
    }
    for rn in &raw_nodes {
        #[expect(clippy::expect_used, reason = "raw nodes were validated non-empty")]
        let out_name = rn.signals.last().expect("non-empty");
        let fanin_names = &rn.signals[..rn.signals.len() - 1];
        let mut fanins = Vec::with_capacity(fanin_names.len());
        for f in fanin_names {
            let id = *ids.get(f).ok_or_else(|| NetworkError::Blif {
                line: rn.line,
                detail: format!(
                    "fanin `{}` of `{}` is undefined",
                    snippet(f),
                    snippet(out_name)
                ),
            })?;
            fanins.push(id);
        }
        let cover = cubes_to_cover(rn.line, &rn.cubes, fanin_names.len())?;
        net.replace_node(ids[out_name], fanins, cover)?;
    }
    for name in &output_names {
        let id = *ids.get(name).ok_or_else(|| NetworkError::Blif {
            line: 0,
            detail: format!("output `{}` is never defined", snippet(name)),
        })?;
        net.mark_output(id)?;
    }
    Ok(net)
}

fn cubes_to_cover(line: usize, cubes: &[(String, char)], fanin_count: usize) -> Result<Cover> {
    if cubes.is_empty() {
        // No cube lines: constant 0.
        return Ok(Cover::zero());
    }
    let phase = cubes[0].1;
    if cubes.iter().any(|&(_, p)| p != phase) {
        return Err(NetworkError::Blif {
            line,
            detail: "mixed output phases in one .names block".into(),
        });
    }
    let mut cover = Cover::zero();
    for (pattern, _) in cubes {
        if pattern.len() != fanin_count {
            return Err(NetworkError::Blif {
                line,
                detail: format!(
                    "cube `{}` has {} positions for {fanin_count} fanins",
                    snippet(pattern),
                    pattern.len()
                ),
            });
        }
        let mut lits = Vec::new();
        for (pos, ch) in pattern.chars().enumerate() {
            match ch {
                '1' => lits.push((pos as u32, true)),
                '0' => lits.push((pos as u32, false)),
                '-' => {}
                other => {
                    return Err(NetworkError::Blif {
                        line,
                        detail: format!("invalid cube character `{}`", other.escape_default()),
                    })
                }
            }
        }
        #[expect(clippy::expect_used, reason = "distinct positions cannot conflict")]
        cover.push(Cube::new(lits).expect("distinct positions cannot conflict"));
    }
    cover.dedup();
    if phase == '0' {
        // Output phase 0: the block describes the OFF-set. Complement via
        // naive expansion (sharp). For benchmark files this is rare and
        // covers are small.
        Ok(complement_cover(&cover, fanin_count))
    } else if phase == '1' {
        Ok(cover)
    } else {
        Err(NetworkError::Blif {
            line,
            detail: format!("invalid output phase `{}`", phase.escape_default()),
        })
    }
}

/// Complements a cover over `n` positional variables by recursive Shannon
/// expansion (adequate for the small local covers found in BLIF files).
fn complement_cover(cover: &Cover, n: usize) -> Cover {
    fn rec(cover: &Cover, var: u32, n: usize) -> Cover {
        if cover.is_empty() {
            return Cover::one();
        }
        if cover.has_unit_cube() {
            return Cover::zero();
        }
        debug_assert!((var as usize) < n, "non-constant cover must have vars left");
        let c1 = rec(&cover.cofactor_lit(var, true), var + 1, n);
        let c0 = rec(&cover.cofactor_lit(var, false), var + 1, n);
        let lit1 = Cover::from_cubes(vec![Cube::lit(var, true)]);
        let lit0 = Cover::from_cubes(vec![Cube::lit(var, false)]);
        lit1.and(&c1).or(&lit0.and(&c0))
    }
    rec(cover, 0, n).simplify()
}

/// Serializes a network to BLIF text. Nodes are emitted in topological
/// order; every `.names` block uses output phase 1.
pub fn write(net: &Network) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".model {}", net.name());
    let inputs: Vec<&str> = net.inputs().iter().map(|&i| net.signal_name(i)).collect();
    let _ = writeln!(out, ".inputs {}", inputs.join(" "));
    let outputs: Vec<&str> = net.outputs().iter().map(|&o| net.signal_name(o)).collect();
    let _ = writeln!(out, ".outputs {}", outputs.join(" "));
    for sig in net.topo_order() {
        let Some((fanins, cover)) = net.node(sig) else {
            continue;
        };
        let mut names: Vec<&str> = fanins.iter().map(|&f| net.signal_name(f)).collect();
        names.push(net.signal_name(sig));
        let _ = writeln!(out, ".names {}", names.join(" "));
        for cube in cover.cubes() {
            let mut pattern = vec!['-'; fanins.len()];
            for &(v, p) in cube.literals() {
                pattern[v as usize] = if p { '1' } else { '0' };
            }
            if fanins.is_empty() {
                let _ = writeln!(out, "1");
            } else {
                let _ = writeln!(out, "{} 1", pattern.iter().collect::<String>());
            }
        }
    }
    out.push_str(".end\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const AND_OR: &str = "\
# comment
.model ao
.inputs a b \\
        c
.outputs f
.names a b t
11 1
.names t c f
1- 1
-1 1
.end
";

    #[test]
    fn parse_and_eval() {
        let net = parse(AND_OR).unwrap();
        assert_eq!(net.name(), "ao");
        assert_eq!(net.inputs().len(), 3);
        // f = a·b + c
        assert_eq!(net.eval(&[true, true, false]).unwrap(), vec![true]);
        assert_eq!(net.eval(&[true, false, false]).unwrap(), vec![false]);
        assert_eq!(net.eval(&[false, false, true]).unwrap(), vec![true]);
    }

    #[test]
    fn round_trip() {
        let net = parse(AND_OR).unwrap();
        let text = write(&net);
        let net2 = parse(&text).unwrap();
        for bits in 0..8u32 {
            let a: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(net.eval(&a).unwrap(), net2.eval(&a).unwrap());
        }
    }

    #[test]
    fn output_phase_zero() {
        let text = "\
.model inv
.inputs a b
.outputs f
.names a b f
11 0
.end
";
        // OFF-set = {ab} ⇒ f = !(a·b).
        let net = parse(text).unwrap();
        assert_eq!(net.eval(&[true, true]).unwrap(), vec![false]);
        assert_eq!(net.eval(&[false, true]).unwrap(), vec![true]);
    }

    #[test]
    fn constants_parse() {
        let text = ".model c\n.outputs t z\n.names t\n1\n.names z\n.end\n";
        let net = parse(text).unwrap();
        assert_eq!(net.eval(&[]).unwrap(), vec![true, false]);
    }

    #[test]
    fn forward_references_allowed() {
        let text = "\
.model fwd
.inputs a
.outputs f
.names t f
1 1
.names a t
0 1
.end
";
        let net = parse(text).unwrap();
        assert_eq!(net.eval(&[false]).unwrap(), vec![true]);
    }

    #[test]
    fn latch_rejected() {
        let text = ".model s\n.inputs a\n.outputs q\n.latch a q re clk 0\n.end\n";
        assert!(matches!(parse(text), Err(NetworkError::Blif { .. })));
    }

    #[test]
    fn error_snippets_are_escaped_and_bounded() {
        // A control character in an offending line must not reach the
        // error message raw.
        let text = ".model m\n.inputs a\n.outputs y\n.names a y\n1\u{4}1 x\n.end\n";
        let err = parse(text).expect_err("malformed cube");
        let msg = err.to_string();
        assert!(msg.contains("\\u{4}"), "escaped form expected: {msg:?}");
        assert!(msg.chars().all(|c| !c.is_control()), "raw control: {msg:?}");
        // Over-long garbage is truncated.
        let long = "x".repeat(500);
        let text = format!(".model m\n.inputs a\n.outputs y\n{long}\n.end\n");
        let err = parse(&text).expect_err("garbage token");
        assert!(err.to_string().len() < 200, "unbounded echo: {}", err);
        assert!(err.to_string().contains('…'));
    }

    #[test]
    fn cube_width_mismatch_rejected() {
        let text = ".model bad\n.inputs a b\n.outputs f\n.names a b f\n1 1\n.end\n";
        assert!(matches!(parse(text), Err(NetworkError::Blif { .. })));
    }

    #[test]
    fn complement_cover_is_exact() {
        let cubes = vec![("11".to_string(), '0'), ("00".to_string(), '0')];
        let cover = cubes_to_cover(1, &cubes, 2).unwrap();
        // OFF = {ab, āb̄} ⇒ ON = a⊕b.
        assert!(!cover.eval(&[true, true]));
        assert!(!cover.eval(&[false, false]));
        assert!(cover.eval(&[true, false]));
        assert!(cover.eval(&[false, true]));
    }
}
