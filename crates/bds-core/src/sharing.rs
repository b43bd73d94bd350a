//! Emitting factoring trees into a Boolean network, with sharing.
//!
//! The factoring-tree arena is already maximally shared *within* a
//! manager (the decomposer caches by canonical edge — paper Fig. 14); this
//! module turns the trees into network nodes while preserving that
//! sharing: every forest node materializes at most once, complement
//! references are folded into consumer cover phases (no inverter cost,
//! like SIS phase assignment), and named aliases are created for roots so
//! that supernode/output names survive.

use std::collections::HashMap;

use bds_network::{Network, NetworkError, SignalId};
use bds_sop::{Cover, Cube, Expr};

use crate::factor_tree::{FactorForest, FactorNode, FactorRef};

/// A resolved factoring-tree reference: a network signal plus the phase
/// it must be consumed in (`true` = as-is, `false` = complemented).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ResolvedRef {
    /// The driving signal.
    pub signal: SignalId,
    /// Phase: `false` means the consumer must complement it.
    pub phase: bool,
}

/// Emits the forest slice reachable from `roots` into `net`.
///
/// `var_signals[i]` is the network signal standing for manager variable
/// `i` (the decomposition ran over those variables). Gates get fresh
/// names prefixed with `prefix`.
///
/// Returns one [`ResolvedRef`] per root, in order.
///
/// # Errors
/// Propagates network construction errors (they indicate programming
/// errors — e.g. stale signal ids — rather than user-facing conditions).
pub fn emit_forest(
    net: &mut Network,
    forest: &FactorForest,
    roots: &[FactorRef],
    var_signals: &[SignalId],
    prefix: &str,
) -> Result<Vec<ResolvedRef>, NetworkError> {
    let mut emitter = Emitter {
        net,
        forest,
        var_signals,
        prefix,
        memo: HashMap::new(),
    };
    roots.iter().map(|&r| emitter.resolve_root(r)).collect()
}

/// Creates (or reuses) a node named `name` computing exactly `resolved`
/// (a buffer, or an inverter when the phase is negative).
///
/// # Errors
/// [`NetworkError::DuplicateName`] if `name` is taken.
pub fn alias(
    net: &mut Network,
    resolved: ResolvedRef,
    name: &str,
) -> Result<SignalId, NetworkError> {
    let cover = Cover::from_cubes(vec![Cube::lit(0, resolved.phase)]);
    net.add_node(name, vec![resolved.signal], cover)
}

/// Emits a factored [`Expr`] (the flow's SOP degradation rung) into
/// `net` as a chain of ≤2-input gates, the same granularity
/// [`emit_forest`] produces. `var_signals[i]` is the network signal for
/// expression variable `i`; literal phases fold into consumer covers,
/// so negative literals cost no inverters.
///
/// # Errors
/// Propagates network construction errors.
pub fn emit_expr(
    net: &mut Network,
    expr: &Expr,
    var_signals: &[SignalId],
    prefix: &str,
) -> Result<ResolvedRef, NetworkError> {
    match expr {
        Expr::Const(b) => {
            let name = net.fresh_name(prefix);
            let sig = net.add_constant(name, *b)?;
            Ok(ResolvedRef {
                signal: sig,
                phase: true,
            })
        }
        Expr::Lit(v, p) => Ok(ResolvedRef {
            signal: var_signals[*v as usize],
            phase: *p,
        }),
        Expr::And(xs) => emit_expr_assoc(net, xs, var_signals, prefix, true),
        Expr::Or(xs) => emit_expr_assoc(net, xs, var_signals, prefix, false),
    }
}

/// Left-folds an associative `And`/`Or` operand list into 2-input gates.
fn emit_expr_assoc(
    net: &mut Network,
    operands: &[Expr],
    var_signals: &[SignalId],
    prefix: &str,
    is_and: bool,
) -> Result<ResolvedRef, NetworkError> {
    let mut acc: Option<ResolvedRef> = None;
    for x in operands {
        let rx = emit_expr(net, x, var_signals, prefix)?;
        acc = Some(match acc {
            None => rx,
            Some(ra) => {
                let cover = if is_and {
                    Cover::from_cubes(
                        Cube::new(vec![(0, ra.phase), (1, rx.phase)])
                            .into_iter()
                            .collect(),
                    )
                } else {
                    Cover::from_cubes(vec![Cube::lit(0, ra.phase), Cube::lit(1, rx.phase)])
                };
                let name = net.fresh_name(prefix);
                let sig = net.add_node(name, vec![ra.signal, rx.signal], cover)?;
                ResolvedRef {
                    signal: sig,
                    phase: true,
                }
            }
        });
    }
    match acc {
        Some(r) => Ok(r),
        // An empty operand list is the operation's identity element.
        None => {
            let name = net.fresh_name(prefix);
            let sig = net.add_constant(name, is_and)?;
            Ok(ResolvedRef {
                signal: sig,
                phase: true,
            })
        }
    }
}

struct Emitter<'a> {
    net: &'a mut Network,
    forest: &'a FactorForest,
    var_signals: &'a [SignalId],
    prefix: &'a str,
    memo: HashMap<(u32, bool), ResolvedRef>,
}

impl Emitter<'_> {
    /// Resolves a *root* (output) reference. Internal consumers fold
    /// complement phases into their covers for free, but a complemented
    /// root would cost an inverter — for XNOR roots we instead emit the
    /// XOR variant directly (parity chains would otherwise always end in
    /// a stray inverter), reusing the positive node if it already exists
    /// only through its signal.
    fn resolve_root(&mut self, r: FactorRef) -> Result<ResolvedRef, NetworkError> {
        if r.is_complemented() && matches!(self.forest.node(r), FactorNode::Xnor(..)) {
            let key = (r.id() as u32, true);
            if let Some(&m) = self.memo.get(&key) {
                return Ok(m);
            }
            let m = self.emit_node(r)?;
            self.memo.insert(key, m);
            return Ok(m);
        }
        self.resolve(r)
    }

    fn resolve(&mut self, r: FactorRef) -> Result<ResolvedRef, NetworkError> {
        let key = (r.id() as u32, false);
        let base = if let Some(&m) = self.memo.get(&key) {
            m
        } else {
            let m = self.emit_node(r.complement_if(r.is_complemented()))?;
            self.memo.insert(key, m);
            m
        };
        Ok(ResolvedRef {
            signal: base.signal,
            phase: base.phase ^ r.is_complemented(),
        })
    }

    fn fresh(&mut self) -> String {
        let p = self.prefix.to_string();
        self.net.fresh_name(&p)
    }

    /// Emits the positive function of forest node `r.id()`.
    fn emit_node(&mut self, r: FactorRef) -> Result<ResolvedRef, NetworkError> {
        match self.forest.node(r) {
            FactorNode::One => {
                let name = self.fresh();
                let sig = self.net.add_constant(name, true)?;
                Ok(ResolvedRef {
                    signal: sig,
                    phase: true,
                })
            }
            FactorNode::Literal(v) => Ok(ResolvedRef {
                signal: self.var_signals[v.index()],
                phase: true,
            }),
            &FactorNode::And(a, b) => {
                let (ra, rb) = (self.resolve(a)?, self.resolve(b)?);
                let cover = Cover::from_cubes(
                    Cube::new(vec![(0, ra.phase), (1, rb.phase)])
                        .into_iter()
                        .collect(),
                );
                self.gate(vec![ra.signal, rb.signal], cover)
            }
            &FactorNode::Or(a, b) => {
                let (ra, rb) = (self.resolve(a)?, self.resolve(b)?);
                let cover = Cover::from_cubes(vec![Cube::lit(0, ra.phase), Cube::lit(1, rb.phase)]);
                self.gate(vec![ra.signal, rb.signal], cover)
            }
            &FactorNode::Xnor(a, b) => {
                let (ra, rb) = (self.resolve(a)?, self.resolve(b)?);
                // XNOR(x ⊕ c₁, y ⊕ c₂) = XNOR(x, y) ⊕ c₁ ⊕ c₂; a
                // complemented reference to this node flips it to XOR.
                let flip = !ra.phase ^ !rb.phase ^ r.is_complemented();
                let cubes = if flip {
                    vec![
                        Cube::parse(&[(0, true), (1, false)]),
                        Cube::parse(&[(0, false), (1, true)]),
                    ]
                } else {
                    vec![
                        Cube::parse(&[(0, true), (1, true)]),
                        Cube::parse(&[(0, false), (1, false)]),
                    ]
                };
                self.gate(vec![ra.signal, rb.signal], Cover::from_cubes(cubes))
            }
            &FactorNode::Mux { sel, hi, lo } => {
                let rs = self.resolve(sel)?;
                let rh = self.resolve(hi)?;
                let rl = self.resolve(lo)?;
                let cubes = vec![
                    Cube::parse(&[(0, rs.phase), (1, rh.phase)]),
                    Cube::parse(&[(0, !rs.phase), (2, rl.phase)]),
                ];
                self.gate(
                    vec![rs.signal, rh.signal, rl.signal],
                    Cover::from_cubes(cubes),
                )
            }
            FactorNode::Leaf(cubes) => {
                // Map manager variables to fanin positions.
                let mut fanins: Vec<SignalId> = Vec::new();
                let mut pos_of: HashMap<usize, u32> = HashMap::new();
                for cube in cubes {
                    for &(v, _) in cube.literals() {
                        pos_of.entry(v.index()).or_insert_with(|| {
                            fanins.push(self.var_signals[v.index()]);
                            (fanins.len() - 1) as u32
                        });
                    }
                }
                #[expect(clippy::expect_used, reason = "ISOP cubes never contain both phases")]
                let cover: Cover = cubes
                    .iter()
                    .map(|c| {
                        Cube::new(
                            c.literals()
                                .iter()
                                .map(|&(v, p)| (pos_of[&v.index()], p))
                                .collect(),
                        )
                        .expect("bdd cubes are consistent")
                    })
                    .collect();
                if cover.is_empty() {
                    let name = self.fresh();
                    let sig = self.net.add_constant(name, false)?;
                    return Ok(ResolvedRef {
                        signal: sig,
                        phase: true,
                    });
                }
                self.gate(fanins, cover)
            }
        }
    }

    fn gate(&mut self, fanins: Vec<SignalId>, cover: Cover) -> Result<ResolvedRef, NetworkError> {
        let name = self.fresh();
        let sig = self.net.add_node(name, fanins, cover)?;
        Ok(ResolvedRef {
            signal: sig,
            phase: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::{DecomposeParams, Decomposer};
    use bds_bdd::Manager;

    /// Decompose → emit → simulate must equal direct BDD evaluation.
    #[test]
    fn emit_round_trip() {
        let mut mgr = Manager::new();
        let vars = mgr.new_vars(4);
        let lits: Vec<bds_bdd::Edge> = vars.iter().map(|&v| mgr.literal(v, true)).collect();
        let ab = mgr.and(lits[0], lits[1]).unwrap();
        let cd = mgr.xor(lits[2], lits[3]).unwrap();
        let f = mgr.or(ab, cd).unwrap();
        let g = mgr.ite(ab, cd, lits[0]).unwrap();

        let mut forest = FactorForest::new();
        let mut dec = Decomposer::new();
        let p = DecomposeParams::default();
        let rf = dec.decompose(&mut mgr, f, &mut forest, &p).unwrap();
        let rg = dec
            .decompose(&mut mgr, g.complement(), &mut forest, &p)
            .unwrap();

        let mut net = Network::new("emit");
        let sigs: Vec<SignalId> = (0..4)
            .map(|i| net.add_input(format!("x{i}")).unwrap())
            .collect();
        let emitted = emit_forest(&mut net, &forest, &[rf, rg], &sigs, "g").unwrap();
        let of = alias(&mut net, emitted[0], "F").unwrap();
        let og = alias(&mut net, emitted[1], "G").unwrap();
        net.mark_output(of).unwrap();
        net.mark_output(og).unwrap();

        for bits in 0..16u32 {
            let assign: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            let out = net.eval(&assign).unwrap();
            assert_eq!(out[0], mgr.eval(f, &assign), "F at {assign:?}");
            assert_eq!(out[1], !mgr.eval(g, &assign), "Ḡ at {assign:?}");
        }
    }

    /// Factored-expression emission (the SOP degradation rung) must
    /// match the cover it came from, at ≤2-input gate granularity.
    #[test]
    fn emit_expr_matches_cover_semantics() {
        let cover = Cover::from_cubes(vec![
            Cube::parse(&[(0, true), (1, true)]),
            Cube::parse(&[(0, true), (2, true)]),
            Cube::parse(&[(1, false), (2, false)]),
        ]);
        let expr = bds_sop::factor::factor(&cover);
        let mut net = Network::new("expr");
        let sigs: Vec<SignalId> = (0..3)
            .map(|i| net.add_input(format!("x{i}")).unwrap())
            .collect();
        let r = emit_expr(&mut net, &expr, &sigs, "e").unwrap();
        let o = alias(&mut net, r, "F").unwrap();
        net.mark_output(o).unwrap();
        for sig in net.node_ids() {
            let (fanins, _) = net.node(sig).unwrap();
            assert!(fanins.len() <= 2, "expr gates must stay at ≤2 inputs");
        }
        for bits in 0..8u32 {
            let assign: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(net.eval(&assign).unwrap()[0], cover.eval(&assign));
        }
    }

    /// Constants and bare literals emit without gates.
    #[test]
    fn emit_expr_handles_degenerate_forms() {
        let mut net = Network::new("deg");
        let sigs: Vec<SignalId> = (0..2)
            .map(|i| net.add_input(format!("x{i}")).unwrap())
            .collect();
        let lit = emit_expr(&mut net, &Expr::Lit(1, false), &sigs, "e").unwrap();
        assert_eq!(lit.signal, sigs[1]);
        assert!(!lit.phase, "negative literal folds into the phase");
        let c = emit_expr(&mut net, &Expr::Const(true), &sigs, "e").unwrap();
        assert!(c.phase);
        assert_eq!(net.node_count(), 1, "only the constant adds a node");
    }

    /// Shared sub-functions must produce shared network nodes.
    #[test]
    fn sharing_survives_emission() {
        let mut mgr = Manager::new();
        let vars = mgr.new_vars(4);
        let lits: Vec<bds_bdd::Edge> = vars.iter().map(|&v| mgr.literal(v, true)).collect();
        let common = mgr.xor(lits[1], lits[2]).unwrap();
        let f = mgr.and(lits[0], common).unwrap();
        let g = mgr.and(lits[3], common).unwrap();

        let mut forest = FactorForest::new();
        let mut dec = Decomposer::new();
        let p = DecomposeParams::default();
        let rf = dec.decompose(&mut mgr, f, &mut forest, &p).unwrap();
        let rg = dec.decompose(&mut mgr, g, &mut forest, &p).unwrap();

        let mut net = Network::new("share");
        let sigs: Vec<SignalId> = (0..4)
            .map(|i| net.add_input(format!("x{i}")).unwrap())
            .collect();
        let emitted = emit_forest(&mut net, &forest, &[rf, rg], &sigs, "n").unwrap();
        for (i, e) in emitted.iter().enumerate() {
            let name = format!("o{i}");
            let s = alias(&mut net, *e, &name).unwrap();
            net.mark_output(s).unwrap();
        }
        // Nodes: shared XOR + two ANDs + two aliases = 5.
        assert_eq!(
            net.compacted().unwrap().node_count(),
            5,
            "the XOR must be emitted once"
        );
    }
}
