//! The plain emission the stitch replaced, kept as the reference for
//! `tests/partitioned_differential.rs` and `tests/global_differential.rs`.
//!
//! `emit_forest`, `emit_expr` and `alias` are the old `bds::sharing`
//! functions verbatim: they write every forest node, constant and root
//! alias into a `Network` as it comes, and leave the clean-up to the
//! caller's `sweep` and `compacted`. `bds::sharing::Stitch` must write
//! what that clean-up made of them.
//!
//! It lives in the test tree and is compiled only into the tests that
//! declare `mod reference_stitch;`, so library code cannot reach it.

use std::collections::HashMap;

use bds_repro::network::{Network, NetworkError, SignalId};
use bds_repro::sop::{Cover, Cube, Expr};

use bds_repro::core::factor_tree::{FactorForest, FactorNode, FactorRef};

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
                let mut pos_of: HashMap<u32, u32> = HashMap::new();
                for cube in cubes {
                    for &(v, _) in cube.literals() {
                        pos_of.entry(v).or_insert_with(|| {
                            fanins.push(self.var_signals[v as usize]);
                            (fanins.len() - 1) as u32
                        });
                    }
                }
                let cover = Cover::from_cubes(cubes.clone()).renumbered(|v| pos_of[&v]);
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
