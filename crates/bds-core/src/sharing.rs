//! Emitting factoring trees into a Boolean network, with sharing.
//!
//! The factoring-tree arena is already maximally shared *within* a
//! manager (the decomposer caches by canonical edge — paper Fig. 14); this
//! module turns the trees into network nodes while preserving that
//! sharing: every forest node materializes at most once, complement
//! references are folded into consumer cover phases (no inverter cost,
//! like SIS phase assignment), and roots get named drivers so that
//! supernode/output names survive.
//!
//! A [`Stitch`] also canonicalizes every node as it is emitted with
//! `sweep`'s own rules ([`prune_fanins`], [`single_literal`] and
//! [`FunctionKeys`]), so the network it writes is already a fixpoint of
//! `sweep` and compact (DESIGN.md, "Sharing extraction"):
//!
//! - fanins are forwarded through buffers and duplicates to their
//!   representative, constants are cofactored in, repeated fanins merge
//!   and covers are simplified and pruned;
//! - a node equal to a positive literal is a buffer: readers use its
//!   source, and only a named output keeps it as its driver; an inverter
//!   of an inverter is a buffer of the grandparent;
//! - every other node is hash-consed on its function of its signals, and
//!   the first node emitted with a function stays its representative;
//! - [`Stitch::finish`] writes only the nodes an output reaches, in
//!   emission order, with the names the plain emission gave them.
//!
//! An emitted gate arrives as bit cubes, keyed without a [`Cover`]; it
//! builds its cover only when it is kept or its fanins need a rewrite.
//!
//! The result is what `sweep` and `compacted` make of the plain emission
//! (every node written as it comes) whenever each node's fanin rewrites
//! land in one `sweep` iteration, which holds on every circuit the flow's
//! differential tests run. The stitch applies a node's rewrites in one
//! step; `sweep` resolves an inverter of an inverter, or a node that
//! becomes a buffer or a duplicate only once its own fanins merge, an
//! iteration later, and simplifies the reader's cover in between. As
//! `simplify` depends on the order of merges, such a reader can end with
//! another fanin order or cover; both are `sweep` fixpoints computing the
//! same function (the test `staged_rewrites_can_diverge_from_sweep`).

use std::ops::Range;
use std::sync::Arc;

use bds_bdd::{FastMap, FastSet};
use bds_network::{
    prune_fanins, single_literal, FunctionKey, FunctionKeys, Network, NetworkError, SignalId,
};
use bds_sop::{BitCube, Cover, Cube, Expr};

use crate::factor_tree::{FactorForest, FactorNode, FactorRef};

/// A value of the network being stitched: one of its signals (an input
/// or a node), or a constant that readers fold into their covers.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Sig {
    /// A signal of the stitch, by index.
    Signal(u32),
    /// A constant.
    Const(bool),
}

/// A resolved factoring-tree reference: a stitched value plus the phase
/// it must be consumed in (`true` = as-is, `false` = complemented).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ResolvedRef {
    /// The driving value.
    pub signal: Sig,
    /// Phase: `false` means the consumer must complement it.
    pub phase: bool,
}

/// The name a node gets when it is written: `{prefix}_{n}` for a fresh
/// name, or a name the caller gave, which the written network keeps
/// without a copy.
#[derive(Debug)]
enum Name {
    Fresh(u32),
    Given(Arc<str>),
}

/// A node's function over its fanin positions as it reaches
/// [`Stitch::add`]: a cover, or the bit cubes of an emitted gate of at
/// most six positions, which become a [`Cover`] only when the node is
/// kept or its fanins need a rewrite.
enum Body<'c> {
    Bits(&'c [BitCube]),
    Cover(Cover),
}

impl Body<'_> {
    fn into_cover(self) -> Cover {
        match self {
            Body::Bits(cubes) => cubes.iter().map(|c| c.to_cube()).collect(),
            Body::Cover(cover) => cover,
        }
    }
}

/// The bit cube of literals on distinct positions.
fn cube(lits: &[(u32, bool)]) -> BitCube {
    lits.iter()
        .fold(BitCube { care: 0, phase: 0 }, |c, &(v, p)| BitCube {
            care: c.care | 1 << v,
            phase: c.phase | u8::from(p) << v,
        })
}

/// One signal of the stitch: an input (`driver == None`) or a node kept
/// because it is the first of its function or a named output.
struct Slot {
    name: Name,
    /// `(fanins, cover)`, final: fanins (a range of [`Stitch::fanins`])
    /// are distinct representatives with lower indices, and the cover is
    /// simplified and uses them all.
    driver: Option<(Range<usize>, Cover)>,
    /// What readers of this signal read instead: itself, the source of a
    /// buffer, the representative of its function, or a constant.
    canon: Sig,
}

/// A network under construction whose every node is canonical on
/// arrival (see the module docs). Inputs are added first, then nodes
/// through [`Stitch::emit_forest`], [`Stitch::emit_expr`],
/// [`Stitch::node`] and [`Stitch::alias`]; [`Stitch::finish`] writes the
/// network.
pub struct Stitch<'n> {
    model: String,
    prefix: &'n str,
    slots: Vec<Slot>,
    /// The fanin lists of the kept nodes, one after another.
    fanins: Vec<u32>,
    outputs: Vec<u32>,
    /// Function key → what readers of its first node read.
    table: FastMap<FunctionKey, Sig>,
    keys: FunctionKeys,
    /// Fresh-name state: the next number, and the numbers `n` whose
    /// `{prefix}_{n}` is a given name and so is skipped.
    counter: u32,
    fresh_taken: FastSet<u32>,
    /// The emitter's memo, two entries per forest node (its positive
    /// function, and the XOR form of a complemented XNOR root), each
    /// stamped with the [`Stitch::emit_forest`] call that wrote it.
    memo: Vec<(u64, ResolvedRef)>,
    epoch: u64,
    /// Scratch: the canonical fanins of the node being added, and the
    /// cubes of the leaf being emitted.
    ids: Vec<u32>,
    bits: Vec<BitCube>,
}

impl<'n> Stitch<'n> {
    /// An empty stitch for a network called `model`, whose fresh names
    /// are `{prefix}_{n}`.
    pub fn new(model: &str, prefix: &'n str) -> Self {
        Stitch {
            model: model.to_string(),
            prefix,
            slots: Vec::new(),
            fanins: Vec::new(),
            outputs: Vec::new(),
            table: FastMap::default(),
            keys: FunctionKeys::default(),
            counter: 0,
            fresh_taken: FastSet::default(),
            memo: Vec::new(),
            epoch: 0,
            ids: Vec::new(),
            bits: Vec::new(),
        }
    }

    /// Declares a primary input.
    ///
    /// # Errors
    /// [`NetworkError::DuplicateName`] if a fresh name handed out so far
    /// has the name; [`Stitch::finish`] fails on one an input or another
    /// written node has.
    pub fn add_input(&mut self, name: impl Into<Arc<str>>) -> Result<Sig, NetworkError> {
        let name = name.into();
        self.claim(&name)?;
        let me = self.slots.len() as u32;
        self.slots.push(Slot {
            name: Name::Given(name),
            driver: None,
            canon: Sig::Signal(me),
        });
        Ok(Sig::Signal(me))
    }

    /// Sets aside the number of `name` if it has the fresh form
    /// `{prefix}_{n}`, so that no fresh name takes it before `name` is
    /// given. A caller reserves every name it will give before it emits,
    /// else a given name can clash with a gate's fresh name.
    pub fn reserve(&mut self, name: &str) {
        if let Some(n) = self.fresh_number(name) {
            self.fresh_taken.insert(n);
        }
    }

    /// Marks a named node or an input as a primary output (idempotent).
    ///
    /// # Errors
    /// [`NetworkError::Inconsistent`] for a constant, which has no
    /// driver to name.
    pub fn mark_output(&mut self, sig: Sig) -> Result<(), NetworkError> {
        let Sig::Signal(s) = sig else {
            return Err(NetworkError::Inconsistent {
                detail: "a constant cannot drive an output".to_string(),
            });
        };
        if !self.outputs.contains(&s) {
            self.outputs.push(s);
        }
        Ok(())
    }

    /// Emits the forest slice reachable from `roots`.
    ///
    /// `var_signals[i]` stands for manager variable `i` (the decomposition
    /// ran over those variables). Gates get fresh names.
    ///
    /// Returns one [`ResolvedRef`] per root, in order.
    ///
    /// # Errors
    /// Propagates construction errors (they indicate programming errors
    /// rather than user-facing conditions).
    pub fn emit_forest(
        &mut self,
        forest: &FactorForest,
        roots: &[FactorRef],
        var_signals: &[Sig],
    ) -> Result<Vec<ResolvedRef>, NetworkError> {
        self.epoch += 1;
        let unset = ResolvedRef {
            signal: Sig::Const(false),
            phase: true,
        };
        if self.memo.len() < 2 * forest.len() {
            self.memo.resize(2 * forest.len(), (0, unset));
        }
        let mut emitter = Emitter {
            stitch: self,
            forest,
            var_signals,
        };
        roots.iter().map(|&r| emitter.resolve_root(r)).collect()
    }

    /// Emits a factored [`Expr`] (the flow's SOP degradation rung) as a
    /// chain of ≤2-input gates, the same granularity
    /// [`Stitch::emit_forest`] produces. `var_signals[i]` stands for
    /// expression variable `i`; literal phases fold into consumer covers,
    /// so negative literals cost no inverters.
    ///
    /// # Errors
    /// Propagates construction errors.
    pub fn emit_expr(
        &mut self,
        expr: &Expr,
        var_signals: &[Sig],
    ) -> Result<ResolvedRef, NetworkError> {
        match expr {
            Expr::Const(b) => Ok(self.constant(*b)),
            Expr::Lit(v, p) => Ok(ResolvedRef {
                signal: var_signals[*v as usize],
                phase: *p,
            }),
            Expr::And(xs) => self.emit_expr_assoc(xs, var_signals, true),
            Expr::Or(xs) => self.emit_expr_assoc(xs, var_signals, false),
        }
    }

    /// Left-folds an associative `And`/`Or` operand list into 2-input gates.
    fn emit_expr_assoc(
        &mut self,
        operands: &[Expr],
        var_signals: &[Sig],
        is_and: bool,
    ) -> Result<ResolvedRef, NetworkError> {
        let mut acc: Option<ResolvedRef> = None;
        for x in operands {
            let rx = self.emit_expr(x, var_signals)?;
            acc = Some(match acc {
                None => rx,
                Some(ra) => self.and_or(is_and, ra, rx)?,
            });
        }
        // An empty operand list is the operation's identity element.
        Ok(acc.unwrap_or_else(|| self.constant(is_and)))
    }

    /// Adds a node named `name` computing `cover` over `fanins` (cover
    /// variable `i` is `fanins[i]`). With `keep` it is the driver of a
    /// named output and always written; its return value names it.
    /// Otherwise the return value is what readers read.
    ///
    /// # Errors
    /// [`NetworkError::DuplicateName`] if a fresh name handed out so far
    /// has the name, [`NetworkError::Inconsistent`] if the cover mentions
    /// a variable outside the fanin list.
    pub fn node(
        &mut self,
        name: impl Into<Arc<str>>,
        fanins: &[Sig],
        cover: Cover,
        keep: bool,
    ) -> Result<Sig, NetworkError> {
        let name = name.into();
        self.claim(&name)?;
        self.add(Name::Given(name), fanins, Body::Cover(cover), keep)
    }

    /// Names `resolved` as `name`: a buffer, or an inverter when the phase
    /// is negative. A buffer is written only with `keep` (the driver of a
    /// named output); otherwise its readers read its source.
    ///
    /// # Errors
    /// [`NetworkError::DuplicateName`] as for [`Stitch::node`].
    pub fn alias(
        &mut self,
        resolved: ResolvedRef,
        name: impl Into<Arc<str>>,
        keep: bool,
    ) -> Result<Sig, NetworkError> {
        let name = name.into();
        self.claim(&name)?;
        let literal = [cube(&[(0, resolved.phase)])];
        self.add(
            Name::Given(name),
            &[resolved.signal],
            Body::Bits(&literal),
            keep,
        )
    }

    /// Writes the network: the inputs, then every node an output reaches,
    /// in emission order.
    ///
    /// # Errors
    /// [`NetworkError::DuplicateName`] when two written signals have one
    /// name; otherwise network construction errors, which a stitch built
    /// through this API never produces.
    pub fn finish(self) -> Result<Network, NetworkError> {
        let mut live = vec![false; self.slots.len()];
        for &o in &self.outputs {
            live[o as usize] = true;
        }
        // Fanins have lower indices, so one backward pass marks the cone.
        for i in (0..self.slots.len()).rev() {
            if let (true, Some((fanins, _))) = (live[i], &self.slots[i].driver) {
                for &f in &self.fanins[fanins.clone()] {
                    live[f as usize] = true;
                }
            }
        }
        let written = (self.slots.iter().zip(&live))
            .filter(|&(slot, &l)| l || slot.driver.is_none())
            .count();
        let mut net = Network::with_capacity(self.model, written);
        let mut id: Vec<Option<SignalId>> = vec![None; self.slots.len()];
        let prefix = self.prefix;
        // A fresh name is spelled in this buffer, then allocated once.
        let mut spelled = String::new();
        for (i, slot) in self.slots.into_iter().enumerate() {
            let name = || match slot.name {
                // `{prefix}_{n}`, spelled digit by digit.
                Name::Fresh(n) => {
                    spelled.clear();
                    spelled.push_str(prefix);
                    spelled.push('_');
                    let digits = n.checked_ilog10().unwrap_or(0) + 1;
                    for d in (0..digits).rev() {
                        spelled.push(char::from(b'0' + (n / 10u32.pow(d) % 10) as u8));
                    }
                    Arc::from(spelled.as_str())
                }
                Name::Given(s) => s,
            };
            id[i] = match slot.driver {
                None => Some(net.add_input(name())?),
                Some((fanins, cover)) if live[i] => {
                    let mapped = (self.fanins[fanins].iter())
                        .map(|&f| id[f as usize].ok_or_else(|| unwritten(&net)))
                        .collect::<Result<_, _>>()?;
                    Some(net.add_node(name(), mapped, cover)?)
                }
                Some(_) => None,
            };
        }
        for o in self.outputs {
            net.mark_output(id[o as usize].ok_or_else(|| unwritten(&net))?)?;
        }
        Ok(net)
    }

    /// A fresh name, skipping those a given name took.
    fn fresh(&mut self) -> Name {
        loop {
            let n = self.counter;
            self.counter += 1;
            if !self.fresh_taken.contains(&n) {
                return Name::Fresh(n);
            }
        }
    }

    /// The `n` of a name spelled exactly as fresh name `{prefix}_{n}`.
    fn fresh_number(&self, name: &str) -> Option<u32> {
        let digits = name.strip_prefix(self.prefix)?.strip_prefix('_')?;
        let canonical = !digits.is_empty()
            && digits.bytes().all(|b| b.is_ascii_digit())
            && (digits == "0" || !digits.starts_with('0'));
        canonical.then(|| digits.parse().ok()).flatten()
    }

    /// Takes a given name, failing if a fresh name handed out so far has
    /// it. A name that an input or another given name has is caught by
    /// [`Stitch::finish`], when both are written.
    fn claim(&mut self, name: &str) -> Result<(), NetworkError> {
        let number = self.fresh_number(name);
        if number.is_some_and(|n| n < self.counter && !self.fresh_taken.contains(&n)) {
            return Err(NetworkError::DuplicateName {
                name: name.to_string(),
            });
        }
        if let Some(n) = number {
            self.fresh_taken.insert(n);
        }
        Ok(())
    }

    /// What readers of `sig` read.
    fn canon(&self, sig: Sig) -> Sig {
        match sig {
            Sig::Signal(s) => self.slots[s as usize].canon,
            c @ Sig::Const(_) => c,
        }
    }

    /// A constant, which takes a fresh name like the node it replaces.
    fn constant(&mut self, value: bool) -> ResolvedRef {
        self.fresh();
        ResolvedRef {
            signal: Sig::Const(value),
            phase: true,
        }
    }

    /// A gate with a fresh name.
    fn gate(&mut self, fanins: &[Sig], body: Body<'_>) -> Result<ResolvedRef, NetworkError> {
        let name = self.fresh();
        let signal = self.add(name, fanins, body, false)?;
        Ok(ResolvedRef {
            signal,
            phase: true,
        })
    }

    /// A two-input AND (`is_and`) or OR gate of `a` and `b`.
    fn and_or(
        &mut self,
        is_and: bool,
        a: ResolvedRef,
        b: ResolvedRef,
    ) -> Result<ResolvedRef, NetworkError> {
        let and = [cube(&[(0, a.phase), (1, b.phase)])];
        let or = [cube(&[(0, a.phase)]), cube(&[(1, b.phase)])];
        let cubes: &[BitCube] = if is_and { &and } else { &or };
        self.gate(&[a.signal, b.signal], Body::Bits(cubes))
    }

    /// Canonicalizes a node and keeps it if it is new or `keep` is set.
    fn add(
        &mut self,
        name: Name,
        fanins: &[Sig],
        body: Body<'_>,
        keep: bool,
    ) -> Result<Sig, NetworkError> {
        let mut ids = std::mem::take(&mut self.ids);
        let mut body = match body {
            Body::Bits(cubes) if self.needs_no_rewrite(fanins, cubes, &mut ids) => body,
            body => Body::Cover(self.substitute(fanins, body.into_cover(), &mut ids)?),
        };
        let me = self.slots.len() as u32;
        let literal = match &body {
            Body::Bits([c]) if ids.len() == 1 && c.care == 1 => Some((ids[0], c.phase == 1)),
            Body::Bits(_) => None,
            Body::Cover(cover) => single_literal(&ids, cover),
        };
        let grand = match literal {
            Some((x, false)) => self.inverter_source(x),
            _ => None,
        };
        let canon = if ids.is_empty() {
            Sig::Const(match &body {
                Body::Bits(cubes) => !cubes.is_empty(),
                Body::Cover(cover) => !cover.is_empty(),
            })
        } else if let Some((x, true)) = literal {
            // A buffer enters the dedup table, but its readers read `x`.
            self.first_of(&ids, &body, Sig::Signal(x));
            Sig::Signal(x)
        } else if let Some(grand) = grand {
            // `sweep` turns an inverter of an inverter into a buffer of
            // the grandparent, then dedups it before it collapses it.
            ids.clear();
            ids.push(grand);
            body = Body::Bits(&BUFFER);
            self.first_of(&ids, &body, Sig::Signal(grand))
        } else {
            self.first_of(&ids, &body, Sig::Signal(me))
        };
        if keep || canon == Sig::Signal(me) {
            let start = self.fanins.len();
            self.fanins.extend_from_slice(&ids);
            self.slots.push(Slot {
                name,
                driver: Some((start..self.fanins.len(), body.into_cover())),
                canon,
            });
        }
        self.ids = ids;
        Ok(if keep { Sig::Signal(me) } else { canon })
    }

    /// Whether `substitute` would leave an emitted gate as it is: its
    /// fanins stand for distinct signals, which it writes to `ids`, and
    /// its cubes use every position and are distinct and simplified (no
    /// cube's literals are within another's, and no two over the same
    /// positions differ in one phase alone, as [`Cover::is_simplified`]
    /// asks).
    fn needs_no_rewrite(&self, fanins: &[Sig], cubes: &[BitCube], ids: &mut Vec<u32>) -> bool {
        ids.clear();
        for &f in fanins {
            match self.canon(f) {
                Sig::Signal(s) if !ids.contains(&s) => ids.push(s),
                _ => return false,
            }
        }
        let used = cubes.iter().fold(0u32, |u, c| u | u32::from(c.care));
        let within =
            |c: BitCube, d: BitCube| c.care & !d.care == 0 && (c.phase ^ d.phase) & c.care == 0;
        let apart = |c: BitCube, d: BitCube| {
            let distance_one = c.care == d.care && (c.phase ^ d.phase).count_ones() == 1;
            !(within(c, d) || within(d, c) || distance_one)
        };
        used + 1 == 1 << fanins.len()
            && (0..cubes.len()).all(|i| cubes[i + 1..].iter().all(|&d| apart(cubes[i], d)))
    }

    /// Simplifies `cover` and drops the positions it does not use, as
    /// `sweep`'s `simplify_covers` does before it touches fanins, then
    /// forwards the fanins to what they stand for, folds constants,
    /// merges repeated signals, drops unused positions and simplifies, as
    /// `sweep`'s `propagate_constants`, `prune_unused_fanins` and
    /// `simplify_covers` would. The fanins left go to `ids`.
    fn substitute(
        &self,
        fanins: &[Sig],
        cover: Cover,
        ids: &mut Vec<u32>,
    ) -> Result<Cover, NetworkError> {
        Network::check_cover(fanins.len(), &cover)?;
        let cover = if cover.is_simplified() {
            cover
        } else {
            cover.simplify()
        };
        let (mut signals, mut cover) =
            prune_fanins(fanins, &cover).unwrap_or_else(|| (fanins.to_vec(), cover));
        for (pos, f) in signals.iter_mut().enumerate() {
            *f = self.canon(*f);
            if let Sig::Const(value) = *f {
                // The position is unused afterwards, so pruning drops it.
                cover = cover.cofactor_lit(pos as u32, value);
            }
        }
        let (signals, cover) = prune_fanins(&signals, &cover).unwrap_or((signals, cover));
        let (signals, cover) = if cover.is_simplified() {
            (signals, cover)
        } else {
            let cover = cover.simplify();
            prune_fanins(&signals, &cover).unwrap_or((signals, cover))
        };
        ids.clear();
        ids.extend(signals.iter().filter_map(|&s| match s {
            Sig::Signal(s) => Some(s),
            Sig::Const(_) => None,
        }));
        Ok(cover)
    }

    /// The source of `x` when `x` is an inverter node.
    fn inverter_source(&self, x: u32) -> Option<u32> {
        let (fanins, cover) = self.slots[x as usize].driver.as_ref()?;
        match single_literal(&self.fanins[fanins.clone()], cover) {
            Some((y, false)) => Some(y),
            _ => None,
        }
    }

    /// What readers of a node read: the first node with its function, or
    /// `first` when it is the first. A node whose key the scratch manager
    /// cannot build is left out of the table, as `sweep` leaves it out.
    fn first_of(&mut self, fanins: &[u32], body: &Body<'_>, first: Sig) -> Sig {
        let key = match body {
            Body::Bits(cubes) => self.keys.key_of_bits(fanins, cubes),
            Body::Cover(cover) => self.keys.key(fanins.iter().map(|&s| s as usize), cover),
        };
        match key {
            Some(key) => *self.table.entry(key).or_insert(first),
            None => first,
        }
    }
}

/// The cube of a buffer of position 0.
const BUFFER: [BitCube; 1] = [BitCube { care: 1, phase: 1 }];

/// The error for a fanin or output that [`Stitch::finish`] did not write.
fn unwritten(net: &Network) -> NetworkError {
    NetworkError::Inconsistent {
        detail: format!("stitch of `{}` reads a signal it did not write", net.name()),
    }
}

struct Emitter<'s, 'n, 'a> {
    stitch: &'s mut Stitch<'n>,
    forest: &'a FactorForest,
    var_signals: &'a [Sig],
}

impl Emitter<'_, '_, '_> {
    /// Resolves a *root* (output) reference. Internal consumers fold
    /// complement phases into their covers for free, but a complemented
    /// root would cost an inverter — for XNOR roots we instead emit the
    /// XOR variant directly (parity chains would otherwise always end in
    /// a stray inverter), reusing the positive node if it already exists
    /// only through its signal.
    fn resolve_root(&mut self, r: FactorRef) -> Result<ResolvedRef, NetworkError> {
        if r.is_complemented() && matches!(self.forest.node(r), FactorNode::Xnor(..)) {
            return self.memoized(2 * r.id() + 1, r);
        }
        self.resolve(r)
    }

    fn resolve(&mut self, r: FactorRef) -> Result<ResolvedRef, NetworkError> {
        let base = self.memoized(2 * r.id(), r.complement_if(r.is_complemented()))?;
        Ok(ResolvedRef {
            signal: base.signal,
            phase: base.phase ^ r.is_complemented(),
        })
    }

    /// The memo entry at `slot`, emitting `r` into it when this
    /// [`Stitch::emit_forest`] call has not yet.
    fn memoized(&mut self, slot: usize, r: FactorRef) -> Result<ResolvedRef, NetworkError> {
        let (epoch, m) = self.stitch.memo[slot];
        if epoch == self.stitch.epoch {
            return Ok(m);
        }
        let m = self.emit_node(r)?;
        self.stitch.memo[slot] = (self.stitch.epoch, m);
        Ok(m)
    }

    /// Emits the positive function of forest node `r.id()`.
    fn emit_node(&mut self, r: FactorRef) -> Result<ResolvedRef, NetworkError> {
        match self.forest.node(r) {
            FactorNode::One => Ok(self.stitch.constant(true)),
            FactorNode::Literal(v) => Ok(ResolvedRef {
                signal: self.var_signals[v.index()],
                phase: true,
            }),
            &FactorNode::And(a, b) => {
                let (ra, rb) = (self.resolve(a)?, self.resolve(b)?);
                self.stitch.and_or(true, ra, rb)
            }
            &FactorNode::Or(a, b) => {
                let (ra, rb) = (self.resolve(a)?, self.resolve(b)?);
                self.stitch.and_or(false, ra, rb)
            }
            &FactorNode::Xnor(a, b) => {
                let (ra, rb) = (self.resolve(a)?, self.resolve(b)?);
                // XNOR(x ⊕ c₁, y ⊕ c₂) = XNOR(x, y) ⊕ c₁ ⊕ c₂; a
                // complemented reference to this node flips it to XOR.
                let flip = !ra.phase ^ !rb.phase ^ r.is_complemented();
                let cubes = [
                    cube(&[(0, true), (1, !flip)]),
                    cube(&[(0, false), (1, flip)]),
                ];
                self.stitch
                    .gate(&[ra.signal, rb.signal], Body::Bits(&cubes))
            }
            &FactorNode::Mux { sel, hi, lo } => {
                let rs = self.resolve(sel)?;
                let rh = self.resolve(hi)?;
                let rl = self.resolve(lo)?;
                let cubes = [
                    cube(&[(0, rs.phase), (1, rh.phase)]),
                    cube(&[(0, !rs.phase), (2, rl.phase)]),
                ];
                self.stitch
                    .gate(&[rs.signal, rh.signal, rl.signal], Body::Bits(&cubes))
            }
            FactorNode::Leaf(cubes) => self.emit_leaf(cubes),
        }
    }

    /// Emits a two-level leaf, its fanin positions in the order its
    /// variables first appear: as bit cubes when it has at most six.
    fn emit_leaf(&mut self, cubes: &[Cube]) -> Result<ResolvedRef, NetworkError> {
        if cubes.is_empty() {
            return Ok(self.stitch.constant(false));
        }
        let (mut vars, mut fanins, mut n) = ([u32::MAX; 6], [Sig::Const(false); 6], 0);
        let mut bits = std::mem::take(&mut self.stitch.bits);
        bits.clear();
        for c in cubes {
            let mut bit = BitCube { care: 0, phase: 0 };
            for &(v, p) in c.literals() {
                let pos = vars[..n].iter().position(|&w| w == v).unwrap_or(n);
                if pos == vars.len() {
                    return self.emit_wide_leaf(cubes);
                } else if pos == n {
                    vars[n] = v;
                    fanins[n] = self.var_signals[v as usize];
                    n += 1;
                }
                bit.care |= 1 << pos;
                bit.phase |= u8::from(p) << pos;
            }
            bits.push(bit);
        }
        let emitted = self.stitch.gate(&fanins[..n], Body::Bits(&bits));
        self.stitch.bits = bits;
        emitted
    }

    /// [`Emitter::emit_leaf`] for a leaf of more than six variables.
    fn emit_wide_leaf(&mut self, cubes: &[Cube]) -> Result<ResolvedRef, NetworkError> {
        let mut vars: Vec<u32> = Vec::new();
        for &(v, _) in cubes.iter().flat_map(Cube::literals) {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        let pos = |v| vars.iter().position(|&w| w == v).unwrap_or(0) as u32;
        let cover = Cover::from_cubes(cubes.to_vec()).renumbered(pos);
        let fanins: Vec<Sig> = vars.iter().map(|&v| self.var_signals[v as usize]).collect();
        self.stitch.gate(&fanins, Body::Cover(cover))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::{DecomposeParams, Decomposer};
    use bds_bdd::Manager;
    use bds_sop::Cube;

    fn inputs<'n>(stitch: &mut Stitch<'n>, names: &[&'n str]) -> Vec<Sig> {
        names
            .iter()
            .map(|&n| stitch.add_input(n).unwrap())
            .collect()
    }

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

        let mut stitch = Stitch::new("emit", "g");
        let sigs = inputs(&mut stitch, &["x0", "x1", "x2", "x3"]);
        let emitted = stitch.emit_forest(&forest, &[rf, rg], &sigs).unwrap();
        let of = stitch.alias(emitted[0], "F", true).unwrap();
        let og = stitch.alias(emitted[1], "G", true).unwrap();
        stitch.mark_output(of).unwrap();
        stitch.mark_output(og).unwrap();
        let net = stitch.finish().unwrap();

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
        let mut stitch = Stitch::new("expr", "e");
        let sigs = inputs(&mut stitch, &["x0", "x1", "x2"]);
        let r = stitch.emit_expr(&expr, &sigs).unwrap();
        let o = stitch.alias(r, "F", true).unwrap();
        stitch.mark_output(o).unwrap();
        let net = stitch.finish().unwrap();
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
        let mut stitch = Stitch::new("deg", "e");
        let sigs = inputs(&mut stitch, &["x0", "x1"]);
        let lit = stitch.emit_expr(&Expr::Lit(1, false), &sigs).unwrap();
        assert_eq!(lit.signal, sigs[1]);
        assert!(!lit.phase, "negative literal folds into the phase");
        let c = stitch.emit_expr(&Expr::Const(true), &sigs).unwrap();
        assert_eq!(c.signal, Sig::Const(true));
        let o = stitch.alias(c, "F", true).unwrap();
        stitch.mark_output(o).unwrap();
        let net = stitch.finish().unwrap();
        assert_eq!(net.node_count(), 1, "only the named constant is written");
        assert_eq!(net.eval(&[false, false]).unwrap(), vec![true]);
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

        let mut stitch = Stitch::new("share", "n");
        let sigs = inputs(&mut stitch, &["x0", "x1", "x2", "x3"]);
        let emitted = stitch.emit_forest(&forest, &[rf, rg], &sigs).unwrap();
        for (e, name) in emitted.iter().zip(["o0", "o1"]) {
            let s = stitch.alias(*e, name, true).unwrap();
            stitch.mark_output(s).unwrap();
        }
        // Nodes: shared XOR + two ANDs + two output buffers = 5.
        assert_eq!(
            stitch.finish().unwrap().node_count(),
            5,
            "the XOR must be emitted once"
        );
    }

    /// A second emission of the same function over the same signals is
    /// the first one's node, whatever its cover's form; a positive alias
    /// that is not an output is no node at all.
    #[test]
    fn duplicates_and_buffers_write_no_node() {
        let mut stitch = Stitch::new("dup", "n");
        let sigs = inputs(&mut stitch, &["a", "b"]);
        let and = Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])]);
        let first = stitch.node("f", &sigs, and.clone(), false).unwrap();
        let swapped = stitch.node("g", &[sigs[1], sigs[0]], and, false).unwrap();
        assert_eq!(first, swapped);
        let named = stitch
            .alias(
                ResolvedRef {
                    signal: first,
                    phase: true,
                },
                "h",
                false,
            )
            .unwrap();
        assert_eq!(named, first);
        // A = f' twice, and an inverter of that inverter: the output reads
        // f through a buffer.
        let inv = ResolvedRef {
            signal: first,
            phase: false,
        };
        let i1 = stitch.alias(inv, "i1", false).unwrap();
        assert_eq!(stitch.alias(inv, "i2", false).unwrap(), i1);
        let o = stitch
            .alias(
                ResolvedRef {
                    signal: i1,
                    phase: false,
                },
                "o",
                true,
            )
            .unwrap();
        stitch.mark_output(o).unwrap();
        let net = stitch.finish().unwrap();
        assert_eq!(bds_network::blif::write(&net).matches(".names").count(), 2);
        let o = net.signal_id("o").unwrap();
        assert_eq!(net.node(o).unwrap().0, &[net.signal_id("f").unwrap()]);
    }

    /// A given name may not reuse a fresh name already handed out, and
    /// `finish` rejects an input's name on a written node; a given or
    /// reserved name of the fresh form is skipped.
    #[test]
    fn names_clash_as_in_a_network() {
        let mut stitch = Stitch::new("names", "n");
        let sigs = inputs(&mut stitch, &["a", "b", "n_1"]);
        let or = Cover::from_cubes(vec![Cube::lit(0, true), Cube::lit(1, true)]);
        let g = stitch.gate(&sigs[..2], Body::Cover(or.clone())).unwrap();
        assert!(matches!(
            stitch.alias(g, "n_0", true),
            Err(NetworkError::DuplicateName { .. })
        ));
        stitch.alias(g, "n_3", true).unwrap();
        assert!(matches!(stitch.fresh(), Name::Fresh(2)));
        assert!(matches!(stitch.fresh(), Name::Fresh(4)));
        // A reserved name is skipped too, and can be given afterwards.
        stitch.reserve("n_6");
        assert!(matches!(stitch.fresh(), Name::Fresh(5)));
        assert!(matches!(stitch.fresh(), Name::Fresh(7)));
        let named = stitch.alias(g, "n_6", true).unwrap();
        stitch.mark_output(named).unwrap();
        let clash = stitch.alias(g, "a", true).unwrap();
        stitch.mark_output(clash).unwrap();
        assert!(matches!(
            stitch.finish(),
            Err(NetworkError::DuplicateName { name }) if name == "a"
        ));
    }

    /// `sweep`'s dedup table holds dead buffers, so a node whose cover is
    /// not a literal but whose function is one is merged into an earlier
    /// buffer of that signal, and then read as the signal itself; with no
    /// such buffer it is kept. The stitch must agree with `sweep` and
    /// `compacted` on both.
    #[test]
    fn functional_literals_follow_earlier_buffers() {
        // x·y + x·z + x·y'·z' is simplified, and equal to x.
        let cover = Cover::from_cubes(vec![
            Cube::parse(&[(0, true), (1, true)]),
            Cube::parse(&[(0, true), (2, true)]),
            Cube::parse(&[(0, true), (1, false), (2, false)]),
        ]);
        assert!(cover.is_simplified());
        let and = Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])]);
        for buffered in [true, false] {
            let mut net = Network::new("lit");
            let ins: Vec<SignalId> = ["x", "y", "z"]
                .iter()
                .map(|n| net.add_input(*n).unwrap())
                .collect();
            if buffered {
                let buf = Cover::from_cubes(vec![Cube::lit(0, true)]);
                net.add_node("b", vec![ins[0]], buf).unwrap();
            }
            let n = net.add_node("n", ins.clone(), cover.clone()).unwrap();
            let o = net.add_node("o", vec![n, ins[1]], and.clone()).unwrap();
            net.mark_output(o).unwrap();
            net.sweep().unwrap();
            let expected = bds_network::blif::write(&net.compacted().unwrap());

            let mut stitch = Stitch::new("lit", "bds");
            let ins = inputs(&mut stitch, &["x", "y", "z"]);
            if buffered {
                let x = ResolvedRef {
                    signal: ins[0],
                    phase: true,
                };
                stitch.alias(x, "b", false).unwrap();
            }
            let n = stitch.node("n", &ins, cover.clone(), false).unwrap();
            assert_eq!(n == ins[0], buffered);
            let o = stitch.node("o", &[n, ins[1]], and.clone(), true).unwrap();
            stitch.mark_output(o).unwrap();
            let got = bds_network::blif::write(&stitch.finish().unwrap());
            assert_eq!(got, expected, "buffered: {buffered}");
        }
    }

    /// `sweep` simplifies a cover before its fanins merge, and the order
    /// shows: x₁x₃ + x̄₂x̄₃ + x̄₂x₃ + x₃x₄ simplifies to x₁x₃ + x̄₂ + x₃x₄
    /// first, so with x₁, x₃ → a and x₂ → b it ends as a + b̄, where merging
    /// first would leave a + āb̄.
    #[test]
    fn covers_are_simplified_before_fanins_merge() {
        let cover = Cover::from_cubes(vec![
            Cube::parse(&[(1, true), (3, true)]),
            Cube::parse(&[(2, false), (3, false)]),
            Cube::parse(&[(2, false), (3, true)]),
            Cube::parse(&[(3, true), (4, true)]),
        ]);
        let of_position = [1, 1, 2, 1, 0];
        let mut net = Network::new("order");
        let ins: Vec<SignalId> = ["c", "a", "b"]
            .iter()
            .map(|n| net.add_input(*n).unwrap())
            .collect();
        let fanins = of_position.iter().map(|&i| ins[i]).collect();
        let f = net.add_node("F", fanins, cover.clone()).unwrap();
        net.mark_output(f).unwrap();
        net.sweep().unwrap();
        let expected = bds_network::blif::write(&net.compacted().unwrap());
        assert!(
            expected.contains(".names a b F\n1- 1\n-0 1\n"),
            "{expected}"
        );

        let mut stitch = Stitch::new("order", "bds");
        let ins = inputs(&mut stitch, &["c", "a", "b"]);
        let fanins: Vec<Sig> = of_position.iter().map(|&i| ins[i]).collect();
        let f = stitch.node("F", &fanins, cover, true).unwrap();
        stitch.mark_output(f).unwrap();
        let got = bds_network::blif::write(&stitch.finish().unwrap());
        assert_eq!(got, expected);
    }

    /// `sweep` resolves an inverter of an inverter an iteration after a
    /// buffer and simplifies the reader in between; the stitch applies
    /// both rewrites at once. For F = p̄₀ + p̄₁p̄₃ + p₁p̄₂ over (NOT NOT x, x,
    /// BUF y, y), `sweep` merges the buffer first, so x̄ȳ + xȳ simplifies
    /// to ȳ, and ends at x̄ + ȳ; the stitch merges x and y together, x̄ȳ
    /// falls under x̄ instead, and it ends at x̄ + xȳ. Both compute the
    /// same function and are `sweep` fixpoints: the divergence the module
    /// docs name.
    #[test]
    fn staged_rewrites_can_diverge_from_sweep() {
        let cover = Cover::from_cubes(vec![
            Cube::parse(&[(0, false)]),
            Cube::parse(&[(1, false), (3, false)]),
            Cube::parse(&[(1, true), (2, false)]),
        ]);
        let lit = |phase| Cover::from_cubes(vec![Cube::lit(0, phase)]);
        let mut net = Network::new("staged");
        let x = net.add_input("x").unwrap();
        let y = net.add_input("y").unwrap();
        let i1 = net.add_node("i1", vec![x], lit(false)).unwrap();
        let i2 = net.add_node("i2", vec![i1], lit(false)).unwrap();
        let b = net.add_node("b", vec![y], lit(true)).unwrap();
        let f = net.add_node("F", vec![i2, x, b, y], cover.clone()).unwrap();
        net.mark_output(f).unwrap();
        net.sweep().unwrap();
        let swept = net.compacted().unwrap();
        let expected = bds_network::blif::write(&swept);
        assert!(
            expected.contains(".names x y F\n0- 1\n-0 1\n"),
            "{expected}"
        );

        let mut stitch = Stitch::new("staged", "bds");
        let ins = inputs(&mut stitch, &["x", "y"]);
        let not = |signal| ResolvedRef {
            signal,
            phase: false,
        };
        let i1 = stitch.alias(not(ins[0]), "i1", false).unwrap();
        let i2 = stitch.alias(not(i1), "i2", false).unwrap();
        let b = stitch
            .alias(
                ResolvedRef {
                    signal: ins[1],
                    phase: true,
                },
                "b",
                false,
            )
            .unwrap();
        let f = stitch
            .node("F", &[i2, ins[0], b, ins[1]], cover, true)
            .unwrap();
        stitch.mark_output(f).unwrap();
        let got = stitch.finish().unwrap();
        let written = bds_network::blif::write(&got);
        assert!(written.contains(".names x y F\n0- 1\n10 1\n"), "{written}");

        assert_eq!(got.clone().sweep().unwrap(), 0);
        assert_eq!(bds_network::blif::write(&got.compacted().unwrap()), written);
        for bits in 0..4u32 {
            let assign = [bits & 1 == 1, bits & 2 == 2];
            assert_eq!(got.eval(&assign).unwrap(), swept.eval(&assign).unwrap());
        }
    }

    /// Random 2- and 3-input gates in the emitter's bit-cube form, over
    /// fanins drawn from inputs, constants, a kept buffer (a signal of
    /// the stitch's own, as a named output's driver is), an inverter and
    /// repeated signals, whether or not the cover uses every position:
    /// the key of the cubes equals the key of the
    /// cover they make, and the stitch writes what `sweep` and
    /// `compacted` make of the plain emission, with the gate read by a
    /// named AND.
    #[test]
    fn bit_gates_key_and_stitch_as_covers() {
        let mut rng = bds_prop::Rng::new(0x0057_17c4);
        let mut keys = FunctionKeys::default();
        let and = Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])]);
        let lit = |phase| Cover::from_cubes(vec![Cube::lit(0, phase)]);
        let refer = |signal, phase| ResolvedRef { signal, phase };
        let (mut swept, mut rewritten) = (0, 0);
        for case in 0..2_000 {
            let n = rng.range_usize(2..4);
            let cubes: Vec<BitCube> = (0..rng.range_usize(1..4))
                .map(|_| {
                    let care = rng.range_u32(1..1 << n) as u8;
                    let phase = rng.range_u32(0..1 << n) as u8 & care;
                    BitCube { care, phase }
                })
                .collect();
            let cover = Body::Bits(&cubes).into_cover();
            let signals: Vec<u32> = (0..n).map(|_| rng.range_u32(0..4)).collect();
            assert_eq!(
                keys.key_of_bits(&signals, &cubes),
                keys.key(signals.iter().map(|&s| s as usize), &cover),
                "{cover} over {signals:?}"
            );
            // Pool: x0, x1, x2, BUF x2, NOT x1, constant 0, constant 1.
            let pool: Vec<usize> = (0..n).map(|_| rng.range_usize(0..7)).collect();
            let mut net = Network::new("bits");
            let mut ids: Vec<SignalId> = ["x0", "x1", "x2"]
                .iter()
                .map(|n| net.add_input(*n).unwrap())
                .collect();
            ids.push(net.add_node("b", vec![ids[2]], lit(true)).unwrap());
            ids.push(net.add_node("i", vec![ids[1]], lit(false)).unwrap());
            ids.push(net.add_constant("k0", false).unwrap());
            ids.push(net.add_constant("k1", true).unwrap());
            let fanins = pool.iter().map(|&p| ids[p]).collect();
            let gate = net.add_node("bds_0", fanins, cover.clone()).unwrap();
            let g = net.add_node("G", vec![gate, ids[0]], and.clone()).unwrap();
            net.mark_output(g).unwrap();
            swept += usize::from(net.sweep().unwrap() > 0);
            let expected = bds_network::blif::write(&net.compacted().unwrap());

            let mut stitch = Stitch::new("bits", "bds");
            let mut sigs = inputs(&mut stitch, &["x0", "x1", "x2"]);
            let buf = stitch.alias(refer(sigs[2], true), "b", true).unwrap();
            let inv = stitch.alias(refer(sigs[1], false), "i", false).unwrap();
            sigs.extend([buf, inv, Sig::Const(false), Sig::Const(true)]);
            let fanins: Vec<Sig> = pool.iter().map(|&p| sigs[p]).collect();
            let mut ids = Vec::new();
            rewritten += usize::from(!stitch.needs_no_rewrite(&fanins, &cubes, &mut ids));
            let gate = stitch.gate(&fanins, Body::Bits(&cubes)).unwrap();
            let g = stitch.node("G", &[gate.signal, sigs[0]], and.clone(), true);
            stitch.mark_output(g.unwrap()).unwrap();
            let got = bds_network::blif::write(&stitch.finish().unwrap());
            assert_eq!(got, expected, "case {case}: {cover} over {pool:?}");
        }
        assert!(swept > 100 && rewritten > 100, "{swept} {rewritten}");
    }
}
