//! Static analysis over DPIR programs.
//!
//! A small abstract-interpretation toolkit: a reusable forward /
//! backward **worklist fixpoint engine** over [`Program`] CFGs
//! ([`forward_fixpoint`], [`backward_fixpoint`], driven by the
//! [`Lattice`] trait), instantiated by four analyses:
//!
//! * [`constprop`] — constant propagation over registers *and*
//!   metadata slots (with symbolic entry-value tokens, so "stores the
//!   value the slot already holds" is detectable);
//! * [`intervals`] — unsigned value intervals with widening,
//!   branch-edge narrowing, and a tracked packet-length cell;
//! * [`reach`] — block reachability under constant-decided branches;
//! * [`effects`] — map/packet access effects: which maps are read or
//!   written, which packet accesses may (or must) be out of bounds,
//!   and which metadata writes are dead.
//!
//! On top of the analyses sit two consumers:
//!
//! * [`lint`] — a diagnostics pass ([`Diagnostic`], severity + span +
//!   stable `DPVxxx` code) surfacing unreachable blocks, provable
//!   out-of-bounds accesses, dead and redundant writes, reads of
//!   never-written maps, always-taken branches, and certain division
//!   by zero;
//! * [`simplify()`] — a **verdict-preserving** pre-symbolic-execution
//!   simplifier: folds constant instructions, rewrites
//!   constant-decided branches to jumps and deletes unreachable
//!   blocks.
//!
//! The simplifier's transformations are chosen so the symbolic
//! executor produces the **same segments** (same constraints, same
//! outcomes, same path count under exact fork checking) for the
//! simplified program as for the original — see [`simplify()`] for the
//! argument. Nothing here feeds the verifier's symbolic execution:
//! the verifier reads only the lint diagnostics, and step 1 executes
//! the raw programs.

use crate::program::Program;
use crate::Terminator;

pub mod constprop;
pub mod effects;
pub mod intervals;
pub mod lint;
pub mod reach;
pub mod simplify;

pub use constprop::{ConstProp, ConstResult};
pub use effects::{Effects, MapUse};
pub use intervals::{Intervals, Itv, IvEnv, IvResult, SiteSafety};
pub use lint::{lint_program, Diagnostic, Severity};
pub use reach::reachable_blocks;
pub use simplify::{simplify, SimplifyStats};

/// A join-semilattice of abstract states, as consumed by the fixpoint
/// engines.
///
/// `join_from` computes `self ⊔= other` and reports whether `self`
/// changed; `widen_from` is the accelerated join applied once a block
/// has been revisited more than the engine's `widen_after` bound —
/// implementations must guarantee that a chain of `widen_from`
/// applications stabilizes in finitely many steps (the interval
/// domain jumps straight to full range; finite domains can keep the
/// default, which is plain join).
pub trait Lattice: Clone {
    /// `self ⊔= other`; returns true iff `self` changed.
    fn join_from(&mut self, other: &Self) -> bool;

    /// Widening: like [`Lattice::join_from`] but must converge on
    /// infinite-ascending-chain domains.
    fn widen_from(&mut self, other: &Self) -> bool {
        self.join_from(other)
    }
}

/// Successor block indices of `prog.blocks[b]` (loops and diamonds
/// may repeat an index; callers that care deduplicate).
pub fn successors(prog: &Program, b: usize) -> Vec<usize> {
    match prog.blocks[b].term {
        Terminator::Jump(t) => vec![t.index()],
        Terminator::Branch { then_, else_, .. } => vec![then_.index(), else_.index()],
        Terminator::Emit(_) | Terminator::Drop | Terminator::Crash(_) => Vec::new(),
    }
}

/// Predecessor lists for every block (by index).
pub fn predecessors(prog: &Program) -> Vec<Vec<usize>> {
    let mut preds = vec![Vec::new(); prog.blocks.len()];
    for b in 0..prog.blocks.len() {
        for s in successors(prog, b) {
            if !preds[s].contains(&b) {
                preds[s].push(b);
            }
        }
    }
    preds
}

/// A forward dataflow problem with **edge-specific** transfer: `flow`
/// maps a block-entry state to one out-state per successor edge, which
/// is what lets branch-aware analyses narrow on the taken edge and
/// constant-decided branches drop the dead edge entirely.
pub trait Forward {
    /// The abstract state attached to block entries.
    type State: Lattice;

    /// The state at the entry of block 0.
    fn entry(&self, prog: &Program) -> Self::State;

    /// Transfers `state` through `prog.blocks[block]`, returning the
    /// out-state propagated along each live successor edge. Omitting a
    /// CFG successor declares its edge dead under this analysis.
    fn flow(
        &mut self,
        prog: &Program,
        block: usize,
        state: Self::State,
    ) -> Vec<(usize, Self::State)>;
}

/// Runs `f` to a fixpoint over `prog`'s CFG with a LIFO worklist.
///
/// Returns the stabilized entry state of every block; `None` marks
/// blocks never reached (structurally, or because every branch into
/// them was analysis-decided dead). Each block's joins switch to
/// [`Lattice::widen_from`] after `widen_after` revisits, bounding
/// fixpoint iteration on domains with unbounded chains.
pub fn forward_fixpoint<F: Forward>(
    prog: &Program,
    f: &mut F,
    widen_after: usize,
) -> Vec<Option<F::State>> {
    let n = prog.blocks.len();
    let mut states: Vec<Option<F::State>> = vec![None; n];
    let mut visits = vec![0usize; n];
    states[0] = Some(f.entry(prog));
    let mut work = vec![0usize];
    while let Some(b) = work.pop() {
        let in_state = states[b].clone().expect("worklist holds reached blocks");
        for (succ, out) in f.flow(prog, b, in_state) {
            debug_assert!(succ < n, "flow returned an out-of-range successor");
            let changed = match &mut states[succ] {
                None => {
                    states[succ] = Some(out);
                    true
                }
                Some(cur) => {
                    visits[succ] += 1;
                    if visits[succ] > widen_after {
                        cur.widen_from(&out)
                    } else {
                        cur.join_from(&out)
                    }
                }
            };
            if changed && !work.contains(&succ) {
                work.push(succ);
            }
        }
    }
    states
}

/// A backward dataflow problem (uniform transfer; used for liveness).
pub trait Backward {
    /// The abstract state attached to block exits.
    type State: Lattice;

    /// The terminator's own contribution to `block`'s exit state: the
    /// boundary state for program-leaving terminators (`Emit` /
    /// `Drop` / `Crash`), and the lattice's bottom for blocks that
    /// continue to successors (whose exit state is then the join of
    /// the successors' entry states).
    fn exit(&self, prog: &Program, block: usize) -> Self::State;

    /// Transfers the block-exit state backward through the block
    /// (terminator first, then instructions in reverse), returning the
    /// block-entry state.
    fn flow_back(&mut self, prog: &Program, block: usize, out: Self::State) -> Self::State;
}

/// Runs `bwd` to a fixpoint, returning each block's stabilized **exit**
/// state (the join over its successors' entry states, or
/// [`Backward::exit`] for program-leaving blocks).
pub fn backward_fixpoint<B: Backward>(prog: &Program, bwd: &mut B) -> Vec<B::State> {
    let n = prog.blocks.len();
    let preds = predecessors(prog);
    let mut outs: Vec<B::State> = (0..n).map(|b| bwd.exit(prog, b)).collect();
    let mut ins: Vec<Option<B::State>> = vec![None; n];
    let mut work: Vec<usize> = (0..n).collect();
    while let Some(b) = work.pop() {
        // Exit state: terminator contribution joined with successors.
        let mut out = bwd.exit(prog, b);
        for s in successors(prog, b) {
            if let Some(si) = &ins[s] {
                out.join_from(si);
            }
        }
        outs[b] = out.clone();
        let new_in = bwd.flow_back(prog, b, out);
        let changed = match &mut ins[b] {
            None => {
                ins[b] = Some(new_in);
                true
            }
            Some(cur) => cur.join_from(&new_in),
        };
        if changed {
            for &p in &preds[b] {
                if !work.contains(&p) {
                    work.push(p);
                }
            }
        }
    }
    outs
}
