//! Constant propagation over registers and metadata slots.
//!
//! The domain tracks, per register and per metadata slot, one of:
//! a known constant (masked to the value's width), an opaque *entry
//! token* ([`Av::MetaIn`] — "still the value metadata slot `s` held
//! when the element started", [`Av::LenIn`] — "still the entry packet
//! length"), or [`Av::Top`]. The tokens cost nothing and buy two
//! things plain constprop cannot see:
//!
//! * a `MetaStore` whose stored value is the *same abstract value the
//!   slot already holds* is a no-progress store — the signature of the
//!   Click fragmenter cursor bug (`meta_store(FRAG_NEXT, next)` where
//!   `next` was loaded from `FRAG_NEXT` and never advanced);
//! * metadata loaded, round-tripped through registers, and compared
//!   against itself stays identified.
//!
//! The transfer function folds constants with the concrete
//! interpreter's operator semantics ([`crate::interp`]), the same
//! semantics `bvsolve`'s term pool folds by, and refuses to fold the
//! crash-capable ops (`UDiv`/`URem`) — the simplifier relies on this to
//! guarantee that a folded instruction produces the identical term the
//! executor would have interned.

use super::{forward_fixpoint, Forward, Lattice};
use crate::instr::{BinOp, CastKind, Instr, Operand};
use crate::interp::{self, eval_cast, eval_un, mask};
use crate::program::Program;
use crate::types::META_SLOTS;
use crate::Terminator;

/// An abstract value: constant, opaque entry token, or unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Av {
    /// A compile-time constant (masked to the holder's width).
    Const(u64),
    /// The unmodified element-entry value of metadata slot `s`.
    MetaIn(u8),
    /// The element-entry packet length (invalidated by push/pull).
    LenIn,
    /// Unknown.
    Top,
}

impl Av {
    fn join(self, other: Av) -> Av {
        if self == other {
            self
        } else {
            Av::Top
        }
    }

    /// The constant, if this value is one.
    pub fn as_const(self) -> Option<u64> {
        match self {
            Av::Const(c) => Some(c),
            _ => None,
        }
    }
}

/// Per-block-entry abstract state.
#[derive(Debug, Clone, PartialEq)]
pub struct CpState {
    /// One abstract value per register.
    pub regs: Vec<Av>,
    /// One abstract value per metadata slot.
    pub meta: Vec<Av>,
    /// The current packet length.
    pub len: Av,
}

impl Lattice for CpState {
    fn join_from(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (a, &b) in self.regs.iter_mut().zip(&other.regs) {
            let j = a.join(b);
            changed |= j != *a;
            *a = j;
        }
        for (a, &b) in self.meta.iter_mut().zip(&other.meta) {
            let j = a.join(b);
            changed |= j != *a;
            *a = j;
        }
        let j = self.len.join(other.len);
        changed |= j != self.len;
        self.len = j;
        changed
    }
}

/// Evaluates a binary op on constants by the interpreter's semantics
/// ([`crate::interp`]). Returns `None` for the crash-capable ops
/// (`UDiv`/`URem`): the executor forks a crash branch for those, so
/// they must never be folded away.
pub fn eval_bin(op: BinOp, w: u32, x: u64, y: u64) -> Option<u64> {
    (!op.can_crash()).then(|| interp::eval_bin(op, w, mask(w, x), mask(w, y)))
}

/// A found no-progress metadata store (`DPV005` raw material).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedundantStore {
    /// Block index.
    pub block: usize,
    /// Instruction index within the block.
    pub instr: usize,
    /// The metadata slot stored to.
    pub slot: u8,
}

/// A binary op whose constant divisor is zero (`DPV007` raw material).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertainDivByZero {
    /// Block index.
    pub block: usize,
    /// Instruction index within the block.
    pub instr: usize,
}

/// Stabilized constant-propagation results.
pub struct ConstResult {
    /// Per-block entry state; `None` for blocks unreachable under
    /// constant-decided branches.
    pub entry: Vec<Option<CpState>>,
    /// Per-block branch decision: `Some(true)`/`Some(false)` when the
    /// block's `Branch` condition is the given constant on every path
    /// reaching it; `None` for undecided branches and non-branch
    /// terminators.
    pub decided: Vec<Option<bool>>,
    /// `MetaStore`s that store the value the slot provably already
    /// holds.
    pub redundant_stores: Vec<RedundantStore>,
    /// Divisions whose divisor is the constant zero.
    pub certain_div_by_zero: Vec<CertainDivByZero>,
}

/// The constant-propagation analysis (see the module docs).
pub struct ConstProp {
    /// In pool-exact mode the reflexive (token-equality) folds apply
    /// only to *syntactically identical* operands — the cases where
    /// the executor's two operand terms are guaranteed to be the same
    /// interned `TermId`, so the term pool's `a == b` identity rules
    /// fire on exactly the same sites. Two distinct registers holding
    /// the same entry token can reach that token through different
    /// zero-extension chains and end up as distinct (unfolded) terms,
    /// which is why the simplifier must not act on full-mode folds.
    pool_exact: bool,
}

impl ConstProp {
    /// Runs the analysis to fixpoint and post-processes branch
    /// decisions and lint raw material. Full precision: entry-token
    /// equality folds across registers (good for lints, not a license
    /// to transform).
    pub fn run(prog: &Program) -> ConstResult {
        Self::run_with(prog, false)
    }

    /// Like [`ConstProp::run`] but every `Const` in the result (and
    /// every branch decision) corresponds to a term the executor's
    /// pool provably folds to that constant. This is the variant the
    /// verdict-preserving simplifier is allowed to act on.
    pub fn run_pool_exact(prog: &Program) -> ConstResult {
        Self::run_with(prog, true)
    }

    fn run_with(prog: &Program, pool_exact: bool) -> ConstResult {
        let mut cp = ConstProp { pool_exact };
        // The domain has finite height (Const/token → Top), so the
        // plain join converges; the widening threshold is irrelevant.
        let entry = forward_fixpoint(prog, &mut cp, usize::MAX);
        let mut decided = vec![None; prog.blocks.len()];
        let mut redundant_stores = Vec::new();
        let mut certain_div_by_zero = Vec::new();
        for (b, st) in entry.iter().enumerate() {
            let Some(st) = st else { continue };
            let mut s = st.clone();
            for (i, ins) in prog.blocks[b].instrs.iter().enumerate() {
                if let Instr::MetaStore { slot, val } = *ins {
                    let v = operand_av(&s, val);
                    if v != Av::Top && v == s.meta[slot as usize] {
                        redundant_stores.push(RedundantStore {
                            block: b,
                            instr: i,
                            slot,
                        });
                    }
                }
                if let Instr::Bin { op, w, b: rhs, .. } = *ins {
                    if op.can_crash() && operand_av_w(&s, rhs, w).as_const() == Some(0) {
                        certain_div_by_zero.push(CertainDivByZero { block: b, instr: i });
                    }
                }
                transfer_instr(&mut s, ins, pool_exact);
            }
            if let Terminator::Branch { cond, .. } = prog.blocks[b].term {
                if let Some(c) = operand_av_w(&s, cond, 1).as_const() {
                    decided[b] = Some(c != 0);
                }
            }
        }
        ConstResult {
            entry,
            decided,
            redundant_stores,
            certain_div_by_zero,
        }
    }
}

pub(crate) fn operand_av(st: &CpState, o: Operand) -> Av {
    match o {
        Operand::Reg(r) => st.regs[r.index()],
        Operand::Imm(v) => Av::Const(v),
    }
}

/// Like [`operand_av`] but masks immediates to the use width, matching
/// the executor's `mk_const(w, v)`.
pub(crate) fn operand_av_w(st: &CpState, o: Operand, w: u32) -> Av {
    match o {
        Operand::Reg(r) => st.regs[r.index()],
        Operand::Imm(v) => Av::Const(mask(w, v)),
    }
}

/// Transfers one instruction. Conservative: anything data-dependent
/// (packet bytes, map results) becomes [`Av::Top`].
pub(crate) fn transfer_instr(st: &mut CpState, ins: &Instr, pool_exact: bool) {
    match *ins {
        Instr::Bin { op, w, dst, a, b } => {
            let x = operand_av_w(st, a, w);
            let y = operand_av_w(st, b, w);
            // Syntactically identical operands evaluate to the same
            // interned term, so the pool's `a == b` identity rules
            // decide the equality-shaped ops even for `Top` values.
            // In full mode, equal non-Top abstract values (the same
            // entry token) are also reflexively decidable — sound
            // semantically, but the two terms may differ, so the
            // pool-exact mode excludes that case.
            let same_term = a == b;
            st.regs[dst.index()] = match (x, y) {
                (Av::Const(x), Av::Const(y)) => match eval_bin(op, w, x, y) {
                    Some(v) => Av::Const(v),
                    None => Av::Top,
                },
                (xa, ya) if same_term || (!pool_exact && xa == ya && xa != Av::Top) => match op {
                    BinOp::Eq | BinOp::Ule | BinOp::Sle => Av::Const(1),
                    BinOp::Ne | BinOp::Ult | BinOp::Slt => Av::Const(0),
                    BinOp::Sub | BinOp::Xor => Av::Const(0),
                    _ => Av::Top,
                },
                _ => Av::Top,
            };
        }
        Instr::Un { op, w, dst, a } => {
            st.regs[dst.index()] = match operand_av_w(st, a, w) {
                Av::Const(x) => Av::Const(eval_un(op, w, x)),
                _ => Av::Top,
            };
        }
        Instr::Cast {
            kind,
            from,
            to,
            dst,
            a,
        } => {
            st.regs[dst.index()] = match operand_av_w(st, a, from) {
                Av::Const(x) => Av::Const(eval_cast(kind, from, to, x)),
                // Zext preserves the value, so entry tokens survive it.
                v @ (Av::MetaIn(_) | Av::LenIn) if kind == CastKind::Zext => v,
                _ => Av::Top,
            };
        }
        Instr::Mov { w, dst, a } => {
            st.regs[dst.index()] = operand_av_w(st, a, w);
        }
        Instr::PktLoad { dst, .. } => st.regs[dst.index()] = Av::Top,
        Instr::PktStore { .. } => {}
        Instr::PktLen { dst } => st.regs[dst.index()] = st.len,
        Instr::PktPush { .. } | Instr::PktPull { .. } => st.len = Av::Top,
        Instr::MetaLoad { slot, dst } => st.regs[dst.index()] = st.meta[slot as usize],
        Instr::MetaStore { slot, val } => {
            st.meta[slot as usize] = operand_av_w(st, val, crate::META_WIDTH)
        }
        Instr::MapRead { found, val, .. } => {
            st.regs[found.index()] = Av::Top;
            st.regs[val.index()] = Av::Top;
        }
        Instr::MapWrite { ok, .. } => st.regs[ok.index()] = Av::Top,
        Instr::MapTest { found, .. } => st.regs[found.index()] = Av::Top,
        Instr::MapExpire { .. } => {}
        Instr::Assert { .. } => {}
    }
}

impl Forward for ConstProp {
    type State = CpState;

    fn entry(&self, prog: &Program) -> CpState {
        CpState {
            // The executor initializes every register to a zero
            // constant of its width.
            regs: vec![Av::Const(0); prog.reg_widths.len()],
            meta: (0..META_SLOTS).map(|s| Av::MetaIn(s as u8)).collect(),
            len: Av::LenIn,
        }
    }

    fn flow(&mut self, prog: &Program, block: usize, mut state: CpState) -> Vec<(usize, CpState)> {
        for ins in &prog.blocks[block].instrs {
            transfer_instr(&mut state, ins, self.pool_exact);
        }
        match prog.blocks[block].term {
            Terminator::Jump(t) => vec![(t.index(), state)],
            Terminator::Branch { cond, then_, else_ } => {
                match operand_av_w(&state, cond, 1).as_const() {
                    Some(0) => vec![(else_.index(), state)],
                    Some(_) => vec![(then_.index(), state)],
                    None => vec![(then_.index(), state.clone()), (else_.index(), state)],
                }
            }
            Terminator::Emit(_) | Terminator::Drop | Terminator::Crash(_) => Vec::new(),
        }
    }
}
