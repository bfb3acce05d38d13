//! Unsigned value intervals with widening and branch-edge narrowing.
//!
//! Tracks a `[lo, hi]` interval (inclusive, unsigned, masked to the
//! register's width) per register, plus one distinguished cell for the
//! **current packet length** — the quantity every bounds check in the
//! symbolic executor compares against. Registers produced by `PktLen`
//! are tagged as *length aliases* so that a guard like
//!
//! ```text
//! len   = pkt_len()
//! short = ult(len, 34)
//! branch short → drop | continue
//! ```
//!
//! narrows the length cell to `[34, max]` on the continue edge. The
//! post-pass ([`IvResult::site_safety`]) then classifies every
//! `PktLoad`/`PktStore`: an access at `off` of `k` bytes is **proven
//! in bounds** when `off.hi + k ≤ len.lo`, and **provably out of
//! bounds** when `off.lo + k > len.hi`. Provable OOB becomes a
//! `DPV002` lint; the symbolic executor reads none of it.
//!
//! Soundness note: intervals quantify over *feasible concrete
//! executions*. The entry length range comes from the caller
//! ([`IvEnv`], typically `SymConfig`'s `[min_pkt_len,
//! max_pkt_bytes]`), matching the base constraints the executor puts
//! on every path — so everything proven here is implied by each
//! path's constraint set.

use super::{forward_fixpoint, Forward, Lattice};
use crate::instr::{BinOp, CastKind, Instr, Operand, UnOp};
use crate::program::Program;
use crate::Terminator;

use crate::interp::{eval_un, mask};

/// An inclusive unsigned interval `[lo, hi]` over a `w`-bit value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Itv {
    /// Smallest possible value.
    pub lo: u64,
    /// Largest possible value.
    pub hi: u64,
}

impl Itv {
    /// The single-point interval `[v, v]`.
    pub fn point(v: u64) -> Itv {
        Itv { lo: v, hi: v }
    }

    /// The full range of a `w`-bit value.
    pub fn full(w: u32) -> Itv {
        Itv {
            lo: 0,
            hi: mask(w, u64::MAX),
        }
    }

    /// Interval hull (join).
    pub fn hull(self, other: Itv) -> Itv {
        Itv {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Whether the interval is a single value.
    pub fn as_const(self) -> Option<u64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    fn meet(self, other: Itv) -> Itv {
        // Empty meets (lo > hi) mark infeasible refinements; callers
        // keep them as-is — successors of an infeasible edge simply
        // inherit an empty range, which stays sound (it only ever
        // *shrinks* claims).
        Itv {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }
}

/// Environment for the interval analysis: the entry packet-length
/// bounds the executor will also constrain (from `SymConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvEnv {
    /// Minimum entry packet length (`SymConfig::min_pkt_len`).
    pub len_lo: u64,
    /// Maximum packet length / window size (`SymConfig::max_pkt_bytes`).
    pub len_hi: u64,
}

/// A recorded comparison defining a 1-bit register, used to narrow on
/// branch edges. Only comparisons between one register and one
/// constant are recorded, and only while both the condition register
/// and the compared register remain unredefined within the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cmp {
    op: BinOp,
    /// The compared (non-constant) register.
    reg: u32,
    /// The constant side.
    c: u64,
    /// True when the register is the left operand (`reg OP c`).
    reg_is_lhs: bool,
    /// Width of the comparison.
    w: u32,
}

/// Per-block-entry interval state.
#[derive(Debug, Clone, PartialEq)]
pub struct IvState {
    /// One interval per register.
    pub regs: Vec<Itv>,
    /// The current packet length.
    pub len: Itv,
    /// Which registers currently hold exactly the current length.
    len_alias: Vec<bool>,
}

impl Lattice for IvState {
    fn join_from(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (a, &b) in self.regs.iter_mut().zip(&other.regs) {
            let j = a.hull(b);
            changed |= j != *a;
            *a = j;
        }
        let j = self.len.hull(other.len);
        changed |= j != self.len;
        self.len = j;
        for (a, &b) in self.len_alias.iter_mut().zip(&other.len_alias) {
            let j = *a && b;
            changed |= j != *a;
            *a = j;
        }
        changed
    }

    fn widen_from(&mut self, other: &Self) -> bool {
        // Jump any still-growing interval straight to the largest
        // range seen so far unioned with "everything below/above":
        // classic threshold-free widening to the domain top, which
        // converges in one extra visit per cell.
        let mut changed = false;
        for (a, &b) in self.regs.iter_mut().zip(&other.regs) {
            if b.lo < a.lo {
                a.lo = 0;
                changed = true;
            }
            if b.hi > a.hi {
                a.hi = u64::MAX;
                changed = true;
            }
        }
        if other.len.lo < self.len.lo {
            self.len.lo = 0;
            changed = true;
        }
        if other.len.hi > self.len.hi {
            self.len.hi = u64::MAX;
            changed = true;
        }
        for (a, &b) in self.len_alias.iter_mut().zip(&other.len_alias) {
            if *a && !b {
                *a = false;
                changed = true;
            }
        }
        changed
    }
}

/// Classification of one packet access site by the post-pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteSafety {
    /// Block index.
    pub block: usize,
    /// Instruction index within the block.
    pub instr: usize,
    /// Access width in bytes.
    pub bytes: usize,
    /// Whether the site is a store.
    pub is_store: bool,
    /// `off.hi + k ≤ len.lo`: the in-bounds check can never fail.
    pub proven_safe: bool,
    /// `off.lo + k > len.hi`: the in-bounds check can never succeed.
    pub proven_oob: bool,
}

/// Stabilized interval-analysis results.
pub struct IvResult {
    /// Per-block entry state (`None` = unreachable).
    pub entry: Vec<Option<IvState>>,
    /// The environment the analysis ran under.
    pub env: IvEnv,
}

/// The interval analysis (see the module docs).
pub struct Intervals {
    env: IvEnv,
}

/// Revisits before a block's joins switch to widening. Small: real
/// element CFGs converge in one or two visits per block, and loops
/// must not iterate proportionally to data ranges.
const WIDEN_AFTER: usize = 3;

impl Intervals {
    /// Runs the analysis to fixpoint under `env`.
    pub fn run(prog: &Program, env: IvEnv) -> IvResult {
        let mut iv = Intervals { env };
        let entry = forward_fixpoint(prog, &mut iv, WIDEN_AFTER);
        IvResult { entry, env }
    }
}

impl IvResult {
    /// Classifies every reachable `PktLoad`/`PktStore` site.
    pub fn site_safety(&self, prog: &Program) -> Vec<SiteSafety> {
        let mut sites = Vec::new();
        for (b, st) in self.entry.iter().enumerate() {
            let Some(st) = st else { continue };
            let mut tr = Transfer::new(self.env, st.clone());
            for (i, ins) in prog.blocks[b].instrs.iter().enumerate() {
                let access = match *ins {
                    Instr::PktLoad { w, off, .. } => Some((w, off, false)),
                    Instr::PktStore { w, off, .. } => Some((w, off, true)),
                    _ => None,
                };
                if let Some((w, off, is_store)) = access {
                    let k = (w / 8) as u64;
                    let off_iv = tr.operand(off, 16);
                    // Offsets are 16-bit and k ≤ 4: `+ k` cannot wrap
                    // at u64, matching the executor's 32-bit-widened
                    // `zext(off) + k ≤ zext(len)` check.
                    let end_hi = off_iv.hi.saturating_add(k);
                    let end_lo = off_iv.lo.saturating_add(k);
                    sites.push(SiteSafety {
                        block: b,
                        instr: i,
                        bytes: k as usize,
                        is_store,
                        proven_safe: end_hi <= tr.st.len.lo,
                        proven_oob: end_lo > tr.st.len.hi,
                    });
                }
                tr.instr(ins);
            }
        }
        sites
    }
}

/// Block-local transfer machinery: the joined state plus the
/// comparison bookkeeping that only lives within one block.
struct Transfer {
    st: IvState,
    env: IvEnv,
    /// Per-register recorded comparison (1-bit condition registers).
    cmps: Vec<Option<Cmp>>,
}

impl Transfer {
    fn new(env: IvEnv, st: IvState) -> Transfer {
        let n = st.regs.len();
        Transfer {
            st,
            env,
            cmps: vec![None; n],
        }
    }

    fn operand(&self, o: Operand, w: u32) -> Itv {
        match o {
            Operand::Reg(r) => self.st.regs[r.index()],
            Operand::Imm(v) => Itv::point(mask(w, v)),
        }
    }

    /// Invalidate bookkeeping that mentions a redefined register.
    fn kill(&mut self, dst: u32) {
        self.st.len_alias[dst as usize] = false;
        self.cmps[dst as usize] = None;
        for c in self.cmps.iter_mut() {
            if c.map(|c| c.reg == dst) == Some(true) {
                *c = None;
            }
        }
    }

    fn set(&mut self, dst: crate::Reg, iv: Itv, w: u32) {
        self.kill(dst.0);
        self.st.regs[dst.index()] = Itv {
            lo: iv.lo.min(mask(w, u64::MAX)),
            hi: iv.hi.min(mask(w, u64::MAX)),
        };
    }

    fn instr(&mut self, ins: &Instr) {
        match *ins {
            Instr::Bin { op, w, dst, a, b } => {
                let x = self.operand(a, w);
                let y = self.operand(b, w);
                let iv = itv_bin(op, w, x, y);
                // Record reg-vs-const comparisons for branch narrowing.
                let cmp = if op.is_comparison() {
                    match (a, b) {
                        (Operand::Reg(r), other) => self.const_of(other, w).map(|c| Cmp {
                            op,
                            reg: r.0,
                            c,
                            reg_is_lhs: true,
                            w,
                        }),
                        (other, Operand::Reg(r)) => self.const_of(other, w).map(|c| Cmp {
                            op,
                            reg: r.0,
                            c,
                            reg_is_lhs: false,
                            w,
                        }),
                        (Operand::Imm(_), Operand::Imm(_)) => None,
                    }
                } else {
                    None
                };
                self.set(dst, iv, w);
                self.cmps[dst.index()] = cmp.filter(|c| c.reg != dst.0);
            }
            Instr::Un { op, w, dst, a } => {
                let x = self.operand(a, w);
                let iv = match (op, x.as_const()) {
                    (_, Some(v)) => Itv::point(eval_un(op, w, v)),
                    // Not flips the range order: [!hi, !lo] masked.
                    (UnOp::Not, None) => Itv {
                        lo: mask(w, !x.hi),
                        hi: mask(w, !x.lo),
                    },
                    (UnOp::Neg, None) => Itv::full(w),
                };
                self.set(dst, iv, w);
            }
            Instr::Cast {
                kind,
                from,
                to,
                dst,
                a,
            } => {
                let x = self.operand(a, from);
                let iv = match kind {
                    CastKind::Zext => x,
                    CastKind::Trunc => {
                        if x.hi <= mask(to, u64::MAX) {
                            x
                        } else {
                            Itv::full(to)
                        }
                    }
                    CastKind::Sext => {
                        // Precise only when the source range stays in
                        // the non-negative half.
                        if from == 0 || x.hi < (1u64 << (from - 1)) {
                            x
                        } else {
                            Itv::full(to)
                        }
                    }
                };
                let alias = matches!(kind, CastKind::Zext)
                    && matches!(a, Operand::Reg(r) if self.st.len_alias[r.index()]);
                self.set(dst, iv, to);
                // Zext preserves the value: length aliases survive.
                self.st.len_alias[dst.index()] = alias;
            }
            Instr::Mov { w, dst, a } => {
                let iv = self.operand(a, w);
                let alias = matches!(a, Operand::Reg(r) if self.st.len_alias[r.index()]);
                self.set(dst, iv, w);
                self.st.len_alias[dst.index()] = alias;
            }
            Instr::PktLoad { w, dst, .. } => self.set(dst, Itv::full(w), w),
            Instr::PktStore { .. } => {}
            Instr::PktLen { dst } => {
                let len = self.st.len;
                self.set(dst, len, 16);
                self.st.len_alias[dst.index()] = true;
            }
            Instr::PktPush { n } => {
                let k = match n {
                    Operand::Imm(v) => mask(16, v),
                    Operand::Reg(r) => match self.st.regs[r.index()].as_const() {
                        Some(v) => v,
                        None => {
                            self.len_changed(Itv {
                                lo: 0,
                                hi: self.env.len_hi,
                            });
                            return;
                        }
                    },
                };
                // The surviving path satisfies len + k ≤ max.
                let lo = self.st.len.lo.saturating_add(k).min(self.env.len_hi);
                let hi = self.st.len.hi.saturating_add(k).min(self.env.len_hi);
                self.len_changed(Itv { lo, hi });
            }
            Instr::PktPull { n } => {
                let k = match n {
                    Operand::Imm(v) => mask(16, v),
                    Operand::Reg(r) => match self.st.regs[r.index()].as_const() {
                        Some(v) => v,
                        None => {
                            self.len_changed(Itv {
                                lo: 0,
                                hi: self.env.len_hi,
                            });
                            return;
                        }
                    },
                };
                // The surviving path satisfies k ≤ len.
                let lo = self.st.len.lo.max(k) - k;
                let hi = self.st.len.hi.saturating_sub(k);
                self.len_changed(Itv { lo, hi });
            }
            Instr::MetaLoad { dst, .. } => self.set(dst, Itv::full(crate::META_WIDTH), 32),
            Instr::MetaStore { .. } => {}
            Instr::MapRead { found, val, .. } => {
                self.set(found, Itv::full(1), 1);
                // Value width is declared per map; full range of the
                // destination register's width is a safe cover.
                let w = 64;
                self.set(val, Itv::full(w), w);
            }
            Instr::MapWrite { ok, .. } => self.set(ok, Itv::full(1), 1),
            Instr::MapTest { found, .. } => self.set(found, Itv::full(1), 1),
            Instr::MapExpire { .. } => {}
            Instr::Assert { .. } => {}
        }
    }

    fn const_of(&self, o: Operand, w: u32) -> Option<u64> {
        match o {
            Operand::Imm(v) => Some(mask(w, v)),
            Operand::Reg(r) => self.st.regs[r.index()].as_const(),
        }
    }

    /// The packet length was mutated: stale aliases die.
    fn len_changed(&mut self, new: Itv) {
        self.st.len = new;
        for a in self.st.len_alias.iter_mut() {
            *a = false;
        }
        // Comparisons against stale length aliases still refine those
        // registers (their values are unchanged), so they stay.
    }

    /// Narrows `self.st` along a branch edge where `cond` (a register
    /// with a recorded comparison) is `taken`.
    fn refine(&mut self, cond: Operand, taken: bool) {
        let Operand::Reg(r) = cond else { return };
        let Some(cmp) = self.cmps[r.index()] else {
            return;
        };
        let reg = cmp.reg as usize;
        let cur = self.st.regs[reg];
        let Some(refined) = refine_interval(cmp, cur, taken) else {
            return;
        };
        let narrowed = cur.meet(refined);
        self.st.regs[reg] = narrowed;
        if self.st.len_alias[reg] {
            self.st.len = self.st.len.meet(narrowed);
        }
    }
}

/// The refined range of `cmp.reg` given that `reg OP c` (or
/// `c OP reg`) evaluated to `taken`. Unsigned comparisons only; the
/// signed forms are left unrefined (sound: no narrowing).
fn refine_interval(cmp: Cmp, _cur: Itv, taken: bool) -> Option<Itv> {
    let full_hi = mask(cmp.w, u64::MAX);
    let c = cmp.c;
    // Normalize to `reg OP c`, flipping the operator when the register
    // is on the right.
    let (op, flipped) = (cmp.op, !cmp.reg_is_lhs);
    let itv = |lo: u64, hi: u64| Some(Itv { lo, hi });
    match (op, flipped, taken) {
        (BinOp::Eq, _, true) => itv(c, c),
        (BinOp::Eq, _, false) | (BinOp::Ne, _, true) => None,
        (BinOp::Ne, _, false) => itv(c, c),
        // reg < c
        (BinOp::Ult, false, true) => itv(0, c.checked_sub(1)?),
        (BinOp::Ult, false, false) => itv(c, full_hi),
        // c < reg
        (BinOp::Ult, true, true) => itv(c.checked_add(1)?, full_hi),
        (BinOp::Ult, true, false) => itv(0, c),
        // reg ≤ c
        (BinOp::Ule, false, true) => itv(0, c),
        (BinOp::Ule, false, false) => itv(c.checked_add(1)?, full_hi),
        // c ≤ reg
        (BinOp::Ule, true, true) => itv(c, full_hi),
        (BinOp::Ule, true, false) => itv(0, c.checked_sub(1)?),
        _ => None,
    }
}

/// Interval arithmetic for one binary op, masked to `w` bits.
/// Conservative: any case that could wrap or is not worth modeling
/// returns the full range.
pub(crate) fn itv_bin(op: BinOp, w: u32, x: Itv, y: Itv) -> Itv {
    let top = Itv::full(w);
    let fits = |v: u64| v <= top.hi;
    match op {
        BinOp::Add => {
            let lo = x.lo.checked_add(y.lo);
            let hi = x.hi.checked_add(y.hi);
            match (lo, hi) {
                (Some(lo), Some(hi)) if fits(hi) => Itv { lo, hi },
                _ => top,
            }
        }
        BinOp::Sub => {
            if x.lo >= y.hi {
                Itv {
                    lo: x.lo - y.hi,
                    hi: x.hi - y.lo,
                }
            } else {
                top
            }
        }
        BinOp::Mul => {
            let hi = x.hi.checked_mul(y.hi);
            match hi {
                Some(hi) if fits(hi) => Itv {
                    lo: x.lo.saturating_mul(y.lo),
                    hi,
                },
                _ => top,
            }
        }
        // The executor forks a crash branch on these; on the surviving
        // path the divisor is nonzero.
        BinOp::UDiv => Itv {
            lo: 0,
            hi: x.hi.min(top.hi),
        },
        BinOp::URem => Itv {
            lo: 0,
            hi: x.hi.min(y.hi.saturating_sub(1)).min(top.hi),
        },
        BinOp::And => {
            match (x.as_const(), y.as_const()) {
                (Some(a), Some(b)) => Itv::point(a & b),
                // x & m ≤ min(x.hi, m.hi).
                _ => Itv {
                    lo: 0,
                    hi: x.hi.min(y.hi),
                },
            }
        }
        BinOp::Or => match (x.as_const(), y.as_const()) {
            (Some(a), Some(b)) => Itv::point(a | b),
            _ => {
                // or(x, y) < 2^bits(max(hi)).
                let m = x.hi.max(y.hi);
                let hi = if m == 0 {
                    0
                } else {
                    u64::MAX >> m.leading_zeros()
                };
                Itv {
                    lo: x.lo.max(y.lo),
                    hi: hi.min(top.hi),
                }
            }
        },
        BinOp::Xor => match (x.as_const(), y.as_const()) {
            (Some(a), Some(b)) => Itv::point(a ^ b),
            _ => {
                let m = x.hi.max(y.hi);
                let hi = if m == 0 {
                    0
                } else {
                    u64::MAX >> m.leading_zeros()
                };
                Itv {
                    lo: 0,
                    hi: hi.min(top.hi),
                }
            }
        },
        BinOp::Shl => match y.as_const() {
            Some(s) if s >= w as u64 => Itv::point(0),
            Some(s) => {
                let hi = x.hi.checked_shl(s as u32);
                match hi {
                    Some(hi) if fits(hi) => Itv { lo: x.lo << s, hi },
                    _ => top,
                }
            }
            None => top,
        },
        BinOp::Lshr => match y.as_const() {
            Some(s) if s >= w as u64 => Itv::point(0),
            Some(s) => Itv {
                lo: x.lo >> s,
                hi: x.hi >> s,
            },
            None => Itv { lo: 0, hi: x.hi },
        },
        BinOp::Eq => cmp_itv(
            x.hi >= y.lo && y.hi >= x.lo,
            x.as_const().zip(y.as_const()).map(|(a, b)| a == b),
        ),
        BinOp::Ne => cmp_itv(
            x.as_const().zip(y.as_const()).map(|(a, b)| a != b) != Some(false),
            (x.hi < y.lo || y.hi < x.lo).then_some(true),
        ),
        BinOp::Ult => {
            if x.hi < y.lo {
                Itv::point(1)
            } else if x.lo >= y.hi {
                Itv::point(0)
            } else {
                Itv::full(1)
            }
        }
        BinOp::Ule => {
            if x.hi <= y.lo {
                Itv::point(1)
            } else if x.lo > y.hi {
                Itv::point(0)
            } else {
                Itv::full(1)
            }
        }
        BinOp::Slt | BinOp::Sle => Itv::full(1),
    }
}

/// Builds the 1-bit result interval of a comparison from "can it be
/// true" and an optional definite answer.
fn cmp_itv(can_be_true: bool, definite: Option<bool>) -> Itv {
    match definite {
        Some(true) => Itv::point(1),
        Some(false) => Itv::point(0),
        None => {
            if can_be_true {
                Itv::full(1)
            } else {
                Itv::point(0)
            }
        }
    }
}

impl Forward for Intervals {
    type State = IvState;

    fn entry(&self, prog: &Program) -> IvState {
        IvState {
            // Registers start as zero constants in the executor.
            regs: vec![Itv::point(0); prog.reg_widths.len()],
            len: Itv {
                lo: self.env.len_lo,
                hi: self.env.len_hi,
            },
            len_alias: vec![false; prog.reg_widths.len()],
        }
    }

    fn flow(&mut self, prog: &Program, block: usize, state: IvState) -> Vec<(usize, IvState)> {
        let mut tr = Transfer::new(self.env, state);
        for ins in &prog.blocks[block].instrs {
            tr.instr(ins);
        }
        match prog.blocks[block].term {
            Terminator::Jump(t) => vec![(t.index(), tr.st)],
            Terminator::Branch { cond, then_, else_ } => {
                let c = tr.operand(cond, 1);
                match c.as_const() {
                    Some(0) => {
                        tr.refine(cond, false);
                        vec![(else_.index(), tr.st)]
                    }
                    Some(_) => {
                        tr.refine(cond, true);
                        vec![(then_.index(), tr.st)]
                    }
                    None => {
                        let mut then_tr = Transfer {
                            st: tr.st.clone(),
                            env: tr.env,
                            cmps: tr.cmps.clone(),
                        };
                        then_tr.refine(cond, true);
                        tr.refine(cond, false);
                        vec![(then_.index(), then_tr.st), (else_.index(), tr.st)]
                    }
                }
            }
            Terminator::Emit(_) | Terminator::Drop | Terminator::Crash(_) => Vec::new(),
        }
    }
}
