//! Verdict-preserving pre-symbolic-execution simplification.
//!
//! [`simplify`] rewrites a [`Program`] into one the symbolic executor
//! runs to the **same segments** — same constraint sets, same
//! outcomes, same counterexample models — as the original under exact
//! fork checking. The verifier does not use it: measured on the
//! paper's audits it deleted no block, so step 1 executes the program
//! it is given. It stays a standalone pass for the static-analysis
//! tests and benchmarks. Three transformations,
//! each justified by an "invisibility" argument against the executor
//! and its term pool:
//!
//! 1. **Constant folding** (`Bin`/`Un`/`Cast` → `Mov` of an
//!    immediate). Allowed only when the pool provably folds the same
//!    site to the same constant: all-constant operands evaluated with
//!    `fold_const`'s exact semantics (never the crash-capable
//!    `UDiv`/`URem`), or syntactically identical operands where the
//!    pool's same-`TermId` identity rules apply. The executor interns
//!    `Mov dst, Imm(c)` as `mk_const(w, c)` — the identical term it
//!    would have produced by folding, so downstream terms, constraints
//!    and segments are unchanged.
//! 2. **Branch decision** (`Branch` → `Jump`) when pool-exact
//!    constant propagation decides the condition. The executor
//!    short-circuits a pool-constant branch condition without pushing
//!    a constraint, which is precisely a jump.
//! 3. **Unreachable-block deletion** (with `BlockId` renumbering) for
//!    blocks only reachable through decided-dead edges. The executor
//!    never visits them, so deleting them changes nothing but the
//!    program's size and fingerprint.
//!
//! Instructions are never *removed* (a folded instruction becomes a
//! `Mov`), so per-block instruction indices — and with them executed
//! instruction counts per path — are stable.
//!
//! The transformed program hashes differently whenever a
//! transformation fired (its blocks feed `Program::fingerprint`).

use super::constprop::{eval_bin, operand_av_w, transfer_instr, Av, ConstProp};
use super::intervals::IvEnv;
use crate::instr::{BinOp, Instr, Operand, Terminator};
use crate::interp::{eval_cast, eval_un};
use crate::program::Program;
use crate::types::BlockId;

/// What [`simplify`] did, for reports and ablation tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimplifyStats {
    /// `Bin`/`Un`/`Cast` instructions folded to `Mov` immediates.
    pub instrs_folded: usize,
    /// `Branch` terminators rewritten to `Jump`.
    pub branches_decided: usize,
    /// Unreachable blocks deleted.
    pub blocks_removed: usize,
}

/// Simplifies `prog`. See the module docs for why every step preserves
/// verdicts. Every transformation is decided by pool-exact constant
/// propagation alone, so the entry-length environment `_env` is not
/// read; the parameter keeps the signature the analyses share.
pub fn simplify(prog: &Program, _env: IvEnv) -> (Program, SimplifyStats) {
    let cp = ConstProp::run_pool_exact(prog);
    let mut out = prog.clone();
    let mut stats = SimplifyStats::default();

    // Phase 1: fold instructions and decide branches, block by block,
    // replaying the pool-exact transfer to know each instruction's
    // entry state.
    for (b, entry) in cp.entry.iter().enumerate() {
        let Some(entry) = entry else { continue };
        let mut st = entry.clone();
        let block = &mut out.blocks[b];
        for ins in block.instrs.iter_mut() {
            let folded = fold_instr(&st, ins);
            transfer_instr(&mut st, ins, true);
            if let Some(f) = folded {
                *ins = f;
                stats.instrs_folded += 1;
            }
        }
        if let Some(taken) = cp.decided[b] {
            if let Terminator::Branch { then_, else_, .. } = block.term {
                block.term = Terminator::Jump(if taken { then_ } else { else_ });
                stats.branches_decided += 1;
            }
        }
    }

    // Phase 2: drop blocks unreachable under the decided branches and
    // renumber. Every surviving edge targets a surviving block: dead
    // targets were only ever referenced by branches rewritten above.
    let keep: Vec<bool> = cp.entry.iter().map(Option::is_some).collect();
    if keep.iter().any(|k| !k) {
        let mut remap = vec![u32::MAX; keep.len()];
        let mut next = 0u32;
        for (b, &k) in keep.iter().enumerate() {
            if k {
                remap[b] = next;
                next += 1;
            }
        }
        let mut kept = Vec::with_capacity(next as usize);
        for (b, block) in out.blocks.drain(..).enumerate() {
            if keep[b] {
                kept.push(block);
            }
        }
        for block in &mut kept {
            let fix = |t: BlockId| BlockId(remap[t.index()]);
            block.term = match block.term {
                Terminator::Jump(t) => Terminator::Jump(fix(t)),
                Terminator::Branch { cond, then_, else_ } => Terminator::Branch {
                    cond,
                    then_: fix(then_),
                    else_: fix(else_),
                },
                other => other,
            };
        }
        stats.blocks_removed = keep.len() - kept.len();
        out.blocks = kept;
    }

    debug_assert!(
        out.validate().is_ok(),
        "simplify produced an invalid program"
    );
    (out, stats)
}

/// The pool-exact fold of one instruction given its entry state, or
/// `None` when it must stay. The returned instruction is always a
/// `Mov` with the same destination, keeping instruction counts and
/// register widths intact.
fn fold_instr(st: &super::constprop::CpState, ins: &Instr) -> Option<Instr> {
    match *ins {
        Instr::Bin { op, w, dst, a, b } => {
            let x = operand_av_w(st, a, w);
            let y = operand_av_w(st, b, w);
            // Comparisons produce width-1 results; everything else
            // stays at the operand width.
            let rw = if op.is_comparison() { 1 } else { w };
            if let (Av::Const(x), Av::Const(y)) = (x, y) {
                let v = eval_bin(op, w, x, y)?;
                return Some(Instr::Mov {
                    w: rw,
                    dst,
                    a: Operand::Imm(v),
                });
            }
            // Identical operands: the pool sees the same TermId twice
            // and applies its identity rules regardless of the value.
            if a == b {
                let folded = match op {
                    BinOp::Eq | BinOp::Ule | BinOp::Sle => Some(Operand::Imm(1)),
                    BinOp::Ne | BinOp::Ult | BinOp::Slt => Some(Operand::Imm(0)),
                    BinOp::Sub | BinOp::Xor => Some(Operand::Imm(0)),
                    // and(x, x) = or(x, x) = x.
                    BinOp::And | BinOp::Or => Some(a),
                    _ => None,
                };
                return folded.map(|src| Instr::Mov { w: rw, dst, a: src });
            }
            None
        }
        Instr::Un { op, w, dst, a } => {
            let v = operand_av_w(st, a, w).as_const()?;
            Some(Instr::Mov {
                w,
                dst,
                a: Operand::Imm(eval_un(op, w, v)),
            })
        }
        Instr::Cast {
            kind,
            from,
            to,
            dst,
            a,
        } => {
            let v = operand_av_w(st, a, from).as_const()?;
            Some(Instr::Mov {
                w: to,
                dst,
                a: Operand::Imm(eval_cast(kind, from, to, v)),
            })
        }
        _ => None,
    }
}
