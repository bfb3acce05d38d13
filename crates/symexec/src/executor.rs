//! The symbolic interpreter: one IR program → all feasible segments.
//!
//! ## One solver per call, and a witness per path
//!
//! Every exact fork question — "can the path condition, extended by
//! this branch's conjuncts, still hold?" — is answered in one of two
//! ways:
//!
//! * by the state's **witness**, when it has one: a model of its path
//!   condition, the one the `Sat` answer that created the state came
//!   with (a cheap-layer `Sat` holds under every assignment, so its
//!   empty model counts too), shared by `Rc` with the states forked
//!   from it. If the new conjuncts evaluate to 1 under it
//!   ([`bvsolve::eval`]), the question is `Sat` — the witness is a
//!   model of the extended condition — and the child inherits it. The
//!   two sides of a branch cannot both hold under one model, so a
//!   branch pair whose state has a witness asks at most one question.
//!   A conjunct pushed without a question (a surviving path's divisor
//!   or bounds condition) keeps the witness only while it evaluates
//!   to 1 under it;
//! * otherwise by one [`bvsolve::SolveSession`] owned by the
//!   [`execute`] call, as the full constraint list
//!   ([`SolveSession::check_constraints`]). The worklist is an explicit
//!   LIFO `Vec`, so consecutive questions share a prefix: the session
//!   keeps that prefix blasted, pops what the previous question added,
//!   blasts only the new conjuncts, and carries its learnt clauses from
//!   fork to fork.
//!
//! A witness only ever answers a question whose answer is certainly
//! `Sat`, so the verdicts — and with them every segment — are those of
//! asking every question. Cheap fork checking
//! ([`SymConfig::exact_forks`] off) never touches the session and
//! holds no witness.
//!
//! The program is the only input the executor trusts: every bounds
//! check and assertion asks the feasibility of its crash branch like
//! any other fork, and no analysis result can elide the question.
//!
//! ## Determinism guarantee
//!
//! [`execute`] is a pure function of its inputs: for identical
//! `(prog, input, cfg)` and a map model that behaves identically (the
//! stock models in [`crate::mapmodel`] are deterministic), two runs
//! starting from identical [`TermPool`] states perform **the same
//! sequence of pool operations** — same variables in the same creation
//! order, same terms, same segments with the same [`bvsolve::TermId`]s.
//! No step iterates a hash map, and the one input that is not a
//! function of the current state — the fork verdict — is
//! *verdict-deterministic*: the session's learnt clauses, activities
//! and phases depend on the questions asked before, but a decided
//! (Sat/Unsat) verdict is a property of the question alone, the layer
//! that answers it is the one a fresh solver would use, and the only
//! terms the session interns are the question's conjunction. A model
//! it returns decides only *whether* a later question is asked, never
//! a verdict or a term, and is itself a function of the questions
//! asked before it; evaluating a witness interns nothing. Two runs ask
//! the same questions in the same order, so even the solver's internal
//! state repeats.
//!
//! The caveat is the conflict budget
//! ([`SymConfig::fork_conflict_budget`]; see the `bvsolve::session`
//! module docs): which questions exhaust it depends on the CDCL
//! trajectory, hence on the questions asked before. Within one build
//! that trajectory repeats; across a change to the solver or to the
//! order of questions, a question that was decided may come back
//! `Unknown`, which reads as *feasible* — a superset of segments, still
//! sound. The stock programs decide every question well inside the
//! default budget (`tests/session_oracle.rs` asserts no `Unknown`).
//!
//! The verifier's content-addressed summary store depends on this: it
//! keys step-1 summaries by a structural hash of
//! `(program, map mode, table config)` and replays a cached summary by
//! pool migration, which is indistinguishable from re-executing only
//! because execution is reproducible. `crates/symexec/tests/`
//! `determinism.rs` pins the guarantee; `session_oracle.rs` pins every
//! fork verdict to a fresh reference solver and the persisted summary
//! bytes to the ones written before the executor had a session.

use crate::input::{SymConfig, SymInput};
use crate::mapmodel::{MapBranch, MapModel};
use crate::segment::{MapOpKind, MapOpRecord, SegOutcome, Segment};
use bvsolve::{eval, Model, SatVerdict, SolveSession, TermId, TermPool};
use dpir::{BinOp, CrashReason, Instr, Operand, Program, Terminator, UnOp, META_WIDTH};
use std::rc::Rc;

/// Errors aborting a symbolic execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymError {
    /// The state budget was exceeded — reported exactly like the
    /// paper's "12h+" bars for the generic baseline.
    StateBudget {
        /// States explored before giving up.
        explored: usize,
    },
    /// `PktPush`/`PktPull` with a non-constant byte count (elements in
    /// this repository only use constants; supporting symbolic shifts
    /// would require quadratic select terms).
    SymbolicPushPull,
}

impl std::fmt::Display for SymError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymError::StateBudget { explored } => {
                write!(f, "state budget exceeded after {explored} states")
            }
            SymError::SymbolicPushPull => write!(f, "symbolic push/pull amount unsupported"),
        }
    }
}

impl std::error::Error for SymError {}

/// Result of symbolically executing one program.
#[derive(Debug)]
pub struct ExecReport {
    /// All feasible segments (over-approximate if `exact_forks` is off).
    pub segments: Vec<Segment>,
    /// Total states materialized (the paper's "#states" annotations in
    /// Fig. 4(c)).
    pub states: usize,
    /// Branch targets discarded as infeasible.
    pub pruned: usize,
    /// Counters of the call's fork-feasibility session: questions
    /// asked, the layer that answered each, and how much of the blasted
    /// prefix and of the learnt clauses carried between them.
    pub solver_stats: bvsolve::SolverLayerStats,
    /// Exact fork questions answered by the asking state's witness
    /// instead of the session: each one `Sat`, and not among
    /// `solver_stats.queries`.
    pub witnessed: u64,
}

/// How [`execute_observed`] reports the answer to one fork question.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum ForkAnswer<'a> {
    /// The session's verdict.
    Asked(&'a SatVerdict),
    /// `Sat` without the session: every new conjunct evaluates to 1
    /// under this model of the asking state's path condition.
    Witnessed(&'a Model),
}

/// A model of a path condition, when one is in hand.
type Witness = Option<Rc<Model>>;

#[derive(Clone)]
struct PathState {
    bb: usize,
    iidx: usize,
    regs: Vec<TermId>,
    pkt: Vec<TermId>,
    len: TermId,
    meta: Vec<TermId>,
    constraint: Vec<TermId>,
    instrs: u64,
    map_ops: Vec<MapOpRecord>,
    /// A model of `constraint`: the one the `Sat` answer that created
    /// the state came with, or its parent's.
    witness: Witness,
}

/// Symbolically executes `prog` from `input`, enumerating all feasible
/// segments.
pub fn execute(
    pool: &mut TermPool,
    prog: &Program,
    input: &SymInput,
    model: &mut dyn MapModel,
    cfg: &SymConfig,
) -> Result<ExecReport, SymError> {
    execute_observed(pool, prog, input, model, cfg, &mut |_, _, _| {})
}

/// [`execute`], handing every exact fork question — the constraint
/// list asked and its answer, the session's verdict or the witness
/// that made asking unnecessary — to `observe` as soon as it is
/// answered. The oracle tests use it to put the same list to a fresh
/// reference solver; an observer that interns no new term leaves the
/// execution as it is.
#[doc(hidden)]
pub fn execute_observed(
    pool: &mut TermPool,
    prog: &Program,
    input: &SymInput,
    model: &mut dyn MapModel,
    cfg: &SymConfig,
    observe: &mut dyn FnMut(&mut TermPool, &[TermId], ForkAnswer<'_>),
) -> Result<ExecReport, SymError> {
    // The 1-bit zero is interned ahead of the registers' initial
    // values: term numbering — which commutative operands are ordered
    // by — has always started with it.
    pool.mk_const(1, 0);
    let init = PathState {
        bb: 0,
        iidx: 0,
        regs: prog
            .reg_widths
            .iter()
            .map(|&w| pool.mk_const(w, 0))
            .collect(),
        pkt: input.pkt_bytes.clone(),
        len: input.pkt_len,
        meta: input.meta.clone(),
        constraint: input.base_constraints.clone(),
        instrs: 0,
        map_ops: Vec::new(),
        witness: None,
    };
    let mut session = SolveSession::with_conflict_budget(cfg.fork_conflict_budget);
    session.set_core_extraction(false);
    let mut ex = Exec {
        pool,
        prog,
        model,
        cfg,
        session,
        observe,
        worklist: vec![init],
        segments: Vec::new(),
        states: 1,
        pruned: 0,
        witnessed: 0,
    };
    ex.run()?;
    Ok(ExecReport {
        segments: ex.segments,
        states: ex.states,
        pruned: ex.pruned,
        solver_stats: ex.session.stats(),
        witnessed: ex.witnessed,
    })
}

/// What one [`execute`] call carries to every fork site.
struct Exec<'a> {
    pool: &'a mut TermPool,
    prog: &'a Program,
    model: &'a mut dyn MapModel,
    cfg: &'a SymConfig,
    /// The call's one solver: its assertion stack is the path
    /// condition last asked about. The worklist is LIFO, so the next
    /// question shares a prefix with it; that prefix stays blasted, a
    /// sibling the witness did not answer costs a rollback plus its own
    /// conjuncts, and learnt clauses carry from fork to fork.
    session: SolveSession,
    observe: &'a mut dyn FnMut(&mut TermPool, &[TermId], ForkAnswer<'_>),
    worklist: Vec<PathState>,
    segments: Vec<Segment>,
    states: usize,
    pruned: usize,
    witnessed: u64,
}

enum StepFlow {
    Continue,
    EndState,
}

impl Exec<'_> {
    fn run(&mut self) -> Result<(), SymError> {
        let prog = self.prog;
        while let Some(mut st) = self.worklist.pop() {
            if self.states > self.cfg.max_states {
                break;
            }
            // Run this state until it terminates or forks.
            'state: loop {
                let block = &prog.blocks[st.bb];
                while st.iidx < block.instrs.len() {
                    let ins = &block.instrs[st.iidx];
                    st.iidx += 1;
                    st.instrs += 1;
                    if st.instrs > self.cfg.max_instrs_per_path {
                        self.finish(&st, SegOutcome::FuelExhausted);
                        break 'state;
                    }
                    if let StepFlow::EndState = self.step(ins, &mut st)? {
                        break 'state;
                    }
                }
                // Terminator.
                st.instrs += 1;
                if st.instrs > self.cfg.max_instrs_per_path {
                    self.finish(&st, SegOutcome::FuelExhausted);
                    break 'state;
                }
                match block.term {
                    Terminator::Jump(b) => {
                        st.bb = b.index();
                        st.iidx = 0;
                    }
                    Terminator::Branch { cond, then_, else_ } => {
                        let c = operand(self.pool, &st, cond, 1);
                        if self.pool.is_true(c) {
                            st.bb = then_.index();
                            st.iidx = 0;
                            continue 'state;
                        }
                        if self.pool.is_false(c) {
                            st.bb = else_.index();
                            st.iidx = 0;
                            continue 'state;
                        }
                        // Fork.
                        let notc = self.pool.mk_not(c);
                        for (cond, target) in [(c, then_), (notc, else_)] {
                            self.fork_state(&st, &[cond], |_, branch| {
                                branch.bb = target.index();
                                branch.iidx = 0;
                            });
                        }
                        break 'state;
                    }
                    Terminator::Emit(p) => {
                        self.finish(&st, SegOutcome::Emit(p));
                        break 'state;
                    }
                    Terminator::Drop => {
                        self.finish(&st, SegOutcome::Drop);
                        break 'state;
                    }
                    Terminator::Crash(r) => {
                        self.finish(&st, SegOutcome::Crash(r));
                        break 'state;
                    }
                }
            }
        }
        if self.states > self.cfg.max_states {
            // Exploration (or the materialization of some fork's
            // branches) was cut short: incomplete, so a budget failure.
            return Err(SymError::StateBudget {
                explored: self.states,
            });
        }
        Ok(())
    }

    /// Whether `st`'s path condition extended by `extra` can hold — the
    /// one question every fork site asks — and, if it can, the witness
    /// of the extended condition: `st`'s own when the new conjuncts hold
    /// under it, else the model of the session's `Sat`. No `extra`
    /// means nothing to ask: the condition is that of a state already
    /// being run.
    fn feasible(&mut self, st: &PathState, extra: &[TermId]) -> Option<Witness> {
        if extra.is_empty() {
            return Some(st.witness.clone());
        }
        let cs = [&st.constraint[..], extra].concat();
        if !self.cfg.exact_forks {
            // Cheap layers only.
            let conj = self.pool.mk_conj(&cs);
            if self.pool.is_false(conj) {
                return None;
            }
            let iv = bvsolve::interval_of(self.pool, conj);
            return (!(iv.lo == 0 && iv.hi == 0)).then_some(None);
        }
        if let Some(w) = &st.witness {
            if extra
                .iter()
                .all(|&c| eval(self.pool, c, w.assignment()) == 1)
            {
                self.witnessed += 1;
                (self.observe)(self.pool, &cs, ForkAnswer::Witnessed(w));
                return Some(Some(Rc::clone(w)));
            }
        }
        let verdict = self.session.check_constraints(self.pool, &cs);
        (self.observe)(self.pool, &cs, ForkAnswer::Asked(&verdict));
        match verdict {
            SatVerdict::Sat(model) => Some(Some(Rc::new(model))),
            SatVerdict::Unsat(_) => None,
            // Unknown (budget) counts as feasible: over-approximation
            // keeps verification sound (extra suspects, never missed
            // ones). There is no model to carry.
            SatVerdict::Unknown | SatVerdict::Interrupted => Some(None),
        }
    }

    /// Conjoins `c` to `st`'s path condition without asking whether it
    /// can hold: the witness stays only if `c` holds under it.
    fn push_unchecked(&mut self, st: &mut PathState, c: TermId) {
        if st
            .witness
            .as_ref()
            .is_some_and(|w| eval(self.pool, c, w.assignment()) != 1)
        {
            st.witness = None;
        }
        st.constraint.push(c);
    }

    /// Ends `st` in a segment with `outcome`.
    fn finish(&mut self, st: &PathState, outcome: SegOutcome) {
        self.segments.push(segment_of(st, outcome));
    }

    /// Forks a crash segment off `st` under the extra conjunct `when`,
    /// if that is feasible. Only the question is asked of `st`; it is
    /// copied (into the segment) when the answer is yes.
    fn crash_fork(&mut self, st: &PathState, when: TermId, reason: CrashReason) {
        if self.feasible(st, &[when]).is_some() {
            self.states += 1;
            let mut seg = segment_of(st, SegOutcome::Crash(reason));
            seg.constraint.push(when);
            self.segments.push(seg);
        } else {
            self.pruned += 1;
        }
    }

    /// Forks a new state off `st` under the conjuncts `extra`, if that
    /// is feasible: a copy of `st` constrained by them, holding the
    /// answer's witness and finished by `apply`, goes on the worklist.
    fn fork_state(
        &mut self,
        st: &PathState,
        extra: &[TermId],
        apply: impl FnOnce(&mut TermPool, &mut PathState),
    ) {
        let Some(witness) = self.feasible(st, extra) else {
            self.pruned += 1;
            return;
        };
        let mut branch = st.clone();
        branch.constraint.extend_from_slice(extra);
        branch.witness = witness;
        apply(self.pool, &mut branch);
        self.states += 1;
        self.worklist.push(branch);
    }

    fn step(&mut self, ins: &Instr, st: &mut PathState) -> Result<StepFlow, SymError> {
        let (prog, cfg) = (self.prog, self.cfg);
        match *ins {
            Instr::Bin { op, w, dst, a, b } => {
                let x = operand(self.pool, st, a, w);
                let y = operand(self.pool, st, b, w);
                if op.can_crash() {
                    let zero = self.pool.mk_const(w, 0);
                    let is_zero = self.pool.mk_eq(y, zero);
                    if self.pool.is_true(is_zero) {
                        self.finish(st, SegOutcome::Crash(CrashReason::DivByZero));
                        return Ok(StepFlow::EndState);
                    }
                    if !self.pool.is_false(is_zero) {
                        // Fork a crash branch for divisor == 0.
                        self.crash_fork(st, is_zero, CrashReason::DivByZero);
                        let nz = self.pool.mk_not(is_zero);
                        self.push_unchecked(st, nz);
                    }
                }
                st.regs[dst.index()] = bin_term(self.pool, op, x, y);
            }
            Instr::Un { op, w, dst, a } => {
                let x = operand(self.pool, st, a, w);
                st.regs[dst.index()] = match op {
                    UnOp::Not => self.pool.mk_not(x),
                    UnOp::Neg => self.pool.mk_neg(x),
                };
            }
            Instr::Mov { w, dst, a } => {
                st.regs[dst.index()] = operand(self.pool, st, a, w);
            }
            Instr::Cast {
                kind,
                from,
                to,
                dst,
                a,
            } => {
                let x = operand(self.pool, st, a, from);
                st.regs[dst.index()] = match kind {
                    dpir::CastKind::Zext => self.pool.mk_zext(x, to),
                    dpir::CastKind::Sext => self.pool.mk_sext(x, to),
                    dpir::CastKind::Trunc => {
                        if to == from {
                            x
                        } else {
                            self.pool.mk_extract(x, to - 1, 0)
                        }
                    }
                };
            }
            Instr::PktLoad { w, dst, off } => {
                let off_t = operand(self.pool, st, off, 16);
                let k = (w / 8) as usize;
                if !self.bounds_fork(st, off_t, k, CrashReason::OobRead) {
                    return Ok(StepFlow::EndState);
                }
                if cfg.fork_on_symbolic_offset && self.pool.const_value(off_t).is_none() {
                    // Generic-engine behavior: concretize the offset
                    // by forking one state per feasible value.
                    self.fork_offsets(st, off_t, k, |pool, s, c| {
                        s.regs[dst.index()] = concat_be(pool, &s.pkt[c..c + k]);
                    });
                    return Ok(StepFlow::EndState);
                }
                st.regs[dst.index()] = load_bytes(self.pool, st, off_t, k, cfg);
            }
            Instr::PktStore { w, off, val } => {
                let off_t = operand(self.pool, st, off, 16);
                let v = operand(self.pool, st, val, w);
                let k = (w / 8) as usize;
                if !self.bounds_fork(st, off_t, k, CrashReason::OobWrite) {
                    return Ok(StepFlow::EndState);
                }
                if cfg.fork_on_symbolic_offset && self.pool.const_value(off_t).is_none() {
                    self.fork_offsets(st, off_t, k, |pool, s, c| {
                        let cc = pool.mk_const(16, c as u64);
                        store_bytes(pool, s, cc, k, v, cfg);
                    });
                    return Ok(StepFlow::EndState);
                }
                store_bytes(self.pool, st, off_t, k, v, cfg);
            }
            Instr::PktLen { dst } => {
                st.regs[dst.index()] = st.len;
            }
            Instr::PktPush { n } => {
                let n_t = operand(self.pool, st, n, 16);
                let Some(k) = self.pool.const_value(n_t) else {
                    return Err(SymError::SymbolicPushPull);
                };
                let k = k as usize;
                // Capacity check: len + k ≤ window.
                let len32 = self.pool.mk_zext(st.len, 32);
                let kc = self.pool.mk_const(32, k as u64);
                let newlen32 = self.pool.mk_add(len32, kc);
                let cap = self.pool.mk_const(32, cfg.max_pkt_bytes as u64);
                let fits = self.pool.mk_ule(newlen32, cap);
                if !self.fork_crash_unless(st, fits, CrashReason::OobWrite) {
                    return Ok(StepFlow::EndState);
                }
                let zero8 = self.pool.mk_const(8, 0);
                let mut newpkt = Vec::with_capacity(st.pkt.len());
                for i in 0..st.pkt.len() {
                    if i < k {
                        newpkt.push(zero8);
                    } else {
                        newpkt.push(st.pkt[i - k]);
                    }
                }
                st.pkt = newpkt;
                let kc16 = self.pool.mk_const(16, k as u64);
                st.len = self.pool.mk_add(st.len, kc16);
            }
            Instr::PktPull { n } => {
                let n_t = operand(self.pool, st, n, 16);
                let Some(k) = self.pool.const_value(n_t) else {
                    return Err(SymError::SymbolicPushPull);
                };
                let k = k as usize;
                let kc16 = self.pool.mk_const(16, k as u64);
                let fits = self.pool.mk_ule(kc16, st.len);
                if !self.fork_crash_unless(st, fits, CrashReason::OobRead) {
                    return Ok(StepFlow::EndState);
                }
                let zero8 = self.pool.mk_const(8, 0);
                let mut newpkt = Vec::with_capacity(st.pkt.len());
                for i in 0..st.pkt.len() {
                    if i + k < st.pkt.len() {
                        newpkt.push(st.pkt[i + k]);
                    } else {
                        newpkt.push(zero8);
                    }
                }
                st.pkt = newpkt;
                st.len = self.pool.mk_sub(st.len, kc16);
            }
            Instr::MetaLoad { slot, dst } => {
                st.regs[dst.index()] = st.meta[slot as usize];
            }
            Instr::MetaStore { slot, val } => {
                st.meta[slot as usize] = operand(self.pool, st, val, META_WIDTH);
            }
            Instr::MapRead {
                map,
                key,
                found,
                val,
            } => {
                let decl = &prog.maps[map.index()];
                let key_t = operand(self.pool, st, key, decl.key_width);
                let branches = self.model.read(self.pool, map, decl, key_t);
                self.fork_map_branches(st, branches, |s, br| {
                    s.regs[found.index()] = br.flag;
                    s.regs[val.index()] = br.value;
                    s.map_ops.push(MapOpRecord {
                        map,
                        kind: MapOpKind::Read,
                        key: key_t,
                        value: None,
                        havoc_value_var: br.havoc_value_var,
                        havoc_flag_var: br.havoc_flag_var,
                    });
                });
                return Ok(StepFlow::EndState);
            }
            Instr::MapWrite { map, key, val, ok } => {
                let decl = &prog.maps[map.index()];
                let key_t = operand(self.pool, st, key, decl.key_width);
                let val_t = operand(self.pool, st, val, decl.value_width);
                let branches = self.model.write(self.pool, map, decl, key_t, val_t);
                self.fork_map_branches(st, branches, |s, br| {
                    s.regs[ok.index()] = br.flag;
                    s.map_ops.push(MapOpRecord {
                        map,
                        kind: MapOpKind::Write,
                        key: key_t,
                        value: Some(val_t),
                        havoc_value_var: None,
                        havoc_flag_var: br.havoc_flag_var,
                    });
                });
                return Ok(StepFlow::EndState);
            }
            Instr::MapTest { map, key, found } => {
                let decl = &prog.maps[map.index()];
                let key_t = operand(self.pool, st, key, decl.key_width);
                let branches = self.model.test(self.pool, map, decl, key_t);
                self.fork_map_branches(st, branches, |s, br| {
                    s.regs[found.index()] = br.flag;
                    s.map_ops.push(MapOpRecord {
                        map,
                        kind: MapOpKind::Test,
                        key: key_t,
                        value: None,
                        havoc_value_var: None,
                        havoc_flag_var: br.havoc_flag_var,
                    });
                });
                return Ok(StepFlow::EndState);
            }
            Instr::MapExpire { map, key } => {
                let decl = &prog.maps[map.index()];
                let key_t = operand(self.pool, st, key, decl.key_width);
                st.map_ops.push(MapOpRecord {
                    map,
                    kind: MapOpKind::Expire,
                    key: key_t,
                    value: None,
                    havoc_value_var: None,
                    havoc_flag_var: None,
                });
            }
            Instr::Assert { cond, msg } => {
                let c = operand(self.pool, st, cond, 1);
                if !self.fork_crash_unless(st, c, CrashReason::AssertFailed(msg)) {
                    return Ok(StepFlow::EndState);
                }
            }
        }
        Ok(StepFlow::Continue)
    }

    /// Forks a crash segment for the out-of-bounds case of a `k`-byte
    /// access at `off_t` (if feasible) and constrains the surviving
    /// path to be in bounds; false if the access always crashes.
    fn bounds_fork(
        &mut self,
        st: &mut PathState,
        off_t: TermId,
        k: usize,
        reason: CrashReason,
    ) -> bool {
        // In-bounds: zext(off) + k ≤ zext(len), computed at width 32 so
        // the addition cannot wrap.
        let off32 = self.pool.mk_zext(off_t, 32);
        let kc = self.pool.mk_const(32, k as u64);
        let end = self.pool.mk_add(off32, kc);
        let len32 = self.pool.mk_zext(st.len, 32);
        let inb = self.pool.mk_ule(end, len32);
        self.fork_crash_unless(st, inb, reason)
    }

    /// Forks a crash segment on `¬cond` (if feasible); constrains the
    /// current path with `cond`. Returns false if the path itself is
    /// dead (cond constant-false).
    fn fork_crash_unless(&mut self, st: &mut PathState, cond: TermId, reason: CrashReason) -> bool {
        if self.pool.is_true(cond) {
            return true;
        }
        if self.pool.is_false(cond) {
            self.finish(st, SegOutcome::Crash(reason));
            return false;
        }
        let notc = self.pool.mk_not(cond);
        self.crash_fork(st, notc, reason);
        self.push_unchecked(st, cond);
        true
    }

    /// Applies map-op branches: each feasible branch becomes a new
    /// state on the worklist (continuing at the current instruction
    /// index).
    fn fork_map_branches(
        &mut self,
        st: &PathState,
        branches: Vec<MapBranch>,
        mut apply: impl FnMut(&mut PathState, &MapBranch),
    ) {
        for br in branches {
            if self.states > self.cfg.max_states {
                // Stop materializing branches past the budget; `run`
                // reports StateBudget (the "12h+" bars of Fig. 4).
                return;
            }
            self.fork_state(st, &br.constraints, |_, s| apply(s, &br));
        }
    }

    /// Generic-engine offset concretization: one state per feasible
    /// offset value, each constrained with `off == s` and continuing
    /// at the current instruction position.
    fn fork_offsets(
        &mut self,
        st: &PathState,
        off_t: TermId,
        k: usize,
        mut apply: impl FnMut(&mut TermPool, &mut PathState, usize),
    ) {
        let last = self.cfg.max_pkt_bytes.saturating_sub(k);
        for s in 0..=last {
            if self.states > self.cfg.max_states {
                return;
            }
            let sc = self.pool.mk_const(16, s as u64);
            let hit = self.pool.mk_eq(off_t, sc);
            if !self.pool.is_false(hit) {
                self.fork_state(st, &[hit], |pool, branch| apply(pool, branch, s));
            }
        }
    }
}

fn operand(pool: &mut TermPool, st: &PathState, o: Operand, w: u32) -> TermId {
    match o {
        Operand::Reg(r) => st.regs[r.index()],
        Operand::Imm(v) => pool.mk_const(w, v),
    }
}

fn bin_term(pool: &mut TermPool, op: BinOp, x: TermId, y: TermId) -> TermId {
    match op {
        BinOp::Add => pool.mk_add(x, y),
        BinOp::Sub => pool.mk_sub(x, y),
        BinOp::Mul => pool.mk_mul(x, y),
        BinOp::UDiv => pool.mk_udiv(x, y),
        BinOp::URem => pool.mk_urem(x, y),
        BinOp::And => pool.mk_and(x, y),
        BinOp::Or => pool.mk_or(x, y),
        BinOp::Xor => pool.mk_xor(x, y),
        BinOp::Shl => pool.mk_shl(x, y),
        BinOp::Lshr => pool.mk_lshr(x, y),
        BinOp::Eq => pool.mk_eq(x, y),
        BinOp::Ne => pool.mk_ne(x, y),
        BinOp::Ult => pool.mk_ult(x, y),
        BinOp::Ule => pool.mk_ule(x, y),
        BinOp::Slt => pool.mk_slt(x, y),
        BinOp::Sle => pool.mk_sle(x, y),
    }
}

/// Big-endian load of `k` bytes at (possibly symbolic) offset.
///
/// At a symbolic offset the load is the chain `ite(off == s, bytes_s,
/// …)` over every window position `s`, one distinct constant per link,
/// down to a constant 0: the shape the blaster lowers as one select
/// run, one output per bit instead of a mux per bit and position.
fn load_bytes(
    pool: &mut TermPool,
    st: &PathState,
    off_t: TermId,
    k: usize,
    cfg: &SymConfig,
) -> TermId {
    if let Some(c) = pool.const_value(off_t) {
        let c = c as usize;
        if c + k <= st.pkt.len() {
            return concat_be(pool, &st.pkt[c..c + k]);
        }
        // In-bounds branch is infeasible (off beyond window); value is
        // irrelevant but must be well-formed.
        return pool.mk_const((k * 8) as u32, 0);
    }
    // Symbolic offset: select over all window positions.
    let w = (k * 8) as u32;
    let mut acc = pool.mk_const(w, 0);
    let last = cfg.max_pkt_bytes.saturating_sub(k);
    for s in 0..=last {
        let sc = pool.mk_const(16, s as u64);
        let hit = pool.mk_eq(off_t, sc);
        let v = concat_be(pool, &st.pkt[s..s + k]);
        acc = pool.mk_ite(hit, v, acc);
    }
    acc
}

/// Big-endian store of `k` bytes at (possibly symbolic) offset.
///
/// At a symbolic offset each cell `i` becomes `ite(off == i - j, byte_j,
/// …)` over the value's bytes `j`, one distinct constant per link, down
/// to the cell's previous content — a select run for the blaster
/// whenever the stored bytes are symbolic.
fn store_bytes(
    pool: &mut TermPool,
    st: &mut PathState,
    off_t: TermId,
    k: usize,
    val: TermId,
    cfg: &SymConfig,
) {
    // Byte j (big-endian position) of the value.
    let byte = |pool: &mut TermPool, j: usize| {
        let hi = (8 * (k - 1 - j) + 7) as u32;
        let lo = (8 * (k - 1 - j)) as u32;
        pool.mk_extract(val, hi, lo)
    };
    if let Some(c) = pool.const_value(off_t) {
        let c = c as usize;
        for j in 0..k {
            if c + j < st.pkt.len() {
                st.pkt[c + j] = byte(pool, j);
            }
        }
        return;
    }
    let window = cfg.max_pkt_bytes;
    for j in 0..k {
        let bj = byte(pool, j);
        for i in j..window {
            let target = pool.mk_const(16, (i - j) as u64);
            let hit = pool.mk_eq(off_t, target);
            st.pkt[i] = pool.mk_ite(hit, bj, st.pkt[i]);
        }
    }
}

fn concat_be(pool: &mut TermPool, bytes: &[TermId]) -> TermId {
    let mut acc = bytes[0];
    for &b in &bytes[1..] {
        acc = pool.mk_concat(acc, b);
    }
    acc
}

fn segment_of(st: &PathState, outcome: SegOutcome) -> Segment {
    Segment {
        constraint: st.constraint.clone(),
        outcome,
        pkt_out: st.pkt.clone(),
        len_out: st.len,
        meta_out: st.meta.clone(),
        instrs: st.instrs,
        map_ops: st.map_ops.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::SymInput;
    use crate::mapmodel::AbstractMapModel;
    use dpir::ProgramBuilder;

    fn cfg() -> SymConfig {
        SymConfig {
            max_pkt_bytes: 16,
            ..Default::default()
        }
    }

    fn run(prog: &Program) -> ExecReport {
        let mut pool = TermPool::new();
        let cfg = cfg();
        let input = SymInput::fresh(&mut pool, &cfg, "e");
        let mut model = AbstractMapModel::new();
        execute(&mut pool, prog, &input, &mut model, &cfg).expect("no budget issues")
    }

    #[test]
    fn straight_line_single_segment() {
        let mut b = ProgramBuilder::new("t");
        let _r = b.mov(8, 7u64);
        b.emit(0);
        let p = b.build().expect("valid");
        let rep = run(&p);
        assert_eq!(rep.segments.len(), 1);
        assert_eq!(rep.segments[0].outcome, SegOutcome::Emit(0));
        assert_eq!(rep.segments[0].instrs, 2);
    }

    #[test]
    fn branch_on_packet_byte_forks() {
        // Load byte 0 (forks oob-crash), branch on it.
        let mut b = ProgramBuilder::new("t");
        let v = b.pkt_load(8, 0u64);
        let c = b.ult(8, v, 10u64);
        let (t, e) = b.fork(c);
        let _ = t;
        b.emit(0);
        b.switch_to(e);
        b.drop_();
        let p = b.build().expect("valid");
        let rep = run(&p);
        // Segments: crash (len < 1), emit (byte < 10), drop (byte >= 10).
        assert_eq!(rep.segments.len(), 3);
        let crashes = rep.segments.iter().filter(|s| s.outcome.is_crash()).count();
        assert_eq!(crashes, 1);
    }

    #[test]
    fn infeasible_branch_pruned() {
        // byte < 10 then byte > 200 is infeasible.
        let mut b = ProgramBuilder::new("t");
        let v = b.pkt_load(8, 0u64);
        let c1 = b.ult(8, v, 10u64);
        let (t1, e1) = b.fork(c1);
        let _ = t1;
        let c2 = b.ult(8, 200u64, v);
        let (t2, e2) = b.fork(c2);
        let _ = t2;
        b.emit(1); // unreachable
        b.switch_to(e2);
        b.emit(0);
        b.switch_to(e1);
        b.drop_();
        let p = b.build().expect("valid");
        let rep = run(&p);
        assert!(rep.pruned >= 1, "the contradictory branch must be pruned");
        assert!(!rep
            .segments
            .iter()
            .any(|s| s.outcome == SegOutcome::Emit(1)));
    }

    #[test]
    fn assert_forks_crash_segment() {
        let mut b = ProgramBuilder::new("t");
        let v = b.pkt_load(8, 0u64);
        let ok = b.ne(8, v, 0u64);
        b.assert_(ok, "zero byte");
        b.emit(0);
        let p = b.build().expect("valid");
        let rep = run(&p);
        let crash: Vec<_> = rep
            .segments
            .iter()
            .filter(|s| matches!(s.outcome, SegOutcome::Crash(CrashReason::AssertFailed(_))))
            .collect();
        assert_eq!(crash.len(), 1);
    }

    #[test]
    fn infinite_loop_exhausts_fuel() {
        let mut b = ProgramBuilder::new("t");
        let hdr = b.new_block();
        b.jump(hdr);
        b.switch_to(hdr);
        b.jump(hdr);
        let p = b.build().expect("valid");
        let mut pool = TermPool::new();
        let c = SymConfig {
            max_pkt_bytes: 8,
            max_instrs_per_path: 100,
            ..Default::default()
        };
        let input = SymInput::fresh(&mut pool, &c, "e");
        let mut model = AbstractMapModel::new();
        let rep = execute(&mut pool, &p, &input, &mut model, &c).expect("runs");
        assert_eq!(rep.segments.len(), 1);
        assert_eq!(rep.segments[0].outcome, SegOutcome::FuelExhausted);
    }

    #[test]
    fn map_read_havocs_value() {
        let mut b = ProgramBuilder::new("t");
        let m = b.map(dpir::MapDecl {
            name: "flows".into(),
            key_width: 32,
            value_width: 32,
            capacity: 64,
            is_static: false,
        });
        let key = b.mov(32, 5u64);
        let (_found, val) = b.map_read(m, key);
        let big = b.ult(32, 1000u64, val);
        let (t, e) = b.fork(big);
        let _ = t;
        b.emit(1);
        b.switch_to(e);
        b.emit(0);
        let p = b.build().expect("valid");
        let rep = run(&p);
        // Havoced value can be anything: both emits reachable.
        let ports: Vec<_> = rep
            .segments
            .iter()
            .filter_map(|s| match s.outcome {
                SegOutcome::Emit(p) => Some(p),
                _ => None,
            })
            .collect();
        assert!(ports.contains(&0) && ports.contains(&1));
        // And the read was logged.
        assert!(rep.segments.iter().all(|s| !s.map_ops.is_empty()));
    }

    #[test]
    fn symbolic_offset_load_selects() {
        // offset = (byte0 & 0x7), load the byte at that offset; the
        // loaded value is a select over the window, so a branch on it
        // must be able to go both ways.
        let mut b = ProgramBuilder::new("t");
        let off8 = b.pkt_load(8, 0u64);
        let masked = b.and(8, off8, 0x07u64);
        let off16 = b.zext(8, 16, masked);
        let v = b.pkt_load(8, off16);
        let c = b.eq(8, v, 42u64);
        let (t, e) = b.fork(c);
        let _ = t;
        b.emit(1);
        b.switch_to(e);
        b.emit(0);
        let p = b.build().expect("valid");
        let rep = run(&p);
        let ports: Vec<_> = rep
            .segments
            .iter()
            .filter_map(|s| match s.outcome {
                SegOutcome::Emit(p) => Some(p),
                _ => None,
            })
            .collect();
        assert!(ports.contains(&0) && ports.contains(&1));
    }

    #[test]
    fn state_budget_enforced() {
        // Chain of branches on distinct bytes → 2^8 leaves; budget 20.
        let mut b = ProgramBuilder::new("t");
        for i in 0..8 {
            let v = b.pkt_load(8, i as u64);
            let c = b.ult(8, v, 128u64);
            let (t, e) = b.fork(c);
            let _ = t;
            // then-branch continues the chain; else terminates.
            b.switch_to(e);
            b.drop_();
            b.switch_to(t);
        }
        b.emit(0);
        let p = b.build().expect("valid");
        let mut pool = TermPool::new();
        let c = SymConfig {
            max_pkt_bytes: 16,
            max_states: 20,
            ..Default::default()
        };
        let input = SymInput::fresh(&mut pool, &c, "e");
        let mut model = AbstractMapModel::new();
        let err = execute(&mut pool, &p, &input, &mut model, &c).unwrap_err();
        assert!(matches!(err, SymError::StateBudget { .. }));
    }
}
