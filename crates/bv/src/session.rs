//! Incremental solve sessions: persistent bit-blasting and
//! assumption-driven feasibility queries.
//!
//! Both verification steps issue streams of closely-related queries.
//! Step 1's executor asks one feasibility question per fork, and its
//! LIFO worklist makes consecutive questions extend or share a path
//! condition; the step-2 path search issues thousands more, each
//! composed path extending its parent's constraint vector by a few
//! conjuncts, siblings sharing their whole prefix. A [`BvSolver`]
//! (crate::BvSolver) — the test oracle — re-bit-blasts everything per
//! query; a [`SolveSession`] instead keeps one [`Blaster`] alive for
//! its whole lifetime and maintains an *assertion stack* of active
//! constraints:
//!
//! * every stack entry is blasted **once**, lazily, on the first
//!   blast-layer query that sees it active, inside a **scope** of its
//!   own ([`Blaster::mark`]): its circuit (sharing the gates of the
//!   entries below it — terms are hash-consed and memoized per
//!   [`TermId`]) plus one clause gating its root on a fresh
//!   activation literal;
//! * a query solves under the activation literals of the active
//!   entries; ephemeral extras get a scope that lasts for the one
//!   query;
//! * retiring an entry rolls the blaster back to the entry's mark
//!   ([`Blaster::rollback`]): the circuit, its variables and every
//!   learnt clause that names them **leave the solver**, so it holds
//!   exactly the circuits of the active stack and a query costs
//!   O(live path) however long the session has run. A term asserted
//!   again later is blasted again;
//! * the CDCL core keeps, across queries and pops alike, its variable
//!   activities, saved phases and the learnt clauses over the
//!   surviving variables ([`bitsat`]'s incremental mode). That is
//!   sound because a popped scope is a conservative extension of what
//!   is below it — gate definitions of fresh outputs and a clause
//!   that a fresh literal switches off — so anything it implied about
//!   the surviving variables alone already followed without it.
//!
//! The cheap layers (constructor simplification, intervals) still
//! answer per query for the conjunction of the active set, so the
//! layer that answers any given query is identical to a fresh
//! [`BvSolver::check`] (the reference oracle in this crate's tests) on
//! the same constraint list — and so is every *decided* (Sat/Unsat)
//! verdict. They too pay only for what a query adds: the conjunction
//! is a left fold kept per stack entry, and the interval of every term
//! under it sits in a memo with **the blaster's scope rule** — an
//! entry is logged under the stack entry whose fold first reached it
//! and leaves in [`SolveSession::retire_to`] with that entry, an
//! ephemeral extra's entries leave with its query. An interval is a
//! pure function of its term, so the memo answers exactly as
//! [`interval_of`] on the whole conjunction does (a `debug_assert!`
//! holds it to that); the scopes keep it at O(live path) entries. A
//! `Sat` model is likewise read off the blaster's live variables —
//! every live scope belongs to a queried constraint — not collected
//! by a walk of the conjunction. Two caveats scope the verdict
//! guarantee:
//!
//! * under a **conflict budget**, which of the two exhausts it can
//!   differ — carried-over learnt clauses, activities and phases
//!   change the CDCL trajectory, so a query one decides may come back
//!   [`SatVerdict::Unknown`] from the other (budget-free sessions
//!   never diverge). Both callers read `Unknown` conservatively —
//!   step 1 as "feasible" (a spurious segment step 2 then discards),
//!   step 2 as an `Unknown` verdict — and a session stays correct
//!   after one: the next query rolls the starved scope back like any
//!   other;
//! * satisfying *models* for under-constrained queries depend on the
//!   learnt clauses and saved phases accumulated by earlier queries.
//!   Callers that need deterministic model bytes ask the session for
//!   the lexicographically smallest model over the fields they report
//!   ([`SolveSession::lex_min_model`]), as the step-2 engine does for
//!   every counterexample: a pure function of the active constraints'
//!   semantics, found on the circuits the session already holds.
//!
//! Because every query is assumption-driven, UNSAT answers come with
//! an [`crate::Infeasibility`] **core** for free: the subset of the
//! queried constraints whose activation literals the CDCL backend
//! used to derive the contradiction ([`bitsat::Solver::last_core`]).
//! The step-2 search feeds these cores into its subsumption pruner;
//! step 1 reads none and switches the mapping off
//! ([`SolveSession::set_core_extraction`]).

use crate::blast::{BlastMark, Blaster};
use crate::eval::{eval, Assignment};
use crate::interval::{interval_of, Interval, IntervalMemo};
use crate::solver::{Model, SatVerdict, SolverLayerStats};
use crate::term::{Term, TermId, TermPool};
use bitsat::Lit;

/// An incremental solving session over one [`TermPool`].
///
/// ```
/// use bvsolve::{SolveSession, TermPool};
///
/// let mut pool = TermPool::new();
/// let x = pool.fresh_var("x", 8);
/// let c5 = pool.mk_const(8, 5);
/// let c3 = pool.mk_const(8, 3);
/// let lt = pool.mk_ult(x, c5);
/// let gt = pool.mk_ult(c3, x);
///
/// let mut s = SolveSession::new();
/// s.assert_constraint(lt);
/// let mark = s.depth();
/// s.assert_constraint(gt);
/// assert!(s.check(&mut pool).is_sat()); // 3 < x < 5
/// s.retire_to(mark);                    // drop `gt`, keep `lt`
/// let four = pool.mk_const(8, 4);
/// let ge4 = pool.mk_ule(four, x);
/// assert!(s.check_assuming(&mut pool, &[ge4]).is_sat()); // x == 4
/// ```
pub struct SolveSession {
    blaster: Blaster,
    stats: SolverLayerStats,
    /// Active constraints, in assertion order.
    stack: Vec<TermId>,
    /// One scope per blasted stack entry — a prefix of `stack`: the
    /// mark taken before the entry was blasted and the activation
    /// literal gating it.
    scopes: Vec<(BlastMark, Lit)>,
    /// One entry per folded stack entry — a prefix of `stack`: the
    /// conjunction of the stack up to and including the entry, and the
    /// size of `intervals` before the entry's terms went in.
    folded: Vec<(TermId, usize)>,
    /// The interval of every term under the folded conjunctions.
    intervals: IntervalMemo,
    /// Whether UNSAT verdicts carry a mapped [`crate::Infeasibility`]
    /// core (default). Callers that never read cores can switch this
    /// off to skip the core mapping and the cheap-layer core clones.
    extract_cores: bool,
    /// Whether the CDCL trail is a model of the whole active stack,
    /// left by a blast-layer `Sat` under exactly the stack's activation
    /// literals — what [`SolveSession::lex_min_model`] starts from.
    sat_trail: bool,
}

impl Default for SolveSession {
    fn default() -> Self {
        SolveSession {
            blaster: Blaster::new(),
            stats: SolverLayerStats::default(),
            stack: Vec::new(),
            scopes: Vec::new(),
            folded: Vec::new(),
            intervals: IntervalMemo::default(),
            extract_cores: true,
            sat_trail: false,
        }
    }
}

impl SolveSession {
    /// Creates an empty session with no conflict budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Disables (or re-enables; on by default) UNSAT-core reporting.
    /// Verdicts are unaffected — the queries are assumption-driven
    /// either way — but with cores off the session skips mapping the
    /// assumption core back to terms per refuted blast query and the
    /// constraint-vector clone per cheap-layer refutation, returning
    /// an empty (inert) [`crate::Infeasibility`] instead. Callers that
    /// never consume cores (the step-1 executor; the step-2 engine with
    /// conflict-driven pruning disabled) should switch this off.
    pub fn set_core_extraction(&mut self, enabled: bool) {
        self.extract_cores = enabled;
    }

    /// Creates a session whose CDCL calls each get a `budget`-conflict
    /// budget; exceeding it yields [`SatVerdict::Unknown`].
    pub fn with_conflict_budget(budget: u64) -> Self {
        let mut s = Self::default();
        s.blaster.set_conflict_budget(budget);
        s
    }

    /// Current assertion-stack depth (a mark for [`SolveSession::retire_to`]).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// The active constraints, in assertion order.
    pub fn active(&self) -> &[TermId] {
        &self.stack
    }

    /// SAT variables the blaster currently holds: the circuits of the
    /// blasted part of the active stack and nothing else.
    pub fn num_sat_vars(&self) -> usize {
        self.blaster.num_sat_vars()
    }

    /// Interval results the session currently holds: at most one per
    /// term under the conjunction of the active stack, and none once
    /// the stack is empty.
    pub fn num_intervals(&self) -> usize {
        self.intervals.len()
    }

    /// Pushes the width-1 constraint `t` onto the assertion stack. The
    /// term is folded into the conjunction by the next query and
    /// blasted lazily, on the first blast-layer query that sees it
    /// active.
    pub fn assert_constraint(&mut self, t: TermId) {
        self.sat_trail = false;
        self.stack.push(t);
    }

    /// Retires every constraint asserted after `depth` (stack pop back
    /// to a [`SolveSession::depth`] mark) and drops their circuits
    /// from the solver and their intervals from the memo.
    pub fn retire_to(&mut self, depth: usize) {
        debug_assert!(depth <= self.stack.len());
        self.sat_trail &= depth == self.stack.len();
        self.stack.truncate(depth);
        if let Some(&(_, mark)) = self.folded.get(depth) {
            self.intervals.truncate(mark);
            self.folded.truncate(depth);
        }
        if let Some(&(mark, _)) = self.scopes.get(depth) {
            self.blaster.rollback(mark);
            self.scopes.truncate(depth);
        }
    }

    /// Decides satisfiability of the active constraint set.
    pub fn check(&mut self, pool: &mut TermPool) -> SatVerdict {
        self.check_assuming(pool, &[])
    }

    /// Decides satisfiability of the active set conjoined with the
    /// ephemeral width-1 `extra` constraints (asserted, blasted and
    /// dropped again within this query).
    pub fn check_assuming(&mut self, pool: &mut TermPool, extra: &[TermId]) -> SatVerdict {
        self.stats.queries += 1;
        self.sat_trail = false;
        // Layers 1 and 2 answer for the conjunction of the full active
        // set, the left fold `BvSolver` builds from the same list — so
        // the answering layer (and the verdict) matches the oracle's.
        // Only the entries no earlier query folded are folded here,
        // each with its intervals logged in a scope of its own.
        let mut conj = match self.folded.last() {
            Some(&(prefix, _)) => prefix,
            None => pool.mk_true(),
        };
        for &t in &self.stack[self.folded.len()..] {
            let mark = self.intervals.len();
            conj = pool.mk_bool_and(conj, t);
            self.intervals.interval(pool, conj);
            self.folded.push((conj, mark));
        }
        let ephemeral = self.intervals.len();
        for &t in extra {
            conj = pool.mk_bool_and(conj, t);
        }
        let range = self.intervals.interval(pool, conj);
        self.intervals.truncate(ephemeral);
        debug_assert_eq!(
            range,
            interval_of(pool, conj),
            "the scoped interval memo must answer as a whole walk does"
        );
        if pool.is_true(conj) {
            self.stats.by_simplify += 1;
            return SatVerdict::Sat(Model::default());
        }
        if pool.is_false(conj) {
            self.stats.by_simplify += 1;
            return SatVerdict::Unsat(self.maybe_cheap_core(pool, extra));
        }
        match range {
            Interval { lo: 1, .. } => {
                self.stats.by_interval += 1;
                return SatVerdict::Sat(Model::default());
            }
            Interval { hi: 0, .. } => {
                self.stats.by_interval += 1;
                return SatVerdict::Unsat(self.maybe_cheap_core(pool, extra));
            }
            _ => {}
        }
        // Layer 3: persistent bit-blast, assumption-driven CDCL.
        self.stats.by_blast += 1;
        self.stats.sat_solve_calls += 1;
        self.stats.blast_cache_hits += self.scopes.len() as u64;
        self.stats.blast_cache_misses +=
            (self.stack.len() + extra.len() - self.scopes.len()) as u64;
        for &t in &self.stack[self.scopes.len()..] {
            let mark = self.blaster.mark();
            self.scopes.push((mark, self.blaster.assert_gated(pool, t)));
        }
        let mut assumptions: Vec<Lit> = self.scopes.iter().map(|&(_, act)| act).collect();
        let query_scope = self.blaster.mark();
        for &t in extra {
            assumptions.push(self.blaster.assert_gated(pool, t));
        }
        let verdict = match self.blaster.check_assuming(&assumptions) {
            bitsat::SolveResult::Sat => {
                // Every live scope belongs to a queried constraint, so
                // the blaster's variables are the query's variables.
                let a = self.blaster.live_model();
                debug_assert_eq!(
                    eval(pool, conj, &a),
                    1,
                    "session model must satisfy the query"
                );
                debug_assert!(
                    pool.free_vars(conj)
                        .into_iter()
                        .all(|id| Some(a.get(id)) == self.blaster.model_var(id)),
                    "the live model must cover every free variable of the query"
                );
                self.sat_trail = extra.is_empty();
                SatVerdict::Sat(Model::from_assignment(a))
            }
            bitsat::SolveResult::Unsat if self.extract_cores => SatVerdict::Unsat(map_core(
                self.blaster.last_core(),
                &assumptions,
                &self.queried(extra),
            )),
            bitsat::SolveResult::Unsat => SatVerdict::Unsat(crate::Infeasibility::default()),
            bitsat::SolveResult::Unknown => SatVerdict::Unknown,
        };
        if !extra.is_empty() {
            self.blaster.rollback(query_scope);
        }
        verdict
    }

    /// The **lexicographically smallest model** of the active stack over
    /// `fields`, each read MSB first: the first field as small as any
    /// model allows, the next as small as any model with the first at
    /// that value allows, and so on. Once the first field's value is
    /// known, `reported(value)` says how many of the remaining fields
    /// are minimised; the model names exactly the minimised ones.
    /// Minimality makes the answer a function of the active constraints'
    /// semantics alone — not of the learnt clauses, phases or variable
    /// numbering earlier queries left behind — so a warm session and a
    /// fresh one report the same values.
    ///
    /// Every field must be a variable term; one that no active
    /// constraint names is unconstrained and reads 0. The walk pins
    /// bits with assumptions on the circuits the session already holds,
    /// keeping one growing assumption list: a bit the current model has
    /// at 0 is pinned to 0, a bit the assumptions of the last `Sat`
    /// fixed keeps its value, and only the rest cost a CDCL call with
    /// the bit negated — `Sat` pins it to 0 and moves to the new model,
    /// `Unsat` pins it to 1 and keeps the old one. The first model is
    /// the trail of the blast-layer `Sat` that just answered the active
    /// stack, when there is one; otherwise (a cheap layer answered, or
    /// the stack moved since) the pending entries are blasted and
    /// solved once. No term is interned and no circuit is added beyond
    /// those pending entries, which leave again with everything else
    /// the walk did ([`Blaster::mark`]/[`Blaster::rollback`]): depth,
    /// SAT variables and pool are as the session had them, and only
    /// the CDCL core keeps what it learnt. Its calls count in
    /// [`SolverLayerStats::sat_solve_calls`] and not as queries.
    ///
    /// `None` if the active stack is unsatisfiable or a call exhausts
    /// the conflict budget.
    pub fn lex_min_model(
        &mut self,
        pool: &TermPool,
        fields: &[TermId],
        reported: impl FnOnce(u64) -> usize,
    ) -> Option<Model> {
        let scope = self.blaster.mark();
        let model = self.lex_min_in_scope(pool, fields, reported);
        self.blaster.rollback(scope);
        self.sat_trail = false;
        model
    }

    /// [`SolveSession::lex_min_model`] inside its scope.
    fn lex_min_in_scope(
        &mut self,
        pool: &TermPool,
        fields: &[TermId],
        reported: impl FnOnce(u64) -> usize,
    ) -> Option<Model> {
        let mut pins: Vec<Lit> = self.scopes.iter().map(|&(_, act)| act).collect();
        if !self.sat_trail {
            for &t in &self.stack[self.scopes.len()..] {
                pins.push(self.blaster.assert_gated(pool, t));
            }
            if !self.extraction_solve(&pins)? {
                return None;
            }
        }
        let ids: Vec<u32> = fields
            .iter()
            .map(|&t| match *pool.get(t) {
                Term::Var { id, .. } => id,
                _ => panic!("lex_min_model: field {t:?} is not a variable term"),
            })
            .collect();
        let lits: Vec<Vec<Lit>> = ids
            .iter()
            .map(|&id| {
                self.blaster
                    .var_lits(id)
                    .map_or(Vec::new(), <[Lit]>::to_vec)
            })
            .collect();
        // Per field, the current model's value and the bits the last
        // `Sat`'s assumptions fixed. A field with no bits reads 0.
        let read = |blaster: &Blaster, lits: &[Lit]| {
            lits.iter()
                .enumerate()
                .fold((0u64, 0u64), |(value, fixed), (i, &l)| {
                    debug_assert!(blaster.model_lit(l).is_some(), "a live bit left unassigned");
                    let one = u64::from(blaster.model_lit(l) == Some(true));
                    let forced = u64::from(blaster.fixed_by_assumptions(l));
                    (value | one << i, fixed | forced << i)
                })
        };
        let mut witness: Vec<(u64, u64)> = lits.iter().map(|l| read(&self.blaster, l)).collect();
        let mut reported = Some(reported);
        let mut count = fields.len();
        let mut out = Assignment::new();
        let mut j = 0;
        while j < count {
            let mut value = 0u64;
            for (i, &l) in lits[j].iter().enumerate().rev() {
                let (model, fixed) = witness[j];
                match (model >> i & 1 == 1, fixed >> i & 1 == 1) {
                    (false, true) => {}
                    (false, false) => pins.push(!l),
                    (true, true) => value |= 1 << i,
                    (true, false) => {
                        pins.push(!l);
                        if self.extraction_solve(&pins)? {
                            for k in j..count {
                                witness[k] = read(&self.blaster, &lits[k]);
                            }
                        } else {
                            *pins.last_mut().expect("just pushed") = l;
                            value |= 1 << i;
                        }
                    }
                }
            }
            debug_assert_eq!(witness[j].0, value, "the model must carry the minimum");
            out.set(ids[j], value);
            if let Some(reported) = reported.take() {
                count = 1 + reported(value).min(fields.len() - 1);
            }
            j += 1;
        }
        Some(Model::from_assignment(out))
    }

    /// One CDCL call of [`SolveSession::lex_min_model`] under `pins`:
    /// `Some(sat)`, or `None` when the budget ran out.
    fn extraction_solve(&mut self, pins: &[Lit]) -> Option<bool> {
        self.stats.sat_solve_calls += 1;
        match self.blaster.check_assuming(pins) {
            bitsat::SolveResult::Sat => Some(true),
            bitsat::SolveResult::Unsat => Some(false),
            bitsat::SolveResult::Unknown => None,
        }
    }

    /// The constraint list a query with `extra` is about.
    fn queried(&self, extra: &[TermId]) -> Vec<TermId> {
        [&self.stack[..], extra].concat()
    }

    /// Core for a cheap-layer refutation — empty (no clone) when core
    /// extraction is off.
    fn maybe_cheap_core(&self, pool: &TermPool, extra: &[TermId]) -> crate::Infeasibility {
        if self.extract_cores {
            cheap_core(pool, &self.queried(extra))
        } else {
            crate::Infeasibility::default()
        }
    }

    /// Syncs the assertion stack to exactly `cs` — retiring past their
    /// longest common prefix and asserting the remainder — then checks
    /// satisfiability. This is the one-call form both steps use:
    /// composing a segment (step 2) or taking a branch (step 1) asserts
    /// its new conjuncts, backtracking to a sibling retires the
    /// abandoned suffix, and the shared prefix is never re-sent to the
    /// solver.
    pub fn check_constraints(&mut self, pool: &mut TermPool, cs: &[TermId]) -> SatVerdict {
        let lcp = self
            .stack
            .iter()
            .zip(cs)
            .take_while(|(a, b)| *a == *b)
            .count();
        self.retire_to(lcp);
        self.stack.extend_from_slice(&cs[lcp..]);
        self.check_assuming(pool, &[])
    }

    /// Layer statistics accumulated over the session's lifetime,
    /// including the SAT-level reuse counters.
    pub fn stats(&self) -> SolverLayerStats {
        let sat = self.blaster.sat_stats();
        SolverLayerStats {
            learnt_reused: sat.learnt_reused,
            decisions: sat.decisions,
            propagations: sat.propagations,
            ..self.stats
        }
    }

    /// Propositional statistics of the underlying CDCL solver.
    pub fn sat_stats(&self) -> bitsat::SolverStats {
        self.blaster.sat_stats()
    }
}

/// The best core a cheap (non-blast) layer can offer: the single
/// constraint that already simplified to `false`, or — when only the
/// *conjunction* was refuted — the full queried set, which is a
/// trivially correct (if unminimized) core.
fn cheap_core(pool: &TermPool, constraints: &[TermId]) -> crate::Infeasibility {
    let core = match constraints.iter().find(|&&t| pool.is_false(t)) {
        Some(&t) => vec![t],
        None => constraints.to_vec(),
    };
    crate::Infeasibility { core }
}

/// Maps the CDCL backend's assumption core back to the constraint
/// terms: `assumptions[i]` is the activation literal gating
/// `constraints[i]`. An empty SAT-level core (the formula was UNSAT
/// with no assumption needed — unreachable with all-gated assertion,
/// but kept defensive) degrades to the full set.
fn map_core(sat_core: &[Lit], assumptions: &[Lit], constraints: &[TermId]) -> crate::Infeasibility {
    let mut core: Vec<TermId> = assumptions
        .iter()
        .zip(constraints)
        .filter(|(act, _)| sat_core.contains(act))
        .map(|(_, &t)| t)
        .collect();
    if core.is_empty() {
        core = constraints.to_vec();
    } else {
        core.sort_unstable();
        core.dedup();
    }
    crate::Infeasibility { core }
}

impl std::fmt::Debug for SolveSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveSession")
            .field("active", &self.stack.len())
            .field("blasted", &self.scopes.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::BvSolver;

    /// Checks `cs` on a throwaway fresh solver with the same layering
    /// — the reference the equivalence tests compare sessions against.
    fn fresh_check(pool: &mut TermPool, cs: &[TermId]) -> SatVerdict {
        BvSolver::new().check(pool, cs)
    }

    #[test]
    fn session_matches_fresh_on_prefix_walk() {
        let mut pool = TermPool::new();
        let x = pool.fresh_var("x", 8);
        let y = pool.fresh_var("y", 8);
        let c50 = pool.mk_const(8, 50);
        let c20 = pool.mk_const(8, 20);
        let sum = pool.mk_add(x, y);
        let e = pool.mk_eq(sum, c50);
        let g = pool.mk_ult(c20, x);
        let l = pool.mk_ult(x, c20);

        let mut s = SolveSession::new();
        s.assert_constraint(e);
        assert!(s.check(&mut pool).is_sat());
        let mark = s.depth();
        s.assert_constraint(g);
        assert!(s.check(&mut pool).is_sat());
        // Sibling branch: retire `g`, assert the contradiction pair.
        s.retire_to(mark);
        s.assert_constraint(g);
        s.assert_constraint(l);
        assert!(s.check(&mut pool).is_unsat());
        // And the fresh solver agrees on the same active sets.
        assert!(fresh_check(&mut pool, &[e, g]).is_sat());
        assert!(fresh_check(&mut pool, &[e, g, l]).is_unsat());
    }

    #[test]
    fn blast_cache_and_learnt_reuse_counters() {
        // Factoring 251 * 241 over a product too wide to wrap: the
        // first call cannot find the one factor pair without conflicts.
        let mut pool = TermPool::new();
        let x = pool.fresh_var("x", 16);
        let y = pool.fresh_var("y", 16);
        let one = pool.mk_const(16, 1);
        let semiprime = pool.mk_const(32, 251 * 241);
        let (wx, wy) = (pool.mk_zext(x, 32), pool.mk_zext(y, 32));
        let prod = pool.mk_mul(wx, wy);
        let eq = pool.mk_eq(prod, semiprime);
        let gx = pool.mk_ult(one, x);
        let gy = pool.mk_ult(one, y);

        let mut s = SolveSession::new();
        s.assert_constraint(eq);
        s.assert_constraint(gx);
        assert!(s.check(&mut pool).is_sat());
        s.assert_constraint(gy);
        assert!(s.check(&mut pool).is_sat());
        let st = s.stats();
        assert_eq!(st.queries, 2);
        assert_eq!(st.by_blast, 2);
        assert_eq!(st.blast_cache_misses, 3, "each term blasted once");
        assert_eq!(st.blast_cache_hits, 2, "second query reuses the prefix");
        assert!(
            st.learnt_reused > 0,
            "the multiplier forces conflicts; call 2 must reuse them: {st:?}"
        );
    }

    #[test]
    fn cheap_layers_still_answer_in_session_mode() {
        let mut pool = TermPool::new();
        let x = pool.fresh_var("x", 8);
        let mut s = SolveSession::new();
        // Simplify: x == x.
        let t = pool.mk_eq(x, x);
        s.assert_constraint(t);
        assert!(s.check(&mut pool).is_sat());
        assert_eq!(s.stats().by_simplify, 1);
        // Interval: (x & 3) < 100.
        let c3 = pool.mk_const(8, 3);
        let c100 = pool.mk_const(8, 100);
        let m = pool.mk_and(x, c3);
        let lt = pool.mk_ult(m, c100);
        s.assert_constraint(lt);
        assert!(s.check(&mut pool).is_sat());
        assert_eq!(s.stats().by_interval, 1);
        assert_eq!(s.stats().by_blast, 0);
    }

    #[test]
    fn popped_scopes_leave_the_solver_and_verdicts_hold() {
        // Rotate through disjoint multiplier constraints: each query
        // pops the previous one's circuits. Verdicts must match a
        // fresh solver — also for a term asserted again after its
        // scope was popped — the reuse counter never regresses, and
        // the solver never holds more than one product's circuits.
        let mut pool = TermPool::new();
        let x = pool.fresh_var("x", 8);
        let y = pool.fresh_var("y", 8);
        let prod = pool.mk_mul(x, y);
        let one = pool.mk_const(8, 1);
        let gx = pool.mk_ult(one, x);
        let mut s = SolveSession::new();
        let mut last_learnt = 0u64;
        let mut one_product = None;
        // The second round re-asserts every term of the first.
        for i in (0..24u64).chain(0..24) {
            let c = pool.mk_const(8, 3 + 2 * i);
            let eq = pool.mk_eq(prod, c);
            let cs = [eq, gx];
            let got = s.check_constraints(&mut pool, &cs);
            let want = fresh_check(&mut pool, &cs);
            assert_eq!(got.is_sat(), want.is_sat(), "query {i} diverged");
            let st = s.stats();
            assert!(st.learnt_reused >= last_learnt, "reuse counter regressed");
            last_learnt = st.learnt_reused;
            let vars = *one_product.get_or_insert(s.num_sat_vars());
            assert!(
                s.num_sat_vars() <= vars + 16,
                "query {i} left circuits behind"
            );
        }
        assert_eq!(s.stats().compactions, 0);
        s.retire_to(0);
        assert_eq!(s.num_sat_vars(), SolveSession::new().num_sat_vars());
    }

    /// The variable id of a variable term.
    fn var_id(pool: &TermPool, t: TermId) -> u32 {
        match *pool.get(t) {
            Term::Var { id, .. } => id,
            _ => panic!("not a variable"),
        }
    }

    #[test]
    fn lex_min_model_is_none_when_unsat_or_starved() {
        let mut pool = TermPool::new();
        let x = pool.fresh_var("x", 8);
        let (c3, c5) = (pool.mk_const(8, 3), pool.mk_const(8, 5));
        let (lt, gt) = (pool.mk_ult(x, c3), pool.mk_ult(c5, x));
        let mut s = SolveSession::new();
        s.assert_constraint(lt);
        s.assert_constraint(gt);
        assert!(
            s.lex_min_model(&pool, &[x], |_| 0).is_none(),
            "never checked"
        );
        assert!(s.check(&mut pool).is_unsat());
        assert!(s.lex_min_model(&pool, &[x], |_| 0).is_none(), "checked");

        // 251 * 241 again: one conflict cannot factor it, let alone
        // show that no smaller first factor exists.
        let x = pool.fresh_var("x", 16);
        let y = pool.fresh_var("y", 16);
        let one = pool.mk_const(16, 1);
        let semiprime = pool.mk_const(32, 251 * 241);
        let (wx, wy) = (pool.mk_zext(x, 32), pool.mk_zext(y, 32));
        let prod = pool.mk_mul(wx, wy);
        let cs = [
            pool.mk_eq(prod, semiprime),
            pool.mk_ult(one, x),
            pool.mk_ult(one, y),
        ];
        let mut s = SolveSession::with_conflict_budget(1);
        s.check_constraints(&mut pool, &cs);
        assert!(s.lex_min_model(&pool, &[x, y], |_| 1).is_none());
        // Unstarved, the smaller factor comes first.
        let mut s = SolveSession::new();
        assert!(s.check_constraints(&mut pool, &cs).is_sat());
        let m = s.lex_min_model(&pool, &[x, y], |_| 1).expect("sat");
        assert_eq!(
            (m.var(var_id(&pool, x)), m.var(var_id(&pool, y))),
            (241, 251)
        );
    }

    #[test]
    fn lex_min_model_leaves_the_session_as_it_found_it() {
        let mut pool = TermPool::new();
        let x = pool.fresh_var("x", 8);
        let y = pool.fresh_var("y", 8);
        let z = pool.fresh_var("z", 8);
        let c50 = pool.mk_const(8, 50);
        let c20 = pool.mk_const(8, 20);
        let sum = pool.mk_add(x, y);
        let e = pool.mk_eq(sum, c50);
        let g = pool.mk_ult(c20, x);
        // Interval-decided: (z & 3) < 100.
        let c3 = pool.mk_const(8, 3);
        let c100 = pool.mk_const(8, 100);
        let masked = pool.mk_and(z, c3);
        let small = pool.mk_ult(masked, c100);
        let fields = [x, y, z];
        let want = |pool: &TermPool, m: &Model| {
            let ids = fields.map(|t| var_id(pool, t));
            ids.map(|id| m.var(id))
        };

        let mut s = SolveSession::new();
        // A blast-layer Sat, whose trail the extraction starts from;
        // then the same stack after a query with an extra conjunct,
        // which leaves no trail of the stack behind.
        assert!(s.check_constraints(&mut pool, &[e, g]).is_sat());
        let l = pool.mk_ult(x, c50);
        for extra in [None, Some(l)] {
            if let Some(extra) = extra {
                assert!(s.check_assuming(&mut pool, &[extra]).is_sat());
            }
            let found = (s.depth(), s.num_sat_vars(), pool.len(), s.stats().queries);
            let m = s.lex_min_model(&pool, &fields, |_| 2).expect("sat");
            assert_eq!(want(&pool, &m), [21, 29, 0]);
            let left = (s.depth(), s.num_sat_vars(), pool.len(), s.stats().queries);
            assert_eq!(left, found);
            assert!(
                s.check(&mut pool).is_sat(),
                "the next check answers as before"
            );
        }

        // A cheap-layer Sat with nothing blasted yet: the extraction
        // blasts the stack inside its own scope and takes it out again.
        let mut s = SolveSession::new();
        assert!(s.check_constraints(&mut pool, &[small]).is_sat());
        assert_eq!(s.stats().by_interval, 1);
        let found = (s.depth(), s.num_sat_vars(), pool.len());
        let m = s.lex_min_model(&pool, &fields, |_| 2).expect("sat");
        assert_eq!(want(&pool, &m), [0, 0, 0]);
        assert_eq!((s.depth(), s.num_sat_vars(), pool.len()), found);
        assert!(s.check(&mut pool).is_sat());
        assert_eq!(s.stats().by_blast, 0, "still answered by intervals");
        s.assert_constraint(l);
        assert!(s.check(&mut pool).is_sat());
        assert!(s.stats().sat_solve_calls > s.stats().by_blast);
    }

    #[test]
    fn ephemeral_extras_do_not_stick() {
        let mut pool = TermPool::new();
        let x = pool.fresh_var("x", 8);
        let c5 = pool.mk_const(8, 5);
        let lt = pool.mk_ult(x, c5);
        let ge = pool.mk_ule(c5, x);
        let mut s = SolveSession::new();
        s.assert_constraint(lt);
        assert!(s.check_assuming(&mut pool, &[ge]).is_unsat());
        // The contradicting extra was per-query only.
        assert!(s.check(&mut pool).is_sat());
        assert_eq!(s.depth(), 1);
    }
}
