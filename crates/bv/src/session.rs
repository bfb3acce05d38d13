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
//!   learnt clauses and saved phases accumulated by earlier queries;
//!   callers that need deterministic model bytes minimize the model
//!   themselves, as the step-2 engine does per reported field.
//!
//! Because every query is assumption-driven, UNSAT answers come with
//! an [`crate::Infeasibility`] **core** for free: the subset of the
//! queried constraints whose activation literals the CDCL backend
//! used to derive the contradiction ([`bitsat::Solver::last_core`]).
//! The step-2 search feeds these cores into its subsumption pruner;
//! step 1 reads none and switches the mapping off
//! ([`SolveSession::set_core_extraction`]).

use crate::blast::{BlastMark, Blaster};
use crate::eval::eval;
use crate::interval::{interval_of, Interval, IntervalMemo};
use crate::solver::{Model, SatVerdict, SolverLayerStats};
use crate::term::{TermId, TermPool};
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
        }
    }
}

impl SolveSession {
    /// Creates an empty session with no conflict budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables (`Some(budget)`) or disables (`None`, the default)
    /// drop-one minimization of the UNSAT cores this session reports:
    /// smaller cores subsume more future constraint sets, at the cost
    /// of up to `core.len()` extra budget-capped CDCL calls per UNSAT
    /// answer (see [`bitsat::Solver::set_core_minimize_budget`]).
    pub fn set_core_minimize_budget(&mut self, budget: Option<u64>) {
        self.blaster.set_core_minimize_budget(budget);
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
        self.stack.push(t);
    }

    /// Retires every constraint asserted after `depth` (stack pop back
    /// to a [`SolveSession::depth`] mark) and drops their circuits
    /// from the solver and their intervals from the memo.
    pub fn retire_to(&mut self, depth: usize) {
        debug_assert!(depth <= self.stack.len());
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
                SatVerdict::Sat(Model::from_assignment(a))
            }
            bitsat::SolveResult::Unsat if self.extract_cores => SatVerdict::Unsat(map_core(
                self.blaster.last_core(),
                &assumptions,
                &self.queried(extra),
            )),
            bitsat::SolveResult::Unsat => SatVerdict::Unsat(crate::Infeasibility::default()),
            bitsat::SolveResult::Unknown => SatVerdict::Unknown,
            bitsat::SolveResult::Interrupted => SatVerdict::Interrupted,
        };
        if !extra.is_empty() {
            self.blaster.rollback(query_scope);
        }
        verdict
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
