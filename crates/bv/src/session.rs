//! Incremental solve sessions: persistent bit-blasting and
//! assumption-driven feasibility queries.
//!
//! The step-2 path search issues thousands of closely-related queries:
//! each composed path extends its parent's constraint vector by a few
//! conjuncts, and siblings share their whole prefix. A [`BvSolver`]
//! (crate::BvSolver) re-bit-blasts everything per query; a
//! [`SolveSession`] instead keeps one [`Blaster`] alive for its whole
//! lifetime and maintains an *assertion stack* of active constraints:
//!
//! * every constraint term is blasted **once** — the CNF circuit is
//!   memoized per [`TermId`] (terms are hash-consed, so structurally
//!   equal constraints share one circuit);
//! * each constraint is asserted under an **activation literal**, and
//!   a query solves under the assumptions of the currently-active
//!   constraints only — retiring a constraint is popping the stack,
//!   no solver state is torn down;
//! * the CDCL core keeps its learnt clauses, variable activities and
//!   saved phases across queries ([`bitsat`]'s incremental mode);
//! * growth is bounded by **size-triggered compaction**: once the
//!   dormant (retired) circuits dominate the active set, the CNF is
//!   rebuilt from the active constraints — long refutation searches
//!   keep per-query cost proportional to the live path, not to
//!   everything the session ever blasted.
//!
//! The cheap layers (constructor simplification, intervals) still run
//! per query on the conjunction of the active set, so the layer that
//! answers any given query is identical to a fresh
//! [`BvSolver::check`] (the reference oracle in this crate's tests) on
//! the same constraint list — and so is every *decided* (Sat/Unsat)
//! verdict. Two caveats scope that guarantee:
//!
//! * under a **conflict budget**, which of the two exhausts it can
//!   differ — carried-over learnt clauses and dormant circuits change
//!   the CDCL trajectory, so a query one decides may come back
//!   [`SatVerdict::Unknown`] from the other (budget-free sessions
//!   never diverge);
//! * satisfying *models* for under-constrained queries depend on the
//!   learnt clauses and saved phases accumulated by earlier queries;
//!   callers that need deterministic model bytes minimize the model
//!   themselves, as the step-2 engine does per reported field.
//!
//! Because every query is assumption-driven, UNSAT answers come with
//! an [`crate::Infeasibility`] **core** for free: the subset of the
//! queried constraints whose activation literals the CDCL backend
//! used to derive the contradiction ([`bitsat::Solver::last_core`]).
//! The step-2 search feeds these cores into its subsumption pruner.

use crate::blast::Blaster;
use crate::eval::{eval, Assignment};
use crate::interval::{interval_of, Interval};
use crate::solver::{Model, SatVerdict, SolverLayerStats};
use crate::term::{TermId, TermPool};
use bitsat::Lit;
use std::collections::HashMap;

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
    conflict_budget: Option<u64>,
    /// Active constraints, in assertion order.
    stack: Vec<TermId>,
    /// Activation literal per constraint term blasted into the
    /// current blaster — the blast cache index.
    acts: HashMap<TermId, Lit>,
    /// CDCL counters accrued by blasters retired at compaction
    /// (`learnt_reused`, `decisions`, `propagations` are surfaced
    /// through [`SolveSession::stats`]).
    retired_sat: bitsat::SolverStats,
    /// Drop-one core-minimization budget forwarded to every blaster
    /// (incl. rebuilds after compaction). `None` = off.
    core_minimize_budget: Option<u64>,
    /// Whether UNSAT verdicts carry a mapped [`crate::Infeasibility`]
    /// core (default). Callers that never read cores can switch this
    /// off to skip the per-query activation-literal reverse map and
    /// the cheap-layer core clones.
    extract_cores: bool,
    /// SAT-variable floor below which the session never compacts
    /// ([`COMPACT_MIN_VARS`] by default; lowered only by tests that
    /// need to cross compaction boundaries on small formulas).
    compact_min_vars: usize,
}

/// Compaction floor: below this many SAT variables a session never
/// compacts, so short query streams keep every circuit and clause.
const COMPACT_MIN_VARS: usize = 60_000;

/// Compaction trigger: dormant circuits must outnumber the active
/// constraint set by this factor before a rebuild pays off.
const COMPACT_DORMANT_FACTOR: usize = 4;

impl Default for SolveSession {
    fn default() -> Self {
        SolveSession {
            blaster: Blaster::new(),
            stats: SolverLayerStats::default(),
            conflict_budget: None,
            stack: Vec::new(),
            acts: HashMap::new(),
            retired_sat: bitsat::SolverStats::default(),
            core_minimize_budget: None,
            extract_cores: true,
            compact_min_vars: COMPACT_MIN_VARS,
        }
    }
}

impl SolveSession {
    /// Creates an empty session with no conflict budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lowers the compaction floor (SAT-variable count) so tests can
    /// exercise compaction on small formulas. Not part of the stable
    /// API.
    #[doc(hidden)]
    pub fn set_compaction_floor(&mut self, vars: usize) {
        self.compact_min_vars = vars;
    }

    /// Enables (`Some(budget)`) or disables (`None`, the default)
    /// drop-one minimization of the UNSAT cores this session reports:
    /// smaller cores subsume more future constraint sets, at the cost
    /// of up to `core.len()` extra budget-capped CDCL calls per UNSAT
    /// answer (see [`bitsat::Solver::set_core_minimize_budget`]).
    pub fn set_core_minimize_budget(&mut self, budget: Option<u64>) {
        self.core_minimize_budget = budget;
        self.blaster.set_core_minimize_budget(budget);
    }

    /// Disables (or re-enables; on by default) UNSAT-core reporting.
    /// Verdicts are unaffected — the queries are assumption-driven
    /// either way — but with cores off the session skips the
    /// activation-literal reverse map per blast query and the
    /// constraint-vector clone per cheap-layer refutation, returning
    /// an empty (inert) [`crate::Infeasibility`] instead. Callers that
    /// never consume cores (e.g. the step-2 engine with conflict-driven
    /// pruning disabled) should switch this off.
    pub fn set_core_extraction(&mut self, enabled: bool) {
        self.extract_cores = enabled;
    }

    /// Creates a session whose CDCL calls each get a `budget`-conflict
    /// budget; exceeding it yields [`SatVerdict::Unknown`].
    pub fn with_conflict_budget(budget: u64) -> Self {
        let mut s = SolveSession {
            conflict_budget: Some(budget),
            ..Self::default()
        };
        s.blaster.set_conflict_budget(budget);
        s
    }

    /// Size-triggered compaction. A long search retires far more
    /// constraints than it keeps; their circuits stay in the solver as
    /// dormant gated clauses, and CDCL must still assign every one of
    /// their variables per satisfiable answer — unbounded growth turns
    /// query cost from O(path) into O(everything ever blasted). When
    /// dormant circuits dominate the active set, drop the blaster and
    /// re-blast the active constraints on demand. Learnt clauses are
    /// lost at the boundary (counted separately so the reuse counters
    /// stay monotonic); verdicts are unaffected.
    fn maybe_compact(&mut self, live_terms: usize) {
        if self.blaster.num_sat_vars() < self.compact_min_vars
            || self.acts.len() <= COMPACT_DORMANT_FACTOR * live_terms.max(1)
        {
            return;
        }
        let sat = self.blaster.sat_stats();
        self.retired_sat.learnt_reused += sat.learnt_reused;
        self.retired_sat.decisions += sat.decisions;
        self.retired_sat.propagations += sat.propagations;
        self.blaster = Blaster::new();
        if let Some(b) = self.conflict_budget {
            self.blaster.set_conflict_budget(b);
        }
        self.blaster
            .set_core_minimize_budget(self.core_minimize_budget);
        self.acts.clear();
        self.stats.compactions += 1;
    }

    /// Current assertion-stack depth (a mark for [`SolveSession::retire_to`]).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// The active constraints, in assertion order.
    pub fn active(&self) -> &[TermId] {
        &self.stack
    }

    /// Pushes the width-1 constraint `t` onto the assertion stack. The
    /// term is blasted lazily, on the first blast-layer query that
    /// sees it active.
    pub fn assert_constraint(&mut self, t: TermId) {
        self.stack.push(t);
    }

    /// Retires every constraint asserted after `depth` (stack pop back
    /// to a [`SolveSession::depth`] mark). Retired constraints keep
    /// their blasted circuit — re-asserting the same term later is a
    /// map lookup, not a re-blast.
    pub fn retire_to(&mut self, depth: usize) {
        debug_assert!(depth <= self.stack.len());
        self.stack.truncate(depth);
    }

    /// Decides satisfiability of the active constraint set.
    pub fn check(&mut self, pool: &mut TermPool) -> SatVerdict {
        self.check_assuming(pool, &[])
    }

    /// Decides satisfiability of the active set conjoined with the
    /// ephemeral width-1 `extra` constraints (asserted for this query
    /// only; their circuits stay cached for later queries).
    pub fn check_assuming(&mut self, pool: &mut TermPool, extra: &[TermId]) -> SatVerdict {
        self.stats.queries += 1;
        let mut all: Vec<TermId> = Vec::with_capacity(self.stack.len() + extra.len());
        all.extend_from_slice(&self.stack);
        all.extend_from_slice(extra);
        // Layers 1 and 2 run on the conjunction of the full active
        // set, exactly as `BvSolver` does on the same list — so the
        // answering layer (and the verdict) matches the oracle's.
        let conj = pool.mk_conj(&all);
        if pool.is_true(conj) {
            self.stats.by_simplify += 1;
            return SatVerdict::Sat(Model::default());
        }
        if pool.is_false(conj) {
            self.stats.by_simplify += 1;
            return SatVerdict::Unsat(self.maybe_cheap_core(pool, &all));
        }
        match interval_of(pool, conj) {
            Interval { lo: 1, .. } => {
                self.stats.by_interval += 1;
                return SatVerdict::Sat(Model::default());
            }
            Interval { hi: 0, .. } => {
                self.stats.by_interval += 1;
                return SatVerdict::Unsat(self.maybe_cheap_core(pool, &all));
            }
            _ => {}
        }
        // Layer 3: persistent bit-blast, assumption-driven CDCL.
        self.stats.by_blast += 1;
        self.stats.sat_solve_calls += 1;
        self.maybe_compact(all.len());
        let mut assumptions = Vec::with_capacity(all.len());
        let mut act_term: HashMap<Lit, TermId> = HashMap::new();
        if self.extract_cores {
            act_term.reserve(all.len());
        }
        for &t in &all {
            let act = match self.acts.get(&t) {
                Some(&a) => {
                    self.stats.blast_cache_hits += 1;
                    a
                }
                None => {
                    let a = self.blaster.assert_gated(pool, t);
                    self.acts.insert(t, a);
                    self.stats.blast_cache_misses += 1;
                    a
                }
            };
            if self.extract_cores {
                act_term.insert(act, t);
            }
            assumptions.push(act);
        }
        match self.blaster.check_assuming(&assumptions) {
            bitsat::SolveResult::Sat => {
                let mut a = Assignment::new();
                for id in pool.free_vars(conj) {
                    if let Some(v) = self.blaster.model_var(id) {
                        a.set(id, v);
                    }
                }
                debug_assert_eq!(
                    eval(pool, conj, &a),
                    1,
                    "session model must satisfy the query"
                );
                SatVerdict::Sat(Model::from_assignment(a))
            }
            bitsat::SolveResult::Unsat if self.extract_cores => {
                // Map the assumption-level core (activation literals)
                // back to the constraint terms they gate. Dormant
                // constraints from earlier queries cannot appear: only
                // this query's assumptions are eligible for the core.
                SatVerdict::Unsat(map_core(self.blaster.last_core(), &act_term, &all))
            }
            bitsat::SolveResult::Unsat => SatVerdict::Unsat(crate::Infeasibility::default()),
            bitsat::SolveResult::Unknown => SatVerdict::Unknown,
            bitsat::SolveResult::Interrupted => SatVerdict::Interrupted,
        }
    }

    /// Core for a cheap-layer refutation — empty (no clone) when core
    /// extraction is off.
    fn maybe_cheap_core(&self, pool: &TermPool, all: &[TermId]) -> crate::Infeasibility {
        if self.extract_cores {
            cheap_core(pool, all)
        } else {
            crate::Infeasibility::default()
        }
    }

    /// Syncs the assertion stack to exactly `cs` — retiring past their
    /// longest common prefix and asserting the remainder — then checks
    /// satisfiability. This is the one-call form the path search uses:
    /// composing a segment asserts its new conjuncts, backtracking to
    /// a sibling retires the abandoned suffix, and the shared prefix
    /// is never re-sent to the solver.
    pub fn check_constraints(&mut self, pool: &mut TermPool, cs: &[TermId]) -> SatVerdict {
        let lcp = self
            .stack
            .iter()
            .zip(cs)
            .take_while(|(a, b)| *a == *b)
            .count();
        self.stack.truncate(lcp);
        self.stack.extend_from_slice(&cs[lcp..]);
        self.check_assuming(pool, &[])
    }

    /// Layer statistics accumulated over the session's lifetime,
    /// including the SAT-level reuse counters (summed across
    /// compactions).
    pub fn stats(&self) -> SolverLayerStats {
        let mut s = self.stats;
        let sat = self.blaster.sat_stats();
        s.learnt_reused = self.retired_sat.learnt_reused + sat.learnt_reused;
        s.decisions = self.retired_sat.decisions + sat.decisions;
        s.propagations = self.retired_sat.propagations + sat.propagations;
        s
    }

    /// Propositional statistics of the underlying CDCL solver (the
    /// current blaster only — compaction resets them).
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

/// Maps the CDCL backend's assumption core (activation literals) back
/// to the constraint terms they gate. An empty SAT-level core (the
/// formula was UNSAT with no assumption needed — unreachable with
/// all-gated assertion, but kept defensive) degrades to the full set.
fn map_core(
    sat_core: &[Lit],
    act_term: &HashMap<Lit, TermId>,
    constraints: &[TermId],
) -> crate::Infeasibility {
    let mut core: Vec<TermId> = sat_core
        .iter()
        .filter_map(|l| act_term.get(l).copied())
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
            .field("blasted", &self.acts.len())
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
        let mut pool = TermPool::new();
        let x = pool.fresh_var("x", 8);
        let y = pool.fresh_var("y", 8);
        let one = pool.mk_const(8, 1);
        let c35 = pool.mk_const(8, 35);
        let prod = pool.mk_mul(x, y);
        let eq = pool.mk_eq(prod, c35);
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
    fn compaction_preserves_verdicts_and_counts_rebuilds() {
        // A tiny floor forces compaction between queries; verdicts on
        // either side of every rebuild must still match a fresh
        // solver, and retired-blaster reuse counters stay monotonic.
        let mut pool = TermPool::new();
        let x = pool.fresh_var("x", 8);
        let y = pool.fresh_var("y", 8);
        let mut s = SolveSession::new();
        s.set_compaction_floor(1);
        let mut last_learnt = 0u64;
        for i in 0..24u64 {
            // Rotate through disjoint multiplier constraints so most
            // of what was blasted is dormant by the next query.
            let prod = pool.mk_mul(x, y);
            let c = pool.mk_const(8, 3 + 2 * i);
            let eq = pool.mk_eq(prod, c);
            let one = pool.mk_const(8, 1);
            let gx = pool.mk_ult(one, x);
            let cs = [eq, gx];
            let got = s.check_constraints(&mut pool, &cs);
            let want = fresh_check(&mut pool, &cs);
            assert_eq!(got.is_sat(), want.is_sat(), "query {i} diverged");
            let st = s.stats();
            assert!(st.learnt_reused >= last_learnt, "reuse counter regressed");
            last_learnt = st.learnt_reused;
        }
        assert!(
            s.stats().compactions > 0,
            "tiny floor must trigger compaction: {:?}",
            s.stats()
        );
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
