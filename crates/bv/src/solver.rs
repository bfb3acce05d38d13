//! The layered decision procedure: simplify → intervals → bit-blast.

use crate::blast::Blaster;
use crate::eval::{eval, Assignment};
use crate::interval::{interval_of, Interval};
use crate::term::{TermId, TermPool};

/// Why a query was infeasible: an **UNSAT core** over the queried
/// constraint terms.
///
/// `core` is a subset of the constraints handed to the solver whose
/// conjunction is already unsatisfiable on its own — so any future
/// query whose constraint set contains every core term can be refuted
/// without touching a solver. Cores come from assumption-level
/// conflict analysis in the CDCL backend ([`bitsat::Solver::last_core`])
/// when the bit-blast layer answers, and degrade to the full queried
/// set when a cheap layer (simplification, intervals) refutes the
/// conjunction as a whole. Terms are hash-consed per [`TermPool`], so
/// a core is meaningful for exactly the pool that produced it.
#[derive(Debug, Clone, Default)]
pub struct Infeasibility {
    /// The core: constraint terms whose conjunction is UNSAT. Empty
    /// means *no core information* ([`BvSolver`] never attributes its
    /// refutations; a [`crate::SolveSession`] can be told not to),
    /// never "true is UNSAT"; consumers must treat an empty core as
    /// inert.
    pub core: Vec<TermId>,
}

/// Outcome of a feasibility query.
#[derive(Debug, Clone)]
pub enum SatVerdict {
    /// Satisfiable, with a model assigning every relevant variable.
    Sat(Model),
    /// Unsatisfiable, with an [`Infeasibility`] core explaining why.
    Unsat(Infeasibility),
    /// Budget exhausted (only possible with a conflict budget set).
    Unknown,
    /// A cancelled query. Nothing constructs it: the CDCL backend has
    /// no cancellation hook. It stays only because the repo
    /// benchmark's probes (`benchmark/src/probes.rs`) match it; treat
    /// it like [`SatVerdict::Unknown`].
    Interrupted,
}

impl SatVerdict {
    /// `true` iff satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatVerdict::Sat(_))
    }

    /// `true` iff unsatisfiable.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatVerdict::Unsat(_))
    }
}

/// A satisfying assignment, mapping symbolic variables to values.
#[derive(Debug, Clone, Default)]
pub struct Model {
    assignment: Assignment,
}

impl Model {
    /// Builds a model from a raw assignment.
    pub fn from_assignment(assignment: Assignment) -> Self {
        Model { assignment }
    }

    /// The value of symbolic variable `id` (0 if irrelevant).
    pub fn var(&self, id: u32) -> u64 {
        self.assignment.get(id)
    }

    /// Evaluates an arbitrary term under this model (variables the
    /// query left unconstrained read as 0).
    pub fn value_of(&self, t: TermId, pool: &TermPool) -> u64 {
        eval(pool, t, &self.assignment)
    }

    /// The underlying assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }
}

/// Which layer of the stack answered each query, and what the
/// incremental session reused.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverLayerStats {
    /// Queries answered by constructor-level simplification alone
    /// (the conjunction folded to a constant).
    pub by_simplify: u64,
    /// Queries answered by interval analysis.
    pub by_interval: u64,
    /// Queries that reached the bit-blaster.
    pub by_blast: u64,
    /// Total feasibility queries (the `check*` calls; the `by_*`
    /// counters split them by the layer that answered).
    /// [`crate::SolveSession::lex_min_model`] is not a query and counts
    /// in neither.
    pub queries: u64,
    /// Stack entries found already blasted and asserted when a
    /// blast-layer query ran — the [`crate::SolveSession`] prefix
    /// reuse counter. Always 0 from a [`BvSolver`].
    pub blast_cache_hits: u64,
    /// Constraint terms blasted and asserted for the first time by a
    /// blast-layer query (a [`BvSolver`] counts one conjunction per query).
    pub blast_cache_misses: u64,
    /// Learnt clauses carried over across SAT calls (see
    /// [`bitsat::SolverStats`]). Always 0 from a [`BvSolver`].
    pub learnt_reused: u64,
    /// Underlying CDCL solve calls: one per blast-layer query, plus
    /// every call [`crate::SolveSession::lex_min_model`] makes to
    /// minimise a model (so this can exceed `by_blast`).
    pub sat_solve_calls: u64,
    /// CDCL decisions across all solve calls.
    pub decisions: u64,
    /// CDCL unit propagations across all solve calls.
    pub propagations: u64,
    /// Always 0. It counted whole-CNF rebuilds of a mechanism
    /// [`crate::SolveSession`] no longer has (retired circuits now
    /// leave the solver as they are popped); the field stays because
    /// the repo benchmark reads it, and is to be removed together with
    /// that benchmark's `bvsolve.compactions` metric.
    pub compactions: u64,
}

impl SolverLayerStats {
    /// Per-field difference `self - earlier`: the counters accrued
    /// since the `earlier` snapshot was taken (for per-check deltas
    /// out of a long-lived session).
    pub fn delta(&self, earlier: &SolverLayerStats) -> SolverLayerStats {
        SolverLayerStats {
            by_simplify: self.by_simplify.saturating_sub(earlier.by_simplify),
            by_interval: self.by_interval.saturating_sub(earlier.by_interval),
            by_blast: self.by_blast.saturating_sub(earlier.by_blast),
            queries: self.queries.saturating_sub(earlier.queries),
            blast_cache_hits: self
                .blast_cache_hits
                .saturating_sub(earlier.blast_cache_hits),
            blast_cache_misses: self
                .blast_cache_misses
                .saturating_sub(earlier.blast_cache_misses),
            learnt_reused: self.learnt_reused.saturating_sub(earlier.learnt_reused),
            sat_solve_calls: self.sat_solve_calls.saturating_sub(earlier.sat_solve_calls),
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            compactions: self.compactions.saturating_sub(earlier.compactions),
        }
    }

    /// Adds `other`'s counters into `self` (for merging per-worker
    /// stats in the parallel driver).
    pub fn merge(&mut self, other: &SolverLayerStats) {
        self.by_simplify += other.by_simplify;
        self.by_interval += other.by_interval;
        self.by_blast += other.by_blast;
        self.queries += other.queries;
        self.blast_cache_hits += other.blast_cache_hits;
        self.blast_cache_misses += other.blast_cache_misses;
        self.learnt_reused += other.learnt_reused;
        self.sat_solve_calls += other.sat_solve_calls;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.compactions += other.compactions;
    }
}

/// The layered bitvector solver in its simplest form: the **reference
/// oracle** for [`crate::SolveSession`].
///
/// Stateless between queries (each `check` builds a fresh SAT
/// instance), so nothing a query learns can leak into the next — which
/// is what makes it a reference, and what made it the slow arm: both
/// verification steps (step 1's fork checks, step 2's path search)
/// ask streams of queries with shared prefixes and go through a
/// [`crate::SolveSession`], which keeps the blasted CNF and the learnt
/// clauses alive across queries and answers them via assumptions. The
/// two produce identical decided verdicts; the test suites and the
/// repo benchmark assert it, and no product crate names this type.
#[derive(Debug, Default)]
pub struct BvSolver {
    stats: SolverLayerStats,
}

impl BvSolver {
    /// Creates a solver with no budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Layer statistics accumulated so far.
    pub fn stats(&self) -> SolverLayerStats {
        self.stats
    }

    /// Decides satisfiability of the conjunction of width-1 `constraints`.
    /// [`SatVerdict::Unsat`] carries an empty (inert) [`Infeasibility`].
    pub fn check(&mut self, pool: &mut TermPool, constraints: &[TermId]) -> SatVerdict {
        self.stats.queries += 1;
        // Layer 1: constructor-level simplification.
        let conj = pool.mk_conj(constraints);
        if pool.is_true(conj) {
            self.stats.by_simplify += 1;
            return SatVerdict::Sat(Model::default());
        }
        if pool.is_false(conj) {
            self.stats.by_simplify += 1;
            return SatVerdict::Unsat(Infeasibility::default());
        }
        // Layer 2: interval analysis.
        match interval_of(pool, conj) {
            Interval { lo: 1, .. } => {
                self.stats.by_interval += 1;
                return SatVerdict::Sat(Model::default());
            }
            Interval { hi: 0, .. } => {
                self.stats.by_interval += 1;
                return SatVerdict::Unsat(Infeasibility::default());
            }
            _ => {}
        }
        // Layer 3: bit-blast + CDCL on the conjunction itself.
        self.stats.by_blast += 1;
        self.stats.blast_cache_misses += 1;
        self.stats.sat_solve_calls += 1;
        let mut bl = Blaster::new();
        bl.assert_true(pool, conj);
        let result = bl.check();
        let sat = bl.sat_stats();
        self.stats.decisions += sat.decisions;
        self.stats.propagations += sat.propagations;
        match result {
            bitsat::SolveResult::Sat => {
                // Extract only the variables reachable from the query
                // itself — not the whole pool, which grows with every
                // term the wider verification run has ever built.
                let mut a = Assignment::new();
                for id in pool.free_vars(conj) {
                    if let Some(v) = bl.model_var(id) {
                        a.set(id, v);
                    }
                }
                debug_assert_eq!(
                    eval(pool, conj, &a),
                    1,
                    "blaster model must satisfy the query"
                );
                SatVerdict::Sat(Model::from_assignment(a))
            }
            bitsat::SolveResult::Unsat => SatVerdict::Unsat(Infeasibility::default()),
            bitsat::SolveResult::Unknown => SatVerdict::Unknown,
        }
    }

    /// Checks whether `t` is valid (true under every assignment) by
    /// refuting its negation. Returns `(valid, counterexample)`.
    pub fn check_valid(&mut self, pool: &mut TermPool, t: TermId) -> (bool, Option<Model>) {
        let neg = pool.mk_not(t);
        match self.check(pool, &[neg]) {
            SatVerdict::Sat(m) => (false, Some(m)),
            SatVerdict::Unsat(_) => (true, None),
            SatVerdict::Unknown | SatVerdict::Interrupted => (false, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layering_stats() {
        let mut pool = TermPool::new();
        let mut s = BvSolver::new();
        let x = pool.fresh_var("x", 8);

        // Simplify layer: x == x.
        let t1 = pool.mk_eq(x, x);
        assert!(s.check(&mut pool, &[t1]).is_sat());
        assert_eq!(s.stats().by_simplify, 1);

        // Interval layer: (x & 3) < 100.
        let c3 = pool.mk_const(8, 3);
        let c100 = pool.mk_const(8, 100);
        let m = pool.mk_and(x, c3);
        let t2 = pool.mk_ult(m, c100);
        assert!(s.check(&mut pool, &[t2]).is_sat());
        assert_eq!(s.stats().by_interval, 1);

        // Blast layer: x + x == 10.
        let s2 = pool.mk_add(x, x);
        let c10 = pool.mk_const(8, 10);
        let t3 = pool.mk_eq(s2, c10);
        assert!(s.check(&mut pool, &[t3]).is_sat());
        assert_eq!(s.stats().by_blast, 1);
    }

    #[test]
    fn validity_with_counterexample() {
        let mut pool = TermPool::new();
        let mut s = BvSolver::new();
        let x = pool.fresh_var("x", 8);
        let c200 = pool.mk_const(8, 200);
        let claim = pool.mk_ult(x, c200); // not valid; cex x >= 200
        let (valid, cex) = s.check_valid(&mut pool, claim);
        assert!(!valid);
        let m = cex.expect("counterexample");
        assert!(m.var(0) >= 200);
    }

    #[test]
    fn unsat_conjunction() {
        let mut pool = TermPool::new();
        let mut s = BvSolver::new();
        let x = pool.fresh_var("x", 16);
        let c1 = pool.mk_const(16, 100);
        let c2 = pool.mk_const(16, 200);
        let a = pool.mk_ult(x, c1);
        let b = pool.mk_ult(c2, x);
        assert!(s.check(&mut pool, &[a, b]).is_unsat());
    }

    #[test]
    fn multi_constraint_model() {
        let mut pool = TermPool::new();
        let mut s = BvSolver::new();
        let x = pool.fresh_var("x", 8);
        let y = pool.fresh_var("y", 8);
        let sum = pool.mk_add(x, y);
        let c50 = pool.mk_const(8, 50);
        let c20 = pool.mk_const(8, 20);
        let e = pool.mk_eq(sum, c50);
        let g = pool.mk_ult(c20, x);
        let l = pool.mk_ult(x, c50);
        match s.check(&mut pool, &[e, g, l]) {
            SatVerdict::Sat(m) => {
                let xv = m.var(0);
                let yv = m.var(1);
                assert_eq!((xv + yv) & 0xFF, 50);
                assert!(xv > 20 && xv < 50);
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }
}
