//! The CDCL solver.

use crate::clause::{ClauseDb, ClauseRef};
use crate::lit::{Lit, Var};

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found (readable via [`Solver::value`]).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before a verdict.
    Unknown,
}

impl SolveResult {
    /// `true` iff the result is [`SolveResult::Sat`].
    pub fn is_sat(self) -> bool {
        self == SolveResult::Sat
    }

    /// `true` iff the result is [`SolveResult::Unsat`].
    pub fn is_unsat(self) -> bool {
        self == SolveResult::Unsat
    }
}

/// Counters exposed for benchmarking and the solver-layering ablation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses deleted by DB reduction.
    pub deleted_clauses: u64,
    /// Number of `solve` / `solve_with_assumptions` calls.
    pub solve_calls: u64,
    /// Learnt clauses already live at the start of each solve call,
    /// summed over calls — the incremental-reuse counter. A solver
    /// used for a single query reports 0; a session that keeps its
    /// learnt clauses across queries accrues the carried-over count
    /// on every call.
    pub learnt_reused: u64,
    /// Assumption-level UNSAT cores extracted (one per UNSAT verdict
    /// under assumptions; see [`Solver::last_core`]).
    pub cores: u64,
    /// Total literals across all extracted cores (so `core_lits /
    /// cores` is the mean core size).
    pub core_lits: u64,
    /// Learnt clauses with LBD ≤ 2 ("glue" clauses — never evicted by
    /// DB reduction).
    pub glue_learnts: u64,
    /// Sum of LBD over all learnt clauses (so `lbd_sum / conflicts`
    /// tracks the mean glue level of the conflict stream).
    pub lbd_sum: u64,
}

/// Base unit of the Luby restart schedule (conflicts between restarts
/// = `RESTART_BASE * luby(n)`).
const RESTART_BASE: u64 = 64;

/// Longest clause [`Solver::add_clause`] simplifies without sorting.
const SHORT_CLAUSE: usize = 8;

/// Watcher entry: a clause plus a "blocker" literal checked before
/// touching the clause (MiniSat-style optimization).
#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// A point in a solver's allocation history: what [`Solver::mark`]
/// returns and [`Solver::rollback`] returns to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    vars: usize,
    clauses: usize,
}

/// An indexed max-heap over variable activities (the VSIDS order).
#[derive(Debug, Clone, Default)]
struct VarOrder {
    heap: Vec<Var>,
    /// Position of each variable in `heap`, or `usize::MAX` if absent.
    pos: Vec<usize>,
}

impl VarOrder {
    fn grow_to(&mut self, n: usize) {
        while self.pos.len() < n {
            self.pos.push(usize::MAX);
        }
    }

    fn contains(&self, v: Var) -> bool {
        self.pos[v.index()] != usize::MAX
    }

    fn push(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v.index()] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn pop(&mut self, act: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top.index()] = usize::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last.index()] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn update(&mut self, v: Var, act: &[f64]) {
        let p = self.pos[v.index()];
        if p != usize::MAX {
            self.sift_up(p, act);
        }
    }

    fn remove(&mut self, v: Var, act: &[f64]) {
        let p = self.pos[v.index()];
        if p == usize::MAX {
            return;
        }
        self.pos[v.index()] = usize::MAX;
        let last = self.heap.pop().expect("v is in the heap");
        if p < self.heap.len() {
            self.heap[p] = last;
            self.pos[last.index()] = p;
            self.sift_up(p, act);
            self.sift_down(self.pos[last.index()], act);
        }
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i].index()] <= act[self.heap[parent].index()] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l].index()] > act[self.heap[best].index()] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r].index()] > act[self.heap[best].index()] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i].index()] = i;
        self.pos[self.heap[j].index()] = j;
    }
}

/// A CDCL SAT solver. See the crate docs for the algorithm inventory.
///
/// `Clone` duplicates the complete solver state (clause database,
/// learnt clauses, activities, saved phases).
#[derive(Debug, Clone, Default)]
pub struct Solver {
    db: ClauseDb,
    watches: Vec<Vec<Watcher>>,
    /// Assignment per variable: `None` = unassigned.
    assigns: Vec<Option<bool>>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Reason clause for each implied variable.
    reason: Vec<ClauseRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarOrder,
    saved_phase: Vec<bool>,
    /// Scratch: per-variable "seen" flags for conflict analysis.
    seen: Vec<bool>,
    /// Top-level conflict discovered during clause addition.
    unsat: bool,
    stats: SolverStats,
    cla_inc: f64,
    max_learnt: f64,
    /// Conflict budget for `solve` (`u64::MAX` = unlimited).
    conflict_budget: u64,
    /// Assumption subset that derived the last UNSAT verdict
    /// (see [`Solver::last_core`]).
    last_core: Vec<Lit>,
    /// Assumptions of the last solve call: after a
    /// [`SolveResult::Sat`], decision levels `1..=assumption_count` are theirs
    /// (see [`Solver::fixed_by_assumptions`]).
    assumption_count: usize,
    /// Scratch buffers, kept between calls so that adding a clause,
    /// learning one and rolling back allocate nothing once they have
    /// grown to the working set: the clause being added or learnt, the
    /// levels of a learnt clause, a rollback's clause renumbering and
    /// the literal codes whose watch lists it revisits, with a flag per
    /// code (all `false` between rollbacks).
    clause_buf: Vec<Lit>,
    levels_buf: Vec<u32>,
    remap_buf: Vec<ClauseRef>,
    touched_buf: Vec<usize>,
    touched: Vec<bool>,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            cla_inc: 1.0,
            max_learnt: 0.0,
            conflict_budget: u64::MAX,
            ..Default::default()
        }
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assigns.len());
        self.assigns.push(None);
        self.level.push(0);
        self.reason.push(ClauseRef::NONE);
        self.activity.push(0.0);
        self.saved_phase.push(false);
        self.seen.push(false);
        // A rollback leaves the lists of dropped variables in place,
        // empty, so a variable that reuses an index reuses its capacity.
        for _ in self.watches.len()..2 * self.assigns.len() {
            self.watches.push(Vec::new());
            self.touched.push(false);
        }
        self.order.grow_to(self.assigns.len());
        self.order.push(v, &self.activity);
        v
    }

    /// Ensures variables `0..n` exist.
    pub fn reserve_vars(&mut self, n: usize) {
        while self.num_vars() < n {
            self.new_var();
        }
    }

    /// Sets a conflict budget; `solve` returns [`SolveResult::Unknown`]
    /// once that many conflicts were analyzed. `u64::MAX` disables it.
    pub fn set_conflict_budget(&mut self, budget: u64) {
        self.conflict_budget = budget;
    }

    /// Solver statistics so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Adds a clause. Returns `false` if the solver is already in an
    /// UNSAT state at the top level (the clause may then be ignored).
    ///
    /// Must be called at decision level 0 (i.e. before/between `solve`
    /// calls; the solver backtracks to level 0 after each solve).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.backtrack_to(0);
        if self.unsat {
            return false;
        }
        debug_assert!(
            lits.iter().all(|l| l.var().index() < self.num_vars()),
            "unknown variable"
        );
        // Simplify: drop duplicate/false literals, detect tautologies.
        // Gate clauses — nearly every call — are two or three literals
        // long: those are scanned in place, unsorted, and allocate only
        // if they end up stored.
        if lits.len() <= SHORT_CLAUSE {
            let mut c = [Lit::from_code(0); SHORT_CLAUSE];
            let mut n = 0;
            for &l in lits {
                if c[..n].contains(&!l) {
                    return true; // tautology: contains l and ¬l
                }
                match self.lit_value(l) {
                    Some(true) => return true, // already satisfied at level 0
                    Some(false) => {}          // falsified at level 0: drop
                    None if c[..n].contains(&l) => {}
                    None => {
                        c[n] = l;
                        n += 1;
                    }
                }
            }
            return self.add_simplified(&c[..n]);
        }
        let mut c = std::mem::take(&mut self.clause_buf);
        c.clear();
        c.extend_from_slice(lits);
        c.sort();
        c.dedup();
        // Sorted, a literal sits next to its complement.
        let tautology = c.windows(2).any(|w| w[0] == !w[1]);
        let ok = if tautology || c.iter().any(|&l| self.lit_value(l) == Some(true)) {
            true
        } else {
            c.retain(|&l| self.lit_value(l).is_none());
            self.add_simplified(&c)
        };
        self.clause_buf = c;
        ok
    }

    /// Stores a clause of distinct, unassigned, non-complementary
    /// literals (at level 0): empty is a top-level conflict, a unit is
    /// propagated, anything longer is attached.
    fn add_simplified(&mut self, c: &[Lit]) -> bool {
        match c.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                self.enqueue(c[0], ClauseRef::NONE);
                if self.propagate().is_some() {
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                let cref = self.db.add(c, false);
                self.attach(cref);
                true
            }
        }
    }

    /// Allocates a fresh **activation literal** for gating clauses
    /// ([`Solver::add_gated_clause`]). Assume it (pass it to
    /// [`Solver::solve_with_assumptions`]) to enforce the gated
    /// clauses for that call; leave it out of the assumptions to keep
    /// them dormant; add the unit clause `¬act` to retire them for good.
    /// Phase saving initializes fresh variables to `false`, so dormant
    /// gates default to disabled during search.
    pub fn new_activation_lit(&mut self) -> Lit {
        Lit::pos(self.new_var())
    }

    /// Adds `lits` gated on `act`: the stored clause reads
    /// `¬act ∨ lits…`, so it constrains the search only while `act`
    /// is assumed. Returns `false` if the solver is already UNSAT at
    /// the top level (as [`Solver::add_clause`]).
    pub fn add_gated_clause(&mut self, act: Lit, lits: &[Lit]) -> bool {
        if lits.len() < SHORT_CLAUSE {
            let mut c = [Lit::from_code(0); SHORT_CLAUSE];
            c[0] = !act;
            c[1..=lits.len()].copy_from_slice(lits);
            return self.add_clause(&c[..=lits.len()]);
        }
        let mut c = Vec::with_capacity(lits.len() + 1);
        c.push(!act);
        c.extend_from_slice(lits);
        self.add_clause(&c)
    }

    /// Records the current allocation point: every variable and clause
    /// added from here on is undone by [`Solver::rollback`]. Marks are
    /// plain positions and nest — rolling back to one invalidates every
    /// mark taken after it.
    pub fn mark(&self) -> Mark {
        Mark {
            vars: self.num_vars(),
            clauses: self.db.len(),
        }
    }

    /// Returns the solver to `mark`: every variable and problem clause
    /// allocated since is dropped, along with every learnt clause and
    /// level-0 fact that names a dropped variable. Learnt clauses and
    /// level-0 facts over surviving variables, activities, saved
    /// phases and the counters are kept, and so is a top-level UNSAT
    /// state.
    ///
    /// Keeping them is sound only if the clauses added since the mark
    /// were a **conservative extension** of the formula before it —
    /// every model of the old formula extends to one of the new. Then
    /// whatever the new formula implies over the old variables alone,
    /// the old formula implies too. Tseitin gate definitions of fresh
    /// output variables and clauses gated on a fresh activation
    /// literal that occurs only negatively are of that kind; a
    /// clause that constrains old variables directly is not, and the
    /// caller must not roll one back.
    ///
    /// Costs the dropped variables and clauses plus the watch lists of
    /// the surviving literals those clauses watched, and allocates
    /// nothing: the kept learnt clauses' literals move down inside the
    /// clause arena, and the dropped variables' watch lists are
    /// emptied but kept for [`Solver::new_var`] to hand out again.
    pub fn rollback(&mut self, mark: Mark) {
        debug_assert!(
            mark.vars <= self.num_vars() && mark.clauses <= self.db.len(),
            "mark is newer than the solver"
        );
        if mark == self.mark() {
            return;
        }
        self.backtrack_to(0);
        self.last_core.clear();

        // The surviving literals whose watch lists name a clause past
        // the mark, each once: a flag per literal code dedups them.
        let mut touched = std::mem::take(&mut self.touched_buf);
        for c in &self.db.headers()[mark.clauses..] {
            if c.deleted {
                continue;
            }
            let start = c.range().start;
            for &l in &self.db.lits[start..start + 2] {
                let code = (!l).code();
                if l.var().index() < mark.vars && !self.touched[code] {
                    self.touched[code] = true;
                    touched.push(code);
                }
            }
        }
        let mut remap = std::mem::take(&mut self.remap_buf);
        self.db
            .truncate_keeping_learnts(mark.clauses, mark.vars, &mut remap);
        for code in touched.drain(..) {
            self.touched[code] = false;
            self.watches[code].retain_mut(|w| {
                if let Some(i) = (w.cref.0 as usize).checked_sub(mark.clauses) {
                    w.cref = remap[i];
                }
                !w.cref.is_none()
            });
        }
        self.touched_buf = touched;
        self.remap_buf = remap;

        // Level-0 reasons are never read, so one that pointed past the
        // mark is simply forgotten.
        let (mut kept, mut propagated) = (0, 0);
        for i in 0..self.trail.len() {
            let l = self.trail[i];
            let vi = l.var().index();
            if vi >= mark.vars {
                continue;
            }
            if self.reason[vi].0 as usize >= mark.clauses {
                self.reason[vi] = ClauseRef::NONE;
            }
            self.trail[kept] = l;
            kept += 1;
            propagated += usize::from(i < self.qhead);
        }
        self.trail.truncate(kept);
        self.qhead = propagated;

        for vi in mark.vars..self.num_vars() {
            self.order.remove(Var::from_index(vi), &self.activity);
        }
        self.order.pos.truncate(mark.vars);
        for ws in &mut self.watches[2 * mark.vars..2 * self.assigns.len()] {
            ws.clear();
        }
        self.assigns.truncate(mark.vars);
        self.level.truncate(mark.vars);
        self.reason.truncate(mark.vars);
        self.activity.truncate(mark.vars);
        self.saved_phase.truncate(mark.vars);
        self.seen.truncate(mark.vars);
        #[cfg(debug_assertions)]
        self.check_invariants();
    }

    /// Panics on any dangling reference: run after every `rollback`
    /// in debug builds, so a stale watcher or variable index fails a
    /// test instead of corrupting a release proof.
    #[cfg(debug_assertions)]
    fn check_invariants(&self) {
        let n = self.num_vars();
        let in_range = |l: Lit| l.var().index() < n;
        let headers = self.db.headers();
        let live_learnt = headers.iter().filter(|c| c.learnt && !c.deleted);
        assert_eq!(self.db.num_learnt(), live_learnt.count(), "learnt count");
        let mut end = 0;
        for c in headers {
            assert_eq!(c.range().start, end, "clause {c:?} is not packed");
            end = c.range().end;
            let lits = &self.db.lits[c.range()];
            assert!(lits.iter().all(|&l| in_range(l)), "clause {c:?}: {lits:?}");
        }
        assert_eq!(self.db.lits.len(), end, "literals past the last clause");
        assert!(self.watches.len() >= 2 * n);
        assert!(
            self.watches[2 * n..].iter().all(Vec::is_empty),
            "dropped watches"
        );
        assert_eq!(self.touched.len(), self.watches.len());
        assert!(!self.touched.contains(&true), "a touched flag left set");
        for (code, ws) in self.watches.iter().enumerate() {
            let watched = !Lit::from_code(code);
            for w in ws {
                assert!((w.cref.0 as usize) < self.db.len(), "watcher {w:?}");
                assert!(
                    !self.db.header(w.cref).deleted,
                    "watcher {w:?} of a deleted clause"
                );
                let c = self.db.lits(w.cref);
                assert!(c[..2].contains(&watched), "{w:?} not on {watched:?}");
            }
        }
        for &l in &self.trail {
            assert!(in_range(l), "trail literal {l:?}");
            assert_eq!(self.lit_value(l), Some(true), "trail literal {l:?}");
        }
        for &r in &self.reason {
            assert!(r.is_none() || (r.0 as usize) < self.db.len(), "{r:?}");
        }
        assert!(self.qhead <= self.trail.len());
        assert_eq!(self.order.pos.len(), n);
        for (i, &v) in self.order.heap.iter().enumerate() {
            assert!(v.index() < n, "heap variable {v:?}");
            assert_eq!(self.order.pos[v.index()], i, "heap position of {v:?}");
        }
    }

    /// Number of live learnt clauses currently in the database.
    pub fn num_learnts(&self) -> usize {
        self.db.num_learnt()
    }

    /// Current value of a variable (meaningful after a SAT result).
    pub fn value(&self, v: Var) -> Option<bool> {
        self.assigns[v.index()]
    }

    /// After a [`SolveResult::Sat`]: whether `v` was fixed by that
    /// call's assumptions — assigned at level 0 or at one of the
    /// assumption levels, so every model under those assumptions (or
    /// any superset of them) gives it the value it has now. `false`
    /// for a variable the call decided, left unassigned or never saw.
    pub fn fixed_by_assumptions(&self, v: Var) -> bool {
        self.assigns[v.index()].is_some() && self.level[v.index()] as usize <= self.assumption_count
    }

    /// The model as a dense vector (unassigned vars default to `false`).
    pub fn model(&self) -> Vec<bool> {
        self.assigns.iter().map(|a| a.unwrap_or(false)).collect()
    }

    /// Solves the formula with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under `assumptions` (literals forced true for this call
    /// only). The solver state (learnt clauses, activities) persists
    /// across calls, enabling cheap incremental queries.
    ///
    /// On [`SolveResult::Unsat`], [`Solver::last_core`] holds the
    /// subset of `assumptions` used to derive the contradiction.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.stats.solve_calls += 1;
        self.stats.learnt_reused += self.db.num_learnt() as u64;
        let result = self.solve_internal(assumptions);
        if result == SolveResult::Unsat && !assumptions.is_empty() {
            self.stats.cores += 1;
            self.stats.core_lits += self.last_core.len() as u64;
        }
        result
    }

    /// The assumption subset that derived the last UNSAT verdict — a
    /// (not necessarily minimal) *core*: re-solving with exactly these
    /// assumptions is again UNSAT, so any assumption set containing
    /// them can be refuted without search. Empty when the last verdict
    /// was not UNSAT, when it was reached without assumptions, or when
    /// the formula is UNSAT at the top level (no assumptions needed).
    pub fn last_core(&self) -> &[Lit] {
        &self.last_core
    }

    /// The CDCL search loop behind [`Solver::solve_with_assumptions`]
    /// (which bumps the call and core counters around it).
    fn solve_internal(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.last_core.clear();
        self.assumption_count = assumptions.len();
        if self.unsat {
            return SolveResult::Unsat;
        }
        self.backtrack_to(0);
        self.max_learnt = (self.db.len() as f64 * 0.3).max(1000.0);
        let mut restarts: u64 = 0;
        let mut conflicts_until_restart = RESTART_BASE * luby(restarts + 1);
        let budget_start = self.stats.conflicts;
        let result = loop {
            if let Some(confl) = self.propagate() {
                // Conflict.
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    break SolveResult::Unsat;
                }
                // Analysis may backjump below the assumption levels; the
                // establishment code below re-asserts assumptions in order
                // and reports UNSAT if one has become falsified.
                let backjump = self.analyze(confl);
                self.backtrack_to(backjump);
                self.learn();
                self.decay_activities();
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                if self.stats.conflicts - budget_start >= self.conflict_budget {
                    break SolveResult::Unknown;
                }
            } else {
                if conflicts_until_restart == 0 {
                    restarts += 1;
                    self.stats.restarts += 1;
                    conflicts_until_restart = RESTART_BASE * luby(restarts + 1);
                    self.backtrack_to(0);
                }
                if self.db.num_learnt() as f64 > self.max_learnt {
                    self.reduce_db();
                    self.max_learnt *= 1.5;
                }
                // Establish assumptions as pseudo-decisions, in order.
                let dl = self.decision_level();
                if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.lit_value(a) {
                        Some(true) => {
                            // Already implied: introduce an empty decision
                            // level so indices keep lining up.
                            self.trail_lim.push(self.trail.len());
                            continue;
                        }
                        Some(false) => {
                            self.analyze_final(a);
                            break SolveResult::Unsat;
                        }
                        None => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, ClauseRef::NONE);
                            continue;
                        }
                    }
                }
                // Regular decision.
                match self.pick_branch_var() {
                    None => break SolveResult::Sat,
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let phase = self.saved_phase[v.index()];
                        self.enqueue(Lit::new(v, phase), ClauseRef::NONE);
                    }
                }
            }
        };
        if result != SolveResult::Sat {
            self.backtrack_to(0);
        }
        result
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn lit_value(&self, l: Lit) -> Option<bool> {
        self.assigns[l.var().index()].map(|b| b == l.is_positive())
    }

    fn enqueue(&mut self, l: Lit, reason: ClauseRef) {
        debug_assert!(self.lit_value(l).is_none());
        let vi = l.var().index();
        self.assigns[vi] = Some(l.is_positive());
        self.level[vi] = self.decision_level() as u32;
        self.reason[vi] = reason;
        self.saved_phase[vi] = l.is_positive();
        self.trail.push(l);
    }

    fn attach(&mut self, cref: ClauseRef) {
        let c = self.db.lits(cref);
        debug_assert!(c.len() >= 2);
        let (l0, l1) = (c[0], c[1]);
        self.watches[(!l0).code()].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).code()].push(Watcher { cref, blocker: l0 });
    }

    /// Unit propagation. Returns a conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Clauses watching ¬p: their watched literal just went false.
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            let mut conflict = None;
            while i < ws.len() {
                let w = ws[i];
                if self.lit_value(w.blocker) == Some(true) {
                    i += 1;
                    continue;
                }
                // Normalize: put the false literal (¬p) at position 1.
                let false_lit = !p;
                let c = self.db.header(w.cref).range();
                let lits = &mut self.db.lits[c.clone()];
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                if first != w.blocker && self.lit_value(first) == Some(true) {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in c.start + 2..c.end {
                    let lk = self.db.lits[k];
                    if self.lit_value(lk) != Some(false) {
                        self.db.lits.swap(c.start + 1, k);
                        self.watches[(!lk).code()].push(Watcher {
                            cref: w.cref,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                if self.lit_value(first) == Some(false) {
                    conflict = Some(w.cref);
                    self.qhead = self.trail.len();
                    // Keep remaining watchers; stop propagating.
                    break;
                } else {
                    self.enqueue(first, w.cref);
                    i += 1;
                }
            }
            let lists = &mut self.watches[p.code()];
            // Re-insert the untouched tail plus kept entries.
            if lists.is_empty() {
                *lists = ws;
            } else {
                lists.extend(ws);
            }
            if let Some(c) = conflict {
                return Some(c);
            }
        }
        None
    }

    /// First-UIP conflict analysis. Leaves the learnt clause
    /// (asserting literal first) in the clause buffer and returns the
    /// backjump level.
    fn analyze(&mut self, confl: ClauseRef) -> usize {
        let mut learnt = std::mem::take(&mut self.clause_buf);
        learnt.clear();
        learnt.push(Lit::from_code(0)); // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut cref = confl;
        let mut trail_idx = self.trail.len();
        let dl = self.decision_level() as u32;

        loop {
            debug_assert!(!cref.is_none());
            self.bump_clause(cref);
            let c = self.db.header(cref).range();
            let skip = usize::from(p.is_some());
            for k in c.start + skip..c.end {
                let q = self.db.lits[k];
                let vi = q.var().index();
                if !self.seen[vi] && self.level[vi] > 0 {
                    self.seen[vi] = true;
                    self.bump_var(q.var());
                    if self.level[vi] >= dl {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next seen literal on the trail.
            loop {
                trail_idx -= 1;
                if self.seen[self.trail[trail_idx].var().index()] {
                    break;
                }
            }
            let pl = self.trail[trail_idx];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(pl);
                break;
            }
            cref = self.reason[pl.var().index()];
            p = Some(pl);
        }
        learnt[0] = !p.expect("UIP found");

        // Clause minimization: drop literals implied by the rest.
        let mut kept = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            if !self.redundant(l) {
                learnt[kept] = l;
                kept += 1;
            }
        }
        learnt.truncate(kept);

        // Clear seen flags.
        for l in &learnt {
            self.seen[l.var().index()] = false;
        }
        // (seen flags for dropped literals were cleared in `redundant`.)

        // Backjump level: second-highest level in the clause.
        let backjump = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()] as usize
        };
        self.clause_buf = learnt;
        backjump
    }

    /// Local redundancy check: `l` is redundant if every literal in its
    /// reason clause is already seen (i.e. already implied by the learnt
    /// clause). Clears `seen` for `l` if redundant.
    fn redundant(&mut self, l: Lit) -> bool {
        let r = self.reason[l.var().index()];
        if r.is_none() {
            return false;
        }
        let red = self.db.lits(r).iter().skip(1).all(|&q| {
            let vi = q.var().index();
            self.seen[vi] || self.level[vi] == 0
        });
        if red {
            self.seen[l.var().index()] = false;
        }
        red
    }

    /// Assumption-level conflict analysis ("analyze final"): the
    /// pseudo-decision `p` (an assumption) was found falsified during
    /// establishment, so the current trail derives `¬p` from level-0
    /// facts plus earlier assumptions. Walking the implication graph
    /// backwards from `var(p)` and collecting every reason-free
    /// assignment above level 0 yields exactly the assumption subset
    /// used — the UNSAT core (every decision on the trail during
    /// establishment is an assumption).
    fn analyze_final(&mut self, p: Lit) {
        self.last_core.clear();
        self.last_core.push(p);
        if self.decision_level() == 0 {
            // `¬p` is a level-0 fact: `p` alone is the core.
            return;
        }
        self.seen[p.var().index()] = true;
        let floor = self.trail_lim[0];
        for i in (floor..self.trail.len()).rev() {
            let l = self.trail[i];
            let vi = l.var().index();
            if !self.seen[vi] {
                continue;
            }
            self.seen[vi] = false;
            let r = self.reason[vi];
            if r.is_none() {
                // A pseudo-decision: an assumption (possibly ¬p itself,
                // when the assumption list is self-contradictory).
                self.last_core.push(l);
            } else {
                for &q in self.db.lits(r).iter().skip(1) {
                    let qi = q.var().index();
                    if self.level[qi] > 0 {
                        self.seen[qi] = true;
                    }
                }
            }
        }
        // If var(p) was assigned at level 0 the walk never reached it.
        self.seen[p.var().index()] = false;
    }

    /// Adds the clause [`Solver::analyze`] left in the clause buffer
    /// and asserts its first literal.
    fn learn(&mut self) {
        let learnt = std::mem::take(&mut self.clause_buf);
        debug_assert!(!learnt.is_empty());
        let asserting = learnt[0];
        // LBD (glue): distinct decision levels among the clause's
        // literals. The backjump does not rewrite `level[]`, so the
        // entries still read as of the conflict for every literal,
        // including the (now unassigned) asserting one.
        let levels = &mut self.levels_buf;
        levels.clear();
        levels.extend(learnt.iter().map(|l| self.level[l.var().index()]));
        levels.sort_unstable();
        levels.dedup();
        let lbd = levels.len() as u32;
        self.stats.lbd_sum += lbd as u64;
        if lbd <= 2 {
            self.stats.glue_learnts += 1;
        }
        if learnt.len() == 1 {
            self.enqueue(asserting, ClauseRef::NONE);
        } else {
            let cref = self.db.add(&learnt, true);
            self.db.header_mut(cref).lbd = lbd;
            self.bump_clause(cref);
            self.attach(cref);
            self.enqueue(asserting, cref);
        }
        self.clause_buf = learnt;
    }

    fn backtrack_to(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let floor = self.trail_lim[level];
        for i in (floor..self.trail.len()).rev() {
            let l = self.trail[i];
            let vi = l.var().index();
            self.assigns[vi] = None;
            self.reason[vi] = ClauseRef::NONE;
            self.order.push(l.var(), &self.activity);
        }
        self.trail.truncate(floor);
        self.trail_lim.truncate(level);
        self.qhead = floor;
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assigns[v.index()].is_none() {
                return Some(v);
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(v, &self.activity);
    }

    fn bump_clause(&mut self, c: ClauseRef) {
        let cl = self.db.header_mut(c);
        if !cl.learnt {
            return;
        }
        cl.activity += self.cla_inc;
        if cl.activity > 1e20 {
            let inc = &mut self.cla_inc;
            *inc *= 1e-20;
            for cl in self.db.headers_mut() {
                cl.activity *= 1e-20;
            }
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
        self.cla_inc /= 0.999;
    }

    /// Deletes the worse half of the learnt clauses, keyed primarily by
    /// LBD (higher glue level evicted first) with activity as the
    /// tie-break (lower evicted first). Glue clauses (LBD ≤ 2), binary
    /// clauses and clauses that are a reason for the current assignment
    /// are never deleted — at level 0 nothing is locked except units,
    /// which are not stored as clauses.
    fn reduce_db(&mut self) {
        let mut learnt: Vec<ClauseRef> = (0..self.db.len() as u32)
            .map(ClauseRef)
            .filter(|&r| {
                let c = self.db.header(r);
                c.learnt && !c.deleted && c.len() > 2 && c.lbd > 2 && !self.is_reason(r)
            })
            .collect();
        learnt.sort_by(|&a, &b| {
            let (ca, cb) = (self.db.header(a), self.db.header(b));
            cb.lbd.cmp(&ca.lbd).then(
                ca.activity
                    .partial_cmp(&cb.activity)
                    .expect("activities are finite"),
            )
        });
        let half = learnt.len() / 2;
        for &r in &learnt[..half] {
            self.db.delete(r);
            self.stats.deleted_clauses += 1;
        }
        // Detach eagerly: a watch list never names a deleted clause,
        // so `rollback` only has to visit the lists of the clauses it
        // drops.
        for ws in &mut self.watches {
            ws.retain(|w| !self.db.header(w.cref).deleted);
        }
    }

    fn is_reason(&self, r: ClauseRef) -> bool {
        let Some(&first) = self.db.lits(r).first() else {
            return false;
        };
        self.reason[first.var().index()] == r && self.lit_value(first) == Some(true)
    }
}

/// The Luby restart sequence (1,1,2,1,1,2,4,...).
fn luby(mut i: u64) -> u64 {
    // Find the finite subsequence containing index i.
    let mut k = 1u32;
    while (1u64 << k) - 1 < i {
        k += 1;
    }
    while (1u64 << k) - 1 != i {
        i -= (1u64 << (k - 1)) - 1;
        k = 1;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
    }
    1u64 << (k - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &mut Solver, i: usize, pos: bool) -> Lit {
        while s.num_vars() <= i {
            s.new_var();
        }
        Lit::new(Var::from_index(i), pos)
    }

    #[test]
    fn luby_sequence() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, true);
        s.add_clause(&[a]);
        assert!(s.solve().is_sat());
        assert_eq!(s.value(a.var()), Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, true);
        s.add_clause(&[a]);
        s.add_clause(&[!a]);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause(&[]));
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn empty_formula_sat() {
        let mut s = Solver::new();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn three_var_forcing_chain() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, true);
        let b = lit(&mut s, 1, true);
        let c = lit(&mut s, 2, true);
        s.add_clause(&[a]);
        s.add_clause(&[!a, b]);
        s.add_clause(&[!b, c]);
        assert!(s.solve().is_sat());
        assert_eq!(s.value(c.var()), Some(true));
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p_{i,j}: pigeon i in hole j. 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let p = |i: usize, j: usize| i * 2 + j;
        for i in 0..3 {
            let l0 = lit(&mut s, p(i, 0), true);
            let l1 = lit(&mut s, p(i, 1), true);
            s.add_clause(&[l0, l1]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    let a = lit(&mut s, p(i1, j), false);
                    let b = lit(&mut s, p(i2, j), false);
                    s.add_clause(&[a, b]);
                }
            }
        }
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn assumptions_incremental() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, true);
        let b = lit(&mut s, 1, true);
        s.add_clause(&[!a, b]); // a -> b
        assert!(s.solve_with_assumptions(&[a]).is_sat());
        assert_eq!(s.value(b.var()), Some(true));
        assert!(s.solve_with_assumptions(&[a, !b]).is_unsat());
        // Solver usable again after UNSAT-under-assumptions.
        assert!(s.solve_with_assumptions(&[!a]).is_sat());
        assert!(s.solve().is_sat());
    }

    #[test]
    fn fixed_by_assumptions_separates_implied_from_decided() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, true);
        let b = lit(&mut s, 1, true);
        let c = lit(&mut s, 2, true);
        let d = lit(&mut s, 3, true);
        s.add_clause(&[!a, b]); // a -> b
        s.add_clause(&[d]); // d at level 0
        s.add_clause(&[c, !c, b]); // c occurs, unconstrained
        assert!(s.solve_with_assumptions(&[a]).is_sat());
        assert!(s.fixed_by_assumptions(a.var()), "an assumption");
        assert!(s.fixed_by_assumptions(b.var()), "implied by one");
        assert!(s.fixed_by_assumptions(d.var()), "a level-0 fact");
        assert!(!s.fixed_by_assumptions(c.var()), "decided by the search");
        // Without the assumption, `b` is a decision again.
        assert!(s.solve().is_sat());
        assert!(!s.fixed_by_assumptions(b.var()));
        assert!(s.fixed_by_assumptions(d.var()));
        // A variable created after the call was not seen by it.
        let e = s.new_var();
        assert!(!s.fixed_by_assumptions(e));
    }

    #[test]
    fn tautology_ignored() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, true);
        s.add_clause(&[a, !a]);
        s.add_clause(&[!a]);
        assert!(s.solve().is_sat());
        assert_eq!(s.value(a.var()), Some(false));
    }

    #[test]
    fn duplicate_literals_collapsed() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, true);
        s.add_clause(&[a, a, a]);
        assert!(s.solve().is_sat());
        assert_eq!(s.value(a.var()), Some(true));
    }

    #[test]
    fn xor_chain_sat() {
        // x0 ^ x1 = 1, x1 ^ x2 = 1, ... forces alternation; satisfiable.
        let mut s = Solver::new();
        let n = 20;
        for i in 0..n {
            let a = lit(&mut s, i, true);
            let b = lit(&mut s, i + 1, true);
            s.add_clause(&[a, b]);
            s.add_clause(&[!a, !b]);
        }
        assert!(s.solve().is_sat());
        let m = s.model();
        for i in 0..n {
            assert_ne!(m[i], m[i + 1]);
        }
    }

    #[test]
    fn activation_literals_gate_clauses() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, true);
        let on_a = s.new_activation_lit();
        let on_na = s.new_activation_lit();
        s.add_gated_clause(on_a, &[a]);
        s.add_gated_clause(on_na, &[!a]);
        // Either constraint alone is satisfiable and enforced.
        assert!(s.solve_with_assumptions(&[on_a]).is_sat());
        assert_eq!(s.value(a.var()), Some(true));
        assert!(s.solve_with_assumptions(&[on_na]).is_sat());
        assert_eq!(s.value(a.var()), Some(false));
        // Both together contradict; neither leaves the formula free.
        assert!(s.solve_with_assumptions(&[on_a, on_na]).is_unsat());
        assert!(s.solve().is_sat());
        // Releasing (the unit `¬on_a`) retires the gate: its clauses
        // go dormant forever and the activation literal itself becomes
        // unassumable.
        assert!(s.add_clause(&[!on_a]));
        assert!(s.solve_with_assumptions(&[on_na]).is_sat());
        assert!(s.solve_with_assumptions(&[on_a]).is_unsat());
        assert!(s.solve().is_sat(), "release never poisons the formula");
    }

    #[test]
    fn rollback_to_the_current_mark_is_a_no_op() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 4);
        let extra = lit(&mut s, 30, true);
        assert!(s.solve_with_assumptions(&[extra]).is_unsat());
        let (vars, learnts, core) = (s.num_vars(), s.num_learnts(), s.last_core().to_vec());
        s.rollback(s.mark());
        assert_eq!((s.num_vars(), s.num_learnts()), (vars, learnts));
        assert_eq!(s.last_core(), core, "nothing to undo, nothing touched");
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn rollback_keeps_learnts_over_survivors_and_drops_the_rest() {
        // Base: p ∧ x → y, p ∧ x → z, ¬(y ∧ z). Assuming p then x
        // learns (¬x ∨ ¬p) — over base variables only.
        let mut s = Solver::new();
        let p = lit(&mut s, 0, true);
        let x = lit(&mut s, 1, true);
        let y = lit(&mut s, 2, true);
        let z = lit(&mut s, 3, true);
        s.add_clause(&[!p, !x, y]);
        s.add_clause(&[!p, !x, z]);
        s.add_clause(&[!y, !z]);
        let m = s.mark();
        assert!(s.solve_with_assumptions(&[p, x]).is_unsat());
        assert_eq!(s.num_learnts(), 1);
        // Scope: act ∧ q → y, act ∧ q → z over fresh act, q. Assuming
        // act then q learns (¬q ∨ ¬act) — over scoped variables.
        let act = s.new_activation_lit();
        let q = Lit::pos(s.new_var());
        s.add_gated_clause(act, &[!q, y]);
        s.add_gated_clause(act, &[!q, z]);
        assert!(s.solve_with_assumptions(&[act, q]).is_unsat());
        assert_eq!(s.num_learnts(), 2);

        s.rollback(m);
        assert_eq!(s.num_vars(), 4);
        assert_eq!(s.num_learnts(), 1, "the scoped learnt went with its scope");
        // The survivor still propagates: p now implies ¬x with no
        // conflict, where the base clauses alone need one.
        let before = s.stats().conflicts;
        assert!(s.solve_with_assumptions(&[p, x]).is_unsat());
        assert_eq!(s.stats().conflicts, before, "kept learnt clause must fire");
        assert!(s.solve_with_assumptions(&[p]).is_sat());
        assert_eq!(s.value(x.var()), Some(false));
    }

    #[test]
    fn rollback_takes_level_0_units_on_dropped_variables_off_the_trail() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, true);
        s.add_clause(&[a]);
        let m = s.mark();
        let act = s.new_activation_lit();
        assert!(s.add_clause(&[!act]), "¬act is now a level-0 fact");
        assert_eq!(s.value(act.var()), Some(false));
        s.rollback(m);
        assert_eq!(s.value(a.var()), Some(true), "facts below the mark stay");
        // The index is handed out again and must come back unassigned.
        let again = s.new_activation_lit();
        assert_eq!(again, act);
        assert_eq!(s.value(again.var()), None);
        assert!(s.solve_with_assumptions(&[again]).is_sat());
    }

    #[test]
    fn rollback_keeps_a_top_level_unsat_state() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, true);
        s.add_clause(&[a]);
        let m = s.mark();
        s.new_var();
        assert!(!s.add_clause(&[!a]));
        s.rollback(m);
        assert_eq!(s.num_vars(), 1);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn reuse_counters_accrue_across_calls() {
        // Pigeonhole 4→3 forces conflicts, so the first call learns
        // clauses that the second call then reports as carried over.
        let mut s = Solver::new();
        let holes = 3;
        let p = |i: usize, j: usize| i * holes + j;
        for i in 0..holes + 1 {
            let cl: Vec<Lit> = (0..holes).map(|j| lit(&mut s, p(i, j), true)).collect();
            s.add_clause(&cl);
        }
        for j in 0..holes {
            for i1 in 0..holes + 1 {
                for i2 in (i1 + 1)..holes + 1 {
                    let a = lit(&mut s, p(i1, j), false);
                    let b = lit(&mut s, p(i2, j), false);
                    s.add_clause(&[a, b]);
                }
            }
        }
        let extra = lit(&mut s, 50, true);
        assert!(s.solve_with_assumptions(&[extra]).is_unsat());
        let s1 = s.stats();
        assert_eq!(s1.solve_calls, 1);
        assert_eq!(s1.learnt_reused, 0, "nothing to reuse on the first call");
        assert!(s.num_learnts() > 0, "the hard instance must learn clauses");
        assert!(s.solve_with_assumptions(&[!extra]).is_unsat());
        let s2 = s.stats();
        assert_eq!(s2.solve_calls, 2);
        assert!(
            s2.learnt_reused > 0,
            "second call must see the first call's learnt clauses"
        );
    }

    #[test]
    fn unsat_core_excludes_irrelevant_assumptions() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, true);
        let b = lit(&mut s, 1, true);
        let c = lit(&mut s, 2, true);
        s.add_clause(&[!a, b]); // a -> b
        assert!(s.solve_with_assumptions(&[c, a, !b]).is_unsat());
        let core: Vec<Lit> = s.last_core().to_vec();
        assert!(core.contains(&a), "core must name a: {core:?}");
        assert!(core.contains(&!b), "core must name ¬b: {core:?}");
        assert!(!core.contains(&c), "c is irrelevant: {core:?}");
        assert_eq!(s.stats().cores, 1);
        assert_eq!(s.stats().core_lits, core.len() as u64);
        // The core itself is UNSAT — the defining property.
        assert!(s.solve_with_assumptions(&core).is_unsat());
        // A SAT call clears it.
        assert!(s.solve_with_assumptions(&[a]).is_sat());
        assert!(s.last_core().is_empty());
    }

    #[test]
    fn core_of_contradictory_assumptions_names_both() {
        let mut s = Solver::new();
        let x = lit(&mut s, 0, true);
        let y = lit(&mut s, 1, true);
        assert!(s.solve_with_assumptions(&[y, x, !x]).is_unsat());
        let core = s.last_core().to_vec();
        assert!(core.contains(&x) && core.contains(&!x), "{core:?}");
        assert!(!core.contains(&y), "{core:?}");
    }

    #[test]
    fn core_of_released_activation_lit_is_singleton() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, true);
        let act = s.new_activation_lit();
        s.add_gated_clause(act, &[a]);
        assert!(s.add_clause(&[!act]), "released");
        assert!(s.solve_with_assumptions(&[a, act]).is_unsat());
        assert_eq!(s.last_core(), &[act], "only the released lit matters");
    }

    #[test]
    fn core_is_the_trail_walk_not_the_minimum() {
        // a propagates ¬b first, so the trail walk blames {a, b}, though
        // b is self-contradictory via q and {b} alone is a core.
        let mut s = Solver::new();
        let a = lit(&mut s, 0, true);
        let b = lit(&mut s, 1, true);
        let q = lit(&mut s, 2, true);
        s.add_clause(&[!a, !b]);
        s.add_clause(&[!b, q]);
        s.add_clause(&[!b, !q]);
        assert!(s.solve_with_assumptions(&[a, b]).is_unsat());
        let mut core = s.last_core().to_vec();
        core.sort();
        let mut expected = vec![a, b];
        expected.sort();
        assert_eq!(core, expected);
        assert_eq!(s.stats().core_lits, 2);
    }

    #[test]
    fn lbd_counters_accrue_on_hard_instances() {
        // Pigeonhole 5→4 forces many conflicts; every learnt clause has
        // LBD ≥ 1, so lbd_sum must at least match the conflict count.
        let mut s = Solver::new();
        let holes = 4;
        let p = |i: usize, j: usize| i * holes + j;
        for i in 0..holes + 1 {
            let cl: Vec<Lit> = (0..holes).map(|j| lit(&mut s, p(i, j), true)).collect();
            s.add_clause(&cl);
        }
        for j in 0..holes {
            for i1 in 0..holes + 1 {
                for i2 in (i1 + 1)..holes + 1 {
                    let a = lit(&mut s, p(i1, j), false);
                    let b = lit(&mut s, p(i2, j), false);
                    s.add_clause(&[a, b]);
                }
            }
        }
        assert!(s.solve().is_unsat());
        let st = s.stats();
        assert!(st.conflicts > 0);
        assert!(st.lbd_sum >= st.conflicts, "{st:?}");
    }

    /// Pigeonhole `holes+1` → `holes`: an UNSAT family hard enough to
    /// force real search at small sizes.
    fn pigeonhole(s: &mut Solver, holes: usize) {
        let p = |i: usize, j: usize| i * holes + j;
        for i in 0..holes + 1 {
            let cl: Vec<Lit> = (0..holes).map(|j| lit(s, p(i, j), true)).collect();
            s.add_clause(&cl);
        }
        for j in 0..holes {
            for i1 in 0..holes + 1 {
                for i2 in (i1 + 1)..holes + 1 {
                    let a = lit(s, p(i1, j), false);
                    let b = lit(s, p(i2, j), false);
                    s.add_clause(&[a, b]);
                }
            }
        }
    }

    #[test]
    fn conflict_budget_unknown() {
        // A hard instance with a tiny budget must return Unknown.
        let mut s = Solver::new();
        // Pigeonhole 6 into 5 — hard enough to exceed 1 conflict.
        let holes = 5;
        let p = |i: usize, j: usize| i * holes + j;
        for i in 0..holes + 1 {
            let cl: Vec<Lit> = (0..holes).map(|j| lit(&mut s, p(i, j), true)).collect();
            s.add_clause(&cl);
        }
        for j in 0..holes {
            for i1 in 0..holes + 1 {
                for i2 in (i1 + 1)..holes + 1 {
                    let a = lit(&mut s, p(i1, j), false);
                    let b = lit(&mut s, p(i2, j), false);
                    s.add_clause(&[a, b]);
                }
            }
        }
        s.set_conflict_budget(1);
        assert_eq!(s.solve(), SolveResult::Unknown);
        s.set_conflict_budget(u64::MAX);
        assert!(s.solve().is_unsat());
    }
}
