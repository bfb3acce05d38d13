//! Verification step 2: composing suspect paths and deciding
//! feasibility.
//!
//! The path search is written once (`search`) and parameterized by
//! `PropKind`; one engine runs it for both [`crate::session::Verifier`]
//! and [`crate::churn::ChurnSession`]. Every feasibility query takes
//! one path: learnt-core store, then an incremental [`SolveSession`].

use crate::compose::{compose, ComposedState};
use crate::cores::{CoreStats, CoreStore};
use crate::report::{CounterExample, Verdict, VerifyReport};
use crate::session::CustomProperty;
use crate::summary::PipelineSummaries;
use bvsolve::{SatVerdict, SolveSession, SolverLayerStats, TermPool};
use dataplane::{Pipeline, Route};
use dpir::PORT_CONTINUE;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use symexec::{SegOutcome, Segment, SymConfig, SymInput};

/// Configuration of a verification run.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Step-1 symbolic execution settings.
    pub sym: SymConfig,
    /// Step-2 budget: maximum paths composed before giving up
    /// (the analogue of the paper's 12-hour wall).
    pub max_composed_paths: usize,
    /// CDCL conflict budget per step-2 feasibility query.
    pub solver_conflict_budget: u64,
    /// Whether step-1 summarization runs on the statically simplified
    /// programs ([`dpir::analysis::simplify()`]) instead of the raw
    /// ones. The simplifier is verdict-preserving by construction —
    /// it only applies pool-exact rewrites (folds whose result the
    /// term pool would intern to the identical term) and deletes
    /// blocks no execution reaches — so verdicts, counterexample
    /// bytes and composed-path semantics match the raw run; the
    /// exported [`dpir::Facts`] additionally let step 1 skip crash
    /// forks at proven-safe access sites and step 2 refute
    /// compositions earlier via [`ComposedState::assumed`].
    /// Simplified programs hash differently whenever any fact was
    /// derived (the `facts` field participates in the fingerprint),
    /// so [`crate::SummaryStore`] entries never mix the two modes.
    /// `false` is the raw arm the differential harness's `simplify`
    /// mode and `crates/bench/tests/static_analysis.rs` compare against.
    pub static_simplify: bool,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            sym: SymConfig::default(),
            max_composed_paths: 1 << 20,
            solver_conflict_budget: 200_000,
            static_simplify: false,
        }
    }
}

/// A search node: position in the pipeline plus the composed state.
#[derive(Clone)]
pub(crate) struct Node {
    pub(crate) stage: usize,
    pub(crate) iter: u32,
    pub(crate) state: ComposedState,
}

pub(crate) enum Feas {
    Sat(bvsolve::Model),
    Unsat,
    Unknown,
}

/// The step-2 query solver for searches that prune through `cores`:
/// an incremental [`SolveSession`] under
/// [`VerifyConfig::solver_conflict_budget`].
pub(crate) fn new_session(cfg: &VerifyConfig, cores: &CoreStore) -> SolveSession {
    let mut session = SolveSession::with_conflict_budget(cfg.solver_conflict_budget);
    // A disabled store reads no cores, so don't build them.
    session.set_core_extraction(cores.is_enabled());
    session
}

/// **Canonical** model extraction for a *winning* query: the
/// lexicographically-minimal witness of the path `constraint` alone,
/// over the reported fields in report order — packet length first,
/// then each byte below the minimized length.
///
/// Minimality makes the bytes a pure function of the constraint's
/// *semantics* — not of solver history (learnt clauses, saved
/// phases), not of [`ComposedState::assumed`] facts, and not of the
/// term pool's node orientation (pools warmed across config updates
/// intern the same composition with different [`bvsolve::TermId`]
/// numbering, which flips commutative operand order and thereby CNF
/// variable order — an arbitrary-model extraction would report
/// different, equally valid, packets). Every session — fresh,
/// unpruned reference, simplified, churn-warmed — therefore reports
/// byte-identical counterexamples for the same violation.
///
/// Cost: one solve plus ~`log₂(range)` assumption re-solves per
/// reported field on a private [`SolveSession`] (circuits blasted
/// once, cheap layers first), paid once per *winning* violation.
/// `None` if any minimization step exhausts the conflict budget —
/// callers fall back to the in-flight model (equally valid, possibly
/// non-canonical).
pub(crate) fn canonical_model(
    pool: &mut TermPool,
    cfg: &VerifyConfig,
    constraint: &[bvsolve::TermId],
    input: &SymInput,
) -> Option<bvsolve::Model> {
    let mut s = SolveSession::with_conflict_budget(cfg.solver_conflict_budget);
    for &c in constraint {
        s.assert_constraint(c);
    }
    // `current` always satisfies the full active set (original
    // constraint plus every pin so far) — it seeds each field's upper
    // bound, so the search invariant "some model of the active set
    // gives `t` a value in [lo, hi]" holds throughout: Sat tightens
    // hi to a freshly-witnessed value, Unsat of `t <= mid` raises lo
    // past mid. A cheap-layer Sat carries an empty model (value 0) —
    // sound, it only fires when the active conjunction is
    // tautological, so every value is achievable.
    let mut current = match s.check(pool) {
        SatVerdict::Sat(m) => m,
        _ => return None,
    };
    let mut minimize = |pool: &mut TermPool, t, v: u32, w| -> Option<u64> {
        let mut hi = current.var(v);
        let mut lo = 0u64;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let bound = pool.mk_const(w, mid);
            let le = pool.mk_ule(t, bound);
            match s.check_assuming(pool, &[le]) {
                SatVerdict::Sat(m) => {
                    hi = m.var(v).min(mid);
                    current = m;
                }
                SatVerdict::Unsat(_) => lo = mid + 1,
                SatVerdict::Unknown | SatVerdict::Interrupted => return None,
            }
        }
        let val = pool.mk_const(w, lo);
        let pin = pool.mk_eq(t, val);
        s.assert_constraint(pin);
        Some(lo)
    };
    let mut out = bvsolve::Assignment::new();
    let len = minimize(pool, input.pkt_len, input.len_var, 16)?;
    out.set(input.len_var, len);
    let last = (len as usize).min(input.pkt_bytes.len());
    for i in 0..last {
        let b = minimize(pool, input.pkt_bytes[i], input.pkt_byte_vars[i], 8)?;
        out.set(input.pkt_byte_vars[i], b);
    }
    Some(bvsolve::Model::from_assignment(out))
}

/// One feasibility query: the **core store** refutes any constraint
/// set subsuming a learned UNSAT core (`subtree` marks continuation
/// nodes, whose skip prunes a whole search subtree); everything else
/// goes to the solver session (which syncs its assertion stack to the
/// query: retire past the common prefix, assert the rest). Every solver
/// `Unsat` feeds its core back into the store.
pub(crate) fn check(
    pool: &mut TermPool,
    solver: &mut SolveSession,
    cores: &mut CoreStore,
    state: &ComposedState,
    subtree: bool,
) -> Feas {
    // Conjoin the statically proven facts (`assumed`) for feasibility
    // only: they are implied by `constraint` on every model, so
    // satisfiability is unchanged, but the per-conjunct cheap layers
    // can refute more compositions without the CDCL core. Pruning on
    // the combined set is equally sound — an UNSAT subset of
    // constraint ∧ assumed makes `constraint` alone UNSAT. Model
    // extraction ([`canonical_model`]) stays on `constraint`, so
    // counterexample bytes are byte-identical to a run without facts.
    let combined: Vec<bvsolve::TermId>;
    let cs: &[bvsolve::TermId] = if state.assumed.is_empty() {
        &state.constraint
    } else {
        combined = state
            .constraint
            .iter()
            .chain(state.assumed.iter())
            .copied()
            .collect();
        &combined
    };
    if cores.known_unsat(cs, subtree) {
        return Feas::Unsat;
    }
    match solver.check_constraints(pool, cs) {
        SatVerdict::Sat(m) => Feas::Sat(m),
        SatVerdict::Unsat(infeasibility) => {
            cores.learn(infeasibility.core);
            Feas::Unsat
        }
        // An interrupt surfaces like a budget Unknown: the query was
        // cancelled, not decided.
        SatVerdict::Unknown | SatVerdict::Interrupted => Feas::Unknown,
    }
}

/// Whether any stage ≥ `k` can still host a property violation.
pub(crate) fn lookahead(sums: &PipelineSummaries, is_suspect: impl Fn(usize) -> bool) -> Vec<bool> {
    let n = sums.stages.len();
    let mut v = vec![false; n + 1];
    for k in (0..n).rev() {
        v[k] = v[k + 1] || is_suspect(k);
    }
    v
}

/// Internal search result.
pub(crate) enum SearchOutcome {
    Clean,
    Violation(CounterExample),
    Budget,
    /// Some query stayed undecided; the payload says why
    /// ([`SOLVER_BUDGET`]).
    SolverUnknown(String),
}

/// The [`SearchOutcome::SolverUnknown`] reason of a query that ran out
/// of its CDCL conflict budget.
pub(crate) const SOLVER_BUDGET: &str = "solver budget exceeded";

/// Which §4 property the search decides. Encodes, for each segment
/// event along a composed path, whether it is a *violation suspect* (a
/// feasible instance disproves the property), a *proof blocker* (a
/// feasible instance degrades a proof to Unknown without being a
/// violation), or inert.
pub(crate) enum PropKind {
    /// No packet may terminate the pipeline abnormally.
    Crash,
    /// No packet may execute more than `imax` instructions.
    Bounded {
        /// The instruction bound.
        imax: u64,
    },
    /// No packet matching the property pattern (conjoined onto the
    /// initial state) may be delivered on a sink.
    Filter,
    /// A user-defined property (see [`crate::session::CustomProperty`]).
    Custom(Arc<dyn CustomProperty>),
}

impl PropKind {
    /// `Some(description)` when `seg`, bringing the composed path to
    /// `instrs` instructions, violates a built-in property if
    /// feasible. [`PropKind::Custom`] is asked through its own hook,
    /// which reads the composed state (see [`classify`]).
    fn violation(
        &self,
        pipeline: &Pipeline,
        stage: usize,
        seg: &Segment,
        instrs: u64,
    ) -> Option<String> {
        match self {
            PropKind::Crash => seg
                .outcome
                .is_crash()
                .then(|| describe_outcome(pipeline, stage, seg)),
            PropKind::Bounded { imax } => {
                if seg.outcome == SegOutcome::FuelExhausted {
                    // Step 1 could not finish this path: if reachable,
                    // an (attacker-exploitable) unbounded path.
                    Some(describe_outcome(pipeline, stage, seg))
                } else if instrs > *imax {
                    Some(format!(
                        "path executes {instrs} instructions (> imax={imax})"
                    ))
                } else {
                    None
                }
            }
            PropKind::Filter => None,
            PropKind::Custom(_) => unreachable!("a custom property is asked through its hook"),
        }
    }

    /// Whether a feasible instance of `seg` blocks a full proof
    /// (step-1 fuel exhaustion: the summary is incomplete past it).
    pub(crate) fn blocker(&self, seg: &Segment) -> bool {
        match self {
            // Under Bounded, fuel exhaustion is already a violation.
            PropKind::Bounded { .. } => false,
            PropKind::Crash | PropKind::Filter => seg.outcome == SegOutcome::FuelExhausted,
            PropKind::Custom(c) => c.blocker(seg),
        }
    }

    /// Whether a loop still continuing at its composition bound is a
    /// violation (bounded-execution: §5.3 bugs #1/#2 land here) rather
    /// than a proof blocker.
    pub(crate) fn loop_overrun_violates(&self) -> bool {
        match self {
            PropKind::Bounded { .. } => true,
            PropKind::Crash | PropKind::Filter => false,
            PropKind::Custom(c) => c.loop_overrun_violates(),
        }
    }

    /// Whether a packet *leaving* the pipeline via a sink violates the
    /// property (filtering).
    pub(crate) fn sink_violates(&self) -> bool {
        match self {
            PropKind::Filter => true,
            PropKind::Crash | PropKind::Bounded { .. } => false,
            PropKind::Custom(c) => c.sink_violates(),
        }
    }
}

/// How one composed segment affects the search — the single
/// classification point of [`search`].
pub(crate) enum StepEvent {
    /// Feasible ⇒ the property is violated, with this description.
    ViolationCheck(String, ComposedState),
    /// Feasible ⇒ no full proof (Unknown), without being a violation.
    BlockerCheck(ComposedState),
    /// Continue exploring from this node (next loop iteration, next
    /// stage, or jump target), if feasible.
    Continue(Node),
    /// Dead end for this property.
    Inert,
}

/// Classifies segment `i` of `node`'s stage under `kind` and composes
/// it onto `node` — in that order: **decide, then compose**. Whether a
/// segment is a violation suspect, a proof blocker, a continuation (and
/// to where) or inert is a function of its outcome, the instruction
/// count `node.state.instrs + seg.instrs`, the stage's route for its
/// port and `reach`; none of it reads a composed term. So the state is
/// built at most once, when the first arm that hands it on asks for
/// it, and an inert segment — most of them, on a proof — is never
/// substituted, re-interned or given fresh havoc variables. The one
/// exception is [`PropKind::Custom`]: its `violation` hook is handed
/// the composed state (it may read the packet terms or the map
/// operations), so a custom property composes before it decides.
///
/// Loops: a segment still requesting another iteration at the
/// composed-iteration bound is either a violation (bounded-execution)
/// or a proof blocker (crashes could hide in uncovered iterations).
/// With the bound set to the packet-size-derived maximum (§3.2: "the
/// number of loop iterations is bounded by the maximum packet size"),
/// convergent loops make that branch infeasible and full proofs go
/// through.
#[allow(clippy::too_many_arguments)]
pub(crate) fn classify(
    pool: &mut TermPool,
    pipeline: &Pipeline,
    sums: &PipelineSummaries,
    kind: &PropKind,
    node: &Node,
    i: usize,
    seg: &Segment,
    reach: &[bool],
) -> StepEvent {
    let summary = &sums.stages[node.stage];
    let is_loop = summary.loop_iters.is_some();
    let max_iters = summary.loop_iters.unwrap_or(0);
    let build = |pool: &mut TermPool| compose(pool, &node.state, summary, node.stage, i);
    let mut next = None;
    let violation = match kind {
        PropKind::Custom(c) => c.violation(pipeline, node.stage, seg, next.insert(build(pool))),
        _ => kind.violation(pipeline, node.stage, seg, node.state.instrs + seg.instrs),
    };
    let role = if let Some(what) = violation {
        Role::Violation(what)
    } else if kind.blocker(seg) {
        Role::Blocker
    } else {
        match seg.outcome {
            // Non-suspect terminal for this property: ignore.
            // (Crash segments are suspects under crash-freedom; under
            // other properties the packet simply stops.)
            SegOutcome::Drop | SegOutcome::Crash(_) | SegOutcome::FuelExhausted => {
                return StepEvent::Inert
            }
            SegOutcome::Emit(p) if is_loop && p == PORT_CONTINUE => {
                if node.iter + 1 < max_iters {
                    Role::Continue {
                        stage: node.stage,
                        iter: node.iter + 1,
                    }
                } else if kind.loop_overrun_violates() {
                    Role::Violation(describe_outcome(pipeline, node.stage, seg))
                } else {
                    // Still continuing at the bound: proof blocker.
                    Role::Blocker
                }
            }
            SegOutcome::Emit(p) => match pipeline.stages[node.stage].resolve(p) {
                route @ (Route::Next | Route::To(_)) => {
                    let target = match route {
                        Route::To(s) => s,
                        _ => node.stage + 1,
                    };
                    if target < sums.stages.len() && reach[target] {
                        Role::Continue {
                            stage: target,
                            iter: 0,
                        }
                    } else {
                        return StepEvent::Inert;
                    }
                }
                Route::Sink(_) if kind.sink_violates() => {
                    Role::Violation(sink_violation_desc(&summary.name))
                }
                Route::Sink(_) | Route::Drop => return StepEvent::Inert,
            },
        }
    };
    let state = next.unwrap_or_else(|| build(pool));
    match role {
        Role::Violation(what) => StepEvent::ViolationCheck(what, state),
        Role::Blocker => StepEvent::BlockerCheck(state),
        Role::Continue { stage, iter } => StepEvent::Continue(Node { stage, iter, state }),
    }
}

/// What a segment that is not inert means to the search, before its
/// state is composed (see [`classify`]).
enum Role {
    Violation(String),
    Blocker,
    Continue { stage: usize, iter: u32 },
}

/// Step-2 DFS over composed paths, from `root`.
///
/// Segment events come from [`classify`]; this function adds the
/// solver: violation checks return counterexamples, blocker checks
/// degrade proofs to Unknown, continuations are feasibility-pruned
/// before they are pushed.
///
/// `composed` counts the paths composed; the search stops with
/// [`SearchOutcome::Budget`] at exactly
/// [`VerifyConfig::max_composed_paths`] of them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn search(
    pool: &mut TermPool,
    solver: &mut SolveSession,
    cores: &mut CoreStore,
    pipeline: &Pipeline,
    sums: &PipelineSummaries,
    cfg: &VerifyConfig,
    kind: &PropKind,
    root: Node,
    reach: &[bool],
    composed: &mut usize,
) -> SearchOutcome {
    let mut saw_unknown = false;
    let mut stack = vec![root];
    while let Some(node) = stack.pop() {
        for (i, seg) in sums.stages[node.stage].segments.iter().enumerate() {
            if *composed >= cfg.max_composed_paths {
                return SearchOutcome::Budget;
            }
            match classify(pool, pipeline, sums, kind, &node, i, seg, reach) {
                StepEvent::ViolationCheck(what, next) => {
                    *composed += 1;
                    match check(pool, solver, cores, &next, false) {
                        Feas::Sat(m) => {
                            let m = canonical_model(pool, cfg, &next.constraint, &sums.input)
                                .unwrap_or(m);
                            return SearchOutcome::Violation(CounterExample::from_model(
                                pool,
                                &sums.input,
                                &m,
                                what,
                                next.trace.clone(),
                            ));
                        }
                        Feas::Unsat => {}
                        Feas::Unknown => saw_unknown = true,
                    }
                }
                StepEvent::BlockerCheck(next) => {
                    *composed += 1;
                    if !matches!(check(pool, solver, cores, &next, false), Feas::Unsat) {
                        saw_unknown = true;
                    }
                }
                StepEvent::Continue(n) => {
                    *composed += 1;
                    match check(pool, solver, cores, &n.state, true) {
                        Feas::Sat(_) | Feas::Unknown => stack.push(n),
                        Feas::Unsat => {}
                    }
                }
                StepEvent::Inert => {}
            }
        }
    }
    if saw_unknown {
        SearchOutcome::SolverUnknown(SOLVER_BUDGET.into())
    } else {
        SearchOutcome::Clean
    }
}

pub(crate) fn sink_violation_desc(stage_name: &str) -> String {
    format!("packet delivered via {stage_name} despite the filter property")
}

pub(crate) fn describe_outcome(pipeline: &Pipeline, stage: usize, seg: &Segment) -> String {
    let name = &pipeline.stages[stage].element.name;
    match seg.outcome {
        SegOutcome::Crash(r) => {
            let prog = pipeline.stages[stage].element.program();
            let detail = match r {
                dpir::CrashReason::AssertFailed(m) | dpir::CrashReason::Explicit(m) => {
                    format!("{r}: \"{}\"", prog.assert_msgs[m as usize])
                }
                other => other.to_string(),
            };
            format!("{name} crashes: {detail}")
        }
        SegOutcome::FuelExhausted => format!("{name} exceeds the instruction budget"),
        SegOutcome::Emit(p) if p == PORT_CONTINUE => {
            format!("{name}'s loop does not terminate within its bound")
        }
        SegOutcome::Emit(p) => format!("{name} emits on port {p}"),
        SegOutcome::Drop => format!("{name} drops the packet"),
    }
}

/// The initial composed state for `sums`: metadata zeroed.
pub(crate) fn make_initial(pool: &mut TermPool, sums: &PipelineSummaries) -> ComposedState {
    let mut init = ComposedState::initial(&sums.input);
    let zero = pool.mk_const(dpir::META_WIDTH, 0);
    for m in &mut init.meta {
        *m = zero;
    }
    init
}

pub(crate) fn segment_count(sums: &PipelineSummaries) -> usize {
    sums.stages.iter().map(|s| s.segments.len()).sum()
}

/// A step-1 failure report shared by every driver.
pub(crate) fn aborted_report(
    property: &str,
    pipeline: &Pipeline,
    e: symexec::SymError,
    t0: Instant,
) -> VerifyReport {
    unknown_report(
        property,
        pipeline,
        format!("step 1 aborted: {e}"),
        t0.elapsed(),
    )
}

/// The report of a check that produced nothing but a reason: every
/// counter zero, the time spent booked to step 1.
pub(crate) fn unknown_report(
    property: &str,
    pipeline: &Pipeline,
    reason: String,
    step1_time: Duration,
) -> VerifyReport {
    VerifyReport {
        property: property.into(),
        pipeline: pipeline.name.clone(),
        verdict: Verdict::Unknown(reason),
        step1_states: 0,
        step1_segments: 0,
        suspects: 0,
        composed_paths: 0,
        solver: SolverLayerStats::default(),
        cores: CoreStats::default(),
        summary: Default::default(),
        static_stats: Default::default(),
        step1_time,
        step2_time: Default::default(),
    }
}

/// Crash-freedom suspect count after step 1.
pub(crate) fn crash_suspects(sums: &PipelineSummaries) -> usize {
    sums.stages
        .iter()
        .map(|s| s.segments.iter().filter(|g| g.outcome.is_crash()).count())
        .sum()
}

/// Crash-freedom reachability: crash suspects, plus loop stations (we
/// must establish that loops converge within their bound to cover all
/// iterations), plus any fuel-exhausted step-1 segment (cannot be
/// summarized past).
pub(crate) fn crash_reach(sums: &PipelineSummaries) -> Vec<bool> {
    lookahead(sums, |k| {
        let s = &sums.stages[k];
        s.loop_iters.is_some()
            || s.segments
                .iter()
                .any(|g| g.outcome.is_crash() || g.outcome == SegOutcome::FuelExhausted)
    })
}

/// Bounded-execution suspect count after step 1.
pub(crate) fn bounded_suspects(sums: &PipelineSummaries) -> usize {
    sums.stages
        .iter()
        .map(|s| {
            s.segments
                .iter()
                .filter(|g| g.outcome == SegOutcome::FuelExhausted)
                .count()
        })
        .sum()
}

pub(crate) fn verdict_of(outcome: SearchOutcome) -> Verdict {
    match outcome {
        SearchOutcome::Clean => Verdict::Proved,
        SearchOutcome::Violation(cex) => Verdict::Disproved(cex),
        SearchOutcome::Budget => Verdict::Unknown("step-2 path budget exceeded".into()),
        SearchOutcome::SolverUnknown(why) => Verdict::Unknown(why),
    }
}

/// A filtering property (§4): packets matching the header pattern must
/// never be delivered on a sink.
#[derive(Debug, Clone, Default)]
pub struct FilterProperty {
    /// Required source address.
    pub src_ip: Option<u32>,
    /// Required destination address.
    pub dst_ip: Option<u32>,
    /// Minimum packet length making the fields meaningful (default 38).
    pub min_len: u64,
}

impl FilterProperty {
    /// "Any packet with source IP `a` is dropped."
    pub fn src(a: u32) -> Self {
        FilterProperty {
            src_ip: Some(a),
            dst_ip: None,
            min_len: 38,
        }
    }

    /// "Any packet with destination IP `a` is dropped."
    pub fn dst(a: u32) -> Self {
        FilterProperty {
            src_ip: None,
            dst_ip: Some(a),
            min_len: 38,
        }
    }

    /// "Any packet with source IP `s` and destination IP `d` is
    /// dropped" — the paper's §4 conjunction example.
    pub fn src_dst(s: u32, d: u32) -> Self {
        FilterProperty {
            src_ip: Some(s),
            dst_ip: Some(d),
            min_len: 38,
        }
    }

    /// Sets the minimum packet length making the matched fields
    /// meaningful (builder style; the default is 38).
    #[must_use]
    pub fn min_len(mut self, min_len: u64) -> Self {
        self.min_len = min_len;
        self
    }
}

/// Conjoins the property's header pattern onto the initial state.
pub(crate) fn constrain_filter(
    pool: &mut TermPool,
    sums: &PipelineSummaries,
    prop: &FilterProperty,
    init: &mut ComposedState,
) {
    let min = pool.mk_const(16, prop.min_len.max(38));
    let c_len = pool.mk_ule(min, sums.input.pkt_len);
    init.constraint.push(c_len);
    if let Some(src) = prop.src_ip {
        for (i, b) in src.to_be_bytes().iter().enumerate() {
            let byte = sums.input.pkt_bytes[26 + i];
            let c = pool.mk_const(8, *b as u64);
            let eq = pool.mk_eq(byte, c);
            init.constraint.push(eq);
        }
    }
    if let Some(dst) = prop.dst_ip {
        for (i, b) in dst.to_be_bytes().iter().enumerate() {
            let byte = sums.input.pkt_bytes[30 + i];
            let c = pool.mk_const(8, *b as u64);
            let eq = pool.mk_eq(byte, c);
            init.constraint.push(eq);
        }
    }
}

/// Filtering suspect count after step 1: segments that deliver the
/// packet on a sink (each is a potential policy bypass until step 2
/// discharges it in context).
pub(crate) fn filter_suspects(pipeline: &Pipeline, sums: &PipelineSummaries) -> usize {
    sums.stages
        .iter()
        .enumerate()
        .map(|(k, s)| {
            let is_loop = s.loop_iters.is_some();
            s.segments
                .iter()
                .filter(|g| match g.outcome {
                    SegOutcome::Emit(p) if !(is_loop && p == PORT_CONTINUE) => {
                        matches!(pipeline.stages[k].resolve(p), Route::Sink(_))
                    }
                    _ => false,
                })
                .count()
        })
        .sum()
}

/// One entry of the longest-path report (§5.3).
#[derive(Debug)]
pub struct LongestPath {
    /// Exact instruction count.
    pub instrs: u64,
    /// A packet exercising the path.
    pub packet: CounterExample,
}

/// The longest-path best-first search over already-built summaries
/// (the engine behind [`crate::Verifier::longest_paths`]) — the
/// adversarial-workload construction of §5.3.
///
/// Implements the paper's step-2 search: segments are considered in
/// decreasing instruction count via a best-first search whose
/// heuristic (maximum remaining instructions per stage) is admissible,
/// so paths pop in true length order.
pub(crate) fn longest_paths_from(
    pool: &mut TermPool,
    pipeline: &Pipeline,
    sums: &PipelineSummaries,
    init: ComposedState,
    cfg: &VerifyConfig,
    cores: &mut CoreStore,
    n: usize,
) -> Vec<LongestPath> {
    // Optimistic per-stage remaining cost.
    let nst = sums.stages.len();
    let mut stage_max = vec![0u64; nst];
    for (k, s) in sums.stages.iter().enumerate() {
        let mx = s.segments.iter().map(|g| g.instrs).max().unwrap_or(0);
        stage_max[k] = match s.loop_iters {
            Some(t) => mx * t as u64,
            None => mx,
        };
    }
    let mut suffix = vec![0u64; nst + 1];
    for k in (0..nst).rev() {
        suffix[k] = suffix[k + 1] + stage_max[k];
    }

    struct QNode {
        f: u64,
        stage: usize,
        iter: u32,
        state: ComposedState,
        terminal: bool,
    }
    impl PartialEq for QNode {
        fn eq(&self, o: &Self) -> bool {
            self.f == o.f
        }
    }
    impl Eq for QNode {}
    impl PartialOrd for QNode {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    impl Ord for QNode {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            self.f.cmp(&o.f)
        }
    }

    let mut solver = new_session(cfg, cores);
    let mut heap: BinaryHeap<QNode> = BinaryHeap::new();
    heap.push(QNode {
        f: suffix[0],
        stage: 0,
        iter: 0,
        state: init,
        terminal: false,
    });
    let mut out = Vec::new();
    let mut composed = 0usize;
    while let Some(node) = heap.pop() {
        if out.len() >= n || composed >= cfg.max_composed_paths {
            break;
        }
        if node.terminal {
            // Admissible heuristic ⇒ this is the next-longest path.
            if let Feas::Sat(m) = check(pool, &mut solver, cores, &node.state, false) {
                let m =
                    canonical_model(pool, cfg, &node.state.constraint, &sums.input).unwrap_or(m);
                out.push(LongestPath {
                    instrs: node.state.instrs,
                    packet: CounterExample::from_model(
                        pool,
                        &sums.input,
                        &m,
                        format!("{}-instruction path", node.state.instrs),
                        node.state.trace.clone(),
                    ),
                });
            }
            continue;
        }
        let summary = &sums.stages[node.stage];
        let is_loop = summary.loop_iters.is_some();
        let max_iters = summary.loop_iters.unwrap_or(0);
        for (i, seg) in summary.segments.iter().enumerate() {
            if composed >= cfg.max_composed_paths {
                break;
            }
            let next = compose(pool, &node.state, summary, node.stage, i);
            composed += 1;
            let feasible = !matches!(check(pool, &mut solver, cores, &next, true), Feas::Unsat);
            if !feasible {
                continue;
            }
            match seg.outcome {
                SegOutcome::Drop | SegOutcome::Crash(_) | SegOutcome::FuelExhausted => {
                    let f = next.instrs;
                    heap.push(QNode {
                        f,
                        stage: node.stage,
                        iter: 0,
                        state: next,
                        terminal: true,
                    });
                }
                SegOutcome::Emit(p) if is_loop && p == PORT_CONTINUE => {
                    if node.iter + 1 < max_iters {
                        let rem = (max_iters - node.iter - 1) as u64 * stage_max[node.stage]
                            / max_iters.max(1) as u64;
                        let f = next.instrs + rem + suffix[node.stage + 1];
                        heap.push(QNode {
                            f,
                            stage: node.stage,
                            iter: node.iter + 1,
                            state: next,
                            terminal: false,
                        });
                    }
                }
                SegOutcome::Emit(p) => {
                    let route = pipeline.stages[node.stage].resolve(p);
                    match route {
                        Route::Next | Route::To(_) => {
                            let target = match route {
                                Route::Next => node.stage + 1,
                                Route::To(s) => s,
                                _ => unreachable!(),
                            };
                            if target < nst {
                                let f = next.instrs + suffix[target];
                                heap.push(QNode {
                                    f,
                                    stage: target,
                                    iter: 0,
                                    state: next,
                                    terminal: false,
                                });
                            } else {
                                let f = next.instrs;
                                heap.push(QNode {
                                    f,
                                    stage: node.stage,
                                    iter: 0,
                                    state: next,
                                    terminal: true,
                                });
                            }
                        }
                        Route::Sink(_) | Route::Drop => {
                            let f = next.instrs;
                            heap.push(QNode {
                                f,
                                stage: node.stage,
                                iter: 0,
                                state: next,
                                terminal: true,
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::tests::compose_oracle;
    use crate::compose::COMPOSITIONS;
    use crate::session::{Property, SearchProp, Verifier};
    use crate::summary::summarize_pipeline;
    use dataplane::Element;
    use elements::ip_fragmenter::{ip_fragmenter, FragmenterVariant};
    use elements::pipelines::{edge_fib, to_pipeline, NAT_PUBLIC_IP, NAT_PUBLIC_PORT, ROUTER_IP};

    const IMAX: u64 = 5_000;
    const WATCHED_SRC: u32 = 0x0BAD_0001;

    fn cfg() -> VerifyConfig {
        VerifyConfig {
            sym: SymConfig {
                max_pkt_bytes: 48,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn preproc() -> Vec<Element> {
        vec![
            elements::classifier::classifier(),
            elements::check_ip_header::check_ip_header(false),
        ]
    }

    /// The repo benchmark's `prove-cdcl` pipeline.
    fn fixed_frag_prove() -> Pipeline {
        let mut v = preproc();
        v.push(ip_fragmenter(FragmenterVariant::Fixed, 40));
        to_pipeline("fixed-frag-prove", v)
    }

    /// The repo benchmark's `prove-cores` pipeline.
    fn opt_frag_prove() -> Pipeline {
        let mut v = preproc();
        v.push(elements::ip_options::ip_options(3, Some(ROUTER_IP)));
        v.push(ip_fragmenter(FragmenterVariant::Fixed, 24));
        to_pipeline("opt-frag-prove", v)
    }

    fn firewalled_edge() -> Pipeline {
        let mut v = preproc();
        v.push(elements::ip_filter::ip_filter(vec![
            WATCHED_SRC,
            0x0BAD_0010,
        ]));
        v.push(elements::dec_ttl::dec_ttl());
        v.push(elements::ip_options::ip_options(1, Some(ROUTER_IP)));
        v.push(elements::ip_lookup::ip_lookup(4, edge_fib()));
        to_pipeline("firewalled-edge", v)
    }

    /// The four Table 3 bug pipelines, each with the property its bug
    /// is audited under.
    fn table3() -> Vec<(Pipeline, Property)> {
        let frag = |name, options: bool, variant| {
            let mut v = preproc();
            if options {
                v.push(elements::ip_options::ip_options(1, Some(ROUTER_IP)));
            }
            v.push(ip_fragmenter(variant, 40));
            (to_pipeline(name, v), Property::Bounded { imax: IMAX })
        };
        let mut nat = preproc();
        nat.push(elements::nat::nat_click_buggy(
            NAT_PUBLIC_IP,
            NAT_PUBLIC_PORT,
            64,
        ));
        vec![
            frag("table3-bug1", true, FragmenterVariant::ClickBug1),
            frag("table3-bug2-masked", true, FragmenterVariant::ClickBug2),
            frag("table3-bug2-exposed", false, FragmenterVariant::ClickBug2),
            (to_pipeline("table3-bug3", nat), Property::CrashFreedom),
        ]
    }

    /// A custom property whose hook reads the composed state and fires
    /// on a `Drop` segment — inert under every built-in property, so
    /// the one case a lazy [`classify`] must still compose up front.
    struct NoLateDrop;

    impl CustomProperty for NoLateDrop {
        fn name(&self) -> String {
            "no drop past the header checks".into()
        }

        fn violation(
            &self,
            pipeline: &Pipeline,
            stage: usize,
            seg: &Segment,
            state: &ComposedState,
        ) -> Option<String> {
            (seg.outcome == SegOutcome::Drop && stage >= 3).then(|| {
                format!(
                    "{} drops after {} instructions, {} segments and {} conjuncts",
                    pipeline.stages[stage].element.name,
                    state.instrs,
                    state.trace.len(),
                    state.constraint.len()
                )
            })
        }
    }

    /// The properties of the paper audits plus the custom one.
    fn audited() -> Vec<(Pipeline, Property)> {
        let builtin = || {
            [
                Property::CrashFreedom,
                Property::Bounded { imax: IMAX },
                Property::Filter(FilterProperty::src(WATCHED_SRC)),
            ]
        };
        let mut set: Vec<_> = builtin().map(|p| (firewalled_edge(), p)).into();
        set.push((firewalled_edge(), Property::Custom(Arc::new(NoLateDrop))));
        set.extend(table3());
        set
    }

    fn prove_audits() -> Vec<(Pipeline, Property)> {
        let props = || [Property::CrashFreedom, Property::Bounded { imax: IMAX }];
        let mut set: Vec<_> = props().map(|p| (fixed_frag_prove(), p)).into();
        set.extend(props().map(|p| (opt_frag_prove(), p)));
        set
    }

    /// Step 1 and the initial state of one check, as
    /// `engine::Engine::check` sets them up.
    struct Check {
        pool: TermPool,
        sums: PipelineSummaries,
        kind: PropKind,
        reach: Vec<bool>,
        init: ComposedState,
    }

    fn set_up(pipeline: &Pipeline, property: &Property) -> Check {
        let spec = SearchProp::of(property).expect("a search property");
        let mut pool = TermPool::new();
        let sums =
            summarize_pipeline(&mut pool, pipeline, &cfg().sym, spec.mode()).expect("step 1");
        let mut init = make_initial(&mut pool, &sums);
        spec.init_extra(&mut pool, &sums, &mut init);
        Check {
            kind: spec.kind(),
            reach: spec.reach(&sums),
            pool,
            sums,
            init,
        }
    }

    /// [`classify`] as it was: the state composed first, then read.
    #[allow(clippy::too_many_arguments)]
    fn classify_composed(
        pipeline: &Pipeline,
        sums: &PipelineSummaries,
        kind: &PropKind,
        node: &Node,
        seg: &Segment,
        reach: &[bool],
        next: ComposedState,
    ) -> StepEvent {
        let summary = &sums.stages[node.stage];
        let is_loop = summary.loop_iters.is_some();
        let max_iters = summary.loop_iters.unwrap_or(0);
        let violation = match kind {
            PropKind::Custom(c) => c.violation(pipeline, node.stage, seg, &next),
            _ => kind.violation(pipeline, node.stage, seg, next.instrs),
        };
        if let Some(what) = violation {
            return StepEvent::ViolationCheck(what, next);
        }
        if kind.blocker(seg) {
            return StepEvent::BlockerCheck(next);
        }
        match seg.outcome {
            SegOutcome::Drop | SegOutcome::Crash(_) | SegOutcome::FuelExhausted => StepEvent::Inert,
            SegOutcome::Emit(p) if is_loop && p == PORT_CONTINUE => {
                if node.iter + 1 < max_iters {
                    StepEvent::Continue(Node {
                        stage: node.stage,
                        iter: node.iter + 1,
                        state: next,
                    })
                } else if kind.loop_overrun_violates() {
                    StepEvent::ViolationCheck(describe_outcome(pipeline, node.stage, seg), next)
                } else {
                    StepEvent::BlockerCheck(next)
                }
            }
            SegOutcome::Emit(p) => {
                let route = pipeline.stages[node.stage].resolve(p);
                match route {
                    Route::Next | Route::To(_) => {
                        let target = match route {
                            Route::Next => node.stage + 1,
                            Route::To(s) => s,
                            _ => unreachable!(),
                        };
                        if target < sums.stages.len() && reach[target] {
                            StepEvent::Continue(Node {
                                stage: target,
                                iter: 0,
                                state: next,
                            })
                        } else {
                            StepEvent::Inert
                        }
                    }
                    Route::Sink(_) if kind.sink_violates() => {
                        StepEvent::ViolationCheck(sink_violation_desc(&summary.name), next)
                    }
                    Route::Sink(_) | Route::Drop => StepEvent::Inert,
                }
            }
        }
    }

    /// The state an event asks the solver about, and whether a
    /// refutation prunes a subtree.
    fn queried(event: &StepEvent) -> Option<(&ComposedState, bool)> {
        match event {
            StepEvent::ViolationCheck(_, s) | StepEvent::BlockerCheck(s) => Some((s, false)),
            StepEvent::Continue(n) => Some((&n.state, true)),
            StepEvent::Inert => None,
        }
    }

    fn assert_same_state(new: &ComposedState, old: &ComposedState, at: &str) {
        assert_eq!(new.constraint, old.constraint, "{at}: constraint");
        assert_eq!(new.assumed, old.assumed, "{at}: assumed");
        assert_eq!(new.pkt, old.pkt, "{at}: pkt");
        assert_eq!(new.len, old.len, "{at}: len");
        assert_eq!(new.meta, old.meta, "{at}: meta");
        assert_eq!(new.instrs, old.instrs, "{at}: instrs");
        assert_eq!(new.trace, old.trace, "{at}: trace");
        let ops = |s: &ComposedState| -> Vec<_> {
            s.map_ops
                .iter()
                .map(|op| {
                    let fields = (op.map, op.kind, op.key, op.value);
                    (fields, op.havoc_value_var, op.havoc_flag_var)
                })
                .collect()
        };
        assert_eq!(ops(new), ops(old), "{at}: map operations");
    }

    /// Two searches in lockstep on clones of one pool — one composing
    /// with [`compose`], one with [`compose_oracle`], both composing
    /// every segment of every node the search reaches (the old
    /// compose-then-classify order) and each asking a solver of its
    /// own. The two states must be equal `TermId` for `TermId` at every
    /// step and the pools must have grown alike. Returns the number of
    /// compositions compared.
    fn compose_differential(pipeline: &Pipeline, property: &Property) -> usize {
        let Check {
            mut pool,
            sums,
            kind,
            reach,
            init,
        } = set_up(pipeline, property);
        let mut shadow = pool.clone();
        let mut stores = [CoreStore::new(), CoreStore::new()];
        let mut solvers = [0, 1].map(|i| new_session(&cfg(), &stores[i]));
        let mut compared = 0;
        let mut stack = vec![Node {
            stage: 0,
            iter: 0,
            state: init,
        }];
        while let Some(node) = stack.pop() {
            let summary = &sums.stages[node.stage];
            for (i, seg) in summary.segments.iter().enumerate() {
                let at = format!("{} stage {} segment {i}", pipeline.name, node.stage);
                let new = compose(&mut pool, &node.state, summary, node.stage, i);
                let old =
                    compose_oracle(&mut shadow, &node.state, &summary.input, seg, node.stage, i);
                assert_same_state(&new, &old, &at);
                assert_eq!(pool.len(), shadow.len(), "{at}: terms interned");
                assert_eq!(pool.num_vars(), shadow.num_vars(), "{at}: fresh variables");
                compared += 1;
                let event = classify_composed(pipeline, &sums, &kind, &node, seg, &reach, new);
                let Some((state, subtree)) = queried(&event) else {
                    continue;
                };
                let [a, b] = [
                    check(&mut pool, &mut solvers[0], &mut stores[0], state, subtree),
                    check(&mut shadow, &mut solvers[1], &mut stores[1], state, subtree),
                ]
                .map(|f| matches!(f, Feas::Unsat));
                assert_eq!(a, b, "{at}: the two searches parted");
                match event {
                    _ if a => {}
                    StepEvent::ViolationCheck(..) => return compared,
                    StepEvent::Continue(n) => stack.push(n),
                    StepEvent::BlockerCheck(_) | StepEvent::Inert => {}
                }
            }
        }
        compared
    }

    /// What of a [`StepEvent`] two compositions on one pool share: the
    /// variant, the description or target, and the path so far. (The
    /// terms differ — each composition renames its havocs afresh.)
    fn shape(event: &StepEvent) -> (&'static str, String, u64, Vec<(usize, usize)>) {
        let (tag, what) = match event {
            StepEvent::ViolationCheck(what, _) => ("violation", what.clone()),
            StepEvent::BlockerCheck(_) => ("blocker", String::new()),
            StepEvent::Continue(n) => ("continue", format!("stage {} iter {}", n.stage, n.iter)),
            StepEvent::Inert => return ("inert", String::new(), 0, Vec::new()),
        };
        let (state, _) = queried(event).expect("not inert");
        (tag, what, state.instrs, state.trace.clone())
    }

    /// The step-2 search with, at every (node, segment) it reaches,
    /// the lazy [`classify`] held to compose-then-classify. Counts the
    /// events seen per variant into `seen` (violation, blocker,
    /// continue, inert) and `on_drop` when a violation suspect is a
    /// `Drop` segment.
    fn classify_differential(
        pipeline: &Pipeline,
        property: &Property,
        seen: &mut [usize; 4],
        on_drop: &mut usize,
    ) {
        let Check {
            mut pool,
            sums,
            kind,
            reach,
            init,
        } = set_up(pipeline, property);
        let mut cores = CoreStore::new();
        let mut solver = new_session(&cfg(), &cores);
        let mut stack = vec![Node {
            stage: 0,
            iter: 0,
            state: init,
        }];
        while let Some(node) = stack.pop() {
            let summary = &sums.stages[node.stage];
            for (i, seg) in summary.segments.iter().enumerate() {
                let before = COMPOSITIONS.get();
                let event = classify(&mut pool, pipeline, &sums, &kind, &node, i, seg, &reach);
                let composed = COMPOSITIONS.get() - before;
                let oracle = {
                    let next = compose(&mut pool, &node.state, summary, node.stage, i);
                    classify_composed(pipeline, &sums, &kind, &node, seg, &reach, next)
                };
                assert_eq!(
                    shape(&event),
                    shape(&oracle),
                    "{} {property:?}: stage {} segment {i}",
                    pipeline.name,
                    node.stage
                );
                let inert = matches!(event, StepEvent::Inert);
                let custom = matches!(kind, PropKind::Custom(_));
                assert_eq!(
                    composed,
                    usize::from(custom || !inert),
                    "one composition per event handed on, none for an inert segment \
                     unless a custom hook had to read it"
                );
                match &event {
                    StepEvent::ViolationCheck(..) => {
                        seen[0] += 1;
                        *on_drop += usize::from(seg.outcome == SegOutcome::Drop);
                    }
                    StepEvent::BlockerCheck(_) => seen[1] += 1,
                    StepEvent::Continue(_) => seen[2] += 1,
                    StepEvent::Inert => seen[3] += 1,
                }
                let Some((state, subtree)) = queried(&event) else {
                    continue;
                };
                let refuted = matches!(
                    check(&mut pool, &mut solver, &mut cores, state, subtree),
                    Feas::Unsat
                );
                match event {
                    _ if refuted => {}
                    StepEvent::ViolationCheck(..) => return,
                    StepEvent::Continue(n) => stack.push(n),
                    StepEvent::BlockerCheck(_) | StepEvent::Inert => {}
                }
            }
        }
    }

    #[test]
    fn compose_matches_its_oracle_on_the_paper_audits() {
        for (pipeline, property) in audited() {
            let compared = compose_differential(&pipeline, &property);
            assert!(compared > 3, "{}: {compared} compositions", pipeline.name);
        }
    }

    /// The two proof audits of the repo benchmark: ≈ 15 000
    /// compositions, each solved twice — a release-build test.
    #[test]
    #[ignore = "minutes in a debug build; CI runs it in release"]
    fn compose_matches_its_oracle_on_the_proof_audits() {
        for (pipeline, property) in prove_audits() {
            let compared = compose_differential(&pipeline, &property);
            assert!(
                compared > 1_000,
                "{}: {compared} compositions",
                pipeline.name
            );
        }
    }

    #[test]
    fn lazy_classify_matches_compose_then_classify() {
        let mut seen = [0; 4];
        let mut on_drop = 0;
        for (pipeline, property) in audited() {
            classify_differential(&pipeline, &property, &mut seen, &mut on_drop);
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "violation, blocker, continue, inert: {seen:?}"
        );
        assert!(
            on_drop > 0,
            "the custom property's Drop suspect never came up"
        );
    }

    #[test]
    #[ignore = "minutes in a debug build; CI runs it in release"]
    fn lazy_classify_matches_compose_then_classify_on_the_proof_audits() {
        let mut seen = [0; 4];
        for (pipeline, property) in prove_audits() {
            classify_differential(&pipeline, &property, &mut seen, &mut 0);
        }
        assert!(seen.iter().all(|&n| n > 1), "{seen:?}");
    }

    /// The count guard: a check composes exactly the paths it reports.
    /// Before `classify` decided first, the first audit here composed
    /// 12 352 segments to report 3 292 paths.
    #[test]
    fn compositions_performed_equal_composed_paths() {
        for pipeline in [fixed_frag_prove(), opt_frag_prove()] {
            let mut verifier = Verifier::new(&pipeline).config(cfg());
            for property in [Property::CrashFreedom, Property::Bounded { imax: IMAX }] {
                let before = COMPOSITIONS.get();
                let report = verifier.check(property).expect_verify();
                let performed = COMPOSITIONS.get() - before;
                assert!(report.verdict.is_proved(), "{report}");
                assert!(report.composed_paths > 500, "{report}");
                assert_eq!(
                    performed, report.composed_paths,
                    "{}: {}",
                    pipeline.name, report.property
                );
            }
        }
    }
}
