//! Verification step 2: composing suspect paths and deciding
//! feasibility.
//!
//! One walk per map mode: the path search is written once (`search`)
//! and judges a *group* of properties on the same compositions —
//! crash-freedom and every bounded-execution bound compose one root
//! over the Abstract summaries, so they share one walk, while each
//! filtering property has a root of its own (`walks`). Every property
//! is resolved into `SearchProperty`, the one form of the three §4
//! properties the walk reads, and decides its role at each segment
//! before anything is composed; one engine runs the walk for both
//! [`crate::session::Verifier`] and [`crate::churn::ChurnSession`].
//! Where a segment's packet goes next — the same loop stage again,
//! another stage, a sink, or nowhere — is one rule, `successor`, over
//! [`Pipeline::hop`]: the search, the suspect count, the longest-path
//! search and the generic baseline all walk by it, so a route past the
//! last stage is a delivery to each of them, as it is to
//! [`dataplane::Runner`]. Every feasibility query takes one path:
//! learnt-core store, then an incremental [`SolveSession`].
//! A violation found feasible is reported with the lexicographically
//! smallest packet that triggers it, minimised on the session that
//! just answered it (`minimal_witness`).

use crate::compose::{ComposedState, Composer};
use crate::cores::{CoreStats, CoreStore};
use crate::report::{CounterExample, Verdict, VerifyReport};
use crate::session::Property;
use crate::summary::{MapMode, PipelineSummaries};
use bvsolve::{SatVerdict, SolveSession, SolverLayerStats, TermPool};
use dataplane::{Hop, Pipeline};
use dpir::PORT_CONTINUE;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};
use symexec::{SegOutcome, Segment, SymConfig, SymInput};

/// Configuration of a verification run.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Step-1 symbolic execution settings.
    pub sym: SymConfig,
    /// Step-2 budget: maximum paths one walk composes before giving
    /// up (the analogue of the paper's 12-hour wall). A group of
    /// properties judged on one walk — crash-freedom and the bounds of
    /// one [`crate::Verifier::check_all`] call — is one walk with one
    /// budget: when it runs out, every member still walking reads
    /// `Unknown`. The budget is tested only before a composition, so a
    /// check that needs exactly this many compositions completes.
    pub max_composed_paths: usize,
    /// CDCL conflict budget per step-2 feasibility query.
    pub solver_conflict_budget: u64,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            sym: SymConfig::default(),
            max_composed_paths: 1 << 20,
            solver_conflict_budget: 200_000,
        }
    }
}

/// A search node: position in the pipeline plus the composed state.
/// (The members of a walk that walk it ride beside it on the stack.)
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

/// The counterexample model of a violating path the live `solver` has
/// just found `Sat`: the lexicographically smallest witness of the
/// path constraint over the reported fields in report order — packet
/// length first, then each byte below it — minimised bit by bit on the
/// session itself ([`SolveSession::lex_min_model`]).
///
/// Minimality makes the bytes a pure function of the constraint's
/// *semantics* — not of solver history (learnt clauses, saved
/// phases), and not of the term pool's node orientation (pools warmed
/// across config updates intern the same composition with different
/// [`bvsolve::TermId`] numbering, which flips commutative operand order
/// and thereby CNF variable order — an arbitrary-model extraction would
/// report different, equally valid, packets). Every session — fresh,
/// unpruned reference, churn-warmed — therefore reports byte-identical
/// counterexamples for the same violation.
///
/// Cost: a few assumption re-solves on circuits the session already
/// holds, paid once per *winning* violation; no session is opened and
/// no term interned. `None` if a minimisation step exhausts the
/// conflict budget — callers fall back to the in-flight model (equally
/// valid, possibly non-canonical).
pub(crate) fn minimal_witness(
    pool: &TermPool,
    solver: &mut SolveSession,
    input: &SymInput,
) -> Option<bvsolve::Model> {
    let fields: Vec<bvsolve::TermId> = std::iter::once(input.pkt_len)
        .chain(input.pkt_bytes.iter().copied())
        .collect();
    solver.lex_min_model(pool, &fields, |len| {
        (len as usize).min(input.pkt_bytes.len())
    })
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
    let cs = &state.constraint;
    if cores.known_unsat(cs, subtree) {
        return Feas::Unsat;
    }
    match solver.check_constraints(pool, cs) {
        SatVerdict::Sat(m) => Feas::Sat(m),
        SatVerdict::Unsat(infeasibility) => {
            cores.learn(infeasibility.core);
            Feas::Unsat
        }
        // Nothing constructs `Interrupted`; it would read as undecided.
        SatVerdict::Unknown | SatVerdict::Interrupted => Feas::Unknown,
    }
}

/// The [`Verdict::Unknown`] reason of a query that ran out of its CDCL
/// conflict budget.
pub(crate) const SOLVER_BUDGET: &str = "solver budget exceeded";

/// A step-2 search property: one of the three §4 properties, resolved
/// from [`Property`] into everything the search reads — name, map mode,
/// reachability, suspect count, initial constraints — and, for each
/// segment event along a composed path, whether it is a *violation
/// suspect* (a feasible instance disproves the property), a *proof
/// blocker* (a feasible instance degrades a proof to Unknown without
/// being a violation), or inert. None of it reads a composed term.
pub(crate) enum SearchProperty {
    /// No packet may terminate the pipeline abnormally.
    Crash,
    /// No packet may execute more than `imax` instructions.
    Bounded {
        /// The instruction bound.
        imax: u64,
    },
    /// No packet matching the pattern (conjoined onto the initial
    /// state) may be delivered on a sink.
    Filter(FilterProperty),
}

impl SearchProperty {
    /// Resolves a property, `None` for the non-search properties
    /// (generic baseline, state analysis).
    pub(crate) fn of(property: &Property) -> Option<SearchProperty> {
        match property {
            Property::CrashFreedom => Some(SearchProperty::Crash),
            Property::Bounded { imax } => Some(SearchProperty::Bounded { imax: *imax }),
            Property::Filter(p) => Some(SearchProperty::Filter(p.clone())),
            Property::Generic { .. } | Property::StateConsistency => None,
        }
    }

    /// The name this property's reports answer under.
    pub(crate) fn name(&self) -> String {
        match self {
            SearchProperty::Crash => "crash-freedom".into(),
            SearchProperty::Bounded { imax } => format!("bounded-execution (imax={imax})"),
            SearchProperty::Filter(_) => "filtering".into(),
        }
    }

    /// The step-1 summaries the search composes: filtering holds under
    /// the pipeline's specific configuration, the others under any.
    pub(crate) fn mode(&self) -> MapMode {
        match self {
            SearchProperty::Crash | SearchProperty::Bounded { .. } => MapMode::Abstract,
            SearchProperty::Filter(_) => MapMode::Tables,
        }
    }

    /// Per stage `k`, whether any stage ≥ `k` can still host a
    /// violation. Crash-freedom: crash suspects, plus loop stations (we
    /// must establish that loops converge within their bound to cover
    /// all iterations), plus any fuel-exhausted step-1 segment (cannot
    /// be summarized past). Every other property: every stage.
    pub(crate) fn reach(&self, sums: &PipelineSummaries) -> Vec<bool> {
        let n = sums.stages.len();
        let mut v = vec![false; n + 1];
        for k in (0..n).rev() {
            let s = &sums.stages[k];
            v[k] = v[k + 1]
                || match self {
                    SearchProperty::Crash => {
                        s.loop_iters.is_some()
                            || s.segments.iter().any(|g| {
                                g.outcome.is_crash() || g.outcome == SegOutcome::FuelExhausted
                            })
                    }
                    SearchProperty::Bounded { .. } | SearchProperty::Filter(_) => true,
                };
        }
        v
    }

    /// The suspect count after step 1: crashing segments, fuel-exhausted
    /// ones (bounded-execution), or segments that deliver the packet on
    /// a sink (filtering: each is a potential policy bypass until step 2
    /// discharges it in context).
    pub(crate) fn suspects(&self, pipeline: &Pipeline, sums: &PipelineSummaries) -> usize {
        let mut n = 0;
        for (k, s) in sums.stages.iter().enumerate() {
            n += s
                .segments
                .iter()
                .filter(|g| match self {
                    SearchProperty::Crash => g.outcome.is_crash(),
                    SearchProperty::Bounded { .. } => g.outcome == SegOutcome::FuelExhausted,
                    SearchProperty::Filter(_) => {
                        successor(pipeline, k, 0, s.loop_iters, g.outcome) == Succ::Sink
                    }
                })
                .count();
        }
        n
    }

    /// The initial composed state of the search: metadata zeroed, and
    /// under filtering the property's header pattern conjoined.
    pub(crate) fn initial(&self, pool: &mut TermPool, sums: &PipelineSummaries) -> ComposedState {
        let mut init = make_initial(pool, sums);
        let SearchProperty::Filter(prop) = self else {
            return init;
        };
        let min = pool.mk_const(16, prop.min_len.max(38));
        let c_len = pool.mk_ule(min, sums.input.pkt_len);
        init.constraint.push(c_len);
        let fields = [(26, prop.src_ip), (30, prop.dst_ip)];
        for (offset, addr) in fields {
            let Some(addr) = addr else { continue };
            for (i, b) in addr.to_be_bytes().iter().enumerate() {
                let byte = sums.input.pkt_bytes[offset + i];
                let c = pool.mk_const(8, *b as u64);
                let eq = pool.mk_eq(byte, c);
                init.constraint.push(eq);
            }
        }
        init
    }

    /// `Some(why)` when `seg`, bringing the composed path to `instrs`
    /// instructions, violates the property if feasible.
    fn violation(&self, seg: &Segment, instrs: u64) -> Option<Why> {
        match self {
            SearchProperty::Crash => seg.outcome.is_crash().then_some(Why::Outcome),
            SearchProperty::Bounded { imax } => {
                if seg.outcome == SegOutcome::FuelExhausted {
                    // Step 1 could not finish this path: if reachable,
                    // an (attacker-exploitable) unbounded path.
                    Some(Why::Outcome)
                } else if instrs > *imax {
                    Some(Why::Overrun {
                        instrs,
                        imax: *imax,
                    })
                } else {
                    None
                }
            }
            SearchProperty::Filter(_) => None,
        }
    }

    /// Whether a feasible instance of `seg` blocks a full proof
    /// (step-1 fuel exhaustion: the summary is incomplete past it).
    fn blocker(&self, seg: &Segment) -> bool {
        match self {
            // Under Bounded, fuel exhaustion is already a violation.
            SearchProperty::Bounded { .. } => false,
            SearchProperty::Crash | SearchProperty::Filter(_) => {
                seg.outcome == SegOutcome::FuelExhausted
            }
        }
    }

    /// Whether a loop still continuing at its composition bound is a
    /// violation (bounded-execution: §5.3 bugs #1/#2 land here) rather
    /// than a proof blocker.
    fn loop_overrun_violates(&self) -> bool {
        matches!(self, SearchProperty::Bounded { .. })
    }

    /// Whether a packet *leaving* the pipeline via a sink violates the
    /// property (filtering).
    fn sink_violates(&self) -> bool {
        matches!(self, SearchProperty::Filter(_))
    }

    /// What `seg`, bringing the composed path to `instrs` instructions
    /// and sending the packet to `succ`, means to this property — the
    /// single classification point of [`search`]. It is a function of
    /// the segment's outcome, the instruction count, the successor and
    /// `reach`; none of it reads a composed term, so the walk decides
    /// every property's role first and composes the state only for a
    /// role that hands it on. An inert segment — most of them, on a
    /// proof — is never substituted, re-interned or given fresh havoc
    /// variables.
    ///
    /// Loops: a segment still requesting another iteration at the
    /// composed-iteration bound is either a violation (bounded-execution)
    /// or a proof blocker (crashes could hide in uncovered iterations).
    /// With the bound set to the packet-size-derived maximum (§3.2: "the
    /// number of loop iterations is bounded by the maximum packet size"),
    /// convergent loops make that branch infeasible and full proofs go
    /// through.
    pub(crate) fn role(&self, seg: &Segment, instrs: u64, succ: Succ, reach: &[bool]) -> Role {
        if let Some(why) = self.violation(seg, instrs) {
            return Role::Violation(why);
        }
        if self.blocker(seg) {
            return Role::Blocker;
        }
        match succ {
            Succ::Again(_) => Role::Continue,
            Succ::LoopBound if self.loop_overrun_violates() => Role::Violation(Why::Outcome),
            // Still continuing at the bound: proof blocker.
            Succ::LoopBound => Role::Blocker,
            Succ::Next(stage) if reach[stage] => Role::Continue,
            Succ::Sink if self.sink_violates() => Role::Violation(Why::Sink),
            // A dead end for this property. (Crash segments are suspects
            // under crash-freedom; under other properties the packet
            // simply stops.)
            Succ::Next(_) | Succ::Sink | Succ::End => Role::Inert,
        }
    }
}

/// What a segment means to one property walking its node, decided
/// before the state is composed ([`SearchProperty::role`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Role {
    /// Feasible ⇒ the property is violated, for this reason.
    Violation(Why),
    /// Feasible ⇒ no full proof (Unknown), without being a violation.
    Blocker,
    /// Continue exploring from the successor node, if feasible.
    Continue,
    /// A dead end for this property.
    Inert,
}

/// Why a feasible [`Role::Violation`] violates its property, rendered
/// into a counterexample's description only once one is found.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Why {
    /// The segment's own outcome: a crash, fuel exhaustion, or a loop
    /// still continuing at its bound.
    Outcome,
    /// The path executes more than `imax` instructions.
    Overrun {
        /// The path's instruction count.
        instrs: u64,
        /// The bound.
        imax: u64,
    },
    /// The packet is delivered on a sink.
    Sink,
}

impl Why {
    /// The description of segment `seg` of `stage` violating for this
    /// reason.
    pub(crate) fn describe(
        self,
        pipeline: &Pipeline,
        sums: &PipelineSummaries,
        stage: usize,
        seg: &Segment,
    ) -> String {
        match self {
            Why::Outcome => describe_outcome(pipeline, stage, seg),
            Why::Overrun { instrs, imax } => {
                format!("path executes {instrs} instructions (> imax={imax})")
            }
            Why::Sink => sink_violation_desc(&sums.stages[stage].name),
        }
    }
}

/// Where the packet of a segment ending in `outcome` goes next, from
/// iteration `iter` of `stage` — the one walk rule of every composed
/// path search ([`search`], [`SearchProperty::suspects`],
/// [`longest_paths_from`] and the generic baseline). `loop_bound` is
/// the stage's iteration bound, `None` unless it is a loop element, in
/// which case an emit on [`PORT_CONTINUE`] asks for another iteration.
/// Other emits follow [`Pipeline::hop`].
pub(crate) fn successor(
    pipeline: &Pipeline,
    stage: usize,
    iter: u32,
    loop_bound: Option<u32>,
    outcome: SegOutcome,
) -> Succ {
    match (outcome, loop_bound) {
        (SegOutcome::Emit(PORT_CONTINUE), Some(bound)) if iter + 1 < bound => Succ::Again(iter + 1),
        (SegOutcome::Emit(PORT_CONTINUE), Some(_)) => Succ::LoopBound,
        (SegOutcome::Emit(p), _) => match pipeline.hop(stage, p) {
            Hop::Stage(s) => Succ::Next(s),
            Hop::Sink(_) => Succ::Sink,
            Hop::Drop => Succ::End,
        },
        (SegOutcome::Drop | SegOutcome::Crash(_) | SegOutcome::FuelExhausted, _) => Succ::End,
    }
}

/// A [`successor`]: where a segment's packet goes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Succ {
    /// The same loop stage, at this iteration.
    Again(u32),
    /// This stage, from its first iteration.
    Next(usize),
    /// The loop still asks for another iteration at its bound.
    LoopBound,
    /// Delivered on a sink.
    Sink,
    /// Dropped, crashed or out of fuel: the packet goes nowhere.
    End,
}

impl Succ {
    /// The `(stage, iteration)` a [`Role::Continue`] from a segment of
    /// `stage` walks next.
    pub(crate) fn node(self, stage: usize) -> (usize, u32) {
        match self {
            Succ::Again(iter) => (stage, iter),
            Succ::Next(next) => (next, 0),
            Succ::LoopBound | Succ::Sink | Succ::End => unreachable!("no node to continue at"),
        }
    }
}

/// The most properties one [`search`] carries: a node records the
/// members walking it as the bits of a `u64`.
pub(crate) const MAX_GROUP: usize = 64;

/// What one property of a [`search`] found.
pub(crate) struct Judged {
    pub(crate) verdict: Verdict,
    /// The paths this property judged: the compositions its own
    /// one-property walk makes (Table 3's "# Paths").
    pub(crate) composed_paths: usize,
}

/// One property's progress through a [`search`].
struct Member<'a> {
    prop: &'a SearchProperty,
    reach: Vec<bool>,
    /// Its role at the segment being judged (a buffer reused per
    /// segment).
    role: Role,
    judged: usize,
    saw_unknown: bool,
    /// Set once, when the property stops walking.
    verdict: Option<Verdict>,
}

/// The members of a walk whose bits are set in `mask`, lowest first.
fn members(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let m = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            m
        })
    })
}

/// The step-2 walk: a DFS over composed paths from `root`, judging
/// every property of `group` (at most [`MAX_GROUP`], all of one map
/// mode and sharing `root`) on the same compositions.
///
/// At each segment every member still walking the node decides its
/// [`Role`]; if any role is not inert the state is composed once and
/// one [`check`] answers every member. A feasible violation stops its
/// member with a counterexample; a feasible or undecided blocker, or
/// an undecided violation, degrades its member's proof to Unknown; a
/// continuation not refuted is pushed as one node carrying the members
/// that continue. Each member therefore walks exactly the nodes, in
/// exactly the order, and stops at exactly the violation its own
/// one-property walk would (the members of a node pop where that node
/// pops), and the walk ends when every member has stopped.
///
/// One walk has one budget: `composed` counts the states composed, and
/// before a composition that would pass
/// [`VerifyConfig::max_composed_paths`] every member still walking
/// stops with an Unknown verdict.
#[allow(clippy::too_many_arguments)]
pub(crate) fn search(
    pool: &mut TermPool,
    solver: &mut SolveSession,
    cores: &mut CoreStore,
    pipeline: &Pipeline,
    sums: &PipelineSummaries,
    cfg: &VerifyConfig,
    group: &[&SearchProperty],
    root: ComposedState,
) -> Vec<Judged> {
    assert!(!group.is_empty() && group.len() <= MAX_GROUP);
    let mut walk: Vec<Member> = group
        .iter()
        .map(|&prop| Member {
            prop,
            reach: prop.reach(sums),
            role: Role::Inert,
            judged: 0,
            saw_unknown: false,
            verdict: None,
        })
        .collect();
    let mut live = u64::MAX >> (u64::BITS as usize - group.len());
    let mut composed = 0usize;
    let mut stack = vec![(
        live,
        Node {
            stage: 0,
            iter: 0,
            state: root,
        },
    )];
    'walk: while let Some((walkers, node)) = stack.pop() {
        let summary = &sums.stages[node.stage];
        let mut composer = None;
        for (i, seg) in summary.segments.iter().enumerate() {
            let walking = walkers & live;
            if walking == 0 {
                break;
            }
            let instrs = node.state.instrs + seg.instrs;
            let succ = successor(
                pipeline,
                node.stage,
                node.iter,
                summary.loop_iters,
                seg.outcome,
            );
            let (mut judged, mut continuing, mut violating) = (0u64, 0u64, 0u64);
            for m in members(walking) {
                let member = &mut walk[m];
                member.role = member.prop.role(seg, instrs, succ, &member.reach);
                match member.role {
                    Role::Inert => continue,
                    Role::Continue => continuing |= 1 << m,
                    Role::Violation(_) => violating |= 1 << m,
                    Role::Blocker => {}
                }
                judged |= 1 << m;
            }
            if judged == 0 {
                continue;
            }
            if composed >= cfg.max_composed_paths {
                let walking = stack.iter().fold(walking, |w, (s, _)| w | s) & live;
                for m in members(walking) {
                    walk[m].verdict = Some(Verdict::Unknown("step-2 path budget exceeded".into()));
                }
                break 'walk;
            }
            let state = composer
                .get_or_insert_with(|| Composer::new(&node.state, summary, node.stage))
                .compose(pool, i);
            composed += 1;
            for m in members(judged) {
                walk[m].judged += 1;
            }
            // A blocker degrades its member's proof unless refuted, a
            // violation unless refuted or found.
            let mut degraded = judged & !continuing;
            let feas = check(pool, solver, cores, &state, continuing != 0);
            let refuted = matches!(feas, Feas::Unsat);
            match feas {
                Feas::Unsat => degraded = 0,
                Feas::Unknown => {}
                Feas::Sat(model) => {
                    degraded &= !violating;
                    if violating != 0 {
                        let m = minimal_witness(pool, solver, &sums.input).unwrap_or(model);
                        for v in members(violating) {
                            let Role::Violation(why) = walk[v].role else {
                                unreachable!("a violating member")
                            };
                            let what = why.describe(pipeline, sums, node.stage, seg);
                            let cex = CounterExample::from_model(
                                &sums.input,
                                &m,
                                what,
                                state.trace.clone(),
                            );
                            walk[v].verdict = Some(Verdict::Disproved(cex));
                        }
                        live &= !violating;
                    }
                }
            }
            for m in members(degraded) {
                walk[m].saw_unknown = true;
            }
            if continuing != 0 && !refuted {
                let (stage, iter) = succ.node(node.stage);
                stack.push((continuing, Node { stage, iter, state }));
            }
            if live == 0 {
                break 'walk;
            }
        }
    }
    walk.into_iter()
        .map(|m| Judged {
            verdict: m.verdict.unwrap_or(if m.saw_unknown {
                Verdict::Unknown(SOLVER_BUDGET.into())
            } else {
                Verdict::Proved
            }),
            composed_paths: m.judged,
        })
        .collect()
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
        step1_time,
        step2_time: Default::default(),
    }
}

/// The step-1 failure reports of a walk's `group`, in group order,
/// shared by every driver: the time spent is booked on the first, as a
/// walk's work is.
pub(crate) fn aborted_reports(
    group: &[&SearchProperty],
    pipeline: &Pipeline,
    e: symexec::SymError,
    t0: Instant,
) -> Vec<VerifyReport> {
    let reason = format!("step 1 aborted: {e}");
    let mut time = t0.elapsed();
    group
        .iter()
        .map(|prop| {
            let report = unknown_report(&prop.name(), pipeline, reason.clone(), time);
            time = Duration::ZERO;
            report
        })
        .collect()
}

/// Partitions a call's properties, given by the map mode of each
/// search property (`None` for a property that is not a search), into
/// walks of indices, in the order of each walk's first member: the
/// search properties of Abstract mode (crash-freedom and every bound)
/// compose one root, so they share one walk; a filter, whose root
/// carries its pattern, and a property that is not a search stand
/// alone.
pub(crate) fn walks(modes: impl IntoIterator<Item = Option<MapMode>>) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = Vec::new();
    let mut shared: Option<usize> = None;
    for (i, mode) in modes.into_iter().enumerate() {
        match (mode, shared) {
            (Some(MapMode::Abstract), Some(walk)) => out[walk].push(i),
            (Some(MapMode::Abstract), None) => {
                shared = Some(out.len());
                out.push(vec![i]);
            }
            _ => out.push(vec![i]),
        }
    }
    out
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
#[allow(clippy::too_many_arguments)]
pub(crate) fn longest_paths_from(
    pool: &mut TermPool,
    pipeline: &Pipeline,
    sums: &PipelineSummaries,
    init: ComposedState,
    cfg: &VerifyConfig,
    solver: &mut SolveSession,
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
            if let Feas::Sat(m) = check(pool, solver, cores, &node.state, false) {
                let m = minimal_witness(pool, solver, &sums.input).unwrap_or(m);
                out.push(LongestPath {
                    instrs: node.state.instrs,
                    packet: CounterExample::from_model(
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
        let max_iters = summary.loop_iters.unwrap_or(0);
        let mut composer = Composer::new(&node.state, summary, node.stage);
        for (i, seg) in summary.segments.iter().enumerate() {
            if composed >= cfg.max_composed_paths {
                break;
            }
            let next = composer.compose(pool, i);
            composed += 1;
            let feasible = !matches!(check(pool, solver, cores, &next, true), Feas::Unsat);
            if !feasible {
                continue;
            }
            let succ = successor(
                pipeline,
                node.stage,
                node.iter,
                summary.loop_iters,
                seg.outcome,
            );
            let (f, stage, iter, terminal) = match succ {
                Succ::Again(iter) => {
                    let rem =
                        (max_iters - iter) as u64 * stage_max[node.stage] / max_iters.max(1) as u64;
                    let f = next.instrs + rem + suffix[node.stage + 1];
                    (f, node.stage, iter, false)
                }
                Succ::LoopBound => continue,
                Succ::Next(target) => (next.instrs + suffix[target], target, 0, false),
                Succ::Sink | Succ::End => (next.instrs, node.stage, 0, true),
            };
            heap.push(QNode {
                f,
                stage,
                iter,
                state: next,
                terminal,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::tests::compose_oracle;
    use crate::compose::COMPOSITIONS;
    use crate::session::{Report, Verifier};
    use crate::summary::summarize_pipeline;
    use dataplane::{Element, Route};
    use elements::ip_fragmenter::{ip_fragmenter, FragmenterVariant};
    use elements::pipelines::{edge_fib, to_pipeline, NAT_PUBLIC_IP, NAT_PUBLIC_PORT, ROUTER_IP};

    const IMAX: u64 = 5_000;
    /// An instruction bound the firewalled edge's longer paths exceed.
    /// Tighter is not better: a bound the first stages already overrun
    /// cuts every path short and leaves fewer violations to extract.
    const TIGHT_IMAX: u64 = 120;
    const WATCHED_SRC: u32 = 0x0BAD_0001;

    /// The counterexample extraction [`minimal_witness`] replaced, kept
    /// as its oracle: the same lexicographically smallest witness of
    /// the path `constraint` (packet length, then each byte below it),
    /// found by binary search on every field on a fresh private
    /// [`SolveSession`], each step interning a bound and blasting a
    /// comparator. `None` if a step exhausts the conflict budget.
    fn canonical_model(
        pool: &mut TermPool,
        cfg: &VerifyConfig,
        constraint: &[bvsolve::TermId],
        input: &SymInput,
    ) -> Option<bvsolve::Model> {
        let mut s = SolveSession::with_conflict_budget(cfg.solver_conflict_budget);
        let mut cs = constraint.to_vec();
        // `current` always satisfies the full list (original constraint
        // plus every pin so far) — it seeds each field's upper bound, so
        // the search invariant "some model of the list gives `t` a value
        // in [lo, hi]" holds throughout: Sat tightens hi to a
        // freshly-witnessed value, Unsat of `t <= mid` raises lo past
        // mid. A cheap-layer Sat carries an empty model (value 0) —
        // sound, it only fires when the conjunction is tautological, so
        // every value is achievable.
        let mut current = match s.check_constraints(pool, &cs) {
            SatVerdict::Sat(m) => m,
            _ => return None,
        };
        let mut minimize = |pool: &mut TermPool, t, v: u32, w| -> Option<u64> {
            let mut hi = current.var(v);
            let mut lo = 0u64;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                let bound = pool.mk_const(w, mid);
                cs.push(pool.mk_ule(t, bound));
                let verdict = s.check_constraints(pool, &cs);
                cs.pop();
                match verdict {
                    SatVerdict::Sat(m) => {
                        hi = m.var(v).min(mid);
                        current = m;
                    }
                    SatVerdict::Unsat(_) => lo = mid + 1,
                    SatVerdict::Unknown | SatVerdict::Interrupted => return None,
                }
            }
            let val = pool.mk_const(w, lo);
            cs.push(pool.mk_eq(t, val));
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
        vec![
            frag("table3-bug1", true, FragmenterVariant::ClickBug1),
            frag("table3-bug2-masked", true, FragmenterVariant::ClickBug2),
            frag("table3-bug2-exposed", false, FragmenterVariant::ClickBug2),
            (buggy_nat("table3-bug3"), Property::CrashFreedom),
        ]
    }

    /// Click bug #3's pipeline (the NAT's hairpin assertion): Table 3's
    /// and the repo benchmark's fleet staging variant.
    fn buggy_nat(name: &str) -> Pipeline {
        let mut nat = preproc();
        nat.push(elements::nat::nat_click_buggy(
            NAT_PUBLIC_IP,
            NAT_PUBLIC_PORT,
            64,
        ));
        to_pipeline(name, nat)
    }

    /// The properties of the paper audits, plus a bound the firewalled
    /// edge's longer paths overrun: a violation suspect on many paths,
    /// so the extraction oracle sees at least 12 violations of it.
    fn audited() -> Vec<(Pipeline, Property)> {
        let mut set: Vec<_> = [
            Property::CrashFreedom,
            Property::Bounded { imax: IMAX },
            Property::Filter(FilterProperty::src(WATCHED_SRC)),
            Property::Bounded { imax: TIGHT_IMAX },
        ]
        .map(|p| (firewalled_edge(), p))
        .into();
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
        prop: SearchProperty,
        reach: Vec<bool>,
        init: ComposedState,
    }

    fn set_up(pipeline: &Pipeline, property: &Property) -> Check {
        set_up_in(TermPool::new(), pipeline, property)
    }

    /// [`set_up`] on a pool that earlier checks have warmed.
    fn set_up_in(mut pool: TermPool, pipeline: &Pipeline, property: &Property) -> Check {
        let prop = SearchProperty::of(property).expect("a search property");
        let sums =
            summarize_pipeline(&mut pool, pipeline, &cfg().sym, prop.mode()).expect("step 1");
        Check {
            init: prop.initial(&mut pool, &sums),
            reach: prop.reach(&sums),
            prop,
            pool,
            sums,
        }
    }

    /// How one composed segment affects a one-property walk.
    enum StepEvent {
        /// Feasible ⇒ the property is violated, with this description.
        ViolationCheck(String, ComposedState),
        /// Feasible ⇒ no full proof (Unknown), without being a violation.
        BlockerCheck(ComposedState),
        /// Continue exploring from this node, if feasible.
        Continue(Node),
        /// Dead end for this property.
        Inert,
    }

    /// What [`search`] does at segment `i` of `node` for one member:
    /// decide its [`SearchProperty::role`], then compose the state for
    /// any role but inert — **decide, then compose**.
    #[allow(clippy::too_many_arguments)]
    fn classify(
        pool: &mut TermPool,
        pipeline: &Pipeline,
        sums: &PipelineSummaries,
        prop: &SearchProperty,
        node: &Node,
        i: usize,
        seg: &Segment,
        reach: &[bool],
    ) -> StepEvent {
        let summary = &sums.stages[node.stage];
        let succ = successor(
            pipeline,
            node.stage,
            node.iter,
            summary.loop_iters,
            seg.outcome,
        );
        let role = prop.role(seg, node.state.instrs + seg.instrs, succ, reach);
        if matches!(role, Role::Inert) {
            return StepEvent::Inert;
        }
        let state = Composer::new(&node.state, summary, node.stage).compose(pool, i);
        match role {
            Role::Violation(why) => {
                StepEvent::ViolationCheck(why.describe(pipeline, sums, node.stage, seg), state)
            }
            Role::Blocker => StepEvent::BlockerCheck(state),
            Role::Continue => {
                let (stage, iter) = succ.node(node.stage);
                StepEvent::Continue(Node { stage, iter, state })
            }
            Role::Inert => unreachable!("returned above"),
        }
    }

    /// [`classify`] as it was: the state composed first, then read.
    #[allow(clippy::too_many_arguments)]
    fn classify_composed(
        pipeline: &Pipeline,
        sums: &PipelineSummaries,
        prop: &SearchProperty,
        node: &Node,
        seg: &Segment,
        reach: &[bool],
        next: ComposedState,
    ) -> StepEvent {
        let summary = &sums.stages[node.stage];
        let is_loop = summary.loop_iters.is_some();
        let max_iters = summary.loop_iters.unwrap_or(0);
        if let Some(why) = prop.violation(seg, next.instrs) {
            let what = why.describe(pipeline, sums, node.stage, seg);
            return StepEvent::ViolationCheck(what, next);
        }
        if prop.blocker(seg) {
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
                } else if prop.loop_overrun_violates() {
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
                    Route::Sink(_) if prop.sink_violates() => {
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
        assert_eq!(new.pkt, old.pkt, "{at}: pkt");
        assert_eq!(new.len, old.len, "{at}: len");
        assert_eq!(new.meta, old.meta, "{at}: meta");
        assert_eq!(new.instrs, old.instrs, "{at}: instrs");
        assert_eq!(new.trace, old.trace, "{at}: trace");
    }

    /// Two searches in lockstep on clones of one pool — one composing
    /// every segment of a node through the node's one [`Composer`], one
    /// with [`compose_oracle`], a memo per term — both composing every
    /// segment of every node the search reaches (the old
    /// compose-then-classify order) and each asking a solver of its
    /// own. The two states must be equal `TermId` for `TermId` at every
    /// step and the pools must have grown alike. Returns the number of
    /// compositions compared.
    fn compose_differential(pipeline: &Pipeline, property: &Property) -> usize {
        let Check {
            mut pool,
            sums,
            prop,
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
            let mut composer = Composer::new(&node.state, summary, node.stage);
            for (i, seg) in summary.segments.iter().enumerate() {
                let at = format!("{} stage {} segment {i}", pipeline.name, node.stage);
                let new = composer.compose(&mut pool, i);
                let old =
                    compose_oracle(&mut shadow, &node.state, &summary.input, seg, node.stage, i);
                assert_same_state(&new, &old, &at);
                assert_eq!(pool.len(), shadow.len(), "{at}: terms interned");
                assert_eq!(pool.num_vars(), shadow.num_vars(), "{at}: fresh variables");
                compared += 1;
                let event = classify_composed(pipeline, &sums, &prop, &node, seg, &reach, new);
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
    /// continue, inert).
    fn classify_differential(pipeline: &Pipeline, property: &Property, seen: &mut [usize; 4]) {
        let Check {
            mut pool,
            sums,
            prop,
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
                let event = classify(&mut pool, pipeline, &sums, &prop, &node, i, seg, &reach);
                let composed = COMPOSITIONS.get() - before;
                let oracle = {
                    let next =
                        Composer::new(&node.state, summary, node.stage).compose(&mut pool, i);
                    classify_composed(pipeline, &sums, &prop, &node, seg, &reach, next)
                };
                assert_eq!(
                    shape(&event),
                    shape(&oracle),
                    "{} {property:?}: stage {} segment {i}",
                    pipeline.name,
                    node.stage
                );
                let inert = matches!(event, StepEvent::Inert);
                assert_eq!(
                    composed,
                    usize::from(!inert),
                    "one composition per event handed on, none for an inert segment"
                );
                match &event {
                    StepEvent::ViolationCheck(..) => seen[0] += 1,
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
        for (pipeline, property) in audited() {
            classify_differential(&pipeline, &property, &mut seen);
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "violation, blocker, continue, inert: {seen:?}"
        );
    }

    #[test]
    #[ignore = "minutes in a debug build; CI runs it in release"]
    fn lazy_classify_matches_compose_then_classify_on_the_proof_audits() {
        let mut seen = [0; 4];
        for (pipeline, property) in prove_audits() {
            classify_differential(&pipeline, &property, &mut seen);
        }
        assert!(seen.iter().all(|&n| n > 1), "{seen:?}");
    }

    /// The step-2 DFS of [`search`] on `solver`, continued past every
    /// violation it finds. At each violation check the live session
    /// answers `Sat`; [`minimal_witness`] on that session must report
    /// the bytes [`canonical_model`] finds on a private one, and leave
    /// the session's depth, SAT variables and pool as they were. Stops
    /// after `limit` extractions. Returns the number compared and the
    /// first violation's counterexample — the one `search` reports,
    /// trace and all.
    fn extraction_differential(
        set_up: &mut Check,
        solver: &mut SolveSession,
        cores: &mut CoreStore,
        pipeline: &Pipeline,
        limit: usize,
    ) -> (usize, Option<CounterExample>) {
        let Check {
            pool,
            sums,
            prop,
            reach,
            init,
        } = set_up;
        let mut compared = 0;
        let mut first = None;
        let mut stack = vec![Node {
            stage: 0,
            iter: 0,
            state: init.clone(),
        }];
        while let Some(node) = stack.pop() {
            for (i, seg) in sums.stages[node.stage].segments.iter().enumerate() {
                match classify(pool, pipeline, sums, prop, &node, i, seg, reach) {
                    StepEvent::ViolationCheck(what, next) => {
                        if !matches!(check(pool, solver, cores, &next, false), Feas::Sat(_)) {
                            continue;
                        }
                        let at = format!("{} {what} at {:?}", pipeline.name, next.trace);
                        let found = (solver.depth(), solver.num_sat_vars(), pool.len());
                        let got = minimal_witness(pool, solver, &sums.input).expect("in budget");
                        let left = (solver.depth(), solver.num_sat_vars(), pool.len());
                        assert_eq!(left, found, "{at}: the extraction changed the session");
                        let want = canonical_model(pool, &cfg(), &next.constraint, &sums.input)
                            .expect("in budget");
                        let [got, want] = [got, want].map(|m| {
                            let trace = next.trace.clone();
                            CounterExample::from_model(&sums.input, &m, what.clone(), trace)
                        });
                        assert_eq!(got.bytes, want.bytes, "{at}");
                        compared += 1;
                        first.get_or_insert(got);
                        if compared == limit {
                            return (compared, first);
                        }
                    }
                    StepEvent::BlockerCheck(next) => {
                        check(pool, solver, cores, &next, false);
                    }
                    StepEvent::Continue(n) => {
                        if !matches!(check(pool, solver, cores, &n.state, true), Feas::Unsat) {
                            stack.push(n);
                        }
                    }
                    StepEvent::Inert => {}
                }
            }
        }
        (compared, first)
    }

    /// The counterexample a report carries, if it is Disproved.
    fn reported(report: VerifyReport) -> Option<CounterExample> {
        match report.verdict {
            Verdict::Disproved(cex) => Some(cex),
            Verdict::Proved => None,
            Verdict::Unknown(why) => panic!("{}: unknown: {why}", report.property),
        }
    }

    /// [`extraction_differential`] on every paper audit, each on a
    /// fresh session, `limit` extractions at most, with the first
    /// violation held to what `Verifier::check` reports; then the first
    /// `n` longest paths of `pipeline`, each composed again along its
    /// trace and given to the oracle. Returns the extractions compared.
    fn audits_and_longest_paths(limit: usize, pipeline: Pipeline, n: usize) -> usize {
        let mut compared = 0;
        for (audited, property) in audited() {
            let mut check = set_up(&audited, &property);
            let mut cores = CoreStore::new();
            let mut solver = new_session(&cfg(), &cores);
            let (k, first) =
                extraction_differential(&mut check, &mut solver, &mut cores, &audited, limit);
            compared += k;
            let report = Verifier::new(&audited).config(cfg()).check(property);
            assert_eq!(
                reported(report.expect_verify()).map(|c| (c.bytes, c.trace)),
                first.map(|c| (c.bytes, c.trace)),
                "{}: the search reports the first violation, extracted alike",
                audited.name
            );
        }

        // The longest-path search, on a session of its own here.
        let Check {
            mut pool,
            sums,
            init,
            ..
        } = set_up(&pipeline, &Property::CrashFreedom);
        let paths = longest_paths_from(
            &mut pool,
            &pipeline,
            &sums,
            init.clone(),
            &cfg(),
            &mut new_session(&cfg(), &CoreStore::new()),
            &mut CoreStore::new(),
            n,
        );
        assert_eq!(paths.len(), n, "{}", pipeline.name);
        for path in paths {
            let mut state = init.clone();
            for &(stage, i) in &path.packet.trace {
                let next = Composer::new(&state, &sums.stages[stage], stage).compose(&mut pool, i);
                state = next;
            }
            let want = canonical_model(&mut pool, &cfg(), &state.constraint, &sums.input)
                .expect("in budget");
            let want = CounterExample::from_model(&sums.input, &want, String::new(), Vec::new());
            let at = format!("{}: {} instructions", pipeline.name, path.instrs);
            assert_eq!(path.packet.bytes, want.bytes, "{at}");
            compared += 1;
        }
        compared
    }

    #[test]
    fn extraction_matches_its_oracle_on_the_paper_audits() {
        let compared = audits_and_longest_paths(12, firewalled_edge(), 3);
        assert!(compared >= 30, "{compared} extractions compared");
    }

    /// Every violation of the paper audits — ≈ 820 of them on the
    /// exposed Table 3 bug 2 alone, its long loop paths — and the three
    /// longest paths of the benchmark's `prove-cdcl` pipeline.
    #[test]
    #[ignore = "minutes in a debug build; CI runs it in release"]
    fn extraction_matches_its_oracle_on_every_audit_violation() {
        let compared = audits_and_longest_paths(usize::MAX, fixed_frag_prove(), 3);
        assert!(compared > 800, "{compared} extractions compared");
    }

    /// The firewalled edge's four audits on every update of the
    /// 120-update stream the churn differential
    /// (`crates/bench/tests/churn.rs`) serves it, each on a session,
    /// core store and pool warmed by every update before it, the way a
    /// churn engine keeps them.
    #[test]
    #[ignore = "minutes in a debug build; CI runs it in release"]
    fn extraction_matches_its_oracle_on_the_firewalled_edge_stream() {
        let mut pipeline = firewalled_edge();
        let properties: Vec<Property> = audited()
            .into_iter()
            .filter(|(p, _)| p.name == pipeline.name)
            .map(|(_, property)| property)
            .collect();
        let mut warm: Vec<_> = properties
            .iter()
            .map(|_| {
                let cores = CoreStore::new();
                (new_session(&cfg(), &cores), cores)
            })
            .collect();
        let mut pool = TermPool::new();
        let (mut compared, mut disproved) = (0, 0);
        for delta in dataplane::workload::delta_stream(0xC0FFEE ^ 120, &pipeline, 120) {
            delta.apply(&mut pipeline).expect("a valid delta");
            for (property, (solver, cores)) in properties.iter().zip(&mut warm) {
                let mut check = set_up_in(pool, &pipeline, property);
                let (n, first) =
                    extraction_differential(&mut check, solver, cores, &pipeline, usize::MAX);
                pool = check.pool;
                compared += n;
                disproved += usize::from(first.is_some());
                let report = Verifier::new(&pipeline)
                    .config(cfg())
                    .check(property.clone());
                assert_eq!(
                    reported(report.expect_verify()).map(|c| (c.bytes, c.trace)),
                    first.map(|c| (c.bytes, c.trace)),
                    "{property:?}"
                );
            }
        }
        assert!(compared > 1_000, "{compared} extractions compared");
        assert!(disproved > 120, "{disproved} disproved checks");
    }

    /// The bytes of every counterexample the paper audits report, taken
    /// from the binary-search extraction before the live-session one
    /// replaced it (the [`TIGHT_IMAX`] entry from the extraction the
    /// [`canonical_model`] oracle agreed with): index for index with
    /// [`audited`] (`None` where the verdict is Proved), then filtering
    /// on the firewalled edge for a source its firewall lets through.
    /// Each must come out the same on a fresh `Verifier` per check and
    /// on one warm `Verifier` running a pipeline's checks in turn.
    /// These hold the bytes once the oracle is gone.
    const GOLDEN_AUDITS: [Option<&str>; 8] = [
        None,
        None,
        None,
        Some(
            "00 00 00 00 00 00 00 00 00 00 00 00 08 00 46 00 \
                00 18 00 00 00 00 02 00 00 00 00 00 00 00 00 00 \
                00 00 83 04 00 00",
        ),
        Some(
            "00 00 00 00 00 00 00 00 00 00 00 00 08 00 46 00 \
                ff f2 00 00 00 00 00 00 00 00 00 00 00 00 00 00 \
                00 00 83 04 00 00",
        ),
        None,
        Some(
            "00 00 00 00 00 00 00 00 00 00 00 00 08 00 48 00 \
                ff f2 00 00 00 00 00 00 00 00 00 00 00 00 00 00 \
                00 00 01 01 01 01 01 01 01 01 01 01 02 00",
        ),
        Some(
            "00 00 00 00 00 00 00 00 00 00 00 00 08 00 45 00 \
                00 14 00 00 00 00 00 06 00 00 c6 33 64 01 c6 33 \
                64 01 10 92 10 92",
        ),
    ];
    const GOLDEN_UNFILTERED: &str = "00 00 00 00 00 00 00 00 00 00 00 00 08 00 46 00 \
            00 18 00 00 00 00 02 00 00 00 0b ad 00 02 0a 03 \
            00 00 00 00 00 00";
    /// The three longest paths of the firewalled edge, likewise.
    const GOLDEN_LONGEST: [&str; 3] = [
        "00 00 00 00 00 00 00 00 00 00 00 00 08 00 46 00 \
            00 18 00 00 00 00 02 00 00 00 00 00 00 00 00 00 \
            00 00 83 04 00 00",
        "00 00 00 00 00 00 00 00 00 00 00 00 08 00 46 00 \
            00 18 00 00 00 00 02 00 00 00 00 00 00 00 00 00 \
            00 00 83 04 00 00",
        "00 00 00 00 00 00 00 00 00 00 00 00 08 00 46 00 \
            00 18 00 00 00 00 02 00 00 00 00 00 00 00 00 00 \
            00 00 02 04 00 00",
    ];

    #[test]
    fn counterexample_bytes_are_pinned() {
        let mut checks: Vec<_> = audited().into_iter().zip(GOLDEN_AUDITS).collect();
        checks.push((
            (
                firewalled_edge(),
                Property::Filter(FilterProperty::src(0x0BAD_0002)),
            ),
            Some(GOLDEN_UNFILTERED),
        ));
        let hex = |report: VerifyReport| reported(report).map(|c| c.hex());
        for ((pipeline, property), want) in &checks {
            let report = Verifier::new(pipeline)
                .config(cfg())
                .check(property.clone());
            let at = format!("{} {property:?}", pipeline.name);
            assert_eq!(hex(report.expect_verify()).as_deref(), *want, "{at}: fresh");
        }
        for group in checks.chunk_by(|a, b| a.0 .0.name == b.0 .0.name) {
            let mut warm = Verifier::new(&group[0].0 .0).config(cfg());
            for ((pipeline, property), want) in group {
                let report = warm.check(property.clone());
                let at = format!("{} {property:?}", pipeline.name);
                assert_eq!(hex(report.expect_verify()).as_deref(), *want, "{at}: warm");
            }
            // The pipeline's checks in one call: its crash-freedom and
            // bounds on one walk, after a warm session's checks.
            let properties: Vec<Property> = group.iter().map(|((_, p), _)| p.clone()).collect();
            for (report, ((pipeline, property), want)) in
                warm.check_all(&properties).into_iter().zip(group)
            {
                let at = format!("{} {property:?}", pipeline.name);
                assert_eq!(
                    hex(report.expect_verify()).as_deref(),
                    *want,
                    "{at}: warm check_all"
                );
            }
        }
        let pipeline = firewalled_edge();
        let longest = Verifier::new(&pipeline).config(cfg()).longest_paths(3);
        let got: Vec<_> = longest.iter().map(|p| p.packet.hex()).collect();
        assert_eq!(got, GOLDEN_LONGEST);
    }

    /// The count guard: a check composes exactly the paths it reports.
    /// Before `classify` decided first, the first audit here composed
    /// 12 352 segments to report 3 292 paths. And one walk per map
    /// mode: `check_all` composes crash-freedom's paths once — the
    /// bounded-execution tree lies inside crash-freedom's on both
    /// pipelines, which end in a loop stage — while each report judges
    /// the paths its one-property check does, and the walk's queries
    /// are booked once.
    #[test]
    fn compositions_performed_equal_composed_paths() {
        let properties = [Property::CrashFreedom, Property::Bounded { imax: IMAX }];
        for (pipeline, walked) in [(fixed_frag_prove(), 2_057), (opt_frag_prove(), 1_492)] {
            let mut verifier = Verifier::new(&pipeline).config(cfg());
            let mut separate = Vec::new();
            for property in properties.clone() {
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
                separate.push(report.composed_paths);
            }

            let mut shared = Verifier::new(&pipeline).config(cfg());
            let before = COMPOSITIONS.get();
            let reports: Vec<VerifyReport> = shared
                .check_all(&properties)
                .into_iter()
                .map(Report::expect_verify)
                .collect();
            let performed = COMPOSITIONS.get() - before;
            let at = &pipeline.name;
            assert_eq!(performed, walked, "{at}: compositions of the walk");
            assert_eq!(performed, separate[0], "{at}: crash-freedom's paths");
            let judged: Vec<usize> = reports.iter().map(|r| r.composed_paths).collect();
            assert_eq!(judged, separate, "{at}: each property judges its own paths");
            let booked: u64 = reports.iter().map(|r| r.solver.queries).sum();
            let issued = shared.step2_solver_stats(MapMode::Abstract).queries;
            assert_eq!(booked, issued, "{at}: the walk's queries, booked once");
            assert!(issued > 0 && reports[1].solver.queries == 0, "{at}");
        }
    }

    /// Holds a report of a shared walk to the one-property check of a
    /// fresh `Verifier`: verdict, `Unknown` reason, counterexample
    /// bytes, description and trace, and `composed_paths`.
    fn assert_as_its_own_walk(shared: &VerifyReport, fresh: &VerifyReport, at: &str) {
        assert_eq!(shared.property, fresh.property, "{at}");
        match (&shared.verdict, &fresh.verdict) {
            (Verdict::Proved, Verdict::Proved) => {}
            (Verdict::Disproved(a), Verdict::Disproved(b)) => {
                assert_eq!(a.bytes, b.bytes, "{at}: counterexample bytes");
                assert_eq!(a.description, b.description, "{at}: description");
                assert_eq!(a.trace, b.trace, "{at}: trace");
            }
            (Verdict::Unknown(a), Verdict::Unknown(b)) => assert_eq!(a, b, "{at}: reason"),
            (a, b) => panic!("{at}: {a:?} shared, {b:?} on its own"),
        }
        assert_eq!(
            shared.composed_paths, fresh.composed_paths,
            "{at}: composed_paths"
        );
    }

    /// `properties` checked on one `Verifier` in one call, each report
    /// held to its property's check on a fresh `Verifier`; returns the
    /// verdict labels.
    fn shared_as_separate(pipeline: &Pipeline, properties: &[Property]) -> Vec<&'static str> {
        let shared = Verifier::new(pipeline).config(cfg()).check_all(properties);
        properties
            .iter()
            .zip(shared)
            .map(|(property, report)| {
                let report = report.expect_verify();
                let fresh = Verifier::new(pipeline)
                    .config(cfg())
                    .check(property.clone())
                    .expect_verify();
                assert_as_its_own_walk(&report, &fresh, &format!("{} {property:?}", pipeline.name));
                report.verdict.label()
            })
            .collect()
    }

    /// Members of one walk that stop at different points: each keeps
    /// its own DFS order, first counterexample and path count.
    #[test]
    fn members_of_one_walk_stop_where_their_own_walks_do() {
        // Crash-freedom disproved while bounded-execution walks on.
        for (pipeline, imax) in [
            (buggy_nat("fleet-staging"), 10_000),
            (buggy_nat("table3-bug3"), IMAX),
        ] {
            let properties = [Property::CrashFreedom, Property::Bounded { imax }];
            let labels = shared_as_separate(&pipeline, &properties);
            assert_eq!(labels, ["disproved", "proved"], "{}", pipeline.name);
        }
        // A tight bound stops at nodes crash-freedom continues past, and
        // two bounds share the call.
        let properties = [
            Property::Bounded { imax: TIGHT_IMAX },
            Property::CrashFreedom,
            Property::Bounded { imax: IMAX },
            Property::Filter(FilterProperty::src(WATCHED_SRC)),
        ];
        let labels = shared_as_separate(&firewalled_edge(), &properties);
        assert_eq!(labels, ["disproved", "proved", "proved", "proved"]);
    }
}
