//! The session-oriented verification API: build step-1 summaries
//! once, check many properties.
//!
//! The paper's workflow is "summarize each element once (step 1), then
//! prove many properties by composition (step 2)". A [`Verifier`]
//! session makes that workflow first-class: it lazily builds and
//! caches [`PipelineSummaries`] once per [`MapMode`] (Abstract for
//! crash-freedom / bounded-execution, Tables for filtering) in a
//! shared [`TermPool`], and every [`Verifier::check`] /
//! [`Verifier::check_all`] call runs only the step-2 search for its
//! property. Auditing five properties on a ten-element pipeline pays
//! the step-1 cost at most twice — once per map mode — instead of
//! five times.
//!
//! ```no_run
//! use verifier::{FilterProperty, Property, Verifier, VerifyConfig};
//! # let pipeline = dataplane::Pipeline::new("p");
//! let mut v = Verifier::new(&pipeline).config(VerifyConfig::default());
//! for report in v.check_all(&[
//!     Property::CrashFreedom,
//!     Property::Bounded { imax: 5_000 },
//!     Property::Filter(FilterProperty::src(0x0BAD_0001)),
//! ]) {
//!     println!("{report}");
//! }
//! ```
//!
//! Step-1 results are additionally content-addressed in a
//! [`SummaryStore`]: pass one with [`Verifier::with_store`] and the
//! Abstract/Tables summaries survive the session, turning the next
//! session over the same elements (same pipeline, a rewired variant,
//! or a different table configuration for abstract-mode properties)
//! into pure cache hits — see [`crate::fleet`] for the N-variants ×
//! M-properties driver built on top.
//!
//! Properties are values ([`Property`]), so audits can be assembled,
//! stored and replayed; user-defined invariants plug in through
//! [`CustomProperty`] and run on the same cached summaries and the
//! same search. There is one step-2 engine — a single-threaded,
//! deterministic DFS ([`Verifier::check`] has no engine choice);
//! parallelism lives one level up, across the behaviour classes of a
//! [`crate::fleet::Fleet`].
//!
//! ## Determinism notes
//!
//! Proof status (proved / disproved / unknown), the violating
//! `(stage, segment)` trace and the counterexample packet are
//! independent of which properties were checked earlier in the
//! session: although a long-lived [`bvsolve::SolveSession`]'s
//! in-flight models depend on the learnt clauses and saved phases
//! earlier queries left behind, the bytes of every verdict-deciding
//! violation come from canonical minimal-model extraction on a private
//! session before it is reported (only when that extraction runs out
//! of conflict budget is the in-flight model reported instead).

use crate::compose::ComposedState;
use crate::cores::{CoreStats, CoreStore};
use crate::generic::{run_generic, GenericReport};
use crate::report::{json_escape, StaticStats, Verdict, VerifyReport};
use crate::stateful::{analyze, StateFinding};
use crate::step2::{
    aborted_report, bounded_suspects, crash_reach, crash_suspects, filter_suspects,
    longest_paths_from, lookahead, make_initial, new_session, search, segment_count, verdict_of,
    FilterProperty, LongestPath, Node, PropKind, SearchOutcome, VerifyConfig,
};
use crate::summary::{
    summarize_pipeline_with_store, MapMode, PipelineSummaries, SummaryKey, SummaryStore,
};
use bvsolve::{SolveSession, SolverLayerStats, TermPool};
use dataplane::{Element, ElementKind, Pipeline, Route, Stage};
use dpir::analysis::{lint_program, simplify, Diagnostic, IvEnv};
use dpir::PortId;
use std::sync::Arc;
use std::time::{Duration, Instant};
use symexec::{SegOutcome, Segment, SymConfig, SymInput};

/// A user-defined property over composed pipeline states, checked by
/// the same step-2 search as the built-in §4 properties.
///
/// Implementors classify each composed segment: a feasible state for
/// which [`CustomProperty::violation`] returns `Some` disproves the
/// property with a concrete counterexample packet; an exhausted
/// search proves it. The default hooks mirror crash-freedom:
/// step-1 fuel exhaustion blocks a full proof, loop overruns block
/// proofs rather than violating, and sink delivery is inert.
pub trait CustomProperty: Send + Sync {
    /// Property name used in reports.
    fn name(&self) -> String;

    /// Which step-1 summaries the property needs
    /// ([`MapMode::Abstract`] by default: arbitrary configuration).
    fn mode(&self) -> MapMode {
        MapMode::Abstract
    }

    /// Conjoins extra constraints onto the initial composed state
    /// (e.g. a header pattern, as filtering does). Default: none.
    fn constrain_initial(
        &self,
        _pool: &mut TermPool,
        _input: &SymInput,
        _init: &mut ComposedState,
    ) {
    }

    /// `Some(description)` when `seg`, composed into `state`, violates
    /// the property if feasible.
    fn violation(
        &self,
        pipeline: &Pipeline,
        stage: usize,
        seg: &Segment,
        state: &ComposedState,
    ) -> Option<String>;

    /// Whether a feasible instance of `seg` blocks a full proof
    /// without being a violation. Default: step-1 fuel exhaustion
    /// (the summary is incomplete past it).
    fn blocker(&self, seg: &Segment) -> bool {
        seg.outcome == SegOutcome::FuelExhausted
    }

    /// Whether a loop still continuing at its composition bound is a
    /// violation rather than a proof blocker. Default: blocker.
    fn loop_overrun_violates(&self) -> bool {
        false
    }

    /// Whether a packet leaving the pipeline via a sink violates the
    /// property. Default: no.
    fn sink_violates(&self) -> bool {
        false
    }

    /// Suspect count reported after step 1. Default: 0.
    fn suspects(&self, _sums: &PipelineSummaries) -> usize {
        0
    }
}

/// A verifiable property, as a first-class value.
///
/// The three §4 properties, the §5.2 generic baseline, the §3.4
/// private-state analysis, and an extension point for user-defined
/// invariants. Pass these to [`Verifier::check`] /
/// [`Verifier::check_all`].
#[derive(Clone)]
#[non_exhaustive]
pub enum Property {
    /// No packet may terminate the pipeline abnormally (§4).
    CrashFreedom,
    /// No packet may execute more than `imax` instructions (§4).
    Bounded {
        /// The instruction bound.
        imax: u64,
    },
    /// Packets matching the pattern are never delivered on a sink,
    /// under the pipeline's specific configuration (§4).
    Filter(FilterProperty),
    /// The whole-pipeline monolithic baseline (§5.2): no summaries, no
    /// decomposition — the exponential blow-up reference point.
    Generic {
        /// Loop unrolling bound per element.
        loop_cap: u32,
    },
    /// The §3.4 private-state pattern analysis over the cached
    /// abstract summaries (e.g. monotonic-counter overflow by
    /// induction).
    StateConsistency,
    /// A user-defined property over composed states.
    Custom(Arc<dyn CustomProperty>),
}

impl Property {
    /// The name this property's reports answer under (what
    /// [`Report::property`] returns).
    pub(crate) fn name(&self) -> String {
        match self {
            Property::Generic { loop_cap } => format!("generic (loop_cap={loop_cap})"),
            Property::StateConsistency => "state-consistency".into(),
            search => SearchProp::of(search)
                .expect("every other property is search-based")
                .name(),
        }
    }
}

impl std::fmt::Debug for Property {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Property::CrashFreedom => write!(f, "CrashFreedom"),
            Property::Bounded { imax } => write!(f, "Bounded {{ imax: {imax} }}"),
            Property::Filter(p) => write!(f, "Filter({p:?})"),
            Property::Generic { loop_cap } => write!(f, "Generic {{ loop_cap: {loop_cap} }}"),
            Property::StateConsistency => write!(f, "StateConsistency"),
            Property::Custom(c) => write!(f, "Custom({})", c.name()),
        }
    }
}

/// Result of checking [`Property::Generic`]: the baseline's state
/// counts plus run metadata.
#[derive(Debug)]
pub struct GenericRun {
    /// Pipeline name.
    pub pipeline: String,
    /// Loop unrolling bound used.
    pub loop_cap: u32,
    /// The baseline engine's report.
    pub report: GenericReport,
    /// Wall-clock time of the run.
    pub time: Duration,
}

/// Result of checking [`Property::StateConsistency`]: the §3.4
/// pattern findings.
#[derive(Debug)]
pub struct StateReport {
    /// Pipeline name.
    pub pipeline: String,
    /// Recognized private-state patterns and their induction results.
    pub findings: Vec<StateFinding>,
    /// Wall-clock time of the analysis, including the step-1 build
    /// when this check was the one that populated the session cache.
    pub time: Duration,
    /// `Some(reason)` when step 1 aborted and no analysis ran.
    pub error: Option<String>,
}

/// The outcome of one [`Verifier::check`] call.
///
/// Search-based properties (crash-freedom, bounded-execution,
/// filtering, custom) produce [`Report::Verify`]; the generic
/// baseline and the state analysis carry their own payloads. Every
/// variant serializes with [`Report::to_json`].
#[derive(Debug)]
// A handful of reports exist per verification run and they are moved,
// not stored in bulk — boxing the large variant would only tax every
// accessor for a size win nothing observes.
#[allow(clippy::large_enum_variant)]
pub enum Report {
    /// A property decided by the step-2 search.
    Verify(VerifyReport),
    /// The generic monolithic baseline.
    Generic(GenericRun),
    /// The §3.4 private-state findings.
    State(StateReport),
}

impl Report {
    /// The property name this report answers.
    pub fn property(&self) -> String {
        match self {
            Report::Verify(r) => r.property.clone(),
            Report::Generic(g) => Property::Generic {
                loop_cap: g.loop_cap,
            }
            .name(),
            Report::State(_) => Property::StateConsistency.name(),
        }
    }

    /// The verdict, for search-based properties.
    pub fn verdict(&self) -> Option<&Verdict> {
        match self {
            Report::Verify(r) => Some(&r.verdict),
            _ => None,
        }
    }

    /// The inner [`VerifyReport`], if this is a search-based property.
    pub fn as_verify(&self) -> Option<&VerifyReport> {
        match self {
            Report::Verify(r) => Some(r),
            _ => None,
        }
    }

    /// Unwraps the inner [`VerifyReport`].
    ///
    /// # Panics
    /// If the report came from [`Property::Generic`] or
    /// [`Property::StateConsistency`].
    pub fn expect_verify(self) -> VerifyReport {
        match self {
            Report::Verify(r) => r,
            other => panic!("expected a step-2 verification report, got {other:?}"),
        }
    }

    /// A single-line JSON rendering for machine consumption (bench
    /// trajectory diffs, CI): property, pipeline, verdict,
    /// counterexample, state/path counts, and step timings in
    /// milliseconds.
    pub fn to_json(&self) -> String {
        match self {
            Report::Verify(r) => r.to_json(),
            Report::Generic(g) => format!(
                "{{\"kind\":\"generic\",\"pipeline\":\"{}\",\"loop_cap\":{},\
                 \"outcome\":\"{}\",\"states\":{},\"paths\":{},\"crashes\":{},\
                 \"unbounded\":{},\"time_ms\":{:.3}}}",
                json_escape(&g.pipeline),
                g.loop_cap,
                match g.report.outcome {
                    crate::generic::GenericOutcome::Completed => "completed",
                    crate::generic::GenericOutcome::Exceeded => "exceeded",
                },
                g.report.states,
                g.report.paths,
                g.report.crashes,
                g.report.unbounded,
                g.time.as_secs_f64() * 1e3,
            ),
            Report::State(s) => format!(
                "{{\"kind\":\"state\",\"pipeline\":\"{}\",\"findings\":[{}],\
                 \"error\":{},\"time_ms\":{:.3}}}",
                json_escape(&s.pipeline),
                s.findings
                    .iter()
                    .map(|f| format!("\"{}\"", json_escape(&f.to_string())))
                    .collect::<Vec<_>>()
                    .join(","),
                match &s.error {
                    Some(e) => format!("\"{}\"", json_escape(e)),
                    None => "null".into(),
                },
                s.time.as_secs_f64() * 1e3,
            ),
        }
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Report::Verify(r) => r.fmt(f),
            Report::Generic(g) => write!(
                f,
                "{} / generic baseline (loop_cap={}): {:?} | {} states, {} paths, \
                 {} crash suspects, {} unbounded ({:?})",
                g.pipeline,
                g.loop_cap,
                g.report.outcome,
                g.report.states,
                g.report.paths,
                g.report.crashes,
                g.report.unbounded,
                g.time,
            ),
            Report::State(s) => {
                if let Some(e) = &s.error {
                    write!(f, "{} / state-consistency: {e}", s.pipeline)
                } else if s.findings.is_empty() {
                    write!(f, "{} / state-consistency: no patterns found", s.pipeline)
                } else {
                    write!(
                        f,
                        "{} / state-consistency: {}",
                        s.pipeline,
                        s.findings
                            .iter()
                            .map(|x| x.to_string())
                            .collect::<Vec<_>>()
                            .join("; ")
                    )
                }
            }
        }
    }
}

/// A search-based property in resolved form: the single mapping from
/// [`Property`] to the step-2 search parameters (mode, kind,
/// reachability, suspects, initial-state constraints), shared by
/// [`Verifier::check`] and [`crate::churn::ChurnSession`] so the two
/// drivers cannot diverge on property semantics.
pub(crate) enum SearchProp {
    Crash,
    Bounded { imax: u64 },
    Filter(FilterProperty),
    Custom(Arc<dyn CustomProperty>),
}

impl SearchProp {
    /// Resolves a property, `None` for the non-search properties
    /// (generic baseline, state analysis).
    pub(crate) fn of(property: &Property) -> Option<SearchProp> {
        match property {
            Property::CrashFreedom => Some(SearchProp::Crash),
            Property::Bounded { imax } => Some(SearchProp::Bounded { imax: *imax }),
            Property::Filter(p) => Some(SearchProp::Filter(p.clone())),
            Property::Custom(c) => Some(SearchProp::Custom(Arc::clone(c))),
            _ => None,
        }
    }

    pub(crate) fn name(&self) -> String {
        match self {
            SearchProp::Crash => "crash-freedom".into(),
            SearchProp::Bounded { imax } => format!("bounded-execution (imax={imax})"),
            SearchProp::Filter(_) => "filtering".into(),
            SearchProp::Custom(c) => c.name(),
        }
    }

    pub(crate) fn mode(&self) -> MapMode {
        match self {
            SearchProp::Crash | SearchProp::Bounded { .. } => MapMode::Abstract,
            SearchProp::Filter(_) => MapMode::Tables,
            SearchProp::Custom(c) => c.mode(),
        }
    }

    pub(crate) fn kind(&self) -> PropKind {
        match self {
            SearchProp::Crash => PropKind::Crash,
            SearchProp::Bounded { imax } => PropKind::Bounded { imax: *imax },
            SearchProp::Filter(_) => PropKind::Filter,
            SearchProp::Custom(c) => PropKind::Custom(Arc::clone(c)),
        }
    }

    pub(crate) fn reach(&self, sums: &PipelineSummaries) -> Vec<bool> {
        match self {
            SearchProp::Crash => crash_reach(sums),
            _ => lookahead(sums, |_| true),
        }
    }

    pub(crate) fn suspects(&self, pipeline: &Pipeline, sums: &PipelineSummaries) -> usize {
        match self {
            SearchProp::Crash => crash_suspects(sums),
            SearchProp::Bounded { .. } => bounded_suspects(sums),
            SearchProp::Filter(_) => filter_suspects(pipeline, sums),
            SearchProp::Custom(c) => c.suspects(sums),
        }
    }

    pub(crate) fn init_extra(
        &self,
        pool: &mut TermPool,
        sums: &PipelineSummaries,
        init: &mut ComposedState,
    ) {
        match self {
            SearchProp::Filter(p) => crate::step2::constrain_filter(pool, sums, p, init),
            SearchProp::Custom(c) => c.constrain_initial(pool, &sums.input, init),
            _ => {}
        }
    }
}

/// What the step-2 search of one property reads from one stage: the
/// step-1 summary it composes (by content address), the loop
/// composition bound, and where each output port leads.
#[derive(PartialEq, Eq, Hash)]
struct StageClass {
    summary: SummaryKey,
    max_iters: Option<u32>,
    routes: Vec<(PortId, Route)>,
}

/// The step-2 equivalence class of a `(pipeline, property)` check
/// under a fixed [`VerifyConfig`] and a fixed property value: two
/// checks with equal classes run the same deterministic search over
/// byte-identical summaries, so one's verdict, counterexample, trace
/// and counters are the other's (only the pipeline display name
/// differs). [`crate::fleet::Fleet::run`] searches once per class.
#[derive(PartialEq, Eq, Hash)]
pub(crate) struct SearchClass(Vec<StageClass>);

/// Keys `pipeline` for `spec`'s search, or `None` when the check must
/// never share a result: a [`CustomProperty`]'s hooks receive the
/// pipeline itself and may read anything in it (table contents
/// included), so no key can speak for them.
///
/// Every input struct is destructured exhaustively (no `..`), like
/// [`SummaryKey::of`] does for `SymConfig`: a new `Pipeline`, `Stage`
/// or `Element` field fails to compile here until it is keyed or
/// explicitly ignored. Key the *raw* pipeline — the static pass is a
/// function of the program and `sym`, so equal raw programs simplify
/// equally.
pub(crate) fn search_class(
    pipeline: &Pipeline,
    spec: &SearchProp,
    sym: &SymConfig,
) -> Option<SearchClass> {
    let mode = match spec {
        SearchProp::Custom(_) => return None,
        SearchProp::Crash | SearchProp::Bounded { .. } | SearchProp::Filter(_) => spec.mode(),
    };
    // The display name only labels the report; members keep their own.
    let Pipeline { name: _, stages } = pipeline;
    let stages = stages
        .iter()
        .map(|stage| {
            // `routes` is keyed as resolved below, so list order,
            // shadowed entries and implicit `Drop` do not split classes.
            let Stage { element, routes: _ } = stage;
            // `name`, the program and (in Tables mode only — step 2
            // never reads `element.tables`) the table contents are
            // inside the summary key; `info` is inventory metadata.
            let Element {
                name: _,
                kind,
                info: _,
                tables: _,
            } = element;
            StageClass {
                summary: SummaryKey::of(element, mode, sym),
                max_iters: match kind {
                    ElementKind::Straight(_) => None,
                    ElementKind::Loop { body: _, max_iters } => Some(*max_iters),
                },
                // Every port an `Emit` can name: a straight element may
                // emit (and route) `PORT_CONTINUE` like any other port.
                routes: element
                    .output_ports()
                    .into_iter()
                    .chain([dpir::PORT_CONTINUE])
                    .map(|port| (port, stage.resolve(port)))
                    .collect(),
            }
        })
        .collect();
    Some(SearchClass(stages))
}

/// The step-2 engine for one resolved property: builds the initial
/// state and runs the DFS through the given (usually long-lived) solver
/// and the mode's core store. One code path behind both
/// [`Verifier::check`] and [`crate::churn::ChurnSession`], so a churn
/// session's warm re-checks cannot diverge from a fresh session's.
/// Returns the outcome, the solver/core stat deltas and the
/// composed-path count.
pub(crate) fn run_step2(
    pool: &mut TermPool,
    pipeline: &Pipeline,
    sums: &PipelineSummaries,
    cfg: &VerifyConfig,
    spec: &SearchProp,
    solver: &mut SolveSession,
    cores: &mut CoreStore,
) -> (SearchOutcome, SolverLayerStats, CoreStats, usize) {
    let mut init = make_initial(pool, sums);
    spec.init_extra(pool, sums, &mut init);
    let reach = spec.reach(sums);
    let kind = spec.kind();
    let root = Node {
        stage: 0,
        iter: 0,
        state: init,
    };
    let mut composed = 0;
    let (solver_before, cores_before) = (solver.stats(), cores.stats());
    let outcome = search(
        pool,
        solver,
        cores,
        pipeline,
        sums,
        cfg,
        &kind,
        root,
        &reach,
        &mut composed,
    );
    (
        outcome,
        solver.stats().delta(&solver_before),
        cores.stats().delta(&cores_before),
        composed,
    )
}

/// Cached step-1 output for one map mode.
struct CachedSummaries {
    sums: PipelineSummaries,
    build_time: Duration,
    /// Disk-tier deltas of the build (summaries loaded from / written
    /// to the store's backing directory, bytes read) — zero for
    /// in-memory stores. Attributed to the check that built this mode,
    /// like `build_time`.
    store_loads: u64,
    store_writes: u64,
    load_bytes: u64,
    /// Fork-solver work of the stages the build executed.
    fork: bvsolve::SolverLayerStats,
}

fn mode_idx(mode: MapMode) -> usize {
    match mode {
        MapMode::Abstract => 0,
        MapMode::Tables => 1,
    }
}

/// The interval-analysis environment matching what the executor will
/// constrain the entry packet length to.
fn iv_env(sym: &SymConfig) -> IvEnv {
    IvEnv {
        len_lo: sym.min_pkt_len,
        len_hi: sym.max_pkt_bytes as u64,
    }
}

/// The static pass behind [`VerifyConfig::static_simplify`]: lints
/// every stage program (for the report counters), then replaces each
/// with its verdict-preserving simplification. Loop elements are
/// processed on their iteration body. Map-mode independent, so one
/// result serves both summary caches.
fn static_pass(pipeline: &Pipeline, sym: &SymConfig) -> (Pipeline, StaticStats) {
    let env = iv_env(sym);
    let mut out = pipeline.clone();
    let mut stats = StaticStats::default();
    for stage in &mut out.stages {
        let prog = match &mut stage.element.kind {
            ElementKind::Straight(p) => p,
            ElementKind::Loop { body, .. } => body,
        };
        stats.lints_emitted += lint_program(prog, env).len();
        let (simplified, s) = simplify(prog, env);
        stats.blocks_removed += s.blocks_removed;
        stats.intervals_seeded += s.intervals_exported;
        *prog = simplified;
    }
    (out, stats)
}

/// A verification session over one pipeline: summaries are built
/// lazily, cached per [`MapMode`], and shared by every property check.
///
/// See the [module docs](self) for the full workflow.
pub struct Verifier<'p> {
    pipeline: &'p Pipeline,
    cfg: VerifyConfig,
    pool: TermPool,
    cache: [Option<CachedSummaries>; 2],
    /// One long-lived step-2 solver session per [`MapMode`], created
    /// lazily beside the cached summaries: its blasted constraints and
    /// learnt clauses persist across every property check of the
    /// session.
    solvers: [Option<SolveSession>; 2],
    /// One UNSAT-core store per [`MapMode`], beside the cached
    /// summaries: cores learned refuting paths for one property prune
    /// the step-2 searches of every later property in the same mode
    /// (the constraint terms are hash-consed in the shared pool, so
    /// identical compositions re-intern to identical `TermId`s).
    /// Inert after [`Verifier::reference_without_core_pruning`].
    core_stores: [CoreStore; 2],
    /// The content-addressed step-1 summary store consulted (and fed)
    /// by [`Verifier::summaries`]. Private per session by default;
    /// [`Verifier::with_store`] shares one across sessions, pipelines
    /// and config variants, so the Abstract/Tables caches survive the
    /// session that built them. Cache hits rebase the stored
    /// pool-independent summaries into this session's `pool` via
    /// [`bvsolve::Migrator`], reproducing exactly what execution would
    /// have interned — verdicts and counterexample bytes are
    /// independent of the store's prior contents.
    store: Arc<SummaryStore>,
    /// Whether `store` was supplied via [`Verifier::with_store`]. A
    /// session-private store is cleared after each step-1 build: its
    /// entries each own a full [`bvsolve::TermPool`], and once a
    /// mode's summaries sit in `cache` nothing in this session reads
    /// them again (the other map mode hashes to different keys), so
    /// keeping them would roughly double step-1 memory for nothing.
    store_shared: bool,
    /// The statically simplified pipeline and the pass's counters,
    /// built lazily by the first step-1 build when
    /// [`VerifyConfig::static_simplify`] is on, then shared by both
    /// map modes (the pass only rewrites programs, which the modes
    /// share). `None` when the flag is off or no build ran yet.
    simplified: Option<(Pipeline, StaticStats)>,
    step1_runs: usize,
}

impl<'p> Verifier<'p> {
    /// A session over `pipeline` with the default configuration.
    pub fn new(pipeline: &'p Pipeline) -> Self {
        Verifier {
            pipeline,
            cfg: VerifyConfig::default(),
            pool: TermPool::new(),
            cache: [None, None],
            solvers: [None, None],
            core_stores: [CoreStore::new(), CoreStore::new()],
            store: SummaryStore::shared(),
            store_shared: false,
            simplified: None,
            step1_runs: 0,
        }
    }

    /// Shares a content-addressed [`SummaryStore`]: step-1 summaries
    /// this session builds become cache hits for every other session
    /// (or [`crate::fleet::Fleet`]) holding the same store, and vice
    /// versa. Call before the first `check`; summaries already cached
    /// in the session were built against the previous store.
    #[must_use]
    pub fn with_store(mut self, store: Arc<SummaryStore>) -> Self {
        self.store = store;
        self.store_shared = true;
        self
    }

    /// The summary store this session consults. Note that the default
    /// session-private store is cleared after every step-1 build (see
    /// [`Verifier::with_store`] for keeping summaries alive across
    /// sessions), so reading it here is mostly useful for its hit/miss
    /// counters.
    pub fn store(&self) -> &Arc<SummaryStore> {
        &self.store
    }

    /// Sets the verification configuration (step-1 settings and
    /// step-2 budgets). Call before the first `check`: summaries
    /// already cached were built with the previous configuration.
    #[must_use]
    pub fn config(mut self, cfg: VerifyConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The unpruned reference search: no UNSAT core is learnt, none
    /// prunes, and the solver sessions extract none. Not a mode of the
    /// product — the differential suites hold the pruned search to this
    /// arm (same verdicts, counterexample bytes and composed-path
    /// counts wherever every query is decided). Call before the first
    /// `check`.
    #[doc(hidden)]
    #[must_use]
    pub fn reference_without_core_pruning(mut self) -> Self {
        self.core_stores = [CoreStore::disabled(), CoreStore::disabled()];
        self
    }

    /// How many step-1 summarization passes this session has run —
    /// at most one per [`MapMode`], however many properties were
    /// checked. Exposed for the cache-behavior tests.
    pub fn step1_runs(&self) -> usize {
        self.step1_runs
    }

    /// Ensures summaries for `mode` are cached; returns whether this
    /// call built them.
    fn ensure(&mut self, mode: MapMode) -> Result<bool, symexec::SymError> {
        let idx = mode_idx(mode);
        if self.cache[idx].is_some() {
            return Ok(false);
        }
        let t0 = Instant::now();
        if self.cfg.static_simplify && self.simplified.is_none() {
            self.simplified = Some(static_pass(self.pipeline, &self.cfg.sym));
        }
        let Verifier {
            pool,
            pipeline,
            cfg,
            store,
            simplified,
            ..
        } = &mut *self;
        // With `static_simplify` on, step 1 summarizes the simplified
        // programs — their `Facts` make them fingerprint (and hence
        // store-key) differently from the raw ones whenever any fact
        // was derived, so the two modes never share cache entries.
        let summarized: &Pipeline = match simplified {
            Some((p, _)) => p,
            None => pipeline,
        };
        let (loads0, writes0, lbytes0, fork0) = (
            store.store_loads(),
            store.store_writes(),
            store.load_bytes(),
            store.fork_stats(),
        );
        let sums = summarize_pipeline_with_store(pool, summarized, &cfg.sym, mode, store, 1)?;
        self.step1_runs += 1;
        if !self.store_shared {
            // Nothing in this session will hit these entries again —
            // the summaries are cached above and the other map mode
            // keys differently. Drop the duplicate pools (intra-build
            // dedup across repeated elements already happened).
            self.store.clear();
        }
        self.cache[idx] = Some(CachedSummaries {
            sums,
            build_time: t0.elapsed(),
            store_loads: self.store.store_loads() - loads0,
            store_writes: self.store.store_writes() - writes0,
            load_bytes: self.store.load_bytes() - lbytes0,
            fork: self.store.fork_stats().delta(&fork0),
        });
        Ok(true)
    }

    /// The cached step-1 summaries for `mode`, building them if this
    /// is the first property to need them.
    pub fn summaries(&mut self, mode: MapMode) -> Result<&PipelineSummaries, symexec::SymError> {
        self.ensure(mode)?;
        Ok(&self.cache[mode_idx(mode)].as_ref().expect("ensured").sums)
    }

    /// Runs the [`dpir::analysis`] lint pass over every stage program
    /// (loop elements are linted on their iteration body), against
    /// this session's packet-length environment
    /// ([`symexec::SymConfig::min_pkt_len`] /
    /// [`symexec::SymConfig::max_pkt_bytes`]). Returns one
    /// `(element name, diagnostics)` entry per stage, in pipeline
    /// order — including stages with no findings, so callers can
    /// report coverage. Pure static analysis: nothing is executed,
    /// summarized or cached, and the raw (unsimplified) programs are
    /// linted regardless of [`VerifyConfig::static_simplify`].
    pub fn lint(&self) -> Vec<(String, Vec<Diagnostic>)> {
        let env = iv_env(&self.cfg.sym);
        self.pipeline
            .stages
            .iter()
            .map(|s| {
                (
                    s.element.name.clone(),
                    lint_program(s.element.program(), env),
                )
            })
            .collect()
    }

    /// Checks one property. Step-1 summaries are reused from the
    /// session cache when a previous check already built them for the
    /// same map mode.
    pub fn check(&mut self, property: Property) -> Report {
        if let Some(spec) = SearchProp::of(&property) {
            return Report::Verify(self.run_search(&spec));
        }
        let pipeline = self.pipeline;
        match property {
            Property::Generic { loop_cap } => {
                let t0 = Instant::now();
                let report = run_generic(pipeline, &self.cfg.sym, loop_cap);
                Report::Generic(GenericRun {
                    pipeline: pipeline.name.clone(),
                    loop_cap,
                    report,
                    time: t0.elapsed(),
                })
            }
            Property::StateConsistency => {
                // Like every check, step-1 cost is attributed to the
                // check that pays it: `time` includes the build when
                // this call populated the cache.
                let t0 = Instant::now();
                if let Err(e) = self.ensure(MapMode::Abstract) {
                    return Report::State(StateReport {
                        pipeline: pipeline.name.clone(),
                        findings: Vec::new(),
                        time: t0.elapsed(),
                        error: Some(format!("step 1 aborted: {e}")),
                    });
                }
                let cached = self.cache[mode_idx(MapMode::Abstract)]
                    .as_ref()
                    .expect("ensured");
                let findings = analyze(&mut self.pool, &cached.sums, pipeline);
                Report::State(StateReport {
                    pipeline: pipeline.name.clone(),
                    findings,
                    time: t0.elapsed(),
                    error: None,
                })
            }
            _ => unreachable!("search-based properties are handled above"),
        }
    }

    /// Checks every property in order, reusing the cached summaries —
    /// step 1 runs at most once per map mode for the whole batch.
    pub fn check_all(&mut self, properties: &[Property]) -> Vec<Report> {
        properties.iter().map(|p| self.check(p.clone())).collect()
    }

    /// The `n` longest feasible pipeline paths and packets exercising
    /// them (§5.3 adversarial workload construction), over the cached
    /// abstract summaries.
    pub fn longest_paths(&mut self, n: usize) -> Vec<LongestPath> {
        if self.ensure(MapMode::Abstract).is_err() {
            return Vec::new();
        }
        let Verifier {
            pipeline,
            cfg,
            pool,
            cache,
            core_stores,
            ..
        } = self;
        let cached = cache[mode_idx(MapMode::Abstract)].as_ref().expect("built");
        let sums = &cached.sums;
        let init = make_initial(pool, sums);
        // The longest-path search prunes with (and feeds) the same
        // abstract-mode core store as the property checks.
        let cores = &mut core_stores[mode_idx(MapMode::Abstract)];
        longest_paths_from(pool, pipeline, sums, init, cfg, cores, n)
    }

    /// One search-based check: cached summaries, then [`run_step2`]
    /// (shared with [`crate::churn::ChurnSession`]).
    fn run_search(&mut self, spec: &SearchProp) -> VerifyReport {
        let name = spec.name();
        let mode = spec.mode();
        let t0 = Instant::now();
        let built = match self.ensure(mode) {
            Ok(b) => b,
            Err(e) => return aborted_report(&name, self.pipeline, e, t0),
        };
        let Verifier {
            pipeline,
            cfg,
            pool,
            cache,
            solvers,
            core_stores,
            store,
            simplified,
            ..
        } = self;
        let cached = cache[mode_idx(mode)].as_ref().expect("ensured");
        let sums = &cached.sums;
        // Step-1 cost is attributed to the check that paid it; cache
        // hits report zero. The summary-store counters follow the same
        // attribution.
        let (step1_time, summary_hits, summary_misses, fork) = if built {
            (
                cached.build_time,
                sums.summary_hits,
                sums.summary_misses,
                cached.fork,
            )
        } else {
            (Duration::ZERO, 0, 0, Default::default())
        };

        let t1 = Instant::now();
        // The session beside the cache outlives this check: later
        // properties in the same map mode reuse its blasted constraints
        // and learnt clauses, and prune with the cores this one learns.
        // Both report their counters as the per-check delta.
        let cores = &mut core_stores[mode_idx(mode)];
        let solver = solvers[mode_idx(mode)].get_or_insert_with(|| new_session(cfg, cores));
        let (outcome, solver_stats, core_stats, composed_paths) =
            run_step2(pool, pipeline, sums, cfg, spec, solver, cores);
        VerifyReport {
            property: name,
            pipeline: pipeline.name.clone(),
            verdict: verdict_of(outcome),
            step1_states: sums.total_states,
            step1_segments: segment_count(sums),
            suspects: spec.suspects(pipeline, sums),
            composed_paths,
            solver: solver_stats,
            cores: core_stats,
            summary: crate::report::SummaryCacheStats {
                hits: summary_hits,
                misses: summary_misses,
                store_size: store.len(),
                store_loads: if built { cached.store_loads } else { 0 },
                store_writes: if built { cached.store_writes } else { 0 },
                load_bytes: if built { cached.load_bytes } else { 0 },
                // Lifetime counter of the (possibly shared) store, like
                // `store_size` — not a per-check delta.
                evictions: store.evictions(),
                ..Default::default()
            }
            .with_fork_stats(&fork),
            // Attributed like `step1_time`: the check that built this
            // mode's summaries reports the static pass's counters.
            static_stats: if built {
                simplified.as_ref().map(|(_, s)| *s).unwrap_or_default()
            } else {
                StaticStats::default()
            },
            step1_time,
            step2_time: t1.elapsed(),
        }
    }
}
