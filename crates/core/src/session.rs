//! The session-oriented verification API: build step-1 summaries
//! once, check many properties.
//!
//! The paper's workflow is "summarize each element once (step 1), then
//! prove many properties by composition (step 2)". A [`Verifier`]
//! session makes that workflow first-class: it lazily builds and
//! caches [`PipelineSummaries`] once per [`MapMode`] (Abstract for
//! crash-freedom / bounded-execution, Tables for filtering) in a
//! shared [`TermPool`](bvsolve::TermPool), and every [`Verifier::check`] /
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
//! stored and replayed. The three search-based ones resolve to one
//! internal type the step-2 search reads, and every search-based check
//! runs on the same cached summaries and the same search. There is one
//! step-2 engine — a single-threaded, deterministic DFS
//! ([`Verifier::check`] has no engine choice);
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
//! violation are the lexicographically smallest witness of its path
//! constraint, minimised on that same session before it is reported
//! ([`bvsolve::SolveSession::lex_min_model`]; only when the
//! minimisation runs out of conflict budget is the in-flight model
//! reported instead). The session's solver counters therefore include
//! the extraction's CDCL calls, decisions and propagations.

use crate::engine::{iv_env, Engine, Step1};
use crate::generic::{run_generic, GenericReport};
use crate::report::{json_escape, Verdict, VerifyReport};
use crate::stateful::{analyze, StateFinding};
use crate::step2::{
    aborted_report, longest_paths_from, make_initial, FilterProperty, LongestPath, SearchProperty,
    VerifyConfig,
};
use crate::summary::{MapMode, PipelineSummaries, SummaryKey, SummaryStore};
use dataplane::{Element, ElementKind, Pipeline, Route, Stage};
use dpir::analysis::{lint_program, Diagnostic};
use dpir::PortId;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use symexec::SymConfig;

/// A verifiable property, as a first-class value.
///
/// The three §4 properties, the §5.2 generic baseline and the §3.4
/// private-state analysis. Pass these to [`Verifier::check`] /
/// [`Verifier::check_all`].
#[derive(Clone, Debug)]
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
}

impl Property {
    /// The name this property's reports answer under (what
    /// [`Report::property`] returns).
    pub(crate) fn name(&self) -> String {
        match self {
            Property::Generic { loop_cap } => format!("generic (loop_cap={loop_cap})"),
            Property::StateConsistency => "state-consistency".into(),
            search => SearchProperty::of(search)
                .expect("every other property is search-based")
                .name(),
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
/// filtering) produce [`Report::Verify`]; the generic
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

/// Keys `pipeline` for `prop`'s search.
///
/// Every input struct is destructured exhaustively (no `..`), like
/// [`SummaryKey::of`] does for `SymConfig`: a new `Pipeline`, `Stage`
/// or `Element` field fails to compile here until it is keyed or
/// explicitly ignored. The programs keyed are the ones step 1
/// executes: nothing rewrites them in between.
pub(crate) fn search_class(
    pipeline: &Pipeline,
    prop: &SearchProperty,
    sym: &SymConfig,
) -> SearchClass {
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
                summary: SummaryKey::of(element, prop.mode(), sym),
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
    SearchClass(stages)
}

/// A verification session over one pipeline: summaries are built
/// lazily, cached per [`MapMode`], and shared by every property check.
///
/// See the [module docs](self) for the full workflow.
pub struct Verifier<'p> {
    pipeline: &'p Pipeline,
    engine: Engine,
}

impl<'p> Verifier<'p> {
    /// A session over `pipeline` with the default configuration.
    pub fn new(pipeline: &'p Pipeline) -> Self {
        Verifier {
            pipeline,
            engine: Engine::new(VerifyConfig::default(), false),
        }
    }

    /// Shares a content-addressed [`SummaryStore`]: step-1 summaries
    /// this session builds become cache hits for every other session
    /// (or [`crate::fleet::Fleet`]) holding the same store, and vice
    /// versa. Call before the first `check`; summaries already cached
    /// in the session were built against the previous store.
    #[must_use]
    pub fn with_store(mut self, store: Arc<SummaryStore>) -> Self {
        self.engine.store = store;
        self.engine.retain_store = true;
        self
    }

    /// The summary store this session consults. Note that the default
    /// session-private store is cleared after every step-1 build (see
    /// [`Verifier::with_store`] for keeping summaries alive across
    /// sessions), so reading it here is mostly useful for its hit/miss
    /// counters.
    pub fn store(&self) -> &Arc<SummaryStore> {
        &self.engine.store
    }

    /// Sets the verification configuration (step-1 settings and
    /// step-2 budgets). Call before the first `check`: summaries
    /// already cached were built with the previous configuration.
    #[must_use]
    pub fn config(mut self, cfg: VerifyConfig) -> Self {
        self.engine.cfg = cfg;
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
        self.engine.disable_core_pruning();
        self
    }

    /// How many step-1 summarization passes this session has run —
    /// at most one per [`MapMode`], however many properties were
    /// checked. Exposed for the cache-behavior tests.
    pub fn step1_runs(&self) -> usize {
        self.engine.step1_runs
    }

    /// Ensures summaries for `mode` are cached; returns the step-1 work
    /// when this call built them.
    fn ensure(&mut self, mode: MapMode) -> Result<Option<Step1>, symexec::SymError> {
        // A borrowed pipeline never changes: nothing to re-key.
        self.engine
            .ensure(self.pipeline, mode, &mut BTreeSet::new())
    }

    /// The cached step-1 summaries for `mode`, building them if this
    /// is the first property to need them.
    pub fn summaries(&mut self, mode: MapMode) -> Result<&PipelineSummaries, symexec::SymError> {
        self.ensure(mode)?;
        Ok(self.engine.summaries(mode).expect("ensured"))
    }

    /// Runs the [`dpir::analysis`] lint pass over every stage program
    /// (loop elements are linted on their iteration body), against
    /// this session's packet-length environment
    /// ([`symexec::SymConfig::min_pkt_len`] /
    /// [`symexec::SymConfig::max_pkt_bytes`]). Returns one
    /// `(element name, diagnostics)` entry per stage, in pipeline
    /// order — including stages with no findings, so callers can
    /// report coverage. Pure static analysis: nothing is executed,
    /// summarized or cached, and the programs linted are exactly the
    /// ones step 1 executes.
    pub fn lint(&self) -> Vec<(String, Vec<Diagnostic>)> {
        let env = iv_env(&self.engine.cfg.sym);
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
    /// same map mode; the check that builds them reports the build.
    pub fn check(&mut self, property: Property) -> Report {
        let pipeline = self.pipeline;
        match property {
            Property::Generic { loop_cap } => {
                let t0 = Instant::now();
                let report = run_generic(pipeline, &self.engine.cfg.sym, loop_cap);
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
                let (pool, sums, _, cfg) = self.engine.warm(MapMode::Abstract);
                let findings = analyze(pool, sums, pipeline, cfg);
                Report::State(StateReport {
                    pipeline: pipeline.name.clone(),
                    findings,
                    time: t0.elapsed(),
                    error: None,
                })
            }
            search => {
                let prop =
                    SearchProperty::of(&search).expect("every other property is search-based");
                let t0 = Instant::now();
                Report::Verify(match self.ensure(prop.mode()) {
                    Ok(step1) => self.engine.check(pipeline, &prop, step1),
                    Err(e) => aborted_report(&prop.name(), pipeline, e, t0),
                })
            }
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
        // The longest-path search prunes with (and feeds) the same
        // abstract-mode core store as the property checks.
        let (pool, sums, cores, cfg) = self.engine.warm(MapMode::Abstract);
        let init = make_initial(pool, sums);
        longest_paths_from(pool, self.pipeline, sums, init, cfg, cores, n)
    }
}
