//! Fleet verification: N pipeline variants × M properties, proved once
//! per behaviour on one shared summary store.
//!
//! Real deployments rarely verify one pipeline: they audit hundreds of
//! *variants* — the same handful of elements (CheckIPHeader, DecTTL,
//! NAT, IPLookup, …) wired into different pipelines or loaded with
//! different table configurations. A [`Fleet`] makes that the unit of
//! work: register variants and properties, call [`Fleet::run`], and
//! two layers of sharing apply. The content-addressed [`SummaryStore`]
//! makes step 1 once per *distinct element*, not once per variant.
//! Step-2 **equivalence classes** make the search once per *distinct
//! behaviour*: `(variant, property)` checks that would run the same
//! search are searched once and the report replayed to the rest — for
//! [`MapMode::Abstract`](crate::MapMode) properties (crash-freedom,
//! bounded-execution) that means once per wiring however many table
//! configurations are loaded into it, which is the paper's point in
//! abstracting data structures away: such a proof holds for *any*
//! table contents.
//!
//! ```no_run
//! use verifier::fleet::Fleet;
//! use verifier::Property;
//! # fn variant(i: usize) -> dataplane::Pipeline { dataplane::Pipeline::new("p") }
//! let mut fleet = Fleet::new().threads(0);
//! for i in 0..8 {
//!     fleet = fleet.variant(format!("cfg-{i}"), variant(i));
//! }
//! let report = fleet
//!     .properties(&[Property::CrashFreedom, Property::Bounded { imax: 10_000 }])
//!     .run();
//! println!("{report}");
//! assert_eq!(report.classes, 1, "config-only variants: one walk for both properties");
//! ```
//!
//! ## Scheduling granularity
//!
//! The unit of work is the equivalence class. The properties split
//! into step-2 walks as [`Verifier::check_all`] splits them (one for
//! crash-freedom and every bound, one per other property), and every
//! `(variant, walk)` pair is keyed by what the deterministic walk reads
//! (`search_class`): per stage, the [`SummaryKey`] under the walk's map
//! mode — element name, program, `SymConfig`, and in Tables mode the
//! table contents — the loop composition bound, and where each output
//! port resolves to. The config and the properties are fleet-wide, so
//! pairs are grouped by `(walk index, key)`; the first member of each
//! class (in registration order) is checked by a fresh [`Verifier`]'s
//! `check_all` of the walk on the worker pool, and every other member
//! gets each report as a replay: its own pipeline name, the walk's
//! verdicts and step-2 counters, and no step-1 work and zero times —
//! the same replay a [`ChurnSession`](crate::ChurnSession) memo hit
//! reports. So the reports' step-1 counters sum to the store's.
//! [`FleetReport::classes`] and [`VariantReport::replayed`] say which
//! was which.
//!
//! Every search-based check is keyed: the three §4 properties decide
//! each segment from its summary, its instruction count and its route,
//! never from anything else in the pipeline, so the key speaks for the
//! whole search. Never shared — each a class of one:
//! [`Property::Generic`] and [`Property::StateConsistency`]. A
//! [`Property::Filter`] check shares only between variants whose table
//! *contents* are equal, because its Tables-mode summary keys say so.
//! Everything a class decides is fanned out, `Unknown` included: every
//! member would have computed the same `Unknown`, and nothing is
//! carried to a later run.
//!
//! Classes, not variants, are scheduled: with more classes than
//! workers the queue load-balances uneven searches (one slow disproof
//! does not serialize its variant's other walks behind it). The cost
//! is that the per-*session* cross-walk reuse (solver-session blast
//! caches, UNSAT-core stores) resets per class — step-1 reuse is
//! unaffected (that is the store's job). A check that panics (an
//! internal `expect`, a malformed program) yields
//! `Unknown("internal: check panicked: …")` for every property of its
//! class; every other class finishes. The class workers are the only
//! threads the crate starts: step 1 of one pipeline and step 2 of one
//! walk each run on the worker that owns the class.
//!
//! ## Determinism
//!
//! Every class runs a fresh single-threaded [`Verifier`] session over
//! its first member's pipeline: no solver state, core store or term
//! pool is shared between classes, so its verdict, counterexample
//! bytes, trace and composed-path count are a function of its inputs
//! alone — the inputs the class key is made of. That is what makes a
//! replayed report exact rather than approximate: running the member's
//! own session would reproduce it byte for byte (the fleet tests
//! compare every report against a standalone session, and re-run
//! fanned-out counterexamples on each member's concrete dataplane).
//! Results are therefore **identical** whatever the fleet thread count
//! and class interleaving. The summary store is the only shared state,
//! and it only changes *who executes* a stage summary, never its
//! content (the executor is deterministic, hits are rebased through
//! [`bvsolve::Migrator`] exactly like misses, and a key two workers
//! miss on together is executed by one of them) — so results are also
//! identical to a standalone [`Verifier`]'s private store. Only the
//! cache counters and wall-clock times vary.

use crate::report::{replay, SummaryCacheStats, Verdict};
use crate::session::{Property, Report, Verifier};
use crate::step2::{unknown_report, walks, VerifyConfig};
use crate::summary::{MapMode, SummaryKey, SummaryStore};
use dataplane::{Element, ElementKind, Hop, Pipeline, Stage};
use dpir::PortId;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use symexec::SymConfig;

/// A fleet of pipeline variants to verify against a common property
/// set, sharing one step-1 [`SummaryStore`]. See the [module
/// docs](self).
pub struct Fleet {
    variants: Vec<(String, Pipeline)>,
    properties: Vec<Property>,
    cfg: VerifyConfig,
    threads: usize,
    store: Arc<SummaryStore>,
}

impl Default for Fleet {
    fn default() -> Self {
        Self::new()
    }
}

impl Fleet {
    /// An empty fleet with the default configuration, all cores.
    pub fn new() -> Self {
        Fleet {
            variants: Vec::new(),
            properties: Vec::new(),
            cfg: VerifyConfig::default(),
            threads: 0,
            store: SummaryStore::shared(),
        }
    }

    /// Sets the verification configuration used by every task.
    #[must_use]
    pub fn config(mut self, cfg: VerifyConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the worker count for class scheduling: `0` (the default)
    /// uses all available cores, `1` runs the searches in place; never
    /// more workers than classes. This is the one level parallelism
    /// lives at: each search is single-threaded.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Uses `store` instead of a fresh one — e.g. a store kept warm
    /// across fleet runs, or shared with individual [`Verifier`]
    /// sessions.
    #[must_use]
    pub fn store(mut self, store: Arc<SummaryStore>) -> Self {
        self.store = store;
        self
    }

    /// Backs the fleet's shared store with the on-disk directory `dir`
    /// (created if absent; see [`SummaryStore::persistent`]): step-1
    /// warmth then survives the process and is shared across
    /// concurrent fleets pointed at the same directory. Replaces any
    /// store set earlier; call before [`Fleet::run`].
    pub fn with_store_path(mut self, dir: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        self.store = Arc::new(SummaryStore::persistent(dir)?);
        Ok(self)
    }

    /// Adds a pipeline variant under a display name.
    #[must_use]
    pub fn variant(mut self, name: impl Into<String>, pipeline: Pipeline) -> Self {
        self.variants.push((name.into(), pipeline));
        self
    }

    /// Sets the properties every variant is checked against.
    #[must_use]
    pub fn properties(mut self, properties: &[Property]) -> Self {
        self.properties = properties.to_vec();
        self
    }

    /// Verifies every variant against every property and aggregates
    /// the reports. The `(variant, walk)` pairs are grouped into step-2
    /// equivalence classes (see the [module docs](self)); one
    /// `check_all` per class is claimed from a shared queue by
    /// `threads` workers and its reports replayed to the class's other
    /// members. Results are merged in (variant, property) order
    /// regardless of completion order.
    pub fn run(&self) -> FleetReport {
        let t0 = Instant::now();
        let n_props = self.properties.len();

        // One entry per class: the walk index and the member variants
        // in registration order; the first member is searched.
        let walks = walks(self.properties.iter().map(Property::mode));
        let mut classes: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut by_key: HashMap<(usize, SearchClass), usize> = HashMap::new();
        for (v, (_, pipeline)) in self.variants.iter().enumerate() {
            for (w, walk) in walks.iter().enumerate() {
                // Generic and StateConsistency checks are never shared.
                let key = self.properties[walk[0]]
                    .mode()
                    .map(|mode| search_class(pipeline, mode, &self.cfg.sym));
                let fresh = classes.len();
                let class = match key {
                    Some(key) => *by_key.entry((w, key)).or_insert(fresh),
                    None => fresh,
                };
                if class == fresh {
                    classes.push((w, Vec::new()));
                }
                classes[class].1.push(v);
            }
        }

        let searched = run_indexed(classes.len(), effective_threads(self.threads), |c| {
            let (w, members) = &classes[c];
            let pipeline = &self.variants[members[0]].1;
            let properties: Vec<Property> = walks[*w]
                .iter()
                .map(|&p| self.properties[p].clone())
                .collect();
            // One panicking check (an internal `expect`, a malformed
            // program) costs its class an `Unknown` per property, never
            // the audit. Unwind safety: everything the closure mutates
            // is the session it owns, dropped with the panic; the
            // shared store clears its in-flight markers on unwind.
            catch_unwind(AssertUnwindSafe(|| {
                Verifier::new(pipeline)
                    .config(self.cfg.clone())
                    .with_store(Arc::clone(&self.store))
                    .check_all(&properties)
            }))
            .unwrap_or_else(|payload| {
                let reason = panic_reason(payload.as_ref());
                properties
                    .iter()
                    .map(|p| unknown_report(&p.name(), pipeline, reason.clone(), Duration::ZERO))
                    .map(Report::Verify)
                    .collect()
            })
        });

        let mut slots: Vec<Option<(Report, bool)>> = Vec::new();
        slots.resize_with(self.variants.len() * n_props, || None);
        for ((w, members), reports) in classes.iter().zip(searched) {
            for (&p, report) in walks[*w].iter().zip(reports) {
                for &v in &members[1..] {
                    let r = report.as_verify().expect("only searches share classes");
                    let member = replay(r, &self.variants[v].1.name);
                    slots[v * n_props + p] = Some((Report::Verify(member), true));
                }
                slots[members[0] * n_props + p] = Some((report, false));
            }
        }
        let mut slots = slots.into_iter();
        let variants = self
            .variants
            .iter()
            .map(|(name, _)| {
                let (reports, replayed) = slots
                    .by_ref()
                    .take(n_props)
                    .map(|slot| slot.expect("every check belongs to a class"))
                    .unzip();
                VariantReport {
                    variant: name.clone(),
                    reports,
                    replayed,
                }
            })
            .collect::<Vec<VariantReport>>();
        // Each searched report carries exactly its own fetches and a
        // replay carries none, so the sums are this run's step-1 work.
        let step1: Vec<&SummaryCacheStats> = variants
            .iter()
            .flat_map(|v| &v.reports)
            .filter_map(|r| r.as_verify().map(|r| &r.summary))
            .collect();
        let sum = |f: fn(&SummaryCacheStats) -> u64| step1.iter().map(|s| f(s)).sum::<u64>();
        FleetReport {
            classes: classes.len(),
            summary_hits: sum(|s| s.hits as u64),
            summary_misses: sum(|s| s.misses as u64),
            store_size: self.store.len(),
            store_loads: sum(|s| s.store_loads),
            store_writes: sum(|s| s.store_writes),
            load_bytes: sum(|s| s.load_bytes),
            fork: bvsolve::SolverLayerStats {
                queries: sum(|s| s.fork_queries),
                sat_solve_calls: sum(|s| s.fork_sat_calls),
                blast_cache_hits: sum(|s| s.fork_blast_cache_hits),
                learnt_reused: sum(|s| s.fork_learnt_reused),
                ..Default::default()
            },
            variants,
            time: t0.elapsed(),
        }
    }
}

/// What the step-2 walk of one map mode reads from one stage: the
/// step-1 summary it composes (by content address), the loop
/// composition bound, and where each output port leads.
#[derive(PartialEq, Eq, Hash)]
struct StageClass {
    summary: SummaryKey,
    max_iters: Option<u32>,
    routes: Vec<(PortId, Hop)>,
}

/// The step-2 equivalence class of a `(pipeline, walk)` pair under a
/// fixed [`VerifyConfig`] and a fixed property list: two pairs with
/// equal classes run the same deterministic walk over byte-identical
/// summaries, so one's verdicts, counterexamples, traces and counters
/// are the other's (only the pipeline display name differs).
/// [`Fleet::run`] searches once per class.
#[derive(PartialEq, Eq, Hash)]
struct SearchClass(Vec<StageClass>);

/// Keys `pipeline` for a walk over its `mode` summaries.
///
/// Every input struct is destructured exhaustively (no `..`), like
/// [`SummaryKey::of`] does for `SymConfig`: a new `Pipeline`, `Stage`
/// or `Element` field fails to compile here until it is keyed or
/// explicitly ignored. The programs keyed are the ones step 1
/// executes: nothing rewrites them in between.
fn search_class(pipeline: &Pipeline, mode: MapMode, sym: &SymConfig) -> SearchClass {
    // The display name only labels the report; members keep their own.
    let Pipeline { name: _, stages } = pipeline;
    let stages = stages
        .iter()
        .enumerate()
        .map(|(k, stage)| {
            // `routes` is keyed as hops below, so list order, shadowed
            // entries, implicit `Drop` and `Next` vs `To(k + 1)` do not
            // split classes.
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
                    .map(|port| (port, pipeline.hop(k, port)))
                    .collect(),
            }
        })
        .collect();
    SearchClass(stages)
}

/// Resolves a thread-count knob: `0` means all available cores.
fn effective_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Runs `n` independent indexed tasks across `threads` workers
/// (`<= 1` runs them in place) and collects the results in index
/// order — the worker pool behind [`Fleet::run`].
fn run_indexed<T: Send>(n: usize, threads: usize, task: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return (0..n).map(task).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock().expect("task slot poisoned") = Some(task(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("task slot poisoned")
                .expect("worker pool ran every task")
        })
        .collect()
}

/// The `Unknown("internal: …")` reason a class degrades to instead of
/// unwinding through [`Fleet::run`], with the caught panic's message
/// (`panic!` payloads are `&str` or `String`).
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    format!("internal: check panicked: {message}")
}

/// One variant's reports, in fleet property order.
#[derive(Debug)]
pub struct VariantReport {
    /// The variant's display name.
    pub variant: String,
    /// One report per fleet property, in order.
    pub reports: Vec<Report>,
    /// Per property: whether the report was replayed from another
    /// variant in the same step-2 equivalence class (same verdict and
    /// step-2 counters, no step-1 work, zero step times) instead of
    /// searched for this one.
    pub replayed: Vec<bool>,
}

impl VariantReport {
    /// Whether every search-based property was proved (non-search
    /// reports are ignored).
    pub fn all_proved(&self) -> bool {
        self.reports
            .iter()
            .filter_map(|r| r.verdict())
            .all(Verdict::is_proved)
    }
}

/// Aggregate result of one [`Fleet::run`].
#[derive(Debug)]
pub struct FleetReport {
    /// Per-variant reports, in registration order.
    pub variants: Vec<VariantReport>,
    /// Step-2 equivalence classes among the `(variant, walk)` pairs —
    /// the number of walks this run actually searched.
    pub classes: usize,
    /// Stage summaries served from the fleet's shared store during
    /// this run: `> 0` whenever two of the run's searches overlap in
    /// elements (or on a warm store). This and every step-1 counter
    /// below is the sum of the reports'
    /// [`VerifyReport::summary`](crate::VerifyReport) counters: each
    /// searched report carries exactly its own fetches and a replay
    /// carries none, so the sums hold however the classes interleave.
    /// Step 1 run for a [`Property::StateConsistency`] check has no
    /// search report and is not counted.
    pub summary_hits: u64,
    /// Stage summaries executed into (and cached by) the fleet's
    /// shared store during this run — the sum of the reports' misses.
    pub summary_misses: u64,
    /// Store size after the run.
    pub store_size: usize,
    /// Summaries loaded from the store's backing directory during this
    /// run (zero for in-memory stores; each load also counts as a
    /// [`summary_hits`](FleetReport::summary_hits) entry — disk loads
    /// skip execution).
    pub store_loads: u64,
    /// Summaries written back to the backing directory during this
    /// run.
    pub store_writes: u64,
    /// Bytes read from disk by `store_loads`.
    pub load_bytes: u64,
    /// Step-1 solver work of this run's `summary_misses`: the
    /// fork-feasibility counters of every stage the shared store
    /// executed (`queries` asked, `sat_solve_calls` that reached CDCL,
    /// `blast_cache_hits` = path-condition conjuncts found already
    /// blasted, `learnt_reused`). A warm run reads all zero.
    pub fork: bvsolve::SolverLayerStats,
    /// Wall-clock time of the whole run.
    pub time: Duration,
}

impl FleetReport {
    /// Whether every variant proved every search-based property.
    pub fn all_proved(&self) -> bool {
        self.variants.iter().all(VariantReport::all_proved)
    }

    /// Count of `(variant, property)` pairs that were disproved.
    pub fn disproved(&self) -> usize {
        self.variants
            .iter()
            .flat_map(|v| &v.reports)
            .filter_map(|r| r.verdict())
            .filter(|v| v.is_disproved())
            .count()
    }

    /// Count of `(variant, property)` checks answered by replaying
    /// their class's search: the checks minus those of each class's
    /// searched member.
    pub fn checks_replayed(&self) -> usize {
        self.variants
            .iter()
            .flat_map(|v| &v.replayed)
            .filter(|&&r| r)
            .count()
    }

    /// Summed step-1 wall-clock across all reports (the quantity the
    /// summary store amortizes; rebases from cache count, execution
    /// avoided does not). Replayed reports carry zero, so this is CPU
    /// actually spent.
    pub fn step1_time(&self) -> Duration {
        self.variants
            .iter()
            .flat_map(|v| &v.reports)
            .filter_map(|r| r.as_verify())
            .map(|r| r.step1_time)
            .sum()
    }

    /// Summed step-2 wall-clock across all reports — one search per
    /// class; replayed reports carry zero.
    pub fn step2_time(&self) -> Duration {
        self.variants
            .iter()
            .flat_map(|v| &v.reports)
            .filter_map(|r| r.as_verify())
            .map(|r| r.step2_time)
            .sum()
    }

    /// A single-line JSON rendering: per-variant verdict strings plus
    /// the aggregate cache counters and timings.
    pub fn to_json(&self) -> String {
        let variants = self
            .variants
            .iter()
            .map(|v| {
                let verdicts = v
                    .reports
                    .iter()
                    .map(|r| {
                        format!(
                            "{{\"property\":\"{}\",\"verdict\":\"{}\"}}",
                            crate::report::json_escape(&r.property()),
                            r.verdict().map_or("n/a", Verdict::label)
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    "{{\"variant\":\"{}\",\"checks\":[{verdicts}]}}",
                    crate::report::json_escape(&v.variant)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"kind\":\"fleet\",\"variants\":[{variants}],\
             \"classes\":{},\"checks_replayed\":{},\
             \"summary_hits\":{},\"summary_misses\":{},\"store_size\":{},\
             \"store_loads\":{},\"store_writes\":{},\"load_bytes\":{},\
             \"fork_queries\":{},\"fork_sat_calls\":{},\
             \"fork_blast_cache_hits\":{},\"fork_learnt_reused\":{},\
             \"step1_ms\":{:.3},\"step2_ms\":{:.3},\"time_ms\":{:.3}}}",
            self.classes,
            self.checks_replayed(),
            self.summary_hits,
            self.summary_misses,
            self.store_size,
            self.store_loads,
            self.store_writes,
            self.load_bytes,
            self.fork.queries,
            self.fork.sat_solve_calls,
            self.fork.blast_cache_hits,
            self.fork.learnt_reused,
            self.step1_time().as_secs_f64() * 1e3,
            self.step2_time().as_secs_f64() * 1e3,
            self.time.as_secs_f64() * 1e3,
        )
    }
}

impl std::fmt::Display for FleetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fleet: {} variants x {} properties = {} checks in {} classes | step1 {:?} (cache: {} hits / {} misses, {} stored) | step2 {:?} | wall {:?}",
            self.variants.len(),
            self.variants.first().map_or(0, |v| v.reports.len()),
            self.variants.iter().map(|v| v.reports.len()).sum::<usize>(),
            self.classes,
            self.step1_time(),
            self.summary_hits,
            self.summary_misses,
            self.store_size,
            self.step2_time(),
            self.time,
        )?;
        for v in &self.variants {
            write!(f, "  {}:", v.variant)?;
            for r in &v.reports {
                let verdict = match r.verdict() {
                    Some(Verdict::Proved) => "proved".to_string(),
                    Some(Verdict::Disproved(c)) => format!("DISPROVED ({})", c.description),
                    Some(Verdict::Unknown(u)) => format!("unknown ({u})"),
                    None => "n/a".to_string(),
                };
                write!(f, " [{} {verdict}]", r.property())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}
