//! Fleet verification: N pipeline variants × M properties on one
//! shared summary store.
//!
//! Real deployments rarely verify one pipeline: they audit hundreds of
//! *variants* — the same handful of elements (CheckIPHeader, DecTTL,
//! NAT, IPLookup, …) wired into different pipelines or loaded with
//! different table configurations. A [`Fleet`] makes that the unit of
//! work: register variants and properties, call [`Fleet::run`], and
//! every `(pipeline, property)` pair is verified as an independent
//! task scheduled across worker threads, all consulting one
//! content-addressed [`SummaryStore`] — so step 1 runs once per
//! *distinct element*, not once per variant (and, for
//! [`MapMode::Abstract`](crate::MapMode) properties, not even once per
//! table configuration, since abstract keys ignore table contents).
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
//! assert!(report.summary_hits > 0, "variants share step-1 work");
//! ```
//!
//! ## Scheduling granularity
//!
//! Tasks are deliberately per-`(variant, property)`, not per-variant:
//! with more tasks than workers the queue load-balances uneven
//! variants (one slow disproof does not serialize its variant's other
//! checks behind it). The cost is that the per-*session*
//! cross-property reuse (solver-session blast caches,
//! UNSAT-core stores) resets per task — step-1 reuse is unaffected
//! (that is the store's job). When per-variant solver reuse matters
//! more than intra-variant parallelism — few properties, many slow
//! refutation proofs — run one [`Verifier::check_all`] session per
//! variant over a shared store instead; verdicts are identical either
//! way.
//!
//! ## Determinism
//!
//! Every task runs a fresh single-threaded [`Verifier`] session over
//! its own pipeline: no solver state, core store or term pool is
//! shared between tasks, so per-variant verdicts, counterexample
//! bytes and composed-path counts are **identical** whatever the fleet
//! thread count and task interleaving. The summary store is the only
//! shared state, and it only changes *who executes* a stage summary,
//! never its content (the executor is deterministic and hits are
//! rebased through [`bvsolve::Migrator`] exactly like misses) — so
//! results are also identical with the store shared, private, or
//! disabled ([`Fleet::share_store`] `= false`, the ablation baseline).
//! Only the cache counters and wall-clock times vary.

use crate::report::Verdict;
use crate::session::{Property, Report, Verifier};
use crate::step2::VerifyConfig;
use crate::summary::{effective_threads, run_indexed, SummaryStore};
use dataplane::Pipeline;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A fleet of pipeline variants to verify against a common property
/// set, sharing one step-1 [`SummaryStore`]. See the [module
/// docs](self).
pub struct Fleet {
    variants: Vec<(String, Pipeline)>,
    properties: Vec<Property>,
    cfg: VerifyConfig,
    threads: usize,
    store: Arc<SummaryStore>,
    share_store: bool,
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
            share_store: true,
        }
    }

    /// Sets the verification configuration used by every task.
    #[must_use]
    pub fn config(mut self, cfg: VerifyConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the worker count for `(pipeline, property)` task
    /// scheduling: `0` (the default) uses all available cores, `1`
    /// runs tasks in place. Each task itself runs the sequential
    /// engine — fleet-level parallelism replaces step-2 splitting.
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

    /// Whether tasks share the fleet's summary store (the default).
    /// `false` gives every task a throwaway store — the "cold, no
    /// sharing" A/B baseline used by the `fleet_ablation` bench;
    /// verdicts are identical either way.
    #[must_use]
    pub fn share_store(mut self, share: bool) -> Self {
        self.share_store = share;
        self
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

    /// The shared store the fleet consults.
    pub fn summary_store(&self) -> &Arc<SummaryStore> {
        &self.store
    }

    /// Verifies every variant against every property and aggregates
    /// the reports. Tasks are `(variant, property)` pairs, claimed
    /// from a shared queue by `threads` workers; results are merged in
    /// (variant, property) order regardless of completion order.
    pub fn run(&self) -> FleetReport {
        let t0 = Instant::now();
        let hits0 = self.store.hits();
        let misses0 = self.store.misses();
        let loads0 = self.store.store_loads();
        let writes0 = self.store.store_writes();
        let lbytes0 = self.store.load_bytes();
        let n_tasks = self.variants.len() * self.properties.len();
        let threads = effective_threads(self.threads).clamp(1, n_tasks.max(1));

        let reports = run_indexed(n_tasks, threads, |i| {
            let (v, p) = (i / self.properties.len(), i % self.properties.len());
            let (_, pipeline) = &self.variants[v];
            let mut session = Verifier::new(pipeline).config(self.cfg.clone()).threads(1);
            if self.share_store {
                session = session.with_store(Arc::clone(&self.store));
            }
            session.check(self.properties[p].clone())
        });

        let mut variants = Vec::with_capacity(self.variants.len());
        let mut it = reports.into_iter();
        for (name, _) in &self.variants {
            let vreports: Vec<Report> = (0..self.properties.len())
                .map(|_| it.next().expect("fleet task completed"))
                .collect();
            variants.push(VariantReport {
                variant: name.clone(),
                reports: vreports,
            });
        }
        FleetReport {
            variants,
            summary_hits: self.store.hits() - hits0,
            summary_misses: self.store.misses() - misses0,
            store_size: self.store.len(),
            store_loads: self.store.store_loads() - loads0,
            store_writes: self.store.store_writes() - writes0,
            load_bytes: self.store.load_bytes() - lbytes0,
            evictions: self.store.evictions(),
            time: t0.elapsed(),
        }
    }
}

/// One variant's reports, in fleet property order.
#[derive(Debug)]
pub struct VariantReport {
    /// The variant's display name.
    pub variant: String,
    /// One report per fleet property, in order.
    pub reports: Vec<Report>,
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
    /// Stage summaries served from the **fleet's shared store**
    /// during this run. Zero when sharing is disabled
    /// ([`Fleet::share_store`] `= false`); `> 0` on any fleet whose
    /// variants overlap in elements (or on a warm store).
    pub summary_hits: u64,
    /// Stage summaries executed into (and cached by) the **fleet's
    /// shared store** during this run. Like
    /// [`summary_hits`](FleetReport::summary_hits) this counts
    /// shared-store traffic only: with sharing disabled, tasks
    /// execute into private
    /// per-session stores and both counters read zero — the per-check
    /// execution counts are still on each report's
    /// [`VerifyReport::summary`](crate::VerifyReport) stats.
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
    /// In-memory LRU evictions over the store's lifetime (not a
    /// per-run delta; always zero for unbounded stores).
    pub evictions: u64,
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

    /// Summed step-1 wall-clock across all reports (the quantity the
    /// summary store amortizes; rebases from cache count, execution
    /// avoided does not).
    pub fn step1_time(&self) -> Duration {
        self.variants
            .iter()
            .flat_map(|v| &v.reports)
            .filter_map(|r| r.as_verify())
            .map(|r| r.step1_time)
            .sum()
    }

    /// Summed step-2 wall-clock across all reports.
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
             \"summary_hits\":{},\"summary_misses\":{},\"store_size\":{},\
             \"store_loads\":{},\"store_writes\":{},\"load_bytes\":{},\
             \"evictions\":{},\
             \"step1_ms\":{:.3},\"step2_ms\":{:.3},\"time_ms\":{:.3}}}",
            self.summary_hits,
            self.summary_misses,
            self.store_size,
            self.store_loads,
            self.store_writes,
            self.load_bytes,
            self.evictions,
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
            "fleet: {} variants x {} checks | step1 {:?} (cache: {} hits / {} misses, {} stored) | step2 {:?} | wall {:?}",
            self.variants.len(),
            self.variants.first().map_or(0, |v| v.reports.len()),
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
