//! Config-update streams: incremental re-verification under
//! control-plane churn.
//!
//! A deployed dataplane is not verified once — its tables mutate
//! continuously (FIB updates, NAT statics, classifier rules), and
//! gating every config push on a verdict means re-verifying at the
//! control plane's update rate. A [`ChurnSession`] makes that cheap:
//! it owns one pipeline and keeps warm everything a fresh [`Verifier`]
//! would rebuild — the content-addressed [`SummaryStore`], one
//! persistent [`TermPool`], and per map mode the summaries, a
//! learnt-core store and an incremental solver session; the same
//! engine a `Verifier` runs on — and exposes
//! [`ChurnSession::apply_delta`], which applies one [`TableDelta`] and
//! re-establishes every property.
//!
//! Three observations make per-update work O(change), not O(pipeline):
//!
//! 1. **Abstract summaries are table-blind.** [`MapMode::Abstract`]
//!    keys exclude table contents, so crash-freedom and
//!    bounded-execution summaries survive *every* table update
//!    untouched.
//! 2. **Tables-mode keys are per-stage.** The first check that needs
//!    Tables mode after a delta re-keys only the stages the delta
//!    changed ([`SummaryKey`] over the incrementally-maintained table
//!    fingerprint); unchanged stages keep their summaries and their
//!    exact terms in the persistent pool, so re-composed paths
//!    re-intern to identical `TermId`s and previously learnt UNSAT
//!    cores keep pruning.
//!    Cores referring to a *replaced* stage's terms can never match a
//!    new composition (the pool is append-only, so stale `TermId`s are
//!    never reused) — retention across updates is sound by
//!    construction.
//! 3. **Verdicts are deterministic.** The step-2 search is
//!    deterministic over its inputs, so when an update leaves a mode's
//!    summaries byte-identical (every table delta, for Abstract; no-op
//!    deltas, for Tables), the previous *decided* report can be
//!    replayed without searching at all. An `Unknown` is never
//!    replayed: the warmer session may decide it on the next update.
//!
//! The oracle of the differential tests (`crates/bench/tests/churn.rs`)
//! is a fresh [`Verifier`] over [`ChurnSession::pipeline`] after every
//! update: verdicts, counterexample bytes and composed-path counts must
//! match.
//!
//! ```no_run
//! use verifier::{ChurnSession, Property, ReuseLevel, VerifyConfig};
//! use dataplane::{TableDelta, TableOp};
//! # let pipeline = dataplane::Pipeline::new("p");
//! let mut session = ChurnSession::new(
//!     pipeline,
//!     vec![Property::CrashFreedom],
//!     VerifyConfig::default(),
//!     ReuseLevel::Sessions,
//! )
//! .expect("search-based properties only");
//! let initial = session.verify();
//! for delta in [TableDelta::new("IPlookup", dpir::MapId(0), TableOp::LpmRemove(vec![(0, 24)]))] {
//!     let report = session.apply_delta(&delta).expect("delta applies");
//!     println!("update {}: {:?}", report.update, report.verdicts());
//! }
//! ```
//!
//! [`Verifier`]: crate::Verifier
//! [`TermPool`]: bvsolve::TermPool
//! [`MapMode::Abstract`]: crate::MapMode::Abstract
//! [`SummaryKey`]: crate::SummaryKey

use crate::engine::Engine;
use crate::report::{replay, Verdict, VerifyReport};
use crate::session::Property;
use crate::step2::{aborted_reports, walks, SearchProperty, VerifyConfig};
use crate::summary::SummaryStore;
use dataplane::{DeltaError, Pipeline, TableDelta};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a [`ChurnSession`] re-establishes its properties. One value:
/// the parameter is kept only because the repo benchmark's frozen API
/// names it (`benchmark/README.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseLevel {
    /// Keep everything warm across updates: the content-addressed
    /// [`SummaryStore`] (only stages whose Tables-mode key changed
    /// re-execute), the term pool and the summaries (patched in place,
    /// so unchanged compositions re-intern to identical `TermId`s and
    /// old learnt cores keep pruning), the incremental solver sessions
    /// (blasted constraints, learnt clauses, saved phases) — and replay
    /// the previous decided report outright for properties whose
    /// mode's summaries did not change.
    Sessions,
}

/// A property was passed that the churn engine cannot re-check
/// incrementally (the generic baseline and the state analysis are not
/// step-2 searches).
#[derive(Debug, Clone)]
pub struct UnsupportedProperty(pub String);

impl std::fmt::Display for UnsupportedProperty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "churn sessions support search-based properties only, got {}",
            self.0
        )
    }
}

impl std::error::Error for UnsupportedProperty {}

/// The outcome of one update (or of the initial verification):
/// everything [`ChurnSession::apply_delta`] did and found.
#[derive(Debug, Clone)]
pub struct UpdateReport {
    /// Update sequence number (`0` = initial verification).
    pub update: u64,
    /// `(stage index, pair view changed)` per stage the update touched
    /// (for a burst, changed by any of its deltas; empty for the
    /// initial verification).
    pub touched: Vec<(usize, bool)>,
    /// One report per configured property, in configuration order.
    pub reports: Vec<VerifyReport>,
    /// Per property: whether the report was replayed without searching
    /// (only when the property's mode saw no summary change and the
    /// previous verdict was decided).
    pub replayed: Vec<bool>,
    /// Stages symbolically executed this update (store misses), summed
    /// over the reports.
    pub stages_reexecuted: usize,
    /// Stages served from the store this update (store hits), summed
    /// over the reports.
    pub stages_rebased: usize,
    /// Wall-clock spent building and patching step-1 summaries (the
    /// step-1 time summed over this update's reports).
    pub step1_time: Duration,
    /// Wall-clock spent re-establishing the properties (the step-2
    /// search time summed over this update's reports).
    pub step2_time: Duration,
    /// Total wall-clock of the update, delta application included —
    /// the per-update verdict latency the benchmark percentiles.
    pub total_time: Duration,
}

impl UpdateReport {
    /// The verdicts, in property order.
    pub fn verdicts(&self) -> Vec<&Verdict> {
        self.reports.iter().map(|r| &r.verdict).collect()
    }
}

/// Running counters over a session's updates (the initial
/// verification excluded).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChurnStats {
    /// Updates applied.
    pub updates: u64,
    /// Stage summaries symbolically re-executed across all updates.
    pub stages_reexecuted: u64,
    /// Stage summaries patched in from the warm store across all
    /// updates.
    pub stages_rebased: u64,
    /// Property checks replayed without searching.
    pub checks_replayed: u64,
}

/// A long-lived verification session over one owned pipeline,
/// re-establishing a fixed property set after every table update.
///
/// See the [module docs](self) for the reuse model. The session is
/// built for per-update *latency* under a stream, where the warm
/// state, not parallelism, is the lever (a fleet of variants
/// parallelizes across sessions, see [`crate::fleet`]).
pub struct ChurnSession {
    pipeline: Pipeline,
    properties: Vec<SearchProperty>,
    engine: Engine,
    /// Stages whose table contents changed since the Tables-mode
    /// summaries last caught up; the next Tables check re-keys them.
    changed: BTreeSet<usize>,
    /// Last *decided* report per property, with the generation of the
    /// summaries it searched: replayed while that generation is
    /// current. `Unknown` reports are never stored.
    memo: Vec<Option<(u64, VerifyReport)>>,
    stats: ChurnStats,
}

impl ChurnSession {
    /// A session over `pipeline`, checking `properties` after every
    /// update (`_level` has one value, see [`ReuseLevel`]).
    ///
    /// Only search-based properties (crash-freedom, bounded-execution,
    /// filtering) are supported.
    pub fn new(
        pipeline: Pipeline,
        properties: Vec<Property>,
        cfg: VerifyConfig,
        _level: ReuseLevel,
    ) -> Result<Self, UnsupportedProperty> {
        let properties = properties
            .iter()
            .map(|p| SearchProperty::of(p).ok_or_else(|| UnsupportedProperty(format!("{p:?}"))))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ChurnSession {
            pipeline,
            memo: properties.iter().map(|_| None).collect(),
            properties,
            // Deltas re-key against the store: it keeps its entries.
            engine: Engine::new(cfg, true),
            changed: BTreeSet::new(),
            stats: ChurnStats::default(),
        })
    }

    /// Backs the session with the on-disk store directory `dir`
    /// (created if absent): step-1 summaries load through and write
    /// back to the directory's content-addressed files (see
    /// [`SummaryStore::persistent`]), so a restarted verifier daemon
    /// comes up without re-executing a stage. Only step 1 is
    /// persisted: the restarted session's first step-2 search runs
    /// cold. Replaces any store set earlier; call before
    /// [`ChurnSession::verify`].
    pub fn with_store_path(mut self, dir: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        self.engine.store = Arc::new(SummaryStore::persistent(dir)?);
        Ok(self)
    }

    /// The pipeline in its current (post-deltas) configuration.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ChurnStats {
        self.stats
    }

    /// The summary store the session consults.
    pub fn store(&self) -> &Arc<SummaryStore> {
        &self.engine.store
    }

    /// Runs the initial full verification (update `0`). Subsequent
    /// [`ChurnSession::apply_delta`] calls re-establish the same
    /// properties incrementally.
    pub fn verify(&mut self) -> UpdateReport {
        let t0 = Instant::now();
        self.run_update(Vec::new(), t0)
    }

    /// Applies one table update and re-establishes every property.
    ///
    /// The pipeline is mutated in place; on error (unknown stage or
    /// table, op/kind mismatch) it is left untouched and no
    /// verification runs.
    pub fn apply_delta(&mut self, delta: &TableDelta) -> Result<UpdateReport, DeltaError> {
        let t0 = Instant::now();
        let effect = delta.apply(&mut self.pipeline)?;
        Ok(self.applied(effect.touched, t0))
    }

    /// Applies a burst of table updates as **one** incremental step
    /// (this is `dpv-serve`'s burst path): the whole burst is
    /// validated first and only then applied, in place
    /// ([`TableDelta::apply_burst`] — once validation passes no delta
    /// can fail, so any error leaves the pipeline exactly as before
    /// `apply_batch` and nothing re-verifies), the touched stages are
    /// coalesced, and the property set is re-established once for the
    /// whole burst — not once per delta. Control planes batch naturally
    /// (a BGP convergence event is thousands of FIB updates), and
    /// per-stage re-execution is keyed on the *net* table state, so a
    /// burst that touches one stage fifty times re-summarizes it once —
    /// and a burst whose deltas cancel out replays like a no-op.
    pub fn apply_batch(&mut self, deltas: &[TableDelta]) -> Result<UpdateReport, DeltaError> {
        let t0 = Instant::now();
        let mut coalesced: BTreeMap<usize, bool> = BTreeMap::new();
        for effect in TableDelta::apply_burst(deltas, &mut self.pipeline)? {
            for (k, changed) in effect.touched {
                *coalesced.entry(k).or_insert(false) |= changed;
            }
        }
        Ok(self.applied(coalesced.into_iter().collect(), t0))
    }

    /// Re-establishes the properties after an applied update.
    fn applied(&mut self, touched: Vec<(usize, bool)>, t0: Instant) -> UpdateReport {
        self.stats.updates += 1;
        let report = self.run_update(touched, t0);
        self.stats.stages_reexecuted += report.stages_reexecuted as u64;
        self.stats.stages_rebased += report.stages_rebased as u64;
        self.stats.checks_replayed += report.replayed.iter().filter(|&&r| r).count() as u64;
        report
    }

    /// Checks every property on the warm engine, replaying each decided
    /// report whose mode's summaries this update left as they were; the
    /// properties of one walk whose memo is stale are judged together
    /// on one walk.
    fn run_update(&mut self, touched: Vec<(usize, bool)>, t0: Instant) -> UpdateReport {
        self.changed.extend(
            touched
                .iter()
                .filter(|(_, changed)| *changed)
                .map(|(k, _)| *k),
        );
        let n = self.properties.len();
        let mut reports: Vec<Option<VerifyReport>> = vec![None; n];
        let mut replayed = vec![false; n];
        for walk in walks(self.properties.iter().map(|p| Some(p.mode()))) {
            let mode = self.properties[walk[0]].mode();
            let t1 = Instant::now();
            let step1 = match self.engine.ensure(&self.pipeline, mode, &mut self.changed) {
                Ok(step1) => step1,
                Err(e) => {
                    let group: Vec<_> = walk.iter().map(|&i| &self.properties[i]).collect();
                    let aborted = aborted_reports(&group, &self.pipeline, e, t1);
                    for (&i, report) in walk.iter().zip(aborted) {
                        self.memo[i] = None;
                        reports[i] = Some(report);
                    }
                    continue;
                }
            };
            let generation = self.engine.generation(mode);
            let mut stale = Vec::new();
            for i in walk {
                match &self.memo[i] {
                    // Deterministic search over byte-identical summaries:
                    // the previous report *is* the result.
                    Some((g, prev)) if *g == generation => {
                        reports[i] = Some(replay(prev, &self.pipeline.name));
                        replayed[i] = true;
                    }
                    _ => stale.push(i),
                }
            }
            if stale.is_empty() {
                continue;
            }
            let group: Vec<_> = stale.iter().map(|&i| &self.properties[i]).collect();
            let searched = self.engine.check(&self.pipeline, &group, step1);
            for (i, report) in stale.into_iter().zip(searched) {
                // `Unknown` (budget exhausted) is never laundered into a
                // cached verdict: the warmer session may decide it next
                // update, on a walk with the other stale properties.
                self.memo[i] = (!matches!(report.verdict, Verdict::Unknown(_)))
                    .then(|| (generation, report.clone()));
                reports[i] = Some(report);
            }
        }
        let reports: Vec<VerifyReport> = reports
            .into_iter()
            .map(|r| r.expect("every property is reported"))
            .collect();
        UpdateReport {
            update: self.stats.updates,
            touched,
            stages_reexecuted: reports.iter().map(|r| r.summary.misses).sum(),
            stages_rebased: reports.iter().map(|r| r.summary.hits).sum(),
            step1_time: reports.iter().map(|r| r.step1_time).sum(),
            step2_time: reports.iter().map(|r| r.step2_time).sum(),
            reports,
            replayed,
            total_time: t0.elapsed(),
        }
    }
}
