//! Config-update streams: incremental re-verification under
//! control-plane churn.
//!
//! A deployed dataplane is not verified once — its tables mutate
//! continuously (FIB updates, NAT statics, classifier rules), and
//! gating every config push on a verdict means re-verifying at the
//! control plane's update rate. A [`ChurnSession`] makes that cheap:
//! it holds one verified pipeline plus all the warm state a fresh
//! session would have to rebuild — the content-addressed
//! [`SummaryStore`], a persistent [`TermPool`], per-mode learnt-core
//! stores and incremental solver sessions — and exposes
//! [`ChurnSession::apply_delta`], which applies one
//! [`TableDelta`] and re-establishes every property.
//!
//! Three observations make per-update work O(change), not O(pipeline):
//!
//! 1. **Abstract summaries are table-blind.** [`MapMode::Abstract`]
//!    keys exclude table contents, so crash-freedom and
//!    bounded-execution summaries survive *every* table update
//!    untouched.
//! 2. **Tables-mode keys are per-stage.** A delta re-keys only the
//!    touched stages ([`SummaryKey`] over the incrementally-maintained
//!    table fingerprint); unchanged stages keep their summaries and
//!    their exact terms in the persistent pool, so re-composed paths
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
//! [`ReuseLevel`] names the two ways to run a session: the product
//! ([`ReuseLevel::Sessions`], everything above) and its test oracle
//! ([`ReuseLevel::FullReverify`], a from-scratch verification per
//! update). The differential tests (`crates/bench/tests/churn.rs`) and
//! the repo benchmark's oracle drive identical update streams through
//! both and assert verdict, counterexample and composed-path equality
//! on every update.
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

use crate::cores::CoreStore;
use crate::report::{SummaryCacheStats, Verdict, VerifyReport};
use crate::session::{run_step2, Property, SearchProp, Verifier};
use crate::step2::{aborted_report, new_session, segment_count, verdict_of, VerifyConfig};
use crate::summary::{
    rebase_stage, summarize_pipeline_with_store, MapMode, PipelineSummaries, SummaryKey,
    SummaryStore,
};
use bvsolve::{SolveSession, TermPool};
use dataplane::{DeltaError, Pipeline, TableDelta};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a [`ChurnSession`] re-establishes its properties after an
/// update: the product path or its from-scratch oracle. Both produce
/// identical verdicts, counterexample bytes and composed-path counts
/// (asserted on every update by `crates/bench/tests/churn.rs` and by
/// the repo benchmark's oracle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseLevel {
    /// Re-verify from scratch on every update: fresh summaries, fresh
    /// pool, fresh solver, no carried cores. The oracle.
    FullReverify,
    /// Keep everything warm across updates: the content-addressed
    /// [`SummaryStore`] (only stages whose Tables-mode key changed
    /// re-execute), the [`TermPool`] and the composed summaries
    /// (patched in place, so unchanged compositions re-intern to
    /// identical `TermId`s and old learnt cores keep pruning), the
    /// incremental solver sessions (blasted constraints, learnt
    /// clauses, saved phases) — and replay the previous decided report
    /// outright for properties whose mode's summaries this update did
    /// not change.
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
    /// `(stage index, pair view changed)` per stage the delta touched
    /// (empty for the initial verification).
    pub touched: Vec<(usize, bool)>,
    /// One report per configured property, in configuration order.
    pub reports: Vec<VerifyReport>,
    /// Per property: whether the report was replayed from the
    /// previous update without searching (only at
    /// [`ReuseLevel::Sessions`], only when the property's mode saw no
    /// summary change and the previous verdict was decided).
    pub replayed: Vec<bool>,
    /// Stages symbolically re-executed this update (store misses).
    pub stages_reexecuted: usize,
    /// Stages re-rebased from the warm store this update (store hits).
    pub stages_rebased: usize,
    /// Wall-clock spent refreshing step-1 state: delta patching plus
    /// the summary building the property checks report.
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

/// Running counters over a session's lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChurnStats {
    /// Updates applied (initial verification excluded).
    pub updates: u64,
    /// Stage summaries symbolically re-executed across all updates.
    pub stages_reexecuted: u64,
    /// Stage summaries patched in from the warm store across all
    /// updates.
    pub stages_rebased: u64,
    /// Property checks replayed without searching.
    pub checks_replayed: u64,
}

const N_MODES: usize = 2;

fn mode_idx(mode: MapMode) -> usize {
    match mode {
        MapMode::Abstract => 0,
        MapMode::Tables => 1,
    }
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
    properties: Vec<Property>,
    cfg: VerifyConfig,
    level: ReuseLevel,
    store: Arc<SummaryStore>,
    pool: TermPool,
    sums: [Option<PipelineSummaries>; N_MODES],
    keys: [Vec<SummaryKey>; N_MODES],
    solvers: [Option<SolveSession>; N_MODES],
    core_stores: [CoreStore; N_MODES],
    /// Last *decided* report per property, replayed at
    /// [`ReuseLevel::Sessions`] when the property's mode saw no
    /// summary change. `Unknown` reports are never stored.
    memo: Vec<Option<VerifyReport>>,
    updates: u64,
    stats: ChurnStats,
}

impl ChurnSession {
    /// A session over `pipeline`, checking `properties` after every
    /// update at reuse `level`.
    ///
    /// Only search-based properties (crash-freedom, bounded-execution,
    /// filtering, custom) are supported. [`VerifyConfig::static_simplify`]
    /// is forced off: the simplified program cache cannot be patched
    /// per-delta, and the pass rewrites programs, not tables, so churn
    /// gains nothing from it.
    pub fn new(
        pipeline: Pipeline,
        properties: Vec<Property>,
        mut cfg: VerifyConfig,
        level: ReuseLevel,
    ) -> Result<Self, UnsupportedProperty> {
        for p in &properties {
            if SearchProp::of(p).is_none() {
                return Err(UnsupportedProperty(format!("{p:?}")));
            }
        }
        cfg.static_simplify = false;
        let memo = properties.iter().map(|_| None).collect();
        Ok(ChurnSession {
            pipeline,
            properties,
            cfg,
            level,
            store: SummaryStore::shared(),
            pool: TermPool::new(),
            sums: [None, None],
            keys: [Vec::new(), Vec::new()],
            solvers: [None, None],
            core_stores: [CoreStore::new(), CoreStore::new()],
            memo,
            updates: 0,
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
        self.store = Arc::new(SummaryStore::persistent(dir)?);
        Ok(self)
    }

    /// Shares a (typically capacity-bounded) summary store instead of
    /// the session-private one. Call before [`ChurnSession::verify`].
    #[must_use]
    pub fn with_store(mut self, store: Arc<SummaryStore>) -> Self {
        self.store = store;
        self
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
        &self.store
    }

    /// Runs the initial full verification (update `0`). Subsequent
    /// [`ChurnSession::apply_delta`] calls re-establish the same
    /// properties incrementally.
    pub fn verify(&mut self) -> UpdateReport {
        let t0 = Instant::now();
        self.run_update(Vec::new(), false, t0)
    }

    /// Applies one table update and re-establishes every property.
    ///
    /// The pipeline is mutated in place; on error (unknown stage or
    /// table, op/kind mismatch) it is left untouched and no
    /// verification runs.
    pub fn apply_delta(&mut self, delta: &TableDelta) -> Result<UpdateReport, DeltaError> {
        let t0 = Instant::now();
        let effect = delta.apply(&mut self.pipeline)?;
        self.updates += 1;
        self.stats.updates += 1;
        let tables_changed = effect.any_changed();
        Ok(self.run_update(effect.touched, tables_changed, t0))
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
        self.updates += 1;
        self.stats.updates += 1;
        // The per-delta `changed` flags can overstate the net effect
        // (an insert and a remove of the same entry cancel). When the
        // session tracks per-stage keys (`Sessions`), recompute each flag
        // against the cached key, so cancelled bursts keep their
        // replay/no-op fast path.
        let idx = mode_idx(MapMode::Tables);
        let touched: Vec<(usize, bool)> = coalesced
            .into_iter()
            .map(|(k, changed)| {
                let net = if self.sums[idx].is_some() {
                    SummaryKey::of(
                        &self.pipeline.stages[k].element,
                        MapMode::Tables,
                        &self.cfg.sym,
                    ) != self.keys[idx][k]
                } else {
                    changed
                };
                (k, net)
            })
            .collect();
        let tables_changed = touched.iter().any(|&(_, changed)| changed);
        Ok(self.run_update(touched, tables_changed, t0))
    }

    /// The shared driver behind [`ChurnSession::verify`] and
    /// [`ChurnSession::apply_delta`].
    fn run_update(
        &mut self,
        touched: Vec<(usize, bool)>,
        tables_changed: bool,
        t0: Instant,
    ) -> UpdateReport {
        let t_step1 = Instant::now();
        // Disk-tier counter snapshot: each report of this update
        // carries the update's deltas as of its construction.
        let disk0 = (
            self.store.store_loads(),
            self.store.store_writes(),
            self.store.load_bytes(),
            self.store.fork_stats(),
        );
        // Which modes' summaries this update may have changed. Abstract
        // keys are table-blind: no table delta ever touches them.
        let mut mode_changed = [false; N_MODES];
        mode_changed[mode_idx(MapMode::Tables)] = tables_changed;

        let (stages_reexecuted, stages_rebased) = match self.level {
            // Nothing persists: the per-update `Verifier` below owns
            // all state, including a private summary store.
            ReuseLevel::FullReverify => (0, 0),
            ReuseLevel::Sessions => match self.patch_tables(&touched) {
                Ok(counts) => counts,
                Err(e) => {
                    // A patch failure poisons the Tables cache;
                    // report it like a step-1 abort.
                    return self.aborted_update(touched, t0, e);
                }
            },
        };
        self.stats.stages_reexecuted += stages_reexecuted as u64;
        self.stats.stages_rebased += stages_rebased as u64;
        let step1_patch = t_step1.elapsed();

        let mut reports = Vec::with_capacity(self.properties.len());
        let mut replayed = Vec::with_capacity(self.properties.len());
        match self.level {
            ReuseLevel::FullReverify => {
                // A fresh session per update *is* the semantics of
                // the oracle.
                let mut v = Verifier::new(&self.pipeline).config(self.cfg.clone());
                for p in &self.properties {
                    reports.push(v.check(p.clone()).expect_verify());
                    replayed.push(false);
                }
            }
            ReuseLevel::Sessions => {
                let cache_stats = SummaryCacheStats {
                    hits: stages_rebased,
                    misses: stages_reexecuted,
                    ..Default::default()
                };
                for i in 0..self.properties.len() {
                    let spec = SearchProp::of(&self.properties[i]).expect("validated in new");
                    let midx = mode_idx(spec.mode());
                    if !mode_changed[midx] && self.sums[midx].is_some() {
                        if let Some(prev) = &self.memo[i] {
                            // Deterministic search over byte-identical
                            // summaries: the previous report *is* the
                            // result (zero step-2 time — that is the
                            // point).
                            let mut r = prev.clone();
                            r.step1_time = Duration::ZERO;
                            r.step2_time = Duration::ZERO;
                            reports.push(r);
                            replayed.push(true);
                            self.stats.checks_replayed += 1;
                            continue;
                        }
                    }
                    let report = self.run_one(&spec, cache_stats, disk0);
                    // `Unknown` (budget exhausted, step-1 abort) is
                    // never laundered into a cached verdict: the
                    // warmer session may decide it next update.
                    self.memo[i] =
                        (!matches!(report.verdict, Verdict::Unknown(_))).then(|| report.clone());
                    reports.push(report);
                    replayed.push(false);
                }
            }
        }
        // Attribute times uniformly across levels: step 1 is the
        // delta patching/reset plus whatever summary building the
        // property checks report (the oracle pays it inside `check`,
        // the warm session inside `ensure`); step 2 is
        // the search time the reports carry. Driver overhead shows
        // only in `total_time`.
        let step1_time = step1_patch + reports.iter().map(|r| r.step1_time).sum::<Duration>();
        let step2_time = reports.iter().map(|r| r.step2_time).sum();

        UpdateReport {
            update: self.updates,
            touched,
            reports,
            replayed,
            stages_reexecuted,
            stages_rebased,
            step1_time,
            step2_time,
            total_time: t0.elapsed(),
        }
    }

    /// Ensures `mode`'s summaries exist in the persistent pool
    /// ([`ReuseLevel::Sessions`]), recording per-stage keys.
    fn ensure(&mut self, mode: MapMode) -> Result<(), symexec::SymError> {
        let idx = mode_idx(mode);
        if self.sums[idx].is_some() {
            return Ok(());
        }
        let sums = summarize_pipeline_with_store(
            &mut self.pool,
            &self.pipeline,
            &self.cfg.sym,
            mode,
            &self.store,
            1,
        )?;
        self.keys[idx] = self
            .pipeline
            .stages
            .iter()
            .map(|s| SummaryKey::of(&s.element, mode, &self.cfg.sym))
            .collect();
        self.sums[idx] = Some(sums);
        Ok(())
    }

    /// Re-summarizes, in place, every touched-and-changed stage of the
    /// cached Tables summaries. Returns `(reexecuted, rebased)` stage
    /// counts. Stages whose key is unchanged (and the whole Abstract
    /// cache) keep their exact terms in the persistent pool.
    fn patch_tables(
        &mut self,
        touched: &[(usize, bool)],
    ) -> Result<(usize, usize), symexec::SymError> {
        let idx = mode_idx(MapMode::Tables);
        let mut reexecuted = 0;
        let mut rebased = 0;
        if self.sums[idx].is_none() {
            // Nothing cached yet — the first property needing Tables
            // builds from scratch (through the warm store).
            return Ok((0, 0));
        }
        for &(k, changed) in touched {
            if !changed {
                continue;
            }
            let element = &self.pipeline.stages[k].element;
            let key = SummaryKey::of(element, MapMode::Tables, &self.cfg.sym);
            if key == self.keys[idx][k] {
                continue;
            }
            let (stored, hit) = self.store.stage(element, MapMode::Tables, &self.cfg.sym)?;
            if hit {
                rebased += 1;
            } else {
                reexecuted += 1;
            }
            let sums = self.sums[idx].as_mut().expect("checked above");
            let stage = rebase_stage(&mut self.pool, &stored, element);
            sums.total_states = sums.total_states - sums.stages[k].states + stage.states;
            sums.stages[k] = stage;
            self.keys[idx][k] = key;
        }
        Ok((reexecuted, rebased))
    }

    /// One warm property check ([`ReuseLevel::Sessions`]).
    fn run_one(
        &mut self,
        spec: &SearchProp,
        cache_stats: SummaryCacheStats,
        disk0: (u64, u64, u64, bvsolve::SolverLayerStats),
    ) -> VerifyReport {
        let t0 = Instant::now();
        let mode = spec.mode();
        let idx = mode_idx(mode);
        let t_build = Instant::now();
        let had_sums = self.sums[idx].is_some();
        if let Err(e) = self.ensure(mode) {
            return aborted_report(&spec.name(), &self.pipeline, e, t0);
        }
        let step1_time = if had_sums {
            Duration::ZERO
        } else {
            t_build.elapsed()
        };
        let t1 = Instant::now();
        let (outcome, solver_stats, core_stats, composed_paths) = {
            let ChurnSession {
                pipeline,
                cfg,
                pool,
                sums,
                solvers,
                core_stores,
                ..
            } = &mut *self;
            let sums = sums[idx].as_ref().expect("ensured");
            let cores = &mut core_stores[idx];
            let solver = solvers[idx].get_or_insert_with(|| new_session(cfg, cores));
            run_step2(pool, pipeline, sums, cfg, spec, solver, cores)
        };
        let step2_time = t1.elapsed();
        let sums = self.sums[idx].as_ref().expect("ensured");
        VerifyReport {
            property: spec.name(),
            pipeline: self.pipeline.name.clone(),
            verdict: verdict_of(outcome),
            step1_states: sums.total_states,
            step1_segments: segment_count(sums),
            suspects: spec.suspects(&self.pipeline, sums),
            composed_paths,
            solver: solver_stats,
            cores: core_stats,
            summary: SummaryCacheStats {
                store_size: self.store.len(),
                store_loads: self.store.store_loads() - disk0.0,
                store_writes: self.store.store_writes() - disk0.1,
                load_bytes: self.store.load_bytes() - disk0.2,
                evictions: self.store.evictions(),
                ..cache_stats
            }
            .with_fork_stats(&self.store.fork_stats().delta(&disk0.3)),
            static_stats: Default::default(),
            step1_time,
            step2_time,
        }
    }

    /// Every property aborted on a step-1 failure during patching.
    fn aborted_update(
        &mut self,
        touched: Vec<(usize, bool)>,
        t0: Instant,
        e: symexec::SymError,
    ) -> UpdateReport {
        // The Tables cache may be half-patched; drop it so the next
        // update rebuilds from the store.
        self.sums[mode_idx(MapMode::Tables)] = None;
        self.memo.iter_mut().for_each(|m| *m = None);
        let reports: Vec<VerifyReport> = self
            .properties
            .iter()
            .map(|p| {
                let name = SearchProp::of(p).expect("validated in new").name();
                aborted_report(&name, &self.pipeline, e.clone(), t0)
            })
            .collect();
        let replayed = vec![false; reports.len()];
        UpdateReport {
            update: self.updates,
            touched,
            reports,
            replayed,
            stages_reexecuted: 0,
            stages_rebased: 0,
            step1_time: t0.elapsed(),
            step2_time: Duration::ZERO,
            total_time: t0.elapsed(),
        }
    }
}
