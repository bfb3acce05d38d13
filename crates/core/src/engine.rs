//! The warm state behind both drivers, [`crate::Verifier`] and
//! [`crate::ChurnSession`]: one [`TermPool`]; per [`MapMode`] the
//! step-1 summaries with the key of every stage, a long-lived solver
//! session and a learnt-core store; and the [`SummaryStore`] with its
//! retention policy.
//!
//! Step 1 happens in one place, [`Engine::ensure`]: it builds a mode's
//! summaries on first use, and in Tables mode re-keys the stages a
//! table delta changed, rebasing only those whose key moved. Step 2 is
//! one walk per map mode, and every search-based report is built in
//! one place, [`Engine::check`], which judges a group of properties
//! sharing a root on one walk — crash-freedom and the bounds of a
//! call together, each filter alone; a single check is a group of one.
//! The step-1 work a report carries is exactly what its own `ensure`
//! did — the walk that built or patched a mode books the build or the
//! patch on its first report, every other report carries zeros, and a
//! memo hit is [`crate::report::replay`]ed with no step-1 work at all.
//! The drivers add only what differs: a borrowed pipeline, or an owned
//! one with a memo of decided reports.

use crate::cores::CoreStore;
use crate::report::{SummaryCacheStats, VerifyReport};
use crate::step2::{new_session, search, segment_count, SearchProperty, VerifyConfig, MAX_GROUP};
use crate::summary::{
    rebase_stage, summarize_keyed, Fetch, MapMode, PipelineSummaries, SummaryKey, SummaryStore,
};
use bvsolve::{SolveSession, SolverLayerStats, TermPool};
use dataplane::Pipeline;
use dpir::analysis::IvEnv;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use symexec::{SymConfig, SymError};

/// The step-1 work one [`Engine::ensure`] call did: a mode's build, or
/// the patch of the stages a delta changed — the sum of its own
/// fetches' [`Fetch`] records, never a snapshot of the shared store.
#[derive(Default)]
pub(crate) struct Step1 {
    time: Duration,
    /// Stages served from the store without execution.
    hits: usize,
    /// Stages symbolically executed.
    misses: usize,
    store_loads: u64,
    store_writes: u64,
    load_bytes: u64,
    /// Fork-solver work of the executed stages.
    fork: SolverLayerStats,
}

impl Step1 {
    /// Adds one stage fetch.
    pub(crate) fn record(&mut self, fetch: &Fetch) {
        match *fetch {
            Fetch::Hit => self.hits += 1,
            Fetch::Loaded(bytes) => {
                self.hits += 1;
                self.store_loads += 1;
                self.load_bytes += bytes;
            }
            Fetch::Executed { fork, written } => {
                self.misses += 1;
                self.store_writes += u64::from(written);
                self.fork.merge(&fork);
            }
        }
    }

    /// A report's summary counters: this work, beside the store's
    /// current size.
    fn cache_stats(&self, store: &SummaryStore) -> SummaryCacheStats {
        SummaryCacheStats {
            hits: self.hits,
            misses: self.misses,
            store_size: store.len(),
            store_loads: self.store_loads,
            store_writes: self.store_writes,
            load_bytes: self.load_bytes,
            fork_queries: self.fork.queries,
            fork_sat_calls: self.fork.sat_solve_calls,
            fork_blast_cache_hits: self.fork.blast_cache_hits,
            fork_learnt_reused: self.fork.learnt_reused,
        }
    }
}

/// One map mode's warm state.
#[derive(Default)]
struct Mode {
    /// The summaries, in the engine's pool; `None` until built.
    sums: Option<PipelineSummaries>,
    /// The key each stage's summary was fetched at.
    keys: Vec<SummaryKey>,
    /// Bumped whenever `sums` change: a report searched at the current
    /// generation searched the summaries the mode holds now.
    generation: u64,
    /// The step-2 solver session, created by the mode's first check or
    /// longest-path search: its blasted constraints, learnt clauses and
    /// saved phases persist across every later one in the mode.
    solver: Option<SolveSession>,
    /// UNSAT cores learnt refuting one check's paths prune every later
    /// check in the mode (the constraint terms are hash-consed in the
    /// shared pool, so identical compositions re-intern to identical
    /// `TermId`s; the pool is append-only, so a core over a replaced
    /// stage's terms can never match again).
    cores: CoreStore,
}

/// See the [module docs](self).
pub(crate) struct Engine {
    pub(crate) cfg: VerifyConfig,
    pool: TermPool,
    modes: [Mode; 2],
    /// The content-addressed step-1 store. Hits rebase the stored
    /// pool-independent summaries into `pool` via
    /// [`bvsolve::Migrator`], reproducing exactly what execution would
    /// have interned — verdicts and counterexample bytes are
    /// independent of the store's prior contents.
    pub(crate) store: Arc<SummaryStore>,
    /// Whether `store` keeps its entries after a build. A private store
    /// that nothing re-keys against is cleared instead: its entries
    /// each own a full [`TermPool`], and once a mode's summaries are
    /// built nothing reads them again (the other map mode keys
    /// differently), so keeping them would roughly double step-1
    /// memory for nothing.
    pub(crate) retain_store: bool,
    /// Builds run, at most one per mode.
    pub(crate) step1_runs: usize,
}

fn mode_idx(mode: MapMode) -> usize {
    match mode {
        MapMode::Abstract => 0,
        MapMode::Tables => 1,
    }
}

impl Engine {
    pub(crate) fn new(cfg: VerifyConfig, retain_store: bool) -> Self {
        Engine {
            cfg,
            pool: TermPool::new(),
            modes: Default::default(),
            store: SummaryStore::shared(),
            retain_store,
            step1_runs: 0,
        }
    }

    /// The unpruned reference search: no core is learnt or prunes.
    pub(crate) fn disable_core_pruning(&mut self) {
        for m in &mut self.modes {
            m.cores = CoreStore::disabled();
        }
    }

    /// `mode`'s summaries, if built.
    pub(crate) fn summaries(&self, mode: MapMode) -> Option<&PipelineSummaries> {
        self.modes[mode_idx(mode)].sums.as_ref()
    }

    /// How many times `mode`'s summaries have changed.
    pub(crate) fn generation(&self, mode: MapMode) -> u64 {
        self.modes[mode_idx(mode)].generation
    }

    /// A built mode's summaries with the pool they live in and the
    /// mode's solver session (created as [`Engine::check`] creates it)
    /// and core store, for the analyses beside the property checks.
    pub(crate) fn warm(
        &mut self,
        mode: MapMode,
    ) -> (
        &mut TermPool,
        &PipelineSummaries,
        &mut SolveSession,
        &mut CoreStore,
        &VerifyConfig,
    ) {
        let Mode {
            sums,
            solver,
            cores,
            ..
        } = &mut self.modes[mode_idx(mode)];
        let sums = sums.as_ref().expect("ensured");
        let solver = solver.get_or_insert_with(|| new_session(&self.cfg, cores));
        (&mut self.pool, sums, solver, cores, &self.cfg)
    }

    /// Brings `mode`'s summaries up to date with `pipeline`: builds
    /// them on first use; once built, Tables mode re-keys the `changed`
    /// stages (consuming the set — Abstract keys are table-blind) and
    /// rebases, in place, those whose key moved, so every other stage
    /// keeps its exact terms. Returns the work done, `None` when the
    /// summaries are as they were.
    ///
    /// A failed patch drops the mode's summaries: the next call
    /// rebuilds them through the store.
    pub(crate) fn ensure(
        &mut self,
        pipeline: &Pipeline,
        mode: MapMode,
        changed: &mut BTreeSet<usize>,
    ) -> Result<Option<Step1>, SymError> {
        let idx = mode_idx(mode);
        let built = self.modes[idx].sums.is_some();
        if built && (mode == MapMode::Abstract || changed.is_empty()) {
            return Ok(None);
        }
        let t0 = Instant::now();
        let mut step1 = Step1::default();
        if built {
            if let Err(e) = self.patch(pipeline, changed, &mut step1) {
                self.modes[idx].sums = None;
                return Err(e);
            }
            if step1.hits + step1.misses == 0 {
                return Ok(None);
            }
        } else {
            if mode == MapMode::Tables {
                changed.clear();
            }
            self.build(pipeline, mode, &mut step1)?;
        }
        self.modes[idx].generation += 1;
        step1.time = t0.elapsed();
        Ok(Some(step1))
    }

    /// Builds `mode`'s summaries, adding the fetches to `step1`.
    fn build(
        &mut self,
        pipeline: &Pipeline,
        mode: MapMode,
        step1: &mut Step1,
    ) -> Result<(), SymError> {
        let (sums, keys) = summarize_keyed(
            &mut self.pool,
            pipeline,
            &self.cfg.sym,
            mode,
            &self.store,
            step1,
        )?;
        self.step1_runs += 1;
        if !self.retain_store {
            self.store.clear();
        }
        let m = &mut self.modes[mode_idx(mode)];
        m.sums = Some(sums);
        m.keys = keys;
        Ok(())
    }

    /// Re-keys the `changed` stages of the built Tables summaries and
    /// rebases those whose key moved, adding the fetches to `step1`.
    fn patch(
        &mut self,
        pipeline: &Pipeline,
        changed: &mut BTreeSet<usize>,
        step1: &mut Step1,
    ) -> Result<(), SymError> {
        let m = &mut self.modes[mode_idx(MapMode::Tables)];
        let sums = m.sums.as_mut().expect("patched once built");
        for k in std::mem::take(changed) {
            let element = &pipeline.stages[k].element;
            let key = SummaryKey::of(element, MapMode::Tables, &self.cfg.sym);
            if key == m.keys[k] {
                continue;
            }
            let (stored, fetch) = self.store.stage(key, element, &self.cfg.sym)?;
            step1.record(&fetch);
            let stage = rebase_stage(&mut self.pool, &stored, element);
            sums.total_states = sums.total_states - sums.stages[k].states + stage.states;
            sums.stages[k] = stage;
            m.keys[k] = key;
        }
        Ok(())
    }

    /// Judges `group` — properties of one map mode that share a root:
    /// crash-freedom and any bounds, or one filter ([`walks`]) — on one
    /// walk over the mode's summaries (built by the caller's
    /// [`Engine::ensure`], whose work `step1` is) through the mode's
    /// solver session and core store, and builds one report per member,
    /// in group order. Each report's verdict and `composed_paths` are
    /// its own property's; the walk's solver and core deltas and its
    /// step-2 time are booked on the first report, beside `step1`, and
    /// the other members carry zeros.
    ///
    /// [`walks`]: crate::step2::walks
    pub(crate) fn check(
        &mut self,
        pipeline: &Pipeline,
        group: &[&SearchProperty],
        step1: Option<Step1>,
    ) -> Vec<VerifyReport> {
        let t0 = Instant::now();
        let Engine {
            cfg,
            pool,
            modes,
            store,
            ..
        } = self;
        let mode = group[0].mode();
        debug_assert!(
            group.iter().all(|p| p.mode() == mode)
                && (group.len() == 1 || mode == MapMode::Abstract),
            "a walk's members share its root"
        );
        let Mode {
            sums,
            solver,
            cores,
            ..
        } = &mut modes[mode_idx(mode)];
        let sums = sums.as_ref().expect("ensured");
        let solver = solver.get_or_insert_with(|| new_session(cfg, cores));
        let root = group[0].initial(pool, sums);
        let (solver0, cores0) = (solver.stats(), cores.stats());
        let mut judged = Vec::with_capacity(group.len());
        for members in group.chunks(MAX_GROUP) {
            judged.extend(search(
                pool,
                solver,
                cores,
                pipeline,
                sums,
                cfg,
                members,
                root.clone(),
            ));
        }
        let mut walk = Some((
            step1.unwrap_or_default(),
            solver.stats().delta(&solver0),
            cores.stats().delta(&cores0),
            t0.elapsed(),
        ));
        group
            .iter()
            .zip(judged)
            .map(|(prop, judged)| {
                let (step1, solver, cores, step2_time) = walk.take().unwrap_or_default();
                VerifyReport {
                    property: prop.name(),
                    pipeline: pipeline.name.clone(),
                    verdict: judged.verdict,
                    step1_states: sums.total_states,
                    step1_segments: segment_count(sums),
                    suspects: prop.suspects(pipeline, sums),
                    composed_paths: judged.composed_paths,
                    solver,
                    cores,
                    summary: step1.cache_stats(store),
                    step1_time: step1.time,
                    step2_time,
                }
            })
            .collect()
    }
}

/// The interval-analysis environment matching what the executor will
/// constrain the entry packet length to.
pub(crate) fn iv_env(sym: &SymConfig) -> IvEnv {
    IvEnv {
        len_lo: sym.min_pkt_len,
        len_hi: sym.max_pkt_bytes as u64,
    }
}
