//! Verification step 1: per-element segment summaries, behind a
//! content-addressed store.
//!
//! The paper's scalability argument (§4, Fig. 4) rests on summaries
//! being *reusable*: step 1 runs once per element, step 2 once per
//! composition. The [`SummaryStore`] makes that reuse first-class and
//! fleet-wide: every stage summary is keyed by a structural hash of
//! `(element program, map mode, table-config bytes, sym config)`
//! ([`SummaryKey`]) and stored **pool-independent** — the summary
//! lives in its own private [`TermPool`] and is *rebased* into a
//! requesting session's pool through [`bvsolve::Migrator`]. A hundred
//! pipeline variants sharing the same handful of elements (different
//! wiring, different table contents) then pay for symbolic execution
//! once per distinct element, not once per variant.
//!
//! Soundness of the addressing rests on the executor's determinism
//! guarantee (`symexec::execute` module docs): identical inputs
//! reproduce the summary exactly, so replaying a cache hit by
//! migration is indistinguishable — variable numbering, term
//! structure, verdicts, counterexample bytes — from re-executing.
//! [`summarize_pipeline`] is a thin wrapper over the store-consulting
//! driver [`summarize_pipeline_with_store`] (with a throwaway store),
//! so cached and uncached runs build byte-identical pools by
//! construction. One pipeline's stages are fetched and rebased in
//! stage order on the calling thread; the store is shared across
//! threads only by [`crate::fleet::Fleet`]'s class workers.

use crate::engine::Step1;
use bvsolve::{Migrator, TermPool};
use dataplane::{Element, ElementKind, Pipeline};
use dpir::fingerprint128;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use symexec::{
    execute, AbstractMapModel, MapBranch, MapModel, MapOpRecord, Segment, SymConfig, SymError,
    SymInput, TableMapModel,
};

/// How static maps are modeled during step 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapMode {
    /// Abstract everything (crash-freedom / bounded-execution with
    /// arbitrary configuration — paper §4).
    Abstract,
    /// Use configured contents for static maps, summarized as ITE
    /// chains (filtering with a specific configuration); private maps
    /// stay abstract.
    Tables,
}

/// Step-1 result for one pipeline stage.
#[derive(Debug)]
pub struct StageSummary {
    /// Element name.
    pub name: String,
    /// The element's own symbolic input (substitution points).
    pub input: SymInput,
    /// All feasible segments.
    pub segments: Vec<Segment>,
    /// `Some(max_iters)` for loop elements.
    pub loop_iters: Option<u32>,
    /// States explored during step 1 (Fig. 4(c) "#states").
    pub states: usize,
    /// Per segment, its havoc variables — every variable of the
    /// segment that is not one of `input`'s — in the order composition
    /// renames them (see [`StageSummary::new`]). A constant of the
    /// segment, so it is found once here and not once per composition.
    pub havocs: Vec<Vec<u32>>,
}

impl StageSummary {
    /// A summary of `segments` over `input`, with each segment's havoc
    /// list: term by term — constraints, packet bytes, length,
    /// metadata, then each map operation's key and value — the
    /// variables a term is the first to mention, in ascending id; then
    /// the havoc variables a map operation records that no term
    /// mentions (an unused `found` flag).
    pub fn new(
        pool: &TermPool,
        name: String,
        input: SymInput,
        segments: Vec<Segment>,
        loop_iters: Option<u32>,
        states: usize,
    ) -> Self {
        let inputs: HashSet<u32> = input
            .pkt_byte_vars
            .iter()
            .chain(&input.meta_vars)
            .copied()
            .chain([input.len_var])
            .collect();
        let havocs = segments
            .iter()
            .map(|seg| segment_havocs(pool, &inputs, seg))
            .collect();
        StageSummary {
            name,
            input,
            segments,
            loop_iters,
            states,
            havocs,
        }
    }
}

/// The havoc list of one segment (see [`StageSummary::new`]).
fn segment_havocs(pool: &TermPool, inputs: &HashSet<u32>, seg: &Segment) -> Vec<u32> {
    let terms = seg
        .constraint
        .iter()
        .chain(&seg.pkt_out)
        .chain([&seg.len_out])
        .chain(&seg.meta_out)
        .copied()
        .chain(
            seg.map_ops
                .iter()
                .flat_map(|op| [Some(op.key), op.value])
                .flatten(),
        );
    let mut havocs = Vec::new();
    // One visited set for the segment: a node an earlier term reached
    // has reported its variables already.
    let mut visited = HashSet::new();
    for t in terms {
        let first = havocs.len();
        pool.vars_into(t, &mut visited, &mut havocs);
        havocs[first..].sort_unstable();
    }
    for op in &seg.map_ops {
        for id in [op.havoc_value_var, op.havoc_flag_var]
            .into_iter()
            .flatten()
        {
            if visited.insert(pool.var_term(id)) {
                havocs.push(id);
            }
        }
    }
    havocs.retain(|id| !inputs.contains(id));
    havocs
}

/// Step-1 result for the whole pipeline.
#[derive(Debug)]
pub struct PipelineSummaries {
    /// The pipeline-level symbolic input (the packet as received).
    pub input: SymInput,
    /// Per-stage summaries, in stage order.
    pub stages: Vec<StageSummary>,
    /// Total states across all stages.
    pub total_states: usize,
}

/// A per-stage map model: configured static maps become ITE-chain
/// tables (in [`MapMode::Tables`]), everything else havocs.
struct StageMapModel {
    tables: TableMapModel,
    table_ids: Vec<u32>,
    fallback: AbstractMapModel,
}

impl StageMapModel {
    fn new(element: &Element, mode: MapMode) -> Self {
        let mut tables = TableMapModel::new();
        let mut table_ids = Vec::new();
        if mode == MapMode::Tables {
            for (map, cfg) in &element.tables {
                tables.set_table(*map, cfg.as_pairs().to_vec());
                table_ids.push(map.0);
            }
        }
        StageMapModel {
            tables,
            table_ids,
            fallback: AbstractMapModel::new(),
        }
    }

    fn is_table(&self, map: dpir::MapId) -> bool {
        self.table_ids.contains(&map.0)
    }
}

impl MapModel for StageMapModel {
    fn read(
        &mut self,
        pool: &mut TermPool,
        map: dpir::MapId,
        decl: &dpir::MapDecl,
        key: bvsolve::TermId,
    ) -> Vec<MapBranch> {
        if self.is_table(map) {
            self.tables.read(pool, map, decl, key)
        } else {
            self.fallback.read(pool, map, decl, key)
        }
    }

    fn write(
        &mut self,
        pool: &mut TermPool,
        map: dpir::MapId,
        decl: &dpir::MapDecl,
        key: bvsolve::TermId,
        value: bvsolve::TermId,
    ) -> Vec<MapBranch> {
        if self.is_table(map) {
            self.tables.write(pool, map, decl, key, value)
        } else {
            self.fallback.write(pool, map, decl, key, value)
        }
    }

    fn test(
        &mut self,
        pool: &mut TermPool,
        map: dpir::MapId,
        decl: &dpir::MapDecl,
        key: bvsolve::TermId,
    ) -> Vec<MapBranch> {
        if self.is_table(map) {
            self.tables.test(pool, map, decl, key)
        } else {
            self.fallback.test(pool, map, decl, key)
        }
    }
}

/// The content address of one stage summary: everything the symbolic
/// execution of a stage depends on, structurally hashed.
///
/// Two stages with equal keys produce byte-identical summaries (the
/// executor is deterministic), so the store may serve either one's
/// cached result for the other. In [`MapMode::Abstract`] the table
/// configuration is **excluded** — abstract execution never consults
/// it — which is what lets config-only fleet variants share all their
/// abstract-mode step-1 work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SummaryKey {
    /// Structural fingerprint of (element display name, DPIR program).
    pub program: u128,
    /// Map-model mode the stage was executed under.
    pub mode: MapMode,
    /// Fingerprint of the table contents consulted in
    /// [`MapMode::Tables`] (exactly the `as_pairs()` contents fed to
    /// the ITE-chain model, per map id); `0` in [`MapMode::Abstract`].
    /// 128-bit like `program`: the table bytes are precisely what
    /// varies across a fleet's config variants, so this field carries
    /// the collision load.
    pub tables: u128,
    /// Fingerprint of the [`SymConfig`] fields that shape execution.
    pub sym: u128,
}

impl SummaryKey {
    /// The content address of `element` executed under `(mode, cfg)`.
    pub fn of(element: &Element, mode: MapMode, cfg: &SymConfig) -> Self {
        let program = fingerprint128(&(element.name.as_str(), element.program()));
        let tables = match mode {
            MapMode::Abstract => 0,
            MapMode::Tables => {
                // Hash what execution actually consumes
                // (`StageMapModel::new` feeds the canonical pair view
                // to the ITE-chain model), so configs with equal
                // semantics share a summary. The per-table pair-view
                // fingerprint is cached and maintained incrementally
                // by `TableConfig`, so keying is O(#maps), not
                // O(table) — the hot path of config-update streams.
                let consumed: Vec<(u32, u128, usize)> = element
                    .tables
                    .iter()
                    .map(|(map, tc)| (map.0, tc.pairs_fingerprint(), tc.as_pairs().len()))
                    .collect();
                fingerprint128(&consumed)
            }
        };
        // Exhaustive destructuring (no `..`): adding a SymConfig field
        // fails to compile here until it is added to the key — a field
        // silently missing from the address would serve summaries
        // executed under a different configuration.
        let SymConfig {
            max_pkt_bytes,
            min_pkt_len,
            max_states,
            max_instrs_per_path,
            exact_forks,
            fork_conflict_budget,
            fork_on_symbolic_offset,
        } = *cfg;
        let sym = fingerprint128(&(
            max_pkt_bytes,
            min_pkt_len,
            max_states,
            max_instrs_per_path,
            exact_forks,
            fork_conflict_budget,
            fork_on_symbolic_offset,
        ));
        SummaryKey {
            program,
            mode,
            tables,
            sym,
        }
    }
}

/// A pool-independent stage summary: the execution result in its own
/// private [`TermPool`], ready to be rebased into any session pool.
#[derive(Debug)]
pub struct StoredStage {
    pub(crate) pool: TermPool,
    pub(crate) input: SymInput,
    pub(crate) segments: Vec<Segment>,
    pub(crate) states: usize,
}

/// What one [`SummaryStore::stage`] fetch did. A report's step-1
/// counters are the sum of its own fetches' records, so checks running
/// at once on a shared store never count each other's work.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Fetch {
    /// Served from memory, including after waiting for another thread
    /// to produce the key.
    Hit,
    /// Loaded from the backing directory: the bytes read.
    Loaded(u64),
    /// Executed: the fork-solver work, and whether the write-back to
    /// the backing directory landed.
    Executed {
        fork: bvsolve::SolverLayerStats,
        written: bool,
    },
}

#[derive(Debug, Default)]
struct StoreInner {
    entries: HashMap<SummaryKey, Arc<StoredStage>>,
    /// Keys some thread is loading or executing right now. A second
    /// request for one of them waits on [`SummaryStore::landed`] and
    /// then takes the hit path, so a key is produced once per process
    /// however many workers miss on it together.
    in_flight: HashSet<SummaryKey>,
}

/// Clears a key's in-flight marker and wakes its waiters when the
/// producing call leaves [`SummaryStore::stage`] — by return, `Err` or
/// panic alike; waiters that find no entry produce it themselves.
struct Flight<'s> {
    store: &'s SummaryStore,
    key: SummaryKey,
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        // May run while unwinding: recover a poisoned guard (removing
        // a set element leaves the store valid) instead of panicking.
        let mut inner = self
            .store
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        inner.in_flight.remove(&self.key);
        self.store.landed.notify_all();
    }
}

/// A content-addressed, thread-safe cache of stage summaries.
///
/// Sessions consult the store during step 1: a hit rebases the cached
/// pool-independent summary into the session's [`TermPool`] via
/// [`bvsolve::Migrator`]; a miss executes the stage into a fresh
/// private pool, caches it, then rebases the same way. Because hits
/// and misses take the identical rebase path and execution is
/// deterministic, a session's master pool — and therefore every
/// verdict, counterexample byte and composed-path count downstream —
/// is independent of the store's prior contents.
///
/// Share one store across [`crate::Verifier`] sessions (or a whole
/// [`crate::fleet::Fleet`]) with `Arc<SummaryStore>`; the Abstract and
/// Tables caches both live here, keyed by [`SummaryKey::mode`].
///
/// The store keeps every entry it is given: each one owns a compacted
/// [`TermPool`], so a store that lives across many distinct Tables-mode
/// configurations grows with them. [`SummaryStore::clear`] releases
/// them all at once.
///
/// ## Persistence
///
/// [`SummaryStore::persistent`] backs the store with a directory of
/// content-addressed files (one per [`SummaryKey`], a versioned binary
/// encoding of the pool-independent summary): a memory miss consults
/// the directory before executing, and every executed summary is
/// written back atomically (temp file + rename), so step-1 warmth
/// survives process restarts and is shared across concurrent
/// processes. A disk load takes the identical decode → [`Migrator`]
/// normalization path as an in-memory hit, so persisted summaries are
/// byte-identical to freshly built ones; files that are truncated,
/// bit-flipped, version-bumped or otherwise unreadable are logged and
/// treated as misses — never as answers. [`SummaryStore::clear`] drops
/// memory residency only; the files remain and simply re-load on next
/// use.
#[derive(Debug, Default)]
pub struct SummaryStore {
    inner: Mutex<StoreInner>,
    /// Signalled whenever an in-flight key lands or is abandoned.
    landed: Condvar,
    /// Directory backing the store on disk, if persistent.
    disk: Option<std::path::PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    store_loads: AtomicU64,
    store_writes: AtomicU64,
    load_bytes: AtomicU64,
}

impl SummaryStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store behind an [`Arc`], ready to share.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// A store persisted under `dir` (created if absent): misses load
    /// through the directory's content-addressed files and executed
    /// summaries are written back, so warmth survives the process. See
    /// the type-level *Persistence* section.
    pub fn persistent(dir: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SummaryStore {
            disk: Some(dir),
            ..Self::default()
        })
    }

    /// Distinct `(element, mode, tables, cfg)` summaries held.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("summary store poisoned")
            .entries
            .len()
    }

    /// Whether the store holds no summaries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime count of stage requests served from cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime count of stage requests that had to execute.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lifetime count of summaries served from the backing directory
    /// (each also counts as a [`SummaryStore::hits`] entry: a disk
    /// load is a cache hit that skipped execution). Always `0` for
    /// in-memory stores.
    pub fn store_loads(&self) -> u64 {
        self.store_loads.load(Ordering::Relaxed)
    }

    /// Lifetime count of executed summaries written back to the
    /// backing directory. Always `0` for in-memory stores.
    pub fn store_writes(&self) -> u64 {
        self.store_writes.load(Ordering::Relaxed)
    }

    /// Lifetime bytes read from the backing directory by successful
    /// loads.
    pub fn load_bytes(&self) -> u64 {
        self.load_bytes.load(Ordering::Relaxed)
    }

    /// Drops every cached summary (the lifetime counters are kept): a
    /// session-private store releases its entries once a build has
    /// rebased them, and a long-lived store can release everything
    /// between unrelated sweeps at once.
    pub fn clear(&self) {
        self.inner
            .lock()
            .expect("summary store poisoned")
            .entries
            .clear();
    }

    /// Caches `stored` under `key` and hands it back. The key is
    /// vacant: only the caller holding its in-flight marker inserts it
    /// (a leftover would just be replaced).
    fn insert(&self, key: SummaryKey, stored: Arc<StoredStage>) -> Arc<StoredStage> {
        self.inner
            .lock()
            .expect("summary store poisoned")
            .entries
            .insert(key, Arc::clone(&stored));
        stored
    }

    /// Fetches the summary for `element` under `cfg` at `key` — the
    /// caller's `SummaryKey::of(element, mode, cfg)`, computed once —
    /// executing and caching it on a miss. Returns what this fetch
    /// did. Loading and execution happen outside the store lock, once
    /// per key: a thread that misses on a key another thread is
    /// already producing waits for it to land and is served as a hit.
    pub(crate) fn stage(
        &self,
        key: SummaryKey,
        element: &Element,
        cfg: &SymConfig,
    ) -> Result<(Arc<StoredStage>, Fetch), SymError> {
        let _flight = {
            let mut guard = self.inner.lock().expect("summary store poisoned");
            loop {
                if let Some(found) = guard.entries.get(&key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((Arc::clone(found), Fetch::Hit));
                }
                if guard.in_flight.insert(key) {
                    break Flight { store: self, key };
                }
                guard = self.landed.wait(guard).expect("summary store poisoned");
            }
        };
        // Memory miss: consult the backing directory before paying for
        // execution. A successful load is a *hit* — the stage was not
        // re-executed — and any decode failure (missing, truncated,
        // corrupt, wrong version) falls through to execution, which
        // overwrites the bad file on write-back.
        if let Some(dir) = &self.disk {
            if let Some((stage, nbytes)) = crate::persist::load_summary(dir, &key) {
                self.store_loads.fetch_add(1, Ordering::Relaxed);
                self.load_bytes.fetch_add(nbytes, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((self.insert(key, Arc::new(stage)), Fetch::Loaded(nbytes)));
            }
        }
        let mut exec_pool = TermPool::new();
        let exec_input = SymInput::fresh(&mut exec_pool, cfg, &element.name);
        let mut model = StageMapModel::new(element, key.mode);
        let report = execute(
            &mut exec_pool,
            element.program(),
            &exec_input,
            &mut model,
            cfg,
        )?;
        // Compact before storing: the execution pool also holds every
        // per-instruction intermediate and infeasible-branch term,
        // which rebasing never reads. Keep all variables (the
        // creation-order numbering contract) but only the terms
        // reachable from the summary.
        let mut pool = TermPool::new();
        let (input, segments) =
            import_summary(&mut pool, &exec_pool, &exec_input, &report.segments);
        let stored = Arc::new(StoredStage {
            pool,
            input,
            segments,
            states: report.states,
        });
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Write-back, outside the lock. Within a process the in-flight
        // marker makes this the key's only writer at any moment, so
        // the write race fleet workers used to run no longer exists;
        // racing writers in *other* processes sharing the directory
        // still rely on `persist::write_atomic` renaming a temp file
        // of its own over the final name — every rename publishes a
        // complete, identical file.
        let written = self
            .disk
            .as_ref()
            .is_some_and(|dir| crate::persist::save_summary(dir, &key, &stored));
        if written {
            self.store_writes.fetch_add(1, Ordering::Relaxed);
        }
        let fetch = Fetch::Executed {
            fork: report.solver_stats,
            written,
        };
        Ok((self.insert(key, stored), fetch))
    }
}

/// Runs step 1 over every stage of `pipeline`, sequentially, with a
/// throwaway store (intra-pipeline sharing only).
///
/// Each element (or loop body, per Condition 1) is executed exactly
/// once with fully unconstrained symbolic input — the per-element work
/// is `m · 2^n`, not `2^(m·n)` (§2.2). Prefer
/// [`summarize_pipeline_with_store`] (or a [`crate::Verifier`] with a
/// shared store) when several pipelines or sessions share elements.
pub fn summarize_pipeline(
    pool: &mut TermPool,
    pipeline: &Pipeline,
    cfg: &SymConfig,
    mode: MapMode,
) -> Result<PipelineSummaries, SymError> {
    summarize_pipeline_with_store(pool, pipeline, cfg, mode, &SummaryStore::new(), 1)
}

/// The step-1 driver: fetches every stage summary from `store`
/// (executing misses) and rebases it into `pool`, in stage order.
///
/// `_threads` is ignored: one pipeline's step 1 runs on the calling
/// thread, and parallelism lives at [`crate::fleet::Fleet`]'s classes.
/// The parameter is kept only because the repo benchmark's frozen API
/// names it (`benchmark/README.md`).
pub fn summarize_pipeline_with_store(
    pool: &mut TermPool,
    pipeline: &Pipeline,
    cfg: &SymConfig,
    mode: MapMode,
    store: &SummaryStore,
    _threads: usize,
) -> Result<PipelineSummaries, SymError> {
    summarize_keyed(pool, pipeline, cfg, mode, store, &mut Step1::default()).map(|(sums, _)| sums)
}

/// [`summarize_pipeline_with_store`], also returning each stage's
/// [`SummaryKey`] as the fetch computed it — the per-stage keys a
/// warm session re-keys table deltas against — and adding every
/// fetch's record to `step1`.
pub(crate) fn summarize_keyed(
    pool: &mut TermPool,
    pipeline: &Pipeline,
    cfg: &SymConfig,
    mode: MapMode,
    store: &SummaryStore,
    step1: &mut Step1,
) -> Result<(PipelineSummaries, Vec<SummaryKey>), SymError> {
    let input = SymInput::fresh(pool, cfg, "in");
    let n = pipeline.stages.len();
    let mut stages = Vec::with_capacity(n);
    let mut keys = Vec::with_capacity(n);
    let mut total_states = 0usize;
    for stage in &pipeline.stages {
        let element = &stage.element;
        let key = SummaryKey::of(element, mode, cfg);
        let (stored, fetch) = store.stage(key, element, cfg)?;
        step1.record(&fetch);
        total_states += stored.states;
        stages.push(rebase_stage(pool, &stored, element));
        keys.push(key);
    }
    let sums = PipelineSummaries {
        input,
        stages,
        total_states,
    };
    Ok((sums, keys))
}

/// Rebases a pool-independent stored summary into the master pool.
pub(crate) fn rebase_stage(
    pool: &mut TermPool,
    stored: &StoredStage,
    element: &Element,
) -> StageSummary {
    let (input, segments) = import_summary(pool, &stored.pool, &stored.input, &stored.segments);
    let loop_iters = match &element.kind {
        ElementKind::Straight(_) => None,
        ElementKind::Loop { max_iters, .. } => Some(*max_iters),
    };
    StageSummary::new(
        pool,
        element.name.clone(),
        input,
        segments,
        loop_iters,
        stored.states,
    )
}

/// Imports a stage summary from `src` into `pool`: all source
/// variables first, in creation order (so the destination numbering
/// matches what executing the stage in place would have produced),
/// then every term reachable from the summary. Used both to compact
/// summaries into their store entry and to rebase entries into
/// session pools — one code path, so a hit reproduces a miss exactly.
pub(crate) fn import_summary(
    pool: &mut TermPool,
    src: &TermPool,
    src_input: &SymInput,
    src_segments: &[Segment],
) -> (SymInput, Vec<Segment>) {
    let mut mig = Migrator::new();
    mig.import_all_vars(src, pool);
    let input = SymInput {
        pkt_bytes: src_input
            .pkt_bytes
            .iter()
            .map(|&t| mig.import(t, src, pool))
            .collect(),
        pkt_len: mig.import(src_input.pkt_len, src, pool),
        meta: src_input
            .meta
            .iter()
            .map(|&t| mig.import(t, src, pool))
            .collect(),
        pkt_byte_vars: src_input
            .pkt_byte_vars
            .iter()
            .map(|&v| mig.mapped_var(v).expect("input var imported"))
            .collect(),
        len_var: mig.mapped_var(src_input.len_var).expect("len var imported"),
        meta_vars: src_input
            .meta_vars
            .iter()
            .map(|&v| mig.mapped_var(v).expect("meta var imported"))
            .collect(),
        base_constraints: src_input
            .base_constraints
            .iter()
            .map(|&t| mig.import(t, src, pool))
            .collect(),
    };
    let segments = src_segments
        .iter()
        .map(|seg| Segment {
            constraint: seg
                .constraint
                .iter()
                .map(|&t| mig.import(t, src, pool))
                .collect(),
            outcome: seg.outcome,
            pkt_out: seg
                .pkt_out
                .iter()
                .map(|&t| mig.import(t, src, pool))
                .collect(),
            len_out: mig.import(seg.len_out, src, pool),
            meta_out: seg
                .meta_out
                .iter()
                .map(|&t| mig.import(t, src, pool))
                .collect(),
            instrs: seg.instrs,
            map_ops: seg
                .map_ops
                .iter()
                .map(|op| MapOpRecord {
                    map: op.map,
                    kind: op.kind,
                    key: mig.import(op.key, src, pool),
                    value: op.value.map(|v| mig.import(v, src, pool)),
                    havoc_value_var: op
                        .havoc_value_var
                        .map(|v| mig.mapped_var(v).expect("havoc var imported")),
                    havoc_flag_var: op
                        .havoc_flag_var
                        .map(|v| mig.mapped_var(v).expect("havoc var imported")),
                })
                .collect(),
        })
        .collect();
    (input, segments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataplane::TableConfig;
    use elements::pipelines::to_pipeline;
    use symexec::SegOutcome;

    fn cfg() -> SymConfig {
        SymConfig {
            max_pkt_bytes: 48,
            ..Default::default()
        }
    }

    #[test]
    fn summarizes_classifier() {
        let p = to_pipeline("t", vec![elements::classifier::classifier()]);
        let mut pool = TermPool::new();
        let s = summarize_pipeline(&mut pool, &p, &cfg(), MapMode::Abstract).expect("ok");
        assert_eq!(s.stages.len(), 1);
        // Segments: drop (short), emit 0 (IPv4), emit 1 (ARP), emit 2.
        let segs = &s.stages[0].segments;
        assert_eq!(segs.len(), 4);
        assert!(
            !segs.iter().any(|g| g.outcome.is_crash()),
            "classifier guards its load: no feasible crash segment"
        );
    }

    #[test]
    fn dec_ttl_has_crash_suspect_in_isolation() {
        let p = to_pipeline("t", vec![elements::dec_ttl::dec_ttl()]);
        let mut pool = TermPool::new();
        let s = summarize_pipeline(&mut pool, &p, &cfg(), MapMode::Abstract).expect("ok");
        let crashes = s.stages[0]
            .segments
            .iter()
            .filter(|g| g.outcome.is_crash())
            .count();
        assert!(crashes >= 1, "unguarded TTL load is a suspect");
    }

    #[test]
    fn loop_body_summarized_once() {
        let p = to_pipeline("t", vec![elements::ip_options::ip_options(3, None)]);
        let mut pool = TermPool::new();
        let s = summarize_pipeline(&mut pool, &p, &cfg(), MapMode::Abstract).expect("ok");
        // max_options = 3 ⇒ composition bound 3 + 2.
        assert_eq!(s.stages[0].loop_iters, Some(5));
        // The body emits PORT_CONTINUE on option-advance segments.
        assert!(s.stages[0]
            .segments
            .iter()
            .any(|g| g.outcome == SegOutcome::Emit(dpir::PORT_CONTINUE)));
    }

    #[test]
    fn tables_mode_keeps_lookup_single_branch() {
        let routes = vec![(0x0A000000u32, 8u32, 0u32), (0x0B000000, 8, 1)];
        let p = to_pipeline("t", vec![elements::ip_lookup::ip_lookup(2, routes)]);
        let mut pool = TermPool::new();
        let abs = summarize_pipeline(&mut pool, &p, &cfg(), MapMode::Abstract).expect("ok");
        let mut pool2 = TermPool::new();
        let tab = summarize_pipeline(&mut pool2, &p, &cfg(), MapMode::Tables).expect("ok");
        // Table mode must not multiply states per entry (ITE chain).
        assert!(tab.total_states <= abs.total_states + 2);
    }

    #[test]
    fn store_shares_identical_elements_within_a_pipeline() {
        let p = to_pipeline(
            "t",
            vec![elements::dec_ttl::dec_ttl(), elements::dec_ttl::dec_ttl()],
        );
        let store = SummaryStore::new();
        let mut pool = TermPool::new();
        let s = summarize_pipeline_with_store(&mut pool, &p, &cfg(), MapMode::Abstract, &store, 1)
            .expect("ok");
        assert_eq!(store.len(), 1);
        // The two stages are distinct instantiations: no shared vars.
        assert_ne!(
            s.stages[0].input.pkt_byte_vars, s.stages[1].input.pkt_byte_vars,
            "rebased instances must not alias"
        );
        // A check's report counts the same two fetches.
        let report = crate::Verifier::new(&p).check(crate::Property::CrashFreedom);
        let counted = report.as_verify().expect("a verify report").summary;
        assert_eq!(counted.misses, 1, "first DecTTL executes");
        assert_eq!(counted.hits, 1, "second DecTTL is served from cache");
    }

    #[test]
    fn abstract_keys_ignore_table_contents() {
        let mk = |routes: Vec<(u32, u32, u32)>| {
            to_pipeline("t", vec![elements::ip_lookup::ip_lookup(2, routes)]).stages[0]
                .element
                .clone()
        };
        let a = mk(vec![(0x0A000000, 8, 0)]);
        let b = mk(vec![(0x0B000000, 8, 1)]);
        assert_eq!(
            SummaryKey::of(&a, MapMode::Abstract, &cfg()),
            SummaryKey::of(&b, MapMode::Abstract, &cfg()),
            "abstract execution never reads tables"
        );
        assert_ne!(
            SummaryKey::of(&a, MapMode::Tables, &cfg()),
            SummaryKey::of(&b, MapMode::Tables, &cfg()),
            "table contents are part of the Tables-mode address"
        );
    }

    #[test]
    fn sym_config_participates_in_the_key() {
        let e = to_pipeline("t", vec![elements::dec_ttl::dec_ttl()]).stages[0]
            .element
            .clone();
        let small = SymConfig {
            max_pkt_bytes: 32,
            ..Default::default()
        };
        assert_ne!(
            SummaryKey::of(&e, MapMode::Abstract, &cfg()),
            SummaryKey::of(&e, MapMode::Abstract, &small),
            "window size shapes the summary"
        );
    }

    /// The churn contract: a delta moves a stage's Tables-mode key iff
    /// it moves the table's canonical pair view (`as_pairs()` bytes).
    #[test]
    fn tables_key_tracks_exact_delta_pair_view() {
        use dataplane::{TableDelta, TableOp};
        let mut p = to_pipeline(
            "t",
            vec![
                elements::ip_filter::ip_filter(vec![0x0BAD_0001]),
                elements::ip_lookup::ip_lookup(2, vec![(0x0A00_0000, 8, 0)]),
            ],
        );
        let key = |p: &dataplane::Pipeline, i: usize| {
            SummaryKey::of(&p.stages[i].element, MapMode::Tables, &cfg())
        };
        let (k_filter, k_lookup) = (key(&p, 0), key(&p, 1));

        // No-op overwrite (same key, same value): pair view unchanged,
        // key unchanged.
        let eff = TableDelta::new(
            "IPFilter",
            dpir::MapId(0),
            TableOp::ExactInsert(vec![(0x0BAD_0001, 1)]),
        )
        .apply(&mut p)
        .expect("ok");
        assert!(!eff.any_changed());
        assert_eq!(key(&p, 0), k_filter, "no-op insert must not move the key");

        // Fresh insert: pair view changed, key moves — and only on the
        // touched stage (the LPM stage is untouched).
        let eff = TableDelta::new(
            "IPFilter",
            dpir::MapId(0),
            TableOp::ExactInsert(vec![(0x0BAD_0099, 1)]),
        )
        .apply(&mut p)
        .expect("ok");
        assert!(eff.any_changed());
        let k_after = key(&p, 0);
        assert_ne!(k_after, k_filter, "fresh entry must move the key");
        assert_eq!(key(&p, 1), k_lookup, "untouched stage key is stable");

        // Removing it restores the exact pair bytes — and the key.
        TableDelta::new(
            "IPFilter",
            dpir::MapId(0),
            TableOp::ExactRemove(vec![0x0BAD_0099]),
        )
        .apply(&mut p)
        .expect("ok");
        assert_eq!(key(&p, 0), k_filter, "same pair bytes ⇒ same key");
    }

    #[test]
    fn tables_key_tracks_lpm_delta_pair_view() {
        use dataplane::{TableConfig, TableDelta, TableOp};
        let mut p = to_pipeline(
            "t",
            vec![elements::ip_lookup::ip_lookup(2, vec![(0x0A00_0000, 8, 0)])],
        );
        let key =
            |p: &dataplane::Pipeline| SummaryKey::of(&p.stages[0].element, MapMode::Tables, &cfg());
        let k0 = key(&p);

        // Removing an absent route is a no-op: key unchanged.
        let eff = TableDelta::new(
            "IPlookup",
            dpir::MapId(0),
            TableOp::LpmRemove(vec![(0x0B00_0000, 16)]),
        )
        .apply(&mut p)
        .expect("ok");
        assert!(!eff.any_changed());
        assert_eq!(key(&p), k0, "absent-route remove must not move the key");

        // A fresh route moves the key.
        let eff = TableDelta::new(
            "IPlookup",
            dpir::MapId(0),
            TableOp::LpmInsert(vec![(0x0B00_0000, 16, 1)]),
        )
        .apply(&mut p)
        .expect("ok");
        assert!(eff.any_changed());
        let k1 = key(&p);
        assert_ne!(k1, k0);

        // Replacing the table with a copy of its current contents is a
        // no-op replace: same pair bytes, same key.
        let replica = p.stages[0].element.tables[0].1.clone();
        let eff = TableDelta::new("IPlookup", dpir::MapId(0), TableOp::Replace(replica))
            .apply(&mut p)
            .expect("ok");
        assert!(!eff.any_changed());
        assert_eq!(key(&p), k1, "no-op replace must not move the key");

        // Replacing with different contents moves it.
        let eff = TableDelta::new(
            "IPlookup",
            dpir::MapId(0),
            TableOp::Replace(TableConfig::lpm(vec![(0x0C00_0000, 8, 3)])),
        )
        .apply(&mut p)
        .expect("ok");
        assert!(eff.any_changed());
        assert_ne!(key(&p), k1);
    }

    #[test]
    fn lpm_and_equivalent_exact_share_a_tables_key() {
        let mut a = elements::dec_ttl::dec_ttl();
        a.tables
            .push((dpir::MapId(0), TableConfig::lpm(vec![(10, 8, 7)])));
        let mut b = elements::dec_ttl::dec_ttl();
        b.tables
            .push((dpir::MapId(0), TableConfig::exact(vec![(10, 7)])));
        assert_eq!(
            SummaryKey::of(&a, MapMode::Tables, &cfg()),
            SummaryKey::of(&b, MapMode::Tables, &cfg()),
            "the key hashes what execution consumes (as_pairs)"
        );
    }
}
