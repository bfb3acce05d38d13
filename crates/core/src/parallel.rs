//! Parallel verification driver.
//!
//! Entry point: [`crate::session::Verifier::threads`] — a session with
//! more than one worker dispatches into this module's frontier
//! machinery.
//!
//! Runs both verification steps across a pool of worker threads:
//!
//! * **step 1** fetches each pipeline element's summary from the
//!   content-addressed store — executing misses in worker-private
//!   term pools — and migrates the results into the master pool in
//!   stage order ([`crate::summary::summarize_pipeline_par`]); since
//!   the sequential driver takes the same fetch-and-rebase path, the
//!   master pool is identical across thread counts *and* across
//!   cache-cold vs cache-warm [`crate::SummaryStore`] states;
//! * **step 2** splits the composed-path search into a frontier of
//!   independent subtree and feasibility-check tasks, drained by
//!   workers from a shared queue (each worker owns a clone of the
//!   master pool and its own solver, so no locks are held during
//!   solving).
//!
//! **Determinism.** Tasks are enumerated in exactly the order the
//! sequential search visits them, results are merged in that order,
//! both drivers classify segments through the single
//! `step2::classify` engine, and a winning violation is
//! re-extracted against the unmutated master pool — so for any
//! pipeline whose *parallel* run stays within the path budget, the
//! parallel result (verdict *and* counterexample packet) is
//! independent of thread count, split depth and scheduling, and its
//! proof status (proved / disproved / unknown) equals the sequential
//! driver's.
//!
//! Caveats, both confined to pathological inputs:
//!
//! * The concrete counterexample *packet* may differ from the
//!   sequential one when the property leaves input bytes
//!   unconstrained: solver models are sensitive to term-pool interning
//!   order, which step-1 migration changes. Both packets trigger the
//!   same violation. The incremental solver sessions add no new
//!   nondeterminism here: a session's in-flight models depend on the
//!   learnt clauses and saved phases of earlier queries, so the
//!   reported bytes of a winning violation always come from canonical
//!   minimal-model extraction (`step2::canonical_model`), and the
//!   winning task is replayed on a brand-new session at merge time
//!   (`reextract`) — making reported packets identical across thread
//!   counts.
//! * `composed_paths` accounting: the frontier split charges shallow
//!   classify events exactly as the sequential search does (and
//!   `run_task` does not re-count them), so on runs that explore the
//!   whole tree — proofs, and budget-free clean searches — the
//!   reported count is identical across engines and thread counts;
//!   the differential harness in `crates/bench` asserts this. On
//!   *disproved* runs workers may have started tasks past the winning
//!   violation before the cutoff propagates, so the parallel count
//!   can exceed the sequential one by the work of those in-flight
//!   tasks. And near `max_composed_paths` *which* tasks hit the
//!   shared budget first is scheduling dependent — the verdict may
//!   degrade to `Unknown("step-2 path budget exceeded")`
//!   nondeterministically. Far from the edge (the normal case, with
//!   the default budget of 2^20 paths) neither effect is observable
//!   on proved pipelines.
//!
//! **Conflict-driven pruning** ([`crate::VerifyConfig::core_pruning`],
//! the default) adds no verdict nondeterminism on top of the above as
//! long as every query is *decided* (Sat/Unsat): pruning only ever
//! skips queries whose UNSAT answer is entailed by a learned core, so
//! the search takes exactly the same branches whether a given skip
//! happens or not, composed-path counts are unaffected (pruned
//! compositions still count), and the winning counterexample is still
//! re-extracted on the master pool with pruning off — reported
//! packets remain identical across thread counts and pruning modes.
//! What *is* scheduling dependent is the **accounting**: which worker
//! learns a core first, how many siblings see it in time (cores
//! propagate at task boundaries only), and hence the per-run
//! `cores_learned` / `core_hits` / `subtrees_pruned` counters and the
//! solver-side query counters. Near the CDCL conflict budget the
//! guarantee weakens: a query the unpruned run answered `Unknown` may
//! be pruned to a definite `Unsat` (changing which subtrees expand,
//! and with them path counts), and skipped solves change the
//! learnt-clause state behind *later* budget-limited queries in either
//! direction — budget-free runs (every query decided, the normal case
//! with the default 200k-conflict budget) never diverge.

use crate::compose::ComposedState;
use crate::cores::{CoreStats, CoreStore, Pruner};
use crate::report::CounterExample;
use crate::step2::{
    canonical_model, check, classify, new_session, search, Feas, Node, PropKind, SearchOutcome,
    StepEvent, VerifyConfig, SOLVER_BUDGET,
};
use crate::summary::{panic_message, PipelineSummaries};
use bvsolve::{SolveSession, SolverLayerStats, TermPool};
use dataplane::Pipeline;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One unit of step-2 work, produced by the frontier split.
pub(crate) enum Task {
    /// A single feasibility check. `violation: Some(desc)` means a
    /// feasible state disproves the property with that description;
    /// `None` means a feasible state only blocks a full proof.
    Check {
        state: ComposedState,
        violation: Option<String>,
    },
    /// A whole search subtree rooted at `Node`.
    Explore(Node),
}

/// Per-task outcome, merged in task order.
enum TaskResult {
    Clean,
    Violation(CounterExample),
    Unknown,
    Budget,
    /// Skipped because an earlier-indexed task already found a
    /// violation (cannot affect the merged verdict).
    Skipped,
}

/// Enumerates step-2 tasks in exactly the order the sequential search
/// visits them: the same LIFO stack discipline, with suspect/blocker
/// checks emitted inline and subtrees emitted when a node at
/// `split_depth` compositions is popped.
///
/// Suspect/blocker checks are deferred to worker tasks, but shallow
/// *continuations* are feasibility-pruned right here, with the same
/// `check(.., subtree: true)` call the sequential search makes before
/// pushing a node — so an infeasible shallow prefix is cut after one
/// query instead of becoming an Explore task that discovers every
/// successor unsatisfiable.
///
/// `composed` is bumped once per classify event exactly as the
/// sequential search does it, and `run_task` does *not* count the
/// `Check` tasks emitted here again. Together with the pruned
/// continuations this makes the reported `composed_paths` identical
/// across engines and thread counts on exhaustive (proved) runs,
/// which the differential harness asserts.
#[allow(clippy::too_many_arguments)]
pub(crate) fn expand_frontier(
    pool: &mut TermPool,
    solver: &mut SolveSession,
    pruner: &mut Pruner,
    pipeline: &Pipeline,
    sums: &PipelineSummaries,
    kind: &PropKind,
    init: ComposedState,
    reach: &[bool],
    split_depth: usize,
    composed: &AtomicUsize,
) -> Vec<Task> {
    let mut tasks = Vec::new();
    let mut stack = vec![Node {
        stage: 0,
        iter: 0,
        state: init,
    }];
    while let Some(node) = stack.pop() {
        if node.state.trace.len() >= split_depth {
            tasks.push(Task::Explore(node));
            continue;
        }
        for (i, seg) in sums.stages[node.stage].segments.iter().enumerate() {
            match classify(pool, pipeline, sums, kind, &node, i, seg, reach) {
                StepEvent::ViolationCheck(what, next) => {
                    composed.fetch_add(1, Ordering::Relaxed);
                    tasks.push(Task::Check {
                        state: next,
                        violation: Some(what),
                    });
                }
                StepEvent::BlockerCheck(next) => {
                    composed.fetch_add(1, Ordering::Relaxed);
                    tasks.push(Task::Check {
                        state: next,
                        violation: None,
                    });
                }
                StepEvent::Continue(n) => {
                    composed.fetch_add(1, Ordering::Relaxed);
                    match check(pool, solver, pruner, &n.state, true) {
                        Feas::Sat(_) | Feas::Unknown => stack.push(n),
                        Feas::Unsat => {}
                    }
                }
                StepEvent::Inert => {}
            }
        }
    }
    tasks
}

#[derive(Clone, Copy)]
pub(crate) struct WorkerCtx<'a> {
    pub(crate) pipeline: &'a Pipeline,
    pub(crate) sums: &'a PipelineSummaries,
    pub(crate) cfg: &'a VerifyConfig,
    pub(crate) kind: &'a PropKind,
    pub(crate) reach: &'a [bool],
    pub(crate) composed: &'a AtomicUsize,
    /// The session's per-map-mode core store. Workers keep a local
    /// replica and exchange cores with it at task boundaries only,
    /// so no lock is held while solving.
    pub(crate) core_store: &'a Arc<Mutex<CoreStore>>,
}

fn run_task(
    task: &Task,
    pool: &mut TermPool,
    solver: &mut SolveSession,
    pruner: &mut Pruner,
    ctx: &WorkerCtx,
) -> TaskResult {
    if ctx.composed.load(Ordering::Relaxed) >= ctx.cfg.max_composed_paths {
        return TaskResult::Budget;
    }
    match task {
        Task::Check { state, violation } => {
            // Already counted by `expand_frontier` at classify time —
            // counting here again would double-charge shallow checks
            // relative to the sequential engine.
            let feas = check(pool, solver, pruner, state, false);
            match (feas, violation) {
                (Feas::Sat(m), Some(desc)) => {
                    let m = canonical_model(pool, ctx.cfg, &state.constraint, &ctx.sums.input)
                        .unwrap_or(m);
                    TaskResult::Violation(CounterExample::from_model(
                        pool,
                        &ctx.sums.input,
                        &m,
                        desc.clone(),
                        state.trace.clone(),
                    ))
                }
                (Feas::Unsat, _) => TaskResult::Clean,
                (_, None) => TaskResult::Unknown,
                (Feas::Unknown, Some(_)) => TaskResult::Unknown,
            }
        }
        Task::Explore(node) => match search(
            pool,
            solver,
            pruner,
            ctx.pipeline,
            ctx.sums,
            ctx.cfg,
            ctx.kind,
            vec![node.clone()],
            ctx.reach,
            ctx.composed,
        ) {
            SearchOutcome::Clean => TaskResult::Clean,
            SearchOutcome::Violation(cex) => TaskResult::Violation(cex),
            SearchOutcome::Budget => TaskResult::Budget,
            SearchOutcome::SolverUnknown(_) => TaskResult::Unknown,
        },
    }
}

/// Drains `tasks` across `threads` workers and merges the results in
/// task order (ties between outcome classes resolved exactly as the
/// sequential search would: first violation wins, then budget, then
/// solver-unknown). Each worker owns its own [`SolveSession`] — seeded
/// by the first frontier task it syncs to — plus a local [`CoreStore`]
/// replica
/// synced with the session's shared store at task boundaries, so no
/// solver state is shared and no lock is held while solving. Cores
/// containing worker-private terms (interned below the split point by
/// that worker alone) never leave their worker; everything else is
/// published for siblings, later properties, and later engines.
/// Returns the merged outcome plus the workers' summed solver and
/// pruning counters.
///
/// A worker that panics (a hostile [`crate::CustomProperty`] hook, an
/// internal `expect`) loses its results and counters but not the
/// check: a violation found by a surviving worker still wins — its
/// counterexample is concrete — and otherwise the outcome is
/// `SolverUnknown("internal: …")` carrying the panic message.
pub(crate) fn drain_tasks(
    master: &TermPool,
    tasks: &[Task],
    threads: usize,
    ctx: &WorkerCtx,
) -> (SearchOutcome, SolverLayerStats, CoreStats) {
    let next = AtomicUsize::new(0);
    // Index of the earliest violation found so far: tasks after it
    // cannot influence the merged verdict and are skipped.
    let cutoff = AtomicUsize::new(usize::MAX);
    let threads = threads.min(tasks.len().max(1));
    // Terms at or above this index were interned by a single worker's
    // clone and are meaningless elsewhere: they gate core publishing.
    let shared_term_limit = master.len();
    let mut results: Vec<(usize, TaskResult)> = Vec::with_capacity(tasks.len());
    let mut stats = SolverLayerStats::default();
    let mut core_stats = CoreStats::default();
    let mut panicked: Option<String> = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let cutoff = &cutoff;
                s.spawn(move || {
                    let mut pool = master.clone();
                    let mut solver = new_session(ctx.cfg);
                    let mut pruner = Pruner::new(
                        Arc::clone(ctx.core_store),
                        ctx.cfg.core_pruning,
                        shared_term_limit,
                    );
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks.len() {
                            break;
                        }
                        if i > cutoff.load(Ordering::Relaxed) {
                            out.push((i, TaskResult::Skipped));
                            continue;
                        }
                        pruner.sync();
                        let r = run_task(&tasks[i], &mut pool, &mut solver, &mut pruner, ctx);
                        pruner.publish();
                        if matches!(r, TaskResult::Violation(_)) {
                            cutoff.fetch_min(i, Ordering::Relaxed);
                        }
                        out.push((i, r));
                    }
                    (out, solver.stats(), pruner.stats)
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok((out, worker_stats, worker_cores)) => {
                    results.extend(out);
                    stats.merge(&worker_stats);
                    core_stats.merge(&worker_cores);
                }
                Err(payload) => {
                    panicked.get_or_insert_with(|| panic_message(payload.as_ref()));
                }
            }
        }
    });
    results.sort_by_key(|(i, _)| *i);

    let mut saw_budget = false;
    let mut saw_unknown = false;
    for (i, r) in results {
        match r {
            TaskResult::Violation(cex) => {
                return (
                    SearchOutcome::Violation(reextract(i, cex, master, tasks, ctx)),
                    stats,
                    core_stats,
                );
            }
            TaskResult::Budget => saw_budget = true,
            TaskResult::Unknown => saw_unknown = true,
            TaskResult::Clean | TaskResult::Skipped => {}
        }
    }
    let outcome = if let Some(why) = panicked {
        SearchOutcome::SolverUnknown(format!("internal: step-2 worker panicked: {why}"))
    } else if saw_budget {
        SearchOutcome::Budget
    } else if saw_unknown {
        SearchOutcome::SolverUnknown(SOLVER_BUDGET.into())
    } else {
        SearchOutcome::Clean
    };
    (outcome, stats, core_stats)
}

/// Re-runs the winning violation task on a *fresh* clone of the master
/// pool. The reported *bytes* are already scheduling-independent —
/// `step2::canonical_model` extracts the canonical minimal model,
/// a pure function of the path constraint's semantics — but the
/// re-run keeps the rest of the counterexample (trace, description,
/// feasibility bookkeeping) a function of the master pool and task
/// index alone, independent of whichever diverged worker pool
/// happened to find the violation first.
///
/// The re-run uses a brand-new solver session: its answers depend on
/// nothing a worker accumulated.
fn reextract(
    i: usize,
    fallback: CounterExample,
    master: &TermPool,
    tasks: &[Task],
    ctx: &WorkerCtx,
) -> CounterExample {
    let mut pool = master.clone();
    let mut solver = new_session(ctx.cfg);
    // Pruning is off for the re-run: it can only skip UNSAT queries,
    // but disabling it keeps the replay maximally independent of what
    // other workers learned — so nothing reads the session's cores.
    solver.set_core_extraction(false);
    let mut pruner = Pruner::new(Arc::new(Mutex::new(CoreStore::new())), false, usize::MAX);
    let composed = AtomicUsize::new(0);
    let ctx2 = WorkerCtx {
        composed: &composed,
        ..*ctx
    };
    match run_task(&tasks[i], &mut pool, &mut solver, &mut pruner, &ctx2) {
        TaskResult::Violation(cex) => cex,
        // Only reachable if the shared budget truncated the original
        // run differently; the in-flight counterexample is still valid.
        _ => fallback,
    }
}
