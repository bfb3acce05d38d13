//! Layer probes: the benchmark calls each layer's public functions
//! directly, on the workload's own pipelines, under spans named after
//! the layer. Only a traced run does this; the probes are siblings of
//! the operations in the trace, under one `probe` root.

use crate::inputs::{self, cfg};
use crate::trace::Tracer;
use crate::workloads::Ctx;
use bitsat::Solver;
use bvsolve::{Blaster, BvSolver, Migrator, SatVerdict, SolveSession, TermId, TermPool};
use dataplane::workload::FlowMix;
use dataplane::{Element, Pipeline, Runner, TableDelta};
use dpir::analysis::{lint_program, simplify, IvEnv};
use dpir::{MapDecl, MapId};
use elements::pipelines::build_all_stores;
use std::collections::BTreeSet;
use symexec::{
    execute, AbstractMapModel, ExecReport, MapBranch, MapModel, SymConfig, SymInput, TableMapModel,
};
use verifier::{summarize_pipeline_with_store, MapMode, SummaryStore};

/// Metrics that are the summed time, in ms, of every span of one name.
const SPAN_TOTALS: &[(&str, &str)] = &[
    ("dpir.simplify_ms", "dpir.simplify"),
    ("dpir.lint_ms", "dpir.lint"),
    ("symexec.execute_ms", "symexec.execute"),
    ("symexec.execute_tables_ms", "symexec.execute_tables"),
    ("verifier.summary.miss_ms", "verifier.summary.miss"),
    ("verifier.summary.hit_ms", "verifier.summary.hit"),
    (
        "verifier.summary.disk_write_ms",
        "verifier.summary.disk_write",
    ),
    (
        "verifier.summary.disk_load_ms",
        "verifier.summary.disk_load",
    ),
    ("bvsolve.probe.fresh_ms", "bvsolve.probe.fresh"),
    ("bvsolve.probe.session_ms", "bvsolve.probe.session"),
    ("bvsolve.probe.blast_ms", "bvsolve.probe.blast"),
    ("bvsolve.migrate_ms", "bvsolve.migrate"),
    ("bitsat.probe.solve_ms", "bitsat.probe.solve"),
];

/// Most bvsolve probe queries per run.
const MAX_QUERIES: usize = 2000;

/// Elements with distinct programs (`tables == false`) or distinct
/// (program, table contents) pairs (`tables == true`).
fn distinct<'a>(pipelines: &[&'a Pipeline], tables: bool) -> Vec<&'a Element> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for stage in pipelines.iter().flat_map(|p| &p.stages) {
        let e = &stage.element;
        let contents: Vec<(u32, u128)> = if tables {
            e.tables
                .iter()
                .map(|(m, t)| (m.0, t.pairs_fingerprint()))
                .collect()
        } else {
            Vec::new()
        };
        if seen.insert((e.program().fingerprint(), contents)) {
            out.push(e);
        }
    }
    out
}

/// What step 1 gives an element in Tables mode: its configured tables
/// as ITE chains, every other map havoced.
struct ConfiguredTables {
    tables: TableMapModel,
    configured: Vec<MapId>,
    rest: AbstractMapModel,
}

impl ConfiguredTables {
    fn of(e: &Element) -> Self {
        let mut tables = TableMapModel::new();
        for (map, t) in &e.tables {
            tables.set_table(*map, t.as_pairs().to_vec());
        }
        ConfiguredTables {
            tables,
            configured: e.tables.iter().map(|(m, _)| *m).collect(),
            rest: AbstractMapModel::new(),
        }
    }

    fn pick(&mut self, map: MapId) -> &mut dyn MapModel {
        if self.configured.contains(&map) {
            &mut self.tables
        } else {
            &mut self.rest
        }
    }
}

impl MapModel for ConfiguredTables {
    fn read(&mut self, p: &mut TermPool, m: MapId, d: &MapDecl, k: TermId) -> Vec<MapBranch> {
        self.pick(m).read(p, m, d, k)
    }
    fn write(
        &mut self,
        p: &mut TermPool,
        m: MapId,
        d: &MapDecl,
        k: TermId,
        v: TermId,
    ) -> Vec<MapBranch> {
        self.pick(m).write(p, m, d, k, v)
    }
    fn test(&mut self, p: &mut TermPool, m: MapId, d: &MapDecl, k: TermId) -> Vec<MapBranch> {
        self.pick(m).test(p, m, d, k)
    }
}

/// One element executed in its own pool.
struct Executed {
    pool: TermPool,
    report: ExecReport,
}

fn execute_in_own_pool(e: &Element, sym: &SymConfig, model: &mut dyn MapModel) -> Option<Executed> {
    let mut pool = TermPool::new();
    let input = SymInput::fresh(&mut pool, sym, &e.name);
    let report = execute(&mut pool, e.program(), &input, model, sym).ok()?;
    Some(Executed { pool, report })
}

/// Runs every probe and stores its metrics. `tables`: whether the
/// workload verifies a Tables-mode property (only then is the Tables
/// model probed — on a 100k-route FIB it is the generic blow-up the
/// paper avoids). `stream`: the workload's update stream, if any.
pub fn run(ctx: &mut Ctx, pipelines: &[&Pipeline], tables: bool, stream: Option<&[TableDelta]>) {
    let mut t = ctx.tracer.take().expect("probes run in a traced run");
    t.next_op();
    let sym = cfg().sym;
    let programs = distinct(pipelines, false);
    let smoke = ctx.smoke;

    t.span("probe", |t| {
        // dpir: the static passes over each distinct stage program.
        let env = IvEnv {
            len_lo: sym.min_pkt_len,
            len_hi: sym.max_pkt_bytes as u64,
        };
        let (mut instrs, mut blocks_removed) = (0usize, 0usize);
        for e in &programs {
            let prog = e.program();
            instrs += prog
                .blocks
                .iter()
                .map(|b| b.instrs.len() + 1)
                .sum::<usize>();
            blocks_removed += t
                .span("dpir.simplify", |_| simplify(prog, env))
                .1
                .blocks_removed;
            t.span("dpir.lint", |_| lint_program(prog, env));
            t.span("dpir.fingerprint", |_| {
                std::hint::black_box(prog.fingerprint())
            });
        }
        ctx.set("dpir.instrs", instrs as f64);
        ctx.set("dpir.blocks_removed", blocks_removed as f64);

        // symexec: `execute` per distinct program, Abstract model; per
        // distinct (program, tables), Tables model.
        let executed: Vec<Executed> = programs
            .iter()
            .filter_map(|e| {
                t.span("symexec.execute", |_| {
                    execute_in_own_pool(e, &sym, &mut AbstractMapModel::new())
                })
            })
            .collect();
        if tables {
            for e in distinct(pipelines, true) {
                t.span("symexec.execute_tables", |_| {
                    execute_in_own_pool(e, &sym, &mut ConfiguredTables::of(e))
                });
            }
        }
        let sum = |f: fn(&ExecReport) -> u64| executed.iter().map(|x| f(&x.report)).sum::<u64>();
        ctx.set("symexec.states", sum(|r| r.states as u64) as f64);
        ctx.set("symexec.segments", sum(|r| r.segments.len() as u64) as f64);
        ctx.set(
            "symexec.fork_queries",
            sum(|r| r.solver_stats.queries) as f64,
        );

        summary_store(ctx, t, pipelines, tables);
        bvsolve(ctx, t, executed);
        bitsat(ctx, t, smoke);
        dataplane(ctx, t, pipelines[0], stream);
    });

    for &(metric, span) in SPAN_TOTALS {
        ctx.set(metric, t.total_ms(span));
    }
    let fingerprint_us = t.total_ms("dpir.fingerprint") * 1e3;
    ctx.set("dpir.fingerprint_us", fingerprint_us);
    ctx.tracer = Some(t);
}

/// verifier.summary: step 1 of every pipeline against an empty memory
/// store (all misses), the same store again (all hits), an empty
/// on-disk store (misses written back) and a new store object over
/// the populated directory (loads). One store per phase, shared by
/// the pipelines, so repeated elements hit as they do in a fleet.
fn summary_store(ctx: &mut Ctx, t: &mut Tracer, pipelines: &[&Pipeline], tables: bool) {
    let sym = cfg().sym;
    let mut modes = vec![MapMode::Abstract];
    if tables {
        modes.push(MapMode::Tables);
    }
    let dir = ctx.work_dir.join("probe-store");
    let _ = std::fs::remove_dir_all(&dir);
    let pass = |t: &mut Tracer, span: &'static str, store: &SummaryStore| {
        for p in pipelines {
            for &mode in &modes {
                t.span(span, |_| {
                    let mut pool = TermPool::new();
                    let _ = summarize_pipeline_with_store(&mut pool, p, &sym, mode, store, 1);
                });
            }
        }
    };
    let memory = SummaryStore::new();
    pass(t, "verifier.summary.miss", &memory);
    pass(t, "verifier.summary.hit", &memory);
    let Ok(writer) = SummaryStore::persistent(&dir) else {
        ctx.oracle
            .fail("probe", "cannot open the probe store".into());
        return;
    };
    pass(t, "verifier.summary.disk_write", &writer);
    let disk_bytes: u64 = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let Ok(reader) = SummaryStore::persistent(&dir) else {
        ctx.oracle
            .fail("probe", "cannot reopen the probe store".into());
        return;
    };
    pass(t, "verifier.summary.disk_load", &reader);
    ctx.set(
        "verifier.summary.store_writes",
        writer.store_writes() as f64,
    );
    ctx.set(
        "verifier.summary.write_errors",
        writer.misses().saturating_sub(writer.store_writes()) as f64,
    );
    ctx.set("verifier.summary.store_loads", reader.store_loads() as f64);
    ctx.set("verifier.summary.load_bytes", reader.load_bytes() as f64);
    ctx.set("verifier.summary.disk_bytes", disk_bytes as f64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// bvsolve: real step-1 path constraints — each segment's constraint
/// and the conjunction of each pair of sibling segments — through the
/// fresh solver, an incremental session and the blaster alone; and the
/// migration of each summary into an empty pool.
fn bvsolve(ctx: &mut Ctx, t: &mut Tracer, mut executed: Vec<Executed>) {
    let mut queries: Vec<(usize, Vec<TermId>)> = Vec::new();
    for (i, x) in executed.iter().enumerate() {
        let segs = &x.report.segments;
        for (k, s) in segs.iter().enumerate() {
            queries.push((i, s.constraint.clone()));
            if let Some(sibling) = segs.get(k + 1) {
                let mut both = s.constraint.clone();
                both.extend(&sibling.constraint);
                both.sort_unstable();
                both.dedup();
                queries.push((i, both));
            }
        }
    }
    queries.truncate(MAX_QUERIES);
    ctx.set("bvsolve.probe.queries", queries.len() as f64);

    let label = |v: &SatVerdict| match v {
        SatVerdict::Sat(_) => 's',
        SatVerdict::Unsat(_) => 'u',
        SatVerdict::Unknown | SatVerdict::Interrupted => '?',
    };
    let fresh: Vec<char> = t.span("bvsolve.probe.fresh", |_| {
        let mut solver = BvSolver::new();
        queries
            .iter()
            .map(|(i, cs)| label(&solver.check(&mut executed[*i].pool, cs)))
            .collect()
    });
    let session: Vec<char> = t.span("bvsolve.probe.session", |_| {
        let mut sessions: Vec<SolveSession> =
            executed.iter().map(|_| SolveSession::new()).collect();
        queries
            .iter()
            .map(|(i, cs)| label(&sessions[*i].check_constraints(&mut executed[*i].pool, cs)))
            .collect()
    });
    // The two front-ends must agree; a disagreement is a solver bug
    // the benchmark should not time past.
    if fresh != session {
        ctx.oracle
            .fail("probe", "BvSolver and SolveSession verdicts differ".into());
    }
    t.span("bvsolve.probe.blast", |_| {
        for (i, cs) in &queries {
            let mut blaster = Blaster::new();
            for &c in cs {
                blaster.assert_true(&executed[*i].pool, c);
            }
            std::hint::black_box(blaster.num_sat_vars());
        }
    });
    t.span("bvsolve.migrate", |_| {
        for x in &executed {
            let mut dst = TermPool::new();
            let mut m = Migrator::new();
            m.import_all_vars(&x.pool, &mut dst);
            for s in &x.report.segments {
                let terms = s.constraint.iter().chain(&s.pkt_out).chain(&s.meta_out);
                for &term in terms.chain([&s.len_out]) {
                    m.import(term, &x.pool, &mut dst);
                }
            }
            std::hint::black_box(dst.len());
        }
    });
}

/// bitsat: seeded random 3-SAT at the hardness peak plus one
/// pigeonhole instance (about 0.5 s + 2 s on the sizing host). Many
/// small formulas rather than a few large ones: at 200+ variables the
/// time of one formula varies tenfold with the seed. Satisfying
/// assignments are checked against the formula; the pigeonhole
/// instance must come out unsatisfiable.
fn bitsat(ctx: &mut Ctx, t: &mut Tracer, smoke: bool) {
    let (instances, vars, holes) = if smoke { (4, 100, 6) } else { (40, 150, 8) };
    let mut cnfs: Vec<(bitsat::Cnf, bool)> = (0..instances)
        .map(|i| (inputs::random_3sat(ctx.seed.wrapping_add(i), vars), false))
        .collect();
    cnfs.push((inputs::pigeonhole(holes), true));
    let (mut props, mut conflicts) = (0u64, 0u64);
    for (cnf, known_unsat) in &cnfs {
        let mut s = Solver::new();
        let sat = t.span("bitsat.probe.solve", |_| {
            s.reserve_vars(cnf.num_vars);
            for c in &cnf.clauses {
                s.add_clause(c);
            }
            s.solve().is_sat()
        });
        if sat && (*known_unsat || !cnf.eval(&s.model())) {
            ctx.oracle
                .fail("probe", "bitsat answered a CNF wrongly".into());
        }
        props += s.stats().propagations;
        conflicts += s.stats().conflicts;
    }
    let secs = t.total_ms("bitsat.probe.solve") / 1e3;
    ctx.set("bitsat.probe.conflicts", conflicts as f64);
    if secs > 0.0 {
        ctx.set("bitsat.probe.props_per_s", props as f64 / secs);
    }
}

/// dataplane: applying the workload's deltas to a copy of its
/// pipeline, and the concrete runner the oracle replays on.
fn dataplane(ctx: &mut Ctx, t: &mut Tracer, pipeline: &Pipeline, stream: Option<&[TableDelta]>) {
    if let Some(deltas) = stream {
        let mut copy = pipeline.clone();
        let deltas = &deltas[..deltas.len().min(500)];
        t.span("dataplane.delta.apply", |_| {
            for d in deltas {
                let _ = std::hint::black_box(d.apply(&mut copy));
            }
        });
        let us = t.total_ms("dataplane.delta.apply") * 1e3 / deltas.len().max(1) as f64;
        ctx.set("dataplane.delta.apply_us", us);
    }
    let mut runner = Runner::new(pipeline.clone(), build_all_stores(pipeline));
    let mut mix = FlowMix::new(ctx.seed, 64);
    let packets: Vec<_> = (0..2000).map(|_| mix.next_packet()).collect();
    t.span("dataplane.runner.run", |_| {
        for mut pkt in packets {
            std::hint::black_box(runner.run_packet(&mut pkt));
        }
    });
    ctx.set(
        "dataplane.runner.pkt_us",
        t.total_ms("dataplane.runner.run") * 1e3 / 2000.0,
    );
}
