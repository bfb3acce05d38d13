//! The six workloads. Each sets up (several times, so set-up time has
//! a median), then repeats its operation until the run's time budget
//! is spent, timing only the operation. The oracle scores every
//! verdict between operations, outside the timed region.
//!
//! In a traced run operations alternate between the plain form (the
//! exact calls the untraced run times) and the traced form (split at
//! the layer boundaries, spans recorded); per-layer numbers come from
//! the traced form and the ratio of the two is the tracing overhead.

use crate::calib::{Calibrator, Timed};
use crate::inputs::{self, cfg, Audit};
use crate::oracle::{expected, Expect, Oracle, Seen};
use crate::probes;
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use dataplane::{Pipeline, TableDelta};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use verifier::{
    ChurnSession, Fleet, FleetReport, MapMode, Property, Report, ReuseLevel, UpdateReport,
    Verifier, VerifyReport,
};

/// Set-ups per run (their median is `setup_s`): at least the first
/// number, then more until they have taken a second in total, at most
/// the second number — so a 15 ms set-up is sampled as well as a
/// 500 ms one.
const SETUPS: (usize, usize) = (5, 25);
const SETUPS_MS: f64 = 1000.0;
/// Updates in the `churn-tables` stream. The stream is run whole
/// whatever the time budget: step-2 time per update drifts upward
/// along it, so its length is part of the workload.
const TABLES_UPDATES: usize = 1200;
/// Deltas in the `churn-replay` stream: 2500 route flaps, applied
/// round and round until the budget is spent (the table is back at its
/// start after each flap, so the stream has no end state to reach).
const REPLAY_UPDATES: usize = 5000;
/// Updates per determinism-guard block in `churn-replay`.
const REPLAY_BLOCK: usize = 1000;
/// Updates at the head of the `churn-tables` stream that the traced
/// run repeats on a session backed by the on-disk store.
const PERSIST_HEAD: usize = 200;
/// Fleet workers; the host this was sized on has 2 cores.
const FLEET_THREADS: usize = 2;

pub type Counts = BTreeMap<&'static str, u64>;

/// Everything one run of one workload accumulates.
pub struct Ctx {
    pub seed: u64,
    pub budget: Duration,
    /// One pass, short streams, small probes.
    pub smoke: bool,
    pub tracer: Option<Tracer>,
    pub oracle: Oracle,
    /// Scratch directory for on-disk stores, inside the checkout.
    pub work_dir: PathBuf,
    /// Set-up times, seconds, calibrated (see [`crate::calib`]); filled
    /// in when the run is settled, like the two below.
    pub setup_s: Vec<f64>,
    /// Plain-form operation times, ms, calibrated.
    pub op_ms: Vec<f64>,
    /// Traced-form operation times, ms, calibrated (traced run only).
    pub traced_op_ms: Vec<f64>,
    /// The same three as measured.
    setups: Vec<Timed>,
    ops: Vec<Timed>,
    traced_ops: Vec<Timed>,
    /// Per-layer metrics gathered so far.
    pub layer: BTreeMap<&'static str, f64>,
    /// Counters of each pass, plain and traced form apart: the two
    /// forms intern terms in a different order, so their solver
    /// counters need not agree, but passes of one form must.
    counts: [Vec<Counts>; 2],
    /// Counters that differed between passes of one form.
    pub unstable: Vec<String>,
    /// Peak resident set when the workload ended, before the oracle's
    /// deferred fuzzing.
    pub peak_rss_mb: f64,
    /// Ticked after every timed region; see [`crate::calib`].
    pub calib: Calibrator,
    /// When the measured period and the current pass started.
    measuring: Option<(Instant, Instant)>,
}

impl Ctx {
    pub fn new(seed: u64, budget: Duration, smoke: bool, trace: bool, work_dir: PathBuf) -> Self {
        Ctx {
            seed,
            budget,
            smoke,
            tracer: trace.then(Tracer::new),
            oracle: Oracle::new(seed),
            work_dir,
            setup_s: Vec::new(),
            op_ms: Vec::new(),
            traced_op_ms: Vec::new(),
            setups: Vec::new(),
            ops: Vec::new(),
            traced_ops: Vec::new(),
            layer: BTreeMap::new(),
            counts: [Vec::new(), Vec::new()],
            unstable: Vec::new(),
            peak_rss_mb: 0.0,
            calib: Calibrator::new(),
            measuring: None,
        }
    }

    /// Whether to set up once more (see [`SETUPS`]); `least` is the
    /// workload's own minimum.
    fn more_setups(&self, least: usize) -> bool {
        let n = self.setups.len();
        if self.smoke {
            return n < least;
        }
        let spent: f64 = self.setups.iter().map(|r| r.ms).sum();
        n < SETUPS.0.max(least) || (n < SETUPS.1 && spent < SETUPS_MS)
    }

    /// Whether the next operation runs in traced form: in a traced
    /// run, every second one.
    fn traced_turn(&self) -> bool {
        self.tracer.is_some() && self.ops.len() > self.traced_ops.len()
    }

    /// A traced run needs at least one operation of each form.
    fn needs_traced_op(&self) -> bool {
        self.tracer.is_some() && self.traced_ops.is_empty()
    }

    /// Starts the measured period (set-up is over).
    fn start_clock(&mut self) {
        let now = Instant::now();
        self.measuring = Some((now, now));
    }

    /// Call when a pass ends: whether another may start. One may while
    /// the time left is at least half of what the last pass took, so a
    /// run ends within half a pass of its budget, before or after.
    fn another_pass(&mut self) -> bool {
        let now = Instant::now();
        let (since, pass_started) = self.measuring.unwrap_or((now, now));
        self.measuring = Some((since, now));
        !self.smoke && (now - since) + (now - pass_started) / 2 <= self.budget
    }

    /// Records a timed operation and lets the calibrator catch up.
    fn record_op(&mut self, traced: bool, clock: Clock) {
        let region = self.calib.region(clock.start, clock.took);
        if traced {
            self.traced_ops.push(region);
        } else {
            self.ops.push(region);
        }
        self.calib.tick();
    }

    /// Records the set-up that started at `since` and ends now.
    fn record_setup(&mut self, since: Instant) {
        let region = self.calib.region(since, since.elapsed());
        self.setups.push(region);
        self.calib.tick();
    }

    /// Raw median operation time, for the printed summary.
    pub fn raw_op_p50_ms(&self) -> f64 {
        let raw: Vec<f64> = self.ops.iter().map(|r| r.ms).collect();
        if raw.is_empty() {
            0.0
        } else {
            median(&raw)
        }
    }

    /// Calibrates every timed region, now that the slices on both
    /// sides of each exist.
    fn settle_times(&mut self) {
        let cal = |regions: &[Timed]| -> Vec<f64> {
            regions
                .iter()
                .map(|&r| self.calib.calibrated_ms(r))
                .collect()
        };
        self.op_ms = cal(&self.ops);
        self.traced_op_ms = cal(&self.traced_ops);
        self.setup_s = cal(&self.setups).iter().map(|ms| ms / 1e3).collect();
    }

    fn record_counts(&mut self, traced: bool, counts: Counts) {
        self.counts[usize::from(traced)].push(counts);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(crate::metrics::layer(name).is_some(), "{name}");
        self.layer.insert(name, value);
    }

    /// The determinism guard: a counter enters the per-layer metrics
    /// with the value of the last pass (of the traced form when there
    /// is one), and is listed as unstable if any pass of the same form
    /// disagreed.
    fn settle_counts(&mut self) {
        for form in &self.counts {
            let Some(last) = form.last() else { continue };
            for (&name, &value) in last {
                if form.iter().any(|pass| pass.get(name) != Some(&value)) {
                    let seen: Vec<u64> = form.iter().filter_map(|p| p.get(name).copied()).collect();
                    self.unstable.push(format!("{name}: {seen:?}"));
                }
            }
        }
        let [plain, traced] = &self.counts;
        if let Some(counts) = traced.last().or(plain.last()).cloned() {
            let get = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
            let share = |part: f64, rest: f64| {
                if part + rest == 0.0 {
                    0.0
                } else {
                    part / (part + rest)
                }
            };
            // Feasibility checks the core store answered instead of
            // the solver, and constraints found already blasted.
            let cores = share(get("verifier.cores.hits"), get("bvsolve.queries"));
            let blast = share(get(BLAST_HITS), get(BLAST_MISSES));
            self.set("verifier.cores.hit_ratio", cores);
            self.set("bvsolve.blast_cache_hit_ratio", blast);
            for (name, value) in counts {
                if crate::metrics::layer(name).is_some() {
                    self.layer.insert(name, value as f64);
                }
            }
        }
        self.unstable.sort();
        self.unstable.dedup();
        let n = self.unstable.len() as f64;
        self.set("determinism.unstable_counters", n);
    }

    /// Step times of the traced-form operations, from their spans.
    fn settle_spans(&mut self) {
        let Some(t) = &self.tracer else { return };
        let ops = self.traced_ops.len().max(1) as f64;
        let (s1, s2) = (t.total_ms("verifier.step1"), t.total_ms("verifier.step2"));
        let own = t.self_ms("op");
        self.set("verifier.step1_ms", s1 / ops);
        self.set("verifier.step2_ms", s2 / ops);
        self.set("verifier.session.self_ms", own / ops);
        if s1 + s2 > 0.0 {
            self.set("verifier.step1_share", s1 / (s1 + s2));
        }
        if !self.op_ms.is_empty() && !self.traced_op_ms.is_empty() {
            let ratio = mean(&self.traced_op_ms) / mean(&self.op_ms);
            self.set("trace.overhead_ratio", ratio);
        }
    }
}

/// When a timed region started and how long it took.
#[derive(Debug, Clone, Copy)]
struct Clock {
    start: Instant,
    took: Duration,
}

impl Clock {
    fn ms(&self) -> f64 {
        self.took.as_secs_f64() * 1e3
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Clock) {
    let start = Instant::now();
    let out = f();
    let took = start.elapsed();
    (out, Clock { start, took })
}

// Raw counters kept for ratios only; not metrics themselves.
const BLAST_HITS: &str = "_blast_cache_hits";
const BLAST_MISSES: &str = "_blast_cache_misses";

fn add(counts: &mut Counts, name: &'static str, n: u64) {
    *counts.entry(name).or_insert(0) += n;
}

/// Adds one search report's step-2, solver and core counters.
fn count_report(counts: &mut Counts, r: &VerifyReport) {
    add(
        counts,
        "verifier.step2.composed_paths",
        r.composed_paths as u64,
    );
    add(counts, "verifier.step2.suspects", r.suspects as u64);
    add(counts, "verifier.cores.learned", r.cores.cores_learned);
    add(counts, "verifier.cores.hits", r.cores.core_hits);
    add(
        counts,
        "verifier.cores.subtrees_pruned",
        r.cores.subtrees_pruned,
    );
    let s = &r.solver;
    add(counts, "bvsolve.queries", s.queries);
    add(counts, "bvsolve.by_simplify", s.by_simplify);
    add(counts, "bvsolve.by_interval", s.by_interval);
    add(counts, "bvsolve.by_blast", s.by_blast);
    add(counts, "bvsolve.learnt_reused", s.learnt_reused);
    add(counts, "bvsolve.compactions", s.compactions);
    add(counts, BLAST_HITS, s.blast_cache_hits);
    add(counts, BLAST_MISSES, s.blast_cache_misses);
    add(counts, "bitsat.sat_solve_calls", s.sat_solve_calls);
    add(counts, "bitsat.decisions", s.decisions);
    add(counts, "bitsat.propagations", s.propagations);
}

// ---------------------------------------------------------------------------
// Audits: paper-cold, prove-cdcl, prove-cores
// ---------------------------------------------------------------------------

/// The map modes an audit's properties need, in the order a session
/// builds them.
fn modes(props: &[Property]) -> Vec<MapMode> {
    let tables = |p: &Property| matches!(p, Property::Filter(_));
    let mut out = Vec::new();
    if props.iter().any(|p| !tables(p)) {
        out.push(MapMode::Abstract);
    }
    if props.iter().any(tables) {
        out.push(MapMode::Tables);
    }
    out
}

/// The product path: a fresh session, every property.
fn audit_plain(a: &Audit) -> Vec<Report> {
    Verifier::new(&a.pipeline).config(cfg()).check_all(&a.props)
}

/// The same audit split at the step boundary.
fn audit_traced(a: &Audit, t: &mut Tracer) -> Vec<Report> {
    let mut v = Verifier::new(&a.pipeline).config(cfg());
    t.span("verifier.step1", |_| {
        for mode in modes(&a.props) {
            // A step-1 abort resurfaces in the reports below.
            let _ = v.summaries(mode);
        }
    });
    t.span("verifier.step2", |_| v.check_all(&a.props))
}

/// One pass over `set`, timed as one operation, then judged.
fn audit_pass(ctx: &mut Ctx, set: &[Audit]) {
    let traced = ctx.traced_turn();
    let (reports, clock): (Vec<Vec<Report>>, Clock) = match (&mut ctx.tracer, traced) {
        (Some(t), true) => {
            t.next_op();
            timed(|| t.span("op", |t| set.iter().map(|a| audit_traced(a, t)).collect()))
        }
        _ => timed(|| set.iter().map(audit_plain).collect()),
    };
    ctx.record_op(traced, clock);
    let mut counts = Counts::new();
    for (a, reports) in set.iter().zip(&reports) {
        ctx.oracle
            .judge(a.name, &a.pipeline, &a.props, reports, expected(a.name));
        for r in reports.iter().filter_map(Report::as_verify) {
            count_report(&mut counts, r);
        }
    }
    ctx.record_counts(traced, counts);
}

/// An audit workload: `build` makes the set; set-up is building it
/// plus a warm-up (a whole pass when `warm_whole`, step 1 alone when a
/// pass is too long to repeat untimed).
fn audits(ctx: &mut Ctx, build: fn() -> Vec<Audit>, warm_whole: bool) {
    let mut set = Vec::new();
    while ctx.more_setups(1) {
        let t0 = Instant::now();
        set = build();
        for a in &set {
            if warm_whole {
                audit_plain(a);
            } else {
                let _ = Verifier::new(&a.pipeline)
                    .config(cfg())
                    .summaries(MapMode::Abstract);
            }
        }
        ctx.record_setup(t0);
    }
    ctx.start_clock();
    loop {
        audit_pass(ctx, &set);
        if !ctx.another_pass() && !ctx.needs_traced_op() {
            break;
        }
    }
    if ctx.tracer.is_some() {
        let tables = set
            .iter()
            .any(|a| modes(&a.props).contains(&MapMode::Tables));
        let pipelines: Vec<&Pipeline> = set.iter().map(|a| &a.pipeline).collect();
        probes::run(ctx, &pipelines, tables, None);
    }
}

// ---------------------------------------------------------------------------
// fleet
// ---------------------------------------------------------------------------

fn fresh_dir(ctx: &Ctx, name: &str) -> PathBuf {
    let dir = ctx.work_dir.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work dir is writable");
    dir
}

/// Never more workers than the host has cores.
fn fleet_workers() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    FLEET_THREADS.min(cores)
}

/// A new fleet object (and store object) over the on-disk store.
fn open_fleet(variants: &[(String, Pipeline)], dir: &Path) -> Fleet {
    variants
        .iter()
        .fold(
            Fleet::new().config(cfg()).threads(fleet_workers()),
            |f, (name, p)| f.variant(name.clone(), p.clone()),
        )
        .properties(&inputs::fleet_props())
        .with_store_path(dir)
        .expect("store directory opens")
}

fn judge_fleet(ctx: &mut Ctx, variants: &[(String, Pipeline)], report: &FleetReport) {
    let props = inputs::fleet_props();
    for ((name, pipeline), v) in variants.iter().zip(&report.variants) {
        let row = if name == "staging" {
            "fleet-staging"
        } else {
            "fleet-fib"
        };
        ctx.oracle
            .judge(name, pipeline, &props, &v.reports, expected(row));
    }
}

/// Per pass: a cold audit into an empty store directory (the set-up:
/// it executes every stage and writes it), then the operation — the
/// same audit from a new `Fleet` and store object over the now
/// populated directory, which loads everything and executes nothing.
fn fleet(ctx: &mut Ctx) {
    let variants = inputs::fleet_variants(ctx.seed);
    ctx.start_clock();
    let mut cold_ms = Vec::new();
    for pass in 0.. {
        let dir = fresh_dir(ctx, &format!("fleet-{pass}"));
        let t0 = Instant::now();
        let cold = open_fleet(&variants, &dir).run();
        cold_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        ctx.record_setup(t0);

        let traced = ctx.traced_turn();
        let (warm, clock) = match (&mut ctx.tracer, traced) {
            (Some(t), true) => {
                t.next_op();
                timed(|| {
                    t.span("op", |t| {
                        let f = t.span("verifier.fleet.open", |_| open_fleet(&variants, &dir));
                        t.span("verifier.fleet.run", |_| f.run())
                    })
                })
            }
            _ => timed(|| open_fleet(&variants, &dir).run()),
        };
        ctx.record_op(traced, clock);
        let _ = std::fs::remove_dir_all(&dir);

        judge_fleet(ctx, &variants, &cold);
        judge_fleet(ctx, &variants, &warm);
        let mut counts = Counts::new();
        for r in warm
            .variants
            .iter()
            .flat_map(|v| &v.reports)
            .filter_map(Report::as_verify)
        {
            count_report(&mut counts, r);
        }
        add(
            &mut counts,
            "verifier.fleet.summary_hits",
            warm.summary_hits,
        );
        add(
            &mut counts,
            "verifier.fleet.summary_misses",
            warm.summary_misses,
        );
        add(&mut counts, "verifier.fleet.store_loads", warm.store_loads);
        add(
            &mut counts,
            "verifier.fleet.store_writes",
            cold.store_writes,
        );
        add(
            &mut counts,
            "verifier.fleet.write_errors",
            cold.summary_misses.saturating_sub(cold.store_writes),
        );
        ctx.record_counts(traced, counts);

        if traced {
            let (s1, s2) = (warm.step1_time(), warm.step2_time());
            let busy = (s1 + s2).as_secs_f64() * 1e3;
            let workers = fleet_workers() as f64;
            ctx.set("verifier.fleet.step1_cpu_ms", s1.as_secs_f64() * 1e3);
            ctx.set("verifier.fleet.step2_cpu_ms", s2.as_secs_f64() * 1e3);
            ctx.set(
                "verifier.fleet.worker_efficiency",
                busy / (workers * clock.ms()),
            );
        }
        if !ctx.another_pass() && !ctx.needs_traced_op() {
            break;
        }
    }
    if ctx.tracer.is_some() {
        ctx.set("verifier.fleet.cold_audit_ms", median(&cold_ms));
        let pipelines: Vec<&Pipeline> = variants.iter().map(|(_, p)| p).collect();
        probes::run(ctx, &pipelines, false, None);
    }
}

// ---------------------------------------------------------------------------
// churn-tables
// ---------------------------------------------------------------------------

fn churn_session(audit: &Audit) -> ChurnSession {
    ChurnSession::new(
        audit.pipeline.clone(),
        audit.props.clone(),
        cfg(),
        ReuseLevel::Sessions,
    )
    .expect("search-based properties only")
}

/// Scores one update of the firewalled edge: crash-freedom and
/// bounded-execution hold, filtering holds exactly while the watched
/// source is blacklisted — and when it does not, the counterexample
/// must get through the firewall as configured right now.
fn judge_tables_update(
    oracle: &mut Oracle,
    props: &[Property],
    pipeline: &Pipeline,
    update: &UpdateReport,
    watched_in: bool,
    fuzz: bool,
) {
    let filtering = if watched_in {
        Expect::Proved
    } else {
        Expect::Delivers(inputs::WATCHED_SRC)
    };
    let expect = [Expect::Proved, Expect::Proved, filtering];
    if update.reports.len() != expect.len() {
        oracle.fail("churn-tables", format!("{} reports", update.reports.len()));
        return;
    }
    for (i, (r, want)) in update.reports.iter().zip(expect).enumerate() {
        // The two table-blind proofs are fuzzed once; the filtering
        // proof below, against every configuration it is given for.
        let fuzz_key = (fuzz && i < 2).then_some(("firewalled-edge", i));
        let what = format!("update {} / {:?}", update.update, props[i]);
        oracle.judge_one(&what, pipeline, &props[i], Seen::from(r), want, fuzz_key);
    }
    if watched_in && update.reports[2].verdict.is_proved() {
        if let Err(why) = crate::oracle::fuzz_filtered(pipeline, inputs::WATCHED_SRC) {
            oracle.fail(&format!("update {} / filtering", update.update), why);
        }
    }
}

/// Closed loop, one client: each config push waits for its verdicts.
///
/// Set-up is bringing a session up over its on-disk store: the first
/// time cold (empty directory), then as a restarted daemon would, so
/// the median is a warm restart. The stream itself runs on a session
/// without a store directory: persisting rewrites the whole learnt-core
/// pack whenever the tables move, which would double the time per
/// update and measure the disk (`verifier.churn.persist_ratio` in the
/// traced run says by how much).
fn churn_tables(ctx: &mut Ctx) {
    let n = if ctx.smoke { 100 } else { TABLES_UPDATES };
    let dir = fresh_dir(ctx, "churn-tables");
    let mut bring_ups = Vec::new();
    while ctx.more_setups(2) {
        let t0 = Instant::now();
        let audit = inputs::firewalled_edge();
        let mut session = churn_session(&audit)
            .with_store_path(&dir)
            .expect("store directory opens");
        let first = session.verify();
        bring_ups.push(t0.elapsed().as_secs_f64() * 1e3);
        ctx.record_setup(t0);
        judge_tables_update(
            &mut ctx.oracle,
            &audit.props,
            session.pipeline(),
            &first,
            true,
            false,
        );
    }
    let audit = inputs::firewalled_edge();
    let stream = inputs::tables_stream(ctx.seed, n);
    let grown = (
        stream.max_len.0 - stream.init_len.0,
        stream.max_len.1 - stream.init_len.1,
    );
    if grown.0.max(grown.1) > inputs::TABLE_SLACK {
        ctx.oracle.fail(
            "churn-tables",
            format!("stream is not stationary: tables grew by {grown:?}"),
        );
    }

    // The whole stream, on a fresh session each time, until the budget
    // is spent (once, on the sizing host).
    ctx.start_clock();
    let mut first_stream = None;
    loop {
        let mut session = churn_session(&audit);
        let first = session.verify();
        let fuzz = first_stream.is_none();
        judge_tables_update(
            &mut ctx.oracle,
            &audit.props,
            session.pipeline(),
            &first,
            true,
            fuzz,
        );
        let updates = tables_stream_pass(ctx, &audit, &stream, &mut session);
        first_stream.get_or_insert(updates);
        if !ctx.another_pass() {
            break;
        }
    }

    if ctx.tracer.is_some() {
        let updates = first_stream.expect("one stream ran");
        churn_layer_metrics(ctx, &updates);
        ctx.set("verifier.churn.cold_verify_ms", bring_ups[0]);
        ctx.set("verifier.churn.restart_p50_ms", median(&bring_ups[1..]));
        // Bursts of 8 through `apply_batch`, on a second session.
        let mut batched = churn_session(&audit);
        batched.verify();
        let batch_ms: Vec<f64> = stream
            .deltas
            .chunks(8)
            .map(|burst| timed(|| batched.apply_batch(burst).is_ok()).1.ms())
            .collect();
        ctx.set("verifier.churn.batch8_p50_ms", median(&batch_ms));
        // The head of the stream again on a session that persists.
        let head = PERSIST_HEAD.min(updates.len());
        let mut stored = churn_session(&audit)
            .with_store_path(fresh_dir(ctx, "churn-tables-persist"))
            .expect("store directory opens");
        stored.verify();
        let stored_ms: f64 = stream.deltas[..head]
            .iter()
            .map(|d| timed(|| stored.apply_delta(d).is_ok()).1.ms())
            .sum();
        let memory_ms: f64 = updates[..head].iter().map(|u| u.total).sum();
        ctx.set("verifier.churn.persist_ratio", stored_ms / memory_ms);
        probes::run(ctx, &[&audit.pipeline], true, Some(&stream.deltas));
    }
}

/// One update as measured and as its own report splits it, raw ms.
#[derive(Debug, Clone, Copy)]
struct UpdateTimes {
    total: f64,
    step1: f64,
    step2: f64,
}

impl UpdateTimes {
    fn of(total: f64, u: &UpdateReport) -> Self {
        UpdateTimes {
            total,
            step1: u.step1_time.as_secs_f64() * 1e3,
            step2: u.step2_time.as_secs_f64() * 1e3,
        }
    }
}

/// Pushes the whole stream through `session`, one timed `apply_delta`
/// per update, and records the pass's counters. Returns each update's
/// times (not its report: what stays allocated between operations
/// moves their time).
fn tables_stream_pass(
    ctx: &mut Ctx,
    audit: &Audit,
    stream: &inputs::TablesStream,
    session: &mut ChurnSession,
) -> Vec<UpdateTimes> {
    let mut updates = Vec::with_capacity(stream.deltas.len());
    let mut counts = Counts::new();
    for (d, &watched_in) in stream.deltas.iter().zip(&stream.watched_in) {
        let traced = ctx.traced_turn();
        let (result, clock) = match (&mut ctx.tracer, traced) {
            (Some(t), true) => {
                t.next_op();
                timed(|| {
                    t.span("op", |t| {
                        let r = session.apply_delta(d);
                        if let Ok(u) = &r {
                            let us = |d: Duration| d.as_secs_f64() * 1e6;
                            t.add_reported(
                                t.open_start_us(),
                                &[
                                    ("verifier.step1", us(u.step1_time)),
                                    ("verifier.step2", us(u.step2_time)),
                                ],
                            );
                        }
                        r
                    })
                })
            }
            _ => timed(|| session.apply_delta(d)),
        };
        ctx.record_op(traced, clock);
        match result {
            Ok(u) => {
                let pipeline = session.pipeline();
                judge_tables_update(
                    &mut ctx.oracle,
                    &audit.props,
                    pipeline,
                    &u,
                    watched_in,
                    false,
                );
                for (r, _) in u.reports.iter().zip(&u.replayed).filter(|(_, &re)| !re) {
                    count_report(&mut counts, r);
                }
                updates.push(UpdateTimes::of(clock.ms(), &u));
            }
            Err(e) => ctx
                .oracle
                .fail("churn-tables", format!("delta rejected: {e}")),
        }
    }
    let stats = session.stats();
    add(
        &mut counts,
        "verifier.churn.stages_reexecuted",
        stats.stages_reexecuted,
    );
    add(
        &mut counts,
        "verifier.churn.stages_rebased",
        stats.stages_rebased,
    );
    add(
        &mut counts,
        "verifier.churn.checks_replayed",
        stats.checks_replayed,
    );
    ctx.record_counts(ctx.tracer.is_some(), counts);
    updates
}

/// Stream-wide latency metrics. The drift compares means, not
/// medians: updates cost from microseconds (a replayed no-op) to tens
/// of milliseconds, and which kind a tenth's median falls on is luck.
fn churn_layer_metrics(ctx: &mut Ctx, updates: &[UpdateTimes]) {
    if updates.is_empty() {
        return;
    }
    let column = |f: fn(&UpdateTimes) -> f64| updates.iter().map(f).collect::<Vec<f64>>();
    let all = column(|u| u.total);
    let tenth = (all.len() / 10).max(1);
    ctx.set("verifier.churn.step1_ms_mean", mean(&column(|u| u.step1)));
    ctx.set("verifier.churn.step2_ms_mean", mean(&column(|u| u.step2)));
    ctx.set("verifier.churn.update_p99_ms", percentile(&all, 99.0));
    ctx.set(
        "verifier.churn.drift_ratio",
        mean(&all[all.len() - tenth..]) / mean(&all[..tenth]),
    );
}

// ---------------------------------------------------------------------------
// churn-replay
// ---------------------------------------------------------------------------

/// Table-blind churn: Abstract-mode keys ignore the FIB, so every
/// update should replay both verdicts without executing a stage or
/// asking the solver anything.
///
/// The operation is one route flap — a /24 announced, then withdrawn,
/// two `apply_delta` calls — and not one delta: the two halves cost
/// differently, and the median of single deltas would sit on the edge
/// between the two clusters.
fn churn_replay(ctx: &mut Ctx) {
    let n = if ctx.smoke { 100 } else { REPLAY_UPDATES };
    let audit = inputs::core_router_audit();
    let stream = inputs::replay_stream(ctx.seed, n);
    // The first five set-ups' sessions are kept and the flaps rotate
    // over them: where a session's tables land in memory moves its
    // flap time by up to 30 % for the life of the process, and five
    // sessions average that luck out.
    let mut sessions = Vec::new();
    while ctx.more_setups(1) {
        let t0 = Instant::now();
        let audit = inputs::core_router_audit();
        let mut session = churn_session(&audit);
        let first = session.verify();
        ctx.record_setup(t0);
        let want = expected(audit.name);
        ctx.oracle.judge(
            audit.name,
            &audit.pipeline,
            &audit.props,
            &first.reports,
            want,
        );
        if sessions.len() < SETUPS.0 {
            sessions.push(session);
        }
    }
    let want = expected(audit.name);
    let flaps: Vec<&[TableDelta]> = stream.chunks_exact(2).collect();
    let block = (REPLAY_BLOCK / 2).min(flaps.len());

    ctx.start_clock();
    let mut updates = Vec::with_capacity(if ctx.tracer.is_some() { n } else { 0 });
    let mut counts = Counts::new();
    let mut stats0 = sessions[0].stats();
    for (i, flap) in flaps.iter().cycle().enumerate() {
        if i >= flaps.len() && !ctx.another_pass() {
            break;
        }
        let turn = (i / block) % sessions.len();
        let session = &mut sessions[turn];
        let traced = ctx.traced_turn();
        let mut both = || [session.apply_delta(&flap[0]), session.apply_delta(&flap[1])];
        let (results, clock) = match (&mut ctx.tracer, traced) {
            (Some(t), true) => {
                t.next_op();
                timed(|| t.span("op", |_| both()))
            }
            _ => timed(both),
        };
        ctx.record_op(traced, clock);
        for result in results {
            let u = match result {
                Ok(u) => u,
                Err(e) => {
                    ctx.oracle
                        .fail("churn-replay", format!("delta rejected: {e}"));
                    continue;
                }
            };
            for (k, r) in u.reports.iter().enumerate() {
                let what = format!("update {} / {:?}", u.update, audit.props[k]);
                let seen = Seen::from(r);
                ctx.oracle.judge_one(
                    &what,
                    session.pipeline(),
                    &audit.props[k],
                    seen,
                    want[k],
                    None,
                );
                if !u.replayed[k] {
                    count_report(&mut counts, r);
                }
            }
            if ctx.tracer.is_some() && updates.len() < n {
                updates.push(UpdateTimes::of(clock.ms() / 2.0, &u));
            }
        }
        // The determinism guard compares blocks of flaps; the next
        // block goes to the next session.
        if (i + 1) % block == 0 {
            let stats = session.stats();
            let mut counts = std::mem::take(&mut counts);
            let moved = [
                (
                    "verifier.churn.stages_reexecuted",
                    stats.stages_reexecuted - stats0.stages_reexecuted,
                ),
                (
                    "verifier.churn.stages_rebased",
                    stats.stages_rebased - stats0.stages_rebased,
                ),
                (
                    "verifier.churn.checks_replayed",
                    stats.checks_replayed - stats0.checks_replayed,
                ),
                // Explicit zeros for a block with no solver work.
                ("bitsat.sat_solve_calls", 0),
                ("bvsolve.queries", 0),
            ];
            for (name, by) in moved {
                add(&mut counts, name, by);
            }
            stats0 = sessions[(turn + 1) % sessions.len()].stats();
            ctx.record_counts(ctx.tracer.is_some(), counts);
        }
    }
    if ctx.tracer.is_some() {
        churn_layer_metrics(ctx, &updates);
        probes::run(ctx, &[&audit.pipeline], false, Some(&stream));
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run(name: &str, ctx: &mut Ctx) -> bool {
    match name {
        "paper-cold" => audits(ctx, inputs::paper_set, true),
        "prove-cdcl" => audits(ctx, || vec![inputs::fixed_frag_prove()], false),
        "prove-cores" => audits(ctx, || vec![inputs::opt_frag_prove()], false),
        "fleet" => fleet(ctx),
        "churn-tables" => churn_tables(ctx),
        "churn-replay" => churn_replay(ctx),
        _ => return false,
    }
    ctx.peak_rss_mb = peak_rss_mb();
    ctx.oracle.finish();
    ctx.settle_times();
    ctx.settle_spans();
    ctx.settle_counts();
    true
}
