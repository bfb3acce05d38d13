//! `churn` — the config-update-stream ablation: per-update
//! re-verification latency under control-plane churn, the warm
//! [`ChurnSession`] against its from-scratch oracle ([`ReuseLevel`]).
//!
//! Each scenario drives one seedable [`delta_stream`] (inserts,
//! removes, overwrites, no-ops and whole-table replaces against the
//! pipeline's exact-match and LPM tables) through two
//! [`ChurnSession`]s — full re-verification, and the warm session
//! (summary store, persistent pool, learnt cores, incremental solver
//! sessions, replay) — re-establishing the scenario's properties
//! (crash-freedom and bounded-execution in Abstract mode, filtering in
//! Tables mode) after **every** update.
//!
//! Correctness is asserted continuously, not sampled: on every update
//! the warm arm must match the full-reverify baseline on verdict,
//! counterexample bytes/description/trace, and composed-path count.
//! The interesting output is the per-update latency distribution —
//! under a latency budget (gate config pushes on a verdict), the p99,
//! not the mean, decides whether verification keeps up with the
//! control plane's update interval. With `DPV_JSON=1` one summary
//! line per (scenario, arm) is emitted carrying mean/p50/p99
//! per-update latency plus the reuse counters.
//!
//! The headline number this reproduction targets: on a ≥100-update
//! Tables-mode stream, the warm session must re-verify ≥5x faster per
//! update (mean step-1 + step-2) than re-verifying from scratch —
//! asserted at the bottom of the run.

use dpv_bench::gen::delta_stream;
use dpv_bench::{fig_verify_config, fmt_dur, row};
use elements::pipelines::{edge_fib, ip_router, to_pipeline, ROUTER_IP};
use std::time::Duration;
use verifier::{
    ChurnSession, FilterProperty, Property, ReuseLevel, UpdateReport, Verdict, VerifyConfig,
};

struct Scenario {
    name: &'static str,
    pipeline: dataplane::Pipeline,
    props: Vec<Property>,
    updates: usize,
    /// Enforce the headline ≥5x mean step-1+step-2 speedup
    /// (incremental-session vs full-reverify) on this stream.
    assert_speedup: bool,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        // The headline stream: the Fig. 4(a) edge router carrying the
        // §5.2 firewall (exact-match blacklist + LPM FIB — both table
        // kinds churn), re-establishing all three paper properties
        // after every update. This is the production shape: a config
        // push must not regress crash-freedom or the instruction
        // budget either, so the full-reverify arm pays two Abstract
        // searches plus the Tables one per update while the warm arm
        // replays everything the delta provably cannot touch.
        Scenario {
            name: "firewalled-edge-churn",
            pipeline: to_pipeline(
                "firewalled-edge",
                vec![
                    elements::classifier::classifier(),
                    elements::check_ip_header::check_ip_header(false),
                    elements::ip_filter::ip_filter(vec![0x0BAD_0001, 0x0BAD_0010]),
                    elements::dec_ttl::dec_ttl(),
                    elements::ip_options::ip_options(1, Some(ROUTER_IP)),
                    elements::ip_lookup::ip_lookup(4, edge_fib()),
                ],
            ),
            props: vec![
                Property::CrashFreedom,
                Property::Bounded { imax: 5_000 },
                Property::Filter(FilterProperty::src(0x0BAD_0001)),
            ],
            updates: 120,
            assert_speedup: true,
        },
        // The stock Fig. 4(a) edge router under Abstract-only
        // properties: FIB churn is *table-blind* here, so the warm
        // arm replays every check — the per-update floor of the
        // approach (delta application + key check, microseconds).
        Scenario {
            name: "edge-router-churn",
            pipeline: to_pipeline("edge-router", ip_router(7, 1, edge_fib())),
            props: vec![Property::CrashFreedom, Property::Bounded { imax: 5_000 }],
            updates: 40,
            assert_speedup: false,
        },
    ]
}

fn cfg() -> VerifyConfig {
    fig_verify_config()
}

const ARMS: [ReuseLevel; 2] = [ReuseLevel::FullReverify, ReuseLevel::Sessions];

struct ArmRun {
    level: ReuseLevel,
    /// Initial verification, then one report per update.
    updates: Vec<UpdateReport>,
    stats: verifier::ChurnStats,
}

fn run_arm(s: &Scenario, level: ReuseLevel) -> ArmRun {
    let deltas = delta_stream(0xC0FFEE ^ s.updates as u64, &s.pipeline, s.updates);
    let mut session = ChurnSession::new(s.pipeline.clone(), s.props.clone(), cfg(), level)
        .expect("search-based properties only");
    let mut updates = vec![session.verify()];
    for d in &deltas {
        updates.push(session.apply_delta(d).expect("generated deltas are valid"));
    }
    ArmRun {
        level,
        updates,
        stats: session.stats(),
    }
}

type CexPayload = (Vec<u8>, String, Vec<(usize, usize)>);

fn cex_of(v: &Verdict) -> Option<CexPayload> {
    match v {
        Verdict::Disproved(c) => Some((c.bytes.clone(), c.description.clone(), c.trace.clone())),
        _ => None,
    }
}

/// Every update of the warm arm must match the baseline exactly.
fn assert_stream_equal(name: &str, baseline: &ArmRun, warm: &ArmRun) {
    assert_eq!(baseline.updates.len(), warm.updates.len());
    for (u, (b, w)) in baseline.updates.iter().zip(&warm.updates).enumerate() {
        for (br, wr) in b.reports.iter().zip(&w.reports) {
            let what = format!("{name} update {u} {:?} [{}]", warm.level, br.property);
            assert_eq!(
                br.verdict.label(),
                wr.verdict.label(),
                "{what}: verdict diverged"
            );
            assert_eq!(
                cex_of(&br.verdict),
                cex_of(&wr.verdict),
                "{what}: counterexample diverged"
            );
            assert_eq!(
                br.composed_paths, wr.composed_paths,
                "{what}: composed_paths diverged"
            );
        }
    }
}

/// Per-update verification latencies (step 1 + step 2; the initial
/// full verification is excluded — it is the same work in every arm).
fn verify_latencies(run: &ArmRun) -> Vec<Duration> {
    run.updates[1..]
        .iter()
        .map(|u| u.step1_time + u.step2_time)
        .collect()
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

struct Dist {
    mean: Duration,
    p50: Duration,
    p99: Duration,
    total_step1: Duration,
    total_step2: Duration,
}

fn dist_of(run: &ArmRun) -> Dist {
    let mut lats = verify_latencies(run);
    let mean = lats.iter().sum::<Duration>() / lats.len() as u32;
    lats.sort_unstable();
    Dist {
        mean,
        p50: percentile(&lats, 0.50),
        p99: percentile(&lats, 0.99),
        total_step1: run.updates[1..].iter().map(|u| u.step1_time).sum(),
        total_step2: run.updates[1..].iter().map(|u| u.step2_time).sum(),
    }
}

/// Speedup of an arm over full re-verification — `None` when the arm's
/// mean update is under 1 µs: a pure-replay arm does no measurable
/// verification work, so the ratio is a timer-floor artifact, not a
/// number (the table prints `n/a`, the JSON row `null`).
fn speedup_vs_full(full_mean: Duration, mean: Duration) -> Option<f64> {
    (mean >= Duration::from_micros(1)).then(|| full_mean.as_secs_f64() / mean.as_secs_f64())
}

fn emit_json(s: &Scenario, run: &ArmRun, d: &Dist, speedup: Option<f64>) {
    if std::env::var_os("DPV_JSON").is_none() {
        return;
    }
    let speedup = speedup.map_or("null".to_string(), |x| format!("{x:.2}"));
    println!(
        "{{\"bench\":\"churn\",\"pipeline\":\"{}\",\"mode\":\"{}\",\"engine\":\"seq\",\
         \"updates\":{},\"step1_ms\":{:.3},\"step2_ms\":{:.3},\
         \"mean_update_ms\":{:.3},\"p50_update_ms\":{:.3},\"p99_update_ms\":{:.3},\
         \"speedup_vs_full\":{},\"stages_reexecuted\":{},\"stages_rebased\":{},\
         \"checks_replayed\":{}}}",
        s.name,
        run.level.arm(),
        s.updates,
        d.total_step1.as_secs_f64() * 1e3,
        d.total_step2.as_secs_f64() * 1e3,
        d.mean.as_secs_f64() * 1e3,
        d.p50.as_secs_f64() * 1e3,
        d.p99.as_secs_f64() * 1e3,
        speedup,
        run.stats.stages_reexecuted,
        run.stats.stages_rebased,
        run.stats.checks_replayed,
    );
}

fn main() {
    println!("Config-update-stream ablation: per-update re-verification latency");
    println!();
    row(&[
        "stream".into(),
        "arm".into(),
        "mean/update".into(),
        "p50".into(),
        "p99".into(),
        "step1 total".into(),
        "step2 total".into(),
        "reexec".into(),
        "rebased".into(),
        "replayed".into(),
        "speedup".into(),
    ]);

    for s in scenarios() {
        let runs: Vec<ArmRun> = ARMS.iter().map(|&lvl| run_arm(&s, lvl)).collect();
        for warm in &runs[1..] {
            assert_stream_equal(s.name, &runs[0], warm);
        }
        let full_mean = dist_of(&runs[0]).mean;
        for run in &runs {
            let d = dist_of(run);
            let speedup = speedup_vs_full(full_mean, d.mean);
            row(&[
                s.name.into(),
                run.level.arm().into(),
                fmt_dur(d.mean),
                fmt_dur(d.p50),
                fmt_dur(d.p99),
                fmt_dur(d.total_step1),
                fmt_dur(d.total_step2),
                run.stats.stages_reexecuted.to_string(),
                run.stats.stages_rebased.to_string(),
                run.stats.checks_replayed.to_string(),
                speedup.map_or("n/a".into(), |x| format!("{x:.2}x")),
            ]);
            emit_json(&s, run, &d, speedup);
            if s.assert_speedup && run.level == ReuseLevel::Sessions {
                assert!(
                    speedup.is_none_or(|x| x >= 5.0),
                    "{}: incremental-session must re-verify >=5x faster per update \
                     than full reverification, got {speedup:?}",
                    s.name
                );
            }
        }
        println!();
    }
    println!("verdicts, counterexample bytes and composed paths: identical across arms on every update (asserted)");
}
