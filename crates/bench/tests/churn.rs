//! Churn-vs-fresh differential: a warm [`ChurnSession`] must track
//! full re-verification exactly, update by update.
//!
//! Each [`Scenario`] drives a seedable [`delta_stream`] through one
//! warm session over a table-bearing pipeline (IPFilter exact table
//! and/or IPlookup LPM FIB), checking Abstract properties
//! (crash-freedom, bounded execution) and the Tables one (filtering).
//! After the initial verification and after **every** update, the
//! session must agree with a fresh [`Verifier`] over its pipeline as
//! it stands then, on:
//!
//! * verdict labels per property (streams deliberately add and remove
//!   blacklist entries, so the filtering verdict genuinely flips
//!   mid-stream);
//! * counterexample bytes, description and trace, byte-for-byte (the
//!   warm session re-extracts models on patched persistent pools — the
//!   bytes must not care);
//! * `composed_paths` per property (core reuse only skips would-be-
//!   UNSAT solver calls, never compositions; replayed reports carry
//!   the counts a real search would have produced).
//!
//! `churn_smoke` keeps debug tier-1 quick; `churn_differential_full`
//! is the paper-scale matrix (20 streams × 12 updates, then long
//! streams over the two `dpv-serve` workloads with their reuse counts)
//! and runs in release via
//! `cargo test --release -p dpv-bench -- --ignored`.

use dataplane::Pipeline;
use dpv_bench::gen::delta_stream;
use dpv_bench::{assert_identical_reports, fig_verify_config, named_workload};
use elements::pipelines::{edge_fib, to_pipeline};
use verifier::{
    ChurnSession, ChurnStats, FilterProperty, Property, Report, ReuseLevel, Verifier, VerifyReport,
};

/// One update stream: a pipeline, the properties re-established after
/// every update, and the [`delta_stream`] seed and length.
struct Scenario {
    name: String,
    pipeline: Pipeline,
    props: Vec<Property>,
    seed: u64,
    updates: usize,
}

/// A street-corner router with both table kinds — an exact-match
/// firewall and an LPM FIB — under one Abstract property and the
/// filtering (Tables) one.
fn corner_router(seed: u64, updates: usize) -> Scenario {
    let blacklist = vec![0x0BAD_0001 + (seed as u32 % 3), 0x0BAD_0010];
    Scenario {
        name: format!("stream {seed}"),
        pipeline: to_pipeline(
            &format!("churn-{seed}"),
            vec![
                elements::classifier::classifier(),
                elements::check_ip_header::check_ip_header(false),
                elements::ip_filter::ip_filter(blacklist),
                elements::ip_lookup::ip_lookup(4, edge_fib()),
            ],
        ),
        props: vec![
            Property::CrashFreedom,
            Property::Filter(FilterProperty::src(0x0BAD_0001)),
        ],
        seed,
        updates,
    }
}

/// A `dpv-serve` workload under `updates` of seeded churn.
fn served(name: &str, updates: usize) -> Scenario {
    let (pipeline, props) = named_workload(name).expect("known workload");
    Scenario {
        name: name.into(),
        pipeline,
        props,
        seed: 0xC0FFEE ^ updates as u64,
        updates,
    }
}

/// Drives the stream through a warm session and holds every update to
/// a fresh [`Verifier`] over the session's pipeline, under the
/// session's configuration; returns the filtering verdict per update
/// (for mix assertions) and the session's reuse counts.
fn check_stream(s: &Scenario) -> (Vec<&'static str>, ChurnStats) {
    let name = &s.name;
    let cfg = fig_verify_config();
    let mut session = ChurnSession::new(
        s.pipeline.clone(),
        s.props.clone(),
        cfg.clone(),
        ReuseLevel::Sessions,
    )
    .expect("search-based properties");
    let deltas = delta_stream(s.seed, &s.pipeline, s.updates);
    let mut filtering = Vec::new();
    for u in 0..=deltas.len() {
        let warm = match u {
            0 => session.verify(),
            _ => session
                .apply_delta(&deltas[u - 1])
                .expect("generated deltas are valid"),
        };
        let fresh: Vec<VerifyReport> = Verifier::new(session.pipeline())
            .config(cfg.clone())
            .check_all(&s.props)
            .into_iter()
            .map(Report::expect_verify)
            .collect();
        assert_eq!(
            warm.reports.len(),
            fresh.len(),
            "{name} update {u}: report count"
        );
        for (w, f) in warm.reports.iter().zip(&fresh) {
            assert_identical_reports(w, f, &format!("{name} update {u} [{}]", f.property));
        }
        filtering.extend(
            fresh
                .iter()
                .filter(|r| r.property == "filtering")
                .map(|r| r.verdict.label()),
        );
    }
    (filtering, session.stats())
}

/// Debug-friendly: four streams, six updates each.
#[test]
fn churn_smoke() {
    for seed in 0u64..4 {
        check_stream(&corner_router(seed, 6));
    }
}

/// Paper-scale matrix: 20 generated streams of 12 updates, then the
/// two long streams, each update against a fresh verifier. Run explicitly in
/// release: `cargo test --release -p dpv-bench -- --ignored`.
#[test]
#[ignore = "paper-scale matrix; run in release via -- --ignored"]
fn churn_differential_full() {
    let mut proved = 0usize;
    let mut disproved = 0usize;
    for seed in 0u64..20 {
        for label in check_stream(&corner_router(seed, 12)).0 {
            match label {
                "proved" => proved += 1,
                "disproved" => disproved += 1,
                other => panic!("stream {seed}: unexpected verdict {other}"),
            }
        }
    }
    // Churn must exercise both outcomes of the filtering property
    // (blacklist entries are removed and re-added mid-stream).
    assert!(proved >= 20, "want a healthy proved mix, got {proved}");
    assert!(
        disproved >= 20,
        "want a healthy disproved mix, got {disproved}"
    );

    // The two served workloads, with the warm session's reuse counts
    // over the whole stream — what makes a warm update cheap. The
    // counts are a function of `delta_stream(seed)` and the reuse
    // model alone, so they are pinned exactly; re-take them when
    // either changes on purpose. On the firewalled edge (both table
    // kinds churn, six stages) only the stages a delta's Tables-mode
    // key reaches re-execute and the two Abstract checks replay on
    // every update; FIB churn under Abstract-only properties is
    // table-blind, so nothing executes and every check (2 × 40)
    // replays.
    for (scenario, reuse) in [
        (served("firewalled-edge", 120), (106, 4, 250)),
        (served("edge-router", 40), (0, 0, 80)),
    ] {
        let (_, stats) = check_stream(&scenario);
        assert_eq!(
            (
                stats.stages_reexecuted,
                stats.stages_rebased,
                stats.checks_replayed
            ),
            reuse,
            "{}: warm-session (re-executed, rebased, replayed)",
            scenario.name
        );
    }
}
