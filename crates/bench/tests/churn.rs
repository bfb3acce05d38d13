//! Churn-vs-fresh differential: a warm [`ChurnSession`] must track
//! full re-verification exactly, update by update.
//!
//! Each stream drives the same seedable [`delta_stream`] through two
//! sessions — one per [`ReuseLevel`] — over a table-bearing pipeline
//! (IPFilter exact table + IPlookup LPM FIB), checking one Abstract
//! property (crash-freedom) and one Tables property (filtering). After
//! the initial verification and after **every** update, the
//! `Sessions` run must agree with the `FullReverify` oracle on:
//!
//! * verdict labels per property (streams deliberately add and remove
//!   blacklist entries, so the filtering verdict genuinely flips
//!   mid-stream);
//! * counterexample bytes, description and trace, byte-for-byte (the
//!   warm arm re-extracts models on patched persistent pools — the
//!   bytes must not care);
//! * `composed_paths` per property (core reuse only skips would-be-
//!   UNSAT solver calls, never compositions; replayed reports carry
//!   the counts a real search would have produced).
//!
//! `churn_smoke` keeps debug tier-1 quick; `churn_differential_full`
//! is the paper-scale matrix (20 streams × 12 updates) and runs in
//! release via `cargo test --release -p dpv-bench -- --ignored`.

use dataplane::Pipeline;
use dpv_bench::gen::delta_stream;
use elements::pipelines::{edge_fib, to_pipeline};
use symexec::SymConfig;
use verifier::{
    ChurnSession, FilterProperty, Property, ReuseLevel, UpdateReport, Verdict, VerifyConfig,
};

/// A street-corner router with both table kinds: an exact-match
/// firewall and an LPM FIB.
fn churn_pipeline(seed: u64) -> Pipeline {
    let blacklist = vec![0x0BAD_0001 + (seed as u32 % 3), 0x0BAD_0010];
    to_pipeline(
        &format!("churn-{seed}"),
        vec![
            elements::classifier::classifier(),
            elements::check_ip_header::check_ip_header(false),
            elements::ip_filter::ip_filter(blacklist),
            elements::ip_lookup::ip_lookup(4, edge_fib()),
        ],
    )
}

fn props() -> Vec<Property> {
    vec![
        Property::CrashFreedom,
        Property::Filter(FilterProperty::src(0x0BAD_0001)),
    ]
}

fn cfg() -> VerifyConfig {
    VerifyConfig {
        sym: SymConfig {
            max_pkt_bytes: 48,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn run_stream(level: ReuseLevel, seed: u64, updates: usize) -> Vec<UpdateReport> {
    let pipeline = churn_pipeline(seed);
    let deltas = delta_stream(seed, &pipeline, updates);
    let mut session =
        ChurnSession::new(pipeline, props(), cfg(), level).expect("search-based properties");
    let mut out = vec![session.verify()];
    for d in &deltas {
        out.push(session.apply_delta(d).expect("generated deltas are valid"));
    }
    out
}

type CexPayload = (Vec<u8>, String, Vec<(usize, usize)>);

fn cex_of(v: &Verdict) -> Option<CexPayload> {
    match v {
        Verdict::Disproved(cex) => Some((
            cex.bytes.clone(),
            cex.description.clone(),
            cex.trace.clone(),
        )),
        _ => None,
    }
}

fn check_stream(seed: u64, updates: usize) -> Vec<&'static str> {
    let baseline = run_stream(ReuseLevel::FullReverify, seed, updates);
    let warm = run_stream(ReuseLevel::Sessions, seed, updates);
    assert_eq!(warm.len(), baseline.len(), "stream {seed}: update count");
    for (u, (w, b)) in warm.iter().zip(&baseline).enumerate() {
        assert_eq!(
            w.reports.len(),
            b.reports.len(),
            "stream {seed} update {u}: report count"
        );
        for (wr, br) in w.reports.iter().zip(&b.reports) {
            let what = format!("stream {seed} update {u} [{}]", br.property);
            assert_eq!(
                wr.verdict.label(),
                br.verdict.label(),
                "{what}: verdict diverged"
            );
            assert_eq!(
                cex_of(&wr.verdict),
                cex_of(&br.verdict),
                "{what}: counterexample diverged"
            );
            assert_eq!(
                wr.composed_paths, br.composed_paths,
                "{what}: composed_paths diverged"
            );
        }
    }
    // The per-update filtering verdict trajectory, for mix assertions.
    baseline
        .iter()
        .map(|u| u.reports[1].verdict.label())
        .collect()
}

/// Debug-friendly: four streams, six updates each.
#[test]
fn churn_smoke() {
    for seed in 0u64..4 {
        check_stream(seed, 6);
    }
}

/// Paper-scale matrix: 20 generated streams of 12 updates, both
/// reuse levels each. Run explicitly in release:
/// `cargo test --release -p dpv-bench -- --ignored`.
#[test]
#[ignore = "paper-scale matrix; run in release via -- --ignored"]
fn churn_differential_full() {
    let mut proved = 0usize;
    let mut disproved = 0usize;
    for seed in 0u64..20 {
        for label in check_stream(seed, 12) {
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
}
