//! Session-API tests: summary caching, multi-property audits and
//! run-to-run reproducibility.

use dataplane::{Element, Pipeline, Route, Stage};
use dpir::ProgramBuilder;
use elements::ip_fragmenter::{ip_fragmenter, FragmenterVariant};
use elements::pipelines::{network_gateway, to_pipeline, ROUTER_IP};
use symexec::{SegOutcome, SymConfig};
use verifier::{
    FilterProperty, MapMode, Property, Report, Verdict, Verifier, VerifyConfig, VerifyReport,
};

fn cfg() -> VerifyConfig {
    VerifyConfig {
        sym: SymConfig {
            max_pkt_bytes: 48,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The Table-2 router front used by the audit tests: preproc, TTL and
/// an IP-options loop.
fn router() -> Pipeline {
    to_pipeline(
        "router",
        vec![
            elements::classifier::classifier(),
            elements::check_ip_header::check_ip_header(false),
            elements::dec_ttl::dec_ttl(),
            elements::ip_options::ip_options(2, Some(ROUTER_IP)),
        ],
    )
}

/// Click fragmenter bug #1 behind the router preproc: a real
/// bounded-execution disproof.
fn click_bug1() -> Pipeline {
    to_pipeline(
        "edge+frag1",
        vec![
            elements::classifier::classifier(),
            elements::check_ip_header::check_ip_header(false),
            elements::ip_options::ip_options(1, Some(ROUTER_IP)),
            ip_fragmenter(FragmenterVariant::ClickBug1, 40),
        ],
    )
}

/// The fixed fragmenter behind the same preproc: provably bounded.
fn fixed_frag() -> Pipeline {
    to_pipeline(
        "edge+fixedfrag",
        vec![
            elements::classifier::classifier(),
            elements::check_ip_header::check_ip_header(false),
            ip_fragmenter(FragmenterVariant::Fixed, 40),
        ],
    )
}

const IMAX: u64 = 5_000;

/// Same proof status, violating trace and description.
fn assert_same_outcome(a: &VerifyReport, b: &VerifyReport, what: &str) {
    match (&a.verdict, &b.verdict) {
        (Verdict::Proved, Verdict::Proved) => {}
        (Verdict::Disproved(x), Verdict::Disproved(y)) => {
            assert_eq!(x.trace, y.trace, "{what}: trace differs");
            assert_eq!(x.description, y.description, "{what}: description differs");
        }
        (Verdict::Unknown(x), Verdict::Unknown(y)) => {
            assert_eq!(x, y, "{what}: unknown reason differs");
        }
        (x, y) => panic!("{what}: {x:?} vs {y:?}"),
    }
    assert_eq!(a.step1_states, b.step1_states, "{what}: step-1 states");
    assert_eq!(a.step1_segments, b.step1_segments, "{what}: segments");
    assert_eq!(a.suspects, b.suspects, "{what}: suspects");
}

// --------------------------------------------------------------------
// (a) check_all == fresh per-property runs
// --------------------------------------------------------------------

#[test]
fn check_all_matches_fresh_runs_on_click_bug() {
    let p = click_bug1();
    let batch = Verifier::new(&p)
        .config(cfg())
        .check_all(&[Property::CrashFreedom, Property::Bounded { imax: IMAX }]);
    assert_eq!(batch.len(), 2);
    for (prop, got) in [Property::CrashFreedom, Property::Bounded { imax: IMAX }]
        .into_iter()
        .zip(&batch)
    {
        let fresh = Verifier::new(&p).config(cfg()).check(prop.clone());
        assert_same_outcome(
            fresh.as_verify().expect("verify report"),
            got.as_verify().expect("verify report"),
            &format!("{prop:?}"),
        );
    }
    // The bug is really found through the cache.
    assert!(
        batch[1].as_verify().unwrap().verdict.is_disproved(),
        "bug #1 must be disproved: {}",
        batch[1]
    );
}

#[test]
fn check_all_matches_fresh_runs_on_fixed_pipeline() {
    let p = fixed_frag();
    let batch = Verifier::new(&p)
        .config(cfg())
        .check_all(&[Property::CrashFreedom, Property::Bounded { imax: IMAX }]);
    for r in &batch {
        assert!(
            r.as_verify().unwrap().verdict.is_proved(),
            "fixed fragmenter proves everything: {r}"
        );
    }
    let fresh = Verifier::new(&p)
        .config(cfg())
        .check(Property::Bounded { imax: IMAX });
    assert_same_outcome(
        fresh.as_verify().unwrap(),
        batch[1].as_verify().unwrap(),
        "fixed/bounded",
    );
}

// --------------------------------------------------------------------
// (b) step 1 runs at most once per MapMode per session
// --------------------------------------------------------------------

#[test]
fn step1_cached_once_per_map_mode() {
    let p = router();
    let mut v = Verifier::new(&p).config(cfg());
    assert_eq!(v.step1_runs(), 0, "lazy: nothing built yet");

    v.check(Property::CrashFreedom);
    assert_eq!(v.step1_runs(), 1, "Abstract built");
    v.check(Property::Bounded { imax: 10_000 });
    assert_eq!(v.step1_runs(), 1, "Abstract reused for bounded");
    v.check(Property::StateConsistency);
    assert_eq!(v.step1_runs(), 1, "Abstract reused for §3.4");
    v.check(Property::Filter(FilterProperty::src(0x0BAD_0001)));
    assert_eq!(v.step1_runs(), 2, "Tables built for filtering");
    v.check(Property::Filter(FilterProperty::dst(0x0A09_0909)));
    assert_eq!(v.step1_runs(), 2, "Tables reused");
    v.check(Property::CrashFreedom);
    assert_eq!(v.step1_runs(), 2, "Abstract still cached");
    v.longest_paths(1);
    assert_eq!(v.step1_runs(), 2, "longest paths reuse the cache too");
}

/// The acceptance scenario: a three-property audit on the Table-2
/// router summarizes at most twice (once per map mode), and every
/// verdict equals its fresh single-property run.
#[test]
fn router_audit_summarizes_at_most_twice() {
    let p = router();
    let props = [
        Property::CrashFreedom,
        Property::Bounded { imax: 10_000 },
        Property::Filter(FilterProperty::src(0x0BAD_0001)),
    ];
    let mut v = Verifier::new(&p).config(cfg());
    let batch = v.check_all(&props);
    assert_eq!(v.step1_runs(), 2, "one step-1 pass per MapMode");
    for (prop, got) in props.iter().zip(&batch) {
        let fresh = Verifier::new(&p).config(cfg()).check(prop.clone());
        assert_same_outcome(
            fresh.as_verify().expect("verify report"),
            got.as_verify().expect("verify report"),
            &format!("{prop:?}"),
        );
    }
}

/// One element asserting its first byte is at least 10: any shorter
/// value crashes it.
fn toy_broken() -> Pipeline {
    let mut b = ProgramBuilder::new("E2");
    let v = b.pkt_load(8, 0u64);
    let ok = b.ule(8, 10u64, v);
    b.assert_(ok, "in >= 10");
    b.emit(0);
    Pipeline::new("toy-broken").push_stage(
        Stage::passthrough(Element::straight("E2", b.build().expect("valid")))
            .route(0, Route::Sink(0)),
    )
}

// --------------------------------------------------------------------
// FilterProperty builders & filtering suspects
// --------------------------------------------------------------------

#[test]
fn filter_property_builders() {
    let d = FilterProperty::dst(0x0A09_0909);
    assert_eq!(d.dst_ip, Some(0x0A09_0909));
    assert_eq!(d.src_ip, None);
    assert_eq!(d.min_len, 38);

    let sd = FilterProperty::src_dst(0x0BAD_0001, 0x0A09_0909).min_len(64);
    assert_eq!(sd.src_ip, Some(0x0BAD_0001));
    assert_eq!(sd.dst_ip, Some(0x0A09_0909));
    assert_eq!(sd.min_len, 64);
}

#[test]
fn src_dst_builder_behaves_like_the_struct_literal() {
    // §4's conjunction example: blacklisted source ⇒ dropped for any
    // destination.
    let p = to_pipeline(
        "fw",
        vec![elements::ip_filter::ip_filter(vec![0x0BAD_0001])],
    );
    let r = Verifier::new(&p)
        .config(cfg())
        .check(Property::Filter(FilterProperty::src_dst(
            0x0BAD_0001,
            0x0A09_0909,
        )))
        .expect_verify();
    assert!(r.verdict.is_proved(), "{r}");
}

#[test]
fn filtering_reports_real_suspect_counts() {
    // Regression: filtering reports used to hardcode `suspects: 0`.
    // The firewall's pass-through segments deliver on a sink, so each
    // is a suspect until step 2 discharges it.
    let p = to_pipeline(
        "fw",
        vec![elements::ip_filter::ip_filter(vec![0x0BAD_0001])],
    );
    let r = Verifier::new(&p)
        .config(cfg())
        .check(Property::Filter(FilterProperty::src(0x0BAD_0001)))
        .expect_verify();
    assert!(
        r.suspects >= 1,
        "sink-delivery segments must be counted as filtering suspects: {r}"
    );
}

#[test]
fn gateway_filtering_counterexample_replays() {
    // Filtering leaves most input bytes unconstrained; whatever packet
    // is reported must match the property pattern and, run concretely
    // through the gateway, still be delivered.
    let p = to_pipeline("gateway", network_gateway(3));
    let r = Verifier::new(&p)
        .config(cfg())
        .check(Property::Filter(FilterProperty::src(0x0A00_002A)))
        .expect_verify();
    let Verdict::Disproved(cex) = &r.verdict else {
        panic!("the gateway forwards the watched source: {r}");
    };
    let src = u32::from_be_bytes([cex.bytes[26], cex.bytes[27], cex.bytes[28], cex.bytes[29]]);
    assert_eq!(src, 0x0A00_002A, "packet must match the property");
    let stores = elements::pipelines::build_all_stores(&p);
    let mut runner = dataplane::Runner::new(p.clone(), stores);
    let mut pkt = dpir::PacketData::new(cex.bytes.clone());
    let out = runner.run_packet(&mut pkt);
    assert!(
        matches!(out, dataplane::PipelineOutcome::Delivered(_)),
        "counterexample must actually be delivered, got {out:?}"
    );
}

// --------------------------------------------------------------------
// Reproducibility and JSON output
// --------------------------------------------------------------------

/// Two independent single-property sessions agree byte for byte (the
/// name predates the removal of the free-function wrappers, which were
/// exactly such sessions).
#[test]
fn deprecated_wrappers_match_session_exactly() {
    let p = toy_broken();
    let first = Verifier::new(&p)
        .config(cfg())
        .check(Property::CrashFreedom)
        .expect_verify();
    let second = Verifier::new(&p)
        .config(cfg())
        .check(Property::CrashFreedom)
        .expect_verify();
    match (&first.verdict, &second.verdict) {
        (Verdict::Disproved(a), Verdict::Disproved(b)) => {
            assert_eq!(a.bytes, b.bytes);
            assert_eq!(a.trace, b.trace);
            assert_eq!(a.description, b.description);
        }
        (a, b) => panic!("expected identical disproofs, got {a:?} vs {b:?}"),
    }
    assert_eq!(first.step1_states, second.step1_states);
    assert_eq!(first.composed_paths, second.composed_paths);
}

#[test]
fn reports_serialize_to_json() {
    let p = toy_broken();
    let mut v = Verifier::new(&p).config(cfg());

    let verify = v.check(Property::CrashFreedom);
    let j = verify.to_json();
    assert!(j.contains("\"kind\":\"verify\""), "{j}");
    assert!(j.contains("\"verdict\":\"disproved\""), "{j}");
    assert!(j.contains("\"counterexample\":{\"hex\":"), "{j}");
    assert!(j.contains("\"trace\":[[0,"), "{j}");
    // Descriptions quote the assert message: escaping must hold.
    assert!(!j.contains("\"in >= 10\""), "unescaped quote survived: {j}");

    let state = v.check(Property::StateConsistency);
    let j = state.to_json();
    assert!(j.contains("\"kind\":\"state\""), "{j}");

    let generic = v.check(Property::Generic { loop_cap: 4 });
    let j = generic.to_json();
    assert!(j.contains("\"kind\":\"generic\""), "{j}");
    assert!(j.contains("\"outcome\":\"completed\""), "{j}");
    match &generic {
        Report::Generic(g) => assert!(g.report.crashes >= 1, "baseline sees the crash too"),
        other => panic!("expected a generic report, got {other:?}"),
    }
}

// --------------------------------------------------------------------
// Lazy summaries API
// --------------------------------------------------------------------

#[test]
fn summaries_accessor_builds_and_caches() {
    let p = router();
    let mut v = Verifier::new(&p).config(cfg());
    let n1 = v
        .summaries(MapMode::Abstract)
        .expect("step 1 ok")
        .stages
        .len();
    assert_eq!(n1, 4);
    assert_eq!(v.step1_runs(), 1);
    // Segment outcomes are visible to callers (e.g. custom tooling).
    let has_emit = v
        .summaries(MapMode::Abstract)
        .expect("cached")
        .stages
        .iter()
        .any(|s| {
            s.segments
                .iter()
                .any(|g| matches!(g.outcome, SegOutcome::Emit(_)))
        });
    assert!(has_emit);
    assert_eq!(v.step1_runs(), 1, "second access is a cache hit");
}

// --------------------------------------------------------------------
// Lint surface
// --------------------------------------------------------------------

/// A pipeline with statically decidable structure: a constant-false
/// branch guarding a dead crash, which the unreachable-block lint
/// reports.
fn staticky() -> Pipeline {
    let mut b = ProgramBuilder::new("S1");
    let c1 = b.add(32, 3u64, 4u64);
    let cond = b.ult(32, c1, 2u64); // 7 < 2: constant false
    let (dead, live) = b.fork(cond);
    b.switch_to(dead);
    b.crash("unreachable by construction");
    b.switch_to(live);
    b.emit(0);
    Pipeline::new("staticky").push_stage(
        Stage::passthrough(Element::straight("S1", b.build().expect("valid")))
            .route(0, Route::Sink(0)),
    )
}

#[test]
fn verifier_lint_reports_raw_programs() {
    let p = staticky();
    let v = Verifier::new(&p).config(cfg());
    let lints = v.lint();
    assert_eq!(lints.len(), 1);
    assert_eq!(lints[0].0, "S1");
    assert!(
        lints[0].1.iter().any(|d| d.code == "DPV001"),
        "expected the unreachable-block lint, got {:?}",
        lints[0].1
    );
}
