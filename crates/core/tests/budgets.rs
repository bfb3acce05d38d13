//! Verifier budget and degradation behavior: when resources run out the
//! verdict must degrade to Unknown — never to a false Proved/Disproved.

use elements::pipelines::{to_pipeline, ROUTER_IP};
use symexec::SymConfig;
use verifier::{FilterProperty, Property, Verdict, Verifier, VerifyConfig};

fn base_cfg() -> VerifyConfig {
    VerifyConfig {
        sym: SymConfig {
            max_pkt_bytes: 48,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn router() -> dataplane::Pipeline {
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

#[test]
fn step1_state_budget_degrades_to_unknown() {
    let mut cfg = base_cfg();
    cfg.sym.max_states = 5;
    let r = Verifier::new(&router())
        .config(cfg)
        .check(Property::CrashFreedom)
        .expect_verify();
    assert!(
        matches!(r.verdict, Verdict::Unknown(_)),
        "tiny step-1 budget must yield Unknown: {r}"
    );
}

#[test]
fn step2_path_budget_degrades_to_unknown() {
    let mut cfg = base_cfg();
    cfg.max_composed_paths = 3;
    let r = Verifier::new(&router())
        .config(cfg)
        .check(Property::CrashFreedom)
        .expect_verify();
    assert!(
        matches!(r.verdict, Verdict::Unknown(_)),
        "tiny step-2 budget must yield Unknown: {r}"
    );
    assert_eq!(
        r.composed_paths, 3,
        "one counter, no in-flight workers: the search stops at the budget"
    );
}

#[test]
fn ample_budget_proves_same_pipeline() {
    let r = Verifier::new(&router())
        .config(base_cfg())
        .check(Property::CrashFreedom)
        .expect_verify();
    assert!(r.verdict.is_proved(), "{r}");
}

#[test]
fn bounded_budget_degrades_to_unknown() {
    let mut cfg = base_cfg();
    cfg.max_composed_paths = 2;
    let r = Verifier::new(&router())
        .config(cfg)
        .check(Property::Bounded { imax: 10_000 })
        .expect_verify();
    assert!(matches!(r.verdict, Verdict::Unknown(_)), "{r}");
    assert_eq!(r.composed_paths, 2, "the budget is exact");
}

/// The firewalled edge of the paper audits.
fn firewalled_edge() -> dataplane::Pipeline {
    to_pipeline(
        "firewalled-edge",
        vec![
            elements::classifier::classifier(),
            elements::check_ip_header::check_ip_header(false),
            elements::ip_filter::ip_filter(vec![0x0BAD_0001, 0x0BAD_0010]),
            elements::dec_ttl::dec_ttl(),
            elements::ip_options::ip_options(1, Some(ROUTER_IP)),
            elements::ip_lookup::ip_lookup(4, elements::pipelines::edge_fib()),
        ],
    )
}

/// The budget is tested before a composition, not before every
/// segment: a check that needs exactly N compositions completes under a
/// budget of N — its inert segments past the N-th cost nothing — and
/// reads Unknown, having composed N − 1, under a budget of N − 1.
#[test]
fn an_exact_budget_is_enough() {
    for (property, needed) in [
        (Property::CrashFreedom, 41),
        (Property::Bounded { imax: 5_000 }, 39),
    ] {
        let run = |budget| {
            let mut cfg = base_cfg();
            cfg.max_composed_paths = budget;
            Verifier::new(&firewalled_edge())
                .config(cfg)
                .check(property.clone())
                .expect_verify()
        };
        let short = run(needed - 1);
        assert!(
            matches!(&short.verdict, Verdict::Unknown(why) if why == "step-2 path budget exceeded"),
            "{short}"
        );
        assert_eq!(short.composed_paths, needed - 1, "{short}");
        let exact = run(needed);
        assert!(exact.verdict.is_proved(), "{exact}");
        assert_eq!(exact.composed_paths, needed, "{exact}");
    }
}

/// A group of properties checked in one call is one walk with one
/// budget: when it runs out, every member still walking reads Unknown.
#[test]
fn a_shared_walk_has_one_budget() {
    let mut cfg = base_cfg();
    cfg.max_composed_paths = 3;
    let reports = Verifier::new(&router())
        .config(cfg)
        .check_all(&[Property::CrashFreedom, Property::Bounded { imax: 10_000 }]);
    for r in reports {
        let r = r.expect_verify();
        assert!(matches!(r.verdict, Verdict::Unknown(_)), "{r}");
        assert!(r.composed_paths <= 3, "{r}");
    }
}

#[test]
fn filtering_dst_property() {
    // dst-based filtering: drop everything to 10.9.9.9 via a one-entry
    // blacklist keyed on... the src filter only matches src, so a dst
    // property over it must be *disproved* (packets to that dst with a
    // clean source pass).
    let p = to_pipeline("fw", vec![elements::ip_filter::ip_filter(vec![0x0BAD0001])]);
    let prop = FilterProperty {
        src_ip: None,
        dst_ip: Some(0x0A090909),
        min_len: 38,
    };
    let r = Verifier::new(&p)
        .config(base_cfg())
        .check(Property::Filter(prop.clone()))
        .expect_verify();
    assert!(r.verdict.is_disproved(), "{r}");
    if let Verdict::Disproved(cex) = &r.verdict {
        let pkt = dpir::PacketData::new(cex.bytes.clone());
        assert_eq!(dataplane::headers::ip_dst(&pkt), 0x0A090909);
        assert_ne!(dataplane::headers::ip_src(&pkt), 0x0BAD0001);
    }
}

#[test]
fn filtering_src_and_dst_conjunction() {
    // The paper's §4 example: "any packet with source IP A and
    // destination IP B will be dropped". Satisfied when A is
    // blacklisted regardless of B.
    let p = to_pipeline("fw", vec![elements::ip_filter::ip_filter(vec![0x0BAD0001])]);
    let prop = FilterProperty {
        src_ip: Some(0x0BAD0001),
        dst_ip: Some(0x0A090909),
        min_len: 38,
    };
    let r = Verifier::new(&p)
        .config(base_cfg())
        .check(Property::Filter(prop.clone()))
        .expect_verify();
    assert!(r.verdict.is_proved(), "{r}");
}

#[test]
fn report_display_is_informative() {
    let r = Verifier::new(&router())
        .config(base_cfg())
        .check(Property::CrashFreedom)
        .expect_verify();
    let s = r.to_string();
    assert!(s.contains("crash-freedom"));
    assert!(s.contains("PROVED"));
    assert!(s.contains("step1"));
    assert!(s.contains("step2"));
}

#[test]
fn unknown_is_never_replayed_from_the_churn_memo() {
    use dataplane::{TableDelta, TableOp};
    use verifier::{ChurnSession, ReuseLevel};

    const BLACKLISTED: u32 = 0x0BAD_0001;
    let pipeline = to_pipeline(
        "fw-router",
        vec![
            elements::classifier::classifier(),
            elements::check_ip_header::check_ip_header(false),
            elements::ip_filter::ip_filter(vec![BLACKLISTED]),
            elements::dec_ttl::dec_ttl(),
            elements::ip_options::ip_options(2, Some(ROUTER_IP)),
            elements::ip_lookup::ip_lookup(4, elements::pipelines::edge_fib()),
        ],
    );
    let props = vec![
        Property::CrashFreedom,
        Property::Bounded { imax: 10_000 },
        Property::Filter(FilterProperty::src(BLACKLISTED)),
    ];
    // One conflict per query: crash-freedom runs out of budget, while
    // bounded-execution (pruned by the cores crash-freedom left) and
    // filtering are still proved.
    let mut cfg = base_cfg();
    cfg.solver_conflict_budget = 1;
    let mut session = ChurnSession::new(pipeline, props, cfg, ReuseLevel::Sessions)
        .expect("search-based properties");
    let before = session.verify();
    let unknown: Vec<bool> = before
        .verdicts()
        .iter()
        .map(|v| matches!(v, Verdict::Unknown(_)))
        .collect();
    assert!(unknown.contains(&true), "want an Unknown: {unknown:?}");
    assert!(unknown.contains(&false), "want a verdict: {unknown:?}");

    // Re-inserting an entry the blacklist already holds changes no
    // table: every mode is untouched, so every *decided* property
    // replays — and every Unknown one is searched again.
    let noop = TableDelta::new(
        "IPFilter",
        dpir::MapId(0),
        TableOp::ExactInsert(vec![(BLACKLISTED as u64, 1)]),
    );
    let after = session.apply_delta(&noop).expect("valid delta");
    for (i, was_unknown) in unknown.iter().enumerate() {
        assert_eq!(
            after.replayed[i], !was_unknown,
            "{}: replayed = {}, previous verdict unknown = {was_unknown}",
            after.reports[i].property, after.replayed[i]
        );
    }
}
