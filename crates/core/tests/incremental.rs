//! Step-2 solver sessions across the whole stack: the solver reuse
//! counters are surfaced on [`verifier::VerifyReport`], and
//! conflict-driven pruning is held to verdict equality against the
//! unpruned reference search
//! (`Verifier::reference_without_core_pruning`): pruning only ever
//! skips queries the solver would answer UNSAT, so on these budget-free
//! workloads (no query comes near `solver_conflict_budget`) verdict,
//! counterexample bytes *and composed-path counts* must match the
//! unpruned run exactly (compositions still count; only the solver
//! call is skipped). And a long-lived [`verifier::ChurnSession`] is
//! held to a count: the CDCL work per solver query must not grow with
//! the session's age.

use dataplane::{Pipeline, TableDelta, TableOp};
use elements::ip_fragmenter::{ip_fragmenter, FragmenterVariant};
use elements::pipelines::{to_pipeline, ROUTER_IP};
use symexec::SymConfig;
use verifier::{
    ChurnSession, FilterProperty, Property, ReuseLevel, Verdict, Verifier, VerifyConfig,
    VerifyReport,
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

fn audit_props() -> Vec<Property> {
    vec![
        Property::CrashFreedom,
        Property::Bounded { imax: 5_000 },
        Property::Filter(FilterProperty::src(0x0BAD_0001)),
    ]
}

/// Pruned-vs-unpruned agreement: verdict class, trace, description,
/// counterexample bytes, and the composed-path count (pruning skips
/// solver calls, never compositions). Query counts are *expected* to
/// differ — that is the point of pruning — so they are not compared.
fn assert_prune_equivalent(pruned: &VerifyReport, plain: &VerifyReport, what: &str) {
    match (&pruned.verdict, &plain.verdict) {
        (Verdict::Proved, Verdict::Proved) => {}
        (Verdict::Disproved(x), Verdict::Disproved(y)) => {
            assert_eq!(x.trace, y.trace, "{what}: trace differs");
            assert_eq!(x.description, y.description, "{what}: description differs");
            assert_eq!(x.bytes, y.bytes, "{what}: counterexample bytes differ");
        }
        (Verdict::Unknown(x), Verdict::Unknown(y)) => {
            assert_eq!(x, y, "{what}: unknown reason differs")
        }
        (x, y) => panic!("{what}: {x:?} vs {y:?}"),
    }
    assert_eq!(
        pruned.composed_paths, plain.composed_paths,
        "{what}: pruning must not change which paths are composed"
    );
    assert_eq!(
        plain.cores.core_hits, 0,
        "{what}: the baseline must report zero pruning activity"
    );
    assert_eq!(
        plain.cores.cores_learned, 0,
        "{what}: baseline learns nothing"
    );
}

#[test]
fn pruning_matches_unpruned_on_proved_pipeline() {
    let p = router();
    let plain = Verifier::new(&p)
        .config(cfg())
        .reference_without_core_pruning()
        .check_all(&audit_props());
    let pruned = Verifier::new(&p).config(cfg()).check_all(&audit_props());
    let mut learned_total = 0;
    let mut subtrees_pruned = 0;
    for ((prop, pl), pr) in audit_props().iter().zip(&plain).zip(&pruned) {
        assert_prune_equivalent(
            pr.as_verify().unwrap(),
            pl.as_verify().unwrap(),
            &format!("router {prop:?}"),
        );
        learned_total += pr.as_verify().unwrap().cores.cores_learned;
        subtrees_pruned += pr.as_verify().unwrap().cores.subtrees_pruned;
    }
    assert!(
        learned_total > 0,
        "a refutation-heavy proof must learn cores"
    );
    assert!(
        subtrees_pruned > 0,
        "pruning must cut whole continuation subtrees, not only leaf queries"
    );
}

#[test]
fn pruning_matches_unpruned_on_disproved_pipeline() {
    let p = click_bug1();
    let props = [Property::CrashFreedom, Property::Bounded { imax: 5_000 }];
    let plain = Verifier::new(&p)
        .config(cfg())
        .reference_without_core_pruning()
        .check_all(&props);
    let pruned = Verifier::new(&p).config(cfg()).check_all(&props);
    for ((prop, pl), pr) in props.iter().zip(&plain).zip(&pruned) {
        assert_prune_equivalent(
            pr.as_verify().unwrap(),
            pl.as_verify().unwrap(),
            &format!("click-bug {prop:?}"),
        );
    }
    assert!(
        pruned[1].as_verify().unwrap().verdict.is_disproved(),
        "bug #1 must still be found with pruning on: {}",
        pruned[1]
    );
}

#[test]
fn cross_property_core_reuse_is_visible() {
    // Two Abstract-mode properties in one session: compositions along
    // the same prefixes re-intern to identical hash-consed terms, so
    // cores learned refuting crash-freedom paths must register as
    // core_hits in the bounded-execution search before it learns
    // anything itself.
    let p = router();
    let mut v = Verifier::new(&p).config(cfg());
    let r1 = v.check(Property::CrashFreedom).expect_verify();
    let r2 = v.check(Property::Bounded { imax: 10_000 }).expect_verify();
    assert!(r1.verdict.is_proved(), "{r1}");
    assert!(r2.verdict.is_proved(), "{r2}");
    assert!(
        r1.cores.cores_learned > 0,
        "first property must learn cores: {:?}",
        r1.cores
    );
    assert!(
        r2.cores.core_hits > 0,
        "second property must reuse the first property's cores: {:?}",
        r2.cores
    );
    // The JSON line surfaces the pruning counters.
    let j = r2.to_json();
    assert!(j.contains("\"cores\":{\"cores_learned\":"), "{j}");
    assert!(j.contains("\"core_hits\":"), "{j}");
    assert!(j.contains("\"subtrees_pruned\":"), "{j}");
    assert!(j.contains("\"decisions\":"), "{j}");
    assert!(j.contains("\"propagations\":"), "{j}");
}

#[test]
fn reuse_counters_are_visible_and_mode_faithful() {
    // Prefix reuse and clause carry-over must show up both on the
    // struct and in the JSON line.
    let p = click_bug1();
    let r = Verifier::new(&p)
        .config(cfg())
        .check(Property::Bounded { imax: 5_000 })
        .expect_verify();
    assert!(r.solver.queries > 0, "{:?}", r.solver);
    assert!(r.solver.by_blast > 0, "search must reach the blaster");
    assert!(
        r.solver.blast_cache_hits > 0,
        "shared prefixes must hit the blast cache: {:?}",
        r.solver
    );
    assert!(
        r.solver.learnt_reused > 0,
        "later queries must reuse learnt clauses: {:?}",
        r.solver
    );
    let j = r.to_json();
    assert!(j.contains("\"solver\":{\"queries\":"), "{j}");
    assert!(j.contains("\"blast_cache_hits\":"), "{j}");
    assert!(j.contains("\"learnt_reused\":"), "{j}");
}

#[test]
fn session_solver_persists_across_checks_in_one_mode() {
    // Two Abstract-mode properties on one Verifier share one session:
    // the second check's queries still see the first check's blasted
    // base constraints, so its miss counter stays below its query
    // count from the very first blast-layer query.
    let p = router();
    let mut v = Verifier::new(&p).config(cfg());
    let r1 = v.check(Property::CrashFreedom).expect_verify();
    let r2 = v.check(Property::Bounded { imax: 10_000 }).expect_verify();
    assert!(r1.verdict.is_proved(), "{r1}");
    assert!(r2.verdict.is_proved(), "{r2}");
    if r2.solver.by_blast > 0 {
        assert!(
            r2.solver.blast_cache_hits > 0,
            "cross-property prefix reuse: {:?}",
            r2.solver
        );
    }
}

#[test]
fn solver_work_per_query_does_not_drift_along_a_stationary_stream() {
    // A stationary stream: every 12 updates three keys cycle in,
    // change value and cycle out of the firewall blacklist, and the
    // watched source leaves and re-enters it, so the table never grows
    // and the filtering verdict flips twice per cycle. The three keys
    // are new in every cycle — constraint terms the solver has not
    // seen, as a real control plane produces — and every update
    // changes the Tables-mode summary, so every update searches.
    const WATCHED: u64 = 0x0BAD_0001;
    let p = to_pipeline(
        "firewalled-edge",
        vec![
            elements::classifier::classifier(),
            elements::check_ip_header::check_ip_header(false),
            elements::ip_filter::ip_filter(vec![WATCHED as u32, 0x0BAD_0010]),
            elements::dec_ttl::dec_ttl(),
            elements::ip_options::ip_options(1, Some(ROUTER_IP)),
            elements::ip_lookup::ip_lookup(4, elements::pipelines::edge_fib()),
        ],
    );
    let blacklist = p.stages[2].element.tables[0].0;
    let cycle = |n: u64| -> Vec<TableOp> {
        let keys = [0, 1, 2].map(|j| 0x0BAD_0100 + 3 * n + j);
        (keys.iter().map(|&k| TableOp::ExactInsert(vec![(k, 1)])))
            .chain(keys.iter().map(|&k| TableOp::ExactInsert(vec![(k, 2)])))
            .chain([TableOp::ExactRemove(vec![WATCHED])])
            .chain(keys.iter().map(|&k| TableOp::ExactRemove(vec![k])))
            .chain([
                TableOp::ExactInsert(vec![(WATCHED, 2)]),
                TableOp::ExactInsert(vec![(WATCHED, 1)]),
            ])
            .collect()
    };
    let props = vec![Property::Filter(FilterProperty::src(WATCHED as u32))];
    let mut warm = ChurnSession::new(p, props.clone(), cfg(), ReuseLevel::Sessions)
        .expect("search-based property");
    warm.verify();

    // (propagations, queries) of every update that searched.
    let mut searched: Vec<(u64, u64)> = Vec::new();
    let mut labels: Vec<&str> = Vec::new();
    for (u, op) in (0..25).flat_map(cycle).enumerate() {
        let delta = TableDelta::new("IPFilter", blacklist, op);
        let w = warm.apply_delta(&delta).expect("valid delta");
        // The oracle: a fresh verifier over the updated pipeline.
        let or = &Verifier::new(warm.pipeline())
            .config(cfg())
            .check(props[0].clone())
            .expect_verify();
        let wr = &w.reports[0];
        assert_eq!(wr.verdict.label(), or.verdict.label(), "update {u}");
        assert_eq!(wr.composed_paths, or.composed_paths, "update {u}");
        if let (Verdict::Disproved(a), Verdict::Disproved(b)) = (&wr.verdict, &or.verdict) {
            assert_eq!(a.bytes, b.bytes, "update {u}: counterexample bytes");
        }
        labels.push(wr.verdict.label());
        if !w.replayed[0] && wr.solver.queries > 0 {
            searched.push((wr.solver.propagations, wr.solver.queries));
        }
    }
    assert_eq!(labels.len(), 300);
    let flips = labels.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(flips >= 40, "the verdict must keep flipping: {flips} flips");
    assert!(searched.len() >= 200, "{} searched updates", searched.len());
    let per_query = |w: &[(u64, u64)]| {
        let (props, queries) = w.iter().fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        props as f64 / queries as f64
    };
    let first = per_query(&searched[..50]);
    let last = per_query(&searched[searched.len() - 50..]);
    assert!(
        last <= 1.5 * first,
        "propagations per solver query drifted with session age: \
         {first:.0} over the first 50 searched updates, {last:.0} over the last 50"
    );
}
