//! Content-addressed summary store and fleet tests: key hashing,
//! deterministic (byte-identical) rebasing in both map modes and at
//! any thread count, store-on
//! vs store-off verdict/counterexample/path equivalence, fleet
//! scheduling determinism, step-2 equivalence classes (what shares a
//! search, what must not), replayed members reporting no step-1 work,
//! and once-per-key production under racing misses.

use bvsolve::TermPool;
use dataplane::{ElementKind, Pipeline, PipelineOutcome, Route, Runner};
use elements::ip_fragmenter::{ip_fragmenter, FragmenterVariant};
use elements::pipelines::{to_pipeline, ROUTER_IP};
use std::sync::Arc;
use symexec::SymConfig;
use verifier::fleet::Fleet;
use verifier::{
    summarize_pipeline, summarize_pipeline_with_store, FilterProperty, MapMode, Property,
    SummaryKey, SummaryStore, Verdict, Verifier, VerifyConfig, VerifyReport,
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

/// Router front: preproc, TTL, options loop (crash disproof, bounded
/// proof — suspects and refutations both come up).
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

/// Click fragmenter bug #1 — a real bounded-execution disproof with a
/// counterexample packet.
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

/// A router variant whose only difference is the ip_lookup table
/// contents (the fleet's config-variant shape).
fn lookup_variant(routes: Vec<(u32, u32, u32)>) -> Pipeline {
    to_pipeline(
        "lookup",
        vec![
            elements::classifier::classifier(),
            elements::check_ip_header::check_ip_header(false),
            elements::ip_lookup::ip_lookup(2, routes),
        ],
    )
}

/// Renders the full step-1 result — var names/widths plus the Debug
/// form of every stage (which includes every TermId) — so two pools
/// can be compared for byte-identical construction.
fn render(pool: &TermPool, sums: &verifier::PipelineSummaries) -> String {
    let mut out = String::new();
    for v in 0..pool.num_vars() as u32 {
        out.push_str(&format!("{}:{};", pool.var_name(v), pool.var_width(v)));
    }
    for s in &sums.stages {
        out.push_str(&format!("{s:?}\n"));
    }
    out
}

#[test]
fn warm_store_rebases_byte_identically() {
    let p = router();
    let c = cfg();
    for mode in [MapMode::Abstract, MapMode::Tables] {
        let store = SummaryStore::new();
        let mut cold_pool = TermPool::new();
        let cold =
            summarize_pipeline_with_store(&mut cold_pool, &p, &c.sym, mode, &store, 1).expect("ok");
        assert_eq!(cold.summary_misses, p.stages.len(), "{mode:?}");
        assert_eq!(cold.summary_hits, 0, "{mode:?}");

        let mut warm_pool = TermPool::new();
        let warm =
            summarize_pipeline_with_store(&mut warm_pool, &p, &c.sym, mode, &store, 1).expect("ok");
        assert_eq!(warm.summary_hits, p.stages.len(), "{mode:?}: all cached");
        assert_eq!(warm.summary_misses, 0, "{mode:?}");

        // And a store-less run for the "store off" reference point.
        let mut off_pool = TermPool::new();
        let off = summarize_pipeline(&mut off_pool, &p, &c.sym, mode).expect("ok");

        let cold_r = render(&cold_pool, &cold);
        assert_eq!(
            cold_r,
            render(&warm_pool, &warm),
            "{mode:?}: hit == miss, byte for byte"
        );
        assert_eq!(
            cold_r,
            render(&off_pool, &off),
            "{mode:?}: store on == store off"
        );
    }
}

/// `summarize_pipeline_with_store` still takes a thread count; whatever
/// it is, a warm Tables-mode rebase is byte-identical to a cold one and
/// to a single-threaded run against a fresh store.
#[test]
fn warm_store_rebases_byte_identically_threaded() {
    let p = router();
    let store = SummaryStore::new();
    let c = cfg();
    let mut a_pool = TermPool::new();
    let a = summarize_pipeline_with_store(&mut a_pool, &p, &c.sym, MapMode::Tables, &store, 4)
        .expect("ok");
    let mut b_pool = TermPool::new();
    let b = summarize_pipeline_with_store(&mut b_pool, &p, &c.sym, MapMode::Tables, &store, 4)
        .expect("ok");
    assert_eq!(b.summary_hits, p.stages.len());
    assert_eq!(render(&a_pool, &a), render(&b_pool, &b));
    // threads(4) == threads(1).
    let mut s_pool = TermPool::new();
    let s = summarize_pipeline_with_store(
        &mut s_pool,
        &p,
        &c.sym,
        MapMode::Tables,
        &SummaryStore::new(),
        1,
    )
    .expect("ok");
    assert_eq!(render(&a_pool, &a), render(&s_pool, &s));
}

#[test]
fn table_contents_change_the_key() {
    let a = lookup_variant(vec![(0x0A00_0000, 8, 0)]).stages[2]
        .element
        .clone();
    let b = lookup_variant(vec![(0x0B00_0000, 8, 1)]).stages[2]
        .element
        .clone();
    let c = cfg();
    assert_eq!(
        SummaryKey::of(&a, MapMode::Abstract, &c.sym),
        SummaryKey::of(&b, MapMode::Abstract, &c.sym),
        "abstract summaries are table-blind: variants share them"
    );
    assert_ne!(
        SummaryKey::of(&a, MapMode::Tables, &c.sym),
        SummaryKey::of(&b, MapMode::Tables, &c.sym),
        "tables-mode summaries are keyed by contents"
    );
    // Same contents ⇒ same key, both modes.
    let a2 = lookup_variant(vec![(0x0A00_0000, 8, 0)]).stages[2]
        .element
        .clone();
    assert_eq!(
        SummaryKey::of(&a, MapMode::Tables, &c.sym),
        SummaryKey::of(&a2, MapMode::Tables, &c.sym),
    );
}

/// Proof status, trace, description, *and bytes* — sessions share the
/// deterministic master-pool construction, so everything must match.
fn assert_identical_reports(a: &VerifyReport, b: &VerifyReport, what: &str) {
    match (&a.verdict, &b.verdict) {
        (verifier::Verdict::Disproved(x), verifier::Verdict::Disproved(y)) => {
            assert_eq!(x.bytes, y.bytes, "{what}: counterexample bytes");
            assert_eq!(x.trace, y.trace, "{what}: trace");
            assert_eq!(x.description, y.description, "{what}: description");
        }
        (verifier::Verdict::Proved, verifier::Verdict::Proved) => {}
        (verifier::Verdict::Unknown(x), verifier::Verdict::Unknown(y)) => {
            assert_eq!(x, y, "{what}: unknown reason");
        }
        (x, y) => panic!("{what}: verdicts diverge: {x:?} vs {y:?}"),
    }
    assert_eq!(a.step1_states, b.step1_states, "{what}: step-1 states");
    assert_eq!(a.composed_paths, b.composed_paths, "{what}: composed paths");
}

#[test]
fn store_on_off_identical_verdicts() {
    let props = [Property::CrashFreedom, Property::Bounded { imax: 5_000 }];
    for p in [router(), click_bug1()] {
        // Store off: a session's default private store, cold.
        let mut off = Verifier::new(&p).config(cfg());
        let off_reports = off.check_all(&props);

        // Store on: a store pre-warmed by a full unrelated session.
        let store = SummaryStore::shared();
        let mut warmer = Verifier::new(&p)
            .config(cfg())
            .with_store(Arc::clone(&store));
        let _ = warmer.check_all(&props);
        assert!(store.misses() > 0, "warmer populated the store");

        let mut on = Verifier::new(&p)
            .config(cfg())
            .with_store(Arc::clone(&store));
        let on_reports = on.check_all(&props);

        let hits_before = store.hits();
        assert!(hits_before > 0, "warm session hit the store");

        for (a, b) in off_reports.iter().zip(&on_reports) {
            assert_identical_reports(
                a.as_verify().expect("verify"),
                b.as_verify().expect("verify"),
                &p.name,
            );
        }
        // The building check reports its cache traffic.
        let first = on_reports[0].as_verify().expect("verify");
        assert_eq!(first.summary.hits, p.stages.len(), "all stages rebased");
        assert_eq!(first.summary.misses, 0);
        assert!(first.summary.store_size > 0);
        // The cache-warm check (same mode) reports zero, like
        // step1_time.
        let second = on_reports[1].as_verify().expect("verify");
        assert_eq!(second.summary.hits + second.summary.misses, 0);
    }
}

#[test]
fn report_json_carries_summary_counters() {
    let p = router();
    let store = SummaryStore::shared();
    let mut v = Verifier::new(&p)
        .config(cfg())
        .with_store(Arc::clone(&store));
    let r = v.check(Property::CrashFreedom);
    let json = r.to_json();
    assert!(
        json.contains(
            "\"summary\":{\"hits\":0,\"misses\":4,\"store_size\":4,\
             \"store_loads\":0,\"store_writes\":0,\"load_bytes\":0,\
             \"fork_queries\":"
        ),
        "cold session executes every stage: {json}"
    );
    // Step 1's solver work is on the line, and it reused its prefix.
    let s = r.as_verify().expect("verify").summary;
    assert!(s.fork_queries >= s.fork_sat_calls && s.fork_sat_calls > 0);
    assert!(s.fork_blast_cache_hits > 0 && s.fork_learnt_reused > 0);
    let mut v2 = Verifier::new(&p)
        .config(cfg())
        .with_store(Arc::clone(&store));
    let r2 = v2.check(Property::CrashFreedom);
    assert!(
        r2.to_json().contains(
            "\"summary\":{\"hits\":4,\"misses\":0,\"store_size\":4,\
             \"store_loads\":0,\"store_writes\":0,\"load_bytes\":0,\
             \"fork_queries\":0,\"fork_sat_calls\":0,\
             \"fork_blast_cache_hits\":0,\"fork_learnt_reused\":0}"
        ),
        "warm session is all hits, and a hit adds no solver work: {}",
        r2.to_json()
    );
}

#[test]
fn fleet_matches_individual_sessions_and_is_schedule_independent() {
    let fibs: Vec<Vec<(u32, u32, u32)>> = (0..4)
        .map(|i| vec![(0x0A00_0000 + (i << 16), 16, i), (0x0B00_0000, 8, 9)])
        .collect();
    let props = [Property::CrashFreedom, Property::Bounded { imax: 5_000 }];

    let build_fleet = |threads: usize| {
        let mut fleet = Fleet::new().config(cfg()).threads(threads);
        for (i, fib) in fibs.iter().enumerate() {
            fleet = fleet.variant(format!("fib-{i}"), lookup_variant(fib.clone()));
        }
        fleet.properties(&props).run()
    };

    let seq = build_fleet(1);
    let par = build_fleet(4);

    assert!(
        seq.summary_hits > 0,
        "variants share elements: the store must hit"
    );

    // Reference: one private session per (variant, property).
    for (i, fib) in fibs.iter().enumerate() {
        let p = lookup_variant(fib.clone());
        let mut v = Verifier::new(&p).config(cfg());
        for (j, prop) in props.iter().enumerate() {
            let reference = v.check(prop.clone());
            for fleet_run in [&seq, &par] {
                assert_identical_reports(
                    reference.as_verify().expect("verify"),
                    fleet_run.variants[i].reports[j]
                        .as_verify()
                        .expect("verify"),
                    &format!("variant {i} prop {j}"),
                );
            }
        }
    }

    // Both properties are Abstract-mode and the variants differ in
    // table contents only: one search per property, run for variant 0
    // and replayed to the rest — whatever the schedule.
    for (fleet_run, what) in [(&seq, "seq"), (&par, "par")] {
        assert_eq!(fleet_run.classes, 2, "{what}");
        assert_eq!(fleet_run.checks_replayed(), 6, "{what}");
        for (i, v) in fleet_run.variants.iter().enumerate() {
            assert_eq!(v.replayed, [i > 0, i > 0], "{what}: variant {i}");
        }
    }

    // Aggregates agree across schedules.
    assert_eq!(seq.disproved(), par.disproved());
    assert_eq!(seq.all_proved(), par.all_proved());
    let json = seq.to_json();
    assert!(json.contains("\"kind\":\"fleet\""), "{json}");
    assert!(json.contains("\"summary_hits\""), "{json}");
    assert!(
        json.contains(&format!("\"fork_queries\":{},", seq.fork.queries)),
        "{json}"
    );
    assert!(seq.fork.blast_cache_hits > 0, "step 1 reused its prefix");
    assert!(
        json.contains("\"classes\":2,\"checks_replayed\":6"),
        "{json}"
    );
    assert!(json.contains("fib-3"), "{json}");
    assert!(seq.to_string().contains("8 checks in 2 classes"), "{seq}");
}

#[test]
fn fleet_abstract_checks_share_across_table_variants() {
    // Variants differing ONLY in table contents: abstract-mode keys
    // ignore tables, so the three checks are one equivalence class —
    // one session summarizes and searches, nobody else touches the
    // store at all.
    let fibs: Vec<Vec<(u32, u32, u32)>> = (0..3).map(|i| vec![(0x0A00_0000, 8, i)]).collect();
    let mut fleet = Fleet::new().config(cfg()).threads(1);
    for (i, fib) in fibs.iter().enumerate() {
        fleet = fleet.variant(format!("v{i}"), lookup_variant(fib.clone()));
    }
    let report = fleet.properties(&[Property::CrashFreedom]).run();
    let stages = 3;
    assert_eq!(report.classes, 1, "three table-only variants, one search");
    assert_eq!(
        report.summary_misses as usize, stages,
        "step 1 executes once per distinct element, not per variant"
    );
    assert_eq!(
        report.summary_hits, 0,
        "replayed members never consult the store"
    );
    for (i, fib) in fibs.iter().enumerate() {
        let p = lookup_variant(fib.clone());
        let reference = Verifier::new(&p)
            .config(cfg())
            .check(Property::CrashFreedom)
            .expect_verify();
        assert_identical_reports(
            &reference,
            report.variants[i].reports[0].as_verify().expect("verify"),
            &format!("variant {i}"),
        );
        assert_eq!(report.variants[i].replayed, [i > 0]);
    }
}

/// A replayed member ran nothing, so its report attributes no step-1
/// work: summed over every report, the step-1 counters are what the
/// fleet's store did — not that times the class size.
#[test]
fn fleet_replays_attribute_no_step1_work() {
    let fibs: Vec<Vec<(u32, u32, u32)>> = (0..3).map(|i| vec![(0x0A00_0000, 8, i)]).collect();
    for threads in [1usize, 4] {
        let mut fleet = Fleet::new().config(cfg()).threads(threads);
        for (i, fib) in fibs.iter().enumerate() {
            fleet = fleet.variant(format!("v{i}"), lookup_variant(fib.clone()));
        }
        let report = fleet.properties(&[Property::CrashFreedom]).run();
        let reports: Vec<&VerifyReport> = report
            .variants
            .iter()
            .flat_map(|v| &v.reports)
            .map(|r| r.as_verify().expect("verify"))
            .collect();
        let sum = |f: fn(&VerifyReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
        assert_eq!(
            (
                sum(|r| r.summary.hits as u64),
                sum(|r| r.summary.misses as u64),
                sum(|r| r.summary.fork_queries),
            ),
            (
                report.summary_hits,
                report.summary_misses,
                report.fork.queries
            ),
            "threads={threads}: reports sum to the store's step-1 work"
        );
        assert!(report.summary_misses > 0 && report.fork.queries > 0);

        let searched = reports[0];
        for (r, v) in reports.iter().zip(&report.variants).skip(1) {
            assert_eq!(v.replayed, [true]);
            assert_eq!(r.summary.hits + r.summary.misses, 0, "{}", v.variant);
            assert_eq!(r.summary.fork_queries, 0, "{}", v.variant);
            assert_eq!(r.summary.store_size, searched.summary.store_size);
            assert_eq!(r.step1_time + r.step2_time, std::time::Duration::ZERO);
            // What the search decided is the member's, counts included.
            assert_identical_reports(searched, r, &v.variant);
            assert_eq!(r.suspects, searched.suspects);
            assert_eq!(r.solver.queries, searched.solver.queries);
            assert_eq!(r.cores.cores_learned, searched.cores.cores_learned);
        }
    }
}

/// A firewalled router front whose unguarded DecTTL reads past short
/// packets (crash-freedom is disproved) and whose filtering verdict depends on
/// the blacklist contents.
fn firewalled(name: &str, blacklist: Vec<u32>) -> Pipeline {
    to_pipeline(
        name,
        vec![
            elements::classifier::classifier(),
            elements::dec_ttl::dec_ttl(),
            elements::ip_filter::ip_filter(blacklist),
            elements::ip_options::ip_options(1, Some(ROUTER_IP)),
        ],
    )
}

/// Runs counterexample bytes through the concrete dataplane.
fn run_concretely(p: &Pipeline, bytes: &[u8]) -> PipelineOutcome {
    let stores = elements::pipelines::build_all_stores(p);
    let mut r = Runner::new(p.clone(), stores);
    r.fuel_per_stage = 20_000;
    r.run_packet(&mut dpir::PacketData::new(bytes.to_vec()))
}

#[test]
fn fleet_classes_split_where_step2_could_differ() {
    const BAD: u32 = 0x0BAD_0001;
    // ARP frames forwarded instead of dropped: same elements, one
    // port re-routed.
    let mut rerouted = firewalled("rerouted", vec![BAD]);
    let classifier = rerouted.stages.remove(0);
    rerouted.stages.insert(0, classifier.route(1, Route::Next));
    // The options loop composed one iteration further: same programs,
    // same routes, a different search.
    let mut longer_loop = firewalled("longer-loop", vec![BAD]);
    match &mut longer_loop.stages[3].element.kind {
        ElementKind::Loop { max_iters, .. } => *max_iters += 1,
        ElementKind::Straight(_) => panic!("IPoptions is a loop element"),
    }
    let variants = [
        firewalled("base", vec![BAD]),
        // Equal contents under another name: shares everything a key
        // can speak for.
        firewalled("twin", vec![BAD]),
        // Another blacklist: table-blind checks share, filtering (which
        // reads the table) must not — here the verdict even differs.
        firewalled("other-acl", vec![0x0BAD_0002]),
        rerouted,
        longer_loop,
    ];
    let props = [
        Property::CrashFreedom,
        Property::Filter(FilterProperty::src(BAD)),
    ];
    let expect_replayed = [
        [false, false],
        [true, true],
        [true, false],
        [false, false],
        [false, false],
    ];

    for threads in [1usize, 4] {
        let mut fleet = Fleet::new().config(cfg()).threads(threads);
        for p in &variants {
            fleet = fleet.variant(p.name.clone(), p.clone());
        }
        let report = fleet.properties(&props).run();
        // crash-freedom 3 + filtering 4.
        assert_eq!(report.classes, 7, "threads={threads}");
        assert_eq!(report.checks_replayed(), 3);

        let mut disproved_replays = 0;
        for ((p, v), replayed) in variants.iter().zip(&report.variants).zip(expect_replayed) {
            assert_eq!(v.replayed, replayed, "{}", p.name);
            let mut reference = Verifier::new(p).config(cfg());
            for ((prop, r), was_replayed) in props.iter().zip(&v.reports).zip(replayed) {
                let r = r.as_verify().expect("verify");
                let what = format!("{} / {} threads={threads}", p.name, r.property);
                // A class of one is exactly a standalone session; a
                // replayed report must be indistinguishable from one.
                let standalone = reference.check(prop.clone()).expect_verify();
                assert_identical_reports(&standalone, r, &what);
                assert_eq!(r.pipeline, p.name, "{what}: the member's own name");
                // Whoever searched, the bytes must do on *this*
                // member's concrete dataplane what the verdict says.
                if let Verdict::Disproved(cex) = &r.verdict {
                    let out = run_concretely(p, &cex.bytes);
                    match prop {
                        Property::Filter(_) => assert!(
                            matches!(out, PipelineOutcome::Delivered(_)),
                            "{what}: {out:?}"
                        ),
                        _ => assert!(
                            matches!(out, PipelineOutcome::Crashed { .. }),
                            "{what}: {out:?}"
                        ),
                    }
                    disproved_replays += usize::from(was_replayed);
                }
            }
        }
        assert!(
            disproved_replays >= 2,
            "a Disproved report is fanned out to twin and other-acl"
        );
        // The verdict that must not leak across blacklists.
        let filtering = |i: usize| report.variants[i].reports[1].verdict().expect("verify");
        assert!(filtering(0).is_proved(), "base blocks BAD");
        assert!(filtering(1).is_proved(), "twin blocks BAD");
        assert!(filtering(2).is_disproved(), "other-acl lets BAD through");
    }
}

/// A lookup variant whose IPlookup program jumps past its last block:
/// structurally invalid, so step 1 panics indexing the missing block.
fn jump_past_the_end() -> Pipeline {
    let mut p = lookup_variant(vec![(0x0C00_0000, 8, 0)]);
    match &mut p.stages[2].element.kind {
        ElementKind::Straight(prog) => {
            let past = dpir::BlockId(prog.blocks.len() as u32);
            prog.blocks[0].term = dpir::Terminator::Jump(past);
        }
        ElementKind::Loop { .. } => panic!("IPlookup is a straight element"),
    }
    p
}

#[test]
fn fleet_panicking_check_degrades_to_unknown_for_its_class_only() {
    let props = [Property::CrashFreedom, Property::Bounded { imax: 5_000 }];
    for threads in [1usize, 3] {
        let report = Fleet::new()
            .config(cfg())
            .threads(threads)
            .variant("a", lookup_variant(vec![(0x0A00_0000, 8, 0)]))
            .variant("broken", jump_past_the_end())
            .variant("b", lookup_variant(vec![(0x0B00_0000, 8, 1)]))
            .properties(&props)
            .run();
        // The table-only pair shares both classes; the broken variant's
        // program differs, so it has two classes of its own.
        assert_eq!(report.classes, 4, "threads={threads}");
        let names = ["crash-freedom", "bounded-execution (imax=5000)"];
        for v in &report.variants {
            for (name, r) in names.iter().zip(&v.reports) {
                let what = format!("{} {name} threads={threads}", v.variant);
                assert_eq!(r.property(), *name, "{what}");
                let verdict = r.verdict().expect("verify");
                if v.variant != "broken" {
                    assert!(verdict.is_proved(), "{what}: {verdict:?}");
                    continue;
                }
                match verdict {
                    Verdict::Unknown(why) => assert!(
                        why.starts_with("internal: check panicked: index out of bounds"),
                        "{what}: {why}"
                    ),
                    other => panic!("{what}: expected an internal Unknown, got {other:?}"),
                }
            }
        }
    }
}

#[test]
fn racing_misses_on_one_key_execute_once() {
    const N: usize = 6;
    let p = to_pipeline("one", vec![elements::ip_options::ip_options(2, None)]);
    let sym = cfg().sym;
    let store = SummaryStore::new();
    let barrier = std::sync::Barrier::new(N);
    let race = |sym: &SymConfig| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    s.spawn(|| {
                        let mut pool = TermPool::new();
                        barrier.wait();
                        summarize_pipeline_with_store(
                            &mut pool,
                            &p,
                            sym,
                            MapMode::Abstract,
                            &store,
                            1,
                        )
                        .is_ok()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no deadlock, no panic"))
                .collect::<Vec<bool>>()
        })
    };

    // A failing execution (state budget of one) must wake its waiters,
    // who then run — and fail — themselves: nobody is stranded behind
    // a marker, nothing is cached.
    let starved = SymConfig {
        max_states: 1,
        ..sym.clone()
    };
    assert_eq!(race(&starved), [false; N]);
    assert_eq!((store.misses(), store.hits(), store.len()), (0, 0, 0));

    // All N miss together; one executes, the rest wait and are served
    // as hits.
    assert_eq!(race(&sym), [true; N]);
    assert_eq!(store.misses(), 1, "one execution per key");
    assert_eq!(store.hits(), N as u64 - 1, "waiters take the hit path");
    assert_eq!(store.len(), 1);
}
