//! Persistent-store integration: disk-loaded summaries must be
//! byte-indistinguishable from freshly built ones, corrupt store
//! files must degrade to cache misses (never wrong answers, never
//! panics), and [`ChurnSession::apply_batch`] must coalesce a burst of
//! deltas into one re-verification that matches applying them one by
//! one.
//!
//! The equality bar is the same as the incremental/churn differential
//! suites: verdict labels, counterexample bytes, descriptions, traces
//! and composed-path counts — cache temperature may only change who
//! executes, never what is concluded.

use dataplane::{
    DeltaError, Pipeline, TableConfig, TableContents, TableDelta, TableKindError, TableOp,
};
use elements::pipelines::{core_fib, edge_fib, ip_router, to_pipeline, ROUTER_IP};
use std::path::PathBuf;
use std::sync::Arc;
use symexec::SymConfig;
use verifier::{
    ChurnSession, FilterProperty, Property, ReuseLevel, SummaryKey, SummaryStore, Verdict,
    Verifier, VerifyConfig, VerifyReport,
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

/// A table-bearing router: exact-match firewall + LPM FIB, so the
/// property set below exercises both map modes.
fn router() -> Pipeline {
    to_pipeline(
        "persist-router",
        vec![
            elements::classifier::classifier(),
            elements::check_ip_header::check_ip_header(false),
            elements::ip_filter::ip_filter(vec![0x0BAD_0001, 0x0BAD_0010]),
            elements::ip_lookup::ip_lookup(4, edge_fib()),
        ],
    )
}

fn props() -> Vec<Property> {
    vec![
        Property::CrashFreedom,
        Property::Bounded { imax: 10_000 },
        Property::Filter(FilterProperty::src(0x0BAD_0001)),
    ]
}

/// A per-test scratch directory, removed on drop.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("dpv-persist-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TmpDir(dir)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `(file name, contents)` of every file in `dir`, sorted by name.
fn dir_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("store dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().into_string().expect("utf-8 file name");
            (name, std::fs::read(e.path()).expect("readable store file"))
        })
        .collect();
    files.sort();
    files
}

fn assert_identical(a: &VerifyReport, b: &VerifyReport, what: &str) {
    match (&a.verdict, &b.verdict) {
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
        a.composed_paths, b.composed_paths,
        "{what}: composed-path count differs"
    );
}

fn check_all(p: &Pipeline, store: Option<Arc<SummaryStore>>) -> Vec<VerifyReport> {
    let mut v = Verifier::new(p).config(cfg());
    if let Some(s) = store {
        v = v.with_store(s);
    }
    v.check_all(&props())
        .into_iter()
        .map(|r| r.expect_verify())
        .collect()
}

#[test]
fn disk_loaded_summaries_match_fresh_builds_byte_for_byte() {
    let tmp = TmpDir::new("roundtrip");
    let p = router();
    let baseline = check_all(&p, None);

    // Cold disk: everything executes, everything is written back.
    let cold_store = Arc::new(SummaryStore::persistent(&tmp.0).expect("store dir"));
    let cold = check_all(&p, Some(Arc::clone(&cold_store)));
    for (b, c) in baseline.iter().zip(&cold) {
        assert_identical(b, c, &format!("cold-disk {}", b.property));
    }
    assert!(cold_store.store_writes() > 0, "cold run must persist");
    assert_eq!(cold_store.store_loads(), 0, "nothing to load yet");

    // Warm disk, cold memory — a fresh store over the same directory
    // simulates a process restart. Step 1 must be all loads, zero
    // executions, and every report byte-identical.
    let warm_store = Arc::new(SummaryStore::persistent(&tmp.0).expect("store dir"));
    let warm = check_all(&p, Some(Arc::clone(&warm_store)));
    for (b, w) in baseline.iter().zip(&warm) {
        assert_identical(b, w, &format!("warm-disk {}", b.property));
    }
    assert_eq!(warm_store.misses(), 0, "warm disk must not re-execute");
    assert!(warm_store.store_loads() > 0);
    assert!(warm_store.load_bytes() > 0);

    // The counters surface on the report (attributed to the building
    // check) and in its JSON line.
    let first = &warm[0];
    assert!(
        first.summary.store_loads > 0,
        "building check must report its disk loads: {:?}",
        first.summary
    );
    let j = first.to_json();
    assert!(j.contains("\"store_loads\":"), "{j}");
    assert!(j.contains("\"store_writes\":"), "{j}");
    assert!(j.contains("\"load_bytes\":"), "{j}");
}

#[test]
fn corrupt_store_files_degrade_to_misses_never_wrong_answers() {
    let tmp = TmpDir::new("corrupt");
    let p = to_pipeline(
        "corrupt-probe",
        vec![
            elements::classifier::classifier(),
            elements::dec_ttl::dec_ttl(),
        ],
    );
    let baseline = check_all(&p, None);

    let populate = Arc::new(SummaryStore::persistent(&tmp.0).expect("store dir"));
    check_all(&p, Some(populate));
    let files: Vec<PathBuf> = std::fs::read_dir(&tmp.0)
        .expect("dir")
        .map(|e| e.expect("entry").path())
        .collect();
    assert!(!files.is_empty(), "populate run must write store files");
    let images: Vec<Vec<u8>> = files
        .iter()
        .map(|f| std::fs::read(f).expect("readable"))
        .collect();

    // Each mutilation is applied to every file at once; the run over
    // the damaged directory must still agree with the fresh baseline
    // (bad files are misses that re-execute and are overwritten).
    type Mutilation = Box<dyn Fn(&[u8]) -> Vec<u8>>;
    let mutilate: [(&str, Mutilation); 4] = [
        ("truncated", Box::new(|b: &[u8]| b[..b.len() / 2].to_vec())),
        ("emptied", Box::new(|_| Vec::new())),
        (
            "bit-flipped",
            Box::new(|b: &[u8]| {
                let mut v = b.to_vec();
                let mid = v.len() / 2;
                v[mid] ^= 0x10;
                v
            }),
        ),
        (
            "version-bumped",
            Box::new(|b: &[u8]| {
                let mut v = b.to_vec();
                v[4] = v[4].wrapping_add(1); // format-version word
                v
            }),
        ),
    ];
    for (what, f) in &mutilate {
        for (path, image) in files.iter().zip(&images) {
            std::fs::write(path, f(image)).expect("write corrupt image");
        }
        let store = Arc::new(SummaryStore::persistent(&tmp.0).expect("store dir"));
        let got = check_all(&p, Some(Arc::clone(&store)));
        for (b, g) in baseline.iter().zip(&got) {
            assert_identical(b, g, &format!("{what} {}", b.property));
        }
        assert!(
            store.misses() > 0,
            "{what}: damaged files must fall back to execution"
        );
    }

    // The corrupt runs re-wrote good files; the directory is warm
    // again.
    let healed = Arc::new(SummaryStore::persistent(&tmp.0).expect("store dir"));
    let got = check_all(&p, Some(Arc::clone(&healed)));
    for (b, g) in baseline.iter().zip(&got) {
        assert_identical(b, g, &format!("healed {}", b.property));
    }
    assert_eq!(healed.misses(), 0, "write-back must heal the store");
}

fn fib_delta(op: TableOp) -> TableDelta {
    TableDelta::new("IPlookup", dpir::MapId(0), op)
}

fn filter_delta(op: TableOp) -> TableDelta {
    TableDelta::new("IPFilter", dpir::MapId(0), op)
}

fn burst() -> Vec<TableDelta> {
    vec![
        filter_delta(TableOp::ExactRemove(vec![0x0BAD_0001])),
        fib_delta(TableOp::LpmInsert(vec![(0x0C00_0000, 8, 2)])),
        filter_delta(TableOp::ExactInsert(vec![(0x0BAD_0099, 1)])),
        fib_delta(TableOp::LpmInsert(vec![(0x0C00_0000, 16, 3)])),
    ]
}

#[test]
fn apply_batch_matches_one_by_one_deltas() {
    let mk = || {
        let mut s = ChurnSession::new(router(), props(), cfg(), ReuseLevel::Sessions)
            .expect("search-based properties");
        s.verify();
        s
    };
    let mut serial = mk();
    let mut last = None;
    for d in &burst() {
        last = Some(serial.apply_delta(d).expect("valid delta"));
    }
    let serial_final = last.expect("non-empty burst");

    let mut batched = mk();
    let batch_report = batched.apply_batch(&burst()).expect("valid burst");
    // The oracle: a fresh verifier over the configuration the burst left.
    let fresh = check_all(batched.pipeline(), None);

    assert_eq!(batch_report.update, 1, "one burst, one update");
    assert_eq!(batch_report.reports.len(), fresh.len());
    for ((s, b), f) in serial_final
        .reports
        .iter()
        .zip(&batch_report.reports)
        .zip(&fresh)
    {
        assert_identical(s, b, &format!("batch-vs-serial {}", s.property));
        assert_identical(f, b, &format!("batch-vs-fresh {}", f.property));
    }
    // The burst touches two stages; each re-summarizes at most once
    // however many deltas hit it.
    assert!(
        batch_report.stages_reexecuted + batch_report.stages_rebased <= 2,
        "burst must coalesce per stage: {} reexecuted + {} rebased",
        batch_report.stages_reexecuted,
        batch_report.stages_rebased
    );
}

/// The router with a `DecTTL` and an options stage: both table kinds,
/// six stages, twelve summaries.
fn firewalled_edge() -> Pipeline {
    to_pipeline(
        "firewalled-edge",
        vec![
            elements::classifier::classifier(),
            elements::check_ip_header::check_ip_header(false),
            elements::ip_filter::ip_filter(vec![0x0BAD_0001, 0x0BAD_0010]),
            elements::dec_ttl::dec_ttl(),
            elements::ip_options::ip_options(1, Some(ROUTER_IP)),
            elements::ip_lookup::ip_lookup(4, edge_fib()),
        ],
    )
}

/// The step-1 work a report attributes to its own check: store hits
/// and misses, disk loads, writes and bytes, and the fork-solver work
/// of the executed stages.
fn step1_work(r: &VerifyReport) -> [u64; 9] {
    let s = &r.summary;
    [
        s.hits as u64,
        s.misses as u64,
        s.store_loads,
        s.store_writes,
        s.load_bytes,
        s.fork_queries,
        s.fork_sat_calls,
        s.fork_blast_cache_hits,
        s.fork_learnt_reused,
    ]
}

/// A churn session's reports attribute step 1 the way a `Verifier`'s
/// do — the check whose step 1 built or patched a mode reports that
/// work, every other report zero — on a cold store and on a restarted
/// one, so an update's reports sum to exactly what the update did.
#[test]
fn churn_step1_counters_follow_the_verifier_rule() {
    let (verifier_dir, churn_dir) = (TmpDir::new("attr-verifier"), TmpDir::new("attr-churn"));
    // A source no table holds yet: the firewall's Tables summary moves.
    let delta = filter_delta(TableOp::ExactInsert(vec![(0x0BAD_0099, 1)]));
    for start in ["cold", "restarted"] {
        let verifier_store =
            Arc::new(SummaryStore::persistent(&verifier_dir.0).expect("store dir"));
        let expect: Vec<[u64; 9]> = check_all(&firewalled_edge(), Some(verifier_store))
            .iter()
            .map(step1_work)
            .collect();
        let mut session =
            ChurnSession::new(firewalled_edge(), props(), cfg(), ReuseLevel::Sessions)
                .expect("search-based properties")
                .with_store_path(&churn_dir.0)
                .expect("store dir");
        let loads0 = session.store().store_loads();
        let initial = session.verify();
        let got: Vec<[u64; 9]> = initial.reports.iter().map(step1_work).collect();
        assert_eq!(
            got, expect,
            "{start} store: verify() vs Verifier::check_all"
        );
        let loads1 = session.store().store_loads();
        let update = session.apply_delta(&delta).expect("valid delta");
        assert!(!update.replayed[2], "{start} store: filtering must search");
        assert_eq!(
            update.stages_rebased + update.stages_reexecuted,
            1,
            "{start} store: one stage re-keyed"
        );
        for (u, (report, loads)) in [
            (&initial, loads1 - loads0),
            (&update, session.store().store_loads() - loads1),
        ]
        .into_iter()
        .enumerate()
        {
            let sum = |f: fn(&VerifyReport) -> u64| report.reports.iter().map(f).sum::<u64>();
            assert_eq!(
                (
                    sum(|r| r.summary.hits as u64),
                    sum(|r| r.summary.misses as u64)
                ),
                (
                    report.stages_rebased as u64,
                    report.stages_reexecuted as u64
                ),
                "{start} store, update {u}: reports vs update (hits, misses)"
            );
            assert_eq!(
                sum(|r| r.summary.store_loads),
                loads,
                "{start} store, update {u}: reported loads vs the store's"
            );
        }
    }
}

#[test]
fn apply_batch_cancelling_burst_is_a_no_op_update() {
    let mut session = ChurnSession::new(router(), props(), cfg(), ReuseLevel::Sessions)
        .expect("search-based properties");
    let initial = session.verify();
    // Insert-then-remove cancels: the net table state is unchanged, so
    // at Sessions level every property replays without searching.
    let report = session
        .apply_batch(&[
            filter_delta(TableOp::ExactInsert(vec![(0x0BAD_7777, 1)])),
            filter_delta(TableOp::ExactRemove(vec![0x0BAD_7777])),
        ])
        .expect("valid burst");
    assert!(
        report.replayed.iter().all(|&r| r),
        "cancelled burst must replay every property: {:?}",
        report.replayed
    );
    assert_eq!(report.stages_reexecuted, 0);
    assert_eq!(report.stages_rebased, 0);
    for (i, b) in initial.reports.iter().zip(&report.reports) {
        assert_identical(i, b, &format!("cancelled burst {}", i.property));
    }
}

#[test]
fn apply_batch_is_atomic_on_error() {
    let mut session = ChurnSession::new(router(), props(), cfg(), ReuseLevel::Sessions)
        .expect("search-based properties");
    session.verify();
    let keys_before: Vec<SummaryKey> = session
        .pipeline()
        .stages
        .iter()
        .map(|s| SummaryKey::of(&s.element, verifier::MapMode::Tables, &cfg().sym))
        .collect();
    let err = session.apply_batch(&[
        filter_delta(TableOp::ExactInsert(vec![(0x0BAD_4242, 1)])),
        TableDelta::new(
            "NoSuchElement",
            dpir::MapId(0),
            TableOp::ExactRemove(vec![1]),
        ),
    ]);
    assert!(err.is_err(), "batch with an invalid delta must fail");
    let keys_after: Vec<SummaryKey> = session
        .pipeline()
        .stages
        .iter()
        .map(|s| SummaryKey::of(&s.element, verifier::MapMode::Tables, &cfg().sym))
        .collect();
    assert_eq!(
        keys_before, keys_after,
        "a failed batch must leave every table untouched (first delta included)"
    );
}

#[test]
fn apply_batch_validates_against_the_kinds_its_replaces_install() {
    let mut session = ChurnSession::new(router(), props(), cfg(), ReuseLevel::Sessions)
        .expect("search-based properties");
    session.verify();
    let before = tables_of(session.pipeline());
    let fib_to_exact = || fib_delta(TableOp::Replace(TableConfig::exact(vec![(0x0C00_0000, 2)])));

    // The FIB is exact by the time the second delta lands: an LPM op
    // no longer fits, whatever the table was when the burst arrived.
    let err = session
        .apply_batch(&[
            fib_to_exact(),
            fib_delta(TableOp::LpmInsert(vec![(0x0C00_0000, 8, 2)])),
        ])
        .expect_err("LPM op on a table the burst made exact");
    assert!(matches!(
        err,
        DeltaError::KindMismatch {
            kind: TableKindError::ExpectedLpm,
            ..
        }
    ));
    let err = session
        .apply_batch(&[
            filter_delta(TableOp::ExactInsert(vec![(0x0BAD_4242, 1)])),
            fib_delta(TableOp::LpmInsert(vec![(0x0C00_0000, 8, 2)])),
            TableDelta::new(
                "NoSuchElement",
                dpir::MapId(0),
                TableOp::ExactRemove(vec![1]),
            ),
        ])
        .expect_err("third delta names no stage");
    assert_eq!(err, DeltaError::NoSuchStage("NoSuchElement".into()));
    assert_eq!(tables_of(session.pipeline()), before);
    assert_eq!(session.stats().updates, 0, "a rejected burst is no update");

    // ... and an exact op, which the table as it stands would refuse,
    // does.
    let report = session
        .apply_batch(&[
            fib_to_exact(),
            fib_delta(TableOp::ExactInsert(vec![(0x0D00_0000, 3)])),
        ])
        .expect("exact op on a table the burst made exact");
    assert_eq!(report.update, 1);
    assert_eq!(session.stats().updates, 1);
    let fib = &session.pipeline().stages[3].element.tables[0].1;
    assert_eq!(fib.as_pairs(), [(0x0C00_0000, 2), (0x0D00_0000, 3)]);
}

/// Every table of every stage, entry order included.
fn tables_of(p: &Pipeline) -> Vec<Vec<(dpir::MapId, TableContents, u128)>> {
    p.stages
        .iter()
        .map(|s| {
            s.element
                .tables
                .iter()
                .map(|(m, c)| (*m, c.contents().clone(), c.pairs_fingerprint()))
                .collect()
        })
        .collect()
}

/// A session outlives a rejected burst at the table size the
/// allocation guards are stated for: nothing of the rejected burst
/// stays behind, and the bursts around it still match a session fed
/// one delta at a time.
#[test]
fn rejected_burst_on_a_100k_route_fib_leaves_no_trace() {
    let core_router = || to_pipeline("core-router", ip_router(7, 1, core_fib(100_000)));
    // Table-blind properties: no Tables-mode term over 100 k routes.
    let abstract_props = || vec![Property::CrashFreedom, Property::Bounded { imax: 10_000 }];
    let mk = || {
        let mut s = ChurnSession::new(core_router(), abstract_props(), cfg(), ReuseLevel::Sessions)
            .expect("search-based properties");
        s.verify();
        s
    };
    // core_fib(n) holds 0.x.y.0/24 → i % 4; 224.0.0.0/3 is outside it.
    let valid = vec![
        fib_delta(TableOp::LpmInsert(vec![(0xE000_0100, 24, 1)])),
        fib_delta(TableOp::LpmRemove(vec![(7 << 8, 24)])),
        fib_delta(TableOp::LpmInsert(vec![
            (9 << 8, 24, 3),
            (0xE000_0200, 24, 2),
        ])),
    ];
    let inverse = vec![
        fib_delta(TableOp::LpmRemove(vec![
            (0xE000_0100, 24),
            (0xE000_0200, 24),
        ])),
        fib_delta(TableOp::LpmInsert(vec![(7 << 8, 24, 7 % 4)])),
        fib_delta(TableOp::LpmInsert(vec![(9 << 8, 24, 9 % 4)])),
    ];
    let rejected = vec![
        fib_delta(TableOp::LpmInsert(vec![(0xE000_0300, 24, 0)])),
        fib_delta(TableOp::LpmRemove(vec![(11 << 8, 24)])),
        fib_delta(TableOp::ExactInsert(vec![(0xE000_0400, 1)])),
        fib_delta(TableOp::LpmRemove(vec![(13 << 8, 24)])),
    ];

    let mut batched = mk();
    let mut serial = mk();
    let mut fresh = core_router();
    let mut updates = 0;
    for (what, burst, fits) in [
        ("valid", &valid, true),
        ("rejected", &rejected, false),
        ("inverse", &inverse, true),
    ] {
        if !fits {
            let err = batched
                .apply_batch(burst)
                .expect_err("exact op on the LPM FIB");
            assert_eq!(
                err,
                DeltaError::KindMismatch {
                    stage: "IPlookup".into(),
                    map: dpir::MapId(0),
                    kind: TableKindError::ExpectedExact,
                }
            );
        } else {
            let report = batched.apply_batch(burst).expect("valid burst");
            updates += 1;
            let mut last = None;
            for d in burst {
                d.apply(&mut fresh).expect("valid delta");
                last = Some(serial.apply_delta(d).expect("valid delta"));
            }
            let last = last.expect("non-empty burst");
            for (s, b) in last.reports.iter().zip(&report.reports) {
                assert_identical(s, b, &format!("{what} burst, {}", s.property));
            }
        }
        assert_eq!(batched.stats().updates, updates, "after the {what} burst");
        assert!(
            tables_of(batched.pipeline()) == tables_of(&fresh),
            "after the {what} burst the pipeline holds exactly the valid deltas"
        );
    }
    let fib = &batched.pipeline().stages[5].element.tables[0].1;
    assert_eq!(
        fib.pairs_fingerprint(),
        core_router().stages[5].element.tables[0]
            .1
            .pairs_fingerprint()
    );
}

#[test]
fn churn_session_restarts_warm_from_store_path() {
    let tmp = TmpDir::new("churn-restart");
    let stream = burst();

    // Reference trajectory without any persistence.
    let mut plain = ChurnSession::new(router(), props(), cfg(), ReuseLevel::Sessions)
        .expect("search-based properties");
    let mut expect = vec![plain.verify()];
    for d in &stream {
        expect.push(plain.apply_delta(d).expect("valid delta"));
    }

    // First "process": populates summaries on disk.
    let mut first = ChurnSession::new(router(), props(), cfg(), ReuseLevel::Sessions)
        .expect("search-based properties")
        .with_store_path(&tmp.0)
        .expect("store dir");
    let mut got = vec![first.verify()];
    for d in &stream {
        got.push(first.apply_delta(d).expect("valid delta"));
    }
    for (e, g) in expect.iter().zip(&got) {
        for (er, gr) in e.reports.iter().zip(&g.reports) {
            assert_identical(er, gr, &format!("first process {}", er.property));
        }
    }
    assert!(
        first.store().store_writes() > 0,
        "summaries must be persisted"
    );
    // The store holds one file kind: a summary per write, nothing else.
    let files = dir_files(&tmp.0);
    assert!(
        files
            .iter()
            .all(|(name, _)| name.starts_with("s-") && name.ends_with(".dpvs")),
        "only summary files belong in the store: {:?}",
        files.iter().map(|(name, _)| name).collect::<Vec<_>>()
    );
    assert_eq!(files.len() as u64, first.store().store_writes());
    drop(first);

    // Second "process" over the same directory and the same stream:
    // step 1 loads instead of executing.
    let mut second = ChurnSession::new(router(), props(), cfg(), ReuseLevel::Sessions)
        .expect("search-based properties")
        .with_store_path(&tmp.0)
        .expect("store dir");
    let mut got2 = vec![second.verify()];
    for d in &stream {
        got2.push(second.apply_delta(d).expect("valid delta"));
    }
    for (e, g) in expect.iter().zip(&got2) {
        for (er, gr) in e.reports.iter().zip(&g.reports) {
            assert_identical(er, gr, &format!("restarted process {}", er.property));
        }
    }
    assert!(
        second.store().store_loads() > 0,
        "restart must load summaries from disk"
    );
    assert_eq!(
        second.store().misses(),
        0,
        "the restarted process must never re-execute a stage"
    );
}

#[test]
fn stale_core_files_from_older_builds_are_never_touched() {
    let tmp = TmpDir::new("stale-cores");
    let mut first = ChurnSession::new(router(), props(), cfg(), ReuseLevel::Sessions)
        .expect("search-based properties")
        .with_store_path(&tmp.0)
        .expect("store dir");
    let expect = first.verify();
    drop(first);

    // What a build that still persisted learnt cores left behind.
    let junk = [
        (
            format!("c-a-{:032x}.dpvc", 0x1234u128),
            b"DPVS junk".to_vec(),
        ),
        (format!("c-t-{:032x}.dpvc", 0xabcdu128), vec![0xFF; 4096]),
    ];
    for (name, bytes) in &junk {
        std::fs::write(tmp.0.join(name), bytes).expect("seed junk file");
    }
    let before = dir_files(&tmp.0);

    let mut second = ChurnSession::new(router(), props(), cfg(), ReuseLevel::Sessions)
        .expect("search-based properties")
        .with_store_path(&tmp.0)
        .expect("store dir");
    let got = second.verify();
    for (er, gr) in expect.reports.iter().zip(&got.reports) {
        assert_identical(er, gr, &format!("beside stale files {}", er.property));
    }
    assert_eq!(second.store().misses(), 0, "the start must be warm");
    assert_eq!(
        dir_files(&tmp.0),
        before,
        "stale core files are neither read, rewritten nor deleted"
    );
}
