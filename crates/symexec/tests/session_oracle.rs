//! Oracle differential for step 1. The executor answers every fork
//! question on one [`bvsolve::SolveSession`] whose learnt clauses and
//! blasted prefix carry from question to question; the reference is a
//! fresh [`BvSolver`] per question, which shares none of that state.
//!
//! * every stock element program runs twice — once plain, once with
//!   each fork question also put to the reference — and the two runs
//!   must agree on every decided verdict, on the state counts and on
//!   every segment [`bvsolve::TermId`];
//! * the summary files those stages persist must be, name and bytes,
//!   the ones the fresh-solver executor wrote (goldens captured on the
//!   commit before the port), so a store directory written before the
//!   port still serves every stage;
//! * with a conflict budget of 0 or 1 the session answers `Unknown`
//!   mid-run: that must read as "feasible", and the session must keep
//!   answering correctly afterwards.

mod common;

use bvsolve::{BvSolver, SatVerdict, TermPool};
use dataplane::{Element, Pipeline};
use dpir::Program;
use elements::ip_fragmenter::{ip_fragmenter, FragmenterVariant};
use elements::pipelines::{
    edge_fib, ip_router, network_gateway, to_pipeline, NAT_PUBLIC_IP, NAT_PUBLIC_PORT, ROUTER_IP,
};
use std::collections::HashSet;
use symexec::{
    execute, execute_observed, AbstractMapModel, ExecReport, MapModel, SymConfig, SymInput,
    TableMapModel,
};
use verifier::{summarize_pipeline_with_store, MapMode, SummaryKey, SummaryStore};

/// The window every figure of the evaluation uses.
fn cfg() -> SymConfig {
    SymConfig {
        max_pkt_bytes: 48,
        ..Default::default()
    }
}

fn preproc() -> Vec<Element> {
    vec![
        elements::classifier::classifier(),
        elements::check_ip_header::check_ip_header(false),
    ]
}

/// The firewalled edge router: the one pipeline whose filtering
/// property summarizes its stages against their configured tables.
fn firewalled_edge() -> Pipeline {
    let mut v = preproc();
    v.push(elements::ip_filter::ip_filter(vec![
        0x0BAD_0001,
        0x0BAD_0010,
    ]));
    v.push(elements::dec_ttl::dec_ttl());
    v.push(elements::ip_options::ip_options(1, Some(ROUTER_IP)));
    v.push(elements::ip_lookup::ip_lookup(4, edge_fib()));
    to_pipeline("firewalled-edge", v)
}

/// The full router and gateway, the firewalled edge and the four
/// Table 3 bug pipelines.
fn stock_pipelines() -> Vec<Pipeline> {
    let frag = |name: &str, options: bool, variant| {
        let mut v = preproc();
        if options {
            v.push(elements::ip_options::ip_options(1, Some(ROUTER_IP)));
        }
        v.push(ip_fragmenter(variant, 40));
        to_pipeline(name, v)
    };
    let mut nat = preproc();
    nat.push(elements::nat::nat_click_buggy(
        NAT_PUBLIC_IP,
        NAT_PUBLIC_PORT,
        64,
    ));
    vec![
        to_pipeline("router", ip_router(7, 3, edge_fib())),
        to_pipeline("gateway", network_gateway(5)),
        firewalled_edge(),
        frag("bug1", true, FragmenterVariant::ClickBug1),
        frag("bug2-masked", true, FragmenterVariant::ClickBug2),
        frag("bug2-exposed", false, FragmenterVariant::ClickBug2),
        to_pipeline("bug3", nat),
    ]
}

/// The element's configured tables as an ITE-chain model.
fn table_model(e: &Element) -> TableMapModel {
    let mut m = TableMapModel::new();
    for (map, table) in &e.tables {
        m.set_table(*map, table.as_pairs().to_vec());
    }
    m
}

/// What the observer saw of one run's fork questions.
#[derive(Default)]
struct Asked {
    questions: u64,
    unknown: u64,
    /// Decided verdicts that came after an `Unknown`.
    decided_after_unknown: u64,
}

/// [`execute_observed`] with every fork question also put to a fresh,
/// budget-free [`BvSolver`]: a decided verdict that differs panics.
fn execute_checked(
    pool: &mut TermPool,
    prog: &Program,
    input: &SymInput,
    model: &mut dyn MapModel,
    cfg: &SymConfig,
) -> (ExecReport, Asked) {
    let mut asked = Asked::default();
    let report = execute_observed(pool, prog, input, model, cfg, &mut |pool, cs, got| {
        asked.questions += 1;
        let want = BvSolver::new().check(pool, cs);
        match got {
            SatVerdict::Sat(_) | SatVerdict::Unsat(_) => {
                assert_eq!(
                    (got.is_sat(), got.is_unsat()),
                    (want.is_sat(), want.is_unsat()),
                    "{}: question {} decided differently by the session and a fresh solver",
                    prog.name,
                    asked.questions
                );
                asked.decided_after_unknown += u64::from(asked.unknown > 0);
            }
            SatVerdict::Unknown | SatVerdict::Interrupted => asked.unknown += 1,
        }
    })
    .expect("within the state budget");
    (report, asked)
}

/// Runs `prog` plain and checked from fresh pools and requires the two
/// runs to be the same run. Returns the number of questions asked.
fn assert_oracle_agrees(prog: &Program, mut model: impl FnMut() -> Box<dyn MapModel>) -> u64 {
    let cfg = cfg();
    let mut plain_pool = TermPool::new();
    let input = SymInput::fresh(&mut plain_pool, &cfg, "e");
    let plain = execute(&mut plain_pool, prog, &input, &mut *model(), &cfg).expect("executes");

    let mut pool = TermPool::new();
    let input = SymInput::fresh(&mut pool, &cfg, "e");
    let (checked, asked) = execute_checked(&mut pool, prog, &input, &mut *model(), &cfg);

    let what = &prog.name;
    assert_eq!(
        asked.unknown, 0,
        "{what}: the stock budget decides everything"
    );
    assert_eq!(asked.questions, plain.solver_stats.queries, "{what}");
    assert_eq!(plain.states, checked.states, "{what}: states");
    assert_eq!(plain.pruned, checked.pruned, "{what}: pruned");
    assert_eq!(plain.segments.len(), checked.segments.len(), "{what}");
    // Debug prints every TermId of a segment (outcome, constraint,
    // pkt_out, len_out, metadata, map log): equal strings from equally
    // long pools mean the reference interned nothing and the same
    // terms were built in the same order.
    assert_eq!(plain_pool.len(), pool.len(), "{what}: pool size");
    assert_eq!(
        format!("{:?}", plain.segments),
        format!("{:?}", checked.segments),
        "{what}: segments"
    );
    asked.questions
}

#[test]
fn every_fork_verdict_matches_a_fresh_solver() {
    let cfg = cfg();
    let mut seen = HashSet::new();
    let mut questions = 0;
    for p in stock_pipelines() {
        for e in p.stages.iter().map(|s| &s.element) {
            if seen.insert(SummaryKey::of(e, MapMode::Abstract, &cfg)) {
                questions +=
                    assert_oracle_agrees(e.program(), || Box::new(AbstractMapModel::new()));
            }
            if !e.tables.is_empty() && seen.insert(SummaryKey::of(e, MapMode::Tables, &cfg)) {
                questions += assert_oracle_agrees(e.program(), || Box::new(table_model(e)));
            }
        }
    }
    let busy = common::busy_program();
    questions += assert_oracle_agrees(&busy, || Box::new(AbstractMapModel::new()));
    questions += assert_oracle_agrees(&busy, || {
        let mut m = TableMapModel::new();
        m.set_table(dpir::MapId(0), vec![(1, 10), (2, 20), (7, 70)]);
        Box::new(m)
    });
    assert!(questions > 300, "only {questions} fork questions compared");
}

/// `(file name, fingerprint128 of the file's bytes)` of every summary
/// the stock pipelines persist, sorted by name — as written by the
/// commit before the executor moved onto the session.
#[rustfmt::skip]
const GOLDEN_STORE: &[(&str, u128)] = &[
    ("s-06d24a6672c4403c1065e7e5e40ba95f-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x1ea4df3f1889047fd1db5226b4e781e0),
    ("s-06d24a6672c4403c1065e7e5e40ba95f-t-dfdc94c437adcde82c6a90586be90f6f-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x6fb81eaec574c0ba137e54d71b6e55cd),
    ("s-08c812a3fe9fc6185c43c4391b146969-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x7cb5271f0ce9037c31bfbcabfcf84f8b),
    ("s-08c812a3fe9fc6185c43c4391b146969-t-561c043eefb44356af8a0689b9592735-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0xd20736ce4aa1836dec80b7c6d457cc0c),
    ("s-0e0061462e9041e44531feb43728f283-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x864256de088cfa876a5ea706d4f92dd4),
    ("s-0e0061462e9041e44531feb43728f283-t-9579c736d17d89a464d0eb358e448c27-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x2d0b9dd7e83c2cc60fa3d3385e5099f3),
    ("s-0e9d5a2a03b964d236f983633dd2f99b-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0xf76117397b56d93f14318e42b7d71928),
    ("s-13c04170e4676b36f267f35180ed5dc5-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0xf6e3aeb92720254dcd6896342e504ac0),
    ("s-281d96a41411aa64263cb5d4381b20ed-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x51e99fc0006b4b40f737ce729474e225),
    ("s-3a9993433cb99bd87c8768719fcfd035-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0xd03088d2a6947a0741a92e15dd70d37c),
    ("s-4fbed363555bf5a3304887f723d754bc-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x71beb5bd55cdbaf5fa9f743b4d3f237a),
    ("s-67d2a9518df28d8f382e1bee3374d0ea-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x870e3d01c66b01af668e9ce57b5afbba),
    ("s-8d68092a1db4f24610dbeb7b7525101f-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x9796c6ce4978e63d93c7f42056eae1b4),
    ("s-90bd64bec077a409a068877cdf02fd30-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x35af6b91424293f132c0414d05b8e626),
    ("s-a65ee14b0f27d2dc8389ea631605257f-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x632fbe05c4f2b702b728a47b95b86583),
    ("s-a65ee14b0f27d2dc8389ea631605257f-t-dfdc94c437adcde82c6a90586be90f6f-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0xc514f11f24f78b293030469aae51863c),
    ("s-c7626672210bcd3fee20ce1c204beda6-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0xa79a74b5e6109d10d70544bd2108ef5d),
    ("s-c7626672210bcd3fee20ce1c204beda6-t-dfdc94c437adcde82c6a90586be90f6f-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0xe2dc9f85af1a901fa84b0e3e8c88738e),
    ("s-da2cb207afd8ee14a90c801841de839d-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x50f0b857628744863a330693e5c16ec9),
    ("s-da2cb207afd8ee14a90c801841de839d-t-dfdc94c437adcde82c6a90586be90f6f-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x87f6de4efdd8fd3722d88f7695054140),
    ("s-f50e21756c996ee6f7182bea84228c27-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0xc1dffe4c8920174cb85b5a0e65916267),
];

#[test]
fn persisted_summaries_equal_the_pre_port_goldens() {
    let cfg = cfg();
    let dir = std::env::temp_dir().join(format!("dpv-session-oracle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SummaryStore::persistent(&dir).expect("temp store");
    for p in stock_pipelines() {
        let modes: &[MapMode] = if p.name == "firewalled-edge" {
            &[MapMode::Abstract, MapMode::Tables]
        } else {
            &[MapMode::Abstract]
        };
        for &mode in modes {
            summarize_pipeline_with_store(&mut TermPool::new(), &p, &cfg, mode, &store, 1)
                .expect("summarizes");
        }
    }
    assert_eq!(store.store_writes(), store.misses(), "every miss persisted");
    let mut got: Vec<(String, u128)> = std::fs::read_dir(&dir)
        .expect("store dir")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let bytes = std::fs::read(&path).expect("summary file");
            let name = path.file_name().expect("file name").to_string_lossy();
            (name.into_owned(), dpir::fingerprint128(&bytes))
        })
        .collect();
    got.sort();
    let _ = std::fs::remove_dir_all(&dir);
    let want: Vec<(String, u128)> = GOLDEN_STORE
        .iter()
        .map(|&(name, fp)| (name.to_string(), fp))
        .collect();
    if got != want {
        for (name, fp) in &got {
            eprintln!("    (\"{name}\", 0x{fp:032x}),");
        }
        panic!("persisted summaries moved: a store written before this change would miss");
    }
}

#[test]
fn unknown_reads_as_feasible_and_the_session_survives_it() {
    let programs = [
        elements::ip_options::ip_options(3, Some(ROUTER_IP)),
        ip_fragmenter(FragmenterVariant::Fixed, 40),
    ];
    for e in &programs {
        let what = &e.name;
        // One pool and one input for all three runs: terms are
        // hash-consed, so equal path conditions are equal TermIds and
        // segments compare across runs.
        let mut pool = TermPool::new();
        let input = SymInput::fresh(&mut pool, &cfg(), "e");
        let mut run = |budget: u64| {
            let cfg = SymConfig {
                fork_conflict_budget: budget,
                ..cfg()
            };
            let mut model = AbstractMapModel::new();
            execute_checked(&mut pool, e.program(), &input, &mut model, &cfg)
        };
        let (exact, asked) = run(SymConfig::default().fork_conflict_budget);
        assert_eq!(asked.unknown, 0, "{what}: the reference run is exact");
        for budget in [0, 1] {
            let (starved, asked) = run(budget);
            assert!(
                asked.unknown > 0,
                "{what}: budget {budget} starves no query"
            );
            assert!(
                asked.decided_after_unknown > 0,
                "{what}: budget {budget} never exercised a decided query after an Unknown"
            );
            assert!(starved.states >= exact.states, "{what}: budget {budget}");
            let has = |want: &symexec::Segment| {
                starved.segments.iter().any(|s| {
                    (s.outcome, &s.constraint, &s.pkt_out, s.len_out)
                        == (want.outcome, &want.constraint, &want.pkt_out, want.len_out)
                })
            };
            for seg in &exact.segments {
                assert!(has(seg), "{what}: budget {budget} lost segment {seg:?}");
            }
        }
    }
}
