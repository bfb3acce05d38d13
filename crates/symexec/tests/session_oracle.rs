//! Oracle differential for step 1. The executor answers a fork
//! question from the asking path's witness model when the new conjuncts
//! hold under it, and otherwise on one [`bvsolve::SolveSession`] whose
//! learnt clauses and blasted prefix carry from question to question;
//! the reference is a fresh [`BvSolver`] per question, which shares
//! none of that state.
//!
//! * every stock element program runs twice — once plain, once with
//!   each fork question also put to the reference — and the two runs
//!   must agree on every decided verdict, on the state counts and on
//!   every segment [`bvsolve::TermId`]. A witnessed answer must be a
//!   model of the whole question, path included, and the reference
//!   must find the question `Sat`;
//! * over the stock stages the session queries and the witnessed
//!   answers are pinned, and no fork off a state that holds a witness
//!   asks the session about both of its complementary sides;
//! * the summary files those stages persist must be, name and bytes,
//!   the goldens below, so a store directory written by an earlier
//!   build of the same format still serves every stage;
//! * with a conflict budget of 0 or 1 the session answers `Unknown`
//!   mid-run: that must read as "feasible", and the session must keep
//!   answering correctly afterwards.

mod common;

use bvsolve::{BvSolver, Migrator, Model, SatVerdict, Term, TermId, TermPool, UnOp};
use dataplane::{Element, Pipeline};
use dpir::Program;
use elements::ip_fragmenter::{ip_fragmenter, FragmenterVariant};
use elements::pipelines::{
    edge_fib, ip_router, network_gateway, to_pipeline, NAT_PUBLIC_IP, NAT_PUBLIC_PORT, ROUTER_IP,
};
use std::collections::{HashMap, HashSet};
use symexec::{
    execute, execute_observed, AbstractMapModel, ExecReport, ForkAnswer, MapModel, SymConfig,
    SymInput, TableMapModel,
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

/// The element's map model for `mode`.
fn map_model(e: &Element, mode: MapMode) -> Box<dyn MapModel> {
    match mode {
        MapMode::Abstract => Box::new(AbstractMapModel::new()),
        MapMode::Tables => Box::new(table_model(e)),
    }
}

/// Every distinct stage summary the stock pipelines need: each element
/// once under the abstract model and, if it has tables, once under
/// them.
fn stock_stages() -> Vec<(Element, MapMode)> {
    let cfg = cfg();
    let mut seen = HashSet::new();
    let mut stages = Vec::new();
    for p in stock_pipelines() {
        for e in p.stages.into_iter().map(|s| s.element) {
            for mode in [MapMode::Abstract, MapMode::Tables] {
                let wanted = mode == MapMode::Abstract || !e.tables.is_empty();
                if wanted && seen.insert(SummaryKey::of(&e, mode, &cfg)) {
                    stages.push((e.clone(), mode));
                }
            }
        }
    }
    stages
}

/// What the observer saw of one run's fork questions.
#[derive(Default)]
struct Asked {
    /// Questions of either kind.
    questions: u64,
    /// Questions the asking state's witness answered.
    witnessed: u64,
    unknown: u64,
    /// Decided verdicts that came after an `Unknown`.
    decided_after_unknown: u64,
}

/// [`execute_observed`] with every fork question also put to a fresh,
/// budget-free [`BvSolver`]: a decided verdict that differs panics, and
/// so does a witnessed answer whose model fails a conjunct of the
/// question or whose question the reference finds anything but `Sat`.
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
        let got = match got {
            ForkAnswer::Asked(verdict) => verdict,
            ForkAnswer::Witnessed(model) => {
                asked.witnessed += 1;
                for (k, &c) in cs.iter().enumerate() {
                    assert_eq!(
                        model.value_of(c, pool),
                        1,
                        "{}: question {}: the witness fails conjunct {k} of {}",
                        prog.name,
                        asked.questions,
                        cs.len()
                    );
                }
                // The reference solves a copy of the question in a pool
                // of its own, so the run's pool grows as a plain run's.
                let mut own = TermPool::new();
                let mut mig = Migrator::new();
                let copy: Vec<TermId> = cs.iter().map(|&c| mig.import(c, pool, &mut own)).collect();
                assert!(
                    BvSolver::new().check(&mut own, &copy).is_sat(),
                    "{}: question {} witnessed, but a fresh solver finds no model",
                    prog.name,
                    asked.questions
                );
                return;
            }
        };
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
    assert_eq!(
        asked.questions,
        plain.solver_stats.queries + plain.witnessed,
        "{what}: every question asked or witnessed"
    );
    assert_eq!(asked.witnessed, checked.witnessed, "{what}: witnessed");
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
    let mut questions = 0;
    for (e, mode) in stock_stages() {
        questions += assert_oracle_agrees(e.program(), || map_model(&e, mode));
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

/// Session queries and witnessed answers over [`stock_stages`]. Their
/// sum is every fork question those stages ask — the number of session
/// queries before a witness answered any.
const STOCK_QUERIES: u64 = 212;
const STOCK_WITNESSED: u64 = 99;

/// Whether `a` and `b` are each other's negation.
fn negates(pool: &TermPool, a: TermId, b: TermId) -> bool {
    let not_of = |x: TermId, y: TermId| matches!(*pool.get(x), Term::Unary(UnOp::Not, z) if z == y);
    not_of(a, b) || not_of(b, a)
}

/// Runs `prog` and replays the witness rule over its fork questions:
/// a state's witness is the model of the answer that created it — the
/// question on the longest prefix of its path an answer created —
/// while every conjunct of the path holds under it. Two consecutive
/// questions off one path whose last conjuncts are each other's
/// negation (a branch's two sides) must not both go to the session
/// when that path holds a witness. Returns the report and the number
/// of such forks.
fn assert_witnessed_forks_ask_once(prog: &Program, model: &mut dyn MapModel) -> (ExecReport, u64) {
    let cfg = cfg();
    let mut pool = TermPool::new();
    let input = SymInput::fresh(&mut pool, &cfg, "e");
    let mut created: HashMap<Vec<TermId>, Option<Model>> = HashMap::new();
    created.insert(input.base_constraints.clone(), None);
    let mut last: Option<(Vec<TermId>, bool)> = None;
    let mut forks = 0;
    let report = execute_observed(
        &mut pool,
        prog,
        &input,
        model,
        &cfg,
        &mut |pool, cs, got| {
            let asked = matches!(got, ForkAnswer::Asked(_));
            let n = cs.len();
            if let Some((prev, prev_asked)) = &last {
                if prev.len() == n
                    && prev[..n - 1] == cs[..n - 1]
                    && negates(pool, prev[n - 1], cs[n - 1])
                {
                    let path = &cs[..n - 1];
                    let witness = (0..=path.len())
                        .rev()
                        .find_map(|k| created.get(&path[..k]))
                        .expect("the initial path is recorded");
                    if witness
                        .as_ref()
                        .is_some_and(|m| path.iter().all(|&c| m.value_of(c, pool) == 1))
                    {
                        forks += 1;
                        assert!(
                            !(*prev_asked && asked),
                            "{}: a fork off a path with a witness asked the session twice",
                            prog.name
                        );
                    }
                }
            }
            match got {
                ForkAnswer::Witnessed(m) | ForkAnswer::Asked(SatVerdict::Sat(m)) => {
                    created.insert(cs.to_vec(), Some(m.clone()));
                }
                ForkAnswer::Asked(SatVerdict::Unsat(_)) => {}
                ForkAnswer::Asked(SatVerdict::Unknown | SatVerdict::Interrupted) => {
                    created.insert(cs.to_vec(), None);
                }
            }
            last = Some((cs.to_vec(), asked));
        },
    )
    .expect("within the state budget");
    (report, forks)
}

/// The count guard of step 1's witness: over the stock stages a fork
/// off a path that holds a witness asks the session at most once, and
/// the session queries and witnessed answers are the pinned numbers.
/// Before the witness, every one of those questions was a query.
#[test]
fn a_branch_fork_asks_once_when_its_path_has_a_witness() {
    let (mut queries, mut witnessed, mut forks) = (0, 0, 0);
    for (e, mode) in stock_stages() {
        let (report, n) = assert_witnessed_forks_ask_once(e.program(), &mut *map_model(&e, mode));
        queries += report.solver_stats.queries;
        witnessed += report.witnessed;
        forks += n;
    }
    assert!(forks > 80, "only {forks} forks off a path with a witness");
    assert_eq!(
        (queries, witnessed),
        (STOCK_QUERIES, STOCK_WITNESSED),
        "(session queries, witnessed answers) over the stock stages"
    );
}

/// `(file name, fingerprint128 of the file's bytes)` of every summary
/// the stock pipelines persist, sorted by name. Regenerated for format
/// version 2, which dropped the segments' statically assumed facts and
/// the programs' facts (moving every name and every file): before the
/// regeneration, every term of every segment these stages summarize
/// was checked to print identically under both versions.
#[rustfmt::skip]
const GOLDEN_STORE: &[(&str, u128)] = &[
    ("s-043bbc922ef4edb67eb02fb626e6c485-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0xf3e9245ffd8a0f5f83262926402ba72e),
    ("s-04595ba85f458018c3d338332899c729-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x9d5769e9ec3983b504414038e8b02dea),
    ("s-04595ba85f458018c3d338332899c729-t-561c043eefb44356af8a0689b9592735-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x4e75c7b4e1970d3dd648aa128757fb48),
    ("s-10ce48cef0d830c670947aa7f38d105f-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0xdf64b35a21e3f1a6841ade6ad8becdcb),
    ("s-19e738ce80dca8e4943df1f4877139c3-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x10e279e04abf660deea1f36ebc3f6322),
    ("s-19e738ce80dca8e4943df1f4877139c3-t-9579c736d17d89a464d0eb358e448c27-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x64796ea873b28a21f4a7eb86359dd7f0),
    ("s-2c31f03ff6988566592f3cc33ce34a67-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x6804ebbeafc3232547ee21650eed74ce),
    ("s-36a69bfadd3b857f7b17e523e9f55426-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0xfb830a52f023e24c2fb4ca2f05961e9d),
    ("s-36a69bfadd3b857f7b17e523e9f55426-t-dfdc94c437adcde82c6a90586be90f6f-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x3194cc2ad74581fba078e315847cff3e),
    ("s-3acbd0af5d7be5d837f7a8a2e5e91af5-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x01699dace4c57ff6ee513aa05ed69735),
    ("s-4d9c8cf74c0fa052a0fdcc368d28badb-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x7ad0fc9b88e865f7cdc1413bcc63ee90),
    ("s-5e4ef5a8d828c914c3c3c132bc67b45d-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x7889ae1d72d38412b43e2580ef386c6d),
    ("s-5e4ef5a8d828c914c3c3c132bc67b45d-t-dfdc94c437adcde82c6a90586be90f6f-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0xcbc20a6d7e6725c36e30ebac8d49beec),
    ("s-9f1e9a48c93959c9c7a883d496ea3130-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x571535e41873026fd82fdfa9a192f9dc),
    ("s-a3c6f0c1cc3ff16411ff070275827dad-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0xfc0231eae74086ca7211eebda0759053),
    ("s-afb12a26e02a74e3b6b2d8b1bcd045bc-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0xa4585f2249c0793a24763046193fc289),
    ("s-c56383ae30703bdc1f3d05c4dddccdbf-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0xf8c1aadf271b134f397551b691bbfa82),
    ("s-c56383ae30703bdc1f3d05c4dddccdbf-t-dfdc94c437adcde82c6a90586be90f6f-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x90d7f77da4780560c70dead6c192fd09),
    ("s-d8775b120a5fb1cf87d29c90ca57466a-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0xddb00be3726d897133c8ff50309d0f08),
    ("s-fc43038dd3a6513c0edb5c877bc3599f-a-00000000000000000000000000000000-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x8757bb30b7954c279ed532a4f746ee10),
    ("s-fc43038dd3a6513c0edb5c877bc3599f-t-dfdc94c437adcde82c6a90586be90f6f-a5b72d345d2893074ffa5c787ba0ecf4.dpvs", 0x8e79960fdf98d22ec14553236f397061),
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
