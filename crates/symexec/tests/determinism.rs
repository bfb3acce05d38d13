//! Pins the executor's determinism guarantee (see the `executor`
//! module docs): identical `(program, input, model, cfg)` from an
//! identical pool state must reproduce the pool and the segments
//! exactly. The verifier's content-addressed summary store is sound
//! only while this holds.

mod common;

use bvsolve::TermPool;
use common::busy_program;
use symexec::{
    execute, AbstractMapModel, ExecReport, MapModel, SymConfig, SymInput, TableMapModel,
};

fn cfg() -> SymConfig {
    SymConfig {
        max_pkt_bytes: 24,
        ..Default::default()
    }
}

fn run_once(model: &mut dyn MapModel) -> (TermPool, ExecReport, SymInput) {
    let mut pool = TermPool::new();
    let cfg = cfg();
    let input = SymInput::fresh(&mut pool, &cfg, "e");
    let rep = execute(&mut pool, &busy_program(), &input, model, &cfg).expect("executes");
    (pool, rep, input)
}

fn assert_identical(a: &(TermPool, ExecReport, SymInput), b: &(TermPool, ExecReport, SymInput)) {
    let (pa, ra, ia) = a;
    let (pb, rb, ib) = b;
    assert_eq!(pa.len(), pb.len(), "term counts differ");
    assert_eq!(pa.num_vars(), pb.num_vars(), "var counts differ");
    for v in 0..pa.num_vars() as u32 {
        assert_eq!(pa.var_name(v), pb.var_name(v), "var {v} name");
        assert_eq!(pa.var_width(v), pb.var_width(v), "var {v} width");
    }
    assert_eq!(ra.states, rb.states);
    assert_eq!(ra.pruned, rb.pruned);
    // Debug includes every TermId: equal strings ⇒ the same terms were
    // interned in the same order and the segments are byte-identical.
    assert_eq!(format!("{:?}", ra.segments), format!("{:?}", rb.segments));
    assert_eq!(format!("{ia:?}"), format!("{ib:?}"));
    // And the ids resolve to the same term *content*, not just the
    // same positions.
    assert_eq!(render(pa, ra), render(pb, rb));
}

/// Renders every segment's terms through the pool, so two pools are
/// compared on term content rather than on [`bvsolve::TermId`] values.
fn render(pool: &TermPool, rep: &ExecReport) -> String {
    let mut out = String::new();
    for seg in &rep.segments {
        out.push_str(&format!("{:?} {}:", seg.outcome, seg.instrs));
        for &c in &seg.constraint {
            out.push_str(&bvsolve::print_term(pool, c));
            out.push(';');
        }
        out.push('|');
        for &t in &seg.pkt_out {
            out.push_str(&bvsolve::print_term(pool, t));
            out.push(',');
        }
        out.push_str(&bvsolve::print_term(pool, seg.len_out));
        out.push('\n');
    }
    out
}

#[test]
fn abstract_model_runs_reproduce_exactly() {
    let a = run_once(&mut AbstractMapModel::new());
    let b = run_once(&mut AbstractMapModel::new());
    assert_identical(&a, &b);
}

#[test]
fn table_model_runs_reproduce_exactly() {
    let mk = || {
        let mut m = TableMapModel::new();
        m.set_table(dpir::MapId(0), vec![(1, 10), (2, 20), (7, 70)]);
        m
    };
    let a = run_once(&mut mk());
    let b = run_once(&mut mk());
    assert_identical(&a, &b);
}

#[test]
fn different_tables_change_the_summary() {
    let mut m1 = TableMapModel::new();
    m1.set_table(dpir::MapId(0), vec![(1, 10)]);
    let mut m2 = TableMapModel::new();
    m2.set_table(dpir::MapId(0), vec![(1, 11)]);
    let a = run_once(&mut m1);
    let b = run_once(&mut m2);
    assert_ne!(
        render(&a.0, &a.1),
        render(&b.0, &b.1),
        "table contents must be observable in the summary"
    );
}
