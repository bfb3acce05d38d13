//! Circuit-size budget: the SAT variables one word-level operator costs
//! beyond its inputs, at 32 bits. Every solver layer (`add_clause`,
//! `rollback`, `propagate`, branching) scales with circuit size, so an
//! encoding that grows back is a performance regression even while
//! every verdict stays right — it fails here, by name.

use bvsolve::{BinOp, Blaster, Term, TermId, TermPool};

/// Variables `a`, `b` (32-bit) and `c` (1-bit), blasted up front so
/// that only the operator's own gates are counted afterwards.
fn inputs() -> (TermPool, Blaster, [TermId; 3]) {
    let mut pool = TermPool::new();
    let vars = [
        pool.fresh_var("a", 32),
        pool.fresh_var("b", 32),
        pool.fresh_var("c", 1),
    ];
    let mut blaster = Blaster::new();
    for v in vars {
        blaster.blast(&pool, v);
    }
    (pool, blaster, vars)
}

/// SAT variables blasting `t` adds to `blaster`.
fn cost(blaster: &mut Blaster, pool: &TermPool, t: TermId) -> usize {
    let before = blaster.num_sat_vars();
    blaster.blast(pool, t);
    blaster.num_sat_vars() - before
}

#[test]
fn operators_stay_within_their_variable_budget() {
    type Build = fn(&mut TermPool, [TermId; 3]) -> TermId;
    let budgets: [(&str, usize, Build); 6] = [
        ("ult", 32, |p, [a, b, _]| p.mk_ult(a, b)),
        ("add", 96, |p, [a, b, _]| p.mk_add(a, b)),
        ("sub", 96, |p, [a, b, _]| p.mk_sub(a, b)),
        ("ite", 32, |p, [a, b, c]| p.mk_ite(c, a, b)),
        ("eq", 33, |p, [a, b, _]| p.mk_eq(a, b)),
        ("ult(x, const)", 32, |p, [a, _, _]| {
            let k = p.mk_const(32, 0x5A5A_A5A5);
            p.mk_ult(a, k)
        }),
    ];
    for (name, budget, build) in budgets {
        let (mut pool, mut blaster, vars) = inputs();
        let t = build(&mut pool, vars);
        let spent = cost(&mut blaster, &pool, t);
        assert!(
            spent <= budget,
            "{name}: {spent} SAT variables, budget {budget}"
        );
        assert!(spent > 0, "{name}: the term folded away, nothing measured");
    }
}

#[test]
fn a_comparison_rides_the_matching_subtraction() {
    // `a - b` skips its top carry, the one gate `ult(a, b)` still needs.
    let (mut pool, mut blaster, [a, b, _]) = inputs();
    let diff = pool.mk_sub(a, b);
    let lt = pool.mk_ult(a, b);
    assert!(cost(&mut blaster, &pool, diff) > 0);
    let spent = cost(&mut blaster, &pool, lt);
    assert!(spent <= 1, "ult(a, b) after a - b: {spent} SAT variables");
}

#[test]
fn the_converse_comparison_shares_the_borrow_chain() {
    let (mut pool, mut blaster, [a, b, _]) = inputs();
    let lt = pool.mk_ult(a, b);
    let ge = pool.mk_ule(b, a);
    assert!(
        matches!(pool.get(ge), Term::Binary(BinOp::Ule, ..)),
        "the term layer must not do the sharing"
    );
    assert!(cost(&mut blaster, &pool, lt) > 0);
    assert_eq!(
        cost(&mut blaster, &pool, ge),
        0,
        "ule(b, a) after ult(a, b) must find every gate in the table"
    );
}

#[test]
fn a_symbolic_offset_load_is_one_select_run() {
    // The executor's 2-byte big-endian load at a symbolic 16-bit
    // offset over a 48-byte window: `ite(off == s, pkt[s] ++ pkt[s+1],
    // …)` for every position s = 46 down to 0, over a constant 0. The
    // equations `off == s` are blasted first; what is left is the
    // select itself, one `none` and one output per bit. A mux per bit
    // and position is 47 × 16 = 752.
    let mut pool = TermPool::new();
    let off = pool.fresh_var("off", 16);
    let pkt: Vec<TermId> = (0..48)
        .map(|i| pool.fresh_var(&format!("pkt{i}"), 8))
        .collect();
    let mut blaster = Blaster::new();
    let mut acc = pool.mk_const(16, 0);
    for s in 0..47 {
        let at = pool.mk_const(16, s as u64);
        let hit = pool.mk_eq(off, at);
        let bytes = pool.mk_concat(pkt[s], pkt[s + 1]);
        blaster.blast(&pool, hit);
        blaster.blast(&pool, bytes);
        acc = pool.mk_ite(hit, bytes, acc);
    }
    let spent = cost(&mut blaster, &pool, acc);
    assert!(
        spent <= 17,
        "a 47-position 16-bit select: {spent} SAT variables, budget 17"
    );
}
