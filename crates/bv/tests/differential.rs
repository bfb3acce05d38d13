//! Differential property tests: random terms evaluated concretely must
//! agree with the bit-blaster, and interval analysis must be sound.

use bvsolve::{eval, interval_of, Assignment, Blaster, TermId, TermPool};
use proptest::prelude::*;

/// A small AST we generate randomly, then lower into the pool.
#[derive(Debug, Clone)]
enum Ast {
    Var(u8),
    Const(u64),
    Add(Box<Ast>, Box<Ast>),
    Sub(Box<Ast>, Box<Ast>),
    Mul(Box<Ast>, Box<Ast>),
    And(Box<Ast>, Box<Ast>),
    Or(Box<Ast>, Box<Ast>),
    Xor(Box<Ast>, Box<Ast>),
    Shl(Box<Ast>, Box<Ast>),
    Lshr(Box<Ast>, Box<Ast>),
    UDiv(Box<Ast>, Box<Ast>),
    URem(Box<Ast>, Box<Ast>),
    Not(Box<Ast>),
    Neg(Box<Ast>),
    Ite(Box<Ast>, Box<Ast>, Box<Ast>),
}

fn arb_ast(depth: u32) -> BoxedStrategy<Ast> {
    let leaf = prop_oneof![
        (0u8..4).prop_map(Ast::Var),
        any::<u64>().prop_map(Ast::Const),
    ];
    leaf.prop_recursive(depth, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ast::Add(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ast::Sub(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ast::Mul(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ast::And(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ast::Or(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ast::Xor(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ast::Shl(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ast::Lshr(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ast::UDiv(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ast::URem(a.into(), b.into())),
            inner.clone().prop_map(|a| Ast::Not(a.into())),
            inner.clone().prop_map(|a| Ast::Neg(a.into())),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, a, b)| Ast::Ite(
                c.into(),
                a.into(),
                b.into()
            )),
        ]
    })
    .boxed()
}

fn lower(pool: &mut TermPool, vars: &[TermId], ast: &Ast, w: u32) -> TermId {
    match ast {
        Ast::Var(i) => vars[*i as usize % vars.len()],
        Ast::Const(v) => pool.mk_const(w, *v),
        Ast::Add(a, b) => {
            let (x, y) = (lower(pool, vars, a, w), lower(pool, vars, b, w));
            pool.mk_add(x, y)
        }
        Ast::Sub(a, b) => {
            let (x, y) = (lower(pool, vars, a, w), lower(pool, vars, b, w));
            pool.mk_sub(x, y)
        }
        Ast::Mul(a, b) => {
            let (x, y) = (lower(pool, vars, a, w), lower(pool, vars, b, w));
            pool.mk_mul(x, y)
        }
        Ast::And(a, b) => {
            let (x, y) = (lower(pool, vars, a, w), lower(pool, vars, b, w));
            pool.mk_and(x, y)
        }
        Ast::Or(a, b) => {
            let (x, y) = (lower(pool, vars, a, w), lower(pool, vars, b, w));
            pool.mk_or(x, y)
        }
        Ast::Xor(a, b) => {
            let (x, y) = (lower(pool, vars, a, w), lower(pool, vars, b, w));
            pool.mk_xor(x, y)
        }
        Ast::Shl(a, b) => {
            let (x, y) = (lower(pool, vars, a, w), lower(pool, vars, b, w));
            pool.mk_shl(x, y)
        }
        Ast::Lshr(a, b) => {
            let (x, y) = (lower(pool, vars, a, w), lower(pool, vars, b, w));
            pool.mk_lshr(x, y)
        }
        Ast::UDiv(a, b) => {
            let (x, y) = (lower(pool, vars, a, w), lower(pool, vars, b, w));
            pool.mk_udiv(x, y)
        }
        Ast::URem(a, b) => {
            let (x, y) = (lower(pool, vars, a, w), lower(pool, vars, b, w));
            pool.mk_urem(x, y)
        }
        Ast::Not(a) => {
            let x = lower(pool, vars, a, w);
            pool.mk_not(x)
        }
        Ast::Neg(a) => {
            let x = lower(pool, vars, a, w);
            pool.mk_neg(x)
        }
        Ast::Ite(c, a, b) => {
            let cv = lower(pool, vars, c, w);
            let z = pool.mk_const(w, 0);
            let cb = pool.mk_ne(cv, z);
            let (x, y) = (lower(pool, vars, a, w), lower(pool, vars, b, w));
            pool.mk_ite(cb, x, y)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Constructor simplification preserves semantics: lowering the AST
    /// (with all simplifications firing) then evaluating must equal a
    /// direct interpretation of the AST. We check by lowering twice with
    /// different variable bindings and comparing against eval.
    #[test]
    fn simplifier_sound(ast in arb_ast(4), vals in proptest::array::uniform4(any::<u64>()), w in prop_oneof![Just(8u32), Just(16), Just(32)]) {
        let mut pool = TermPool::new();
        let vars: Vec<TermId> = (0..4).map(|i| pool.fresh_var(&format!("v{i}"), w)).collect();
        let t = lower(&mut pool, &vars, &ast, w);
        let mut a = Assignment::new();
        for (i, v) in vals.iter().enumerate() {
            a.set(i as u32, *v);
        }
        let got = eval(&pool, t, &a);
        let expect = interp(&ast, &vals, w);
        prop_assert_eq!(got, expect);
    }

    /// Interval analysis is sound: the concrete value always lies inside
    /// the computed interval.
    #[test]
    fn interval_sound(ast in arb_ast(4), vals in proptest::array::uniform4(any::<u64>()), w in prop_oneof![Just(8u32), Just(16)]) {
        let mut pool = TermPool::new();
        let vars: Vec<TermId> = (0..4).map(|i| pool.fresh_var(&format!("v{i}"), w)).collect();
        let t = lower(&mut pool, &vars, &ast, w);
        let mut a = Assignment::new();
        for (i, v) in vals.iter().enumerate() {
            a.set(i as u32, *v);
        }
        let got = eval(&pool, t, &a);
        let iv = interval_of(&pool, t);
        prop_assert!(iv.lo <= got && got <= iv.hi,
            "value {} outside interval [{}, {}]", got, iv.lo, iv.hi);
    }

    /// The bit-blaster agrees with the evaluator: assert `t == eval(t)`
    /// pinned to the same variable values and expect SAT; assert
    /// `t != eval(t)` and expect UNSAT.
    #[test]
    fn blaster_matches_eval(ast in arb_ast(3), vals in proptest::array::uniform4(0u64..256), ) {
        let w = 8u32;
        let mut pool = TermPool::new();
        let vars: Vec<TermId> = (0..4).map(|i| pool.fresh_var(&format!("v{i}"), w)).collect();
        let t = lower(&mut pool, &vars, &ast, w);
        let mut a = Assignment::new();
        for (i, v) in vals.iter().enumerate() {
            a.set(i as u32, *v);
        }
        let concrete = eval(&pool, t, &a);

        // Pin the variables, require t == concrete: must be SAT.
        let mut constraints = Vec::new();
        for (i, v) in vals.iter().enumerate() {
            let c = pool.mk_const(w, *v);
            constraints.push(pool.mk_eq(vars[i], c));
        }
        let cval = pool.mk_const(w, concrete);
        let eq = pool.mk_eq(t, cval);
        let ne = pool.mk_not(eq);

        let mut bl = Blaster::new();
        for &c in &constraints {
            bl.assert_true(&pool, c);
        }
        bl.assert_true(&pool, eq);
        prop_assert!(bl.check().is_sat(), "t == concrete must be SAT");

        let mut bl2 = Blaster::new();
        for &c in &constraints {
            bl2.assert_true(&pool, c);
        }
        bl2.assert_true(&pool, ne);
        prop_assert!(bl2.check().is_unsat(), "t != concrete must be UNSAT");
    }
}

/// A link value or chain default: symbolic, constant, or an offset
/// variable.
#[derive(Debug, Clone)]
enum Leaf {
    Var(u8),
    Const(u64),
    Plus(u8, u64),
}

fn arb_leaf() -> BoxedStrategy<Leaf> {
    prop_oneof![
        (0u8..3).prop_map(Leaf::Var),
        (0u64..1 << 16).prop_map(Leaf::Const),
        (0u8..3, 1u64..16).prop_map(|(v, k)| Leaf::Plus(v, k)),
    ]
    .boxed()
}

/// The links `(constant, value)` of one chain `ite(sel == c, v, …)`,
/// outermost first. Constants come from a range narrow enough that
/// they repeat, and at 4 bits wrap onto each other.
fn arb_links(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Vec<(u64, Leaf)>> {
    proptest::collection::vec((0u64..24, arb_leaf()), len)
}

/// A chain's default: a leaf, or a chain over the other selector.
#[derive(Debug, Clone)]
enum ChainEnd {
    Leaf(Leaf),
    Chain(Vec<(u64, Leaf)>, Leaf),
}

/// A select chain the way the executor's symbolic-offset accesses
/// build one, with the shapes the blaster's select runs must get
/// right: repeated and out-of-range constants, constant values that
/// end a run, a default that is a run itself, and an inner node
/// blasted before the head.
#[derive(Debug, Clone)]
struct SelectCase {
    /// Selector width, 4–16.
    sel_width: u32,
    value_width: u32,
    /// The selector is a 3-bit variable zero-extended, so constants
    /// from 8 up can never match (their equations blast to false).
    narrow: bool,
    links: Vec<(u64, Leaf)>,
    default: ChainEnd,
    /// An inner node of the chain blasted before the head.
    preblast: Option<usize>,
    /// Values of the selector, the other selector and the three value
    /// variables; the selectors' from the constants' range.
    pins: (u64, u64, [u64; 3]),
}

fn arb_select_case() -> impl Strategy<Value = SelectCase> {
    let default = prop_oneof![
        arb_leaf().prop_map(ChainEnd::Leaf),
        (arb_links(1..=6), arb_leaf()).prop_map(|(l, d)| ChainEnd::Chain(l, d)),
    ];
    let pinned = (0u64..24, 0u64..24, proptest::array::uniform3(any::<u64>()));
    (
        4u32..=16,
        prop_oneof![Just(4u32), Just(8), Just(16)],
        any::<bool>(),
        arb_links(2..=20),
        default,
        prop_oneof![Just(None), (0usize..20).prop_map(Some)],
        pinned,
    )
        .prop_map(
            |(sel_width, value_width, narrow, links, default, preblast, pins)| SelectCase {
                sel_width,
                value_width,
                narrow,
                links,
                default,
                preblast,
                pins,
            },
        )
}

/// Lowers `links` over `sel` down to `default`, returning every node,
/// head first.
fn lower_chain(
    pool: &mut TermPool,
    sel: TermId,
    links: &[(u64, Leaf)],
    default: TermId,
    leaf: &mut impl FnMut(&mut TermPool, &Leaf) -> TermId,
) -> Vec<TermId> {
    let sw = pool.width(sel);
    let mut nodes = Vec::new();
    let mut acc = default;
    for (c, v) in links.iter().rev() {
        let k = pool.mk_const(sw, *c);
        let hit = pool.mk_eq(sel, k);
        let v = leaf(pool, v);
        acc = pool.mk_ite(hit, v, acc);
        nodes.push(acc);
    }
    nodes.reverse();
    nodes
}

/// `blaster_matches_eval` for one select chain: pinned variables and
/// `t == eval(t)` must be Sat, `t != eval(t)` Unsat.
fn select_chain_matches_eval(case: &SelectCase) {
    let mut pool = TermPool::new();
    let sel_var = pool.fresh_var("s", if case.narrow { 3 } else { case.sel_width });
    let sel2 = pool.fresh_var("s2", case.sel_width);
    let vw = case.value_width;
    let vars: Vec<TermId> = (0..3)
        .map(|i| pool.fresh_var(&format!("v{i}"), vw))
        .collect();
    let sel = pool.mk_zext(sel_var, case.sel_width);
    let mut leaf = |pool: &mut TermPool, l: &Leaf| match *l {
        Leaf::Var(i) => vars[i as usize],
        Leaf::Const(k) => pool.mk_const(vw, k),
        Leaf::Plus(i, k) => {
            let k = pool.mk_const(vw, k);
            pool.mk_add(vars[i as usize], k)
        }
    };
    let default = match &case.default {
        ChainEnd::Leaf(l) => leaf(&mut pool, l),
        ChainEnd::Chain(links, d) => {
            let d = leaf(&mut pool, d);
            lower_chain(&mut pool, sel2, links, d, &mut leaf)[0]
        }
    };
    let nodes = lower_chain(&mut pool, sel, &case.links, default, &mut leaf);
    let t = nodes[0];

    let (s, s2, vals) = case.pins;
    let mut a = Assignment::new();
    let mut pins = Vec::new();
    let pinned = [(sel_var, s), (sel2, s2)]
        .into_iter()
        .chain(vars.iter().copied().zip(vals));
    // Variable ids follow creation order.
    for (id, (v, x)) in pinned.enumerate() {
        let k = pool.mk_const(pool.width(v), x);
        a.set(id as u32, pool.const_value(k).unwrap());
        pins.push(pool.mk_eq(v, k));
    }
    let concrete = eval(&pool, t, &a);
    let cval = pool.mk_const(vw, concrete);
    let eq = pool.mk_eq(t, cval);
    let ne = pool.mk_not(eq);

    for (goal, sat) in [(eq, true), (ne, false)] {
        let mut bl = Blaster::new();
        if let Some(i) = case.preblast {
            bl.blast(&pool, nodes[1 + i % (nodes.len() - 1)]);
        }
        for &p in &pins {
            bl.assert_true(&pool, p);
        }
        bl.assert_true(&pool, goal);
        assert_eq!(
            bl.check().is_sat(),
            sat,
            "{case:?}: t == {concrete} must be {sat}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Select chains: the blaster agrees with the evaluator.
    #[test]
    fn select_chains_match_eval(case in arb_select_case()) {
        select_chain_matches_eval(&case);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5000))]

    /// `select_chains_match_eval` at 5 000 cases, for the release
    /// matrix (`PROPTEST_CASES` overrides the count).
    #[test]
    #[ignore = "5 000 cases; run in release with --ignored"]
    fn select_chains_match_eval_5000(case in arb_select_case()) {
        select_chain_matches_eval(&case);
    }
}

/// Direct interpreter of the random AST — independent of the pool.
fn interp(ast: &Ast, vals: &[u64; 4], w: u32) -> u64 {
    let m = |v: u64| if w >= 64 { v } else { v & ((1u64 << w) - 1) };
    match ast {
        Ast::Var(i) => m(vals[*i as usize % 4]),
        Ast::Const(v) => m(*v),
        Ast::Add(a, b) => m(interp(a, vals, w).wrapping_add(interp(b, vals, w))),
        Ast::Sub(a, b) => m(interp(a, vals, w).wrapping_sub(interp(b, vals, w))),
        Ast::Mul(a, b) => m(interp(a, vals, w).wrapping_mul(interp(b, vals, w))),
        Ast::And(a, b) => interp(a, vals, w) & interp(b, vals, w),
        Ast::Or(a, b) => interp(a, vals, w) | interp(b, vals, w),
        Ast::Xor(a, b) => interp(a, vals, w) ^ interp(b, vals, w),
        Ast::Shl(a, b) => {
            let (x, s) = (interp(a, vals, w), interp(b, vals, w));
            if s >= w as u64 {
                0
            } else {
                m(x << s)
            }
        }
        Ast::Lshr(a, b) => {
            let (x, s) = (interp(a, vals, w), interp(b, vals, w));
            if s >= w as u64 {
                0
            } else {
                x >> s
            }
        }
        Ast::UDiv(a, b) => {
            let (x, d) = (interp(a, vals, w), interp(b, vals, w));
            x.checked_div(d).unwrap_or(m(u64::MAX))
        }
        Ast::URem(a, b) => {
            let (x, d) = (interp(a, vals, w), interp(b, vals, w));
            if d == 0 {
                x
            } else {
                x % d
            }
        }
        Ast::Not(a) => m(!interp(a, vals, w)),
        Ast::Neg(a) => m(interp(a, vals, w).wrapping_neg()),
        Ast::Ite(c, a, b) => {
            if interp(c, vals, w) != 0 {
                interp(a, vals, w)
            } else {
                interp(b, vals, w)
            }
        }
    }
}
