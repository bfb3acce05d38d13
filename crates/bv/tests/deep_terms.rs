//! Deep and diamond-shaped term DAGs: every traversal in this crate
//! (width, free_vars, eval, substitution, migration, interval, blast,
//! printing) must be iterative — linear in DAG *node count* and
//! independent of the thread stack. A 50k-node chain overflows any
//! recursive walk even on the 8 MiB default stack; these tests
//! additionally run the full blast → solve → model → print stack, and
//! substitution and migration of both shapes, inside a 1 MiB thread.
//! The small-term tests pin the iterative printer/evaluator to a
//! recursive reference implementation, so the conversion cannot have
//! changed observable output.

use bvsolve::{
    eval, interval_of, print_term, Assignment, BvSolver, Migrator, SatVerdict, Substitution, Term,
    TermId, TermPool, UnOp,
};

/// Local truncation helper (the pool's internal `mask` is not public).
fn m(w: u32, v: u64) -> u64 {
    if w >= 64 {
        v
    } else {
        v & ((1u64 << w) - 1)
    }
}

/// Sign-extends the low `w` bits of `v` to an `i64`.
fn sx(w: u32, v: u64) -> i64 {
    let v = m(w, v);
    if w >= 64 || v & (1u64 << (w - 1)) == 0 {
        v as i64
    } else {
        (v | !((1u64 << w) - 1)) as i64
    }
}

/// Operator depth of the big chains. Recursive walks would need
/// roughly `DEEP * frame` bytes of stack — far beyond 8 MiB at any
/// plausible frame size — so completion proves the walks are heap-based.
const DEEP: usize = 50_000;

/// Builds a `DEEP`-operator chain over `x` that eager simplification
/// cannot collapse (each round alternates var-dependent add, xor with
/// a fresh constant, and bitwise not).
fn deep_chain(pool: &mut TermPool, x: TermId, w: u32) -> TermId {
    let mut acc = x;
    for i in 0..DEEP as u64 {
        acc = match i % 3 {
            0 => pool.mk_add(acc, x),
            1 => {
                let c = pool.mk_const(w, (i * 37 + 11) & 0xff);
                pool.mk_xor(acc, c)
            }
            _ => pool.mk_not(acc),
        };
    }
    acc
}

#[test]
fn deep_chain_walks_are_iterative() {
    let mut pool = TermPool::new();
    let x = pool.fresh_var("x", 8);
    let t = deep_chain(&mut pool, x, 8);

    assert_eq!(pool.width(t), 8);
    assert_eq!(pool.free_vars(t), vec![0]);

    let mut a = Assignment::new();
    a.set(0, 0xA5);
    let v1 = eval(&pool, t, &a);
    assert!(v1 <= 0xff);

    let iv = interval_of(&pool, t);
    assert!(iv.lo <= v1 && v1 <= iv.hi);

    // Substitute x := x + 1 and re-evaluate: must equal evaluating the
    // original at x + 1.
    let one = pool.mk_const(8, 1);
    let xp1 = pool.mk_add(x, one);
    let mut sub = Substitution::new();
    sub.bind(0, xp1);
    let t2 = sub.apply(&mut pool, t);
    let mut a2 = Assignment::new();
    a2.set(0, 0xA4);
    assert_eq!(eval(&pool, t2, &a2), v1);

    // Printing is linear in DAG size here (pure chain, no sharing).
    let s = print_term(&pool, t);
    assert!(s.len() > DEEP, "printer dropped nodes: {} bytes", s.len());
}

/// Substitutes `x := x + 1` (`x` is variable 0) into `root` and
/// imports `root` into a fresh pool whose variable ids are shifted:
/// the substituted root at `x - 1` and the imported root under the
/// mapped variables must both evaluate as `root` does under `a`.
fn substitute_and_import(pool: &mut TermPool, root: TermId, a: &Assignment) {
    let want = eval(pool, root, a);
    let x = pool.var_term(0);
    let w = pool.width(x);
    let one = pool.mk_const(w, 1);
    let xp1 = pool.mk_add(x, one);
    let mut sub = Substitution::new();
    sub.bind(0, xp1);
    let shifted = sub.apply(pool, root);
    let mut before = a.clone();
    before.set(0, a.get(0).wrapping_sub(1));
    assert_eq!(eval(pool, shifted, &before), want, "substitution");

    let mut dst = TermPool::new();
    dst.fresh_var("unrelated", 16);
    let mut mig = Migrator::new();
    mig.import_all_vars(pool, &mut dst);
    let imported = mig.import(root, pool, &mut dst);
    let mut b = Assignment::new();
    for v in 0..pool.num_vars() as u32 {
        b.set(mig.mapped_var(v).expect("imported"), a.get(v));
    }
    assert_eq!(eval(&dst, imported, &b), want, "migration");
}

#[test]
fn deep_chain_blast_solve_model_print_in_1mib_stack() {
    std::thread::Builder::new()
        .stack_size(1 << 20)
        .spawn(|| {
            let mut pool = TermPool::new();
            let x = pool.fresh_var("x", 8);
            let t = deep_chain(&mut pool, x, 8);
            // Pin the chain to its value at x = 0x5A: SAT, and the
            // model must reproduce exactly that input byte.
            let mut a = Assignment::new();
            a.set(0, 0x5A);
            let want = eval(&pool, t, &a);
            let c = pool.mk_const(8, want);
            let constraint = pool.mk_eq(t, c);
            let mut solver = BvSolver::new();
            match solver.check(&mut pool, &[constraint]) {
                SatVerdict::Sat(model) => {
                    let got = model.var(0);
                    let mut b = Assignment::new();
                    b.set(0, got);
                    assert_eq!(eval(&pool, t, &b), want, "model does not satisfy");
                    // Counterexample-style printing of the full term.
                    let s = print_term(&pool, constraint);
                    assert!(s.len() > DEEP);
                }
                other => panic!("expected Sat, got {other:?}"),
            }
            substitute_and_import(&mut pool, t, &a);
            let mut pool = TermPool::new();
            let t = diamond(&mut pool);
            let mut a = Assignment::new();
            a.set(0, 123);
            a.set(1, 456);
            substitute_and_import(&mut pool, t, &a);
        })
        .expect("spawn")
        .join()
        .expect("blast/solve/model/print must fit a 1 MiB stack");
}

/// A diamond DAG over variables `x` and `y`: each level references the
/// previous level *twice*, so the expression tree is 2^LEVELS nodes
/// while the DAG stays linear. Memoized traversals must visit each node
/// once — a traversal keyed on tree shape would never terminate.
fn diamond(pool: &mut TermPool) -> TermId {
    const LEVELS: usize = 20_000;
    let x = pool.fresh_var("x", 16);
    let y = pool.fresh_var("y", 16);
    let mut t = x;
    for i in 0..LEVELS as u64 {
        // t' = (t + y) ^ (t + c): both operands share `t`.
        let l = pool.mk_add(t, y);
        let c = pool.mk_const(16, i & 0x7fff | 1);
        let r = pool.mk_add(t, c);
        t = pool.mk_xor(l, r);
    }
    t
}

#[test]
fn diamond_dag_traversals_are_memoized() {
    let mut pool = TermPool::new();
    let t = diamond(&mut pool);
    assert_eq!(pool.width(t), 16);
    // Deduped, deterministically ordered variables.
    assert_eq!(pool.free_vars(t), vec![0, 1]);
    assert_eq!(pool.free_vars(t), pool.free_vars(t));

    let mut a = Assignment::new();
    a.set(0, 123);
    a.set(1, 456);
    let v = eval(&pool, t, &a);
    assert_eq!(v, eval(&pool, t, &a), "eval must be deterministic");

    let iv = interval_of(&pool, t);
    assert!(iv.lo <= v && v <= iv.hi, "interval unsound on diamond");

    // Identity substitution rebuilds to the same interned node.
    let t2 = Substitution::new().apply(&mut pool, t);
    assert_eq!(t, t2);
}

// ---- recursive reference implementations ---------------------------

/// The pre-conversion recursive printer, kept verbatim as an oracle.
fn print_ref(pool: &TermPool, t: TermId) -> String {
    fn paren(pool: &TermPool, t: TermId) -> String {
        let s = print_ref(pool, t);
        match *pool.get(t) {
            Term::Const { .. } | Term::Var { .. } => s,
            _ => format!("({s})"),
        }
    }
    match *pool.get(t) {
        Term::Const { width, value } => {
            if width == 1 {
                (if value == 1 { "true" } else { "false" }).to_string()
            } else {
                format!("{value}")
            }
        }
        Term::Var { id, .. } => pool.var_name(id).to_string(),
        Term::Unary(op, a) => {
            let sym = match op {
                UnOp::Not => {
                    if pool.width(a) == 1 {
                        "!"
                    } else {
                        "~"
                    }
                }
                UnOp::Neg => "-",
            };
            format!("{sym}{}", paren(pool, a))
        }
        Term::Binary(op, a, b) => {
            use bvsolve::BinOp::*;
            let sym = match op {
                Add => " + ",
                Sub => " - ",
                Mul => " * ",
                UDiv => " / ",
                URem => " % ",
                And => {
                    if pool.width(a) == 1 {
                        " && "
                    } else {
                        " & "
                    }
                }
                Or => {
                    if pool.width(a) == 1 {
                        " || "
                    } else {
                        " | "
                    }
                }
                Xor => " ^ ",
                Shl => " << ",
                Lshr => " >> ",
                Eq => " == ",
                Ult => " <u ",
                Ule => " <=u ",
                Slt => " <s ",
                Sle => " <=s ",
            };
            format!("{}{sym}{}", paren(pool, a), paren(pool, b))
        }
        Term::Ite(c, a, b) => format!(
            "ite({}, {}, {})",
            print_ref(pool, c),
            print_ref(pool, a),
            print_ref(pool, b)
        ),
        Term::ZExt(a, w) => format!("zext{w}({})", print_ref(pool, a)),
        Term::SExt(a, w) => format!("sext{w}({})", print_ref(pool, a)),
        Term::Extract { hi, lo, arg } => format!("{}[{hi}:{lo}]", paren(pool, arg)),
        Term::Concat(a, b) => format!("{} ++ {}", paren(pool, a), paren(pool, b)),
    }
}

/// Builds a pseudo-random small term exercising every constructor.
fn small_term(pool: &mut TermPool, seed: u64) -> TermId {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    let mut r = StdRng::seed_from_u64(seed);
    let x = pool.fresh_var(&format!("x{seed}"), 8);
    let y = pool.fresh_var(&format!("y{seed}"), 8);
    let mut t = x;
    for _ in 0..12 {
        t = match r.next_u64() % 10 {
            0 => pool.mk_add(t, y),
            1 => {
                let c = pool.mk_const(8, r.next_u64() & 0xff);
                pool.mk_sub(t, c)
            }
            2 => pool.mk_xor(t, y),
            3 => pool.mk_not(t),
            4 => {
                let c = pool.mk_const(8, (r.next_u64() & 0xfe) | 1);
                pool.mk_mul(t, c)
            }
            5 => {
                let cond = pool.mk_ult(t, y);
                let alt = pool.mk_not(y);
                pool.mk_ite(cond, t, alt)
            }
            6 => {
                let z = pool.mk_zext(t, 16);
                pool.mk_extract(z, 7, 0)
            }
            7 => {
                let cc = pool.mk_concat(t, y);
                pool.mk_extract(cc, 11, 4)
            }
            8 => pool.mk_lshr(t, y),
            _ => {
                let s = pool.mk_sext(t, 12);
                pool.mk_extract(s, 7, 0)
            }
        };
    }
    t
}

#[test]
fn iterative_printer_matches_recursive_reference() {
    for seed in 0..200u64 {
        let mut pool = TermPool::new();
        let t = small_term(&mut pool, seed);
        assert_eq!(
            print_term(&pool, t),
            print_ref(&pool, t),
            "printer diverged on seed {seed}: {:?}",
            pool.get(t)
        );
    }
}

/// A plain recursive evaluator implementing the operator semantics
/// directly — an oracle for the iterative `eval` (the blaster
/// differential tests cover solver semantics; this covers the
/// traversal rewrite specifically). Safe to recurse: only ever run on
/// the shallow `small_term` DAGs.
fn eval_ref(pool: &TermPool, t: TermId, a: &Assignment) -> u64 {
    use bvsolve::BinOp::*;
    match *pool.get(t) {
        Term::Const { value, .. } => value,
        Term::Var { id, width } => m(width, a.get(id)),
        Term::Unary(op, c) => {
            let w = pool.width(t);
            let cv = eval_ref(pool, c, a);
            match op {
                UnOp::Not => m(w, !cv),
                UnOp::Neg => m(w, cv.wrapping_neg()),
            }
        }
        Term::Binary(op, c, d) => {
            let w = pool.width(c);
            let x = eval_ref(pool, c, a);
            let y = eval_ref(pool, d, a);
            match op {
                Add => m(w, x.wrapping_add(y)),
                Sub => m(w, x.wrapping_sub(y)),
                Mul => m(w, x.wrapping_mul(y)),
                UDiv => x.checked_div(y).unwrap_or(m(w, u64::MAX)),
                URem => {
                    if y == 0 {
                        x
                    } else {
                        x % y
                    }
                }
                And => x & y,
                Or => x | y,
                Xor => x ^ y,
                Shl => {
                    if y >= w as u64 {
                        0
                    } else {
                        m(w, x << y)
                    }
                }
                Lshr => {
                    if y >= w as u64 {
                        0
                    } else {
                        x >> y
                    }
                }
                Eq => (x == y) as u64,
                Ult => (x < y) as u64,
                Ule => (x <= y) as u64,
                Slt => (sx(w, x) < sx(w, y)) as u64,
                Sle => (sx(w, x) <= sx(w, y)) as u64,
            }
        }
        Term::Ite(c, d, e) => {
            if eval_ref(pool, c, a) == 1 {
                eval_ref(pool, d, a)
            } else {
                eval_ref(pool, e, a)
            }
        }
        Term::ZExt(c, _) => eval_ref(pool, c, a),
        Term::SExt(c, w) => m(w, sx(pool.width(c), eval_ref(pool, c, a)) as u64),
        Term::Extract { hi, lo, arg } => m(hi - lo + 1, eval_ref(pool, arg, a) >> lo),
        Term::Concat(c, d) => (eval_ref(pool, c, a) << pool.width(d)) | eval_ref(pool, d, a),
    }
}

#[test]
fn iterative_eval_matches_reference_on_small_terms() {
    for seed in 0..100u64 {
        let mut pool = TermPool::new();
        let t = small_term(&mut pool, seed);
        for (xv, yv) in [(0u64, 0u64), (1, 255), (0xa5, 0x5a), (200, 13)] {
            let mut a = Assignment::new();
            a.set(0, xv); // x is the pool's first var, y the second
            a.set(1, yv);
            assert_eq!(
                eval(&pool, t, &a),
                eval_ref(&pool, t, &a),
                "eval diverged on seed {seed} at ({xv},{yv})"
            );
        }
    }
}
