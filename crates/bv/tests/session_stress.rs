//! Randomized session-vs-fresh equivalence: drive a [`SolveSession`]
//! through interleaved assert/retire/check sequences and require every
//! verdict to match a fresh [`BvSolver::check`] on the same active set.
//!
//! Outside the one budgeted walk, no conflict budget is set, so both
//! engines can only answer Sat or Unsat — any divergence is a real
//! soundness bug in the incremental machinery (stale activation
//! literals, leaked retired constraints, blast-memo corruption across
//! scope pops). The SAT-variable count is watched alongside: a popped
//! scope must take its circuit with it.

use bvsolve::{Blaster, BvSolver, SatVerdict, SolveSession, Term, TermId, TermPool};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashSet;

/// A random width-8 term over `vars`, at most `depth` operators deep.
fn random_expr(pool: &mut TermPool, vars: &[TermId], rng: &mut StdRng, depth: u32) -> TermId {
    if depth == 0 || rng.gen_bool(0.3) {
        if rng.gen_bool(0.5) {
            vars[rng.gen_range(0..vars.len())]
        } else {
            pool.mk_const(8, rng.gen::<u8>() as u64)
        }
    } else {
        let a = random_expr(pool, vars, rng, depth - 1);
        let b = random_expr(pool, vars, rng, depth - 1);
        match rng.gen_range(0u32..7) {
            0 => pool.mk_add(a, b),
            1 => pool.mk_sub(a, b),
            2 => pool.mk_and(a, b),
            3 => pool.mk_or(a, b),
            4 => pool.mk_xor(a, b),
            5 => pool.mk_mul(a, b),
            _ => {
                let sh = pool.mk_const(8, rng.gen_range(0u64..8));
                pool.mk_shl(a, sh)
            }
        }
    }
}

/// A random width-1 constraint: a comparison of two random terms.
fn random_constraint(pool: &mut TermPool, vars: &[TermId], rng: &mut StdRng) -> TermId {
    let a = random_expr(pool, vars, rng, 2);
    let b = random_expr(pool, vars, rng, 2);
    match rng.gen_range(0u32..4) {
        0 => pool.mk_eq(a, b),
        1 => pool.mk_ne(a, b),
        2 => pool.mk_ult(a, b),
        _ => pool.mk_ule(a, b),
    }
}

/// The two defining properties of an [`bvsolve::Infeasibility`] core:
/// it is a subset of the queried constraints, and its conjunction is
/// itself UNSAT (checked on a throwaway fresh solver).
fn assert_core_sound(
    pool: &mut TermPool,
    inf: &bvsolve::Infeasibility,
    cs: &[TermId],
    seed: u64,
    step: usize,
) {
    assert!(
        !inf.core.is_empty(),
        "seed {seed} step {step}: empty core for an UNSAT query"
    );
    for t in &inf.core {
        assert!(
            cs.contains(t),
            "seed {seed} step {step}: core term {t:?} not among the queried constraints"
        );
    }
    assert!(
        BvSolver::new().check(pool, &inf.core).is_unsat(),
        "seed {seed} step {step}: returned core is not itself UNSAT ({} of {} terms)",
        inf.core.len(),
        cs.len()
    );
}

#[test]
fn interleaved_assert_retire_check_matches_fresh() {
    let mut sat_seen = 0usize;
    let mut unsat_seen = 0usize;
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(0xD0B8_E5C0 ^ seed);
        let mut pool = TermPool::new();
        let vars: Vec<TermId> = (0..4)
            .map(|i| pool.fresh_var(&format!("v{i}"), 8))
            .collect();
        let mut session = SolveSession::new();
        let empty_vars = session.num_sat_vars();
        let mut active: Vec<TermId> = Vec::new();
        let mut checks = 0usize;
        for step in 0..150 {
            match rng.gen_range(0u32..5) {
                // Assert a new random constraint (biased: growth).
                0 | 1 => {
                    let c = random_constraint(&mut pool, &vars, &mut rng);
                    session.assert_constraint(c);
                    active.push(c);
                }
                // Retire a random suffix.
                2 if !active.is_empty() => {
                    let keep = rng.gen_range(0..active.len());
                    session.retire_to(keep);
                    active.truncate(keep);
                    if keep == 0 {
                        assert_eq!(
                            session.num_sat_vars(),
                            empty_vars,
                            "seed {seed} step {step}: an empty stack still holds circuits"
                        );
                    }
                }
                // Check, with or without an ephemeral extra.
                _ => {
                    let extra: Vec<TermId> = if rng.gen_bool(0.3) {
                        vec![random_constraint(&mut pool, &vars, &mut rng)]
                    } else {
                        Vec::new()
                    };
                    let got = session.check_assuming(&mut pool, &extra);
                    if !extra.is_empty() {
                        // The first query may have blasted the stack;
                        // the extra itself must not stay behind.
                        let vars = session.num_sat_vars();
                        let again = session.check_assuming(&mut pool, &extra);
                        assert_eq!(again.is_sat(), got.is_sat(), "seed {seed} step {step}");
                        assert_eq!(
                            session.num_sat_vars(),
                            vars,
                            "seed {seed} step {step}: an ephemeral extra leaked its circuit"
                        );
                    }
                    let mut cs = active.clone();
                    cs.extend_from_slice(&extra);
                    let want = BvSolver::new().check(&mut pool, &cs);
                    match (&got, &want) {
                        (SatVerdict::Sat(_), SatVerdict::Sat(_)) => sat_seen += 1,
                        (SatVerdict::Unsat(inf), SatVerdict::Unsat(_)) => {
                            assert_core_sound(&mut pool, inf, &cs, seed, step);
                            unsat_seen += 1;
                        }
                        (g, w) => panic!(
                            "seed {seed} step {step}: session said {g:?}, fresh said {w:?} \
                             on {} active + {} extra constraints",
                            active.len(),
                            extra.len()
                        ),
                    }
                    checks += 1;
                }
            }
        }
        assert!(checks > 20, "seed {seed}: too few checks ({checks})");
    }
    // The schedule must actually exercise both verdicts.
    assert!(sat_seen > 0, "no satisfiable checks generated");
    assert!(unsat_seen > 0, "no unsatisfiable checks generated");
}

#[test]
fn sync_form_matches_fresh_on_random_walks() {
    // The one-call `check_constraints` form the step-2 search uses:
    // random tree walks over growing/shrinking constraint vectors.
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0xBEEF ^ seed);
        let mut pool = TermPool::new();
        let vars: Vec<TermId> = (0..3)
            .map(|i| pool.fresh_var(&format!("w{i}"), 8))
            .collect();
        let mut session = SolveSession::new();
        let mut cs: Vec<TermId> = Vec::new();
        for _ in 0..60 {
            if cs.is_empty() || rng.gen_bool(0.6) {
                let c = random_constraint(&mut pool, &vars, &mut rng);
                cs.push(c);
            } else {
                cs.truncate(rng.gen_range(0..cs.len()));
            }
            let got = session.check_constraints(&mut pool, &cs);
            let want = BvSolver::new().check(&mut pool, &cs);
            assert_eq!(
                got.is_sat(),
                want.is_sat(),
                "seed {seed}: verdict diverged on {} constraints",
                cs.len()
            );
            if let SatVerdict::Unsat(inf) = &got {
                assert_core_sound(&mut pool, inf, &cs, seed, 0);
            }
            assert_eq!(session.active(), &cs[..], "stack must mirror the vector");
        }
    }
}

#[test]
fn solver_size_stays_bounded_over_5000_cycles() {
    // A long-lived session over a fixed vocabulary of constraints:
    // however many assert/retire/check cycles it has served, it holds
    // at most the circuits of its (depth-capped) active stack.
    const DEPTH_CAP: usize = 6;
    let mut rng = StdRng::seed_from_u64(0x5C09ED);
    let mut pool = TermPool::new();
    let vars: Vec<TermId> = (0..4)
        .map(|i| pool.fresh_var(&format!("v{i}"), 8))
        .collect();
    let vocab: Vec<TermId> = (0..24)
        .map(|_| random_constraint(&mut pool, &vars, &mut rng))
        .collect();
    // Every circuit of the vocabulary at once, plus the activation
    // literals of a full stack and one extra.
    let mut all_at_once = Blaster::new();
    for &c in &vocab {
        all_at_once.blast(&pool, c);
    }
    let bound = all_at_once.num_sat_vars() + DEPTH_CAP + 1;

    let mut session = SolveSession::new();
    let empty_vars = session.num_sat_vars();
    let mut peak_early = 0;
    let mut peak = 0;
    for cycle in 0..5000 {
        if session.depth() == DEPTH_CAP || (session.depth() > 0 && rng.gen_bool(0.4)) {
            session.retire_to(rng.gen_range(0..session.depth()));
        }
        session.assert_constraint(vocab[rng.gen_range(0..vocab.len())]);
        let extra: Vec<TermId> = if rng.gen_bool(0.3) {
            vec![vocab[rng.gen_range(0..vocab.len())]]
        } else {
            Vec::new()
        };
        let got = session.check_assuming(&mut pool, &extra);
        let mut cs = session.active().to_vec();
        cs.extend_from_slice(&extra);
        let want = BvSolver::new().check(&mut pool, &cs);
        assert_eq!(got.is_sat(), want.is_sat(), "cycle {cycle} diverged");
        peak = peak.max(session.num_sat_vars());
        if cycle < 500 {
            peak_early = peak;
        }
        assert!(
            session.num_sat_vars() <= bound,
            "cycle {cycle}: {} SAT variables, the whole vocabulary is {bound}",
            session.num_sat_vars()
        );
    }
    assert!(
        peak <= peak_early + peak_early / 4,
        "solver grew with session age: peak {peak_early} in the first 500 cycles, {peak} overall"
    );
    session.retire_to(0);
    assert_eq!(session.num_sat_vars(), empty_vars);
}

#[test]
fn gate_table_entries_leave_with_their_scope() {
    // `a + b` and `ult(a, b)` fill the blaster's gate table inside a
    // scope. Rolled back, their variable indices go to other circuits
    // over the same (surviving) inputs; asserted again, the first terms
    // must get gates of their own. A table entry that outlived its
    // scope would wire them to whatever owns the index now.
    let mut pool = TermPool::new();
    let a = pool.fresh_var("a", 8);
    let b = pool.fresh_var("b", 8);
    // Below every scope that comes and goes: keeps the inputs blasted,
    // and — both odd — makes half the sums and differences infeasible
    // in a way only the circuits can see.
    let one = pool.mk_const(8, 1);
    let base = [a, b].map(|v| {
        let low = pool.mk_and(v, one);
        pool.mk_eq(low, one)
    });
    let sum = pool.mk_add(a, b);
    let lt = pool.mk_ult(a, b);
    let diff = pool.mk_sub(b, a);
    let mix = pool.mk_xor(a, b);
    let mix_gt = pool.mk_ult(a, mix);

    let mut session = SolveSession::new();
    let mut queries = 0;
    let mut verdicts = [0usize; 2];
    let mut ask = |session: &mut SolveSession, pool: &mut TermPool, top: [TermId; 2]| {
        let cs = [base[0], base[1], top[0], top[1]];
        let got = session.check_constraints(pool, &cs);
        let want = BvSolver::new().check(pool, &cs);
        assert_eq!(
            (got.is_sat(), got.is_unsat()),
            (want.is_sat(), want.is_unsat()),
            "query {queries} diverged from the fresh solver"
        );
        queries += 1;
        verdicts[usize::from(got.is_sat())] += 1;
        session.num_sat_vars()
    };
    for k in 0..40u64 {
        let sum_is = pool.mk_const(8, 11 * k);
        let sum_is = pool.mk_eq(sum, sum_is);
        let diff_is = pool.mk_const(8, 7 * k + 1);
        let diff_is = pool.mk_eq(diff, diff_is);
        let first = ask(&mut session, &mut pool, [sum_is, lt]);
        ask(&mut session, &mut pool, [diff_is, mix_gt]);
        let again = ask(&mut session, &mut pool, [sum_is, lt]);
        assert_eq!(
            first, again,
            "round {k}: the same stack, a different circuit"
        );
    }
    assert_eq!(session.stats().by_blast, queries, "every query must blast");
    assert!(verdicts[0] > 0 && verdicts[1] > 0, "{verdicts:?}");
}

/// How many distinct terms `roots` reach.
fn reachable(pool: &TermPool, roots: &[TermId]) -> usize {
    let mut visited = HashSet::new();
    for &t in roots {
        pool.vars_into(t, &mut visited, &mut Vec::new());
    }
    visited.len()
}

/// What [`fork_walk`] saw.
struct Walk {
    deepest: usize,
    unknown: usize,
    /// Decided verdicts that came after an `Unknown`.
    decided_after_unknown: usize,
}

/// The step-1 executor's query shape: a LIFO worklist of path
/// conditions; each fork asks `path ∧ c` and then its sibling
/// `path ∧ ¬c` through [`SolveSession::check_constraints`], so the
/// stack follows the path, a sibling is a rollback plus one conjunct,
/// and popping the worklist jumps back to a shallower prefix. `Unknown`
/// reads as feasible, as in the executor. Every decided verdict must
/// match a fresh, budget-free [`BvSolver`] on the same list — and so
/// must the layer that gave it, which holds the session's scoped
/// interval memo to the oracle's whole walk of the conjunction (in a
/// debug build `check_assuming` also asserts the two intervals equal).
/// A `Sat` model, read off the blaster's live variables, must satisfy
/// the conjunction; and the memo never holds more than the terms under
/// the live stack and its fold.
fn fork_walk(session: &mut SolveSession, seed: u64, queries: usize) -> Walk {
    const MAX_DEPTH: usize = 72;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = TermPool::new();
    let vars: Vec<TermId> = (0..6)
        .map(|i| pool.fresh_var(&format!("v{i}"), 8))
        .collect();
    let mut walk = Walk {
        deepest: 0,
        unknown: 0,
        decided_after_unknown: 0,
    };
    let mut asked = 0;
    let mut worklist: Vec<Vec<TermId>> = vec![Vec::new()];
    while let Some(path) = worklist.pop() {
        if asked >= queries {
            break;
        }
        if path.len() == MAX_DEPTH {
            continue;
        }
        let c = random_constraint(&mut pool, &vars, &mut rng);
        let notc = pool.mk_not(c);
        for cond in [c, notc] {
            let mut cs = path.clone();
            cs.push(cond);
            let before = session.stats();
            let got = session.check_constraints(&mut pool, &cs);
            asked += 1;
            walk.deepest = walk.deepest.max(session.depth());
            let mut oracle = BvSolver::new();
            let want = oracle.check(&mut pool, &cs);
            let (layer, oracle_layer) = (session.stats().delta(&before), oracle.stats());
            assert_eq!(
                (layer.by_simplify, layer.by_interval, layer.by_blast),
                (
                    oracle_layer.by_simplify,
                    oracle_layer.by_interval,
                    oracle_layer.by_blast
                ),
                "seed {seed:#x} query {asked}: another layer answered"
            );
            if let SatVerdict::Sat(model) = &got {
                let conj = pool.mk_conj(&cs);
                assert_eq!(
                    model.value_of(conj, &pool),
                    1,
                    "seed {seed:#x} query {asked}: the model misses the query"
                );
            }
            // The stack's terms, one fold node per entry, and `true`.
            let bound = reachable(&pool, &cs) + cs.len() + 1;
            assert!(
                session.num_intervals() <= bound,
                "seed {seed:#x} query {asked}: {} intervals held for {bound} live terms",
                session.num_intervals()
            );
            match got {
                SatVerdict::Unknown | SatVerdict::Interrupted => walk.unknown += 1,
                _ => {
                    assert_eq!(
                        (got.is_sat(), got.is_unsat()),
                        (want.is_sat(), want.is_unsat()),
                        "seed {seed:#x} query {asked} (depth {}) diverged",
                        cs.len()
                    );
                    walk.decided_after_unknown += usize::from(walk.unknown > 0);
                }
            }
            if !got.is_unsat() {
                worklist.push(cs);
            }
        }
    }
    walk
}

#[test]
fn deep_fork_walk_matches_fresh_solver() {
    for seed in [0xF0_4B1u64, 0xF0_4B2] {
        let mut session = SolveSession::new();
        session.set_core_extraction(false);
        let walk = fork_walk(&mut session, seed, 400);
        assert!(
            walk.deepest >= 64,
            "seed {seed:#x}: stack only {} deep",
            walk.deepest
        );
        assert_eq!(walk.unknown, 0, "no budget, no Unknown");
        let st = session.stats();
        assert!(st.blast_cache_hits > st.blast_cache_misses, "{st:?}");
        assert!(st.by_interval > 0, "{st:?}");
        assert!(session.num_intervals() > 0);
        session.retire_to(0);
        assert_eq!(
            session.num_intervals(),
            0,
            "an empty stack holds no interval"
        );
    }
}

#[test]
fn fork_walk_stays_correct_after_unknown() {
    // One conflict per query: the hard questions come back Unknown,
    // their scopes are rolled back by the next question, and whatever
    // the session decides afterwards must still be right.
    let mut session = SolveSession::with_conflict_budget(1);
    session.set_core_extraction(false);
    let walk = fork_walk(&mut session, 0xF0_4B4, 400);
    assert!(walk.deepest >= 64, "stack only {} deep", walk.deepest);
    assert!(walk.unknown > 0, "a one-conflict budget starved no query");
    assert!(walk.decided_after_unknown > 0);
}

/// The variable id of a variable term.
fn var_id(pool: &TermPool, t: TermId) -> u32 {
    match *pool.get(t) {
        Term::Var { id, .. } => id,
        _ => panic!("not a variable"),
    }
}

/// [`SolveSession::lex_min_model`] against brute-force enumeration:
/// random constraints over three variables of at most 12 bits
/// together, the first field saying how many of the other two are
/// reported. The session reaches the extraction three ways — straight
/// after the check that answered the stack (the trail is reused),
/// after a query with an extra conjunct (one solve first), and with
/// the constraints asserted but never checked (blasted in the
/// extraction's scope) — and sometimes the third variable appears in
/// no constraint at all (unconstrained: it reads 0).
#[test]
fn lex_min_model_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(0x1E_A1);
    let (mut found, mut unsat, mut short) = (0, 0, 0);
    for round in 0..240 {
        let mut pool = TermPool::new();
        let widths = [
            rng.gen_range(1u32..6),
            rng.gen_range(1u32..5),
            rng.gen_range(1u32..4),
        ];
        let vars: Vec<TermId> = widths
            .iter()
            .enumerate()
            .map(|(i, &w)| pool.fresh_var(&format!("v{i}"), w))
            .collect();
        let wide: Vec<TermId> = vars.iter().map(|&v| pool.mk_zext(v, 8)).collect();
        let used = if rng.gen_bool(0.2) {
            &wide[..2]
        } else {
            &wide[..]
        };
        let cs: Vec<TermId> = (0..rng.gen_range(1usize..4))
            .map(|_| random_constraint(&mut pool, used, &mut rng))
            .collect();

        let mut session = SolveSession::new();
        match round % 3 {
            0 => drop(session.check_constraints(&mut pool, &cs)),
            1 => {
                session.check_constraints(&mut pool, &cs);
                let extra = random_constraint(&mut pool, used, &mut rng);
                session.check_assuming(&mut pool, &[extra]);
            }
            _ => cs.iter().for_each(|&c| session.assert_constraint(c)),
        }
        let got = session.lex_min_model(&pool, &vars, |first| (first % 3) as usize);

        // The first satisfying tuple in lexicographic order, with the
        // fields the first one does not report read as 0.
        let conj = pool.mk_conj(&cs);
        let ids: Vec<u32> = vars.iter().map(|&v| var_id(&pool, v)).collect();
        let mut want = None;
        'search: for x in 0..1u64 << widths[0] {
            for y in 0..1u64 << widths[1] {
                for z in 0..1u64 << widths[2] {
                    let mut a = bvsolve::Assignment::new();
                    for (&id, v) in ids.iter().zip([x, y, z]) {
                        a.set(id, v);
                    }
                    if bvsolve::eval(&pool, conj, &a) == 1 {
                        let mut tuple = [x, y, z];
                        for v in &mut tuple[1 + (x % 3) as usize..] {
                            *v = 0;
                        }
                        want = Some(tuple);
                        break 'search;
                    }
                }
            }
        }
        match (got, want) {
            (None, None) => unsat += 1,
            (Some(model), Some(tuple)) => {
                let got: Vec<u64> = ids.iter().map(|&id| model.var(id)).collect();
                assert_eq!(got, tuple, "round {round}");
                found += 1;
                short += usize::from(tuple[0] % 3 < 2);
            }
            (got, want) => panic!("round {round}: got {got:?}, want {want:?}"),
        }
    }
    assert!(
        found > 100 && unsat > 5 && short > 30,
        "{found} / {unsat} / {short}"
    );
}

/// A select run ends at a link that repeats a constant: in
/// `ite(x==1, a, ite(x==2, c, ite(x==1, b, d)))` the inner `x==1`
/// link is shadowed, so its value `b` never decides the term — but it
/// is still one of the query's free variables, and the default the run
/// stops at blasts it like any other term. A lowering that skipped the
/// shadowed link would leave `b` out of the live model.
#[test]
fn a_repeated_constant_ends_the_select_run() {
    let mut pool = TermPool::new();
    let x = pool.fresh_var("x", 8);
    let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| pool.fresh_var(n, 8));
    let [one, two, seven] = [1, 2, 7].map(|k| pool.mk_const(8, k));
    let x1 = pool.mk_eq(x, one);
    let x2 = pool.mk_eq(x, two);
    let shadowed = pool.mk_ite(x1, b, d);
    let mid = pool.mk_ite(x2, c, shadowed);
    let head = pool.mk_ite(x1, a, mid);
    let q = pool.mk_eq(head, seven);

    let mut session = SolveSession::new();
    let got = session.check_constraints(&mut pool, &[q]);
    let SatVerdict::Sat(model) = &got else {
        panic!("expected Sat, got {got:?}");
    };
    assert_eq!(model.value_of(q, &pool), 1, "the model misses the query");
    assert_eq!(session.stats().by_blast, 1, "the blaster must decide it");
}

/// Select chains built the way the executor builds a symbolic-offset
/// access — `load_bytes` as `ite(off == s, v_s, …)` over every window
/// position down to a constant 0, `store_bytes` as one short chain per
/// cell over the cell's previous content — at 4 bits, under a push/pop
/// script. Some scopes blast a chain's inner node first, so a run
/// blasted above it stops at that memo entry; popping the inner scope
/// and asking again blasts the whole run afresh. Every verdict must
/// equal exhaustive enumeration over the three variables, which shares
/// nothing with the blaster; in a debug build the SAT solver checks its
/// own invariants after every rollback.
#[test]
fn scoped_select_runs_match_brute_force() {
    const W: u32 = 4;
    let mut pool = TermPool::new();
    let off = pool.fresh_var("off", W);
    let a = pool.fresh_var("a", W);
    let b = pool.fresh_var("b", W);
    let ids = [off, a, b].map(|v| var_id(&pool, v));
    let k = |pool: &mut TermPool, v: u64| pool.mk_const(W, v);

    // The packet window: symbolic cells, none of them constant.
    let mut pkt: Vec<TermId> = (0..12u64)
        .map(|i| {
            let ki = k(&mut pool, i);
            match i % 3 {
                0 => pool.mk_add(a, ki),
                1 => pool.mk_xor(b, ki),
                _ => pool.mk_sub(a, b),
            }
        })
        .collect();
    // Every node of every chain, head last per chain.
    let mut nodes: Vec<TermId> = Vec::new();
    // A load at `off` over the whole window.
    let mut acc = k(&mut pool, 0);
    for s in 0..pkt.len() as u64 {
        let hit = k(&mut pool, s);
        let hit = pool.mk_eq(off, hit);
        acc = pool.mk_ite(hit, pkt[s as usize], acc);
        nodes.push(acc);
    }
    // A 2-cell store of `b` and `a + 1` at `off`, then a load at the
    // other selector `off + 3` over the stored window: each run's
    // default is a run over `off`.
    let one = k(&mut pool, 1);
    let val = [b, pool.mk_add(a, one)];
    for (i, cell) in pkt.iter_mut().enumerate() {
        for (j, &v) in val.iter().enumerate().take(i + 1) {
            let at = k(&mut pool, (i - j) as u64);
            let hit = pool.mk_eq(off, at);
            *cell = pool.mk_ite(hit, v, *cell);
            nodes.push(*cell);
        }
    }
    let three = k(&mut pool, 3);
    let off3 = pool.mk_add(off, three);
    let mut acc = k(&mut pool, 0);
    for (s, &cell) in pkt.iter().enumerate() {
        let hit = k(&mut pool, s as u64);
        let hit = pool.mk_eq(off3, hit);
        acc = pool.mk_ite(hit, cell, acc);
        nodes.push(acc);
    }

    // Two constraints per node, and the truth table of each over all
    // 2^12 assignments of (off, a, b), read off one `eval` of their
    // concatenation per 32 constraints and assignment.
    let mut rng = StdRng::seed_from_u64(0x005E_1EC7);
    let mut cs: Vec<TermId> = Vec::new();
    for &n in &nodes {
        for _ in 0..2 {
            let other = match rng.gen_range(0u32..3) {
                0 => a,
                1 => b,
                _ => k(&mut pool, rng.gen_range(0..16)),
            };
            cs.push(match rng.gen_range(0u32..3) {
                0 => pool.mk_eq(n, other),
                1 => pool.mk_ne(n, other),
                _ => pool.mk_ult(n, other),
            });
        }
    }
    let mut tables = vec![Vec::new(); cs.len()];
    for (chunk, at) in cs.chunks(32).zip((0..).step_by(32)) {
        let packed = chunk[1..]
            .iter()
            .fold(chunk[0], |acc, &c| pool.mk_concat(c, acc));
        for bits in 0..1u64 << (3 * W) {
            let mut asg = bvsolve::Assignment::new();
            for (i, &id) in ids.iter().enumerate() {
                asg.set(id, bits >> (W * i as u32) & 0xF);
            }
            let v = bvsolve::eval(&pool, packed, &asg);
            for j in 0..chunk.len() {
                tables[at + j].push(v >> j & 1 == 1);
            }
        }
    }
    let vocab: Vec<(TermId, Vec<bool>)> = cs.into_iter().zip(tables).collect();
    let brute_force =
        |active: &[usize]| (0..1usize << (3 * W)).any(|i| active.iter().all(|&c| vocab[c].1[i]));

    let mut session = SolveSession::new();
    let mut active: Vec<usize> = Vec::new();
    let mut verdicts = [0usize; 2];
    let mut ask = |session: &mut SolveSession, pool: &mut TermPool, active: &[usize], step| {
        let cs: Vec<TermId> = active.iter().map(|&c| vocab[c].0).collect();
        let got = session.check_constraints(pool, &cs);
        assert!(
            got.is_sat() || got.is_unsat(),
            "step {step}: no budget, no Unknown"
        );
        assert_eq!(got.is_sat(), brute_force(active), "step {step} diverged");
        verdicts[usize::from(got.is_sat())] += 1;
    };
    // Inner node first, then the head above it; pop the head and ask
    // again; pop the inner node too and ask for the head alone.
    let load_head = 2 * (pkt.len() - 1);
    let inner = 2 * 5;
    let script = [
        &[inner, load_head][..],
        &[inner, load_head + 1],
        &[inner],
        &[load_head],
        &[inner + 1, load_head],
    ];
    for (step, stack) in script.iter().enumerate() {
        active = stack.to_vec();
        ask(&mut session, &mut pool, &active, step);
    }
    for step in script.len()..400 {
        if !active.is_empty() && (active.len() == 5 || rng.gen_bool(0.4)) {
            active.truncate(rng.gen_range(0..active.len()));
        }
        active.push(rng.gen_range(0..vocab.len()));
        ask(&mut session, &mut pool, &active, step);
    }
    assert!(verdicts[0] > 20 && verdicts[1] > 20, "{verdicts:?}");
    assert!(session.stats().by_blast > 100, "{:?}", session.stats());
}
