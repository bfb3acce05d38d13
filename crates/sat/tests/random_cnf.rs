//! Randomized differential tests: the CDCL solver against a brute-force
//! truth-table reference, over thousands of small random formulas.

use bitsat::{Cnf, Lit, SolveResult, Solver, Var};
use proptest::prelude::*;

/// Brute-force satisfiability by enumerating all 2^n assignments.
fn brute_force_sat(cnf: &Cnf) -> bool {
    let n = cnf.num_vars;
    assert!(n <= 16, "brute force limited to 16 vars");
    (0u32..1 << n).any(|bits| {
        let assignment: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        cnf.eval(&assignment)
    })
}

fn solve_cnf(cnf: &Cnf) -> (SolveResult, Option<Vec<bool>>) {
    let mut s = Solver::new();
    s.reserve_vars(cnf.num_vars);
    for c in &cnf.clauses {
        s.add_clause(c);
    }
    let r = s.solve();
    let model = if r.is_sat() { Some(s.model()) } else { None };
    (r, model)
}

/// Strategy: random CNF with `nv` vars, up to `nc` clauses of length 1..=4.
fn arb_cnf(nv: usize, nc: usize) -> impl Strategy<Value = Cnf> {
    let clause = proptest::collection::vec((0..nv, any::<bool>()), 1..=4);
    proptest::collection::vec(clause, 0..=nc).prop_map(move |cls| {
        let mut cnf = Cnf::new();
        cnf.num_vars = nv;
        for c in cls {
            let lits: Vec<Lit> = c
                .into_iter()
                .map(|(v, pos)| Lit::new(Var::from_index(v), pos))
                .collect();
            cnf.add_clause(&lits);
        }
        cnf
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn matches_brute_force(cnf in arb_cnf(8, 40)) {
        let expected = brute_force_sat(&cnf);
        let (got, model) = solve_cnf(&cnf);
        prop_assert_eq!(got.is_sat(), expected);
        if let Some(m) = model {
            prop_assert!(cnf.eval(&m), "returned model must satisfy the formula");
        }
    }

    #[test]
    fn model_is_valid_on_sat(cnf in arb_cnf(12, 60)) {
        let (got, model) = solve_cnf(&cnf);
        if let Some(m) = model {
            prop_assert!(got.is_sat());
            prop_assert!(cnf.eval(&m));
        }
    }

    #[test]
    fn assumptions_consistent(cnf in arb_cnf(8, 30), a in 0usize..8, pos in any::<bool>()) {
        // solve(F ∧ a) must equal solve_with_assumptions(F, [a]).
        let lit = Lit::new(Var::from_index(a), pos);
        let mut with_unit = cnf.clone();
        with_unit.add_clause(&[lit]);
        let expected = brute_force_sat(&with_unit);

        let mut s = Solver::new();
        s.reserve_vars(cnf.num_vars);
        for c in &cnf.clauses {
            s.add_clause(c);
        }
        let got = s.solve_with_assumptions(&[lit]);
        prop_assert_eq!(got.is_sat(), expected);
        if got.is_sat() {
            prop_assert_eq!(s.value(lit.var()), Some(lit.is_positive()));
            prop_assert!(cnf.eval(&s.model()));
        }
    }
}

/// One push/pop step: pop the newest group (when the tag is 0 and a
/// group is live), else push a group of `fresh` new variables and the
/// given clauses, literals drawn by index modulo the variable count.
type Step = (u8, usize, Vec<Vec<(u16, bool)>>);

fn arb_step() -> impl Strategy<Value = Step> {
    let clause = proptest::collection::vec((any::<u16>(), any::<bool>()), 1..=3);
    (0u8..3, 1usize..=3, proptest::collection::vec(clause, 0..=8))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn push_pop_matches_a_fresh_solver(
        base in arb_cnf(6, 10),
        script in proptest::collection::vec(arb_step(), 1..40),
    ) {
        // Every group is a conservative extension — each clause is
        // gated on the group's own fresh activation literal — which is
        // what lets `rollback` keep learnt clauses across a pop.
        let mut s = Solver::new();
        s.reserve_vars(base.num_vars);
        for c in &base.clauses {
            s.add_clause(c);
        }
        let mut live: Vec<(bitsat::Mark, Lit, Vec<Vec<Lit>>)> = Vec::new();
        for (tag, fresh, clauses) in script {
            if tag == 0 && !live.is_empty() {
                let (mark, _, _) = live.pop().expect("non-empty");
                s.rollback(mark);
            } else {
                let mark = s.mark();
                let act = s.new_activation_lit();
                s.reserve_vars(s.num_vars() + fresh);
                let n = s.num_vars();
                let group: Vec<Vec<Lit>> = clauses
                    .iter()
                    .map(|c| {
                        let pick = |&(v, pos)| Lit::new(Var::from_index(v as usize % n), pos);
                        std::iter::once(!act).chain(c.iter().map(pick)).collect()
                    })
                    .collect();
                for c in &group {
                    s.add_clause(c);
                }
                live.push((mark, act, group));
            }
            // LIFO pops keep the live groups' variables a prefix, so a
            // brand-new solver can take their clauses as they are.
            let mut cnf = base.clone();
            cnf.num_vars = s.num_vars();
            cnf.clauses.extend(live.iter().flat_map(|(_, _, g)| g.iter().cloned()));
            let assumptions: Vec<Lit> = live.iter().map(|&(_, act, _)| act).collect();
            let mut fresh_solver = Solver::new();
            fresh_solver.reserve_vars(cnf.num_vars);
            for c in &cnf.clauses {
                fresh_solver.add_clause(c);
            }
            let got = s.solve_with_assumptions(&assumptions);
            prop_assert_eq!(got, fresh_solver.solve_with_assumptions(&assumptions));
            if got.is_sat() {
                let model = s.model();
                prop_assert!(cnf.eval(&model), "model must satisfy base and live groups");
                prop_assert!(assumptions.iter().all(|a| model[a.var().index()]));
            } else {
                prop_assert!(s.last_core().iter().all(|l| assumptions.contains(l)));
            }
        }
    }
}

/// SplitMix64: the seeded stream behind the scripted differential
/// below (the proptest stand-in cannot report across cases).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A live group of the scripted differential: its mark, activation
/// literal and clauses, and the solver's deletion and learnt counts
/// when it was pushed.
struct Group {
    mark: bitsat::Mark,
    act: Lit,
    clauses: Vec<Vec<Lit>>,
    deleted: u64,
    learnts: usize,
}

/// Pushes a group: a fresh activation literal, then either pigeonhole
/// `holes + 1` → `holes` over fresh variables or (`holes == 0`) 1–3
/// fresh variables and up to 8 random clauses over every variable,
/// each clause gated on the activation literal.
fn push_group(s: &mut Solver, rng: &mut Mix, holes: usize) -> Group {
    let (mark, deleted, learnts) = (s.mark(), s.stats().deleted_clauses, s.num_learnts());
    let act = s.new_activation_lit();
    let mut clauses: Vec<Vec<Lit>> = Vec::new();
    if holes > 0 {
        let base = s.num_vars();
        s.reserve_vars(base + (holes + 1) * holes);
        let p = |i: usize, j: usize| Lit::pos(Var::from_index(base + i * holes + j));
        clauses.extend((0..=holes).map(|i| (0..holes).map(|j| p(i, j)).collect()));
        for j in 0..holes {
            for a in 0..=holes {
                clauses.extend((a + 1..=holes).map(|b| vec![!p(a, j), !p(b, j)]));
            }
        }
    } else {
        s.reserve_vars(s.num_vars() + 1 + rng.below(3));
        let n = s.num_vars();
        for _ in 0..rng.below(9) {
            let len = 1 + rng.below(3);
            let lit = |rng: &mut Mix| Lit::new(Var::from_index(rng.below(n)), rng.below(2) == 1);
            clauses.push((0..len).map(|_| lit(rng)).collect());
        }
    }
    for c in &mut clauses {
        c.insert(0, !act);
        s.add_clause(c);
    }
    Group {
        mark,
        act,
        clauses,
        deleted,
        learnts,
    }
}

/// `push_pop_matches_a_fresh_solver` never collects 1 000 learnt
/// clauses, `reduce_db`'s floor, so its rollbacks never meet a deleted
/// slot. Here a pigeonhole group 8 → 7 (≈ 4 700 conflicts, half its
/// learnt clauses deleted) is searched with a random group live above
/// it, so popping that random group compacts the pigeonhole's kept
/// learnt clauses across the deleted slots between them — inside a
/// random push/pop script, against a fresh solver at every step.
#[test]
fn push_pop_through_db_reductions_matches_a_fresh_solver() {
    let mut reducing_cases = 0;
    let mut compacting_pops = 0;
    for seed in 0..3 {
        let mut rng = Mix(seed);
        let mut s = Solver::new();
        s.reserve_vars(6);
        let base: Vec<Vec<Lit>> = (0..10)
            .map(|_| {
                let len = 2 + rng.below(2);
                (0..len)
                    .map(|_| Lit::new(Var::from_index(rng.below(6)), rng.below(2) == 1))
                    .collect()
            })
            .collect();
        for c in &base {
            s.add_clause(c);
        }
        let mut live: Vec<Group> = Vec::new();
        // A random prefix, the pigeonhole burst (push it with a random
        // group above, pop the random group, pop the pigeonhole), a
        // random suffix. The burst waits for a satisfiable stack, so
        // that the search reaches the pigeonhole; until then, from the
        // end of the prefix, every step pops.
        let prefix = rng.below(6);
        let mut burst: Option<usize> = None;
        let mut satisfiable = true;
        for step in 0..prefix + 12 {
            if burst.is_none() && step >= prefix && satisfiable {
                burst = Some(0);
            }
            match burst {
                Some(0) => {
                    live.push(push_group(&mut s, &mut rng, 7));
                    live.push(push_group(&mut s, &mut rng, 0));
                }
                Some(1 | 2) => {
                    let g = live.pop().expect("the burst's groups are live");
                    s.rollback(g.mark);
                    if s.stats().deleted_clauses > g.deleted && s.num_learnts() > g.learnts {
                        compacting_pops += 1;
                    }
                }
                // Waiting for the burst, an unsatisfiable stack pops.
                None if step >= prefix && !live.is_empty() => {
                    let g = live.pop().expect("non-empty");
                    s.rollback(g.mark);
                }
                _ if rng.below(3) == 0 && !live.is_empty() => {
                    let g = live.pop().expect("non-empty");
                    s.rollback(g.mark);
                }
                _ => live.push(push_group(&mut s, &mut rng, 0)),
            }
            burst = burst.map(|b| b + 1);
            let mut fresh = Solver::new();
            fresh.reserve_vars(s.num_vars());
            let groups = live.iter().flat_map(|g| &g.clauses);
            let clauses: Vec<&Vec<Lit>> = base.iter().chain(groups).collect();
            for c in &clauses {
                fresh.add_clause(c);
            }
            let assumptions: Vec<Lit> = live.iter().map(|g| g.act).collect();
            let got = s.solve_with_assumptions(&assumptions);
            assert_eq!(
                got,
                fresh.solve_with_assumptions(&assumptions),
                "seed {seed} step {step}"
            );
            satisfiable = got.is_sat();
            if got.is_sat() {
                let model = s.model();
                let holds =
                    |c: &&Vec<Lit>| c.iter().any(|l| model[l.var().index()] == l.is_positive());
                assert!(clauses.iter().all(holds), "seed {seed} step {step}: model");
                assert!(assumptions.iter().all(|a| model[a.var().index()]));
            }
        }
        reducing_cases += usize::from(s.stats().deleted_clauses > 0);
    }
    assert!(reducing_cases > 0, "no case reached reduce_db");
    assert!(
        compacting_pops > 0,
        "no pop compacted kept learnts past deleted slots"
    );
}

#[test]
fn dimacs_corpus_roundtrip_and_solve() {
    // A small embedded corpus with known verdicts.
    let cases: &[(&str, bool)] = &[
        ("p cnf 2 2\n1 2 0\n-1 -2 0\n", true),
        ("p cnf 1 2\n1 0\n-1 0\n", false),
        ("p cnf 3 4\n1 2 3 0\n-1 0\n-2 0\n-3 0\n", false),
        ("p cnf 4 4\n1 2 0\n-1 3 0\n-3 4 0\n-2 -4 0\n", true),
    ];
    for (text, expect_sat) in cases {
        let cnf = bitsat::parse_dimacs(text).expect("corpus parses");
        let (r, _) = solve_cnf(&cnf);
        assert_eq!(r.is_sat(), *expect_sat, "verdict for {text:?}");
        let round = bitsat::parse_dimacs(&bitsat::write_dimacs(&cnf)).expect("roundtrip");
        assert_eq!(cnf, round);
    }
}

#[test]
fn incremental_sequence_of_queries() {
    // Push clauses over time, interleaving solves — mimics how bvsolve
    // issues feasibility queries during step-2 composition.
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..30).map(|_| s.new_var()).collect();
    // Chain: v0 -> v1 -> ... -> v29
    for w in vars.windows(2) {
        s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
    }
    assert!(s.solve_with_assumptions(&[Lit::pos(vars[0])]).is_sat());
    assert_eq!(s.value(vars[29]), Some(true));
    assert!(s
        .solve_with_assumptions(&[Lit::pos(vars[0]), Lit::neg(vars[29])])
        .is_unsat());
    // Add a clause forcing the chain head false; still SAT overall.
    s.add_clause(&[Lit::neg(vars[0])]);
    assert!(s.solve().is_sat());
    assert_eq!(s.value(vars[0]), Some(false));
    assert!(s.solve_with_assumptions(&[Lit::pos(vars[0])]).is_unsat());
}
