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
