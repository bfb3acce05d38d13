//! # bitsat — a from-scratch CDCL SAT solver
//!
//! `bitsat` is the propositional backend of the dataplane verifier. Path
//! constraints over packet bytes are bit-blasted (by the `bvsolve` crate)
//! into CNF and decided here.
//!
//! The solver implements the standard modern CDCL loop:
//!
//! * two-literal watching for unit propagation,
//! * first-UIP conflict analysis with clause learning and
//!   non-chronological backjumping,
//! * VSIDS-style variable activities with phase saving,
//! * Luby-sequence restarts,
//! * LBD-driven learnt-clause database reduction (glue clauses are
//!   kept forever; activity is the tie-break),
//! * assumption-level UNSAT cores ([`Solver::last_core`]),
//! * scoped allocation ([`Solver::mark`] / [`Solver::rollback`]):
//!   variables and clauses added since a mark are dropped for good,
//!   learnt clauses over the surviving variables are kept.
//!
//! The design goal mirrors the networking guides' advice for dataplane
//! code: simple, deterministic, allocation-conscious, no `unsafe`.
//!
//! ## Example
//!
//! ```
//! use bitsat::{Solver, Lit};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! // (a ∨ b) ∧ (¬a ∨ b) ∧ (a ∨ ¬b)
//! s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::neg(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::pos(a), Lit::neg(b)]);
//! assert!(s.solve().is_sat());
//! assert_eq!(s.value(a), Some(true));
//! assert_eq!(s.value(b), Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clause;
mod dimacs;
mod lit;
mod solver;

pub use clause::ClauseRef;
pub use dimacs::{parse_dimacs, write_dimacs, DimacsError};
pub use lit::{Lit, Var};
pub use solver::{Mark, SolveResult, Solver, SolverStats};

/// A CNF formula: a conjunction of clauses over variables `0..num_vars`.
///
/// This is the hand-off type between the bit-blaster and the solver; it can
/// also be round-tripped through DIMACS for debugging.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cnf {
    /// Number of variables; all literals must satisfy `var.index() < num_vars`.
    pub num_vars: usize,
    /// The clauses. An empty clause makes the formula trivially UNSAT.
    pub clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// Creates an empty formula with no variables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh variable and returns it.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Adds a clause (a disjunction of literals).
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.clauses.push(lits.to_vec());
    }

    /// Evaluates the formula under a total assignment (`assignment[i]` is
    /// the value of variable `i`). Returns `true` iff every clause has at
    /// least one satisfied literal.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.clauses.iter().all(|c| {
            c.iter()
                .any(|l| assignment[l.var().index()] == l.is_positive())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cnf_eval() {
        let mut f = Cnf::new();
        let a = f.new_var();
        let b = f.new_var();
        f.add_clause(&[Lit::pos(a), Lit::neg(b)]);
        assert!(f.eval(&[true, true]));
        assert!(f.eval(&[false, false]));
        assert!(!f.eval(&[false, true]));
    }
}
