//! # bvsolve — bitvector terms and a bit-blasting decision procedure
//!
//! This crate is the constraint-solving layer of the dataplane verifier.
//! The symbolic executor builds **fixed-width bitvector terms** over
//! symbolic packet bytes; path feasibility queries are decided here.
//!
//! The stack is layered exactly as DESIGN.md §6 describes:
//!
//! 1. **Eager algebraic simplification** in the term constructors
//!    (constant folding, identities, structural equalities) — most terms
//!    never reach a solver at all.
//! 2. **Interval analysis** ([`interval_of`]) — a cheap unsigned-range
//!    pre-check that discharges comparisons whose operand ranges are
//!    disjoint or nested.
//! 3. **Bit-blasting** ([`Blaster`]) to CNF, decided by the from-scratch
//!    [`bitsat`] CDCL solver, with model extraction for counterexample
//!    packets.
//!
//! One front-end drives the stack in the product: [`SolveSession`]
//! answers *streams* of related queries incrementally — each
//! constraint on its assertion stack is blasted once, in a scope of
//! its own, and asserted under an activation literal; popping the
//! stack drops the scope's circuit from the solver, while the CDCL
//! core keeps the learnt clauses over what survives. Both verification
//! steps ask their questions this way: step 1's fork-feasibility checks
//! (the stack follows the executor's path condition) and step 2's
//! composed-path search. [`BvSolver`] answers one isolated query on a
//! fresh SAT instance with the same layering; it is the **oracle** the
//! test suites and the repo benchmark hold sessions to (decided
//! verdicts are identical), and no product crate names it.
//!
//! ## Example
//!
//! ```
//! use bvsolve::{TermPool, SolveSession, SatVerdict};
//!
//! let mut pool = TermPool::new();
//! let x = pool.fresh_var("x", 8);
//! let five = pool.mk_const(8, 5);
//! let lt = pool.mk_ult(x, five);          // x < 5
//! let three = pool.mk_const(8, 3);
//! let gt = pool.mk_ult(three, x);         // x > 3
//! let mut session = SolveSession::new();
//! let verdict = session.check_constraints(&mut pool, &[lt, gt]);
//! assert!(matches!(verdict, SatVerdict::Sat(_)));
//! if let SatVerdict::Sat(model) = verdict {
//!     assert_eq!(model.value_of(x, &pool), 4); // only solution
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blast;
mod eval;
mod idhash;
mod interval;
mod migrate;
mod pretty;
mod session;
mod solver;
mod term;

pub use blast::{BlastMark, Blaster};
pub use eval::{eval, Assignment, Substitution};
pub use interval::{interval_of, Interval};
pub use migrate::Migrator;
pub use pretty::print_term;
pub use session::SolveSession;
pub use solver::{BvSolver, Infeasibility, Model, SatVerdict, SolverLayerStats};
pub use term::{BinOp, Term, TermId, TermPool, UnOp, Width, MAX_WIDTH};
