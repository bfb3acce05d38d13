//! # symexec — symbolic execution of dataplane IR
//!
//! This crate is the engine behind verification **step 1** (paper §3.1):
//! it executes one element (or loop body) with a fully unconstrained
//! symbolic packet and produces, for every feasible *segment* through the
//! element, a [`Segment`] summary:
//!
//! * the **path constraint** — bitvector terms over the symbolic input
//!   that select this segment,
//! * the **symbolic state transform** — output packet bytes, length and
//!   metadata as terms over the input,
//! * the **outcome** (emit/drop/crash/fuel-exhausted) and the exact
//!   **instruction count** (for bounded-execution),
//! * a **log of map operations** with their key/value terms (for the
//!   mutable-private-state analysis of §3.4).
//!
//! ## Map models
//!
//! Data-structure accesses go through a pluggable [`MapModel`]:
//!
//! * [`AbstractMapModel`] — the paper's Condition 2/3 abstraction: reads
//!   return *havoced* (fresh, unconstrained) symbolic values; internals
//!   of the store are never executed. This is what makes the
//!   dataplane-specific verifier scale.
//! * [`TableMapModel`] — a static map with known (configuration)
//!   contents, summarized as an if-then-else chain over the entries;
//!   used for filtering proofs under a specific configuration.
//! * [`ForkingMapModel`] — models what a *generic* symbolic-execution
//!   engine does when it executes data-structure code directly: every
//!   lookup forks per slot. This is the baseline that reproduces the
//!   exponential blow-ups of Fig. 4(a)/(b).
//!
//! ## Packet model
//!
//! The symbolic packet is a fixed window of byte variables plus a
//! symbolic 16-bit length. Loads/stores at symbolic offsets become
//! if-then-else selections over the window; out-of-bounds accesses fork
//! a crash segment — precisely the crash class the verifier hunts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executor;
mod input;
mod mapmodel;
mod segment;

pub use executor::{execute, execute_observed, ExecReport, ForkAnswer, SymError};
pub use input::{SymConfig, SymInput};
pub use mapmodel::{AbstractMapModel, ForkingMapModel, MapBranch, MapModel, TableMapModel};
pub use segment::{MapOpKind, MapOpRecord, SegOutcome, Segment};
