//! # dataplane — a Click-like software dataplane
//!
//! The substrate the verifier operates on: packets, packet-processing
//! elements (IR programs with a loop-driver convention), pipelines with
//! port routing, a runner with counters, workload generators, and —
//! centrally for the paper — the **verifiable data structures** of
//! Condition 3 (§3.3):
//!
//! * [`store::ChainedHashMap`] — a hash table made of `N` pre-allocated
//!   arrays: adding the n-th colliding key lands in the n-th array, or
//!   the write is refused (`write` returns `false`). O(1) lookups,
//!   crash-free and bounded by construction.
//! * [`store::LpmTable`] — a longest-prefix-match table flattened to
//!   /24 entries (Gupta et al., Infocom 1998), again pre-allocated arrays.
//!
//! Both sit behind the Fig. 2 key/value interface ([`store::KvStore`]),
//! which is what lets the verifier abstract them away (Condition 2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod element;
pub mod headers;
pub mod pipeline;
pub mod runner;
pub mod store;
pub mod workload;

pub use delta::{DeltaEffect, DeltaError, TableDelta, TableOp};
pub use element::{Element, ElementKind, Table2Info, TableConfig, TableContents, TableKindError};
pub use pipeline::{Hop, Pipeline, Route, Stage};
pub use runner::{PipelineOutcome, Runner, RunnerStats};
