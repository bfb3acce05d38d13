//! # verifier — software dataplane verification (the paper's tool)
//!
//! Proves, or disproves with concrete counterexample packets, the three
//! target properties of §4 over pipelines of `dataplane` elements:
//!
//! * **crash-freedom** ([`Property::CrashFreedom`]) — no packet can
//!   make the pipeline terminate abnormally,
//! * **bounded-execution** ([`Property::Bounded`]) — no packet
//!   executes more than `I_max` instructions; also returns the longest
//!   feasible path and the packet that exercises it (§5.3 "longest
//!   paths", [`Verifier::longest_paths`]),
//! * **filtering** ([`Property::Filter`]) — e.g. "any packet with
//!   source IP A is dropped", under a specific configuration.
//!
//! The entry point is the [`session`] API: a [`Verifier`] caches the
//! step-1 summaries per [`MapMode`] and checks any number of
//! [`Property`] values against them, each by one deterministic
//! single-threaded search. Step-1 summaries are content-addressed in
//! a [`SummaryStore`] ([`Verifier::with_store`]) so sessions,
//! pipelines and config variants share them; the [`fleet`] module
//! scales that to N pipeline variants × M properties on one store —
//! and is where the worker threads are: one search per behaviour class
//! ([`Fleet::threads`]).
//!
//! ## How it works (paper §3)
//!
//! **Step 1** ([`summary`]) symbolically executes each element in
//! isolation with an unconstrained symbolic packet, producing segment
//! summaries; data structures are *abstracted* behind the Condition 2
//! interface (reads havoc), so the engine never touches store
//! internals. Loop elements contribute the summary of a *single*
//! iteration (Condition 1).
//!
//! **Step 2** ([`step2`]) composes segment summaries along
//! pipeline paths that can still reach a *suspect* segment, renaming
//! havoc variables per instantiation and substituting each element's
//! symbolic input with its upstream neighbor's output terms — literally
//! the paper's `C*(in) = C1(in) ∧ C2(S1(in)[out])`. Feasibility is
//! decided by the layered `bvsolve` stack; a satisfiable suspect path
//! yields a counterexample packet, an exhausted search is a proof.
//!
//! **Mutable private state** ([`stateful`]) is handled by the §3.4
//! two-sub-step scheme: havoc the reads (already done in step 1), then
//! pattern-match the logged map operations against known state shapes
//! (the monotonic counter of Fig. 3) and discharge or confirm them by
//! induction.
//!
//! The **generic baseline** ([`generic`]) executes the whole pipeline
//! monolithically with forking data-structure models — the behavior of
//! a general-purpose engine, reproducing the exponential blow-ups of
//! Fig. 4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
mod compose;
pub mod cores;
mod engine;
pub mod fleet;
pub mod generic;
pub(crate) mod persist;
pub mod report;
pub mod session;
pub mod stateful;
pub mod step2;
pub mod summary;

pub use churn::{ChurnSession, ChurnStats, ReuseLevel, UnsupportedProperty, UpdateReport};
pub use cores::{CoreStats, CoreStore};
pub use fleet::{Fleet, FleetReport, VariantReport};
pub use generic::{GenericOutcome, GenericReport};
pub use report::{CounterExample, SummaryCacheStats, Verdict, VerifyReport};
pub use session::{GenericRun, Property, Report, StateReport, Verifier};
pub use stateful::StateFinding;
pub use step2::{FilterProperty, LongestPath, VerifyConfig};
pub use summary::{
    summarize_pipeline, summarize_pipeline_with_store, MapMode, PipelineSummaries, StageSummary,
    SummaryKey, SummaryStore,
};
