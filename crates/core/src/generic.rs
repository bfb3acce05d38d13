//! The **generic baseline**: whole-pipeline monolithic symbolic
//! execution, modeling what a general-purpose engine (vanilla S2E) does
//! with the same code (§5.2's "generic verification").
//!
//! No decomposition: element k executes directly on element k-1's
//! terminal states, so path counts multiply (`2^(m·n)`); data-structure
//! internals are executed (modeled by [`ForkingMapModel`]: one fork per
//! table entry / per hash slot); loops unroll iteration by iteration.
//! The state budget plays the role of the paper's 12-hour wall.
//! States move along the pipeline by step 2's walk rule, `successor`,
//! with the unrolling cap as the loop bound.

use crate::step2::{successor, Succ};
use bvsolve::{TermId, TermPool};
use dataplane::{ElementKind, Pipeline};
use symexec::{execute, ForkingMapModel, SegOutcome, SymConfig, SymError, SymInput};

/// Why a generic run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenericOutcome {
    /// Explored everything within budget.
    Completed,
    /// State budget exceeded — reported like the paper's "12h+" bars.
    Exceeded,
}

/// Result of a generic (baseline) verification run.
#[derive(Debug)]
pub struct GenericReport {
    /// Total symbolic states materialized (Fig. 4(c) annotation).
    pub states: usize,
    /// Complete pipeline paths reached.
    pub paths: usize,
    /// Crash-suspect paths found (the baseline finds the same bugs —
    /// when it finishes).
    pub crashes: usize,
    /// Paths that exhausted fuel or loop bounds.
    pub unbounded: usize,
    /// How the run ended.
    pub outcome: GenericOutcome,
}

struct GenState {
    stage: usize,
    iter: u32,
    pkt: Vec<TermId>,
    len: TermId,
    meta: Vec<TermId>,
    constraint: Vec<TermId>,
}

/// The baseline engine behind [`crate::session::Property::Generic`].
/// `loop_cap` bounds loop unrolling per element; `cfg.max_states` is
/// the global budget.
pub(crate) fn run_generic(pipeline: &Pipeline, cfg: &SymConfig, loop_cap: u32) -> GenericReport {
    let mut pool = TermPool::new();
    let input = SymInput::fresh(&mut pool, cfg, "in");
    let zero = pool.mk_const(dpir::META_WIDTH, 0);
    let mut report = GenericReport {
        states: 0,
        paths: 0,
        crashes: 0,
        unbounded: 0,
        outcome: GenericOutcome::Completed,
    };

    // Per-stage forking models, configured with the real table contents.
    let mut models: Vec<ForkingMapModel> = pipeline
        .stages
        .iter()
        .map(|s| {
            let elem = &s.element;
            let max_private = elem
                .program()
                .maps
                .iter()
                .filter(|d| !d.is_static)
                .map(|d| d.capacity)
                .max()
                .unwrap_or(0);
            let mut m = ForkingMapModel::new(max_private);
            for (map, cfg_t) in &elem.tables {
                m.set_table(*map, cfg_t.as_pairs().to_vec());
            }
            m
        })
        .collect();

    let mut stack = vec![GenState {
        stage: 0,
        iter: 0,
        pkt: input.pkt_bytes.clone(),
        len: input.pkt_len,
        meta: vec![zero; dpir::META_SLOTS],
        constraint: input.base_constraints.clone(),
    }];

    while let Some(st) = stack.pop() {
        if report.states >= cfg.max_states {
            report.outcome = GenericOutcome::Exceeded;
            return report;
        }
        let stage = &pipeline.stages[st.stage];
        let elem = &stage.element;
        let prog = elem.program();
        let is_loop = matches!(elem.kind, ElementKind::Loop { .. });
        let sym_in = SymInput::from_terms(
            st.pkt.clone(),
            st.len,
            st.meta.clone(),
            st.constraint.clone(),
        );
        let mut sub_cfg = cfg.clone();
        sub_cfg.max_states = cfg.max_states.saturating_sub(report.states).max(1);
        // Generic engines concretize symbolic packet offsets by forking.
        sub_cfg.fork_on_symbolic_offset = true;
        let rep = match execute(&mut pool, prog, &sym_in, &mut models[st.stage], &sub_cfg) {
            Ok(r) => r,
            Err(SymError::StateBudget { explored }) => {
                report.states += explored;
                report.outcome = GenericOutcome::Exceeded;
                return report;
            }
            Err(_) => {
                report.outcome = GenericOutcome::Exceeded;
                return report;
            }
        };
        report.states += rep.states;
        let loop_bound = is_loop.then_some(loop_cap);
        for seg in rep.segments {
            let (stage, iter) =
                match successor(pipeline, st.stage, st.iter, loop_bound, seg.outcome) {
                    Succ::Again(iter) => (st.stage, iter),
                    Succ::Next(stage) => (stage, 0),
                    Succ::LoopBound => {
                        report.unbounded += 1;
                        report.paths += 1;
                        continue;
                    }
                    Succ::Sink | Succ::End => {
                        report.crashes += usize::from(seg.outcome.is_crash());
                        report.unbounded += usize::from(seg.outcome == SegOutcome::FuelExhausted);
                        report.paths += 1;
                        continue;
                    }
                };
            stack.push(GenState {
                stage,
                iter,
                pkt: seg.pkt_out,
                len: seg.len_out,
                meta: seg.meta_out,
                constraint: seg.constraint,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use elements::micro::{field_filter, FilterField};
    use elements::pipelines::to_pipeline;

    fn cfg(max_states: usize) -> SymConfig {
        SymConfig {
            max_pkt_bytes: 48,
            max_states,
            ..Default::default()
        }
    }

    #[test]
    fn filter_chain_path_count_multiplies() {
        // 2 filters vs 4 filters: generic path counts grow
        // multiplicatively (Fig. 4(c)).
        let two = to_pipeline(
            "f2",
            vec![
                field_filter(FilterField::IpDst, 1),
                field_filter(FilterField::IpSrc, 2),
            ],
        );
        let four = to_pipeline(
            "f4",
            vec![
                field_filter(FilterField::IpDst, 1),
                field_filter(FilterField::IpSrc, 2),
                field_filter(FilterField::PortDst, 3),
                field_filter(FilterField::PortSrc, 4),
            ],
        );
        let r2 = run_generic(&two, &cfg(1 << 20), 4);
        let r4 = run_generic(&four, &cfg(1 << 20), 4);
        assert_eq!(r2.outcome, GenericOutcome::Completed);
        assert_eq!(r4.outcome, GenericOutcome::Completed);
        assert!(
            r4.states > 2 * r2.states,
            "whole-pipeline states must grow multiplicatively: {} vs {}",
            r2.states,
            r4.states
        );
        assert_eq!(r2.crashes, 0);
        assert_eq!(r4.crashes, 0);
    }

    #[test]
    fn budget_exceeded_reported() {
        let four = to_pipeline(
            "f4",
            vec![
                field_filter(FilterField::IpDst, 1),
                field_filter(FilterField::IpSrc, 2),
                field_filter(FilterField::PortDst, 3),
                field_filter(FilterField::PortSrc, 4),
            ],
        );
        let r = run_generic(&four, &cfg(10), 4);
        assert_eq!(r.outcome, GenericOutcome::Exceeded);
    }
}
