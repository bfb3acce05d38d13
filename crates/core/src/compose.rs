//! Verification step 2 primitives: composing segment summaries.
//!
//! `compose` implements the paper's constraint composition: element
//! B's path constraint, with B's symbolic input substituted by element
//! A's symbolic output, conjoined onto A's path constraint. Havoc
//! variables (abstracted map reads) are renamed fresh per
//! instantiation, so two loop iterations (or two paths through the
//! same element) never alias each other's unknown state.
//!
//! What one composition costs, by how often each part is paid:
//!
//! * **per segment**, once per rebase: which of its variables are
//!   havocs, and in which order they are renamed — a constant of the
//!   summary, read from [`StageSummary::havocs`];
//! * **per composition**: one [`Substitution`] — the element's input
//!   variables bound to the state's terms, each havoc to a fresh
//!   variable — and the clones of the state's vectors;
//! * **per term**: a rebuild of the nodes no earlier term of the same
//!   segment shared with it; the constraints and outputs of a segment
//!   overlap heavily and go through the one memo.

use crate::summary::StageSummary;
use bvsolve::{Substitution, TermId, TermPool};
use symexec::SymInput;

/// The composed symbolic state after a prefix of pipeline segments —
/// all terms range over the *pipeline* input variables plus renamed
/// havoc variables.
#[derive(Debug, Clone)]
pub(crate) struct ComposedState {
    /// Conjunction of all composed path constraints.
    pub(crate) constraint: Vec<TermId>,
    /// Packet bytes as terms over the pipeline input.
    pub(crate) pkt: Vec<TermId>,
    /// Packet length term.
    pub(crate) len: TermId,
    /// Metadata terms.
    pub(crate) meta: Vec<TermId>,
    /// Total instructions along the composed path.
    pub(crate) instrs: u64,
    /// (stage index, segment index) trace, for reporting.
    pub(crate) trace: Vec<(usize, usize)>,
}

impl ComposedState {
    /// The initial state: the pipeline input itself.
    pub(crate) fn initial(input: &SymInput) -> Self {
        ComposedState {
            constraint: input.base_constraints.clone(),
            pkt: input.pkt_bytes.clone(),
            len: input.pkt_len,
            meta: input.meta.clone(),
            instrs: 0,
            trace: Vec::new(),
        }
    }
}

/// Composes segment `seg_idx` of `stage` (a summary over the stage's
/// own symbolic input) onto `state`.
///
/// * every input variable of the stage is replaced by the
///   corresponding term of `state` (packet bytes, length, metadata);
/// * every *other* variable of the segment (its havocs, listed by the
///   summary) is replaced by a fresh variable — including havocs a map
///   operation records but no term mentions (an unused `found` flag),
///   so the pool's variable numbering does not depend on which of the
///   segment's terms a composition substitutes;
/// * the segment's constraint is substituted and conjoined, its
///   transforms substituted into the new state.
pub(crate) fn compose(
    pool: &mut TermPool,
    state: &ComposedState,
    stage: &StageSummary,
    stage_idx: usize,
    seg_idx: usize,
) -> ComposedState {
    #[cfg(test)]
    COMPOSITIONS.with(|n| n.set(n.get() + 1));
    let segment = &stage.segments[seg_idx];
    let mut sub = Substitution::new();
    for (i, &vid) in stage.input.pkt_byte_vars.iter().enumerate() {
        sub.bind(vid, state.pkt[i]);
    }
    sub.bind(stage.input.len_var, state.len);
    for (s, &vid) in stage.input.meta_vars.iter().enumerate() {
        sub.bind(vid, state.meta[s]);
    }
    for &vid in &stage.havocs[seg_idx] {
        let w = pool.var_width(vid);
        let name = format!("{}@{}_{}", pool.var_name(vid), stage_idx, seg_idx);
        sub.bind(vid, pool.fresh_var(&name, w));
    }

    let mut constraint = state.constraint.clone();
    for &c in &segment.constraint {
        let c2 = sub.apply(pool, c);
        // Skip trivially-true conjuncts to keep constraints compact.
        if !pool.is_true(c2) {
            constraint.push(c2);
        }
    }
    let pkt = segment
        .pkt_out
        .iter()
        .map(|&t| sub.apply(pool, t))
        .collect();
    let len = sub.apply(pool, segment.len_out);
    let meta = segment
        .meta_out
        .iter()
        .map(|&t| sub.apply(pool, t))
        .collect();
    let mut trace = state.trace.clone();
    trace.push((stage_idx, seg_idx));
    ComposedState {
        constraint,
        pkt,
        len,
        meta,
        instrs: state.instrs + segment.instrs,
        trace,
    }
}

#[cfg(test)]
thread_local! {
    /// [`compose`] calls made on this thread — what the step-2 count
    /// guard holds equal to the `composed_paths` a search reports.
    pub(crate) static COMPOSITIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bvsolve::substitute;
    use std::collections::{HashMap, HashSet};
    use symexec::{execute, AbstractMapModel, SegOutcome, Segment, SymConfig};

    /// [`compose`] as it was before the summary carried havoc lists:
    /// the havocs found by walking the free variables of every term,
    /// every term substituted under a memo of its own. The oracle of
    /// the step-2 differential tests — same state, `TermId` for
    /// `TermId`, and the same pool growth.
    pub(crate) fn compose_oracle(
        pool: &mut TermPool,
        state: &ComposedState,
        elem_input: &SymInput,
        segment: &Segment,
        stage_idx: usize,
        seg_idx: usize,
    ) -> ComposedState {
        let mut map: HashMap<u32, TermId> = HashMap::new();
        for (i, &vid) in elem_input.pkt_byte_vars.iter().enumerate() {
            map.insert(vid, state.pkt[i]);
        }
        map.insert(elem_input.len_var, state.len);
        for (s, &vid) in elem_input.meta_vars.iter().enumerate() {
            map.insert(vid, state.meta[s]);
        }
        let mut seen: HashSet<u32> = HashSet::new();
        let mut all_terms: Vec<TermId> = Vec::new();
        all_terms.extend(segment.constraint.iter().copied());
        all_terms.extend(segment.pkt_out.iter().copied());
        all_terms.push(segment.len_out);
        all_terms.extend(segment.meta_out.iter().copied());
        for op in &segment.map_ops {
            all_terms.push(op.key);
            if let Some(v) = op.value {
                all_terms.push(v);
            }
        }
        let fresh = |pool: &mut TermPool, vid: u32| {
            let w = pool.var_width(vid);
            let name = format!("{}@{}_{}", pool.var_name(vid), stage_idx, seg_idx);
            pool.fresh_var(&name, w)
        };
        for &t in &all_terms {
            for vid in pool.free_vars(t) {
                if !map.contains_key(&vid) && seen.insert(vid) {
                    let renamed = fresh(pool, vid);
                    map.insert(vid, renamed);
                }
            }
        }
        for op in &segment.map_ops {
            for vid in [op.havoc_value_var, op.havoc_flag_var]
                .into_iter()
                .flatten()
            {
                map.entry(vid).or_insert_with(|| fresh(pool, vid));
            }
        }
        let mut constraint = state.constraint.clone();
        for &c in &segment.constraint {
            let c2 = substitute(pool, c, &map);
            if !pool.is_true(c2) {
                constraint.push(c2);
            }
        }
        let pkt = segment
            .pkt_out
            .iter()
            .map(|&t| substitute(pool, t, &map))
            .collect();
        let len = substitute(pool, segment.len_out, &map);
        let meta = segment
            .meta_out
            .iter()
            .map(|&t| substitute(pool, t, &map))
            .collect();
        let mut trace = state.trace.clone();
        trace.push((stage_idx, seg_idx));
        ComposedState {
            constraint,
            pkt,
            len,
            meta,
            instrs: state.instrs + segment.instrs,
            trace,
        }
    }

    /// A one-stage summary of `report`'s segments over `input`.
    fn stage_of(
        pool: &TermPool,
        name: &str,
        input: &SymInput,
        report: symexec::ExecReport,
    ) -> StageSummary {
        StageSummary::new(
            pool,
            name.into(),
            input.clone(),
            report.segments,
            None,
            report.states,
        )
    }

    /// The paper's Fig. 1 toy pipeline, byte-sized: E1 clamps byte 0 to
    /// ≥ 16 (out = in < 16 ? 16 : in); E2 asserts byte 0 ≥ 16 — crash
    /// suspect in isolation, infeasible after composition.
    fn toy_programs() -> (dpir::Program, dpir::Program) {
        let mut b1 = dpir::ProgramBuilder::new("E1");
        let v = b1.pkt_load(8, 0u64);
        let small = b1.ult(8, v, 16u64);
        let (s, big) = b1.fork(small);
        let _ = s;
        b1.pkt_store(8, 0u64, 16u64);
        b1.emit(0);
        b1.switch_to(big);
        b1.emit(0);
        let e1 = b1.build().expect("valid");

        let mut b2 = dpir::ProgramBuilder::new("E2");
        let v = b2.pkt_load(8, 0u64);
        let ok = b2.ule(8, 16u64, v);
        b2.assert_(ok, "in >= 16");
        b2.emit(0);
        let e2 = b2.build().expect("valid");
        (e1, e2)
    }

    #[test]
    fn fig1_composition_discharges_suspect() {
        let (p1, p2) = toy_programs();
        let cfg = SymConfig {
            max_pkt_bytes: 8,
            min_pkt_len: 1, // keep the toy focused on the assert
            ..Default::default()
        };
        let mut pool = TermPool::new();
        let pipeline_input = SymInput::fresh(&mut pool, &cfg, "in");
        let in1 = SymInput::fresh(&mut pool, &cfg, "e0");
        let in2 = SymInput::fresh(&mut pool, &cfg, "e1");
        let mut m = AbstractMapModel::new();
        let r1 = execute(&mut pool, &p1, &in1, &mut m, &cfg).expect("ok");
        let r2 = execute(&mut pool, &p2, &in2, &mut m, &cfg).expect("ok");
        let (e1, e2) = (
            stage_of(&pool, "E1", &in1, r1),
            stage_of(&pool, "E2", &in2, r2),
        );

        // E2 alone has a feasible crash segment (suspect e3 of Fig. 1).
        let crash_segs: Vec<usize> = (0..e2.segments.len())
            .filter(|&i| e2.segments[i].outcome.is_crash())
            .collect();
        assert_eq!(crash_segs.len(), 1);

        // Compose each E1 emit segment with the E2 crash segment; both
        // compositions must be infeasible (the paper's p1, p4).
        let mut solver = bvsolve::BvSolver::new();
        let init = ComposedState::initial(&pipeline_input);
        let mut checked = 0;
        for (i, s1) in e1.segments.iter().enumerate() {
            if s1.outcome != SegOutcome::Emit(0) {
                continue;
            }
            let mid = compose(&mut pool, &init, &e1, 0, i);
            let full = compose(&mut pool, &mid, &e2, 1, crash_segs[0]);
            let verdict = solver.check(&mut pool, &full.constraint);
            assert!(verdict.is_unsat(), "suspect must be infeasible in context");
            checked += 1;
        }
        assert_eq!(checked, 2, "two feasible E1 segments reach E2");
    }

    #[test]
    fn composition_renames_havocs_per_instantiation() {
        // A program whose only effect is reading a map: composing the
        // same segment twice must produce *different* havoc variables.
        let mut b = dpir::ProgramBuilder::new("rd");
        let m = b.map(dpir::MapDecl {
            name: "m".into(),
            key_width: 8,
            value_width: 8,
            capacity: 4,
            is_static: false,
        });
        let (_f, v) = b.map_read(m, 1u64);
        b.pkt_store(8, 0u64, v);
        b.emit(0);
        let prog = b.build().expect("valid");
        let cfg = SymConfig {
            max_pkt_bytes: 4,
            min_pkt_len: 4,
            ..Default::default()
        };
        let mut pool = TermPool::new();
        let pipeline_input = SymInput::fresh(&mut pool, &cfg, "in");
        let ein = SymInput::fresh(&mut pool, &cfg, "e0");
        let mut model = AbstractMapModel::new();
        let r = execute(&mut pool, &prog, &ein, &mut model, &cfg).expect("ok");
        let stage = stage_of(&pool, "rd", &ein, r);
        let seg = stage
            .segments
            .iter()
            .position(|s| s.outcome == SegOutcome::Emit(0))
            .expect("emit segment");
        let init = ComposedState::initial(&pipeline_input);
        let c1 = compose(&mut pool, &init, &stage, 0, seg);
        let c2 = compose(&mut pool, &c1, &stage, 1, seg);
        // Byte 0 after the second instantiation differs from the first
        // (different havoc), so "byte changed between the two reads" is
        // satisfiable.
        let ne = pool.mk_ne(c1.pkt[0], c2.pkt[0]);
        let mut solver = bvsolve::BvSolver::new();
        let mut cs = c2.constraint.clone();
        cs.push(ne);
        assert!(solver.check(&mut pool, &cs).is_sat());
    }
}
