//! Mutable private state analysis (paper §3.4).
//!
//! Sub-step (i) already happened during step 1: every value read from
//! private state was *havoced* (fresh unconstrained variable), so the
//! summaries cover all possible state values. This module implements
//! sub-step (ii) as the paper proposes making it practical: a
//! **pattern-matching** pass over the logged map operations, with
//! pre-constructed induction proofs for the recognized patterns.
//!
//! The pattern shipped here is the paper's own running example
//! (Fig. 3 / Eq. 1): `write(k, read(k) + c)` — a monotonically
//! increasing counter. Its pre-proved lemma: if the write is feasible
//! when the read equals the type maximum, then by induction a sequence
//! of `⌈max/c⌉ + 1` packets of the same flow drives the counter to
//! overflow.

use crate::cores::CoreStore;
use crate::step2::{new_session, VerifyConfig};
use crate::summary::PipelineSummaries;
use bvsolve::{SolveSession, Term, TermId, TermPool};
use symexec::{MapOpKind, Segment};

/// A finding of the private-state analysis.
#[derive(Debug, Clone)]
pub enum StateFinding {
    /// A `write(k, read(k) + c)` counter: overflows after
    /// `packets_to_overflow` same-flow packets (proved by induction).
    CounterOverflow {
        /// Pipeline stage hosting the counter.
        stage: usize,
        /// Element name.
        element: String,
        /// Map name.
        map: String,
        /// Increment per packet.
        increment: u64,
        /// Counter width in bits.
        width: u32,
        /// Packets of one flow needed to wrap.
        packets_to_overflow: u128,
    },
}

impl std::fmt::Display for StateFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateFinding::CounterOverflow {
                element,
                map,
                increment,
                width,
                packets_to_overflow,
                ..
            } => write!(
                f,
                "{element}: map '{map}' holds a monotonic counter (+{increment} per packet, u{width}); \
                 by induction it overflows after {packets_to_overflow} packets of one flow"
            ),
        }
    }
}

/// Matches `value = havoc_read + c` (either operand order).
fn match_increment(pool: &TermPool, value: TermId, read_var: u32) -> Option<u64> {
    if let Term::Binary(bvsolve::BinOp::Add, a, b) = *pool.get(value) {
        let is_read = |t: TermId| matches!(*pool.get(t), Term::Var { id, .. } if id == read_var);
        if is_read(a) {
            return pool.const_value(b);
        }
        if is_read(b) {
            return pool.const_value(a);
        }
    }
    None
}

/// Scans one segment for the counter pattern.
fn scan_segment(
    pool: &mut TermPool,
    session: &mut SolveSession,
    seg: &Segment,
) -> Option<(dpir::MapId, u64, u32)> {
    for (wi, w) in seg.map_ops.iter().enumerate() {
        if w.kind != MapOpKind::Write {
            continue;
        }
        let Some(value) = w.value else { continue };
        // Find an earlier read of the same map with a havoc variable
        // whose key is structurally the same term.
        for r in seg.map_ops[..wi].iter() {
            if r.kind != MapOpKind::Read || r.map != w.map {
                continue;
            }
            let Some(read_var) = r.havoc_value_var else {
                continue;
            };
            if r.key != w.key {
                continue;
            }
            if let Some(c) = match_increment(pool, value, read_var) {
                if c == 0 {
                    continue;
                }
                // Sub-step (ii), feasibility of the suspect value: can
                // the read return the type maximum on this segment?
                let width = pool.width(value);
                let maxv = if width >= 64 {
                    u64::MAX
                } else {
                    (1u64 << width) - 1
                };
                // Build: constraints ∧ read == max.
                let vw = pool.var_width(read_var);
                let var_term = pool.var_term(read_var);
                let maxc = pool.mk_const(vw, maxv);
                let eq = pool.mk_eq(var_term, maxc);
                let mut cs = seg.constraint.clone();
                cs.push(eq);
                if session.check_constraints(pool, &cs).is_sat() {
                    return Some((w.map, c, width));
                }
            }
        }
    }
    None
}

/// Runs the §3.4 sub-step (ii) pattern analysis over all stages — the
/// engine behind [`crate::session::Property::StateConsistency`].
pub(crate) fn analyze(
    pool: &mut TermPool,
    sums: &PipelineSummaries,
    pipeline: &dataplane::Pipeline,
    cfg: &VerifyConfig,
) -> Vec<StateFinding> {
    // One session for the whole scan: consecutive segments of a stage
    // share most of their path condition, which stays blasted. It
    // reads no cores.
    let mut session = new_session(cfg, &CoreStore::disabled());
    let mut findings = Vec::new();
    let mut seen: Vec<(usize, u32)> = Vec::new();
    for (k, stage) in sums.stages.iter().enumerate() {
        for seg in &stage.segments {
            if let Some((map, inc, width)) = scan_segment(pool, &mut session, seg) {
                if seen.contains(&(k, map.0)) {
                    continue;
                }
                seen.push((k, map.0));
                let decl = &pipeline.stages[k].element.program().maps[map.index()];
                let span = if width >= 64 {
                    u128::from(u64::MAX) + 1
                } else {
                    1u128 << width
                };
                findings.push(StateFinding::CounterOverflow {
                    stage: k,
                    element: stage.name.clone(),
                    map: decl.name.clone(),
                    increment: inc,
                    width,
                    packets_to_overflow: span.div_ceil(inc as u128),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::{summarize_pipeline, MapMode};
    use elements::pipelines::to_pipeline;
    use symexec::SymConfig;

    fn cfg() -> SymConfig {
        SymConfig {
            max_pkt_bytes: 48,
            ..Default::default()
        }
    }

    #[test]
    fn traffic_monitor_counter_flagged() {
        let p = to_pipeline("mon", vec![elements::traffic_monitor::traffic_monitor(64)]);
        let mut pool = TermPool::new();
        let sums = summarize_pipeline(&mut pool, &p, &cfg(), MapMode::Abstract).expect("ok");
        let findings = analyze(&mut pool, &sums, &p, &VerifyConfig::default());
        assert_eq!(findings.len(), 1, "exactly one counter found");
        match &findings[0] {
            StateFinding::CounterOverflow {
                element,
                increment,
                width,
                packets_to_overflow,
                ..
            } => {
                assert_eq!(element, "TrafficMonitor");
                assert_eq!(*increment, 1);
                assert_eq!(*width, 32);
                assert_eq!(*packets_to_overflow, 1u128 << 32);
            }
        }
    }

    #[test]
    fn nat_has_no_counter_pattern() {
        let p = to_pipeline("nat", vec![elements::nat::nat_verified(0xC6336401, 64)]);
        let mut pool = TermPool::new();
        let sums = summarize_pipeline(&mut pool, &p, &cfg(), MapMode::Abstract).expect("ok");
        let findings = analyze(&mut pool, &sums, &p, &VerifyConfig::default());
        assert!(findings.is_empty(), "NAT writes ports, not counters");
    }
}
