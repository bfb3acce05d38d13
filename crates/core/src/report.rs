//! Verdicts, counterexamples and report formatting.

use crate::cores::CoreStats;
use bvsolve::{Model, SolverLayerStats};
use std::time::Duration;
use symexec::SymInput;

/// A concrete packet disproving a property — "a specific packet and
/// specific state that causes such an instruction to be executed" (§4).
#[derive(Debug, Clone)]
pub struct CounterExample {
    /// The packet bytes as they enter the pipeline.
    pub bytes: Vec<u8>,
    /// What the packet triggers.
    pub description: String,
    /// The (stage, segment) trace of the violating path.
    pub trace: Vec<(usize, usize)>,
}

impl CounterExample {
    /// Extracts the input packet from a satisfying model.
    pub fn from_model(
        input: &SymInput,
        model: &Model,
        description: String,
        trace: Vec<(usize, usize)>,
    ) -> Self {
        let len = (model.var(input.len_var) as usize).min(input.pkt_byte_vars.len());
        let bytes = input.pkt_byte_vars[..len]
            .iter()
            .map(|&vid| model.var(vid) as u8)
            .collect();
        CounterExample {
            bytes,
            description,
            trace,
        }
    }

    /// Hex rendering for reports.
    pub fn hex(&self) -> String {
        self.bytes
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Outcome of a verification run.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// The property holds for every packet (complete and sound proof).
    Proved,
    /// The property is violated; here is the packet.
    Disproved(CounterExample),
    /// No verdict (budget exhausted or a solver Unknown en route).
    Unknown(String),
}

impl Verdict {
    /// The machine-readable lowercase label every JSON emitter uses
    /// (`"proved"` / `"disproved"` / `"unknown"`).
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Proved => "proved",
            Verdict::Disproved(_) => "disproved",
            Verdict::Unknown(_) => "unknown",
        }
    }

    /// `true` iff proved.
    pub fn is_proved(&self) -> bool {
        matches!(self, Verdict::Proved)
    }

    /// `true` iff disproved.
    pub fn is_disproved(&self) -> bool {
        matches!(self, Verdict::Disproved(_))
    }
}

/// Step-1 summary-store counters for one check (see
/// [`crate::SummaryStore`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SummaryCacheStats {
    /// Stages served from the content-addressed store without
    /// re-execution. Like `step1_time`, attributed to the check that
    /// built the session's summaries; cache-warm checks report zero.
    pub hits: usize,
    /// Stages symbolically executed (then cached) by this check.
    pub misses: usize,
    /// Distinct summaries in the store when the report was built —
    /// grows across sessions sharing one store; reads zero for a
    /// session-private store, which is cleared after each build.
    pub store_size: usize,
    /// Summaries loaded from the on-disk tier by this check's build
    /// (zero for an in-memory store; see
    /// [`crate::SummaryStore::persistent`]). Disk loads also count as
    /// `hits` — they skip execution.
    pub store_loads: u64,
    /// Summaries written back to the on-disk tier by this check's
    /// build.
    pub store_writes: u64,
    /// Bytes read from disk by `store_loads`.
    pub load_bytes: u64,
    /// Fork-feasibility questions step 1 asked while executing this
    /// check's `misses` (a hit or a disk load executes nothing and
    /// adds 0 to this and the three counters below).
    pub fork_queries: u64,
    /// Of those, the ones that reached the CDCL solver.
    pub fork_sat_calls: u64,
    /// Path-condition conjuncts those solver calls found already
    /// blasted on the executor's session — the prefix step 1 reused
    /// instead of blasting it again per question.
    pub fork_blast_cache_hits: u64,
    /// Learnt clauses carried from one fork question to the next.
    pub fork_learnt_reused: u64,
}

/// A full verification report (one property, one pipeline).
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Property name (e.g. `"crash-freedom"`).
    pub property: String,
    /// Pipeline name.
    pub pipeline: String,
    /// The verdict.
    pub verdict: Verdict,
    /// States explored in step 1 (Fig. 4(c) annotation).
    pub step1_states: usize,
    /// Total segments summarized in step 1.
    pub step1_segments: usize,
    /// Suspect segments after step 1.
    pub suspects: usize,
    /// Paths composed (feasibility-checked) in step 2 — Table 3's
    /// "# Paths".
    pub composed_paths: usize,
    /// Solver layer/reuse counters for this check's step-2 queries
    /// (the per-check delta out of the session's long-lived solver).
    pub solver: SolverLayerStats,
    /// Conflict-driven pruning counters for this check (cores learned,
    /// queries skipped via core subsumption, continuation subtrees cut
    /// before expansion) — the per-check delta out of the session's
    /// [`crate::CoreStore`]. `core_hits` from the very first query of a
    /// check indicate cores carried over from an earlier property in
    /// the same session.
    pub cores: CoreStats,
    /// Step-1 summary-store counters: stages rebased from cache vs
    /// executed, and the store's current size. Hits on the check that
    /// paid step 1 indicate summaries inherited from other sessions
    /// (or repeated elements); see [`crate::SummaryStore`].
    pub summary: SummaryCacheStats,
    /// Wall-clock time of step 1.
    pub step1_time: Duration,
    /// Wall-clock time of step 2.
    pub step2_time: Duration,
}

/// `searched` as the report of a check that ran nothing — a fleet class
/// member, or a churn property whose summaries did not change — on the
/// pipeline named `pipeline`. The verdict and the search's counts
/// (`composed_paths`, `suspects`, `solver`, `cores`) are what a search
/// would reproduce; step 1 did no work, so `summary` keeps only the
/// store size the search saw, and both times are zero.
pub(crate) fn replay(searched: &VerifyReport, pipeline: &str) -> VerifyReport {
    VerifyReport {
        pipeline: pipeline.to_string(),
        summary: SummaryCacheStats {
            store_size: searched.summary.store_size,
            ..Default::default()
        },
        step1_time: Duration::ZERO,
        step2_time: Duration::ZERO,
        ..searched.clone()
    }
}

/// Escapes `s` for embedding in a JSON string literal — the one
/// escaping every JSON line this crate (and `dpv-serve`) prints uses.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl VerifyReport {
    /// A single-line JSON rendering for machine consumption: verdict,
    /// counterexample (hex bytes + trace), state/path counts, and
    /// step timings in milliseconds. Stable field set so bench bins
    /// and CI can diff verdict/paths/time trajectories across runs.
    pub fn to_json(&self) -> String {
        let verdict = self.verdict.label();
        let (description, cex) = match &self.verdict {
            Verdict::Proved => (None, None),
            Verdict::Disproved(c) => (Some(c.description.clone()), Some(c)),
            Verdict::Unknown(r) => (Some(r.clone()), None),
        };
        let cex_json = match cex {
            Some(c) => format!(
                "{{\"hex\":\"{}\",\"trace\":[{}]}}",
                c.hex(),
                c.trace
                    .iter()
                    .map(|(s, g)| format!("[{s},{g}]"))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            None => "null".into(),
        };
        let s = &self.solver;
        format!(
            "{{\"kind\":\"verify\",\"property\":\"{}\",\"pipeline\":\"{}\",\
             \"verdict\":\"{}\",\"description\":{},\"counterexample\":{},\
             \"step1_states\":{},\"step1_segments\":{},\"suspects\":{},\
             \"composed_paths\":{},\"solver\":{{\"queries\":{},\
             \"by_simplify\":{},\"by_interval\":{},\"by_blast\":{},\
             \"blast_cache_hits\":{},\"blast_cache_misses\":{},\
             \"learnt_reused\":{},\"sat_solve_calls\":{},\
             \"decisions\":{},\"propagations\":{},\
             \"compactions\":{}}},\
             \"cores\":{{\"cores_learned\":{},\"core_hits\":{},\
             \"subtrees_pruned\":{}}},\
             \"summary\":{{\"hits\":{},\"misses\":{},\"store_size\":{},\
             \"store_loads\":{},\"store_writes\":{},\"load_bytes\":{},\
             \"fork_queries\":{},\"fork_sat_calls\":{},\
             \"fork_blast_cache_hits\":{},\"fork_learnt_reused\":{}}},\
             \"step1_ms\":{:.3},\"step2_ms\":{:.3}}}",
            json_escape(&self.property),
            json_escape(&self.pipeline),
            verdict,
            match description {
                Some(d) => format!("\"{}\"", json_escape(&d)),
                None => "null".into(),
            },
            cex_json,
            self.step1_states,
            self.step1_segments,
            self.suspects,
            self.composed_paths,
            s.queries,
            s.by_simplify,
            s.by_interval,
            s.by_blast,
            s.blast_cache_hits,
            s.blast_cache_misses,
            s.learnt_reused,
            s.sat_solve_calls,
            s.decisions,
            s.propagations,
            s.compactions,
            self.cores.cores_learned,
            self.cores.core_hits,
            self.cores.subtrees_pruned,
            self.summary.hits,
            self.summary.misses,
            self.summary.store_size,
            self.summary.store_loads,
            self.summary.store_writes,
            self.summary.load_bytes,
            self.summary.fork_queries,
            self.summary.fork_sat_calls,
            self.summary.fork_blast_cache_hits,
            self.summary.fork_learnt_reused,
            self.step1_time.as_secs_f64() * 1e3,
            self.step2_time.as_secs_f64() * 1e3,
        )
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let v = match &self.verdict {
            Verdict::Proved => "PROVED".to_string(),
            Verdict::Disproved(cex) => format!("DISPROVED ({})", cex.description),
            Verdict::Unknown(r) => format!("UNKNOWN ({r})"),
        };
        write!(
            f,
            "{} / {}: {} | step1: {} states, {} segments, {} suspects ({:?}) | step2: {} paths ({:?})",
            self.pipeline,
            self.property,
            v,
            self.step1_states,
            self.step1_segments,
            self.suspects,
            self.step1_time,
            self.composed_paths,
            self.step2_time,
        )
    }
}
