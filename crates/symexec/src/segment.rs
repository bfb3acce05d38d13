//! Segment summaries — the output of verification step 1.

use bvsolve::TermId;
use dpir::{CrashReason, MapId, PortId};

/// How a segment ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegOutcome {
    /// Packet emitted on a port (ownership transferred downstream).
    Emit(PortId),
    /// Packet dropped — a normal ending.
    Drop,
    /// Abnormal termination — a crash-freedom *suspect*.
    Crash(CrashReason),
    /// The per-path instruction budget was exhausted — a
    /// bounded-execution *suspect* (possible infinite loop).
    FuelExhausted,
}

impl SegOutcome {
    /// Whether this outcome makes the segment suspect for crash-freedom.
    pub fn is_crash(self) -> bool {
        matches!(self, SegOutcome::Crash(_))
    }
}

/// Kind of a logged map operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapOpKind {
    /// `read(key)`.
    Read,
    /// `write(key, value)`.
    Write,
    /// `test(key)`.
    Test,
    /// `expire(key)`.
    Expire,
}

/// One map operation observed on a segment, with its symbolic
/// arguments. The §3.4 private-state analysis pattern-matches on these
/// (e.g. `write(k, read(k) + 1)` ⇒ monotonic counter).
#[derive(Debug, Clone)]
pub struct MapOpRecord {
    /// Which map.
    pub map: MapId,
    /// Operation kind.
    pub kind: MapOpKind,
    /// Symbolic key.
    pub key: TermId,
    /// Symbolic value written (writes only).
    pub value: Option<TermId>,
    /// Havoc variable id introduced for the read value (reads only).
    pub havoc_value_var: Option<u32>,
    /// Havoc variable id introduced for the found/ok bit, if any.
    pub havoc_flag_var: Option<u32>,
}

/// A fully-summarized path through one element: the paper's *segment*.
/// Every term comes from executing the element's program, and
/// `constraint` is all that step-2 composition conjoins for it.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Path constraint: conjunction of width-1 terms over the input.
    pub constraint: Vec<TermId>,
    /// Outcome.
    pub outcome: SegOutcome,
    /// Output packet bytes (terms over the input), window-sized.
    pub pkt_out: Vec<TermId>,
    /// Output packet length term.
    pub len_out: TermId,
    /// Output metadata terms.
    pub meta_out: Vec<TermId>,
    /// Exact instruction count along this segment.
    pub instrs: u64,
    /// Map operations in execution order.
    pub map_ops: Vec<MapOpRecord>,
}
