//! The pipeline runner: generator → stages → sinks, with counters.

use crate::pipeline::{Hop, Pipeline};
use crate::store::StoreRuntime;
use dpir::{CrashReason, ExecResult, PacketData};

/// Per-packet outcome of a pipeline traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineOutcome {
    /// Delivered on a sink. A route past the last stage delivers on
    /// sink 0 (see [`Pipeline::hop`]), and so does an empty pipeline.
    Delivered(u8),
    /// Dropped by some stage (normal).
    Dropped,
    /// A stage crashed — the event crash-freedom verification prevents.
    Crashed {
        /// Index of the crashing stage.
        stage: usize,
        /// Why.
        reason: CrashReason,
    },
    /// A stage exhausted its fuel (runaway loop), or the packet kept
    /// cycling through backward routes (see [`Runner::run_packet`]).
    Stuck {
        /// Index of the stuck stage: the one out of fuel, or the one the
        /// cycling packet was about to enter again.
        stage: usize,
    },
}

/// Aggregate counters over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunnerStats {
    /// Packets fully processed per sink id.
    pub delivered: std::collections::BTreeMap<u8, u64>,
    /// Packets dropped.
    pub dropped: u64,
    /// Packets that crashed a stage.
    pub crashed: u64,
    /// Packets that got stuck (fuel exhaustion).
    pub stuck: u64,
    /// Total instructions executed.
    pub instrs: u64,
    /// Largest per-packet instruction count seen (the §5.3
    /// "longest path" observable).
    pub max_instrs_per_packet: u64,
}

/// How many times one packet may enter stages, per stage of the
/// pipeline. A forward-only pipeline enters each stage at most once; a
/// [`crate::Route`] back to the same or an earlier stage is a cycle,
/// and a packet still going round after this many entries is
/// [`PipelineOutcome::Stuck`]. 256 lets a loop that decrements an
/// 8-bit TTL once a lap run out.
const ENTRIES_PER_STAGE: usize = 256;

/// Drives packets through a [`Pipeline`] against per-stage stores.
pub struct Runner {
    pipeline: Pipeline,
    /// One store runtime per stage (elements never share mutable state
    /// — paper Table 1).
    stores: Vec<StoreRuntime>,
    /// Per-stage fuel.
    pub fuel_per_stage: u64,
    stats: RunnerStats,
}

impl Runner {
    /// Creates a runner; `stores[i]` backs stage `i`'s maps.
    pub fn new(pipeline: Pipeline, stores: Vec<StoreRuntime>) -> Self {
        assert_eq!(pipeline.stages.len(), stores.len());
        Runner {
            pipeline,
            stores,
            fuel_per_stage: 100_000,
            stats: RunnerStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &RunnerStats {
        &self.stats
    }

    /// Mutable access to a stage's stores (control plane: configure
    /// tables, drain expired flows).
    pub fn stage_stores(&mut self, stage: usize) -> &mut StoreRuntime {
        &mut self.stores[stage]
    }

    /// The pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Processes one packet to completion: delivered, dropped, crashed,
    /// or stuck — out of fuel in a stage, or still cycling through
    /// backward routes after 256 stage entries per stage.
    pub fn run_packet(&mut self, pkt: &mut PacketData) -> PipelineOutcome {
        let mut stage = 0usize;
        let mut pkt_instrs: u64 = 0;
        let mut entries_left = ENTRIES_PER_STAGE * self.pipeline.stages.len();
        let outcome = loop {
            // `hop` names only stages that exist: this is the empty
            // pipeline.
            let Some(st) = self.pipeline.stages.get(stage) else {
                break PipelineOutcome::Delivered(0);
            };
            if entries_left == 0 {
                break PipelineOutcome::Stuck { stage };
            }
            entries_left -= 1;
            let out = st
                .element
                .process(pkt, &mut self.stores[stage], self.fuel_per_stage);
            pkt_instrs += out.instrs;
            match out.result {
                ExecResult::Dropped => break PipelineOutcome::Dropped,
                ExecResult::Crashed(reason) => break PipelineOutcome::Crashed { stage, reason },
                ExecResult::OutOfFuel => break PipelineOutcome::Stuck { stage },
                ExecResult::Emitted(port) => match self.pipeline.hop(stage, port) {
                    Hop::Stage(s) => stage = s,
                    Hop::Sink(s) => break PipelineOutcome::Delivered(s),
                    Hop::Drop => break PipelineOutcome::Dropped,
                },
            }
        };
        self.stats.instrs += pkt_instrs;
        self.stats.max_instrs_per_packet = self.stats.max_instrs_per_packet.max(pkt_instrs);
        match outcome {
            PipelineOutcome::Delivered(s) => *self.stats.delivered.entry(s).or_insert(0) += 1,
            PipelineOutcome::Dropped => self.stats.dropped += 1,
            PipelineOutcome::Crashed { .. } => self.stats.crashed += 1,
            PipelineOutcome::Stuck { .. } => self.stats.stuck += 1,
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;
    use crate::pipeline::{Route, Stage};
    use dpir::ProgramBuilder;

    fn ttl_elem() -> Element {
        let mut b = ProgramBuilder::new("ttl");
        let len = b.pkt_len();
        let short = b.ult(16, len, 1u64);
        let (s, ok) = b.fork(short);
        let _ = s;
        b.drop_();
        b.switch_to(ok);
        let ttl = b.pkt_load(8, 0u64);
        let dead = b.ule(8, ttl, 1u64);
        let (d, live) = b.fork(dead);
        let _ = d;
        b.drop_();
        b.switch_to(live);
        let dec = b.sub(8, ttl, 1u64);
        b.pkt_store(8, 0u64, dec);
        b.emit(0);
        Element::straight("ttl", b.build().expect("valid"))
    }

    fn runner_of(n: usize) -> Runner {
        let mut p = Pipeline::new("chain");
        for _ in 0..n - 1 {
            p = p.push(ttl_elem());
        }
        p = p.push_sink(ttl_elem());
        let stores = (0..n).map(|_| StoreRuntime::new()).collect();
        Runner::new(p, stores)
    }

    #[test]
    fn delivers_and_decrements() {
        let mut r = runner_of(3);
        let mut pkt = PacketData::new(vec![10]);
        assert_eq!(r.run_packet(&mut pkt), PipelineOutcome::Delivered(0));
        assert_eq!(pkt.bytes[0], 7);
        assert_eq!(r.stats().delivered.get(&0), Some(&1));
    }

    #[test]
    fn drops_when_ttl_expires_midway() {
        let mut r = runner_of(3);
        let mut pkt = PacketData::new(vec![2]);
        assert_eq!(r.run_packet(&mut pkt), PipelineOutcome::Dropped);
        assert_eq!(r.stats().dropped, 1);
    }

    fn pass_elem() -> Element {
        let mut b = ProgramBuilder::new("pass");
        b.emit(0);
        Element::straight("pass", b.build().expect("valid"))
    }

    #[test]
    fn a_backward_route_cycle_is_stuck_not_a_hang() {
        // Stage 1 sends every packet back to stage 0: the packet would
        // go round forever.
        let p = Pipeline::new("cycle")
            .push(pass_elem())
            .push_stage(Stage::passthrough(pass_elem()).route(0, Route::To(0)));
        let mut r = Runner::new(p, vec![StoreRuntime::new(), StoreRuntime::new()]);
        let mut pkt = PacketData::new(vec![0]);
        assert_eq!(r.run_packet(&mut pkt), PipelineOutcome::Stuck { stage: 0 });
        assert_eq!(r.stats().stuck, 1);
    }

    #[test]
    fn a_ttl_bounded_backward_loop_still_runs_out() {
        // Two TTL decrements a lap: TTL 255 needs 127 laps to expire.
        let p = Pipeline::new("recirculate")
            .push(ttl_elem())
            .push_stage(Stage::passthrough(ttl_elem()).route(0, Route::To(0)));
        let mut r = Runner::new(p, vec![StoreRuntime::new(), StoreRuntime::new()]);
        let mut pkt = PacketData::new(vec![255; 20]);
        assert_eq!(r.run_packet(&mut pkt), PipelineOutcome::Dropped);
        assert_eq!(pkt.bytes[0], 1);
    }

    #[test]
    fn stats_track_instruction_counts() {
        let mut r = runner_of(2);
        let mut p1 = PacketData::new(vec![10]);
        let mut p0 = PacketData::new(vec![]);
        r.run_packet(&mut p1);
        r.run_packet(&mut p0);
        assert!(r.stats().instrs > 0);
        assert!(r.stats().max_instrs_per_packet >= 10);
    }
}
