//! Differential tests for `dpir::analysis`.
//!
//! Three angles, each over seeded random programs:
//!
//! * the worklist fixpoint engine vs a naive chaotic-iteration
//!   reference (same `Forward` problem, dumb round-robin engine) —
//!   they must stabilize to identical states on loopy CFGs;
//! * the analyses vs the concrete interpreter: blocks the analysis
//!   calls unreachable are poisoned with a sentinel crash and must
//!   never execute, and the verdict-preserving simplifier must leave
//!   every observable of `run_program` (outcome, instruction count,
//!   final packet bytes and metadata) bit-identical;
//! * fixpoint termination with widening on loops whose value chains
//!   are unbounded (the interval domain would otherwise iterate once
//!   per lattice step).

use dpir::analysis::reach::reachable_from;
use dpir::analysis::{
    forward_fixpoint, simplify, successors, ConstProp, Forward, Intervals, IvEnv, Lattice,
};
use dpir::{
    run_program, BinOp, CrashReason, ExecResult, NullMapRuntime, PacketData, Program,
    ProgramBuilder, Reg, Terminator,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Packet-length window every generated program stays inside: fixed
/// offsets are below `LEN_LO`, so only deliberately planted accesses
/// can go out of bounds.
const LEN_LO: u64 = 8;
const LEN_HI: u64 = 16;
const ENV: IvEnv = IvEnv {
    len_lo: LEN_LO,
    len_hi: LEN_HI,
};

const SEEDS: u64 = 20;
const PACKETS_PER_SEED: usize = 32;
const FUEL: u64 = 100_000;

// ---------------------------------------------------------------- gen

/// One accumulator-mixing step with a random operator.
fn mix(b: &mut ProgramBuilder, r: &mut StdRng, acc: Reg) -> Reg {
    match r.next_u64() % 6 {
        0 => b.add(32, acc, r.next_u64() & 0xffff),
        1 => b.sub(32, acc, r.next_u64() & 0xffff),
        2 => b.bin(BinOp::Xor, 32, acc, r.next_u64() & 0xffff),
        3 => {
            let s = b.shl(32, acc, r.next_u64() % 5);
            b.add(32, s, acc)
        }
        4 => {
            let byte = b.pkt_load(8, r.next_u64() % LEN_LO);
            let wide = b.zext(8, 32, byte);
            b.add(32, acc, wide)
        }
        _ => b.and(32, acc, 0x00ff_ffffu64),
    }
}

/// A data-dependent diamond: both arms mix differently and rejoin
/// through metadata slot 3.
fn data_fork(b: &mut ProgramBuilder, r: &mut StdRng, acc: Reg) -> Reg {
    let byte = b.pkt_load(8, r.next_u64() % LEN_LO);
    let cond = b.ult(8, byte, 1 + r.next_u64() % 255);
    let (then_, else_) = b.fork(cond);
    let _ = then_;
    let join = b.new_block();
    let a1 = mix(b, r, acc);
    b.meta_store(3, a1);
    b.jump(join);
    b.switch_to(else_);
    let a2 = mix(b, r, acc);
    let a3 = mix(b, r, a2);
    b.meta_store(3, a3);
    b.jump(join);
    b.switch_to(join);
    b.meta_load(3)
}

/// A constant-decided diamond: the condition is a constant-to-constant
/// comparison, so one arm is provably dead. The dead arm contains a
/// far-out-of-window packet read — harmless only because it can never
/// execute, which is exactly what the reachability tests check.
fn dead_fork(b: &mut ProgramBuilder, r: &mut StdRng, acc: Reg) -> Reg {
    let x = r.next_u64() % 100;
    let cond = b.ult(32, x, x + 1 + r.next_u64() % 50);
    let (live, dead) = b.fork(cond);
    let _ = live;
    let join = b.new_block();
    let a1 = mix(b, r, acc);
    b.meta_store(3, a1);
    b.jump(join);
    b.switch_to(dead);
    let v = b.pkt_load(8, 1000u64);
    let wide = b.zext(8, 32, v);
    let a2 = b.add(32, acc, wide);
    b.meta_store(3, a2);
    b.jump(join);
    b.switch_to(join);
    b.meta_load(3)
}

/// A bounded counter loop through metadata slots 0 (accumulator) and
/// 1 (cursor), with a genuine CFG back edge.
fn counter_loop(b: &mut ProgramBuilder, r: &mut StdRng, acc: Reg) -> Reg {
    let bound = 2 + r.next_u64() % 3;
    b.meta_store(0, acc);
    b.meta_store(1, 0u64);
    let head = b.new_block();
    b.jump(head);
    b.switch_to(head);
    let i = b.meta_load(1);
    let done = b.ule(32, bound, i);
    let (exit_bb, body) = b.fork(done);
    b.switch_to(body);
    let a = b.meta_load(0);
    let a2 = b.add(32, a, i);
    b.meta_store(0, a2);
    let i2 = b.add(32, i, 1u64);
    b.meta_store(1, i2);
    b.jump(head);
    b.switch_to(exit_bb);
    b.meta_load(0)
}

/// A random program: 3–7 structures drawn from the shapes above, then
/// the accumulator is written back to packet byte 0 and the program
/// emits (occasionally after a small constant push/pull).
fn random_prog(seed: u64) -> Program {
    let mut r = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
    let mut b = ProgramBuilder::new(&format!("rand{seed}"));
    let mut acc = b.meta_load(0);
    let steps = 3 + r.next_u64() % 5;
    for _ in 0..steps {
        acc = match r.next_u64() % 8 {
            0 | 1 => data_fork(&mut b, &mut r, acc),
            2 => dead_fork(&mut b, &mut r, acc),
            3 => counter_loop(&mut b, &mut r, acc),
            4 => {
                // Constant chain the simplifier can fold end-to-end.
                let c1 = b.add(32, r.next_u64() & 0xff, r.next_u64() & 0xff);
                let c2 = b.bin(BinOp::Xor, 32, c1, r.next_u64() & 0xff);
                b.add(32, acc, c2)
            }
            _ => mix(&mut b, &mut r, acc),
        };
    }
    b.meta_store(0, acc);
    let low = b.trunc(32, 8, acc);
    b.pkt_store(8, 0u64, low);
    match r.next_u64() % 4 {
        0 => b.pkt_push(1 + r.next_u64() % 4),
        1 => b.pkt_pull(1 + r.next_u64() % 4),
        _ => {}
    }
    if r.next_u64() % 8 == 0 {
        b.drop_();
    } else {
        b.emit(0);
    }
    b.build().expect("generated program is valid")
}

/// A random packet inside the analysis window. The buffer capacity is
/// pinned to `LEN_HI` so the interpreter's `PktPush` crash condition
/// (`len + k > capacity`) matches the symbolic executor's window check
/// (`len + k ≤ max_pkt_bytes`) that the interval domain models.
fn random_packet(r: &mut StdRng) -> PacketData {
    let len = (LEN_LO + r.next_u64() % (LEN_HI - LEN_LO + 1)) as usize;
    let mut p = PacketData::new((0..len).map(|_| (r.next_u64() & 0xff) as u8).collect());
    p.capacity = LEN_HI as usize;
    p
}

// ------------------------------------------ engine vs naive reference

/// Test-local lattice: the set of blocks lying on some path into the
/// current point (powerset over block indices, join = union).
#[derive(Clone, Debug, PartialEq)]
struct Blocks(Vec<bool>);

impl Lattice for Blocks {
    fn join_from(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            if *b && !*a {
                *a = true;
                changed = true;
            }
        }
        changed
    }
}

/// "Which blocks can precede me": flow marks the current block and
/// propagates to every CFG successor (no edges are dropped, so the
/// reached set must equal structural reachability).
struct PathBlocks;

impl Forward for PathBlocks {
    type State = Blocks;

    fn entry(&self, prog: &Program) -> Blocks {
        Blocks(vec![false; prog.blocks.len()])
    }

    fn flow(&mut self, prog: &Program, block: usize, state: Blocks) -> Vec<(usize, Blocks)> {
        let mut st = state;
        st.0[block] = true;
        successors(prog, block)
            .into_iter()
            .map(|s| (s, st.clone()))
            .collect()
    }
}

/// The naive reference engine: round-robin over all blocks until a
/// full sweep changes nothing. Same `Forward` problem, no worklist,
/// no widening — must agree with [`forward_fixpoint`] on any finite
/// domain.
fn naive_fixpoint<F: Forward>(prog: &Program, f: &mut F) -> Vec<Option<F::State>> {
    let n = prog.blocks.len();
    let mut states: Vec<Option<F::State>> = vec![None; n];
    states[0] = Some(f.entry(prog));
    loop {
        let mut changed = false;
        for b in 0..n {
            let Some(st) = states[b].clone() else {
                continue;
            };
            for (s, out) in f.flow(prog, b, st) {
                match &mut states[s] {
                    None => {
                        states[s] = Some(out);
                        changed = true;
                    }
                    Some(cur) => changed |= cur.join_from(&out),
                }
            }
        }
        if !changed {
            return states;
        }
    }
}

/// Structural reachability by plain BFS, independent of the engine.
fn bfs_reach(prog: &Program) -> Vec<bool> {
    let mut seen = vec![false; prog.blocks.len()];
    let mut work = vec![0usize];
    seen[0] = true;
    while let Some(b) = work.pop() {
        for s in successors(prog, b) {
            if !seen[s] {
                seen[s] = true;
                work.push(s);
            }
        }
    }
    seen
}

#[test]
fn worklist_engine_matches_naive_iteration() {
    for seed in 0..SEEDS {
        let prog = random_prog(seed);
        let fast = forward_fixpoint(&prog, &mut PathBlocks, usize::MAX);
        let slow = naive_fixpoint(&prog, &mut PathBlocks);
        assert_eq!(fast, slow, "seed {seed}: engines disagree");
        let bfs = bfs_reach(&prog);
        for (b, st) in fast.iter().enumerate() {
            assert_eq!(
                st.is_some(),
                bfs[b],
                "seed {seed}: engine reach diverges from BFS at block {b}"
            );
        }
    }
}

// ------------------------------------- analyses vs concrete execution

/// Poison-crash sentinel: far outside any message index a builder
/// could have allocated.
const POISON: u32 = 0xdead;

/// Every block constant propagation calls unreachable is rewritten to
/// an immediate sentinel crash; concrete execution over random packets
/// must behave exactly as before (and in particular never hit the
/// sentinel).
#[test]
fn unreachable_blocks_never_execute() {
    let mut poisoned_some = false;
    for seed in 0..SEEDS {
        let prog = random_prog(seed);
        let reach = reachable_from(&ConstProp::run(&prog));
        let mut poisoned = prog.clone();
        for (b, ok) in reach.iter().enumerate() {
            if !ok {
                poisoned_some = true;
                poisoned.blocks[b].instrs.clear();
                poisoned.blocks[b].term = Terminator::Crash(CrashReason::Explicit(POISON));
            }
        }
        let mut r = StdRng::seed_from_u64(seed ^ 0xabcd);
        for _ in 0..PACKETS_PER_SEED {
            let mut p1 = random_packet(&mut r);
            let mut p2 = p1.clone();
            let o1 = run_program(&prog, &mut p1, &mut NullMapRuntime, FUEL);
            let o2 = run_program(&poisoned, &mut p2, &mut NullMapRuntime, FUEL);
            assert_ne!(
                o2.result,
                ExecResult::Crashed(CrashReason::Explicit(POISON)),
                "seed {seed}: an analysis-unreachable block executed"
            );
            assert_eq!(o1, o2, "seed {seed}: poisoning changed behavior");
            assert_eq!(p1, p2, "seed {seed}: poisoning changed the packet");
        }
    }
    assert!(
        poisoned_some,
        "generator never produced an unreachable block — the test is vacuous"
    );
}

/// The simplifier must be invisible to the concrete interpreter:
/// identical outcome, identical instruction count, identical final
/// packet (bytes and metadata) on every input.
#[test]
fn simplify_preserves_concrete_semantics() {
    let mut total_folds = 0usize;
    let mut total_removed = 0usize;
    for seed in 0..SEEDS {
        let prog = random_prog(seed);
        let (simp, stats) = simplify(&prog, ENV);
        simp.validate().expect("simplified program validates");
        total_folds += stats.instrs_folded + stats.branches_decided;
        total_removed += stats.blocks_removed;
        let mut r = StdRng::seed_from_u64(seed ^ 0x1234);
        for _ in 0..PACKETS_PER_SEED {
            let mut p1 = random_packet(&mut r);
            let mut p2 = p1.clone();
            let o1 = run_program(&prog, &mut p1, &mut NullMapRuntime, FUEL);
            let o2 = run_program(&simp, &mut p2, &mut NullMapRuntime, FUEL);
            assert_eq!(o1, o2, "seed {seed}: outcome or cost diverged");
            assert_eq!(p1, p2, "seed {seed}: final packet diverged");
        }
    }
    // The generator plants constant chains and decided forks; a
    // simplifier that never fires would pass the equality checks
    // vacuously.
    assert!(total_folds > 0, "no instruction ever folded");
    assert!(total_removed > 0, "no unreachable block ever removed");
}

// --------------------------------------------- widening / termination

/// A loop whose counter the interval domain cannot bound (the exit
/// condition reads a packet byte, so narrowing never closes the
/// range): without widening the fixpoint would ascend one lattice
/// step per iteration, i.e. 2^32 times. The test terminating at all
/// is the assertion.
#[test]
fn widening_terminates_unbounded_loops() {
    for seed in 0..SEEDS {
        let mut r = StdRng::seed_from_u64(seed);
        let mut b = ProgramBuilder::new(&format!("wide{seed}"));
        b.meta_store(1, 0u64);
        let head = b.new_block();
        b.jump(head);
        b.switch_to(head);
        let i = b.meta_load(1);
        let byte = b.pkt_load(8, r.next_u64() % LEN_LO);
        let stop = b.ult(8, byte, 1 + r.next_u64() % 200);
        let (exit_bb, body) = b.fork(stop);
        b.switch_to(body);
        let i2 = b.add(32, i, 1u64);
        b.meta_store(1, i2);
        b.jump(head);
        b.switch_to(exit_bb);
        b.emit(0);
        let prog = b.build().expect("valid");

        // Must terminate (widening).
        let _ = Intervals::run(&prog, ENV);
        // Same for the simplifier end to end.
        let (simp, _) = simplify(&prog, ENV);
        simp.validate().expect("simplified program validates");
    }
}
