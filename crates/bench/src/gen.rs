//! Seedable random deep-pipeline generator — the input half of the
//! differential and depth-stress harnesses.
//!
//! Every pipeline threads a 32-bit accumulator through metadata slot 0,
//! so the composed output term grows with every stage: after `n` stages
//! of `r` mixing rounds the accumulator is an expression DAG thousands
//! of nodes deep. Stages that *branch* on accumulator-derived values
//! (symbolic-offset loads and stores, forks, map reads) pull that deep
//! term into path constraints, which is exactly what drives the solver,
//! the interval layer, the evaluator and the printer through their
//! iterative DAG walks. A generated pipeline is crash-free by
//! construction unless [`GenConfig::plant_violation`] asks for a
//! reachable crash — in which case the counterexample is pinned to a
//! specific packet byte so differential runs can compare bytes.
//!
//! Determinism: generation is a pure function of the seed (the rand
//! shim's `StdRng` is SplitMix64), so two processes — or two toggled
//! verifier configs in one process — always verify the same pipeline.

use dataplane::{Element, Pipeline};
use dpir::{MapDecl, ProgramBuilder, Reg, PORT_CONTINUE};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use symexec::SymConfig;
use verifier::VerifyConfig;

/// Packet window the generated programs stay inside: every fixed-offset
/// access is below [`MIN_PKT_LEN`] and every symbolic offset is masked
/// into `[0, 16)`, so step 1 proves all in-window crash branches
/// infeasible and only planted violations survive to step 2.
pub const MAX_PKT_BYTES: usize = 24;
/// Guaranteed minimum packet length (constrains the symbolic length).
pub const MIN_PKT_LEN: u64 = 20;

/// Knobs for one generated pipeline.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Number of pipeline stages (the paper-scale range is 50–200).
    pub stages: usize,
    /// Mixing rounds per stage — the per-stage term-depth knob. The
    /// composed accumulator depth is roughly `stages * rounds * 2`.
    pub rounds: usize,
    /// Plant one reachable conditional crash at a random stage. The
    /// crash fires only when a fixed packet byte equals a generated
    /// constant, so `CrashFreedom` is `Disproved` with pinned bytes.
    pub plant_violation: bool,
}

impl GenConfig {
    /// Full-size config derived from the seed: 50–200 stages, 2–5
    /// rounds, a violation planted on one seed in three.
    pub fn from_seed(seed: u64) -> Self {
        let mut r = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        GenConfig {
            stages: 50 + (r.next_u64() % 151) as usize,
            rounds: 2 + (r.next_u64() % 4) as usize,
            plant_violation: r.next_u64() % 3 == 0,
        }
    }

    /// Reduced config for debug-mode smoke tests.
    pub fn small(seed: u64) -> Self {
        GenConfig {
            stages: 50,
            ..Self::from_seed(seed)
        }
    }
}

/// A generated pipeline plus what the harness should expect of it.
pub struct Generated {
    /// The pipeline itself.
    pub pipeline: Pipeline,
    /// Whether a crash was planted (verdict must be `Disproved`;
    /// otherwise `Proved`).
    pub planted: bool,
    /// The config it was generated from.
    pub cfg: GenConfig,
}

/// The verifier configuration matched to the generator's packet window.
pub fn gen_verify_config() -> VerifyConfig {
    VerifyConfig {
        sym: SymConfig {
            max_pkt_bytes: MAX_PKT_BYTES,
            min_pkt_len: MIN_PKT_LEN,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Generates the pipeline for `seed` at full size.
pub fn deep_pipeline(seed: u64) -> Generated {
    deep_pipeline_with(seed, GenConfig::from_seed(seed))
}

/// Generates a pipeline from an explicit config (the depth-stress tests
/// pin `stages`; the differential smoke test shrinks it for debug
/// builds).
///
/// Stage 0 always stores a seed constant at packet byte [`GUARD_OFF`]
/// and the final stage crashes iff that byte differs — a crash branch
/// that is *locally* feasible (so it survives step 1) but is refuted
/// only by composing every stage in between. That pins a suspect at
/// the pipeline tail, making all stages step-2 reachable: even a
/// `Proved` run composes the whole pipeline and solves a query over
/// the full-depth accumulator term, instead of short-circuiting on
/// "no suspects".
pub fn deep_pipeline_with(seed: u64, cfg: GenConfig) -> Generated {
    let mut r = StdRng::seed_from_u64(seed);
    let crash_stage = if cfg.plant_violation {
        // Strictly interior: after the guard writer, before the guard
        // reader, so the violation coexists with both.
        Some(1 + (r.next_u64() as usize) % (cfg.stages.saturating_sub(2).max(1)))
    } else {
        None
    };
    let guard_const = 1 + r.next_u64() % 255;
    let mut p = Pipeline::new(&format!("gen-{seed:#x}"));
    let mut forks_left = 3usize;
    let mut loops_left = 2usize;
    for k in 0..cfg.stages {
        let elem = if k == 0 {
            guard_writer_stage(&mut r, guard_const, cfg.rounds)
        } else if k + 1 == cfg.stages {
            guard_reader_stage(guard_const, k)
        } else if crash_stage == Some(k) {
            planted_crash_stage(&mut r, k)
        } else {
            match r.next_u64() % 10 {
                0 | 1 => symload_stage(&mut r, k, cfg.rounds),
                2 => symstore_stage(&mut r, k),
                3 if forks_left > 0 => {
                    forks_left -= 1;
                    fork_stage(&mut r, k, cfg.rounds)
                }
                4 => mapread_stage(&mut r, k),
                5 if loops_left > 0 => {
                    loops_left -= 1;
                    loop_stage(&mut r, k)
                }
                _ => mix_stage(&mut r, k, cfg.rounds),
            }
        };
        if k + 1 == cfg.stages {
            p = p.push_sink(elem);
        } else {
            p = p.push(elem);
        }
    }
    Generated {
        pipeline: p,
        planted: cfg.plant_violation,
        cfg,
    }
}

/// Packet byte carrying the writer→reader guard invariant. Chosen
/// outside every other write the generator can emit (symbolic-offset
/// stores stay below 15) and inside the guaranteed window.
pub const GUARD_OFF: u64 = 17;

/// Stage 0: establishes the guard invariant (`pkt[GUARD_OFF] = c`)
/// and seeds the accumulator from a couple of mixing rounds.
fn guard_writer_stage(r: &mut StdRng, c: u64, rounds: usize) -> Element {
    let mut b = ProgramBuilder::new("guardw");
    b.pkt_store(8, GUARD_OFF, c);
    let mut acc = b.meta_load(0);
    for _ in 0..rounds {
        acc = mix_round(&mut b, r, acc);
    }
    b.meta_store(0, acc);
    b.emit(0);
    Element::straight("guardw", b.build().expect("guard writer is valid"))
}

/// Final stage: crashes iff the guard byte was clobbered. Locally
/// satisfiable — the suspect every stage must compose toward — but
/// infeasible once stage 0's store is substituted in.
fn guard_reader_stage(c: u64, k: usize) -> Element {
    let mut b = ProgramBuilder::new(&format!("guardr{k}"));
    let byte = b.pkt_load(8, GUARD_OFF);
    let intact = b.eq(8, byte, c);
    let (ok, bad) = b.fork(intact);
    let _ = ok;
    b.emit(0);
    b.switch_to(bad);
    b.crash("guard byte clobbered");
    Element::straight(
        &format!("guardr{k}"),
        b.build().expect("guard reader is valid"),
    )
}

/// One accumulator-mixing round: folds a constant — and occasionally a
/// fixed-offset packet byte — into `acc` with a random operator.
fn mix_round(b: &mut ProgramBuilder, r: &mut StdRng, acc: Reg) -> Reg {
    let c = r.next_u64() & 0xffff_ffff;
    match r.next_u64() % 6 {
        0 => b.add(32, acc, c),
        1 => b.sub(32, acc, c),
        2 => b.bin(dpir::BinOp::Xor, 32, acc, c),
        3 => {
            let sh = b.shl(32, acc, r.next_u64() % 5);
            b.add(32, sh, acc)
        }
        4 => {
            let or = b.or(32, acc, c | 1);
            b.add(32, or, acc)
        }
        _ => {
            let off = r.next_u64() % 18;
            let byte = b.pkt_load(8, off);
            let wide = b.zext(8, 32, byte);
            b.add(32, acc, wide)
        }
    }
}

/// Straight-line stage: load the accumulator, mix for `rounds`, store
/// it back. This is the depth engine — every stage deepens the
/// composed accumulator term.
fn mix_stage(r: &mut StdRng, k: usize, rounds: usize) -> Element {
    let mut b = ProgramBuilder::new(&format!("mix{k}"));
    let mut acc = b.meta_load(0);
    for _ in 0..rounds {
        acc = mix_round(&mut b, r, acc);
    }
    b.meta_store(0, acc);
    b.emit(0);
    Element::straight(&format!("mix{k}"), b.build().expect("mix stage is valid"))
}

/// Loads a byte at an accumulator-derived offset. The masked offset
/// stays inside the guaranteed window, and with the default
/// `fork_on_symbolic_offset: false` the executor summarizes the access
/// as one selection chain over the deep accumulator term.
fn symload_stage(r: &mut StdRng, k: usize, rounds: usize) -> Element {
    let mut b = ProgramBuilder::new(&format!("symload{k}"));
    let mut acc = b.meta_load(0);
    for _ in 0..rounds.min(2) {
        acc = mix_round(&mut b, r, acc);
    }
    let low = b.and(32, acc, 7u64);
    let base = r.next_u64() % 8;
    let off32 = b.add(32, low, base);
    let off = b.trunc(32, 16, off32);
    let v = b.pkt_load(8, off);
    let wide = b.zext(8, 32, v);
    let acc2 = b.add(32, acc, wide);
    b.meta_store(0, acc2);
    b.emit(0);
    Element::straight(
        &format!("symload{k}"),
        b.build().expect("symload stage is valid"),
    )
}

/// Stores an accumulator byte at an accumulator-derived in-window
/// offset — the fig4a IP-option shape that used to overflow the
/// recursive traversals.
fn symstore_stage(r: &mut StdRng, k: usize) -> Element {
    let mut b = ProgramBuilder::new(&format!("symstore{k}"));
    let acc = b.meta_load(0);
    let low = b.and(32, acc, 7u64);
    let base = r.next_u64() % 8;
    let off32 = b.add(32, low, base);
    let off = b.trunc(32, 16, off32);
    let val = b.trunc(32, 8, acc);
    b.pkt_store(8, off, val);
    b.emit(0);
    Element::straight(
        &format!("symstore{k}"),
        b.build().expect("symstore stage is valid"),
    )
}

/// Forks on a packet-byte comparison; both arms mix the accumulator
/// differently and rejoin downstream — two feasible step-1 segments.
fn fork_stage(r: &mut StdRng, k: usize, rounds: usize) -> Element {
    let mut b = ProgramBuilder::new(&format!("fork{k}"));
    let off = r.next_u64() % 18;
    let byte = b.pkt_load(8, off);
    let cond = b.ult(8, byte, 0x40 + (r.next_u64() % 0x80));
    let (then_, else_) = b.fork(cond);
    let _ = then_;
    let acc = b.meta_load(0);
    let acc2 = mix_round(&mut b, r, acc);
    b.meta_store(0, acc2);
    b.emit(0);
    b.switch_to(else_);
    let acc = b.meta_load(0);
    let mut acc2 = acc;
    for _ in 0..rounds.min(2) {
        acc2 = mix_round(&mut b, r, acc2);
    }
    b.meta_store(0, acc2);
    b.emit(0);
    Element::straight(&format!("fork{k}"), b.build().expect("fork stage is valid"))
}

/// Reads a private map keyed by the accumulator: the abstracted store
/// havocs the value, so downstream terms mix in fresh variables.
fn mapread_stage(r: &mut StdRng, k: usize) -> Element {
    let mut b = ProgramBuilder::new(&format!("mapread{k}"));
    let m = b.map(MapDecl {
        name: format!("state{k}"),
        key_width: 32,
        value_width: 32,
        capacity: 8,
        is_static: false,
    });
    let acc = b.meta_load(0);
    let (found, val) = b.map_read(m, acc);
    let f32 = b.zext(1, 32, found);
    // found ? val : 0, branch-free: val & (0 - found).
    let mask = b.sub(32, 0u64, f32);
    let sel = b.and(32, val, mask);
    let acc2 = b.add(32, acc, sel);
    b.meta_store(0, acc2);
    let _ = r.next_u64();
    b.emit(0);
    Element::straight(
        &format!("mapread{k}"),
        b.build().expect("mapread stage is valid"),
    )
}

/// A bounded metadata-cursor loop (slots 1/2, shared by all loop
/// stages): each iteration folds the cursor into the accumulator. No
/// packet access, so it is crash-free on every entry state, including
/// the symbolic-metadata entry paths.
fn loop_stage(r: &mut StdRng, k: usize) -> Element {
    let iters = 2 + (r.next_u64() % 2) as u32;
    let mut b = ProgramBuilder::new(&format!("loop{k}"));
    let cur = b.meta_load(1);
    let is_first = b.eq(32, cur, 0u64);
    let (first, cont) = b.fork(is_first);
    let _ = first;
    b.meta_store(1, 1u64);
    b.meta_store(2, 1 + iters as u64);
    b.emit(PORT_CONTINUE);
    b.switch_to(cont);
    let end = b.meta_load(2);
    let done = b.ule(32, end, cur);
    let (done_bb, body) = b.fork(done);
    let _ = done_bb;
    b.emit(0);
    b.switch_to(body);
    let acc = b.meta_load(0);
    let folded = b.add(32, acc, cur);
    b.meta_store(0, folded);
    let nxt = b.add(32, cur, 1u64);
    b.meta_store(1, nxt);
    b.emit(PORT_CONTINUE);
    Element::looping(
        &format!("loop{k}"),
        b.build().expect("loop stage is valid"),
        iters + 2,
    )
}

/// A depth-stress pipeline: `stages` mixing stages deepen the
/// accumulator by `rounds` rounds each without ever constraining it,
/// then the final stage pulls the full-depth term into one solver
/// query. The composed accumulator is `stages * rounds * ~2` operator
/// nodes deep — far beyond what recursive DAG walks survive on a
/// 1 MiB stack — while staying cheap to *solve*:
///
/// * `planted: false` — the last stage crashes iff
///   `pkt[GUARD_OFF] != c && (acc & 1) <= 1`: unsatisfiable through
///   stage 0's store whatever `acc` is, but the blaster still lowers
///   the whole accumulator term. Verdict: `Proved`.
/// * `planted: true` — the last stage crashes iff
///   `pkt[16] == magic && (acc & 1) <= 1`: satisfiable, so the solver
///   models the deep term and the counterexample byte is pinned to
///   `magic`. Verdict: `Disproved`, exercising blast → solve → model
///   extraction → counterexample reporting at full depth.
pub fn stress_pipeline(seed: u64, stages: usize, rounds: usize, planted: bool) -> Generated {
    let mut r = StdRng::seed_from_u64(seed);
    let guard_const = 1 + r.next_u64() % 255;
    let magic = 1 + r.next_u64() % 255;
    let mut p = Pipeline::new(&format!("stress-{seed:#x}"));
    p = p.push(guard_writer_stage(&mut r, guard_const, rounds));
    for k in 1..stages - 1 {
        p = p.push(mix_stage(&mut r, k, rounds));
    }
    let mut b = ProgramBuilder::new("deepguard");
    let acc = b.meta_load(0);
    let low = b.and(32, acc, 1u64);
    let acc_cond = b.ule(32, low, 1u64);
    let byte = b.pkt_load(8, if planted { 16u64 } else { GUARD_OFF });
    let byte_cond = if planted {
        b.eq(8, byte, magic)
    } else {
        b.ne(8, byte, guard_const)
    };
    let bad = b.bool_and(byte_cond, acc_cond);
    let (hit, ok) = b.fork(bad);
    let _ = hit;
    b.crash("deep guard tripped");
    b.switch_to(ok);
    b.emit(0);
    let elem = Element::straight("deepguard", b.build().expect("deep guard is valid"));
    p = p.push_sink(elem);
    Generated {
        pipeline: p,
        planted,
        cfg: GenConfig {
            stages,
            rounds,
            plant_violation: planted,
        },
    }
}

/// The witness byte `stress_pipeline(planted: true)` pins at packet
/// offset 16 for `seed`.
pub fn stress_magic(seed: u64) -> u8 {
    let mut r = StdRng::seed_from_u64(seed);
    let _guard = r.next_u64();
    (1 + r.next_u64() % 255) as u8
}

/// The planted violation: crash iff packet byte 16 equals `magic`.
/// Byte 16 is never written by any generated stage (symbolic stores
/// stay below 15, the guard byte is 17), so the branch stays feasible
/// under every upstream composition: `CrashFreedom` is `Disproved`
/// with the witness byte pinned to `magic`, and every engine/config
/// must report identical counterexample bytes.
fn planted_crash_stage(r: &mut StdRng, k: usize) -> Element {
    let off = 16u64;
    let magic = 1 + r.next_u64() % 255;
    let mut b = ProgramBuilder::new(&format!("trap{k}"));
    let byte = b.pkt_load(8, off);
    let hit = b.eq(8, byte, magic);
    let (bad, ok) = b.fork(hit);
    let _ = bad;
    b.crash("planted trap");
    b.switch_to(ok);
    b.emit(0);
    Element::straight(&format!("trap{k}"), b.build().expect("trap stage is valid"))
}

/// The seeded config-update stream, which lives with the table deltas
/// it generates.
pub use dataplane::workload::delta_stream;
