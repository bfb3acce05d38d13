//! Allocation guard for the blast → solve → pop cycle every step-2
//! query runs: a warm session allocates per term, not per clause.
//!
//! Clause literals live in one arena in the SAT solver and term bits in
//! one arena in the blaster, the watch lists of popped variables are
//! kept for the next scope, and the solver's conflict analysis works in
//! scratch buffers. So once a session has grown to its working set, a
//! scope that blasts thousands of gate clauses, searches and is rolled
//! back again costs a handful of allocation *calls* — the per-query
//! vectors of the session itself. A per-clause `Vec` creeping back
//! costs one call per clause and fails here, whatever the host's speed.
//!
//! Counted on release builds: in a debug build `SolveSession` also
//! cross-checks every query against whole-term walks (`interval_of`,
//! `eval`, `free_vars`) that build fresh tables, 20 calls a cycle here
//! that the product never makes. The test is therefore ignored in debug
//! builds and runs with `cargo test --release -p bvsolve --test blast_alloc`.
//!
//! One test in this file: the counting allocator is process-wide.

use bvsolve::{SolveSession, TermId, TermPool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor, so the allocator may
    // read them at any point of a thread's life.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the allocation calls (fresh blocks
/// and resizes) the armed thread makes.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialised thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.get() {
            CALLS.set(CALLS.get() + 1);
        }
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.get() {
            CALLS.set(CALLS.get() + 1);
        }
        // SAFETY: the caller's obligations are `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls this thread made while running `f`, and its result.
fn calls_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    CALLS.set(0);
    ARMED.set(true);
    let out = f();
    ARMED.set(false);
    (CALLS.get(), out)
}

/// One warm cycle of `query` on a session holding `base`: a check of
/// `[base, query]`, then one of `[base]` that retires `query` again.
/// The SAT variables the scope held at its peak and the allocation
/// calls of the cycle, once a first one has grown the arenas, watch
/// lists, memo tables and scratch buffers to its working set.
fn warm_cycle(pool: &mut TermPool, base: TermId, query: TermId) -> (usize, u64) {
    let mut s = SolveSession::new();
    assert!(s.check_constraints(pool, &[base]).is_sat());
    let cycle = |s: &mut SolveSession, pool: &mut TermPool| {
        let sat = s.check_constraints(pool, &[base, query]).is_sat();
        let vars = s.num_sat_vars();
        let popped = s.check_constraints(pool, &[base]).is_sat();
        assert!(sat && popped, "every query here is satisfiable");
        vars
    };
    let vars = cycle(&mut s, pool);
    let (calls, again) = calls_of(|| cycle(&mut s, pool));
    assert_eq!(again, vars, "the cycle must be the same circuit");
    (vars, calls)
}

/// `x * y == 143` on a session holding `1 < x`, at `width` bits.
fn mul_cycle(width: u32) -> (usize, u64) {
    let mut pool = TermPool::new();
    let x = pool.fresh_var("x", width);
    let y = pool.fresh_var("y", width);
    let one = pool.mk_const(width, 1);
    let c143 = pool.mk_const(width, 143);
    let gt1 = pool.mk_ult(one, x);
    let prod = pool.mk_mul(x, y);
    let eq = pool.mk_eq(prod, c143);
    warm_cycle(&mut pool, gt1, eq)
}

/// A 2-byte load at a symbolic offset over a 48-byte window — one
/// select run of 47 links — equal to `0x1234`, on a session holding
/// `off < 40`.
fn select_cycle() -> (usize, u64) {
    let mut pool = TermPool::new();
    let off = pool.fresh_var("off", 16);
    let pkt: Vec<TermId> = (0..48)
        .map(|i| pool.fresh_var(&format!("pkt{i}"), 8))
        .collect();
    let mut load = pool.mk_const(16, 0);
    for s in 0..47 {
        let at = pool.mk_const(16, s as u64);
        let hit = pool.mk_eq(off, at);
        let bytes = pool.mk_concat(pkt[s], pkt[s + 1]);
        load = pool.mk_ite(hit, bytes, load);
    }
    let forty = pool.mk_const(16, 40);
    let in_window = pool.mk_ult(off, forty);
    let want = pool.mk_const(16, 0x1234);
    let eq = pool.mk_eq(load, want);
    warm_cycle(&mut pool, in_window, eq)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds add the session's allocating cross-checks; run with --release"
)]
fn a_warm_blast_solve_pop_cycle_allocates_under_one_call_per_10_sat_vars() {
    let mut runs: Vec<(String, usize, u64)> = [8, 16, 32]
        .into_iter()
        .map(|width| {
            let (vars, calls) = mul_cycle(width);
            (format!("{width}-bit multiply"), vars, calls)
        })
        .collect();
    let (vars, calls) = select_cycle();
    runs.push(("47-link select run".into(), vars, calls));
    for (name, vars, calls) in &runs {
        println!("{name}: {vars} SAT variables, {calls} allocation calls");
    }
    for (name, vars, calls) in runs {
        assert!(
            calls * 10 < vars as u64,
            "{name}: {calls} allocation calls for {vars} SAT variables — \
             a per-clause or per-bit allocation is back on the blast/solve/pop path"
        );
    }
}
