//! Allocation guard for the daemon's burst path: a burst of FIB
//! updates through [`ChurnSession::apply_batch`] allocates what it
//! changes and what it reports, not what the pipeline holds.
//!
//! `apply_batch` used to clone the whole `Pipeline` to get atomicity,
//! and every delta then cloned its table to validate (53 MB by this
//! file's count for a burst of 8 on a 100 000-route router); the burst
//! is now validated first and applied in place. What is left is the
//! replayed reports — under 2 KiB — so a budget well below one table
//! copy (2.8 MB), asserted on a count, holds on any host and fails the
//! moment a copy returns.
//!
//! One test in this file: the counting allocator is process-wide.

use dataplane::{TableDelta, TableOp};
use elements::pipelines::{core_fib, ip_router, to_pipeline};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use symexec::SymConfig;
use verifier::{ChurnSession, Property, ReuseLevel, VerifyConfig};

thread_local! {
    // Const-initialised and without a destructor, so the allocator may
    // read them at any point of a thread's life.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the bytes the armed thread asks for.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialised thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.get() {
            BYTES.set(BYTES.get() + layout.size() as u64);
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
            BYTES.set(BYTES.get() + new_size as u64);
        }
        // SAFETY: the caller's obligations are `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes this thread requested from the allocator while running `f`.
fn allocated_by(f: impl FnOnce()) -> u64 {
    BYTES.set(0);
    ARMED.set(true);
    f();
    ARMED.set(false);
    BYTES.get()
}

#[test]
fn a_burst_of_8_on_a_100k_route_router_allocates_under_256_kib() {
    let pipeline = to_pipeline("core-router", ip_router(7, 1, core_fib(100_000)));
    let fib = dpir::MapId(0);
    // Abstract-only properties: table-blind, so every burst replays.
    let props = vec![Property::CrashFreedom, Property::Bounded { imax: 10_000 }];
    let cfg = VerifyConfig {
        sym: SymConfig {
            max_pkt_bytes: 48,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut session =
        ChurnSession::new(pipeline, props, cfg, ReuseLevel::Sessions).expect("search-based");
    session.verify();

    // Four route flaps: 224.0.0.0/3 is outside core_fib's 0.x.y.0/24
    // range, so every announce lands and every withdraw hits.
    let burst = |round: u32| -> Vec<TableDelta> {
        (0..4)
            .flat_map(|i| {
                let prefix = 0xE000_0000 | ((round * 4 + i) << 8);
                [
                    TableOp::LpmInsert(vec![(prefix, 24, i)]),
                    TableOp::LpmRemove(vec![(prefix, 24)]),
                ]
            })
            .map(|op| TableDelta::new("IPlookup", fib, op))
            .collect()
    };
    // The warm-up burst is the one that may grow the FIB's vectors.
    session.apply_batch(&burst(0)).expect("valid burst");
    for round in 1..=5 {
        let burst = burst(round);
        let mut replayed = false;
        let bytes = allocated_by(|| {
            let report = session.apply_batch(&burst).expect("valid burst");
            replayed = report.replayed.iter().all(|&r| r);
        });
        assert!(replayed, "table-blind properties replay");
        assert!(
            bytes < 256 * 1024,
            "burst {round} allocated {bytes} bytes: a pipeline or table copy is back on apply_batch"
        );
    }
    assert_eq!(session.stats().updates, 6);
}
