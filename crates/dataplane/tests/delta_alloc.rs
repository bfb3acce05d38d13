//! Allocation guard for the config-update path: applying a delta
//! allocates what the delta changes, not what the table holds.
//!
//! A route flap on a 100 000-route FIB used to clone the table to
//! dry-run the op on the copy (5.6 MB allocated per delta, two deltas a
//! flap); validation is now a kind check read off the table, and the
//! only allocation left is the effect's `touched` list. A budget far
//! below one table copy, asserted on a count, says so directly — a copy
//! creeping back fails here whatever the host's speed.
//!
//! One test in this file: the counting allocator is process-wide.

use dataplane::{Element, Pipeline, Route, Stage, TableConfig, TableDelta, TableOp};
use dpir::ProgramBuilder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

const ROUTES: u32 = 100_000;
const FIB: dpir::MapId = dpir::MapId(0);

fn fib_pipeline() -> Pipeline {
    let mut b = ProgramBuilder::new("fib");
    b.emit(0);
    let routes = (0..ROUTES).map(|i| (i << 8, 24, i % 4)).collect();
    Pipeline {
        name: "alloc".into(),
        stages: vec![Stage {
            element: Element::straight("fib", b.build().expect("valid"))
                .with_table(FIB, TableConfig::lpm(routes)),
            routes: vec![(0, Route::Sink(0))],
        }],
    }
}

#[test]
fn a_route_flap_on_100k_routes_allocates_under_4_kib() {
    let mut p = fib_pipeline();
    // 224.0.0.0/3 is outside the FIB's 0.x.y.0/24 range: the announce
    // is never an overwrite, the withdraw always hits.
    let flap = |i: u32| {
        let prefix = 0xE000_0000 | (i << 8);
        [
            TableDelta::new("fib", FIB, TableOp::LpmInsert(vec![(prefix, 24, i % 4)])),
            TableDelta::new("fib", FIB, TableOp::LpmRemove(vec![(prefix, 24)])),
        ]
    };
    let apply = |p: &mut Pipeline, flap: &[TableDelta; 2]| {
        for d in flap {
            assert!(d.apply(p).expect("valid").any_changed());
        }
    };
    // The warm-up announce is the one push that may grow the table's
    // vectors; every later flap fits the capacity it left.
    apply(&mut p, &flap(0));
    for i in 1..=100 {
        let flap = flap(i);
        let bytes = allocated_by(|| apply(&mut p, &flap));
        assert!(
            bytes < 4 * 1024,
            "flap {i} allocated {bytes} bytes: a table copy is back on TableDelta::apply"
        );
    }
    assert_eq!(p.stages[0].element.tables[0].1.len(), ROUTES as usize);
}
