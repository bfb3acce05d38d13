//! Programs shared by the integration suites of this crate.

use dpir::{MapDecl, Program, ProgramBuilder};

/// A branching program exercising packet loads, arithmetic, an assert
/// and two map operations (one static-table candidate, one private).
pub fn busy_program() -> Program {
    let mut b = ProgramBuilder::new("busy");
    let table = b.map(MapDecl {
        name: "routes".into(),
        key_width: 32,
        value_width: 32,
        capacity: 16,
        is_static: true,
    });
    let flows = b.map(MapDecl {
        name: "flows".into(),
        key_width: 32,
        value_width: 32,
        capacity: 16,
        is_static: false,
    });
    let v = b.pkt_load(8, 0u64);
    let ok = b.ne(8, v, 0u64);
    b.assert_(ok, "nonzero lead byte");
    let v32 = b.zext(8, 32, v);
    let (found, route) = b.map_read(table, v32);
    let _ = found;
    // Write the route back into the packet so the table contents are
    // observable in `pkt_out`, not just in dead registers.
    b.pkt_store(32, 4u64, route);
    let (f2, _priv_val) = b.map_read(flows, route);
    let hot = b.eq(1, f2, 1u64);
    let (t, e) = b.fork(hot);
    let _ = t;
    b.emit(1);
    b.switch_to(e);
    b.emit(0);
    b.build().expect("valid")
}
