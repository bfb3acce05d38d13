//! Integration test: mutable private state (§3.4) — the Fig. 3 counter
//! element, the induction lemma, and the concrete wrap-around it
//! predicts (scaled down to a width where we can actually drive the
//! counter over the edge).

use dpv::dataplane::{Element, Pipeline};
use dpv::dpir::{MapDecl, ProgramBuilder};
use dpv::elements::pipelines::to_pipeline;
use dpv::symexec::SymConfig;
use dpv::verifier::{Property, Report, StateFinding, Verifier, VerifyConfig};

/// The Fig. 3 element with a configurable counter width.
fn counter_elem(width: u32) -> Element {
    let mut b = ProgramBuilder::new("Fig3");
    let m = b.map(MapDecl {
        name: "counters".into(),
        key_width: 32,
        value_width: width,
        capacity: 16,
        is_static: false,
    });
    let len = b.pkt_len();
    let short = b.ult(16, len, 30u64);
    let (s, ok) = b.fork(short);
    let _ = s;
    b.drop_();
    b.switch_to(ok);
    let flow = b.pkt_load(32, 26u64);
    let exists = b.map_test(m, flow);
    let missing = b.bool_not(exists);
    let (init, have) = b.fork(missing);
    let _ = init;
    let _ok = b.map_write(m, flow, 0u64);
    let cont = b.new_block();
    b.jump(cont);
    b.switch_to(have);
    b.jump(cont);
    b.switch_to(cont);
    let (_found, cnt) = b.map_read(m, flow);
    let cnt2 = b.add(width, cnt, 1u64);
    let _ok2 = b.map_write(m, flow, cnt2);
    b.emit(0);
    Element::straight("Fig3", b.build().expect("valid"))
}

fn sym_cfg() -> SymConfig {
    SymConfig {
        max_pkt_bytes: 40,
        ..Default::default()
    }
}

/// The §3.4 private-state findings for `p`.
fn state_findings(p: &Pipeline) -> Vec<StateFinding> {
    let cfg = VerifyConfig {
        sym: sym_cfg(),
        ..Default::default()
    };
    match Verifier::new(p)
        .config(cfg)
        .check(Property::StateConsistency)
    {
        Report::State(s) => {
            assert!(s.error.is_none(), "step 1 aborted: {:?}", s.error);
            s.findings
        }
        other => panic!("expected a state report, got {other:?}"),
    }
}

#[test]
fn fig3_counter_detected_with_induction_bound() {
    let p = to_pipeline("fig3", vec![counter_elem(32)]);
    let findings = state_findings(&p);
    assert_eq!(findings.len(), 1);
    let StateFinding::CounterOverflow {
        packets_to_overflow,
        width,
        increment,
        ..
    } = &findings[0];
    assert_eq!(*width, 32);
    assert_eq!(*increment, 1);
    assert_eq!(*packets_to_overflow, 1u128 << 32);
}

#[test]
fn induction_prediction_matches_concrete_wraparound() {
    // Scale the counter to 8 bits: the lemma predicts overflow after
    // 256 packets of one flow — drive exactly that and watch it wrap.
    let elem = counter_elem(8);
    let p = to_pipeline("fig3-u8", vec![elem.clone()]);
    let findings = state_findings(&p);
    let StateFinding::CounterOverflow {
        packets_to_overflow,
        ..
    } = &findings[0];
    assert_eq!(*packets_to_overflow, 256);

    let mut stores = elem.build_stores();
    let pkt_of = |_i: u32| {
        dpv::dataplane::workload::PacketBuilder::ipv4_udp()
            .src(0x0A000001)
            .build()
    };
    use dpv::dpir::MapRuntime;
    for i in 0..255u32 {
        let mut pkt = pkt_of(i);
        elem.process(&mut pkt, &mut stores, 10_000);
    }
    let key = 0x0A000001u64.rotate_left(0); // src bytes at offset 26 = src ip
    let before = stores.read(dpv::dpir::MapId(0), key).expect("present");
    assert_eq!(before, 255, "counter at max before the overflow packet");
    let mut pkt = pkt_of(255);
    elem.process(&mut pkt, &mut stores, 10_000);
    let after = stores.read(dpv::dpir::MapId(0), key).expect("present");
    assert_eq!(
        after, 0,
        "the 256th packet wraps the counter — exactly as proved"
    );
}
