//! Integration test: the paper's Fig. 1 walkthrough through the public
//! API of the facade crate — element authoring, concrete execution,
//! step-1 suspects, step-2 discharge.

use dpv::dataplane::{Element, Pipeline, PipelineOutcome, Route, Runner, Stage};
use dpv::dpir::{PacketData, ProgramBuilder};
use dpv::verifier::{Property, Verdict, Verifier};

fn clamp_elem() -> Element {
    let mut b = ProgramBuilder::new("E1");
    let len = b.pkt_len();
    let empty = b.ult(16, len, 1u64);
    let (e, ok) = b.fork(empty);
    let _ = e;
    b.drop_();
    b.switch_to(ok);
    let v = b.pkt_load(8, 0u64);
    let small = b.ult(8, v, 10u64);
    let (clamp, pass) = b.fork(small);
    let _ = clamp;
    b.pkt_store(8, 0u64, 10u64);
    b.emit(0);
    b.switch_to(pass);
    b.emit(0);
    Element::straight("E1", b.build().expect("valid"))
}

fn assert_elem() -> Element {
    let mut b = ProgramBuilder::new("E2");
    let v = b.pkt_load(8, 0u64);
    let ok = b.ule(8, 10u64, v);
    b.assert_(ok, "in >= 10");
    b.emit(0);
    Element::straight("E2", b.build().expect("valid"))
}

fn pipeline() -> Pipeline {
    Pipeline::new("fig1")
        .push_stage(Stage::passthrough(clamp_elem()))
        .push_stage(Stage::passthrough(assert_elem()).route(0, Route::Sink(0)))
}

#[test]
fn composed_pipeline_is_crash_free() {
    let report = Verifier::new(&pipeline())
        .check(Property::CrashFreedom)
        .expect_verify();
    assert!(matches!(report.verdict, Verdict::Proved), "{report}");
    // The suspect existed (E2's assert) and was discharged in step 2.
    assert!(report.suspects >= 1);
    assert!(report.composed_paths >= 2, "paper composes p1 and p4");
}

#[test]
fn second_element_alone_is_not_crash_free() {
    let broken = Pipeline::new("fig1-broken")
        .push_stage(Stage::passthrough(assert_elem()).route(0, Route::Sink(0)));
    let report = Verifier::new(&broken)
        .check(Property::CrashFreedom)
        .expect_verify();
    let Verdict::Disproved(cex) = report.verdict else {
        panic!("must be disproved: {report}");
    };
    // Replay the counterexample concretely.
    let p = Pipeline::new("replay")
        .push_stage(Stage::passthrough(assert_elem()).route(0, Route::Sink(0)));
    let stores = p.stages.iter().map(|s| s.element.build_stores()).collect();
    let mut r = Runner::new(p, stores);
    let mut pkt = PacketData::new(cex.bytes);
    assert!(matches!(
        r.run_packet(&mut pkt),
        PipelineOutcome::Crashed { .. }
    ));
}

#[test]
fn concrete_runs_match_verified_semantics() {
    let p = pipeline();
    let stores = p.stages.iter().map(|s| s.element.build_stores()).collect();
    let mut r = Runner::new(p, stores);
    // Crash-freedom was proved; hammer the pipeline with awkward inputs
    // and confirm nothing crashes.
    for len in 0..16usize {
        for fill in [0u8, 5, 9, 10, 11, 255] {
            let mut pkt = PacketData::new(vec![fill; len]);
            let out = r.run_packet(&mut pkt);
            assert!(
                !matches!(out, PipelineOutcome::Crashed { .. }),
                "len={len} fill={fill}: {out:?}"
            );
        }
    }
    assert_eq!(r.stats().crashed, 0);
}
