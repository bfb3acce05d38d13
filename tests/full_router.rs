//! Integration test: the full §5.2 edge-router pipeline — complete and
//! sound crash-freedom and bounded-execution proofs, plus agreement
//! between the verified bound and observed concrete behavior.

use dpv::dataplane::{PipelineOutcome, Runner};
use dpv::elements::pipelines::{build_all_stores, edge_fib, to_pipeline, ROUTER_IP};
use dpv::symexec::SymConfig;
use dpv::verifier::{Property, Verifier, VerifyConfig};

fn router() -> Vec<dpv::dataplane::Element> {
    vec![
        dpv::elements::classifier::classifier(),
        dpv::elements::check_ip_header::check_ip_header(false),
        dpv::elements::ether::drop_broadcasts(),
        dpv::elements::dec_ttl::dec_ttl(),
        dpv::elements::ip_options::ip_options(2, Some(ROUTER_IP)),
        dpv::elements::ip_lookup::ip_lookup(4, edge_fib()),
        dpv::elements::ether::eth_rewrite([2, 0, 0, 0, 0, 0xEE], [2, 0, 0, 0, 0, 1]),
    ]
}

fn cfg() -> VerifyConfig {
    VerifyConfig {
        sym: SymConfig {
            max_pkt_bytes: 48,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn edge_router_crash_freedom() {
    let p = to_pipeline("edge", router());
    let report = Verifier::new(&p)
        .config(cfg())
        .check(Property::CrashFreedom)
        .expect_verify();
    assert!(report.verdict.is_proved(), "{report}");
    // Several elements are suspect in isolation (DecTTL's unguarded
    // load, the options walk) — all discharged by composition.
    assert!(report.suspects >= 2, "{report}");
}

#[test]
fn edge_router_bounded_execution_and_latency_envelope() {
    let p = to_pipeline("edge", router());
    // Generous bound first: proves termination and yields an envelope.
    let report = Verifier::new(&p)
        .config(cfg())
        .check(Property::Bounded { imax: 10_000 })
        .expect_verify();
    assert!(report.verdict.is_proved(), "{report}");

    // The longest feasible path is the tight envelope; a bound below
    // it must be disproved.
    let paths = Verifier::new(&p).config(cfg()).longest_paths(1);
    let imax = paths.first().expect("a longest path exists").instrs;
    assert!(imax > 0 && imax < 10_000);
    let p2 = to_pipeline("edge", router());
    let tight = Verifier::new(&p2)
        .config(cfg())
        .check(Property::Bounded { imax: imax - 1 })
        .expect_verify();
    assert!(
        tight.verdict.is_disproved(),
        "a bound below the longest path must fail: {tight}"
    );

    // And no concrete run may ever exceed the proven envelope.
    let p3 = to_pipeline("edge", router());
    let stores = build_all_stores(&p3);
    let mut r = Runner::new(p3, stores);
    let mut mix = dpv::dataplane::workload::FlowMix::new(5, 32);
    for _ in 0..300 {
        let mut pkt = mix.next_packet();
        r.run_packet(&mut pkt);
    }
    // Adversarial packets too.
    for gen in [
        dpv::dataplane::workload::adversarial::with_nop_options(3),
        dpv::dataplane::workload::adversarial::zero_length_option(),
        dpv::dataplane::workload::adversarial::lsrr(0x01020304),
    ] {
        let mut pkt = gen.clone();
        let out = r.run_packet(&mut pkt);
        assert!(
            !matches!(
                out,
                PipelineOutcome::Crashed { .. } | PipelineOutcome::Stuck { .. }
            ),
            "{out:?}"
        );
    }
    assert!(
        r.stats().max_instrs_per_packet <= imax,
        "concrete {} exceeds verified envelope {}",
        r.stats().max_instrs_per_packet,
        imax
    );
}

#[test]
fn edge_and_core_router_verify_identically() {
    // Fig. 4(a): with arbitrary-configuration proofs the lookup table
    // is abstracted, so table size cannot matter.
    let mut big = router();
    big[5] = dpv::elements::ip_lookup::ip_lookup(4, dpv::elements::pipelines::core_fib(5_000));
    let p_edge = to_pipeline("edge", router());
    let p_core = to_pipeline("core", big);
    let r_edge = Verifier::new(&p_edge)
        .config(cfg())
        .check(Property::CrashFreedom)
        .expect_verify();
    let r_core = Verifier::new(&p_core)
        .config(cfg())
        .check(Property::CrashFreedom)
        .expect_verify();
    assert!(r_edge.verdict.is_proved() && r_core.verdict.is_proved());
    assert_eq!(r_edge.step1_states, r_core.step1_states);
    assert_eq!(r_edge.step1_segments, r_core.step1_segments);
    assert_eq!(r_edge.composed_paths, r_core.composed_paths);
}
