//! End-to-end verification tests: the paper's headline results.
//!
//! Every disproof is **replayed concretely**: the counterexample packet
//! returned by the verifier is pushed through the real dataplane and
//! must trigger exactly the violation the verifier predicted. That
//! closes the loop between the symbolic and concrete semantics.

use dataplane::{PipelineOutcome, Runner};
use elements::ip_fragmenter::{ip_fragmenter, FragmenterVariant};
use elements::pipelines::{
    build_all_stores, to_pipeline, NAT_PUBLIC_IP, NAT_PUBLIC_PORT, ROUTER_IP,
};
use symexec::SymConfig;
use verifier::{FilterProperty, Property, Verdict, Verifier, VerifyConfig};

fn cfg() -> VerifyConfig {
    VerifyConfig {
        sym: SymConfig {
            max_pkt_bytes: 48,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn replay(elements: Vec<dataplane::Element>, bytes: &[u8]) -> PipelineOutcome {
    let p = to_pipeline("replay", elements);
    let stores = build_all_stores(&p);
    let mut r = Runner::new(p, stores);
    r.fuel_per_stage = 20_000;
    let mut pkt = dpir::PacketData::new(bytes.to_vec());
    r.run_packet(&mut pkt)
}

// --------------------------------------------------------------------
// Crash-freedom
// --------------------------------------------------------------------

#[test]
fn classifier_alone_is_crash_free() {
    let p = to_pipeline("clf", vec![elements::classifier::classifier()]);
    let r = Verifier::new(&p)
        .config(cfg())
        .check(Property::CrashFreedom)
        .expect_verify();
    assert!(r.verdict.is_proved(), "{r}");
    assert_eq!(r.suspects, 0);
}

#[test]
fn dec_ttl_alone_crashes_and_cex_replays() {
    // In isolation DecTTL reads byte 22 unconditionally: disproved.
    let elems = vec![elements::dec_ttl::dec_ttl()];
    let p = to_pipeline("ttl", elems.clone());
    let r = Verifier::new(&p)
        .config(cfg())
        .check(Property::CrashFreedom)
        .expect_verify();
    let Verdict::Disproved(cex) = &r.verdict else {
        panic!("expected disproof, got {r}");
    };
    assert!(cex.bytes.len() < 23, "short packet triggers the OOB read");
    match replay(elems, &cex.bytes) {
        PipelineOutcome::Crashed { .. } => {}
        other => panic!("counterexample must crash concretely, got {other:?}"),
    }
}

#[test]
fn preproc_discharges_dec_ttl_suspect() {
    // CheckIPHeader guarantees 34 bytes; DecTTL's crash suspect becomes
    // infeasible in context — the paper's Fig. 1 argument on real code.
    let elems = vec![
        elements::classifier::classifier(),
        elements::check_ip_header::check_ip_header(false),
        elements::dec_ttl::dec_ttl(),
    ];
    let p = to_pipeline("preproc+ttl", elems);
    let r = Verifier::new(&p)
        .config(cfg())
        .check(Property::CrashFreedom)
        .expect_verify();
    assert!(r.verdict.is_proved(), "{r}");
    assert!(r.suspects >= 1, "DecTTL is suspect in isolation");
    assert!(r.composed_paths >= 1, "step 2 had to discharge it");
}

#[test]
fn bug3_click_nat_gateway_crashes() {
    // Table 3, bug #3: network gateway with the Click NAT — a failed
    // assertion, found after composing a handful of paths.
    let elems = vec![
        elements::classifier::classifier(),
        elements::check_ip_header::check_ip_header(false),
        elements::nat::nat_click_buggy(NAT_PUBLIC_IP, NAT_PUBLIC_PORT, 64),
    ];
    let p = to_pipeline("gateway+clicknat", elems.clone());
    let r = Verifier::new(&p)
        .config(cfg())
        .check(Property::CrashFreedom)
        .expect_verify();
    let Verdict::Disproved(cex) = &r.verdict else {
        panic!("expected disproof, got {r}");
    };
    assert!(
        cex.description.contains("heap.hh"),
        "names the Click assert: {}",
        cex.description
    );
    // The counterexample is the hairpin packet: Ts = Td = T_public.
    let pkt = dpir::PacketData::new(cex.bytes.clone());
    assert_eq!(dataplane::headers::ip_src(&pkt), NAT_PUBLIC_IP);
    assert_eq!(dataplane::headers::ip_dst(&pkt), NAT_PUBLIC_IP);
    assert_eq!(dataplane::headers::l4_src_port(&pkt), NAT_PUBLIC_PORT);
    assert_eq!(dataplane::headers::l4_dst_port(&pkt), NAT_PUBLIC_PORT);
    match replay(elems, &cex.bytes) {
        PipelineOutcome::Crashed { stage: 2, .. } => {}
        other => panic!("hairpin must crash the NAT stage, got {other:?}"),
    }
}

#[test]
fn verified_nat_gateway_is_crash_free() {
    let elems = vec![
        elements::classifier::classifier(),
        elements::check_ip_header::check_ip_header(false),
        elements::nat::nat_verified(NAT_PUBLIC_IP, 64),
    ];
    let p = to_pipeline("gateway", elems);
    let r = Verifier::new(&p)
        .config(cfg())
        .check(Property::CrashFreedom)
        .expect_verify();
    assert!(r.verdict.is_proved(), "{r}");
}

// --------------------------------------------------------------------
// Bounded-execution (bugs #1 and #2)
// --------------------------------------------------------------------

const IMAX: u64 = 5_000;

#[test]
fn bug1_fragmenter_unbounded_with_options() {
    // Table 3, bug #1: edge-router preproc + IPoptions(1) + buggy
    // fragmenter. Any real option on a fragmented packet hangs.
    let elems = vec![
        elements::classifier::classifier(),
        elements::check_ip_header::check_ip_header(false),
        elements::ip_options::ip_options(1, Some(ROUTER_IP)),
        ip_fragmenter(FragmenterVariant::ClickBug1, 40),
    ];
    let p = to_pipeline("edge+frag1", elems.clone());
    let r = Verifier::new(&p)
        .config(cfg())
        .check(Property::Bounded { imax: IMAX })
        .expect_verify();
    let Verdict::Disproved(cex) = &r.verdict else {
        panic!("expected disproof, got {r}");
    };
    match replay(elems, &cex.bytes) {
        PipelineOutcome::Stuck { stage: 3 } => {}
        other => panic!("cex must hang the fragmenter, got {other:?}"),
    }
}

#[test]
fn bug2_fragmenter_unbounded_without_options_element() {
    // Table 3, bug #2 (feasible case): no IPoptions element upstream —
    // a zero-length option freezes the walk. Found after few paths.
    let elems = vec![
        elements::classifier::classifier(),
        elements::check_ip_header::check_ip_header(false),
        ip_fragmenter(FragmenterVariant::ClickBug2, 40),
    ];
    let p = to_pipeline("edge+frag2", elems.clone());
    let r = Verifier::new(&p)
        .config(cfg())
        .check(Property::Bounded { imax: IMAX })
        .expect_verify();
    let Verdict::Disproved(cex) = &r.verdict else {
        panic!("expected disproof, got {r}");
    };
    match replay(elems, &cex.bytes) {
        PipelineOutcome::Stuck { stage: 2 } => {}
        other => panic!("cex must hang the fragmenter, got {other:?}"),
    }
}

#[test]
fn bug2_masked_by_options_element() {
    // Table 3, bug #2 (infeasible case): the IPoptions element drops
    // zero-length options, so the fragmenter's stuck path composes to
    // UNSAT on every pipeline path — the expensive refutation.
    let elems = vec![
        elements::classifier::classifier(),
        elements::check_ip_header::check_ip_header(false),
        elements::ip_options::ip_options(2, Some(ROUTER_IP)),
        ip_fragmenter(FragmenterVariant::ClickBug2, 40),
    ];
    let p = to_pipeline("edge+opts+frag2", elems);
    let r = Verifier::new(&p)
        .config(cfg())
        .check(Property::Bounded { imax: IMAX })
        .expect_verify();
    assert!(r.verdict.is_proved(), "options element masks bug #2: {r}");
    assert!(r.composed_paths > 10, "the refutation is the pricey case");
}

#[test]
fn fixed_fragmenter_is_bounded() {
    let elems = vec![
        elements::classifier::classifier(),
        elements::check_ip_header::check_ip_header(false),
        ip_fragmenter(FragmenterVariant::Fixed, 40),
    ];
    let p = to_pipeline("edge+fixedfrag", elems);
    let r = Verifier::new(&p)
        .config(cfg())
        .check(Property::Bounded { imax: IMAX })
        .expect_verify();
    assert!(r.verdict.is_proved(), "{r}");
}

// --------------------------------------------------------------------
// Filtering (the LSRR case study)
// --------------------------------------------------------------------

const BLACKLISTED: u32 = 0x0BAD_0001;

#[test]
fn lsrr_bypasses_firewall_and_cex_replays() {
    // §5.3 "unintended behavior": IPoptions (LSRR enabled) before the
    // firewall — the property "any packet with blacklisted source is
    // dropped" is violated by an LSRR packet.
    let elems = vec![
        elements::ip_options::ip_options(2, Some(ROUTER_IP)),
        elements::ip_filter::ip_filter(vec![BLACKLISTED]),
    ];
    let p = to_pipeline("lsrr+fw", elems.clone());
    let r = Verifier::new(&p)
        .config(cfg())
        .check(Property::Filter(FilterProperty::src(BLACKLISTED)))
        .expect_verify();
    let Verdict::Disproved(cex) = &r.verdict else {
        panic!("expected violation, got {r}");
    };
    // The packet really has the blacklisted source...
    let pkt = dpir::PacketData::new(cex.bytes.clone());
    assert_eq!(dataplane::headers::ip_src(&pkt), BLACKLISTED);
    // ...and carries the LSRR option somewhere in the options region.
    let opts_end = dataplane::headers::l4_offset(&pkt).min(pkt.bytes.len());
    assert!(
        pkt.bytes[dataplane::headers::IP_OPTS..opts_end].contains(&dataplane::headers::IPOPT_LSRR),
        "counterexample carries LSRR: {}",
        cex.hex()
    );
    // Replayed concretely, it sails through the firewall.
    match replay(elems, &cex.bytes) {
        PipelineOutcome::Delivered(_) => {}
        other => panic!("cex must be delivered, got {other:?}"),
    }
}

#[test]
fn firewall_holds_without_lsrr_rewriting() {
    let elems = vec![
        elements::ip_options::ip_options(2, None),
        elements::ip_filter::ip_filter(vec![BLACKLISTED]),
    ];
    let p = to_pipeline("opts+fw", elems);
    let r = Verifier::new(&p)
        .config(cfg())
        .check(Property::Filter(FilterProperty::src(BLACKLISTED)))
        .expect_verify();
    assert!(r.verdict.is_proved(), "{r}");
}

#[test]
fn firewall_alone_filters() {
    let elems = vec![elements::ip_filter::ip_filter(vec![BLACKLISTED])];
    let p = to_pipeline("fw", elems);
    let r = Verifier::new(&p)
        .config(cfg())
        .check(Property::Filter(FilterProperty::src(BLACKLISTED)))
        .expect_verify();
    assert!(r.verdict.is_proved(), "{r}");
    // A different source must NOT be provably dropped.
    let p2 = to_pipeline(
        "fw2",
        vec![elements::ip_filter::ip_filter(vec![BLACKLISTED])],
    );
    let r2 = Verifier::new(&p2)
        .config(cfg())
        .check(Property::Filter(FilterProperty::src(0x0A00_0001)))
        .expect_verify();
    assert!(r2.verdict.is_disproved(), "{r2}");
}
