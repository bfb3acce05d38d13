//! Integration test: the three real Click bugs of §5.3, reproduced in
//! `crates/elements`, must each be *found* (counterexample verdict) by
//! the verifier, and each fixed variant must verify clean.
//!
//! * **Bug #1** — IPFragmenter option walk without an increment:
//!   unbounded execution for any fragmented packet with options.
//! * **Bug #2** — IPFragmenter trusts the option length byte: a
//!   zero-length option wedges the walk. Masked when the IPoptions
//!   element sanitizes first (Table 3's feasible/infeasible split).
//! * **Bug #3** — Click IPRewriter: the hairpin tuple equal to the
//!   NAT's own public tuple fires an internal heap assertion.

use dpv::dataplane::{PipelineOutcome, Runner};
use dpv::dpir::PacketData;
use dpv::elements::ip_fragmenter::{ip_fragmenter, FragmenterVariant};
use dpv::elements::pipelines::{
    build_all_stores, to_pipeline, NAT_PUBLIC_IP, NAT_PUBLIC_PORT, ROUTER_IP,
};
use dpv::elements::{check_ip_header::check_ip_header, classifier::classifier, nat};
use dpv::symexec::SymConfig;
use dpv::verifier::{Property, Verdict, Verifier, VerifyConfig, VerifyReport};

const IMAX: u64 = 5_000;

fn cfg() -> VerifyConfig {
    VerifyConfig {
        sym: SymConfig {
            max_pkt_bytes: 48,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn fragmenter_pipeline(variant: FragmenterVariant, with_options: bool) -> dpv::dataplane::Pipeline {
    let mut elems = vec![classifier(), check_ip_header(false)];
    if with_options {
        elems.push(dpv::elements::ip_options::ip_options(1, Some(ROUTER_IP)));
    }
    elems.push(ip_fragmenter(variant, 40));
    to_pipeline("frag", elems)
}

fn nat_pipeline(buggy: bool) -> dpv::dataplane::Pipeline {
    let nat = if buggy {
        nat::nat_click_buggy(NAT_PUBLIC_IP, NAT_PUBLIC_PORT, 64)
    } else {
        nat::nat_verified(NAT_PUBLIC_IP, 64)
    };
    to_pipeline("nat", vec![classifier(), check_ip_header(false), nat])
}

/// Replays a bounded-execution counterexample: the dataplane must wedge
/// (exhaust its fuel) on the reported packet.
fn replay_wedges(pipeline: dpv::dataplane::Pipeline, report: &VerifyReport) {
    let Verdict::Disproved(cex) = &report.verdict else {
        panic!("expected a counterexample: {report}");
    };
    let stores = build_all_stores(&pipeline);
    let mut r = Runner::new(pipeline, stores);
    r.fuel_per_stage = 10_000;
    let mut pkt = PacketData::new(cex.bytes.clone());
    assert!(
        matches!(r.run_packet(&mut pkt), PipelineOutcome::Stuck { .. }),
        "bug packet must wedge the concrete dataplane"
    );
}

#[test]
fn bug1_missing_increment_is_found() {
    let report = Verifier::new(&fragmenter_pipeline(FragmenterVariant::ClickBug1, true))
        .config(cfg())
        .check(Property::Bounded { imax: IMAX })
        .expect_verify();
    assert!(report.verdict.is_disproved(), "{report}");
    replay_wedges(
        fragmenter_pipeline(FragmenterVariant::ClickBug1, true),
        &report,
    );
}

#[test]
fn bug2_zero_length_option_is_found_when_exposed() {
    // Without the sanitizing IPoptions element the length byte is
    // attacker controlled: disproof.
    let report = Verifier::new(&fragmenter_pipeline(FragmenterVariant::ClickBug2, false))
        .config(cfg())
        .check(Property::Bounded { imax: IMAX })
        .expect_verify();
    assert!(report.verdict.is_disproved(), "{report}");
    replay_wedges(
        fragmenter_pipeline(FragmenterVariant::ClickBug2, false),
        &report,
    );
}

#[test]
fn bug2_is_masked_by_upstream_sanitizer() {
    // With IPoptions dropping zero-length options first, the suspect
    // becomes infeasible in context — the Table 3 split.
    let report = Verifier::new(&fragmenter_pipeline(FragmenterVariant::ClickBug2, true))
        .config(cfg())
        .check(Property::Bounded { imax: IMAX })
        .expect_verify();
    assert!(report.verdict.is_proved(), "{report}");
}

#[test]
fn bug3_nat_hairpin_assert_is_found() {
    let report = Verifier::new(&nat_pipeline(true))
        .config(cfg())
        .check(Property::CrashFreedom)
        .expect_verify();
    let Verdict::Disproved(cex) = &report.verdict else {
        panic!("bug #3 must be found: {report}");
    };
    // The trigger is the NAT's own public tuple.
    let pkt = PacketData::new(cex.bytes.clone());
    assert_eq!(dpv::dataplane::headers::ip_src(&pkt), NAT_PUBLIC_IP);
    assert_eq!(dpv::dataplane::headers::l4_src_port(&pkt), NAT_PUBLIC_PORT);

    // Replay: the concrete dataplane crashes on it.
    let p = nat_pipeline(true);
    let stores = build_all_stores(&p);
    let mut r = Runner::new(p, stores);
    let mut pkt = PacketData::new(cex.bytes.clone());
    assert!(matches!(
        r.run_packet(&mut pkt),
        PipelineOutcome::Crashed { .. }
    ));
}

#[test]
fn fixed_variants_verify_clean() {
    let frag = Verifier::new(&fragmenter_pipeline(FragmenterVariant::Fixed, false))
        .config(cfg())
        .check(Property::Bounded { imax: IMAX })
        .expect_verify();
    assert!(frag.verdict.is_proved(), "{frag}");

    let nat = Verifier::new(&nat_pipeline(false))
        .config(cfg())
        .check(Property::CrashFreedom)
        .expect_verify();
    assert!(nat.verdict.is_proved(), "{nat}");
}
