//! Integration test: the network gateway end to end — verification,
//! stateful operation under traffic, NAT mapping stability, and the
//! monitor/control-plane expiration handshake.

use dpv::dataplane::{headers, workload::PacketBuilder, PipelineOutcome, Runner};
use dpv::elements::pipelines::{build_all_stores, network_gateway, to_pipeline, NAT_PUBLIC_IP};
use dpv::symexec::SymConfig;
use dpv::verifier::{Property, Verifier, VerifyConfig};

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
fn gateway_proofs_hold() {
    let p = to_pipeline("gateway", network_gateway(5));
    let r = Verifier::new(&p)
        .config(cfg())
        .check(Property::CrashFreedom)
        .expect_verify();
    assert!(r.verdict.is_proved(), "{r}");
    let p2 = to_pipeline("gateway", network_gateway(5));
    let r2 = Verifier::new(&p2)
        .config(cfg())
        .check(Property::Bounded { imax: 10_000 })
        .expect_verify();
    assert!(r2.verdict.is_proved(), "{r2}");
}

#[test]
fn gateway_translates_consistently_under_load() {
    let p = to_pipeline("gateway", network_gateway(5));
    let stores = build_all_stores(&p);
    let mut r = Runner::new(p, stores);

    // 50 clients, several packets each: every flow keeps its mapping.
    let mut mappings = std::collections::HashMap::new();
    for round in 0..4 {
        for client in 0..50u32 {
            let mut pkt = PacketBuilder::ipv4_tcp()
                .src(0x0A00_0100 + client)
                .sport(10_000 + client as u16)
                .dst(0x5DB8_D822)
                .build();
            match r.run_packet(&mut pkt) {
                PipelineOutcome::Delivered(_) => {}
                other => panic!("round {round} client {client}: {other:?}"),
            }
            assert_eq!(headers::ip_src(&pkt), NAT_PUBLIC_IP);
            let ext = headers::l4_src_port(&pkt);
            let prev = mappings.insert(client, ext);
            if let Some(prev) = prev {
                assert_eq!(prev, ext, "client {client} mapping must be stable");
            }
        }
    }
    assert_eq!(r.stats().crashed, 0);
    assert_eq!(r.stats().stuck, 0);
}

#[test]
fn monitor_counts_and_expires_through_pipeline() {
    let p = to_pipeline("gateway", network_gateway(5));
    let stores = build_all_stores(&p);
    let mut r = Runner::new(p, stores);

    // Three packets of one flow, the last carrying FIN.
    for fin in [false, false, true] {
        let mut pkt = PacketBuilder::ipv4_tcp()
            .src(0x0A00_0001)
            .dst(0x5DB8_D822)
            .payload_len(8)
            .build();
        if fin {
            let l4 = headers::l4_offset(&pkt);
            pkt.bytes[l4 + 13] |= 0x01;
            headers::set_ipv4_checksum(&mut pkt);
        }
        match r.run_packet(&mut pkt) {
            PipelineOutcome::Delivered(_) => {}
            other => panic!("{other:?}"),
        }
    }
    // The monitor (stage 2) expired the flow to the control plane.
    let key = ((0x0A00_0001u64) << 32) | 0x5DB8_D822;
    let expired = r
        .stage_stores(2)
        .store_mut(dpv::dpir::MapId(0))
        .take_expired();
    assert_eq!(expired, vec![(key, 3)], "final count delivered on FIN");
}

#[test]
fn hairpin_is_harmless_on_verified_gateway() {
    // The bug-#3 trigger packet against the *verified* NAT.
    let p = to_pipeline("gateway", network_gateway(5));
    let stores = build_all_stores(&p);
    let mut r = Runner::new(p, stores);
    let mut pkt = dpv::dataplane::workload::adversarial::nat_hairpin(
        NAT_PUBLIC_IP,
        dpv::elements::pipelines::NAT_PUBLIC_PORT,
    );
    let out = r.run_packet(&mut pkt);
    assert!(
        !matches!(out, PipelineOutcome::Crashed { .. }),
        "verified NAT survives the hairpin: {out:?}"
    );
}
