//! Router audit: the developer workflow of §5.3 — drop a new element
//! (Click's IP fragmenter) into an existing router pipeline and let the
//! verifier hunt for crash and termination bugs before deployment.
//!
//! One `Verifier` session per candidate pipeline checks *both*
//! properties on one set of cached element summaries.
//!
//! ```sh
//! cargo run --release --example router_audit
//! DPV_JSON=1 cargo run --release --example router_audit  # machine-readable
//! ```

use dpv::elements::ip_fragmenter::{ip_fragmenter, FragmenterVariant};
use dpv::elements::pipelines::{to_pipeline, ROUTER_IP};
use dpv::symexec::SymConfig;
use dpv::verifier::{Property, Verdict, Verifier, VerifyConfig};

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

fn audit(name: &str, variant: FragmenterVariant, with_options_element: bool) {
    let mut elems = vec![
        dpv::elements::classifier::classifier(),
        dpv::elements::check_ip_header::check_ip_header(false),
    ];
    if with_options_element {
        elems.push(dpv::elements::ip_options::ip_options(1, Some(ROUTER_IP)));
    }
    elems.push(ip_fragmenter(variant, 40));
    let p = to_pipeline(name, elems.clone());

    // One session: step 1 runs once, both properties reuse it.
    let mut session = Verifier::new(&p).config(cfg());
    let reports = session.check_all(&[Property::CrashFreedom, Property::Bounded { imax: IMAX }]);

    println!("== {name} (step-1 passes: {})", session.step1_runs());
    for report in &reports {
        println!("   {report}");
        if std::env::var_os("DPV_JSON").is_some() {
            println!("   {}", report.to_json());
        }
        if let Some(Verdict::Disproved(cex)) = report.verdict() {
            println!("   attack packet: {}", cex.hex());
            // Replay: show the dataplane wedging on it.
            let p2 = to_pipeline(name, elems.clone());
            let stores = p2.stages.iter().map(|s| s.element.build_stores()).collect();
            let mut r = dpv::dataplane::Runner::new(p2, stores);
            r.fuel_per_stage = 10_000;
            let mut pkt = dpv::dpir::PacketData::new(cex.bytes.clone());
            println!("   replay: {:?}", r.run_packet(&mut pkt));
        }
    }
    println!();
}

fn main() {
    println!(
        "Auditing fragmenter variants for crash-freedom + bounded-execution (imax = {IMAX})\n"
    );
    // Bug #1: the missing loop increment — any real option hangs it.
    audit(
        "router + Click fragmenter (bug #1)",
        FragmenterVariant::ClickBug1,
        true,
    );
    // Bug #2 exposed: no IPoptions element to sanitize lengths.
    audit(
        "router without options + Click fragmenter (bug #2)",
        FragmenterVariant::ClickBug2,
        false,
    );
    // Bug #2 masked: the IPoptions element drops zero-length options.
    audit(
        "router + IPoptions + Click fragmenter (bug #2 masked)",
        FragmenterVariant::ClickBug2,
        true,
    );
    // The fixed fragmenter is provably bounded either way.
    audit("router + fixed fragmenter", FragmenterVariant::Fixed, false);
}
