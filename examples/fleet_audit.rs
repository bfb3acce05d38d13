//! Fleet audit: the deployment workflow the summary store exists for —
//! one operator, one router design, many *config variants* (different
//! FIB contents per site), all audited in one `Fleet::run` on a shared
//! content-addressed step-1 store.
//!
//! Abstract-mode properties (crash-freedom, bounded-execution) are
//! table-blind and judged on one step-2 walk, so the eight production
//! sites are *one* equivalence class: the fleet walks once for site 0
//! and replays both reports to the other seven, while the staging site
//! — different elements — keeps a class of its own. A second audit on the
//! same store (the "warm" run below — think re-checking after a config
//! push) executes no step-1 stage at all.
//!
//! ```sh
//! cargo run --release --example fleet_audit
//! DPV_JSON=1 cargo run --release --example fleet_audit  # machine-readable
//! ```

use dpv::elements::ip_fragmenter::{ip_fragmenter, FragmenterVariant};
use dpv::elements::pipelines::{ip_router, to_pipeline, ROUTER_IP};
use dpv::symexec::SymConfig;
use dpv::verifier::fleet::Fleet;
use dpv::verifier::Verdict;
use dpv::verifier::{Property, SummaryStore, VerifyConfig};
use std::sync::Arc;

fn cfg() -> VerifyConfig {
    VerifyConfig {
        sym: SymConfig {
            max_pkt_bytes: 48,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Per-site FIB: same router, different routes.
fn site_fib(site: u32) -> Vec<(u32, u32, u32)> {
    vec![
        (0x0A00_0000 | (site << 16), 16, site % 4),
        (0x0A00_0000, 8, 0),
        (0xC0A8_0000 | site, 32, (site + 1) % 4),
    ]
}

fn site_fleet(store: &Arc<SummaryStore>) -> Fleet {
    let mut fleet = Fleet::new()
        .config(cfg())
        .threads(0)
        .store(Arc::clone(store));
    for site in 0..8 {
        fleet = fleet.variant(
            format!("site-{site}"),
            to_pipeline("router", ip_router(6, 2, site_fib(site))),
        );
    }
    // One site is staging a new element: Click's fragmenter, with its
    // real infinite-loop bug. The audit must single it out.
    fleet = fleet.variant(
        "site-8-staging",
        to_pipeline(
            "router+frag",
            vec![
                dpv::elements::classifier::classifier(),
                dpv::elements::check_ip_header::check_ip_header(false),
                dpv::elements::ip_options::ip_options(1, Some(ROUTER_IP)),
                ip_fragmenter(FragmenterVariant::ClickBug1, 40),
            ],
        ),
    );
    fleet.properties(&[Property::CrashFreedom, Property::Bounded { imax: 10_000 }])
}

fn main() {
    let store = SummaryStore::shared();

    println!("== cold audit: 9 sites x 2 properties, empty store");
    let cold = site_fleet(&store).run();
    print!("{cold}");

    println!("== warm audit: same fleet, same store (a config re-check)");
    let warm = site_fleet(&store).run();
    print!("{warm}");

    if std::env::var_os("DPV_JSON").is_some() {
        println!("{}", cold.to_json());
        println!("{}", warm.to_json());
    }

    // The production sites prove clean; the staging site's fragmenter
    // bug is disproved with a concrete attack packet — identically,
    // cold or warm.
    assert_eq!(cold.disproved(), 1, "exactly the staging bug is found");
    assert_eq!(
        cold.disproved(),
        warm.disproved(),
        "verdicts are store-independent"
    );
    // 18 checks, 2 walks: the FIB-only sites collapse into one class
    // (both properties on one walk), the staging site does not
    // collapse into them.
    println!(
        "step-2 classes: {} walks for {} checks ({} replayed)",
        cold.classes,
        cold.variants.iter().map(|v| v.reports.len()).sum::<usize>(),
        cold.checks_replayed()
    );
    assert_eq!(cold.classes, 2, "production + staging, one walk each");
    for (i, v) in cold.variants.iter().enumerate() {
        let expect = (1..8).contains(&i);
        assert_eq!(v.replayed, [expect, expect], "{}", v.variant);
    }
    assert!(cold.summary_hits > 0, "the searches share step-1 work");
    assert_eq!(warm.summary_misses, 0, "warm audit executes nothing");
    let staging = cold.variants.last().expect("staging site");
    for r in staging.reports.iter().filter_map(|r| r.as_verify()) {
        if let Verdict::Disproved(cex) = &r.verdict {
            println!("staging attack packet ({}): {}", r.property, cex.hex());
        }
    }
    for (c, w) in cold.variants.iter().zip(&warm.variants) {
        for (rc, rw) in c.reports.iter().zip(&w.reports) {
            let (rc, rw) = (rc.as_verify().unwrap(), rw.as_verify().unwrap());
            assert_eq!(
                format!("{:?}", rc.verdict),
                format!("{:?}", rw.verdict),
                "{}: cold and warm verdicts match",
                c.variant
            );
        }
    }
    println!(
        "ok: verdicts identical cold vs warm; step-1 executions {} -> {} via the store",
        cold.summary_misses, warm.summary_misses
    );
}
