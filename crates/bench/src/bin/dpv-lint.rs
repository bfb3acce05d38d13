//! `dpv-lint` — static diagnostics over the example and figure
//! pipelines.
//!
//! Lints every stage program of the repository's example corpus (the
//! figure routers plus the Table 2/3 elements, buggy variants
//! included) with [`verifier::Verifier::lint`] and prints each
//! diagnostic as
//!
//! ```text
//! <pipeline>/<element> <severity>[<code>] b<block>:<instr>: <message>
//! ```
//!
//! Findings are matched against a committed allowlist (default:
//! `crates/bench/LINT_ALLOW.txt`, override with the first CLI
//! argument). Each allowlist line is `<pipeline>/<element> <code>` —
//! the pipelines that *intentionally* ship bugs (the Click fragmenter
//! cursor bug, the Click NAT port-allocation bug) are listed there, so
//! the exit code stays meaningful: `0` means "no diagnostics beyond
//! the known-intentional ones", anything new fails CI.
//!
//! The environment (packet-length window) is the one a default
//! `Verifier` session lints and executes with, i.e. the same bounds the
//! verifier itself runs the examples with.

use dataplane::Pipeline;
use elements::ip_fragmenter::{ip_fragmenter, FragmenterVariant};
use elements::nat::{nat_click_buggy, nat_verified};
use elements::pipelines::{
    core_router, edge_router, network_gateway, to_pipeline, NAT_PUBLIC_IP, NAT_PUBLIC_PORT,
};
use std::collections::BTreeSet;
use verifier::Verifier;

/// The lint corpus: every pipeline the figures and tables exercise,
/// clean and intentionally-buggy alike.
fn corpus() -> Vec<Pipeline> {
    vec![
        to_pipeline("edge_router", edge_router(1)),
        to_pipeline("core_router", core_router(1, 32)),
        to_pipeline("network_gateway", network_gateway(2)),
        to_pipeline(
            "fragmenter_fixed",
            vec![ip_fragmenter(FragmenterVariant::Fixed, 576)],
        ),
        to_pipeline(
            "fragmenter_clickbug1",
            vec![ip_fragmenter(FragmenterVariant::ClickBug1, 576)],
        ),
        to_pipeline(
            "fragmenter_clickbug2",
            vec![ip_fragmenter(FragmenterVariant::ClickBug2, 576)],
        ),
        to_pipeline("nat_verified", vec![nat_verified(NAT_PUBLIC_IP, 1024)]),
        to_pipeline(
            "nat_click_buggy",
            vec![nat_click_buggy(NAT_PUBLIC_IP, NAT_PUBLIC_PORT, 1024)],
        ),
    ]
}

fn main() {
    let allow_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/LINT_ALLOW.txt").to_string());
    let allow: BTreeSet<(String, String)> = match std::fs::read_to_string(&allow_path) {
        Ok(s) => s
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let mut it = l.split_whitespace();
                Some((it.next()?.to_string(), it.next()?.to_string()))
            })
            .collect(),
        Err(e) => {
            eprintln!("dpv-lint: cannot read allowlist {allow_path}: {e}");
            std::process::exit(2);
        }
    };

    let mut total = 0usize;
    let mut unexpected = 0usize;
    let mut used: BTreeSet<(String, String)> = BTreeSet::new();
    for pipeline in corpus() {
        for (element, diagnostics) in Verifier::new(&pipeline).lint() {
            let loc = format!("{}/{element}", pipeline.name);
            for d in diagnostics {
                total += 1;
                let key = (loc.clone(), d.code.to_string());
                if allow.contains(&key) {
                    used.insert(key);
                    println!("{loc} {d} (allowlisted)");
                } else {
                    unexpected += 1;
                    println!("{loc} {d}");
                }
            }
        }
    }
    for (loc, code) in allow.difference(&used) {
        eprintln!("dpv-lint: stale allowlist entry: {loc} {code}");
    }

    if unexpected > 0 {
        eprintln!("dpv-lint: {unexpected} unexpected diagnostic(s) ({total} total)");
        std::process::exit(1);
    }
    eprintln!("dpv-lint: clean ({total} diagnostics, all allowlisted)");
}
