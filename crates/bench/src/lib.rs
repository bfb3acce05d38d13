//! # dpv-bench — the evaluation harness
//!
//! One binary per table/figure of the NSDI'14 evaluation (run with
//! `cargo run --release -p dpv-bench --bin <name>`):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table2` | Table 2 — element inventory & techniques |
//! | `fig4a` | Fig. 4(a) — IP-router verification time vs pipeline length |
//! | `fig4b` | Fig. 4(b) — network-gateway verification time |
//! | `fig4c` | Fig. 4(c) — filter-pipeline states, generic vs specific |
//! | `fig4d` | Fig. 4(d) — loop microbenchmark |
//! | `table3` | Table 3 — bug-finding time and #paths composed |
//! | `longest_paths` | §5.3 — adversarial workload construction |
//! | `lsrr` | §5.3 — LSRR firewall bypass |
//!
//! `dpv-serve` and `dpv-lint` are the product binaries; `tests/` holds
//! the differential harnesses (modes, fleet × store arms, churn
//! streams, static analysis). Timings are the repo benchmark's
//! (`benchmark/`), not this crate's.

#![forbid(unsafe_code)]

pub mod gen;

use std::time::{Duration, Instant};
use symexec::SymConfig;
use verifier::VerifyConfig;

/// The state budget standing in for the paper's 12-hour wall.
pub const GENERIC_BUDGET: usize = 200_000;

/// Standard step-1 configuration for the figure binaries.
pub fn fig_sym_config() -> SymConfig {
    SymConfig {
        max_pkt_bytes: 48,
        ..Default::default()
    }
}

/// Standard verifier configuration for the figure binaries.
pub fn fig_verify_config() -> VerifyConfig {
    VerifyConfig {
        sym: fig_sym_config(),
        ..Default::default()
    }
}

/// Generic-baseline configuration: budgeted, cheap-layer fork checks
/// (a real general-purpose engine checks feasibility too; the cheap
/// layers keep our baseline honest about *state counts* rather than
/// solver throughput).
pub fn generic_sym_config() -> SymConfig {
    SymConfig {
        max_pkt_bytes: 48,
        max_states: GENERIC_BUDGET,
        exact_forks: false,
        ..Default::default()
    }
}

/// The named workloads `dpv-serve` can serve and `tests/churn.rs`
/// streams updates through: `(pipeline, properties)`.
pub fn named_workload(name: &str) -> Option<(dataplane::Pipeline, Vec<verifier::Property>)> {
    use elements::pipelines::{edge_fib, ip_router, to_pipeline, ROUTER_IP};
    use verifier::{FilterProperty, Property};
    match name {
        // Edge router + §5.2 firewall: both table kinds live, all
        // three paper properties.
        "firewalled-edge" => Some((
            to_pipeline(
                "firewalled-edge",
                vec![
                    elements::classifier::classifier(),
                    elements::check_ip_header::check_ip_header(false),
                    elements::ip_filter::ip_filter(vec![0x0BAD_0001, 0x0BAD_0010]),
                    elements::dec_ttl::dec_ttl(),
                    elements::ip_options::ip_options(1, Some(ROUTER_IP)),
                    elements::ip_lookup::ip_lookup(4, edge_fib()),
                ],
            ),
            vec![
                Property::CrashFreedom,
                Property::Bounded { imax: 5_000 },
                Property::Filter(FilterProperty::src(0x0BAD_0001)),
            ],
        )),
        // The stock edge router under Abstract-only properties: FIB
        // churn is table-blind here.
        "edge-router" => Some((
            to_pipeline("edge-router", ip_router(7, 1, edge_fib())),
            vec![Property::CrashFreedom, Property::Bounded { imax: 5_000 }],
        )),
        _ => None,
    }
}

/// Times a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Formats a duration like the paper's axes (seconds / minutes).
pub fn fmt_dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 1.0 {
        format!("{:.0} ms", s * 1e3)
    } else if s < 120.0 {
        format!("{s:.1} s")
    } else {
        format!("{:.1} min", s / 60.0)
    }
}

/// Renders a verdict cell.
pub fn verdict_cell(v: &verifier::Verdict) -> &'static str {
    match v {
        verifier::Verdict::Proved => "proved",
        verifier::Verdict::Disproved(_) => "DISPROVED",
        verifier::Verdict::Unknown(_) => "unknown",
    }
}

/// Panics unless two verdicts are the same answer: the same kind, and
/// for a counterexample the same packet bytes, description and
/// `(stage, segment)` trace; for an `Unknown` the same reason. `what`
/// names the comparison in the message.
#[track_caller]
pub fn assert_same_verdict(a: &verifier::Verdict, b: &verifier::Verdict, what: &str) {
    use verifier::Verdict;
    match (a, b) {
        (Verdict::Proved, Verdict::Proved) => {}
        (Verdict::Disproved(x), Verdict::Disproved(y)) => {
            assert_eq!(x.bytes, y.bytes, "{what}: counterexample bytes diverged");
            assert_eq!(x.description, y.description, "{what}: description diverged");
            assert_eq!(x.trace, y.trace, "{what}: trace diverged");
        }
        (Verdict::Unknown(x), Verdict::Unknown(y)) => {
            assert_eq!(x, y, "{what}: unknown reason diverged")
        }
        (x, y) => panic!("{what}: verdict diverged: {x:?} vs {y:?}"),
    }
}

/// The equality every differential harness in `tests/` holds two runs
/// of one check to: [`assert_same_verdict`] plus the composed-path
/// count.
#[track_caller]
pub fn assert_identical_reports(
    a: &verifier::VerifyReport,
    b: &verifier::VerifyReport,
    what: &str,
) {
    assert_same_verdict(&a.verdict, &b.verdict, what);
    assert_eq!(
        a.composed_paths, b.composed_paths,
        "{what}: composed_paths diverged"
    );
}

/// Runs the generic (§5.2 monolithic) baseline on `p` through a
/// session with the budgeted [`generic_sym_config`], emitting JSON
/// when `DPV_JSON` is set.
pub fn run_generic_baseline(p: &dataplane::Pipeline, loop_cap: u32) -> verifier::GenericRun {
    let report = verifier::Verifier::new(p)
        .config(verifier::VerifyConfig {
            sym: generic_sym_config(),
            ..Default::default()
        })
        .check(verifier::Property::Generic { loop_cap });
    maybe_json(&report);
    match report {
        verifier::Report::Generic(g) => g,
        other => unreachable!("generic property yields a generic report, got {other:?}"),
    }
}

/// Renders a [`verifier::GenericRun`] cell.
pub fn generic_cell_run(g: &verifier::GenericRun) -> String {
    generic_cell(&g.report, g.time)
}

/// Renders a generic-baseline outcome cell (the "12h+" analogue).
pub fn generic_cell(r: &verifier::GenericReport, t: Duration) -> String {
    match r.outcome {
        verifier::GenericOutcome::Completed => {
            format!("{} ({} states)", fmt_dur(t), r.states)
        }
        verifier::GenericOutcome::Exceeded => {
            format!("BUDGET⁺ (> {} states)", r.states)
        }
    }
}

/// Prints a markdown-ish table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints `report.to_json()` when `DPV_JSON` is set in the
/// environment — one JSON object per line, so CI can capture and diff
/// verdict / path-count / timing trajectories across runs.
pub fn maybe_json(report: &verifier::Report) {
    if std::env::var_os("DPV_JSON").is_some() {
        println!("{}", report.to_json());
    }
}
