//! Fleet × store arms: a fleet audit must not care where its step-1
//! summaries come from.
//!
//! The fleet is FIB-only variants of one router element sequence ×
//! {crash-freedom, bounded execution} — both table-blind, so the
//! checks are two step-2 equivalence classes whatever the variant
//! count. It is audited four ways:
//!
//! * `cold` / `warm` — one shared in-memory [`SummaryStore`], audited
//!   twice;
//! * `cold-disk` — an empty on-disk store directory;
//! * `restart` — a *fresh* [`Fleet`] (and store object) over that
//!   directory. Warmth across real processes stays with CI's
//!   "dpv-serve, twice" step and `crates/core/tests/persist.rs`.
//!
//! Every arm must hand every `(variant, property)` the verdict,
//! counterexample, `Unknown` reason and composed-path count of a
//! standalone [`Verifier`] on that variant and property alone — no
//! class, no shared store — and run two searches. The store's worth is asserted as the counts
//! that cause it, not as a stopwatch ratio: a warm store executes
//! nothing (`summary_misses == 0`), a restarted one only loads.
//!
//! `fleet_store_smoke` keeps debug tier-1 quick; `fleet_store_full`
//! is the 10-variant, 4-worker fleet and runs in release via
//! `cargo test --release -p dpv-bench -- --ignored`.

use dataplane::Pipeline;
use dpv_bench::{assert_identical_reports, fig_verify_config};
use elements::pipelines::{ip_router, to_pipeline};
use std::sync::Arc;
use verifier::fleet::{Fleet, FleetReport};
use verifier::{Property, SummaryStore, Verifier, VerifyReport};

/// FIB for variant `i`: same shape, different contents — the
/// config-sweep case where only Tables-mode keys differ.
fn fib(i: u32) -> Vec<(u32, u32, u32)> {
    vec![
        (0x0A00_0000 | (i << 16), 16, i % 4),
        (0x0A00_0000, 8, 0),
        (0xC0A8_0000 | i, 32, (i + 1) % 4),
    ]
}

struct Shape {
    variants: u32,
    option_iters: u32,
    threads: usize,
}

fn properties() -> [Property; 2] {
    [Property::CrashFreedom, Property::Bounded { imax: 10_000 }]
}

impl Shape {
    fn variants(&self) -> impl Iterator<Item = (String, Pipeline)> + '_ {
        (0..self.variants).map(|i| {
            (
                format!("fib-{i}"),
                to_pipeline("router", ip_router(6, self.option_iters, fib(i))),
            )
        })
    }

    fn fleet(&self) -> Fleet {
        let mut fleet = Fleet::new()
            .config(fig_verify_config())
            .threads(self.threads);
        for (name, pipeline) in self.variants() {
            fleet = fleet.variant(name, pipeline);
        }
        fleet.properties(&properties())
    }

    /// Per variant, per property: a fresh standalone session's report.
    fn reference(&self) -> Vec<Vec<VerifyReport>> {
        self.variants()
            .map(|(_, p)| {
                properties()
                    .into_iter()
                    .map(|prop| {
                        Verifier::new(&p)
                            .config(fig_verify_config())
                            .check(prop)
                            .expect_verify()
                    })
                    .collect()
            })
            .collect()
    }
}

/// A scratch store directory, removed on drop.
struct TmpDir(std::path::PathBuf);

impl TmpDir {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("dpv-fleet-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TmpDir(dir)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn assert_equivalent(reference: &[Vec<VerifyReport>], arm: &FleetReport, what: &str) {
    assert_eq!(reference.len(), arm.variants.len(), "{what}");
    for (rb, va) in reference.iter().zip(&arm.variants) {
        assert_eq!(rb.len(), va.reports.len(), "{what}/{}", va.variant);
        for (rb, ra) in rb.iter().zip(&va.reports) {
            let ra = ra.as_verify().expect("verify");
            assert_identical_reports(rb, ra, &format!("{what}/{} [{}]", va.variant, rb.property));
        }
    }
}

fn check_arms(name: &str, shape: Shape) {
    let reference = shape.reference();

    // Each element is executed by whichever of the two searches asks
    // first and served to the other; a second audit executes nothing.
    let store = SummaryStore::shared();
    let cold = shape.fleet().store(Arc::clone(&store)).run();
    let warm = shape.fleet().store(Arc::clone(&store)).run();

    let dir = TmpDir::new(name);
    let disk = |what: &str| {
        shape
            .fleet()
            .with_store_path(&dir.0)
            .unwrap_or_else(|e| panic!("{what}: store dir: {e}"))
            .run()
    };
    let cold_disk = disk("cold-disk");
    let restart = disk("restart");

    let checks = 2 * shape.variants as usize;
    for (arm, what) in [
        (&cold, "cold"),
        (&warm, "warm"),
        (&cold_disk, "cold-disk"),
        (&restart, "restart"),
    ] {
        assert_equivalent(&reference, arm, what);
        assert_eq!(
            arm.classes, 2,
            "{what}: FIB-only variants, one class per property"
        );
        assert_eq!(arm.checks_replayed(), checks - 2, "{what}");
    }

    assert!(cold.summary_hits > 0, "the two searches share elements");
    assert_eq!(warm.summary_misses, 0, "a warm store executes nothing");
    assert!(warm.summary_hits > 0, "a warm store serves the searches");
    assert!(cold_disk.store_writes > 0, "cold-disk populates the store");
    assert!(
        restart.store_loads > 0 && restart.load_bytes > 0,
        "a restarted fleet loads from disk ({} loads, {} bytes)",
        restart.store_loads,
        restart.load_bytes
    );
    assert_eq!(
        restart.summary_misses, 0,
        "a restarted fleet never executes a stage"
    );

    let stray: Vec<String> = std::fs::read_dir(&dir.0)
        .expect("store dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .filter(|f| !(f.starts_with("s-") && f.ends_with(".dpvs")))
        .collect();
    assert!(
        stray.is_empty(),
        "the store holds summary files only: {stray:?}"
    );
}

/// Debug-friendly: three variants, one option iteration, one worker.
#[test]
fn fleet_store_smoke() {
    check_arms(
        "smoke",
        Shape {
            variants: 3,
            option_iters: 1,
            threads: 1,
        },
    );
}

/// The 10-variant, 4-worker fleet (18 of 20 checks replayed). Run
/// explicitly in release:
/// `cargo test --release -p dpv-bench -- --ignored`.
#[test]
#[ignore = "paper-scale matrix; run in release via -- --ignored"]
fn fleet_store_full() {
    check_arms(
        "full",
        Shape {
            variants: 10,
            option_iters: 2,
            threads: 4,
        },
    );
}
