//! `fleet_ablation` — the summary-store ablation: verifying a fleet
//! of router config variants with the content-addressed step-1 store
//! shared (cold, then warm) vs disabled (the per-task baseline).
//!
//! The fleet is ≥ 8 variants of the same router element sequence
//! differing only in FIB contents — the deployment shape the store
//! targets: abstract-mode summaries (crash-freedom / bounded) are
//! table-blind, so the whole fleet shares one step-1 pass per
//! distinct element; a warm store shares even that across runs. The
//! same table-blindness makes the twenty checks two step-2
//! equivalence classes (one per property), so every arm runs two
//! searches and replays eighteen reports.
//!
//! Asserted invariants (the store's soundness contract):
//! * per-(variant, property) verdicts, counterexample bytes and
//!   composed-path counts identical across `nostore` / `cold` / `warm`;
//! * every arm finds 2 classes and replays the other 18 checks;
//! * `cold` hits the store (the two searches share every element),
//!   `warm` never misses;
//! * warm-store step-1 wall-clock beats cold by ≥ 1.3x.
//!
//! With `DPV_JSON=1` each mode emits a `{"bench":"fleet",...}`
//! summary line for the CI perf trajectory (`perf_diff` keys on
//! bench/pipeline/mode/engine and gates on `step2_ms`).
//!
//! With `DPV_STORE_PATH=<dir>` a fourth arm runs against the
//! *persistent* store at that directory and emits a `"mode":"disk"`
//! row (marked `"gate":false` — it only exists when the env var is
//! set, so it carries no perf_diff coverage contract). Running the
//! binary twice against one directory is the CI cross-process check:
//! the second run's disk arm must report `summary_hits > 0` with
//! `summary_misses == 0` and a smaller `step1_ms` than the first.

use dpv_bench::{fig_verify_config, fmt_dur, row};
use elements::pipelines::{ip_router, to_pipeline};
use std::time::Duration;
use verifier::fleet::{Fleet, FleetReport};
use verifier::{Property, SummaryStore, Verdict};

const VARIANTS: u32 = 10;
const FLEET_THREADS: usize = 4;

/// FIB for variant `i`: same shape, different contents — the
/// config-sweep case where only Tables-mode keys differ.
fn fib(i: u32) -> Vec<(u32, u32, u32)> {
    vec![
        (0x0A00_0000 | (i << 16), 16, i % 4),
        (0x0A00_0000, 8, 0),
        (0xC0A8_0000 | i, 32, (i + 1) % 4),
    ]
}

fn fleet() -> Fleet {
    let mut fleet = Fleet::new()
        .config(fig_verify_config())
        .threads(FLEET_THREADS);
    for i in 0..VARIANTS {
        fleet = fleet.variant(
            format!("fib-{i}"),
            to_pipeline("router", ip_router(6, 2, fib(i))),
        );
    }
    fleet.properties(&[Property::CrashFreedom, Property::Bounded { imax: 10_000 }])
}

fn assert_equivalent(a: &FleetReport, b: &FleetReport, what: &str) {
    assert_eq!(a.variants.len(), b.variants.len());
    for (va, vb) in a.variants.iter().zip(&b.variants) {
        for (ra, rb) in va.reports.iter().zip(&vb.reports) {
            let (ra, rb) = (
                ra.as_verify().expect("verify"),
                rb.as_verify().expect("verify"),
            );
            match (&ra.verdict, &rb.verdict) {
                (Verdict::Disproved(x), Verdict::Disproved(y)) => {
                    assert_eq!(x.bytes, y.bytes, "{what}/{}: cex bytes", va.variant);
                    assert_eq!(x.trace, y.trace, "{what}/{}: trace", va.variant);
                }
                (Verdict::Proved, Verdict::Proved) => {}
                (Verdict::Unknown(x), Verdict::Unknown(y)) => {
                    assert_eq!(x, y, "{what}/{}: unknown reason", va.variant);
                }
                (x, y) => panic!("{what}/{}: verdicts diverge: {x:?} vs {y:?}", va.variant),
            }
            assert_eq!(
                ra.composed_paths, rb.composed_paths,
                "{what}/{}: composed paths",
                va.variant
            );
        }
    }
}

fn emit_json(mode: &str, r: &FleetReport) {
    if std::env::var_os("DPV_JSON").is_none() {
        return;
    }
    println!("{}", r.to_json());
    // The disk arm only runs when DPV_STORE_PATH is set, so its row
    // must not enter the perf_diff coverage contract.
    let gate = if mode == "disk" {
        ",\"gate\":false"
    } else {
        ""
    };
    println!(
        "{{\"bench\":\"fleet\",\"pipeline\":\"router-fleet\",\"mode\":\"{mode}\",\
         \"engine\":\"par{FLEET_THREADS}\",\"variants\":{VARIANTS},\
         \"classes\":{},\"checks_replayed\":{},\
         \"summary_hits\":{},\"summary_misses\":{},\"store_size\":{},\
         \"store_loads\":{},\"store_writes\":{},\"load_bytes\":{},\
         \"step1_ms\":{:.3},\"step2_ms\":{:.3},\"total_ms\":{:.3}{gate}}}",
        r.classes,
        r.checks_replayed(),
        r.summary_hits,
        r.summary_misses,
        r.store_size,
        r.store_loads,
        r.store_writes,
        r.load_bytes,
        r.step1_time().as_secs_f64() * 1e3,
        r.step2_time().as_secs_f64() * 1e3,
        r.time.as_secs_f64() * 1e3,
    );
}

fn print_row(mode: &str, r: &FleetReport, warm_step1: Option<Duration>) {
    row(&[
        mode.into(),
        fmt_dur(r.time),
        fmt_dur(r.step1_time()),
        fmt_dur(r.step2_time()),
        r.classes.to_string(),
        format!("{}/{}", r.summary_hits, r.summary_misses),
        r.store_size.to_string(),
        match warm_step1 {
            Some(w) if w.as_secs_f64() > 0.0 => {
                format!("{:.2}x", r.step1_time().as_secs_f64() / w.as_secs_f64())
            }
            _ => "-".into(),
        },
    ]);
}

fn main() {
    println!(
        "Fleet ablation: {VARIANTS} router FIB variants x 2 properties, \
         {FLEET_THREADS} workers"
    );
    println!();
    row(&[
        "mode".into(),
        "wall".into(),
        "step 1".into(),
        "step 2".into(),
        "classes".into(),
        "hits/misses".into(),
        "stored".into(),
        "step1 vs warm".into(),
    ]);

    // Baseline: no sharing — every search re-executes step 1 for
    // itself.
    let nostore = fleet().share_store(false).run();

    // Cold shared store: each element is executed by whichever of the
    // two searches asks first and served to the other.
    let store = SummaryStore::shared();
    let cold = fleet().store(std::sync::Arc::clone(&store)).run();

    // Warm store: a second audit of the same fleet — zero executions.
    let warm = fleet().store(std::sync::Arc::clone(&store)).run();

    assert_equivalent(&nostore, &cold, "nostore vs cold");
    assert_equivalent(&nostore, &warm, "nostore vs warm");
    for (r, what) in [(&nostore, "nostore"), (&cold, "cold"), (&warm, "warm")] {
        assert_eq!(
            r.classes, 2,
            "{what}: FIB-only variants, one class per property"
        );
        assert_eq!(r.checks_replayed(), 2 * VARIANTS as usize - 2, "{what}");
    }
    assert!(cold.summary_hits > 0, "the two searches share elements");
    assert!(
        warm.summary_misses == 0,
        "warm run must be fully cached (got {} misses)",
        warm.summary_misses
    );
    assert!(warm.summary_hits > 0);

    let speedup = cold.step1_time().as_secs_f64() / warm.step1_time().as_secs_f64().max(1e-9);
    print_row("nostore", &nostore, Some(warm.step1_time()));
    print_row("cold", &cold, Some(warm.step1_time()));
    print_row("warm", &warm, None);
    emit_json("nostore", &nostore);
    emit_json("cold", &cold);
    emit_json("warm", &warm);

    println!();
    println!(
        "step-1: nostore {} | cold {} | warm {} ({speedup:.2}x cold/warm)",
        fmt_dur(nostore.step1_time()),
        fmt_dur(cold.step1_time()),
        fmt_dur(warm.step1_time()),
    );
    assert!(
        speedup >= 1.3,
        "warm store must cut step-1 wall-clock by >= 1.3x (got {speedup:.2}x)"
    );
    println!("verdicts, counterexample bytes, composed paths: identical across modes (asserted)");

    // Optional persistent arm: DPV_STORE_PATH=<dir> audits the same
    // fleet against an on-disk store, so two *invocations of this
    // binary* share step-1 work — the cross-process check CI runs.
    if let Some(dir) = std::env::var_os("DPV_STORE_PATH") {
        let disk = fleet()
            .with_store_path(&dir)
            .expect("DPV_STORE_PATH must be creatable")
            .run();
        assert_equivalent(&nostore, &disk, "nostore vs disk");
        assert!(
            disk.store_writes > 0 || disk.store_loads > 0,
            "the disk arm must touch the persistent store"
        );
        print_row("disk", &disk, Some(warm.step1_time()));
        emit_json("disk", &disk);
        println!(
            "disk store {}: step-1 {} | {} loads ({} bytes) | {} writes",
            std::path::Path::new(&dir).display(),
            fmt_dur(disk.step1_time()),
            disk.store_loads,
            disk.load_bytes,
            disk.store_writes,
        );
    }
}
