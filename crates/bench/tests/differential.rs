//! Differential testing of the verifier across every mode toggle.
//!
//! One generated pipeline ([`dpv_bench::gen`]) is checked under three
//! configurations — the `seq` baseline, the unpruned reference search
//! (`Verifier::reference_without_core_pruning`) and a shared summary
//! store — and the reports must agree:
//!
//! * verdict labels are identical in every mode (and match whether the
//!   generator planted a violation);
//! * counterexample **bytes**, description and violating trace are
//!   byte-identical in every mode;
//! * `composed_paths` is identical in every mode.
//!
//! Each pipeline is also checked under crash-freedom and a bound on
//! one walk ([`Verifier::check_all`]) and each property alone on a
//! fresh `Verifier`: the two must agree report for report in all of
//! the above.
//!
//! Consecutive seeds are then audited together as a three-variant
//! [`Fleet`] — a pipeline, its clone, and the next seed's pipeline —
//! under crash-freedom and two bounds, which share one walk: it must
//! find exactly two step-2 equivalence classes and hand every variant,
//! for each property, the report of a standalone session.
//!
//! `differential_smoke` keeps debug-mode tier-1 fast by shrinking the
//! pipelines; `differential_full` is the paper-scale matrix (20 seeds,
//! 50+ stages) and is `#[ignore]`d so CI runs it explicitly in release
//! (`cargo test --release -p dpv-bench -- --ignored`).

use dpv_bench::assert_identical_reports;
use dpv_bench::gen::{deep_pipeline_with, gen_verify_config, GenConfig, Generated};
use verifier::{Fleet, Property, Report, SummaryStore, Verifier, VerifyConfig, VerifyReport};

struct Mode {
    name: &'static str,
    pruning: bool,
    store: bool,
}

const MODES: [Mode; 3] = [
    Mode {
        name: "seq",
        pruning: true,
        store: false,
    },
    Mode {
        name: "reference-no-pruning",
        pruning: false,
        store: false,
    },
    Mode {
        name: "store",
        pruning: true,
        store: true,
    },
];

fn run_mode(g: &Generated, m: &Mode) -> VerifyReport {
    // Exhaustive on purpose (no `..`): a new `VerifyConfig` toggle does
    // not compile here until it is given a differential mode.
    let VerifyConfig {
        sym,
        max_composed_paths,
        solver_conflict_budget,
    } = gen_verify_config();
    let cfg = VerifyConfig {
        sym,
        max_composed_paths,
        solver_conflict_budget,
    };
    let mut v = Verifier::new(&g.pipeline).config(cfg);
    if !m.pruning {
        v = v.reference_without_core_pruning();
    }
    if m.store {
        v = v.with_store(SummaryStore::shared());
    }
    match v.check(Property::CrashFreedom) {
        Report::Verify(r) => r,
        other => panic!("expected a verify report, got {other:?}"),
    }
}

/// Instruction bounds per stage of the shared-walk leg: near the
/// generated paths' own length, so that some pipelines overrun the
/// tighter bound — and its walk stops early while crash-freedom's goes
/// on — and fewer overrun the looser one.
const IMAX_PER_STAGE: [u64; 2] = [8, 10];

/// Crash-freedom and the bounds of [`IMAX_PER_STAGE`] for `g`: the
/// properties of one walk.
fn shared_properties(g: &Generated) -> Vec<Property> {
    let stages = g.pipeline.stages.len() as u64;
    let mut properties = vec![Property::CrashFreedom];
    properties.extend(IMAX_PER_STAGE.map(|k| Property::Bounded { imax: k * stages }));
    properties
}

/// Crash-freedom and two bounds on one walk (one `check_all` on one
/// `Verifier`) against each property on a fresh `Verifier` of its own.
/// Returns the bounds' verdict labels.
fn check_shared(g: &Generated, seed: u64) -> Vec<&'static str> {
    let properties = shared_properties(g);
    let shared = Verifier::new(&g.pipeline)
        .config(gen_verify_config())
        .check_all(&properties);
    let mut labels = Vec::new();
    for (property, report) in properties.iter().zip(&shared) {
        let report = report.as_verify().expect("verify");
        let separate = Verifier::new(&g.pipeline)
            .config(gen_verify_config())
            .check(property.clone());
        let what = format!("seed {seed} {property:?}: shared walk vs its own");
        assert_identical_reports(report, separate.as_verify().expect("verify"), &what);
        labels.push(report.verdict.label());
    }
    labels.split_off(1)
}

/// Checks one generated pipeline under every mode and on a shared walk
/// (adding the bounds' verdict labels to `bounds`); returns it with its
/// `seq` baseline for the fleet leg.
fn check_seed(
    seed: u64,
    cfg: GenConfig,
    bounds: &mut Vec<&'static str>,
) -> (Generated, VerifyReport) {
    let g = deep_pipeline_with(seed, cfg);
    bounds.extend(check_shared(&g, seed));
    let expected = if g.planted { "disproved" } else { "proved" };
    let baseline = run_mode(&g, &MODES[0]);
    assert_eq!(
        baseline.verdict.label(),
        expected,
        "seed {seed}: baseline verdict"
    );
    for m in &MODES[1..] {
        let what = format!("seed {seed} mode {}", m.name);
        assert_identical_reports(&run_mode(&g, m), &baseline, &what);
    }
    (g, baseline)
}

/// The fleet leg: `[a, a.clone(), b]` under `a`'s shared-walk
/// properties is two equivalence classes, one walk each — the clone
/// replays `a`'s, `b` runs its own — and every variant's reports equal
/// those of a standalone session per property (crash-freedom's is the
/// `seq` baseline). Returns the searched bounds' verdict labels.
fn check_fleet(a: &(Generated, VerifyReport), b: &(Generated, VerifyReport)) -> Vec<&'static str> {
    let properties = shared_properties(&a.0);
    let report = Fleet::new()
        .config(gen_verify_config())
        .variant("a", a.0.pipeline.clone())
        .variant("a-clone", a.0.pipeline.clone())
        .variant("b", b.0.pipeline.clone())
        .properties(&properties)
        .run();
    assert_eq!(report.classes, 2, "{}", a.0.pipeline.name);
    let mut labels = Vec::new();
    for ((v, (g, baseline)), replayed) in report
        .variants
        .iter()
        .zip([a, a, b])
        .zip([false, true, false])
    {
        let what = format!("fleet over {}: variant {}", a.0.pipeline.name, v.variant);
        assert_eq!(v.replayed, [replayed; 3], "{what}");
        let crash = v.reports[0].as_verify().expect("verify");
        assert_identical_reports(crash, baseline, &what);
        for (property, report) in properties.iter().zip(&v.reports).skip(1) {
            let standalone = Verifier::new(&g.pipeline)
                .config(gen_verify_config())
                .check(property.clone());
            let report = report.as_verify().expect("verify");
            let what = format!("{what} {property:?}");
            assert_identical_reports(report, standalone.as_verify().expect("verify"), &what);
            if !replayed {
                labels.push(report.verdict.label());
            }
        }
    }
    labels
}

/// Debug-friendly matrix: four seeds (proved and disproved mixes) at
/// reduced stage count, so plain `cargo test` stays quick.
#[test]
fn differential_smoke() {
    let mut bounds = Vec::new();
    let checked: Vec<_> = [0u64, 1, 2, 3]
        .into_iter()
        .map(|seed| {
            let mut cfg = GenConfig::from_seed(seed);
            cfg.stages = 20;
            cfg.rounds = 2;
            check_seed(seed, cfg, &mut bounds)
        })
        .collect();
    let mut fleet_bounds = Vec::new();
    for pair in checked.windows(2) {
        fleet_bounds.extend(check_fleet(&pair[0], &pair[1]));
    }
    assert_mixed(&bounds);
    assert_mixed(&fleet_bounds);
}

/// The shared-walk legs must see bounds both overrun and kept.
fn assert_mixed(bounds: &[&str]) {
    for label in ["proved", "disproved"] {
        assert!(bounds.contains(&label), "no bound {label}: {bounds:?}");
    }
}

/// The paper-scale matrix: 20 generated pipelines of 50+ stages, all
/// three modes and the shared walk each. Run explicitly in release:
/// `cargo test --release -p dpv-bench -- --ignored`.
#[test]
#[ignore = "paper-scale matrix; run in release via -- --ignored"]
fn differential_full() {
    let mut proved = 0usize;
    let mut disproved = 0usize;
    let mut checked = Vec::new();
    let mut bounds = Vec::new();
    for seed in 0u64..20 {
        let mut cfg = GenConfig::from_seed(seed);
        // Bound the stage count: solver cost on proved pipelines grows
        // superlinearly with depth, and the matrix checks each seed
        // many times over.
        cfg.stages = 50 + (seed as usize * 7) % 11;
        cfg.rounds = 2;
        if cfg.plant_violation {
            disproved += 1;
        } else {
            proved += 1;
        }
        checked.push(check_seed(seed, cfg, &mut bounds));
    }
    let mut fleet_bounds = Vec::new();
    for pair in checked.windows(2) {
        fleet_bounds.extend(check_fleet(&pair[0], &pair[1]));
    }
    // The matrix must exercise both outcomes.
    assert!(proved >= 5, "want a healthy proved mix, got {proved}");
    assert!(
        disproved >= 5,
        "want a healthy disproved mix, got {disproved}"
    );
    assert_mixed(&bounds);
    assert_mixed(&fleet_bounds);
}
