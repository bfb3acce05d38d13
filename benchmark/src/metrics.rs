//! The benchmark's fixed vocabulary: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics. `BENCHMARK.json`
//! at the repo root is rendered from these tables (`describe`), and a
//! test keeps the two equal.

use crate::json::Json;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// `(name, why)`.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "paper-cold",
        "The paper's evaluation set (Fig. 4a/4b chains, Table 3 bugs, firewalled edge) on fresh verifiers: the only workload where step 1 dominates and Disproved verdicts are extracted.",
    ),
    (
        "prove-cdcl",
        "fixed-frag-prove: one long refutation proof decided almost entirely by bit-blasting and CDCL; step 1 is under 1 % of it.",
    ),
    (
        "prove-cores",
        "opt-frag-prove: the same step-2 search, but core subsumption and pruning decide most paths, so a solver gain that costs pruning shows.",
    ),
    (
        "fleet",
        "10 seeded FIB variants plus a buggy staging variant x 2 properties on 2 workers over an on-disk store: the parallel load, and the input for per-equivalence-class memoisation.",
    ),
    (
        "churn-tables",
        "Closed loop, one client: a stationary 1200-update table stream against a warm ChurnSession whose filtering verdict flips every 40 updates; per-update latency is the product metric.",
    ),
    (
        "churn-replay",
        "Table-blind FIB churn on a 100k-route core router: every verification layer should read no change, so delta application and re-keying do all the work.",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// `compare` also tolerates a worsening below this absolute
    /// amount (in `unit`), so a bound on a tiny number is not noise.
    pub floor: f64,
}

/// All end-to-end metrics are lower-is-better. The bounds are as wide
/// as the contract allows because, after calibration, ten runs of one
/// commit on the sizing host still spread 2–10 % (see README.md); a
/// bound under about three times the spread would reject noise.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        bound: 0.25,
        floor: 0.02,
    },
    EndToEnd {
        name: "op_tail_ms",
        unit: "ms",
        bound: 0.25,
        floor: 0.05,
    },
    EndToEnd {
        name: "op_mean_ms",
        unit: "ms",
        bound: 0.25,
        floor: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.20,
        floor: 4.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        floor: 0.002,
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Work counted by the program; must repeat exactly.
    Count,
    /// Measured time, rate or ratio of times.
    Measured,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn time(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::Measured,
    }
}

const fn count(name: &'static str) -> Layer {
    Layer {
        name,
        unit: "count",
        better: Better::Lower,
        kind: Kind::Count,
    }
}

/// A count that depends on which thread wins a race, so it need not
/// repeat.
const fn racy(name: &'static str) -> Layer {
    Layer {
        name,
        unit: "count",
        better: Better::Lower,
        kind: Kind::Measured,
    }
}

const fn higher(name: &'static str, unit: &'static str, kind: Kind) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
        kind,
    }
}

/// Per-layer metrics, named after the crate or module they measure.
/// A metric a workload has no use for reads 0 there.
pub const PER_LAYER: &[Layer] = &[
    // dpir: static passes over the workload's distinct stage programs.
    time("dpir.simplify_ms", "ms"),
    time("dpir.lint_ms", "ms"),
    time("dpir.fingerprint_us", "us"),
    count("dpir.instrs"),
    higher("dpir.blocks_removed", "count", Kind::Count),
    // symexec: `execute` per distinct stage program.
    time("symexec.execute_ms", "ms"),
    time("symexec.execute_tables_ms", "ms"),
    count("symexec.states"),
    count("symexec.segments"),
    count("symexec.fork_queries"),
    // verifier.summary: store, persist, rebase.
    time("verifier.summary.miss_ms", "ms"),
    time("verifier.summary.hit_ms", "ms"),
    time("verifier.summary.disk_write_ms", "ms"),
    time("verifier.summary.disk_load_ms", "ms"),
    count("verifier.summary.store_loads"),
    count("verifier.summary.store_writes"),
    count("verifier.summary.load_bytes"),
    count("verifier.summary.disk_bytes"),
    count("verifier.summary.write_errors"),
    // verifier: the two steps of one operation.
    time("verifier.step1_ms", "ms"),
    time("verifier.step2_ms", "ms"),
    time("verifier.step1_share", "ratio"),
    time("verifier.session.self_ms", "ms"),
    count("verifier.step2.composed_paths"),
    count("verifier.step2.suspects"),
    count("verifier.cores.learned"),
    higher("verifier.cores.hits", "count", Kind::Count),
    higher("verifier.cores.subtrees_pruned", "count", Kind::Count),
    higher("verifier.cores.hit_ratio", "ratio", Kind::Measured),
    // bvsolve: the layered solver under step 2, and probes on real
    // step-1 path constraints.
    count("bvsolve.queries"),
    higher("bvsolve.by_simplify", "count", Kind::Count),
    higher("bvsolve.by_interval", "count", Kind::Count),
    count("bvsolve.by_blast"),
    higher("bvsolve.blast_cache_hit_ratio", "ratio", Kind::Measured),
    count("bvsolve.learnt_reused"),
    count("bvsolve.compactions"),
    count("bvsolve.probe.queries"),
    time("bvsolve.probe.fresh_ms", "ms"),
    time("bvsolve.probe.session_ms", "ms"),
    time("bvsolve.probe.blast_ms", "ms"),
    time("bvsolve.migrate_ms", "ms"),
    // bitsat: CDCL work under step 2, and a seeded CNF probe.
    count("bitsat.sat_solve_calls"),
    count("bitsat.decisions"),
    count("bitsat.propagations"),
    time("bitsat.probe.solve_ms", "ms"),
    higher("bitsat.probe.props_per_s", "1/s", Kind::Measured),
    count("bitsat.probe.conflicts"),
    // dataplane: delta application and the concrete runner.
    time("dataplane.delta.apply_us", "us"),
    time("dataplane.runner.pkt_us", "us"),
    // verifier.churn: the update-stream engine.
    time("verifier.churn.step1_ms_mean", "ms"),
    time("verifier.churn.step2_ms_mean", "ms"),
    count("verifier.churn.stages_reexecuted"),
    count("verifier.churn.stages_rebased"),
    higher("verifier.churn.checks_replayed", "count", Kind::Count),
    time("verifier.churn.update_p99_ms", "ms"),
    time("verifier.churn.batch8_p50_ms", "ms"),
    time("verifier.churn.drift_ratio", "ratio"),
    time("verifier.churn.persist_ratio", "ratio"),
    time("verifier.churn.cold_verify_ms", "ms"),
    time("verifier.churn.restart_p50_ms", "ms"),
    // verifier.fleet: the parallel audit over the on-disk store.
    time("verifier.fleet.cold_audit_ms", "ms"),
    time("verifier.fleet.step1_cpu_ms", "ms"),
    time("verifier.fleet.step2_cpu_ms", "ms"),
    higher("verifier.fleet.worker_efficiency", "ratio", Kind::Measured),
    higher("verifier.fleet.summary_hits", "count", Kind::Count),
    count("verifier.fleet.summary_misses"),
    // Two workers that want one stage at once both load it, or both
    // execute it and both write the same file (one write may fail);
    // a worker that comes later finds it in memory.
    racy("verifier.fleet.store_loads"),
    racy("verifier.fleet.store_writes"),
    racy("verifier.fleet.write_errors"),
    // The benchmark's own instruments.
    time("trace.overhead_ratio", "ratio"),
    time("host.speed_factor", "ratio"),
    racy("determinism.unstable_counters"),
];

pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|l| l.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The command the driver runs from the root of a checkout.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn describe() -> Json {
    let better = |b: Better| {
        Json::str(match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        })
    };
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(Better::Lower)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|l| {
                        Json::obj([
                            ("name", Json::str(l.name)),
                            ("unit", Json::str(l.unit)),
                            ("better", better(l.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|l| l.name));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|l| unit_ok(l.unit)));
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!(setup.unit, "s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(COMMAND.len() <= 32 && describe().render().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_repo_root_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
        assert_eq!(Json::parse(&text).expect("valid JSON"), describe());
    }
}
