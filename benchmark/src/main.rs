//! The repo benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! dpv-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! dpv-benchmark run [--workload W] [--seed N] [--seconds S] [--repeat K] [--trace] [--smoke] [--out FILE]
//! dpv-benchmark compare A.json B.json
//! dpv-benchmark describe
//! ```
//!
//! The first form is what the benchmark driver calls: one workload,
//! one run, one JSON object on the last line of standard output.

mod calib;
mod compare;
mod inputs;
mod json;
mod metrics;
mod oracle;
mod probes;
mod rng;
mod runall;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Arguments of one run of one workload.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// `--flag value` pairs and bare `--flag`s, in any order.
pub struct Flags(Vec<String>);

impl Flags {
    pub fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    pub fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {flag}: {v:?}")),
        }
    }
}

/// The benchmark's directory: where cargo says the manifest is now,
/// else where it was when this binary was built.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// One metric of a finished run: name, unit, value.
type Value = (&'static str, &'static str, f64);

/// Runs one workload in this process.
fn measure(args: &RunArgs) -> Result<workloads::Ctx, String> {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let nth = RUNS.fetch_add(1, Ordering::Relaxed);
    let out_dir = bench_dir().join("out");
    let work_dir = out_dir.join(format!("work-{}-{nth}", std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let mut ctx = workloads::Ctx::new(
        args.seed,
        Duration::from_secs_f64(args.seconds),
        args.smoke,
        args.trace,
        work_dir.clone(),
    );
    let known = workloads::run(&args.workload, &mut ctx);
    let _ = std::fs::remove_dir_all(&work_dir);
    if !known {
        let names: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!(
            "unknown workload {:?}; one of {names:?}",
            args.workload
        ));
    }
    if let Some(t) = &ctx.tracer {
        let path = out_dir.join(format!("trace-{}.jsonl", args.workload));
        t.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(ctx)
}

/// Every end-to-end metric of an untraced run, every per-layer metric
/// of a traced one. Times are reported as on a host of nominal speed
/// (see `calib`): operations and set-ups by the factor around each,
/// per-layer times by the run's mean factor.
fn metric_values(ctx: &workloads::Ctx, trace: bool) -> Result<Vec<Value>, String> {
    if trace {
        let factor = ctx.calib.mean_factor();
        return Ok(metrics::PER_LAYER
            .iter()
            .map(|l| {
                let v = ctx.layer.get(l.name).copied().unwrap_or(0.0);
                let v = match l.unit {
                    _ if l.name == "host.speed_factor" => factor,
                    "ms" | "us" | "s" => v / factor,
                    "1/s" => v * factor,
                    _ => v,
                };
                (l.name, l.unit, v)
            })
            .collect());
    }
    if ctx.op_ms.is_empty() || ctx.setup_s.is_empty() {
        return Err("the workload completed no operation".into());
    }
    Ok(metrics::END_TO_END
        .iter()
        .map(|m| {
            let v = match m.name {
                "op_p50_ms" => stats::median(&ctx.op_ms),
                "op_tail_ms" => stats::tail(&ctx.op_ms),
                "op_mean_ms" => stats::mean(&ctx.op_ms),
                "peak_rss_mb" => ctx.peak_rss_mb,
                "setup_s" => stats::median(&ctx.setup_s),
                other => unreachable!("no measurement for {other}"),
            };
            (m.name, m.unit, v)
        })
        .collect())
}

/// The object the driver reads off the last line.
fn result_json(ctx: &workloads::Ctx, values: &[Value]) -> Json {
    Json::obj([
        ("correct", Json::Bool(ctx.oracle.failed == 0)),
        ("attempted", Json::Num(ctx.oracle.attempted.max(1) as f64)),
        ("failed", Json::Num(ctx.oracle.failed as f64)),
        (
            "metrics",
            Json::obj(values.iter().map(|&(name, unit, v)| {
                let metric = Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]);
                (name, metric)
            })),
        ),
    ])
}

/// Runs one workload and prints its metrics, ending with the result
/// line. Returns whether every verdict was the known one.
fn run_one(args: &RunArgs) -> Result<bool, String> {
    let ctx = measure(args)?;
    let values = metric_values(&ctx, args.trace)?;
    for miss in &ctx.oracle.misses {
        eprintln!("MISS {miss}");
    }
    println!(
        "workload {} seed {} trace {}: {} operations ({} traced), {} set-ups, {} of {} verdicts missed",
        args.workload,
        args.seed,
        u8::from(args.trace),
        ctx.op_ms.len() + ctx.traced_op_ms.len(),
        ctx.traced_op_ms.len(),
        ctx.setup_s.len(),
        ctx.oracle.failed,
        ctx.oracle.attempted,
    );
    println!(
        "host speed factor {:.4} (mean of {} calibration slices); times below are calibrated, \
         the raw median operation took {:.4} ms",
        ctx.calib.mean_factor(),
        ctx.calib.slices(),
        ctx.raw_op_p50_ms(),
    );
    for (name, unit, v) in &values {
        println!("  {name:<40} {v:>16.4} {unit}");
    }
    // What `run` copies into its result file beside the metrics.
    let info = Json::obj([
        ("operations", Json::Num(ctx.op_ms.len() as f64)),
        (
            "traced_operations",
            Json::Num(ctx.traced_op_ms.len() as f64),
        ),
        ("setups", Json::Num(ctx.setup_s.len() as f64)),
        (
            "nondeterministic_counters",
            Json::Arr(ctx.unstable.iter().map(Json::str).collect()),
        ),
    ]);
    println!("{}", Json::obj([("info", info)]).render());
    println!("{}", result_json(&ctx, &values).render());
    Ok(ctx.oracle.failed == 0)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = argv.first().map(String::as_str);
    match sub {
        Some("run") => runall::run(&Flags(argv[1..].to_vec())),
        Some("compare") => match &argv[1..] {
            [a, b] => compare::compare_files(a, b),
            _ => Err("usage: compare <a.json> <b.json>".into()),
        },
        Some("describe") => {
            println!("{}", metrics::describe().render());
            Ok(true)
        }
        _ => {
            let flags = Flags(argv);
            let workload = flags
                .value("--workload")
                .ok_or("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")?
                .to_string();
            run_one(&RunArgs {
                workload,
                seed: flags.parsed("--seed", 1)?,
                seconds: flags.parsed("--seconds", metrics::RUN_SECONDS as f64)?,
                trace: flags.parsed::<u8>("--trace", 0)? != 0,
                smoke: flags.has("--smoke"),
            })
        }
    }
}

/// 0: every verdict was the known one (or the comparison found nothing
/// worse); 1: one was not; 2: the benchmark itself could not run.
fn exit_code(outcome: &Result<bool, String>) -> i32 {
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(_) => 2,
    }
}

fn main() {
    let outcome = real_main();
    if let Err(e) = &outcome {
        eprintln!("dpv-benchmark: {e}");
    }
    std::process::exit(exit_code(&outcome));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> RunArgs {
        RunArgs {
            workload: workload.into(),
            seed: 1,
            seconds: 0.0,
            trace,
            smoke: true,
        }
    }

    fn names(result: &Json) -> Vec<String> {
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics");
        metrics.keys().cloned().collect()
    }

    #[test]
    fn a_run_reports_exactly_the_declared_metrics_and_its_result_parses_back() {
        for trace in [false, true] {
            let ctx = measure(&smoke("churn-replay", trace)).expect("runs");
            let values = metric_values(&ctx, trace).expect("has operations");
            let result = result_json(&ctx, &values);
            assert_eq!(Json::parse(&result.render()).expect("parses"), result);
            let keys: Vec<&str> = result
                .as_obj()
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let mut declared: Vec<String> = if trace {
                metrics::PER_LAYER
                    .iter()
                    .map(|l| l.name.to_string())
                    .collect()
            } else {
                metrics::END_TO_END
                    .iter()
                    .map(|m| m.name.to_string())
                    .collect()
            };
            declared.sort();
            assert_eq!(names(&result), declared);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            if trace {
                // The bypass workload: no layer of the verifier works.
                assert_eq!(ctx.layer["verifier.churn.stages_reexecuted"], 0.0);
                assert_eq!(ctx.layer["bitsat.sat_solve_calls"], 0.0);
                assert!(ctx.layer["verifier.churn.checks_replayed"] > 0.0);
            } else {
                assert!(values.iter().all(|&(_, _, v)| v > 0.0), "{values:?}");
            }
        }
    }

    #[test]
    fn a_missed_verdict_makes_the_run_incorrect_and_the_exit_code_non_zero() {
        let mut ctx = measure(&smoke("churn-replay", false)).expect("runs");
        let values = metric_values(&ctx, false).expect("has operations");
        assert_eq!(exit_code(&Ok(ctx.oracle.failed == 0)), 0);
        ctx.oracle
            .fail("table3-bug3", "verdict proved but expected Crashes".into());
        let result = result_json(&ctx, &values);
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(1.0));
        assert_eq!(exit_code(&Ok(ctx.oracle.failed == 0)), 1);
        assert_eq!(
            exit_code(&measure(&smoke("no-such-workload", false)).map(|_| true)),
            2
        );
    }
}
