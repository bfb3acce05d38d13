//! `run`: every workload, each run in a child process of its own (so
//! peak memory is the workload's and nothing carries over), untraced
//! and optionally traced, gathered into one result file.

use crate::json::Json;
use crate::metrics::{RUN_SECONDS, WORKLOADS};
use crate::{bench_dir, stats, Flags};
use std::collections::BTreeMap;
use std::process::Command;

/// What one child run printed.
struct Child {
    result: Json,
    info: Json,
}

fn spawn(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .and_then(|l| Json::parse(l).ok())
        .filter(|j| j.get("metrics").is_some())
        .ok_or_else(|| {
            format!(
                "{workload}: child printed no result (status {})",
                out.status
            )
        })?;
    let info = lines
        .filter_map(|l| Json::parse(l).ok())
        .find_map(|j| j.get("info").cloned())
        .unwrap_or(Json::Null);
    Ok(Child { result, info })
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(bench_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The header every result file carries.
fn header(seed: u64, seconds: f64, repeat: u64, smoke: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::str(tool_version("rustc", &["--version"]))),
        (
            "commit",
            Json::str(tool_version("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("repeat", Json::Num(repeat as f64)),
        ("smoke", Json::Bool(smoke)),
    ])
}

/// Per-metric value lists of one workload, one entry per repeat.
#[derive(Default)]
struct Gathered {
    attempted: f64,
    failed: f64,
    metrics: [BTreeMap<String, Vec<f64>>; 2],
    operations: Vec<f64>,
    unstable: Vec<Json>,
}

impl Gathered {
    fn add(&mut self, child: &Child, trace: bool) {
        let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        self.attempted += num(&child.result, "attempted");
        self.failed += num(&child.result, "failed");
        if let Some(m) = child.result.get("metrics").and_then(Json::as_obj) {
            for (name, v) in m {
                self.metrics[usize::from(trace)]
                    .entry(name.clone())
                    .or_default()
                    .push(num(v, "value"));
            }
        }
        if !trace {
            self.operations.push(num(&child.info, "operations"));
        }
        if let Some(list) = child
            .info
            .get("nondeterministic_counters")
            .and_then(Json::as_arr)
        {
            // "name: [values seen]" per run; the file lists each name once.
            for name in list.iter().filter_map(|c| c.as_str()?.split(':').next()) {
                let name = Json::str(name);
                if !self.unstable.contains(&name) {
                    self.unstable.push(name);
                }
            }
        }
    }

    fn to_json(&self) -> Json {
        let lists = |m: &BTreeMap<String, Vec<f64>>| {
            Json::obj(m.iter().map(|(k, v)| (k.clone(), Json::nums(v))))
        };
        Json::obj([
            ("attempted", Json::Num(self.attempted)),
            ("failed", Json::Num(self.failed)),
            ("operations", Json::nums(&self.operations)),
            ("end_to_end", lists(&self.metrics[0])),
            ("per_layer", lists(&self.metrics[1])),
            (
                "nondeterministic_counters",
                Json::Arr(self.unstable.clone()),
            ),
        ])
    }
}

pub fn run(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.parsed("--seed", 1)?;
    let seconds: f64 = flags.parsed("--seconds", RUN_SECONDS as f64)?;
    let repeat: u64 = flags.parsed("--repeat", 1)?;
    let (trace, smoke) = (flags.has("--trace"), flags.has("--smoke"));
    let only = flags.value("--workload");
    if let Some(w) = only {
        if !WORKLOADS.iter().any(|(name, _)| *name == w) {
            return Err(format!("unknown workload {w:?}"));
        }
    }
    let out_dir = bench_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let out_path = flags
        .value("--out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| out_dir.join(format!("result-seed{seed}.json")));

    let mut all = BTreeMap::new();
    let mut ok = true;
    for (name, _) in WORKLOADS
        .iter()
        .filter(|(n, _)| only.is_none_or(|w| w == *n))
    {
        let mut g = Gathered::default();
        // Repeat `k` uses seed + k, so two result files made with the
        // same arguments hold the same inputs run for run.
        for k in 0..repeat {
            for traced in [false, true] {
                if traced && !trace {
                    continue;
                }
                g.add(&spawn(name, seed + k, seconds, traced, smoke)?, traced);
            }
        }
        ok &= g.failed == 0.0;
        println!("{name}: {} of {} verdicts missed", g.failed, g.attempted);
        for (trace_idx, m) in g.metrics.iter().enumerate() {
            for (metric, values) in m {
                let unit = if trace_idx == 0 {
                    crate::metrics::end_to_end(metric).map_or("", |m| m.unit)
                } else {
                    crate::metrics::layer(metric).map_or("", |l| l.unit)
                };
                println!(
                    "  {metric:<40} {:>16.4} {unit:<6} spread {:.1} % over {} runs",
                    stats::median(values),
                    stats::iqr_share(values) * 100.0,
                    values.len()
                );
            }
        }
        if !g.unstable.is_empty() {
            println!(
                "  nondeterministic_counters: {}",
                Json::Arr(g.unstable.clone()).render()
            );
        }
        all.insert(name.to_string(), g.to_json());
    }
    let file = Json::obj([
        ("header", header(seed, seconds, repeat, smoke)),
        ("workloads", Json::Obj(all)),
    ]);
    std::fs::write(&out_path, file.render() + "\n")
        .map_err(|e| format!("{}: {e}", out_path.display()))?;
    println!("result file: {}", out_path.display());
    Ok(ok)
}
