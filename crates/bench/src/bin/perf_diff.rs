//! `perf_diff` — guards the committed step-2 perf trajectory.
//!
//! Usage: `perf_diff <baseline.json> <fresh.jsonl> [max_ratio]`
//!
//! Both files hold one JSON object per line; only the
//! `{"bench":...}` summary lines the ablation binaries emit under
//! `DPV_JSON=1` are considered. Records are keyed by
//! `(bench, pipeline, mode, engine)` and compared on `step2_ms`:
//! the run **fails** when a fresh record regresses by more than
//! `max_ratio` (default 2.0) over the committed baseline
//! (`BENCH_step2.json`) — after normalizing out the run's *hardware
//! factor* (the median fresh/baseline ratio, clamped to ≥ 1), so a
//! uniformly slower CI runner does not trip the gate while a
//! scenario-specific regression still does — or when a baseline
//! record is missing from the fresh output (a coverage regression).
//! Rows whose *baseline* is under an absolute 100 ms floor are
//! excluded up front: they neither vote in the hardware-factor median
//! nor fail the gate — sub-100 ms rows are dominated by scheduler
//! noise, not by the code under test, and letting them vote skews the
//! median on runners whose small-row overhead differs from their
//! large-row throughput. Fresh records without a baseline are
//! informational (new scenarios accrue a baseline when the file is
//! next regenerated).
//!
//! To refresh the baseline after an intentional perf change:
//!
//! ```text
//! DPV_JSON=1 cargo run --release -p dpv-bench --bin fleet_ablation        | grep '"bench"'  > BENCH_step2.json
//! DPV_JSON=1 cargo run --release -p dpv-bench --bin static_simplify_ablation | grep '"bench"' >> BENCH_step2.json
//! DPV_JSON=1 cargo run --release -p dpv-bench --bin fig4a                 | grep '"bench"' >> BENCH_step2.json
//! DPV_JSON=1 cargo run --release -p dpv-bench --bin churn_ablation        | grep '"bench"' >> BENCH_step2.json
//! DPV_JSON=1 cargo run --release -p dpv-bench --bin store_ablation        | grep '"bench"' >> BENCH_step2.json
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Extracts the string value of `"key":"..."` from a JSON line.
/// (The summary lines are flat, machine-generated and escape-free,
/// so a scan is exact here; this is not a general JSON parser.)
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_string())
}

/// Extracts the numeric value of `"key":<number>` from a JSON line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `(bench, pipeline, mode, engine)` → `step2_ms` for every summary
/// line in `path`.
fn load(path: &str) -> BTreeMap<String, f64> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("perf_diff: cannot read {path}: {e}"));
    parse(&text)
}

/// [`load`] on the file's text. Only the key fields and `step2_ms` are
/// read, so a row may carry `null` elsewhere (`churn`'s
/// `speedup_vs_full` on a pure-replay arm).
fn parse(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let Some(bench) = str_field(line, "bench") else {
            continue;
        };
        let (Some(pipeline), Some(mode)) = (str_field(line, "pipeline"), str_field(line, "mode"))
        else {
            continue;
        };
        let engine = str_field(line, "engine").unwrap_or_default();
        let Some(step2) = num_field(line, "step2_ms") else {
            continue;
        };
        out.insert(format!("{bench}/{pipeline}/{mode}/{engine}"), step2);
    }
    out
}

/// Sub-100 ms baseline rows are timer/scheduler noise on shared CI
/// runners; a ratio over them says nothing about the code, so they
/// are dropped before any ratio or median is computed.
const ABS_FLOOR_MS: f64 = 100.0;

/// Median of the per-record fresh/baseline ratios — the *hardware
/// factor*. The committed baseline was measured on one machine and CI
/// runs on another, so every record shifts by roughly the same
/// hardware constant; a code regression, by contrast, hits specific
/// scenarios. Judging each record against `max_ratio × max(median,
/// 1.0)` fails scenario-specific regressions without turning a
/// uniformly slower runner into a permanently red gate. (The flip
/// side — a regression that slows *every* scenario equally — is
/// indistinguishable from slower hardware by wall clock alone and is
/// not caught here; the ablations' own within-run assertions and
/// speedup columns cover that axis.)
fn hardware_factor(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    let mut sorted = ratios.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    sorted[sorted.len() / 2].max(1.0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 3 {
        eprintln!("usage: perf_diff <baseline.json> <fresh.jsonl> [max_ratio]");
        return ExitCode::FAILURE;
    }
    let max_ratio: f64 = args
        .get(3)
        .map(|s| s.parse().expect("max_ratio must be a number"))
        .unwrap_or(2.0);
    let baseline = load(&args[1]);
    let fresh = load(&args[2]);
    assert!(
        !baseline.is_empty(),
        "perf_diff: no bench summary records in baseline {}",
        args[1]
    );

    // Sub-floor baseline rows are dropped before any normalization:
    // they neither vote in the hardware-factor median nor gate.
    let ratios: Vec<f64> = baseline
        .iter()
        .filter_map(|(key, &base_ms)| {
            let fresh_ms = *fresh.get(key)?;
            (base_ms >= ABS_FLOOR_MS).then_some(fresh_ms / base_ms)
        })
        .collect();
    let hw = hardware_factor(&ratios);
    let threshold = max_ratio * hw;
    println!(
        "perf_diff: hardware factor {hw:.2}x (median over {} rows >= {ABS_FLOOR_MS} ms), per-record limit {threshold:.2}x",
        ratios.len()
    );

    let mut failures = 0usize;
    for (key, &base_ms) in &baseline {
        match fresh.get(key) {
            None => {
                println!("FAIL {key}: present in baseline, missing from fresh run");
                failures += 1;
            }
            Some(&fresh_ms) => {
                if base_ms < ABS_FLOOR_MS {
                    println!(
                        "floor {key}: baseline {base_ms:.1} ms under {ABS_FLOOR_MS} ms, not gated"
                    );
                    continue;
                }
                let ratio = fresh_ms / base_ms;
                let tag = if ratio > threshold {
                    failures += 1;
                    "FAIL"
                } else {
                    "ok  "
                };
                println!(
                    "{tag} {key}: baseline {base_ms:.1} ms, fresh {fresh_ms:.1} ms ({ratio:.2}x)"
                );
            }
        }
    }
    for key in fresh.keys() {
        if !baseline.contains_key(key) {
            println!("new  {key}: no baseline yet");
        }
    }
    if failures > 0 {
        eprintln!("perf_diff: {failures} record(s) regressed more than {threshold:.2}x");
        return ExitCode::FAILURE;
    }
    println!(
        "perf_diff: all {} records within {threshold:.2}x",
        baseline.len()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_with_a_null_ratio_still_load() {
        let rows = "{\"bench\":\"churn\",\"pipeline\":\"edge-router-churn\",\"mode\":\"incremental-session\",\
                    \"engine\":\"seq\",\"updates\":40,\"step1_ms\":0.000,\"step2_ms\":0.000,\
                    \"mean_update_ms\":0.000,\"speedup_vs_full\":null,\"checks_replayed\":80}\n\
                    {\"bench\":\"churn\",\"pipeline\":\"edge-router-churn\",\"mode\":\"full-reverify\",\
                    \"engine\":\"seq\",\"step2_ms\":219.5,\"speedup_vs_full\":1.00}\n";
        let got = parse(rows);
        assert_eq!(got.len(), 2, "{got:?}");
        assert_eq!(got["churn/edge-router-churn/incremental-session/seq"], 0.0);
        assert_eq!(got["churn/edge-router-churn/full-reverify/seq"], 219.5);
        assert_eq!(num_field(rows, "speedup_vs_full"), None);
    }
}
