//! `compare`: two result files of `run`, judged by the benchmark's own
//! bounds, one row per (metric, workload).

use crate::json::Json;
use crate::metrics::{self, Kind};
use crate::stats::{iqr_share, median};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, and B's runs do
    /// not all beat A's: the data cannot say.
    Unresolved,
}

/// Judges one lower-is-better metric from each side's runs.
pub fn judge(a: &[f64], b: &[f64], bound: f64, floor: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    if iqr_share(a).max(iqr_share(b)) > bound {
        return if max(b) < min(a) {
            Verdict::Within
        } else {
            Verdict::Unresolved
        };
    }
    if mb - ma > (bound * ma).max(floor) {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

fn lists<'a>(
    file: &'a Json,
    workload: &str,
    section: &str,
) -> Option<&'a std::collections::BTreeMap<String, Json>> {
    file.get("workloads")?.get(workload)?.get(section)?.as_obj()
}

fn values(j: &Json) -> Vec<f64> {
    j.as_arr()
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// One printed row.
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub verdict: Verdict,
    pub text: String,
}

/// Every end-to-end row, then one row per count metric that differs.
pub fn compare(a: &Json, b: &Json) -> Result<(Vec<Row>, Vec<String>), String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("first file has no workloads")?;
    let mut rows = Vec::new();
    let mut count_diffs = Vec::new();
    for workload in workloads.keys() {
        let (Some(ea), Some(eb)) = (
            lists(a, workload, "end_to_end"),
            lists(b, workload, "end_to_end"),
        ) else {
            return Err(format!("{workload}: missing from one file"));
        };
        for m in metrics::END_TO_END {
            let (va, vb) = (
                ea.get(m.name).map(values).unwrap_or_default(),
                eb.get(m.name).map(values).unwrap_or_default(),
            );
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}: no values for {}", m.name));
            }
            let verdict = judge(&va, &vb, m.bound, m.floor);
            let (ma, mb) = (median(&va), median(&vb));
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.to_string(),
                verdict,
                text: format!(
                    "{ma:>12.4} -> {mb:>12.4} {:<3} {:>+7.2} % (bound {:.0} %, spread {:.1} % / {:.1} %, n {} / {})",
                    m.unit,
                    (mb - ma) / ma * 100.0,
                    m.bound * 100.0,
                    iqr_share(&va) * 100.0,
                    iqr_share(&vb) * 100.0,
                    va.len(),
                    vb.len(),
                ),
            });
        }
        let (Some(la), Some(lb)) = (
            lists(a, workload, "per_layer"),
            lists(b, workload, "per_layer"),
        ) else {
            continue;
        };
        for l in metrics::PER_LAYER.iter().filter(|l| l.kind == Kind::Count) {
            let (va, vb) = (la.get(l.name).map(values), lb.get(l.name).map(values));
            if va != vb {
                count_diffs.push(format!("{workload} {}: {va:?} != {vb:?}", l.name));
            }
        }
    }
    Ok((rows, count_diffs))
}

pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |p: &str| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (ja, jb) = (load(a)?, load(b)?);
    for (side, j) in [("A", &ja), ("B", &jb)] {
        println!(
            "{side}: {}",
            j.get("header").map_or("no header".into(), Json::render)
        );
    }
    let (rows, count_diffs) = compare(&ja, &jb)?;
    for r in &rows {
        let tag = match r.verdict {
            Verdict::Within => "within",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        };
        println!("{tag:<10} {:<13} {:<12} {}", r.workload, r.metric, r.text);
    }
    for d in &count_diffs {
        println!("COUNT      {d}");
    }
    let tally = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} within, {} worse, {} unresolved, {} count metrics differ",
        tally(Verdict::Within),
        tally(Verdict::Worse),
        tally(Verdict::Unresolved),
        count_diffs.len()
    );
    Ok(tally(Verdict::Worse) == 0 && count_diffs.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_synthetic_runs() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.6];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let faster = [80.0, 81.0, 79.0, 80.5, 79.5];
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(judge(&steady, &same, 0.10, 0.0), Verdict::Within);
        assert_eq!(judge(&steady, &slower, 0.10, 0.0), Verdict::Worse);
        assert_eq!(judge(&steady, &faster, 0.10, 0.0), Verdict::Within);
        assert_eq!(judge(&steady, &noisy, 0.10, 0.0), Verdict::Unresolved);
        // Noisy, but every run of B beats every run of A.
        let far_better = [50.0, 65.0, 40.0, 60.0, 45.0];
        assert_eq!(judge(&noisy, &far_better, 0.10, 0.0), Verdict::Within);
        // A 20 % worsening that is under the absolute floor.
        assert_eq!(judge(&[0.010], &[0.012], 0.10, 0.005), Verdict::Within);
        assert_eq!(judge(&[0.010], &[0.012], 0.10, 0.0), Verdict::Worse);
    }

    fn file(op_p50: &[f64], paths: f64) -> Json {
        let e2e = Json::obj(metrics::END_TO_END.iter().map(|m| {
            (
                m.name,
                Json::nums(if m.name == "op_p50_ms" {
                    op_p50
                } else {
                    &[1.0, 1.0]
                }),
            )
        }));
        let layer = Json::obj([
            ("verifier.step2.composed_paths", Json::nums(&[paths, paths])),
            ("verifier.step2_ms", Json::nums(&[paths, 3.0])),
        ]);
        Json::obj([(
            "workloads",
            Json::obj([("w", Json::obj([("end_to_end", e2e), ("per_layer", layer)]))]),
        )])
    }

    #[test]
    fn files_compare_by_metric_and_counts_must_be_equal() {
        let (rows, diffs) = compare(&file(&[10.0, 10.0], 7.0), &file(&[10.1, 10.2], 7.0)).unwrap();
        assert_eq!(rows.len(), metrics::END_TO_END.len());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Within));
        assert!(diffs.is_empty());
        let (rows, diffs) = compare(&file(&[10.0, 10.0], 7.0), &file(&[13.0, 13.0], 8.0)).unwrap();
        let worse: Vec<&str> = rows
            .iter()
            .filter(|r| r.verdict == Verdict::Worse)
            .map(|r| r.metric.as_str())
            .collect();
        assert_eq!(worse, ["op_p50_ms"]);
        // The count differs; the time of the same layer may.
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("composed_paths"));
        assert!(compare(
            &file(&[1.0], 1.0),
            &Json::obj([("workloads", Json::obj::<String>([]))])
        )
        .is_err());
    }
}
