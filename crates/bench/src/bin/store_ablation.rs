//! `store_ablation` — the *persistent* summary-store ablation: the
//! fleet_ablation workload with the step-1 store on disk, so warmth
//! survives the process.
//!
//! Three arms, compared pairwise on every `(variant, property)`:
//!
//! * `nostore` — no sharing at all, run in this process (the
//!   fleet_ablation baseline);
//! * `cold-disk` — a **child process** populating an empty store
//!   directory (every write is paid here);
//! * `warm-disk` — a second child process over the same directory:
//!   zero symbolic executions, step 1 is decode + rebase only.
//!
//! The arms run in separate processes on purpose: the claim under
//! test is that warmth survives a restart, not that an `Arc` can be
//! cloned. Each child prints one canonical `EQ` line per
//! `(variant, property)` — verdict, counterexample bytes,
//! counterexample-trace fingerprint, composed-path count — and the
//! parent asserts the three line sets are identical, then enforces
//! the headline: warm-disk step 1 must beat `nostore` step 1 by
//! **≥ 10x**.
//!
//! With `DPV_JSON=1` each arm emits a `{"bench":"store",...}` summary
//! line for the CI perf trajectory (`perf_diff` keys on
//! bench/pipeline/mode/engine and gates on `step2_ms`).

use dpv_bench::{fig_verify_config, fmt_dur, row};
use elements::pipelines::{ip_router, to_pipeline};
use std::process::Command;
use verifier::fleet::{Fleet, FleetReport};
use verifier::Verdict;

const VARIANTS: u32 = 10;
const FLEET_THREADS: usize = 4;
/// Env var that marks a child arm and names the store directory.
const CHILD_ENV: &str = "DPV_STORE_ABLATION_CHILD";

/// FIB for variant `i` — the fleet_ablation config sweep: same
/// element shapes, different table contents.
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
    fleet.properties(&[
        verifier::Property::CrashFreedom,
        verifier::Property::Bounded { imax: 10_000 },
    ])
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One canonical, process-independent line per `(variant, property)`:
/// the full equality contract (verdict, counterexample bytes, trace
/// fingerprint, composed-path count) in comparable text form.
fn eq_lines(r: &FleetReport) -> Vec<String> {
    let mut out = Vec::new();
    for v in &r.variants {
        for rep in &v.reports {
            let rep = rep.as_verify().expect("fleet runs verify tasks");
            let verdict = match &rep.verdict {
                Verdict::Proved => "proved".to_string(),
                Verdict::Disproved(cex) => {
                    let bytes: String = cex.bytes.iter().map(|b| format!("{b:02x}")).collect();
                    let trace = fnv64(format!("{:?}", cex.trace).as_bytes());
                    format!("disproved bytes={bytes} trace={trace:016x}")
                }
                Verdict::Unknown(why) => format!("unknown {why:?}"),
            };
            out.push(format!(
                "EQ {}/{} {} paths={}",
                v.variant, rep.property, verdict, rep.composed_paths
            ));
        }
    }
    out.sort();
    out
}

/// Numbers one arm reports upward: `(step1_ms, step2_ms, total_ms,
/// classes, replayed, hits, misses, store_size, loads, writes,
/// load_bytes)`.
struct ArmRow {
    step1_ms: f64,
    step2_ms: f64,
    total_ms: f64,
    classes: usize,
    replayed: usize,
    hits: u64,
    misses: u64,
    store_size: usize,
    loads: u64,
    writes: u64,
    load_bytes: u64,
}

impl ArmRow {
    fn of(r: &FleetReport) -> ArmRow {
        ArmRow {
            step1_ms: r.step1_time().as_secs_f64() * 1e3,
            step2_ms: r.step2_time().as_secs_f64() * 1e3,
            total_ms: r.time.as_secs_f64() * 1e3,
            classes: r.classes,
            replayed: r.checks_replayed(),
            hits: r.summary_hits,
            misses: r.summary_misses,
            store_size: r.store_size,
            loads: r.store_loads,
            writes: r.store_writes,
            load_bytes: r.load_bytes,
        }
    }

    /// The machine line a child prints and the parent re-parses.
    fn to_line(&self) -> String {
        format!(
            "ROW step1_ms={:.3} step2_ms={:.3} total_ms={:.3} classes={} replayed={} \
             hits={} misses={} store_size={} loads={} writes={} load_bytes={}",
            self.step1_ms,
            self.step2_ms,
            self.total_ms,
            self.classes,
            self.replayed,
            self.hits,
            self.misses,
            self.store_size,
            self.loads,
            self.writes,
            self.load_bytes
        )
    }

    fn parse(line: &str) -> ArmRow {
        let field = |k: &str| -> f64 {
            let pat = format!("{k}=");
            let start = line.find(&pat).expect("ROW field present") + pat.len();
            let rest = &line[start..];
            let end = rest.find(' ').unwrap_or(rest.len());
            rest[..end].parse().expect("ROW field numeric")
        };
        ArmRow {
            step1_ms: field("step1_ms"),
            step2_ms: field("step2_ms"),
            total_ms: field("total_ms"),
            classes: field("classes") as usize,
            replayed: field("replayed") as usize,
            hits: field("hits") as u64,
            misses: field("misses") as u64,
            store_size: field("store_size") as usize,
            loads: field("loads") as u64,
            writes: field("writes") as u64,
            load_bytes: field("load_bytes") as u64,
        }
    }
}

/// Child arm: audit the fleet through the persistent store at the
/// directory in `CHILD_ENV`, print the equality lines and the
/// numbers, exit. Spawned twice by the parent — cold, then warm.
fn run_child(dir: &str) {
    let report = fleet()
        .with_store_path(dir)
        .expect("store dir must be creatable")
        .run();
    for line in eq_lines(&report) {
        println!("{line}");
    }
    println!("{}", ArmRow::of(&report).to_line());
}

/// Spawns this binary as one child arm and returns its parsed output.
fn spawn_arm(dir: &std::path::Path, what: &str) -> (Vec<String>, ArmRow) {
    let exe = std::env::current_exe().expect("current exe");
    let out = Command::new(exe)
        .env(CHILD_ENV, dir)
        .output()
        .expect("spawn child arm");
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
        panic!("{what} child arm failed: {}", out.status);
    }
    let stdout = String::from_utf8(out.stdout).expect("child output is utf-8");
    let mut eq: Vec<String> = stdout
        .lines()
        .filter(|l| l.starts_with("EQ "))
        .map(str::to_string)
        .collect();
    eq.sort();
    let row_line = stdout
        .lines()
        .find(|l| l.starts_with("ROW "))
        .unwrap_or_else(|| panic!("{what} child printed no ROW line:\n{stdout}"));
    (eq, ArmRow::parse(row_line))
}

fn emit_json(mode: &str, r: &ArmRow) {
    if std::env::var_os("DPV_JSON").is_none() {
        return;
    }
    println!(
        "{{\"bench\":\"store\",\"pipeline\":\"router-fleet\",\"mode\":\"{mode}\",\
         \"engine\":\"par{FLEET_THREADS}\",\"variants\":{VARIANTS},\
         \"classes\":{},\"checks_replayed\":{},\
         \"summary_hits\":{},\"summary_misses\":{},\"store_size\":{},\
         \"store_loads\":{},\"store_writes\":{},\"load_bytes\":{},\
         \"step1_ms\":{:.3},\"step2_ms\":{:.3},\"total_ms\":{:.3}}}",
        r.classes,
        r.replayed,
        r.hits,
        r.misses,
        r.store_size,
        r.loads,
        r.writes,
        r.load_bytes,
        r.step1_ms,
        r.step2_ms,
        r.total_ms,
    );
}

fn print_row(mode: &str, r: &ArmRow, nostore_step1: f64) {
    row(&[
        mode.into(),
        format!("{:.1} ms", r.total_ms),
        format!("{:.1} ms", r.step1_ms),
        format!("{:.1} ms", r.step2_ms),
        r.classes.to_string(),
        format!("{}/{}", r.hits, r.misses),
        format!("{}/{}", r.loads, r.writes),
        if r.step1_ms > 0.0 {
            format!("{:.1}x", nostore_step1 / r.step1_ms)
        } else {
            "-".into()
        },
    ]);
}

fn main() {
    if let Ok(dir) = std::env::var(CHILD_ENV) {
        run_child(&dir);
        return;
    }

    println!(
        "Persistent store ablation: {VARIANTS} router FIB variants x 2 properties, \
         {FLEET_THREADS} workers; cold/warm arms are separate processes"
    );
    println!();
    row(&[
        "mode".into(),
        "wall".into(),
        "step 1".into(),
        "step 2".into(),
        "classes".into(),
        "hits/misses".into(),
        "loads/writes".into(),
        "step1 vs nostore".into(),
    ]);

    let dir = std::env::temp_dir().join(format!("dpv-store-ablation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create store dir");

    // Baseline in this process: no sharing of any kind.
    let nostore_report = fleet().share_store(false).run();
    let nostore_eq = eq_lines(&nostore_report);
    let nostore = ArmRow::of(&nostore_report);

    let (cold_eq, cold) = spawn_arm(&dir, "cold-disk");
    let (warm_eq, warm) = spawn_arm(&dir, "warm-disk");
    let store_bytes: u64 = std::fs::read_dir(&dir)
        .expect("store dir readable")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(nostore_eq, cold_eq, "nostore vs cold-disk equality lines");
    assert_eq!(nostore_eq, warm_eq, "nostore vs warm-disk equality lines");
    for (r, what) in [
        (&nostore, "nostore"),
        (&cold, "cold-disk"),
        (&warm, "warm-disk"),
    ] {
        assert_eq!(
            r.classes, 2,
            "{what}: FIB-only variants, one class per property"
        );
        assert_eq!(r.replayed, 2 * VARIANTS as usize - 2, "{what}");
    }
    assert!(cold.writes > 0, "cold arm must populate the store");
    assert_eq!(
        warm.misses, 0,
        "warm cross-process run must never execute a stage"
    );
    assert!(warm.hits > 0 && warm.loads > 0, "warm arm loads from disk");

    print_row("nostore", &nostore, nostore.step1_ms);
    print_row("cold-disk", &cold, nostore.step1_ms);
    print_row("warm-disk", &warm, nostore.step1_ms);
    emit_json("nostore", &nostore);
    emit_json("cold-disk", &cold);
    emit_json("warm-disk", &warm);

    let speedup = nostore.step1_ms / warm.step1_ms.max(1e-9);
    println!();
    println!(
        "step-1: nostore {} | cold-disk {} | warm-disk {} ({speedup:.1}x nostore/warm, \
         store {} files / {} bytes)",
        fmt_dur(std::time::Duration::from_secs_f64(nostore.step1_ms / 1e3)),
        fmt_dur(std::time::Duration::from_secs_f64(cold.step1_ms / 1e3)),
        fmt_dur(std::time::Duration::from_secs_f64(warm.step1_ms / 1e3)),
        cold.store_size,
        store_bytes,
    );
    assert!(
        speedup >= 10.0,
        "cross-process warm store must cut step-1 by >= 10x (got {speedup:.2}x)"
    );
    println!(
        "verdicts, counterexample bytes, composed paths: identical across processes (asserted)"
    );
}
