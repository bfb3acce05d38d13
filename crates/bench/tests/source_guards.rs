//! Source scans that keep a deleted dependency, engine or owner of
//! state deleted.

use std::path::{Path, PathBuf};

fn crates_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/")
        .to_path_buf()
}

/// The numbered lines of `text` above its unit tests, which sit in a
/// trailing `mod tests` (a `#[cfg(test)]` alone may also mark a
/// test-only counter in the middle of product code).
fn product_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .take_while(|l| !l.trim_end().ends_with("mod tests {"))
        .enumerate()
        .map(|(i, l)| (i + 1, l))
}

fn every_file(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            every_file(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut all = Vec::new();
    every_file(dir, &mut all);
    out.extend(
        all.into_iter()
            .filter(|p| p.extension().is_some_and(|e| e == "rs")),
    );
}

/// Every Rust file under `crates/*/src` and `examples/`.
fn src_and_example_files() -> Vec<PathBuf> {
    let crates = crates_dir();
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("crates/") {
        let src = entry.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let root = crates.parent().expect("repo root");
    rust_files(&root.join("examples"), &mut files);
    assert!(files.len() > 60, "scanned only {} files", files.len());
    files
}

/// `file:line: text` for every line of `files` that contains a needle.
fn lines_naming(files: Vec<PathBuf>, needles: &[String]) -> Vec<String> {
    let mut hits = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("source file");
        for (i, line) in text.lines().enumerate() {
            if needles.iter().any(|n| line.contains(n.as_str())) {
                hits.push(format!("{}:{}: {}", file.display(), i + 1, line.trim()));
            }
        }
    }
    hits
}

/// `bvsolve::BvSolver` (a fresh SAT instance per query) is the oracle
/// the solver suites and the repo benchmark compare
/// `bvsolve::SolveSession` against. Both verification steps ask their
/// questions of a session; a product crate that names the oracle
/// outside its `#[cfg(test)]` module has grown a second solver path.
#[test]
fn no_product_crate_names_the_oracle_solver() {
    let crates = crates_dir();
    let mut files = Vec::new();
    for name in ["symexec", "core", "dataplane", "elements", "dpir"] {
        rust_files(&crates.join(name).join("src"), &mut files);
    }
    assert!(files.len() > 20, "scanned only {} files", files.len());
    let mut hits = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("source file");
        for (i, line) in product_lines(&text) {
            if line.contains("BvSolver") {
                hits.push(format!("{}:{}: {}", file.display(), i, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "BvSolver named in product code:\n{}",
        hits.join("\n")
    );
}

/// A free-variable walk is a DFS with two fresh hash sets. Step 2 used
/// to run one per term per composition to find a segment's havocs, and
/// the solver session one per `Sat` answer to build its model; the
/// havocs are now a list on the stage summary and the model is read off
/// the blaster's live variables. `compose.rs` and `step2.rs` name
/// `free_vars` only in their test oracles, `bvsolve`'s `session.rs`
/// only inside the `debug_assert!` that holds the live model to it.
#[test]
fn step_two_walks_no_free_variables() {
    let crates = crates_dir();
    for file in ["core/src/compose.rs", "core/src/step2.rs"] {
        let text = std::fs::read_to_string(crates.join(file)).expect("source file");
        assert!(
            text.lines().count() > product_lines(&text).count(),
            "{file}: no `mod tests` found"
        );
        let hits: Vec<_> = product_lines(&text)
            .filter(|(_, l)| l.contains("free_vars"))
            .collect();
        assert!(hits.is_empty(), "{file} names free_vars: {hits:?}");
    }
    let text = std::fs::read_to_string(crates.join("bv/src/session.rs")).expect("source file");
    let product: Vec<_> = product_lines(&text).collect();
    let mut named = 0;
    for (at, (i, line)) in product.iter().enumerate() {
        if !line.contains("free_vars") {
            continue;
        }
        named += 1;
        // The statement the line belongs to opens at the last line
        // above it that follows a `;` or a brace.
        let opens = product[..at]
            .iter()
            .rposition(|(_, l)| matches!(l.trim_end().chars().last(), Some(';' | '{' | '}')))
            .map_or(0, |p| p + 1);
        assert!(
            product[opens].1.trim_start().starts_with("debug_assert!("),
            "bv/src/session.rs:{i}: free_vars outside a debug_assert!: {}",
            line.trim()
        );
    }
    assert_eq!(named, 1, "the live-model debug_assert! is gone or doubled");
}

/// Step 1 of one pipeline and step 2 of one check are single-threaded;
/// parallelism lives at one level, the behaviour classes of a `Fleet`,
/// whose worker pool is `fleet.rs`'s `run_indexed`. So no other product
/// line of `crates/core/src` spawns a thread, and the search path has
/// nothing to share one with: no atomic path counter, no core store
/// behind a mutex. The intra-check driver measured slower than the
/// sequential search at every thread count on every audit workload
/// (ROADMAP, "Sized"), and step 1's per-stage fan-out had no caller
/// that asked for more than one thread; this keeps both from growing
/// back.
#[test]
fn step_two_has_one_engine_and_no_threads() {
    let core = crates_dir().join("core/src");
    assert!(
        !core.join("parallel.rs").exists(),
        "crates/core/src/parallel.rs is back"
    );
    let mut files = Vec::new();
    rust_files(&core, &mut files);
    assert!(files.len() > 8, "scanned only {} files", files.len());
    let mut hits = Vec::new();
    for file in files {
        let name = file
            .file_name()
            .and_then(|n| n.to_str())
            .expect("file name");
        let text = std::fs::read_to_string(&file).expect("source file");
        let search_path = ["step2.rs", "session.rs", "cores.rs", "churn.rs"].contains(&name);
        for (i, line) in product_lines(&text) {
            let spawns = line.contains("thread::scope") || line.contains("thread::spawn");
            let shares = line.contains("AtomicUsize") || line.contains("Mutex<CoreStore>");
            if (spawns && name != "fleet.rs") || (shares && search_path) {
                hits.push(format!("{}:{}: {}", file.display(), i, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "threads or shared search state outside `run_indexed`:\n{}",
        hits.join("\n")
    );
}

/// The repo measures itself one way: `benchmark/` (`BENCHMARK.json`).
/// The ablation binaries with their committed baseline and `perf_diff`
/// gate, and the criterion-shim benches nothing read, are deleted;
/// what they asserted lives in `fleet_store.rs`, `churn.rs` and
/// `static_analysis.rs` beside this file. This keeps a second timing
/// system — its files, its manifest entries, its env var, its
/// `"bench"` summary rows — from growing back.
#[test]
fn there_is_one_measurement_system() {
    let crates = crates_dir();
    let bench = crates.join("bench");
    let root = crates.parent().expect("repo root");

    let mut bins = Vec::new();
    rust_files(&bench.join("src/bin"), &mut bins);
    assert!(bins.len() > 8, "scanned only {} bins", bins.len());
    for bin in &bins {
        let name = bin.file_name().and_then(|n| n.to_str()).expect("file name");
        assert!(
            !name.ends_with("_ablation.rs") && name != "perf_diff.rs",
            "crates/bench/src/bin/{name} is back"
        );
    }
    assert!(
        !bench.join("benches").exists(),
        "crates/bench/benches is back"
    );
    assert!(
        !root.join("BENCH_step2.json").exists(),
        "BENCH_step2.json is back"
    );

    let manifest = |path: &Path| std::fs::read_to_string(path).expect("manifest");
    assert!(
        !manifest(&bench.join("Cargo.toml")).contains("[[bench]]"),
        "crates/bench/Cargo.toml declares a bench target"
    );
    assert!(
        !manifest(&root.join("Cargo.toml")).contains("criterion"),
        "the root Cargo.toml names criterion"
    );

    // Built in pieces so that this file does not match itself; the
    // row opener both as a format string spells it and raw.
    let needles = [
        ["DPV_STORE", "_PATH"].concat(),
        ["{\\\"ben", "ch\\\":"].concat(),
        ["{\"ben", "ch\":"].concat(),
    ];
    let hits = lines_naming(src_and_example_files(), &needles);
    assert!(
        hits.is_empty(),
        "a store-path env var or a bench summary row is back:\n{}",
        hits.join("\n")
    );
}

/// The summary store has one shape: unbounded, shared by whoever holds
/// it, and consulted stage by stage in order. Its LRU caps and their
/// eviction counter, the fleet's no-sharing arm and the solver's
/// drop-one core minimization were settings no product caller set;
/// they are deleted, and this keeps their names out of the product
/// crates, the examples and the README.
#[test]
fn the_summary_store_has_one_shape() {
    let readme = crates_dir().parent().expect("repo root").join("README.md");
    // Built in pieces so that this file does not match itself.
    let needles = [
        ["persistent", "_bounded"].concat(),
        ["SummaryStore::", "bounded"].concat(),
        ["enforce", "_bounds"].concat(),
        ["evic", "tions"].concat(),
        ["share", "_store"].concat(),
        ["set_core_", "minimize_budget"].concat(),
    ];
    let mut files = src_and_example_files();
    files.push(readme);
    let hits = lines_naming(files, &needles);
    assert!(
        hits.is_empty(),
        "a deleted store bound, sharing switch or core-minimization knob is back:\n{}",
        hits.join("\n")
    );
}

/// `Verifier` and `ChurnSession` run on one engine
/// (`crates/core/src/engine.rs`): the term pool, each map mode's
/// summaries, solver session and core store, and the summary store
/// live there; step 1 is built and patched there, and every search
/// report is built there. `churn.rs` keeps only what a stream adds —
/// its memo, its counters and the stages a delta changed — and the
/// from-scratch reuse level it once drove beside the warm one is gone:
/// the oracle is a fresh `Verifier`.
#[test]
fn warm_state_has_one_owner() {
    let crates = crates_dir();
    let churn = crates.join("core/src/churn.rs");
    let text = std::fs::read_to_string(&churn).expect("source file");
    let mut hits = Vec::new();
    for (i, line) in product_lines(&text) {
        for needle in [
            "TermPool::new",
            "SolveSession",
            "summarize_pipeline_with_store",
            "run_step2",
            "VerifyReport {",
            "fn mode_idx",
        ] {
            if line.contains(needle) {
                hits.push(format!("{}:{}: {}", churn.display(), i, line.trim()));
            }
        }
    }

    // Built in pieces so that this file does not match itself.
    let gone = ["Full", "Reverify"].concat();
    let root = crates.parent().expect("repo root");
    let mut files = vec![root.join("README.md")];
    every_file(&crates, &mut files);
    every_file(&root.join("examples"), &mut files);
    assert!(files.len() > 100, "scanned only {} files", files.len());
    for file in files {
        let bytes = std::fs::read(&file).expect("readable file");
        for (i, line) in String::from_utf8_lossy(&bytes).lines().enumerate() {
            if line.contains(&gone) {
                hits.push(format!("{}:{}: {}", file.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "warm state outside the engine, or the from-scratch reuse level is back:\n{}",
        hits.join("\n")
    );
}

/// Step 1 executes exactly the program it is given. The static
/// simplifier's facts once told the executor which crash forks to skip
/// and step 2 which extra conjuncts to assume; measured on every audit
/// of the paper and proof workloads, the pass removed no block and
/// changed no verdict or composed path, so its switch, its report
/// counters, the facts on `Program` and the assumed-constraint channel
/// through `Segment` and `ComposedState` are deleted. `simplify`
/// survives only as a standalone pass. This keeps their names out of
/// the product crates, the examples and the README.
#[test]
fn step_one_trusts_only_the_program() {
    let readme = crates_dir().parent().expect("repo root").join("README.md");
    // Built in pieces so that this file does not match itself.
    let needles = [
        ["static", "_simplify"].concat(),
        ["Static", "Stats"].concat(),
        ["static", "_stats"].concat(),
        ["Fa", "cts"].concat(),
        ["safe", "_sites"].concat(),
        ["exit", "_len"].concat(),
        ["attach", "_assumed"].concat(),
        [".assu", "med"].concat(),
        ["assu", "med:"].concat(),
    ];
    let mut files = src_and_example_files();
    files.push(readme);
    let hits = lines_naming(files, &needles);
    assert!(
        hits.is_empty(),
        "a trusted static fact or the switch that fed it is back:\n{}",
        hits.join("\n")
    );
}

/// A counterexample is minimised on the step-2 session whose check
/// found it (`SolveSession::lex_min_model`), with assumptions on bits
/// that session already holds. The binary search on a fresh private
/// session it replaced, `canonical_model`, survives only as the oracle
/// in `step2.rs`'s tests. So no product line of `crates/core/src` names
/// that oracle or constructs a `SolveSession` anywhere but inside
/// `step2.rs`'s `new_session`, where every session the crate asks its
/// questions of is made.
#[test]
fn counterexamples_come_from_the_live_session() {
    let mut files = Vec::new();
    rust_files(&crates_dir().join("core/src"), &mut files);
    assert!(files.len() > 8, "scanned only {} files", files.len());
    // Built in pieces so that this file does not match itself.
    let needles = [
        ["canonical", "_model"].concat(),
        ["SolveSession", "::new"].concat(),
        ["SolveSession", "::with_conflict_budget"].concat(),
        ["SolveSession", "::default"].concat(),
    ];
    let opener = ["fn new", "_session("].concat();
    let (mut hits, mut made) = (Vec::new(), 0);
    for file in files {
        let text = std::fs::read_to_string(&file).expect("source file");
        let mut inside = false;
        for (i, line) in product_lines(&text) {
            inside |= line.contains(&opener);
            if needles.iter().any(|n| line.contains(n.as_str())) {
                if inside {
                    made += 1;
                } else {
                    hits.push(format!("{}:{}: {}", file.display(), i, line.trim()));
                }
            }
            inside &= line != "}";
        }
    }
    assert!(
        hits.is_empty(),
        "a session made outside `new_session`, or the oracle in product code:\n{}",
        hits.join("\n")
    );
    assert_eq!(made, 1, "`new_session` makes the one session");
}

/// Step 2 decides the three §4 properties, and one crate-private enum
/// in `step2.rs` resolves them from `Property`: a user-defined property
/// hook that nothing outside the crate's own tests implemented, the
/// second per-property enum that mirrored the first variant for
/// variant, and the CDCL solver's cancellation flag that nothing raised
/// are deleted. This keeps their names out of every crate's sources.
#[test]
fn step_two_has_one_property_type() {
    let crates = crates_dir();
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("crates/") {
        let src = entry.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 60, "scanned only {} files", files.len());
    // Built in pieces so that this file does not match itself.
    let needles = [
        ["Custom", "Property"].concat(),
        ["Prop", "Kind"].concat(),
        ["set_", "interrupt"].concat(),
    ];
    let hits = lines_naming(files, &needles);
    assert!(
        hits.is_empty(),
        "a second step-2 property type or the solver's cancellation hook is back:\n{}",
        hits.join("\n")
    );
}
