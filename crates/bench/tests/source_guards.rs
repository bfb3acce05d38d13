//! Source scans that keep a deleted dependency deleted.

use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `bvsolve::BvSolver` (a fresh SAT instance per query) is the oracle
/// the solver suites and the repo benchmark compare
/// `bvsolve::SolveSession` against. Both verification steps ask their
/// questions of a session; a product crate that names the oracle
/// outside its `#[cfg(test)]` module has grown a second solver path.
#[test]
fn no_product_crate_names_the_oracle_solver() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/");
    let mut files = Vec::new();
    for name in ["symexec", "core", "dataplane", "elements", "dpir"] {
        rust_files(&crates.join(name).join("src"), &mut files);
    }
    assert!(files.len() > 20, "scanned only {} files", files.len());
    let mut hits = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("source file");
        // Unit tests sit in a trailing `#[cfg(test)] mod tests`.
        let product = text.lines().take_while(|l| l.trim() != "#[cfg(test)]");
        for (i, line) in product.enumerate() {
            if line.contains("BvSolver") {
                hits.push(format!("{}:{}: {}", file.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "BvSolver named in product code:\n{}",
        hits.join("\n")
    );
}
