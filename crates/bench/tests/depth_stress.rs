//! Deep-pipeline stress tests: the full verification stack — step-1
//! symbolic execution, composition, bit-blasting, SAT solving, model
//! extraction and counterexample reporting — must complete inside a
//! **1 MiB** thread stack on pipelines whose composed terms are tens
//! of thousands of operator nodes deep. Before the term-DAG hot paths
//! were converted to explicit work stacks this overflowed (the fig4a
//! `+IPoption3` crash); these tests keep it that way.

use dpv_bench::gen::{gen_verify_config, stress_magic, stress_pipeline};
use verifier::{Property, Report, Verdict, Verifier, VerifyReport};

/// 1 MiB — deliberately far below the 8 MiB default main stack.
const STACK: usize = 1 << 20;

fn check_in_small_stack(
    name: &str,
    f: impl FnOnce() -> VerifyReport + Send + 'static,
) -> VerifyReport {
    std::thread::Builder::new()
        .name(name.to_string())
        .stack_size(STACK)
        .spawn(f)
        .expect("spawn stress thread")
        .join()
        .expect("stress thread must not overflow its 1 MiB stack")
}

fn run(seed: u64, stages: usize, rounds: usize, planted: bool) -> VerifyReport {
    let g = stress_pipeline(seed, stages, rounds, planted);
    assert_eq!(g.pipeline.len(), stages);
    check_in_small_stack(&format!("stress-{seed}"), move || {
        match Verifier::new(&g.pipeline)
            .config(gen_verify_config())
            .check(Property::CrashFreedom)
        {
            Report::Verify(r) => r,
            other => panic!("expected verify report, got {other:?}"),
        }
    })
}

/// 200 stages, proved: the final query is unsatisfiable but pulls the
/// full-depth accumulator through the blaster.
#[test]
fn proved_200_stages_in_1mib_stack() {
    let rep = run(7, 200, 16, false);
    assert_eq!(rep.verdict.label(), "proved", "suspects={}", rep.suspects);
    // The guard suspect forces composition through every stage.
    assert!(
        rep.composed_paths >= 200,
        "expected full-pipeline composition, composed {}",
        rep.composed_paths
    );
}

/// 200 stages, disproved: blast → solve → model extraction →
/// counterexample reporting at full depth, with the witness byte
/// pinned by the generator.
#[test]
fn disproved_200_stages_in_1mib_stack() {
    let seed = 11;
    let rep = run(seed, 200, 16, true);
    match &rep.verdict {
        Verdict::Disproved(cex) => {
            assert_eq!(
                cex.bytes.get(16).copied(),
                Some(stress_magic(seed)),
                "witness byte must be the planted magic"
            );
            assert!(!cex.description.is_empty());
            assert!(!cex.trace.is_empty());
            // Counterexample printing at full depth (report JSON
            // includes the hex packet and the violating trace).
            let json = rep.to_json();
            assert!(json.contains("disproved"));
        }
        other => panic!("expected Disproved, got {}", other.label()),
    }
}
