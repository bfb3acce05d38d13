//! Ablation benches for the design choices called out in DESIGN.md §6:
//!
//! * `solver_layers` — how many queries each layer of the bvsolve stack
//!   discharges (simplify / intervals / bit-blast) on a representative
//!   verification run, and the cost of disabling the cheap layers.
//! * `map_models` — abstract map model vs forking map model on the same
//!   stateful element (Condition 2/3 in isolation).
//! * `loop_decomposition` — one-body summarization vs generic unrolling
//!   on the same loop element (Condition 1 in isolation).

use criterion::{criterion_group, criterion_main, Criterion};
use dpv_bench::{fig_sym_config, fig_verify_config, generic_sym_config};
use elements::micro::loop_micro;
use elements::pipelines::to_pipeline;
use verifier::{summarize_pipeline, MapMode, Property, Verifier, VerifyConfig};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);

    // Solver layering: run a verification and report layer hit rates
    // once (printed), then time the end-to-end query mix.
    {
        let p = to_pipeline(
            "gw",
            vec![
                elements::classifier::classifier(),
                elements::check_ip_header::check_ip_header(false),
                elements::nat::nat_verified(0xC6336401, 64),
            ],
        );
        let mut pool = bvsolve::TermPool::new();
        let mut solver = bvsolve::BvSolver::new();
        let sums = summarize_pipeline(&mut pool, &p, &fig_sym_config(), MapMode::Abstract)
            .expect("summaries");
        for st in &sums.stages {
            for seg in &st.segments {
                let _ = solver.check(&mut pool, &seg.constraint);
            }
        }
        let s = solver.stats();
        println!(
            "solver layers on gateway segment constraints: {} simplify, {} interval, {} blast / {} queries",
            s.by_simplify, s.by_interval, s.by_blast, s.queries
        );
        g.bench_function("solver_layers/gateway_segments", |b| {
            b.iter(|| {
                let mut solver = bvsolve::BvSolver::new();
                let mut pool2 = pool.clone();
                for st in &sums.stages {
                    for seg in &st.segments {
                        let _ = solver.check(&mut pool2, &seg.constraint);
                    }
                }
            })
        });
    }

    // Map models: abstract vs forking on the traffic monitor.
    {
        g.bench_function("map_models/abstract", |b| {
            b.iter(|| {
                let p = to_pipeline("mon", vec![elements::traffic_monitor::traffic_monitor(64)]);
                let mut pool = bvsolve::TermPool::new();
                summarize_pipeline(&mut pool, &p, &fig_sym_config(), MapMode::Abstract)
                    .expect("completes")
                    .total_states
            })
        });
        g.bench_function("map_models/forking", |b| {
            b.iter(|| {
                let p = to_pipeline("mon", vec![elements::traffic_monitor::traffic_monitor(64)]);
                // Budgeted: the forking model explodes by design.
                let mut sym = generic_sym_config();
                sym.max_states = 5_000;
                let report = Verifier::new(&p)
                    .config(VerifyConfig {
                        sym,
                        ..Default::default()
                    })
                    .check(Property::Generic { loop_cap: 4 });
                match report {
                    verifier::Report::Generic(g) => g.report.states,
                    _ => unreachable!(),
                }
            })
        });
    }

    // Loop decomposition: specific vs generic on 3 iterations.
    {
        g.bench_function("loop_decomposition/specific", |b| {
            b.iter(|| {
                let p = to_pipeline("loop", vec![loop_micro(3)]);
                Verifier::new(&p)
                    .config(fig_verify_config())
                    .check(Property::CrashFreedom)
                    .expect_verify()
            })
        });
        g.bench_function("loop_decomposition/generic_unroll", |b| {
            b.iter(|| {
                let p = to_pipeline("loop", vec![loop_micro(3)]);
                dpv_bench::run_generic_baseline(&p, 8)
            })
        });
    }

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
