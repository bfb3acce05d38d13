//! Integration test: the evaluation's *shapes* asserted as invariants —
//! who blows up where (Fig. 4), independent of absolute timing.

use dpv::dataplane::Pipeline;
use dpv::elements::micro::{field_filter, loop_micro, FilterField};
use dpv::elements::pipelines::{edge_fib, to_pipeline, ROUTER_IP};
use dpv::symexec::SymConfig;
use dpv::verifier::{
    summarize_pipeline, GenericOutcome, GenericReport, MapMode, Property, Report, Verifier,
    VerifyConfig,
};

fn sym_cfg(max_states: usize) -> SymConfig {
    SymConfig {
        max_pkt_bytes: 48,
        max_states,
        exact_forks: false,
        ..Default::default()
    }
}

/// The §5.2 monolithic baseline on `p`.
fn generic_report(p: &Pipeline, sym: &SymConfig, loop_cap: u32) -> GenericReport {
    let cfg = VerifyConfig {
        sym: sym.clone(),
        ..Default::default()
    };
    match Verifier::new(p)
        .config(cfg)
        .check(Property::Generic { loop_cap })
    {
        Report::Generic(g) => g.report,
        other => panic!("expected a generic report, got {other:?}"),
    }
}

#[test]
fn fig4c_shape_specific_linear_generic_superlinear() {
    let mk = |n: usize| {
        to_pipeline(
            "filters",
            FilterField::ALL[..n]
                .iter()
                .enumerate()
                .map(|(i, &f)| field_filter(f, i as u64 + 1))
                .collect(),
        )
    };
    let mut spec = Vec::new();
    let mut gen = Vec::new();
    for n in 1..=4 {
        let mut pool = bvsolve::TermPool::new();
        let cfg = SymConfig {
            max_pkt_bytes: 48,
            ..Default::default()
        };
        let sums = summarize_pipeline(&mut pool, &mk(n), &cfg, MapMode::Abstract).expect("ok");
        spec.push(sums.total_states);
        gen.push(generic_report(&mk(n), &sym_cfg(1 << 20), 4).states);
    }
    // Specific grows at most linearly: each added element contributes a
    // constant number of its own states.
    let spec_growth = spec[3] as f64 / spec[1] as f64;
    assert!(spec_growth < 4.0, "specific growth {spec:?}");
    // Generic grows superlinearly once the port filters (symbolic
    // offsets) arrive.
    let gen_growth = gen[3] as f64 / gen[1] as f64;
    assert!(
        gen_growth > 20.0,
        "generic must blow up at the port filters: {gen:?}"
    );
}

#[test]
fn fig4d_shape_loop_decomposition_constant_vs_exponential() {
    let mut spec = Vec::new();
    let mut gen = Vec::new();
    for iters in 1..=4u32 {
        let mut pool = bvsolve::TermPool::new();
        let cfg = SymConfig {
            max_pkt_bytes: 48,
            ..Default::default()
        };
        let p = to_pipeline("loop", vec![loop_micro(iters)]);
        let sums = summarize_pipeline(&mut pool, &p, &cfg, MapMode::Abstract).expect("ok");
        spec.push(sums.total_states);
        let pg = to_pipeline("loop", vec![loop_micro(iters)]);
        gen.push(generic_report(&pg, &sym_cfg(1 << 20), 2 * iters + 2).states);
    }
    // One loop-body summary regardless of iteration count.
    assert_eq!(spec[0], spec[3], "step-1 states independent of t: {spec:?}");
    // Generic unrolls: strictly increasing, superlinear overall.
    assert!(gen.windows(2).all(|w| w[0] < w[1]), "{gen:?}");
    assert!(gen[3] as f64 / gen[0] as f64 > 8.0, "{gen:?}");
}

#[test]
fn fig4a_shape_large_fib_kills_generic_only() {
    let mk = |entries: usize| {
        to_pipeline(
            "lookup",
            vec![dpv::elements::ip_lookup::ip_lookup(
                4,
                if entries == 0 {
                    edge_fib()
                } else {
                    dpv::elements::pipelines::core_fib(entries)
                },
            )],
        )
    };
    // Specific: table abstracted — identical states for any size.
    let cfg = SymConfig {
        max_pkt_bytes: 48,
        ..Default::default()
    };
    let mut pool1 = bvsolve::TermPool::new();
    let s_small = summarize_pipeline(&mut pool1, &mk(0), &cfg, MapMode::Abstract)
        .expect("ok")
        .total_states;
    let mut pool2 = bvsolve::TermPool::new();
    let s_big = summarize_pipeline(&mut pool2, &mk(3_000), &cfg, MapMode::Abstract)
        .expect("ok")
        .total_states;
    assert_eq!(s_small, s_big);
    // Generic: forks per entry — a 3k-entry table exceeds a 1k budget.
    let g_small = generic_report(&mk(0), &sym_cfg(1_000), 4);
    let g_big = generic_report(&mk(3_000), &sym_cfg(1_000), 4);
    assert_eq!(g_small.outcome, GenericOutcome::Completed);
    assert_eq!(g_big.outcome, GenericOutcome::Exceeded);
}

#[test]
fn fig4b_shape_stateful_elements_kill_generic_only() {
    let stateless = to_pipeline(
        "pre",
        vec![
            dpv::elements::classifier::classifier(),
            dpv::elements::check_ip_header::check_ip_header(false),
        ],
    );
    let stateful = to_pipeline(
        "pre+mon",
        vec![
            dpv::elements::classifier::classifier(),
            dpv::elements::check_ip_header::check_ip_header(false),
            dpv::elements::traffic_monitor::traffic_monitor(64),
        ],
    );
    let budget = 10_000;
    assert_eq!(
        generic_report(&stateless, &sym_cfg(budget), 4).outcome,
        GenericOutcome::Completed
    );
    assert_eq!(
        generic_report(&stateful, &sym_cfg(budget), 4).outcome,
        GenericOutcome::Exceeded,
        "hash-slot walking must exceed the budget"
    );
    // Specific handles the stateful pipeline effortlessly.
    let mut pool = bvsolve::TermPool::new();
    let cfg = SymConfig {
        max_pkt_bytes: 48,
        ..Default::default()
    };
    let sums = summarize_pipeline(&mut pool, &stateful, &cfg, MapMode::Abstract).expect("ok");
    assert!(sums.total_states < 500);
}

#[test]
fn options_loop_iterations_do_not_grow_step1() {
    // Condition 1 payoff: IPoptions configured for 1 vs 3 options has
    // identical step-1 cost (one body summary either way).
    let cfg = SymConfig {
        max_pkt_bytes: 48,
        ..Default::default()
    };
    let mut states = Vec::new();
    for opts in [1u32, 3] {
        let p = to_pipeline(
            "opts",
            vec![dpv::elements::ip_options::ip_options(opts, Some(ROUTER_IP))],
        );
        let mut pool = bvsolve::TermPool::new();
        let sums = summarize_pipeline(&mut pool, &p, &cfg, MapMode::Abstract).expect("ok");
        states.push(sums.total_states);
    }
    assert_eq!(states[0], states[1]);
}
