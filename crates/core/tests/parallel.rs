//! Determinism under parallelism: the parallel driver must produce the
//! *same* verdict as the sequential driver — same proof status, and on
//! disproofs the same counterexample packet, trace and description —
//! for every thread count and split depth.

use dataplane::{Element, Pipeline, Route, Stage};
use dpir::ProgramBuilder;
use elements::ip_fragmenter::{ip_fragmenter, FragmenterVariant};
use elements::pipelines::{network_gateway, to_pipeline, ROUTER_IP};
use symexec::SymConfig;
use verifier::{
    summarize_pipeline, summarize_pipeline_par, FilterProperty, MapMode, Property, Verdict,
    Verifier, VerifyConfig, VerifyReport,
};

fn cfg() -> VerifyConfig {
    VerifyConfig {
        sym: SymConfig {
            max_pkt_bytes: 48,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// One property on a fresh sequential session.
fn check_seq(p: &Pipeline, prop: Property) -> VerifyReport {
    Verifier::new(p).config(cfg()).check(prop).expect_verify()
}

/// One property on a fresh session pinned to `threads` workers and a
/// frontier split at `split_depth`.
fn check_par(p: &Pipeline, prop: Property, threads: usize, split_depth: usize) -> VerifyReport {
    Verifier::new(p)
        .config(cfg())
        .threads(threads)
        .split_depth(split_depth)
        .check(prop)
        .expect_verify()
}

/// The Fig. 1 toy pipeline of `tests/toy_pipeline.rs`: clamp then
/// assert — a discharged suspect, proof expected.
fn toy_pipeline() -> Pipeline {
    let mut b = ProgramBuilder::new("E1");
    let len = b.pkt_len();
    let empty = b.ult(16, len, 1u64);
    let (e, ok) = b.fork(empty);
    let _ = e;
    b.drop_();
    b.switch_to(ok);
    let v = b.pkt_load(8, 0u64);
    let small = b.ult(8, v, 10u64);
    let (clamp, pass) = b.fork(small);
    let _ = clamp;
    b.pkt_store(8, 0u64, 10u64);
    b.emit(0);
    b.switch_to(pass);
    b.emit(0);
    let clamp_elem = Element::straight("E1", b.build().expect("valid"));

    let mut b = ProgramBuilder::new("E2");
    let v = b.pkt_load(8, 0u64);
    let ok = b.ule(8, 10u64, v);
    b.assert_(ok, "in >= 10");
    b.emit(0);
    let assert_elem = Element::straight("E2", b.build().expect("valid"));

    Pipeline::new("fig1")
        .push_stage(Stage::passthrough(clamp_elem))
        .push_stage(Stage::passthrough(assert_elem).route(0, Route::Sink(0)))
}

/// The assert element alone: crash-freedom is disproved.
fn broken_pipeline() -> Pipeline {
    let mut b = ProgramBuilder::new("E2");
    let v = b.pkt_load(8, 0u64);
    let ok = b.ule(8, 10u64, v);
    b.assert_(ok, "in >= 10");
    b.emit(0);
    Pipeline::new("fig1-broken").push_stage(
        Stage::passthrough(Element::straight("E2", b.build().expect("valid")))
            .route(0, Route::Sink(0)),
    )
}

/// Asserts verdict equality, including counterexample equality.
fn assert_same_verdict(seq: &VerifyReport, par: &VerifyReport, what: &str) {
    match (&seq.verdict, &par.verdict) {
        (Verdict::Proved, Verdict::Proved) => {}
        (Verdict::Disproved(a), Verdict::Disproved(b)) => {
            assert_eq!(a.bytes, b.bytes, "{what}: counterexample packet differs");
            assert_eq!(a.trace, b.trace, "{what}: counterexample trace differs");
            assert_eq!(
                a.description, b.description,
                "{what}: counterexample description differs"
            );
        }
        (Verdict::Unknown(a), Verdict::Unknown(b)) => {
            assert_eq!(a, b, "{what}: unknown reason differs");
        }
        (a, b) => panic!("{what}: sequential {a:?} vs parallel {b:?}"),
    }
    assert_eq!(seq.step1_states, par.step1_states, "{what}: step-1 states");
    assert_eq!(
        seq.step1_segments, par.step1_segments,
        "{what}: step-1 segments"
    );
    assert_eq!(seq.suspects, par.suspects, "{what}: suspect count");
}

fn sweep(par_of: impl Fn(usize, usize) -> VerifyReport, seq: &VerifyReport, what: &str) {
    for (threads, split_depth) in [(1, 0), (1, 2), (2, 1), (8, 3)] {
        let par = par_of(threads, split_depth);
        assert_same_verdict(
            seq,
            &par,
            &format!("{what} (threads={threads}, split={split_depth})"),
        );
    }
}

#[test]
fn toy_pipeline_crash_freedom_matches() {
    let seq = check_seq(&toy_pipeline(), Property::CrashFreedom);
    assert!(matches!(seq.verdict, Verdict::Proved), "{seq}");
    sweep(
        |t, d| check_par(&toy_pipeline(), Property::CrashFreedom, t, d),
        &seq,
        "toy/crash-freedom",
    );
}

#[test]
fn disproof_counterexamples_match_exactly() {
    let seq = check_seq(&broken_pipeline(), Property::CrashFreedom);
    assert!(seq.verdict.is_disproved(), "{seq}");
    sweep(
        |t, d| check_par(&broken_pipeline(), Property::CrashFreedom, t, d),
        &seq,
        "broken/crash-freedom",
    );
}

#[test]
fn bounded_execution_bug_hunt_matches() {
    // Fragmenter bug #1 behind a small router front: a real disproof
    // with a loop element in the composition.
    let build = || {
        to_pipeline(
            "frag-bug1",
            vec![
                elements::classifier::classifier(),
                elements::check_ip_header::check_ip_header(false),
                elements::ip_options::ip_options(1, Some(ROUTER_IP)),
                ip_fragmenter(FragmenterVariant::ClickBug1, 40),
            ],
        )
    };
    let bounded = Property::Bounded { imax: 5_000 };
    let seq = check_seq(&build(), bounded.clone());
    assert!(seq.verdict.is_disproved(), "{seq}");
    sweep(
        |t, d| check_par(&build(), bounded.clone(), t, d),
        &seq,
        "frag-bug1/bounded",
    );

    // And the fixed variant proves.
    let fixed = || {
        to_pipeline(
            "frag-fixed",
            vec![
                elements::classifier::classifier(),
                elements::check_ip_header::check_ip_header(false),
                ip_fragmenter(FragmenterVariant::Fixed, 40),
            ],
        )
    };
    let seq = check_seq(&fixed(), bounded.clone());
    assert!(seq.verdict.is_proved(), "{seq}");
    // Proofs explore the full path space — sweep fewer configs.
    for (threads, split_depth) in [(2, 1), (8, 3)] {
        let par = check_par(&fixed(), bounded.clone(), threads, split_depth);
        assert_same_verdict(&seq, &par, "frag-fixed/bounded");
    }
}

#[test]
fn gateway_filtering_matches() {
    // Filtering leaves most input bytes unconstrained, so the concrete
    // counterexample packet is solver-model dependent and may differ
    // between the sequential and parallel pools (see the determinism
    // notes in `verifier::parallel`). Guaranteed and asserted here:
    // the proof status matches, the packet is identical across all
    // *parallel* runs (thread counts ≥ 2, any split depth), and every
    // reported packet actually triggers the violation when replayed
    // concretely. `threads == 1` runs the sequential engine itself
    // under the unified session dispatch, so its packet belongs to the
    // sequential class and is only replay-checked.
    let build = || to_pipeline("gateway", network_gateway(3));
    let prop = FilterProperty::src(0x0A00_002A);
    let seq = check_seq(&build(), Property::Filter(prop.clone()));

    let mut parallel_packets = Vec::new();
    for (threads, split_depth) in [(1, 1), (2, 2), (4, 1), (8, 3)] {
        let par = check_par(
            &build(),
            Property::Filter(prop.clone()),
            threads,
            split_depth,
        );
        assert_eq!(
            std::mem::discriminant(&seq.verdict),
            std::mem::discriminant(&par.verdict),
            "threads={threads} split={split_depth}: {seq} vs {par}"
        );
        if let Verdict::Disproved(cex) = &par.verdict {
            replay_filtering_violation(&prop, &cex.bytes);
            if threads > 1 {
                parallel_packets.push(cex.bytes.clone());
            } else if let Verdict::Disproved(seq_cex) = &seq.verdict {
                // threads == 1 *is* the sequential engine: its packet
                // must be byte-identical to the sequential session's.
                assert_eq!(
                    seq_cex.bytes, cex.bytes,
                    "threads=1 must reproduce the sequential packet"
                );
            }
        }
    }
    if let Verdict::Disproved(cex) = &seq.verdict {
        replay_filtering_violation(&prop, &cex.bytes);
    }
    parallel_packets.dedup();
    assert!(
        parallel_packets.len() <= 1,
        "parallel counterexample must not depend on thread count or split depth"
    );
}

/// Replays a filtering counterexample concretely: the packet must
/// match the property pattern and still be delivered.
fn replay_filtering_violation(prop: &FilterProperty, bytes: &[u8]) {
    let src = u32::from_be_bytes([bytes[26], bytes[27], bytes[28], bytes[29]]);
    assert_eq!(Some(src), prop.src_ip, "packet must match the property");
    let p = to_pipeline("replay", network_gateway(3));
    let stores = elements::pipelines::build_all_stores(&p);
    let mut r = dataplane::Runner::new(p, stores);
    let mut pkt = dpir::PacketData::new(bytes.to_vec());
    let out = r.run_packet(&mut pkt);
    assert!(
        matches!(out, dataplane::PipelineOutcome::Delivered(_)),
        "counterexample must actually be delivered, got {out:?}"
    );
}

#[test]
fn parallel_step1_reproduces_sequential_numbering() {
    let p = to_pipeline("gateway", network_gateway(3));
    let mut pool_seq = bvsolve::TermPool::new();
    let seq = summarize_pipeline(&mut pool_seq, &p, &cfg().sym, MapMode::Abstract).expect("ok");
    for threads in [1, 4] {
        let mut pool_par = bvsolve::TermPool::new();
        let par = summarize_pipeline_par(&mut pool_par, &p, &cfg().sym, MapMode::Abstract, threads)
            .expect("ok");
        // Identical variable numbering: names and widths agree 1:1, so
        // models and counterexamples are interchangeable.
        assert_eq!(pool_seq.num_vars(), pool_par.num_vars());
        for v in 0..pool_seq.num_vars() as u32 {
            assert_eq!(pool_seq.var_name(v), pool_par.var_name(v), "var {v} name");
            assert_eq!(
                pool_seq.var_width(v),
                pool_par.var_width(v),
                "var {v} width"
            );
        }
        assert_eq!(seq.total_states, par.total_states);
        assert_eq!(seq.stages.len(), par.stages.len());
        for (a, b) in seq.stages.iter().zip(par.stages.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.segments.len(), b.segments.len());
            assert_eq!(a.loop_iters, b.loop_iters);
            assert_eq!(a.input.pkt_byte_vars, b.input.pkt_byte_vars);
            assert_eq!(a.input.len_var, b.input.len_var);
            for (sa, sb) in a.segments.iter().zip(b.segments.iter()) {
                assert_eq!(sa.outcome, sb.outcome);
                assert_eq!(sa.instrs, sb.instrs);
                assert_eq!(sa.constraint.len(), sb.constraint.len());
            }
        }
    }
}

/// A property whose hook panics once the search is past the first
/// stage — i.e. inside a step-2 worker, not in the frontier split the
/// calling thread performs.
struct PanicsBelowTheSplit;

impl verifier::CustomProperty for PanicsBelowTheSplit {
    fn name(&self) -> String {
        "panics-below-the-split".into()
    }

    fn violation(
        &self,
        _pipeline: &Pipeline,
        stage: usize,
        _seg: &symexec::Segment,
        _state: &verifier::ComposedState,
    ) -> Option<String> {
        assert!(stage == 0, "hostile hook at stage {stage}");
        None
    }
}

#[test]
fn panicking_step2_worker_degrades_to_unknown_and_the_session_survives() {
    let p = to_pipeline("gateway", network_gateway(3));
    let mut v = Verifier::new(&p).config(cfg()).threads(4).split_depth(1);
    let hostile = v
        .check(Property::Custom(std::sync::Arc::new(PanicsBelowTheSplit)))
        .expect_verify();
    match &hostile.verdict {
        Verdict::Unknown(why) => assert!(
            why.starts_with("internal: step-2 worker panicked: hostile hook at stage"),
            "{why}"
        ),
        other => panic!("expected an internal Unknown, got {other:?}"),
    }
    // Nothing the workers shared is left poisoned: the same session
    // goes on to decide the next property like a fresh one.
    let after = v.check(Property::CrashFreedom).expect_verify();
    assert_same_verdict(
        &check_seq(&p, Property::CrashFreedom),
        &after,
        "after a panic",
    );
}
