//! Fig. 4(a): IP-router verification time as the pipeline grows —
//! dataplane-specific vs generic, edge (10-entry FIB) vs core (large
//! FIB).
//!
//! Expected shape (paper): the dataplane-specific tool completes every
//! configuration (identical results for edge and core — lookup tables
//! are abstracted); the generic tool exceeds its budget as soon as two
//! IP-option iterations are allowed, and the moment the large lookup
//! table enters the pipeline.

use dataplane::Element;
use dpv_bench::*;
use elements::pipelines::{core_fib, edge_fib, to_pipeline, ROUTER_IP};
use verifier::{Property, Verifier};

/// The Fig. 4(a) growth sequence.
fn stages(label: &str, opts: u32, fib: Vec<(u32, u32, u32)>) -> (String, Vec<Element>) {
    let mut v: Vec<Element> = vec![
        elements::classifier::classifier(),
        elements::check_ip_header::check_ip_header(false),
        elements::ether::drop_broadcasts(),
    ];
    let name = match label {
        "preproc" => "preproc".to_string(),
        other => other.to_string(),
    };
    match label {
        "preproc" => {}
        "+DecTTL" => v.push(elements::dec_ttl::dec_ttl()),
        "+IPoption1" | "+IPoption2" | "+IPoption3" => {
            v.push(elements::dec_ttl::dec_ttl());
            v.push(elements::ip_options::ip_options(opts, Some(ROUTER_IP)));
        }
        "+IPlookup" => {
            v.push(elements::dec_ttl::dec_ttl());
            v.push(elements::ip_options::ip_options(opts, Some(ROUTER_IP)));
            v.push(elements::ip_lookup::ip_lookup(4, fib));
        }
        "+EthEncap" => {
            v.push(elements::dec_ttl::dec_ttl());
            v.push(elements::ip_options::ip_options(opts, Some(ROUTER_IP)));
            v.push(elements::ip_lookup::ip_lookup(4, fib));
            v.push(elements::ether::eth_rewrite(
                [2, 0, 0, 0, 0, 0xEE],
                [2, 0, 0, 0, 0, 1],
            ));
        }
        other => panic!("unknown stage {other}"),
    }
    (name, v)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let core_entries: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(100_000);

    println!("Fig. 4(a): IP router — verification time vs pipeline length");
    println!("(core FIB: {core_entries} entries; generic budget: {GENERIC_BUDGET} states)");
    println!();
    row(&[
        "pipeline".into(),
        "specific (edge=core)".into(),
        "verdict".into(),
        "generic edge".into(),
        "generic core".into(),
    ]);

    // The +IPlookup/+EthEncap rows allow one IP option so the generic
    // edge baseline survives to the lookup stage — making the
    // table-size effect (edge survives, core dies at +IPlookup)
    // visible exactly as in the paper's core-router curve.
    let seq = [
        ("preproc", 1),
        ("+DecTTL", 1),
        ("+IPoption1", 1),
        ("+IPoption2", 2),
        ("+IPoption3", 3),
        ("+IPlookup", 1),
        ("+EthEncap", 1),
    ];
    for (label, opts) in seq {
        // Dataplane-specific: crash-freedom with arbitrary config —
        // identical for edge and core (the FIB is abstracted).
        let (_, elems) = stages(label, opts, edge_fib());
        let p = to_pipeline(label, elems);
        let (report, t_spec) = timed(|| {
            Verifier::new(&p)
                .config(fig_verify_config())
                .check(Property::CrashFreedom)
        });
        maybe_json(&report);
        let rep = report.as_verify().expect("crash-freedom report");

        // Generic baseline, edge FIB.
        let (_, elems_e) = stages(label, opts, edge_fib());
        let pe = to_pipeline(label, elems_e);
        let ge = run_generic_baseline(&pe, 16);

        // Generic baseline, core FIB.
        let (_, elems_c) = stages(label, opts, core_fib(core_entries));
        let pc = to_pipeline(label, elems_c);
        let gc = run_generic_baseline(&pc, 16);

        row(&[
            label.into(),
            format!("{} ({} states)", fmt_dur(t_spec), rep.step1_states),
            verdict_cell(&rep.verdict).into(),
            generic_cell_run(&ge),
            generic_cell_run(&gc),
        ]);
    }
}
