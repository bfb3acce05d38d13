//! Every input the workloads verify: the paper pipelines, the seeded
//! fleet FIBs, the two config-update streams and the SAT probe's CNFs.
//! All of it is a pure function of the seed.

use crate::rng::SplitMix64;
use bitsat::{Cnf, Lit};
use dataplane::{Element, Pipeline, TableConfig, TableDelta, TableOp};
use elements::ip_fragmenter::{ip_fragmenter, FragmenterVariant};
use elements::pipelines::{
    core_fib, edge_fib, ip_router, network_gateway, to_pipeline, NAT_PUBLIC_IP, NAT_PUBLIC_PORT,
    ROUTER_IP,
};
use symexec::SymConfig;
use verifier::{FilterProperty, Property, VerifyConfig};

/// The source address the filtering property watches.
pub const WATCHED_SRC: u32 = 0x0BAD_0001;
/// Instruction bound of the paper audits.
pub const IMAX: u64 = 5_000;
/// Instruction bound of the fleet audit.
pub const FLEET_IMAX: u64 = 10_000;

/// The product configuration: defaults plus the 48-byte symbolic
/// packet window every figure of the evaluation uses. No toggle is
/// named, so deleting one (ROADMAP item 2) does not touch this file.
pub fn cfg() -> VerifyConfig {
    VerifyConfig {
        sym: SymConfig {
            max_pkt_bytes: 48,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// One pipeline with the properties audited on it. `name` keys the
/// expected-verdict table in [`crate::oracle`].
pub struct Audit {
    pub name: &'static str,
    pub pipeline: Pipeline,
    pub props: Vec<Property>,
}

fn audit(name: &'static str, elems: Vec<Element>, props: Vec<Property>) -> Audit {
    Audit {
        name,
        pipeline: to_pipeline(name, elems),
        props,
    }
}

fn preproc() -> Vec<Element> {
    vec![
        elements::classifier::classifier(),
        elements::check_ip_header::check_ip_header(false),
    ]
}

fn bounded() -> Property {
    Property::Bounded { imax: IMAX }
}

/// Fig. 4(a): the edge-router chain grown stage by stage, with the
/// figure's option-iteration counts.
fn fig4a() -> Vec<Audit> {
    let chain = |n: usize, opts: u32| {
        let mut v = preproc();
        v.push(elements::ether::drop_broadcasts());
        v.push(elements::dec_ttl::dec_ttl());
        v.push(elements::ip_options::ip_options(opts, Some(ROUTER_IP)));
        v.push(elements::ip_lookup::ip_lookup(4, edge_fib()));
        v.push(elements::ether::eth_rewrite(
            [2, 0, 0, 0, 0, 0xEE],
            [2, 0, 0, 0, 0, 1],
        ));
        v.truncate(n);
        v
    };
    [
        ("fig4a-preproc", 3, 1),
        ("fig4a-decttl", 4, 1),
        ("fig4a-ipoption1", 5, 1),
        ("fig4a-ipoption2", 5, 2),
        ("fig4a-ipoption3", 5, 3),
        ("fig4a-iplookup", 6, 1),
        ("fig4a-ethencap", 7, 1),
    ]
    .into_iter()
    .map(|(name, n, opts)| audit(name, chain(n, opts), vec![Property::CrashFreedom]))
    .collect()
}

/// Fig. 4(b): the gateway chain, crash-freedom plus the §3.4
/// private-state analysis.
fn fig4b() -> Vec<Audit> {
    [
        ("fig4b-preproc", 2),
        ("fig4b-monitor", 3),
        ("fig4b-nat", 4),
        ("fig4b-ethencap", 5),
    ]
    .into_iter()
    .map(|(name, n)| {
        audit(
            name,
            network_gateway(n),
            vec![Property::CrashFreedom, Property::StateConsistency],
        )
    })
    .collect()
}

/// Table 3: the three Click bugs, bug #2 both masked and exposed.
fn table3() -> Vec<Audit> {
    let frag = |options: bool, variant| {
        let mut v = preproc();
        if options {
            v.push(elements::ip_options::ip_options(1, Some(ROUTER_IP)));
        }
        v.push(ip_fragmenter(variant, 40));
        v
    };
    let mut nat = preproc();
    nat.push(elements::nat::nat_click_buggy(
        NAT_PUBLIC_IP,
        NAT_PUBLIC_PORT,
        64,
    ));
    vec![
        audit(
            "table3-bug1",
            frag(true, FragmenterVariant::ClickBug1),
            vec![bounded()],
        ),
        audit(
            "table3-bug2-masked",
            frag(true, FragmenterVariant::ClickBug2),
            vec![bounded()],
        ),
        audit(
            "table3-bug2-exposed",
            frag(false, FragmenterVariant::ClickBug2),
            vec![bounded()],
        ),
        audit("table3-bug3", nat, vec![Property::CrashFreedom]),
    ]
}

/// The firewalled edge router and its three properties; filtering is
/// the only Tables-mode property in the benchmark.
pub fn firewalled_edge() -> Audit {
    audit(
        "firewalled-edge",
        vec![
            elements::classifier::classifier(),
            elements::check_ip_header::check_ip_header(false),
            elements::ip_filter::ip_filter(vec![WATCHED_SRC, 0x0BAD_0010]),
            elements::dec_ttl::dec_ttl(),
            elements::ip_options::ip_options(1, Some(ROUTER_IP)),
            elements::ip_lookup::ip_lookup(4, edge_fib()),
        ],
        vec![
            Property::CrashFreedom,
            bounded(),
            Property::Filter(FilterProperty::src(WATCHED_SRC)),
        ],
    )
}

/// The 16 audits of `paper-cold`.
pub fn paper_set() -> Vec<Audit> {
    let mut set = fig4a();
    set.extend(fig4b());
    set.extend(table3());
    set.push(firewalled_edge());
    set
}

/// `prove-cdcl`: every suspect of the fixed fragmenter refuted by the
/// CDCL solver.
pub fn fixed_frag_prove() -> Audit {
    let mut v = preproc();
    v.push(ip_fragmenter(FragmenterVariant::Fixed, 40));
    audit(
        "fixed-frag-prove",
        v,
        vec![Property::CrashFreedom, bounded()],
    )
}

/// `prove-cores`: the options loop in front of the fragmenter, where
/// core subsumption decides most paths.
pub fn opt_frag_prove() -> Audit {
    let mut v = preproc();
    v.push(elements::ip_options::ip_options(3, Some(ROUTER_IP)));
    v.push(ip_fragmenter(FragmenterVariant::Fixed, 24));
    audit("opt-frag-prove", v, vec![Property::CrashFreedom, bounded()])
}

/// Number of FIB variants in the fleet (the staging variant is extra).
pub const FLEET_FIBS: usize = 10;

/// One seeded 3-route FIB per fleet variant: same shape, different
/// contents.
pub fn fleet_fibs(seed: u64) -> Vec<Vec<(u32, u32, u32)>> {
    let mut r = SplitMix64::new(seed ^ 0xF1EE_7F1B);
    (0..FLEET_FIBS)
        .map(|_| {
            let a = r.below(256) as u32;
            let b = r.below(256) as u32;
            vec![
                (0x0A00_0000 | (a << 16), 16, r.below(4) as u32),
                (0x0A00_0000, 8, 0),
                (0xC0A8_0000 | (b << 8) | a, 32, r.below(4) as u32),
            ]
        })
        .collect()
}

/// The fleet: `FLEET_FIBS` FIB variants of one router plus a staging
/// variant that carries Click bug #3 (the NAT's hairpin assertion).
/// Bug #1 would fit the bounded-execution property better, but its
/// endless loop leaves crash-freedom `Unknown` (the fuel-exhausted
/// segment blocks the proof), and a workload's verdicts must all be
/// decided.
pub fn fleet_variants(seed: u64) -> Vec<(String, Pipeline)> {
    let mut out: Vec<(String, Pipeline)> = fleet_fibs(seed)
        .into_iter()
        .enumerate()
        .map(|(i, fib)| {
            (
                format!("fib-{i}"),
                to_pipeline("router", ip_router(6, 2, fib)),
            )
        })
        .collect();
    let mut staging = preproc();
    staging.push(elements::nat::nat_click_buggy(
        NAT_PUBLIC_IP,
        NAT_PUBLIC_PORT,
        64,
    ));
    out.push(("staging".into(), to_pipeline("staging", staging)));
    out
}

pub fn fleet_props() -> Vec<Property> {
    vec![
        Property::CrashFreedom,
        Property::Bounded { imax: FLEET_IMAX },
    ]
}

/// `churn-replay`: the core router, Abstract-only properties.
pub fn core_router_audit() -> Audit {
    audit(
        "core-router",
        ip_router(7, 1, core_fib(100_000)),
        vec![Property::CrashFreedom, bounded()],
    )
}

// ---------------------------------------------------------------------------
// Config-update streams
// ---------------------------------------------------------------------------

/// How many entries a table may hold above its initial size.
pub const TABLE_SLACK: usize = 6;
/// The watched source leaves / re-enters the blacklist on every
/// `FLIP_EVERY`-th update.
pub const FLIP_EVERY: usize = 40;

/// A generated update stream with what its author knows about it.
pub struct TablesStream {
    pub deltas: Vec<TableDelta>,
    /// Whether the watched source is blacklisted after delta `i` —
    /// the expected filtering verdict, from the generator's shadow.
    pub watched_in: Vec<bool>,
    /// Largest size each table reached: `(blacklist, fib)`.
    pub max_len: (usize, usize),
    /// Initial sizes: `(blacklist, fib)`.
    pub init_len: (usize, usize),
}

/// The stationary stream of `churn-tables`: inserts, removes,
/// overwrites, no-ops and whole-table replaces against the firewall
/// blacklist and the FIB of [`firewalled_edge`]. Unlike the stock
/// `dpv_bench::gen::delta_stream`, whose tables grow for as long as
/// the stream runs, both tables stay within their initial size +
/// [`TABLE_SLACK`], so per-update cost measures the verifier and not
/// the table length.
///
/// The seed chooses the stream's *contents* — which addresses, which
/// prefixes, which next hops. Its *shape* — which table each update
/// touches, which kind of step, which position in the table, hence
/// every table size along the way — comes from a generator with a
/// fixed seed: the time per update depends on the shape, and with a
/// seeded shape the median update of ten seeds spread 9–14 %, against
/// 2–4 % for ten runs of one seed.
pub fn tables_stream(seed: u64, n: usize) -> TablesStream {
    let fw = firewalled_edge().pipeline;
    let table_of = |name: &str| {
        let e = &fw
            .stages
            .iter()
            .find(|s| s.element.name == name)
            .expect("stage exists")
            .element;
        e.tables[0].0
    };
    let (bl_map, fib_map) = (table_of("IPFilter"), table_of("IPlookup"));
    let mut bl: Vec<(u64, u64)> = vec![(WATCHED_SRC as u64, 1), (0x0BAD_0010, 1)];
    let mut fib: Vec<(u32, u32, u32)> = edge_fib();
    let init_len = (bl.len(), fib.len());
    let mut max_len = init_len;
    let mut r = SplitMix64::new(seed ^ 0xC4A2_57AB);
    let mut shape = SplitMix64::new(0x5AA9_E0F5);
    let mut deltas = Vec::with_capacity(n);
    let mut watched_in = Vec::with_capacity(n);
    let mut inside = true;

    for i in 0..n {
        let delta = if (i + 1) % FLIP_EVERY == 0 {
            let op = if inside {
                bl.retain(|e| e.0 != WATCHED_SRC as u64);
                TableOp::ExactRemove(vec![WATCHED_SRC as u64])
            } else {
                bl.push((WATCHED_SRC as u64, 1));
                TableOp::ExactInsert(vec![(WATCHED_SRC as u64, 1)])
            };
            inside = !inside;
            TableDelta::new("IPFilter", bl_map, op)
        } else if shape.below(2) == 0 {
            // While the watched source is out, its slot stays reserved,
            // so its return never pushes the table past the cap.
            let reserved = usize::from(!inside);
            let op = exact_op(&mut shape, &mut r, &mut bl, init_len.0, reserved);
            TableDelta::new("IPFilter", bl_map, op)
        } else {
            let op = lpm_op(&mut shape, &mut r, &mut fib, init_len.1);
            TableDelta::new("IPlookup", fib_map, op)
        };
        max_len = (max_len.0.max(bl.len()), max_len.1.max(fib.len()));
        deltas.push(delta);
        watched_in.push(inside);
    }
    TablesStream {
        deltas,
        watched_in,
        max_len,
        init_len,
    }
}

/// What one random step does to a table of `len` entries that started
/// at `init`: the band `[init - 1, init + TABLE_SLACK]` is reflecting.
enum Step {
    Insert,
    Remove,
    Overwrite,
    SameValue,
    RemoveAbsent,
    Replace,
}

fn draw_step(shape: &mut SplitMix64, len: usize, init: usize) -> Step {
    let step = match shape.below(10) {
        0..=2 => Step::Insert,
        3..=5 => Step::Remove,
        6 => Step::Overwrite,
        7 => Step::SameValue,
        8 => Step::RemoveAbsent,
        _ => Step::Replace,
    };
    match step {
        Step::Insert if len >= init + TABLE_SLACK => Step::Remove,
        Step::Remove if len < init => Step::Insert,
        s => s,
    }
}

/// A blacklist key that is never the watched source.
fn fresh_exact(r: &mut SplitMix64, bl: &[(u64, u64)]) -> u64 {
    loop {
        let k = 0x0BAD_0100 + r.below(4096);
        if !bl.iter().any(|e| e.0 == k) {
            return k;
        }
    }
}

/// Index of a random entry other than the watched source.
fn pick_exact(shape: &mut SplitMix64, bl: &[(u64, u64)]) -> Option<usize> {
    let others: Vec<usize> = (0..bl.len())
        .filter(|&i| bl[i].0 != WATCHED_SRC as u64)
        .collect();
    if others.is_empty() {
        None
    } else {
        Some(others[shape.below(others.len() as u64) as usize])
    }
}

fn exact_op(
    shape: &mut SplitMix64,
    r: &mut SplitMix64,
    bl: &mut Vec<(u64, u64)>,
    init: usize,
    reserved: usize,
) -> TableOp {
    let step = draw_step(shape, bl.len() + reserved, init);
    let Some(at) = pick_exact(shape, bl) else {
        let k = fresh_exact(r, bl);
        bl.push((k, 1));
        return TableOp::ExactInsert(vec![(k, 1)]);
    };
    match step {
        Step::Insert => {
            let k = fresh_exact(r, bl);
            bl.push((k, 1));
            TableOp::ExactInsert(vec![(k, 1)])
        }
        Step::Remove => TableOp::ExactRemove(vec![bl.remove(at).0]),
        Step::Overwrite => {
            bl[at].1 ^= 3;
            TableOp::ExactInsert(vec![bl[at]])
        }
        Step::SameValue => TableOp::ExactInsert(vec![bl[at]]),
        Step::RemoveAbsent => TableOp::ExactRemove(vec![fresh_exact(r, bl)]),
        Step::Replace => {
            bl[at] = (fresh_exact(r, bl), 1);
            TableOp::Replace(TableConfig::exact(bl.clone()))
        }
    }
}

fn fresh_route(r: &mut SplitMix64, fib: &[(u32, u32, u32)]) -> (u32, u32, u32) {
    loop {
        let p = u32::from_be_bytes([172, r.below(256) as u8, r.below(256) as u8, 0]);
        if !fib.iter().any(|e| e.0 == p) {
            return (p, 24, r.below(4) as u32);
        }
    }
}

fn lpm_op(
    shape: &mut SplitMix64,
    r: &mut SplitMix64,
    fib: &mut Vec<(u32, u32, u32)>,
    init: usize,
) -> TableOp {
    let step = draw_step(shape, fib.len(), init);
    let at = shape.below(fib.len() as u64) as usize;
    match step {
        Step::Insert => {
            let route = fresh_route(r, fib);
            fib.push(route);
            TableOp::LpmInsert(vec![route])
        }
        Step::Remove => {
            let (p, l, _) = fib.remove(at);
            TableOp::LpmRemove(vec![(p, l)])
        }
        Step::Overwrite => {
            fib[at].2 = (fib[at].2 + 1) % 4;
            TableOp::LpmInsert(vec![fib[at]])
        }
        Step::SameValue => TableOp::LpmInsert(vec![fib[at]]),
        Step::RemoveAbsent => {
            let (p, l, _) = fresh_route(r, fib);
            TableOp::LpmRemove(vec![(p, l)])
        }
        Step::Replace => {
            fib[at] = fresh_route(r, fib);
            TableOp::Replace(TableConfig::lpm(fib.clone()))
        }
    }
}

/// The stream of `churn-replay`: `n` deltas that alternately insert a
/// seeded /24 into the core router's FIB and remove it again, so the
/// table is back at its initial contents after every pair.
pub fn replay_stream(seed: u64, n: usize) -> Vec<TableDelta> {
    let audit = core_router_audit();
    let fib_map = audit
        .pipeline
        .stages
        .iter()
        .find(|s| s.element.name == "IPlookup")
        .expect("core router has a FIB")
        .element
        .tables[0]
        .0;
    let mut r = SplitMix64::new(seed ^ 0x004E_91A7);
    let mut out = Vec::with_capacity(n);
    let mut live = None;
    for _ in 0..n {
        let op = match live.take() {
            Some((p, l)) => TableOp::LpmRemove(vec![(p, l)]),
            None => {
                // 224.0.0.0/3 is outside core_fib's 0.x.y.0/24 range,
                // so the insert is never an overwrite.
                let p = 0xE000_0000 | ((r.below(1 << 21) as u32) << 8);
                live = Some((p, 24));
                TableOp::LpmInsert(vec![(p, 24, r.below(4) as u32)])
            }
        };
        out.push(TableDelta::new("IPlookup", fib_map, op));
    }
    out
}

// ---------------------------------------------------------------------------
// SAT probe instances
// ---------------------------------------------------------------------------

/// Uniform random 3-SAT at clause/variable ratio 4.26 (the hardness
/// peak), `vars` variables.
pub fn random_3sat(seed: u64, vars: usize) -> Cnf {
    let mut r = SplitMix64::new(seed ^ 0x35A7);
    let mut cnf = Cnf::new();
    let vs: Vec<_> = (0..vars).map(|_| cnf.new_var()).collect();
    for _ in 0..(vars as f64 * 4.26) as usize {
        let mut clause: Vec<Lit> = Vec::with_capacity(3);
        while clause.len() < 3 {
            let v = vs[r.below(vars as u64) as usize];
            if clause.iter().all(|l| l.var() != v) {
                clause.push(if r.below(2) == 0 {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                });
            }
        }
        cnf.add_clause(&clause);
    }
    cnf
}

/// The pigeonhole principle PHP(holes+1, holes): unsatisfiable, and
/// exponentially hard for resolution — a pure conflict-analysis load.
pub fn pigeonhole(holes: usize) -> Cnf {
    let mut cnf = Cnf::new();
    let pigeons = holes + 1;
    // in_hole[h][p]: pigeon p sits in hole h.
    let in_hole: Vec<Vec<_>> = (0..holes)
        .map(|_| (0..pigeons).map(|_| cnf.new_var()).collect())
        .collect();
    for p in 0..pigeons {
        let somewhere: Vec<Lit> = in_hole.iter().map(|hole| Lit::pos(hole[p])).collect();
        cnf.add_clause(&somewhere);
    }
    for hole in &in_hole {
        for (a, &first) in hole.iter().enumerate() {
            for &second in &hole[a + 1..] {
                cnf.add_clause(&[Lit::neg(first), Lit::neg(second)]);
            }
        }
    }
    cnf
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_text(s: &TablesStream) -> String {
        format!("{:?}", s.deltas)
    }

    #[test]
    fn same_seed_gives_identical_inputs_and_another_seed_differs() {
        assert_eq!(
            stream_text(&tables_stream(3, 300)),
            stream_text(&tables_stream(3, 300))
        );
        assert_ne!(
            stream_text(&tables_stream(3, 300)),
            stream_text(&tables_stream(4, 300))
        );
        let replay = |seed| format!("{:?}", replay_stream(seed, 50));
        assert_eq!(replay(3), replay(3));
        assert_ne!(replay(3), replay(4));
        assert_eq!(fleet_fibs(3), fleet_fibs(3));
        assert_ne!(fleet_fibs(3), fleet_fibs(4));
        let cnf = |seed| bitsat::write_dimacs(&random_3sat(seed, 60));
        assert_eq!(cnf(3), cnf(3));
        assert_ne!(cnf(3), cnf(4));
    }

    /// Applies the stream to the real pipeline and checks what the
    /// generator claims about it: every delta is valid, no table ever
    /// exceeds its initial size + `TABLE_SLACK`, and the shadow's view
    /// of the watched source matches the table.
    #[test]
    fn tables_stream_is_stationary_and_its_shadow_is_right() {
        for seed in [1, 2, 3] {
            let s = tables_stream(seed, 1200);
            let mut p = firewalled_edge().pipeline;
            let (mut flips, mut was_in) = (0, true);
            for (d, &expect_in) in s.deltas.iter().zip(&s.watched_in) {
                d.apply(&mut p).expect("generated deltas are valid");
                for stage in &p.stages {
                    let cap = match stage.element.name.as_str() {
                        "IPFilter" => s.init_len.0 + TABLE_SLACK,
                        "IPlookup" => s.init_len.1 + TABLE_SLACK,
                        _ => continue,
                    };
                    assert!(stage.element.tables[0].1.len() <= cap);
                }
                let filter = &p.stages[2].element.tables[0].1;
                let is_in = filter.as_pairs().iter().any(|e| e.0 == WATCHED_SRC as u64);
                assert_eq!(is_in, expect_in);
                flips += usize::from(is_in != was_in);
                was_in = is_in;
            }
            assert_eq!(flips, 1200 / FLIP_EVERY);
            assert!(s.max_len.0 <= s.init_len.0 + TABLE_SLACK);
            assert!(s.max_len.1 <= s.init_len.1 + TABLE_SLACK);
        }
    }

    #[test]
    fn replay_stream_returns_the_fib_to_its_initial_contents() {
        let mut p = core_router_audit().pipeline;
        let before = p.stages[5].element.tables[0].1.pairs_fingerprint();
        for (i, d) in replay_stream(9, 40).iter().enumerate() {
            let effect = d.apply(&mut p).expect("valid");
            assert!(effect.any_changed(), "delta {i} must change the FIB");
        }
        assert_eq!(p.stages[5].element.tables[0].1.pairs_fingerprint(), before);
    }

    #[test]
    fn paper_set_has_the_sixteen_audits() {
        let set = paper_set();
        assert_eq!(set.len(), 16);
        let verdicts: usize = set.iter().map(|a| a.props.len()).sum();
        assert_eq!(verdicts, 7 + 8 + 4 + 3);
    }

    #[test]
    fn pigeonhole_is_unsat_and_small_3sat_parses() {
        let mut s = bitsat::Solver::new();
        let cnf = pigeonhole(4);
        s.reserve_vars(cnf.num_vars);
        for c in &cnf.clauses {
            s.add_clause(c);
        }
        assert!(s.solve().is_unsat());
        let cnf = random_3sat(1, 50);
        assert_eq!(cnf.clauses.len(), 213);
    }
}
