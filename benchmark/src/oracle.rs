//! The verdict oracle. It shares nothing with the verifier: expected
//! verdicts are written down by hand below, every counterexample is
//! replayed on the concrete `dataplane::Runner`, and every pipeline
//! the verifier calls safe is fed seeded well-formed and adversarial
//! packets that must not violate the property.

use crate::inputs::{IMAX, WATCHED_SRC};
use dataplane::workload::{adversarial, FlowMix, PacketBuilder};
use dataplane::{headers, Pipeline, PipelineOutcome, Runner};
use dpir::PacketData;
use elements::pipelines::{build_all_stores, NAT_PUBLIC_IP, NAT_PUBLIC_PORT};
use std::collections::BTreeSet;
use verifier::{Property, Report, Verdict, VerifyReport};

/// The known answer for one (pipeline, property).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The property holds.
    Proved,
    /// Violated: the counterexample crashes the dataplane.
    Crashes,
    /// Violated: the counterexample runs past this many instructions.
    Exceeds(u64),
    /// Violated: the counterexample carries this source address and is
    /// delivered.
    Delivers(u32),
    /// The private-state analysis reports this many findings.
    Findings(usize),
}

use Expect::{Crashes, Exceeds, Findings, Proved};

/// The expected-verdict table, one row per audit in
/// [`crate::inputs`], one entry per property in audit order.
/// Sources: Fig. 4(a)/(b) (every prefix verifies; the traffic
/// monitor's counter is the §3.4 finding from `fig4b-monitor` on),
/// Table 3 (bug #2 is masked by the options element), §5.3.
pub fn expected(audit: &str) -> &'static [Expect] {
    match audit {
        "fig4a-preproc" | "fig4a-decttl" | "fig4a-ipoption1" | "fig4a-ipoption2"
        | "fig4a-ipoption3" | "fig4a-iplookup" | "fig4a-ethencap" => &[Proved],
        "fig4b-preproc" => &[Proved, Findings(0)],
        "fig4b-monitor" | "fig4b-nat" | "fig4b-ethencap" => &[Proved, Findings(1)],
        "table3-bug1" => &[Exceeds(IMAX)],
        "table3-bug2-masked" => &[Proved],
        "table3-bug2-exposed" => &[Exceeds(IMAX)],
        "table3-bug3" => &[Crashes],
        "firewalled-edge" => &[Proved, Proved, Proved],
        "fixed-frag-prove" | "opt-frag-prove" | "core-router" => &[Proved, Proved],
        "fleet-fib" => &[Proved, Proved],
        "fleet-staging" => &[Crashes, Proved],
        other => panic!("no expected verdicts for audit {other:?}"),
    }
}

/// What the verifier answered for one property.
pub enum Seen<'a> {
    Verdict(&'a Verdict),
    Findings(usize),
    /// No answer at all (step 1 aborted, wrong report kind).
    Nothing(String),
}

impl<'a> From<&'a Report> for Seen<'a> {
    fn from(r: &'a Report) -> Self {
        match r {
            Report::Verify(v) => Seen::Verdict(&v.verdict),
            Report::State(s) => match &s.error {
                None => Seen::Findings(s.findings.len()),
                Some(e) => Seen::Nothing(e.clone()),
            },
            Report::Generic(_) => Seen::Nothing("generic baseline report".into()),
        }
    }
}

impl<'a> From<&'a VerifyReport> for Seen<'a> {
    fn from(r: &'a VerifyReport) -> Self {
        Seen::Verdict(&r.verdict)
    }
}

fn runner(pipeline: &Pipeline) -> Runner {
    let stores = build_all_stores(pipeline);
    Runner::new(pipeline.clone(), stores)
}

/// Checks one answer against its known one. A counterexample is
/// believed only after the concrete dataplane misbehaves on it in the
/// expected way.
pub fn check(pipeline: &Pipeline, seen: &Seen, expect: Expect) -> Result<(), String> {
    let cex = match (seen, expect) {
        (Seen::Nothing(why), _) => return Err(format!("no answer: {why}")),
        (Seen::Findings(n), Findings(want)) if *n == want => return Ok(()),
        (Seen::Verdict(Verdict::Proved), Proved) => return Ok(()),
        (Seen::Verdict(Verdict::Disproved(cex)), Crashes | Exceeds(_) | Expect::Delivers(_)) => cex,
        (Seen::Verdict(v), want) => {
            return Err(format!("verdict {} but expected {want:?}", v.label()))
        }
        (Seen::Findings(n), want) => return Err(format!("{n} findings but expected {want:?}")),
    };
    let mut r = runner(pipeline);
    let mut pkt = PacketData::new(cex.bytes.clone());
    let src = headers::ip_src(&pkt);
    match expect {
        Crashes => match r.run_packet(&mut pkt) {
            PipelineOutcome::Crashed { .. } => Ok(()),
            other => Err(format!("counterexample does not crash: {other:?}")),
        },
        Exceeds(imax) => {
            r.fuel_per_stage = 2 * imax;
            let out = r.run_packet(&mut pkt);
            let ran = r.stats().max_instrs_per_packet;
            if matches!(out, PipelineOutcome::Stuck { .. }) || ran > imax {
                Ok(())
            } else {
                Err(format!(
                    "counterexample ran {ran} instructions ({out:?}), bound is {imax}"
                ))
            }
        }
        Expect::Delivers(want) => match r.run_packet(&mut pkt) {
            PipelineOutcome::Delivered(_) if src == want => Ok(()),
            other => Err(format!(
                "counterexample from {} ends {other:?}, expected delivery from {}",
                headers::fmt_ip(src),
                headers::fmt_ip(want)
            )),
        },
        Proved | Findings(_) => unreachable!("handled above"),
    }
}

/// Packets aimed at the exception paths of every element in the
/// benchmark's pipelines, from well-formed and from watched sources.
fn hostile_packets() -> Vec<PacketData> {
    let mut out = vec![
        adversarial::zero_length_option(),
        adversarial::lsrr(0x0A01_0009),
        adversarial::nat_hairpin(NAT_PUBLIC_IP, NAT_PUBLIC_PORT),
        PacketBuilder::ipv4_udp().broadcast().build(),
        PacketBuilder::ipv4_udp().ttl(1).build(),
        PacketBuilder::ipv4_udp().ethertype(0x0806).build(),
        PacketData::new(vec![0; 14]),
        PacketData::new(Vec::new()),
    ];
    out.extend((0..=10).map(adversarial::with_nop_options));
    // The same shapes again from the watched source, for filtering.
    let watched: Vec<PacketData> = out
        .iter()
        .filter(|p| p.len() >= 34)
        .map(|p| {
            let mut p = p.clone();
            p.write_be(headers::IP_SRC, 4, WATCHED_SRC as u64);
            headers::set_ipv4_checksum(&mut p);
            p
        })
        .collect();
    out.extend(watched);
    out.push(
        PacketBuilder::ipv4_udp()
            .src(WATCHED_SRC)
            .dst(u32::from_be_bytes([10, 3, 1, 1]))
            .build(),
    );
    out
}

/// Number of seeded well-formed packets a proved pipeline is fed.
const FUZZ_PACKETS: usize = 400;

/// The proved direction: no packet of a seeded flow mix, and none of
/// the hostile set, may violate a property the verifier proved.
pub fn fuzz_proved(pipeline: &Pipeline, property: &Property, seed: u64) -> Result<(), String> {
    let mut r = runner(pipeline);
    let mut mix = FlowMix::new(seed, 32);
    let packets = hostile_packets()
        .into_iter()
        .chain((0..FUZZ_PACKETS).map(|_| mix.next_packet()));
    for (i, mut pkt) in packets.enumerate() {
        let src = headers::ip_src(&pkt);
        let before = r.stats().instrs;
        let out = r.run_packet(&mut pkt);
        let ran = r.stats().instrs - before;
        let violated = match property {
            Property::CrashFreedom => matches!(out, PipelineOutcome::Crashed { .. }),
            Property::Bounded { imax } => {
                matches!(out, PipelineOutcome::Stuck { .. }) || ran > *imax
            }
            Property::Filter(f) => {
                f.src_ip == Some(src) && matches!(out, PipelineOutcome::Delivered(_))
            }
            _ => false,
        };
        if violated {
            return Err(format!(
                "packet {i} violates proved {property:?}: {out:?} after {ran} instructions"
            ));
        }
    }
    Ok(())
}

/// The proved direction of filtering under one table configuration:
/// no hostile packet from `src` may get through.
pub fn fuzz_filtered(pipeline: &Pipeline, src: u32) -> Result<(), String> {
    let mut r = runner(pipeline);
    for mut pkt in hostile_packets() {
        if headers::ip_src(&pkt) == src {
            if let out @ PipelineOutcome::Delivered(_) = r.run_packet(&mut pkt) {
                return Err(format!("packet from filtered source ends {out:?}"));
            }
        }
    }
    Ok(())
}

/// Running score: verdicts checked, verdicts missed, and why.
#[derive(Debug, Default)]
pub struct Oracle {
    pub attempted: u64,
    pub failed: u64,
    pub misses: Vec<String>,
    seed: u64,
    /// `(audit, property index)` pairs already queued for fuzzing: the
    /// pipeline and the proof do not change between passes.
    fuzzed: BTreeSet<(String, usize)>,
    /// Proved (pipeline, property) pairs still to fuzz. Deferred to
    /// [`Oracle::finish`] because a runner over a 100k-route FIB takes
    /// more memory than the verifier, and peak memory is a metric.
    pending: Vec<(String, Pipeline, Property)>,
}

impl Oracle {
    pub fn new(seed: u64) -> Self {
        Oracle {
            seed,
            ..Default::default()
        }
    }

    fn score(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.misses.len() < 20 {
                self.misses.push(format!("{what}: {why}"));
            }
        }
    }

    /// Scores one answer; `fuzz_key` names the (pipeline, property)
    /// for once-per-run fuzzing of proved properties, `None` skips it.
    /// Fuzzing happens in [`Oracle::finish`].
    pub fn judge_one(
        &mut self,
        what: &str,
        pipeline: &Pipeline,
        property: &Property,
        seen: Seen,
        expect: Expect,
        fuzz_key: Option<(&str, usize)>,
    ) {
        let result = check(pipeline, &seen, expect);
        if let (Ok(()), Proved, Some((name, idx))) = (&result, expect, fuzz_key) {
            if self.fuzzed.insert((name.to_string(), idx)) {
                self.pending
                    .push((what.to_string(), pipeline.clone(), property.clone()));
            }
        }
        self.score(what, result);
    }

    /// Fuzzes every proved (pipeline, property) queued so far; a
    /// violation turns that verdict, scored as right, into a miss.
    pub fn finish(&mut self) {
        for (what, pipeline, property) in std::mem::take(&mut self.pending) {
            if let Err(why) = fuzz_proved(&pipeline, &property, self.seed) {
                self.failed += 1;
                self.misses.push(format!("{what}: {why}"));
            }
        }
    }

    /// Scores every answer of one audit against `expect`.
    pub fn judge<'a, S: Into<Seen<'a>>>(
        &mut self,
        name: &str,
        pipeline: &Pipeline,
        props: &[Property],
        answers: impl IntoIterator<Item = S>,
        expect: &[Expect],
    ) {
        let answers: Vec<Seen> = answers.into_iter().map(Into::into).collect();
        if answers.len() != expect.len() || props.len() != expect.len() {
            self.score(
                name,
                Err(format!(
                    "{} answers for {} expected verdicts",
                    answers.len(),
                    expect.len()
                )),
            );
            return;
        }
        for (i, (seen, &want)) in answers.into_iter().zip(expect).enumerate() {
            let what = format!("{name} / {:?}", props[i]);
            self.judge_one(&what, pipeline, &props[i], seen, want, Some((name, i)));
        }
    }

    /// Scores a miss that is not a verdict (an operation that errored).
    pub fn fail(&mut self, what: &str, why: String) {
        self.score(what, Err(why));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{cfg, paper_set};
    use verifier::Verifier;

    fn audit_named(name: &str) -> crate::inputs::Audit {
        paper_set()
            .into_iter()
            .find(|a| a.name == name)
            .expect("audit exists")
    }

    fn judge(name: &str, expect: &[Expect]) -> Oracle {
        let a = audit_named(name);
        let reports = Verifier::new(&a.pipeline).config(cfg()).check_all(&a.props);
        let mut o = Oracle::new(1);
        o.judge(a.name, &a.pipeline, &a.props, &reports, expect);
        o.finish();
        o
    }

    #[test]
    fn table_rows_pass_and_a_flipped_row_fails() {
        for name in [
            "table3-bug2-exposed",
            "table3-bug3",
            "fig4b-monitor",
            "fig4a-decttl",
        ] {
            let o = judge(name, expected(name));
            assert_eq!((o.attempted > 0, o.failed), (true, 0), "{:?}", o.misses);
        }
        // Deliberately wrong rows: each must be counted as a miss.
        assert_eq!(judge("table3-bug2-exposed", &[Proved]).failed, 1);
        assert_eq!(judge("table3-bug3", &[Exceeds(IMAX)]).failed, 1);
        assert_eq!(judge("fig4a-decttl", &[Crashes]).failed, 1);
        assert_eq!(judge("fig4b-monitor", &[Proved, Findings(0)]).failed, 1);
        assert_eq!(judge("fig4b-monitor", &[Proved]).failed, 1);
    }

    #[test]
    fn a_counterexample_that_does_not_reproduce_is_a_miss() {
        let a = audit_named("table3-bug3");
        let harmless = Verdict::Disproved(verifier::CounterExample {
            bytes: PacketBuilder::ipv4_udp().build().bytes,
            description: "made up".into(),
            trace: Vec::new(),
        });
        assert!(check(&a.pipeline, &Seen::Verdict(&harmless), Crashes).is_err());
        assert!(check(&a.pipeline, &Seen::Verdict(&harmless), Exceeds(IMAX)).is_err());
        assert!(check(&a.pipeline, &Seen::Verdict(&harmless), Expect::Delivers(1)).is_err());
    }

    #[test]
    fn fuzzing_catches_a_wrong_proof() {
        // Claim the buggy NAT and the exposed fragmenter safe.
        let nat = audit_named("table3-bug3");
        assert!(fuzz_proved(&nat.pipeline, &Property::CrashFreedom, 1).is_err());
        let frag = audit_named("table3-bug2-exposed");
        assert!(fuzz_proved(&frag.pipeline, &Property::Bounded { imax: IMAX }, 1).is_err());
        let masked = audit_named("table3-bug2-masked");
        assert!(fuzz_proved(&masked.pipeline, &Property::Bounded { imax: IMAX }, 1).is_ok());
    }
}
