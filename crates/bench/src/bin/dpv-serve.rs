//! `dpv-serve` — a long-lived verifier daemon over a warm
//! [`ChurnSession`] and the persistent store.
//!
//! Verification as a standing service instead of a batch job: the
//! daemon verifies a named pipeline once at startup (warm-starting
//! step 1 from `--store` when a previous process left summaries
//! there), then tails a delta file, coalescing each burst of table
//! updates into **one** re-verification via
//! [`ChurnSession::apply_batch`] and printing one JSON verdict line
//! per burst. Summaries written back to `--store` make the *next*
//! daemon's step 1 warm too (its first step-2 search still runs cold).
//! The session runs at [`ReuseLevel::Sessions`], the only level.
//!
//! ```text
//! dpv-serve --pipeline firewalled-edge --store /var/lib/dpv \
//!           --deltas /run/dpv/updates [--once] [--poll-ms 200]
//! ```
//!
//! The delta file is append-only text, one update per line (`#`
//! starts a comment; numbers are decimal or `0x` hex; the map index,
//! LPM prefixes and values must fit in 32 bits and prefix lengths be
//! at most 32, or the line is ignored with a message):
//!
//! ```text
//! IPFilter 0 exact-insert 0x0BAD0002=1,0x0BAD0003=1
//! IPFilter 0 exact-remove 0x0BAD0002
//! IPlookup 0 lpm-insert 0x0A000000/8=2,0xC0A80000/16=1
//! IPlookup 0 lpm-remove 0x0A000000/8
//! ?
//! ```
//!
//! Consecutive delta lines form one burst (one `apply_batch`, one
//! verdict line); a `?` line flushes the current burst and re-emits
//! the latest verdicts. `--once` processes the file's current
//! contents and exits (the CI/test mode); otherwise the daemon polls
//! the file for appended bytes every `--poll-ms` (default 200),
//! waiting for the file to appear if it does not exist yet; a file
//! that shrinks (truncated or rotated) is read again from the start.

use dataplane::{TableDelta, TableOp};
use dpv_bench::{fig_verify_config, named_workload};
use std::io::Write as _;
use verifier::report::json_escape;
use verifier::{ChurnSession, ReuseLevel, UpdateReport, Verdict};

/// One parsed line of the delta file.
#[derive(Debug)]
enum Line {
    /// A table update (joins the current burst).
    Delta(TableDelta),
    /// `?` — flush the burst and re-emit the latest verdicts.
    Query,
    /// Blank or comment.
    Skip,
}

fn parse_num(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("bad number {s:?}"))
}

/// A number that must fit the 32-bit field `what` names.
fn parse_u32(s: &str, what: &str) -> Result<u32, String> {
    let n = parse_num(s)?;
    u32::try_from(n).map_err(|_| format!("{what} {n:#x} does not fit in 32 bits"))
}

fn parse_kv(item: &str) -> Result<(u64, u64), String> {
    let (k, v) = item
        .split_once('=')
        .ok_or_else(|| format!("expected key=value, got {item:?}"))?;
    Ok((parse_num(k)?, parse_num(v)?))
}

fn parse_prefix(s: &str) -> Result<(u32, u32), String> {
    let (p, l) = s
        .split_once('/')
        .ok_or_else(|| format!("expected prefix/len, got {s:?}"))?;
    let len = parse_u32(l, "prefix length")?;
    if len > 32 {
        return Err(format!("prefix length /{len} is longer than 32"));
    }
    Ok((parse_u32(p, "prefix")?, len))
}

fn parse_line(line: &str) -> Result<Line, String> {
    let line = line.split('#').next().unwrap_or("").trim();
    if line.is_empty() {
        return Ok(Line::Skip);
    }
    if line == "?" {
        return Ok(Line::Query);
    }
    let mut parts = line.split_whitespace();
    let stage = parts.next().expect("non-empty line has a first token");
    let map = parse_u32(parts.next().ok_or("missing map index")?, "map index")?;
    let op_name = parts.next().ok_or("missing op")?;
    let args = parts.next().ok_or("missing op arguments")?;
    if parts.next().is_some() {
        return Err("trailing tokens after op arguments".into());
    }
    let items = args.split(',');
    let op = match op_name {
        "exact-insert" => TableOp::ExactInsert(items.map(parse_kv).collect::<Result<Vec<_>, _>>()?),
        "exact-remove" => {
            TableOp::ExactRemove(items.map(parse_num).collect::<Result<Vec<_>, _>>()?)
        }
        "lpm-insert" => TableOp::LpmInsert(
            items
                .map(|item| {
                    let (pl, v) = item
                        .split_once('=')
                        .ok_or_else(|| format!("expected prefix/len=value, got {item:?}"))?;
                    let (p, l) = parse_prefix(pl)?;
                    Ok::<_, String>((p, l, parse_u32(v, "LPM value")?))
                })
                .collect::<Result<Vec<_>, _>>()?,
        ),
        "lpm-remove" => TableOp::LpmRemove(items.map(parse_prefix).collect::<Result<Vec<_>, _>>()?),
        other => return Err(format!("unknown op {other:?}")),
    };
    Ok(Line::Delta(TableDelta::new(stage, dpir::MapId(map), op)))
}

struct Opts {
    pipeline: String,
    store: Option<String>,
    deltas: Option<String>,
    once: bool,
    poll_ms: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: dpv-serve --pipeline <firewalled-edge|edge-router> \
         [--store <dir>] [--deltas <file>] [--once] [--poll-ms <n>]"
    );
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        pipeline: String::new(),
        store: None,
        deltas: None,
        once: false,
        poll_ms: 200,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--pipeline" => opts.pipeline = val(),
            "--store" => opts.store = Some(val()),
            "--deltas" => opts.deltas = Some(val()),
            "--once" => opts.once = true,
            "--poll-ms" => opts.poll_ms = val().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if opts.pipeline.is_empty() {
        usage();
    }
    opts
}

/// One JSON verdict line per event, flushed immediately (the consumer
/// is a pipe, not a terminal).
fn emit(event: &str, report: &UpdateReport, extra: &str) {
    println!("{}", verdict_line(event, report, extra));
    let _ = std::io::stdout().flush();
}

/// One JSON verdict line: the update's verdicts, step-1 reuse and
/// timings, then `extra` (pre-rendered `,"key":value` fields).
fn verdict_line(event: &str, report: &UpdateReport, extra: &str) -> String {
    let verdicts: Vec<String> = report
        .reports
        .iter()
        .map(|r| {
            let v = match &r.verdict {
                Verdict::Proved => "\"proved\"".to_string(),
                Verdict::Disproved(cex) => {
                    let bytes: String = cex.bytes.iter().map(|b| format!("{b:02x}")).collect();
                    format!("{{\"disproved\":\"{bytes}\"}}")
                }
                Verdict::Unknown(why) => format!("{{\"unknown\":\"{}\"}}", json_escape(why)),
            };
            format!(
                "{{\"property\":\"{}\",\"verdict\":{v}}}",
                json_escape(&r.property)
            )
        })
        .collect();
    format!(
        "{{\"event\":\"{}\",\"update\":{},\"verdicts\":[{}],\
         \"stages_reexecuted\":{},\"stages_rebased\":{},\
         \"step1_ms\":{:.3},\"step2_ms\":{:.3},\"total_ms\":{:.3}{extra}}}",
        json_escape(event),
        report.update,
        verdicts.join(","),
        report.stages_reexecuted,
        report.stages_rebased,
        report.step1_time.as_secs_f64() * 1e3,
        report.step2_time.as_secs_f64() * 1e3,
        report.total_time.as_secs_f64() * 1e3,
    )
}

/// Applies the pending burst (if any) as one coalesced re-verify.
fn flush_burst(session: &mut ChurnSession, burst: &mut Vec<TableDelta>, last: &mut UpdateReport) {
    if burst.is_empty() {
        return;
    }
    let n = burst.len();
    match session.apply_batch(burst) {
        Ok(report) => {
            emit("update", &report, &format!(",\"deltas\":{n}"));
            *last = report;
        }
        Err(e) => {
            eprintln!("dpv-serve: burst of {n} rejected, pipeline unchanged: {e}");
            let _ = std::io::stderr().flush();
        }
    }
    burst.clear();
}

/// The bytes appended to `path` since `offset`, advancing `offset` past
/// them. A file shorter than `offset` was truncated or rotated: it is
/// read again from the start (the caller sees `offset` move backwards).
/// A missing file reads as nothing new — the daemon waits for it.
fn read_appended(path: &str, offset: &mut u64) -> String {
    use std::io::{Read as _, Seek as _, SeekFrom};
    let mut read = || -> std::io::Result<String> {
        let mut file = std::fs::File::open(path)?;
        if file.metadata()?.len() < *offset {
            eprintln!("dpv-serve: {path} shrank below offset {offset}, re-reading from the start");
            *offset = 0;
        }
        file.seek(SeekFrom::Start(*offset))?;
        let mut new = Vec::new();
        file.read_to_end(&mut new)?;
        *offset += new.len() as u64;
        Ok(String::from_utf8_lossy(&new).into_owned())
    };
    match read() {
        Ok(new) => new,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => {
            eprintln!("dpv-serve: cannot read {path}: {e}");
            String::new()
        }
    }
}

fn main() {
    let opts = parse_opts();
    let Some((pipeline, props)) = named_workload(&opts.pipeline) else {
        eprintln!("dpv-serve: unknown pipeline {:?}", opts.pipeline);
        usage();
    };
    let mut session = ChurnSession::new(pipeline, props, fig_verify_config(), ReuseLevel::Sessions)
        .expect("named workloads use search-based properties");
    if let Some(dir) = &opts.store {
        session = session
            .with_store_path(dir)
            .expect("store dir must be creatable");
    }
    let mut last = session.verify();
    let loads = session.store().store_loads();
    emit(
        "verified",
        &last,
        &format!(",\"store_loads\":{loads},\"warm_start\":{}", loads > 0),
    );

    let Some(deltas_path) = &opts.deltas else {
        // No delta source: verify once and exit (still useful — it
        // leaves the store warm for the next start).
        return;
    };
    let mut offset = 0u64;
    let mut pending = String::new();
    loop {
        let before = offset;
        let appended = read_appended(deltas_path, &mut offset);
        if offset < before {
            // The file was truncated: the partial line belongs to the
            // old contents.
            pending.clear();
        }
        pending.push_str(&appended);
        // Only complete lines are parsed; a partial trailing line
        // stays pending until its newline arrives.
        let mut burst: Vec<TableDelta> = Vec::new();
        while let Some(nl) = pending.find('\n') {
            let line: String = pending.drain(..=nl).collect();
            match parse_line(&line) {
                Ok(Line::Delta(d)) => burst.push(d),
                Ok(Line::Query) => {
                    flush_burst(&mut session, &mut burst, &mut last);
                    emit("query", &last, "");
                }
                Ok(Line::Skip) => {}
                Err(e) => {
                    eprintln!("dpv-serve: ignoring line {:?}: {e}", line.trim_end());
                }
            }
        }
        flush_burst(&mut session, &mut burst, &mut last);
        if opts.once {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(opts.poll_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_exact_ops() {
        let Line::Delta(d) = parse_line("IPFilter 0 exact-insert 0x0BAD0002=1,3=4").unwrap() else {
            panic!("expected delta");
        };
        assert_eq!(d.stage, "IPFilter");
        assert_eq!(d.map, dpir::MapId(0));
        match d.op {
            TableOp::ExactInsert(kv) => assert_eq!(kv, vec![(0x0BAD_0002, 1), (3, 4)]),
            other => panic!("wrong op: {other:?}"),
        }
        let Line::Delta(d) = parse_line("IPFilter 1 exact-remove 7,0x10").unwrap() else {
            panic!("expected delta");
        };
        match d.op {
            TableOp::ExactRemove(ks) => assert_eq!(ks, vec![7, 0x10]),
            other => panic!("wrong op: {other:?}"),
        }
    }

    #[test]
    fn parses_lpm_ops() {
        let Line::Delta(d) = parse_line("IPlookup 0 lpm-insert 0x0A000000/8=2").unwrap() else {
            panic!("expected delta");
        };
        match d.op {
            TableOp::LpmInsert(routes) => assert_eq!(routes, vec![(0x0A00_0000, 8, 2)]),
            other => panic!("wrong op: {other:?}"),
        }
        let Line::Delta(d) = parse_line("IPlookup 0 lpm-remove 0x0A000000/8,1/32").unwrap() else {
            panic!("expected delta");
        };
        match d.op {
            TableOp::LpmRemove(routes) => assert_eq!(routes, vec![(0x0A00_0000, 8), (1, 32)]),
            other => panic!("wrong op: {other:?}"),
        }
    }

    #[test]
    fn parses_query_comments_and_blanks() {
        assert!(matches!(parse_line("?").unwrap(), Line::Query));
        assert!(matches!(parse_line("").unwrap(), Line::Skip));
        assert!(matches!(parse_line("  # comment").unwrap(), Line::Skip));
        assert!(matches!(
            parse_line("IPFilter 0 exact-remove 7 # drop the blacklist entry").unwrap(),
            Line::Delta(_)
        ));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("IPFilter").is_err());
        assert!(parse_line("IPFilter zero exact-remove 7").is_err());
        assert!(parse_line("IPFilter 0 frobnicate 7").is_err());
        assert!(parse_line("IPFilter 0 exact-insert 7").is_err());
        assert!(parse_line("IPlookup 0 lpm-remove 0x0A000000").is_err());
        assert!(parse_line("IPFilter 0 exact-remove 7 trailing").is_err());
    }

    /// The four 32-bit fields reject a number one past `u32::MAX`
    /// instead of wrapping it, and take `u32::MAX` itself.
    #[test]
    fn rejects_a_map_index_past_32_bits() {
        let err = parse_line("IPFilter 0x100000000 exact-remove 7").unwrap_err();
        assert!(err.contains("map index"), "{err}");
        let Line::Delta(d) = parse_line("IPFilter 0xffffffff exact-remove 7").unwrap() else {
            panic!("expected delta");
        };
        assert_eq!(d.map, dpir::MapId(u32::MAX));
    }

    #[test]
    fn rejects_an_lpm_prefix_past_32_bits() {
        let err = parse_line("IPlookup 0 lpm-insert 0x10A000000/8=2").unwrap_err();
        assert!(err.contains("prefix 0x10a000000"), "{err}");
        assert!(parse_line("IPlookup 0 lpm-remove 0x10A000000/8").is_err());
        let Line::Delta(d) = parse_line("IPlookup 0 lpm-remove 0xffffffff/32").unwrap() else {
            panic!("expected delta");
        };
        match d.op {
            TableOp::LpmRemove(routes) => assert_eq!(routes, vec![(u32::MAX, 32)]),
            other => panic!("wrong op: {other:?}"),
        }
    }

    #[test]
    fn rejects_a_prefix_length_past_32() {
        for line in [
            "IPlookup 0 lpm-insert 0x0A000000/40=2",
            "IPlookup 0 lpm-insert 0x0A000000/33=2",
            "IPlookup 0 lpm-remove 0x0A000000/0x100000008",
        ] {
            let err = parse_line(line).unwrap_err();
            assert!(err.contains("prefix length"), "{line}: {err}");
        }
        for len in [0, 32] {
            let line = format!("IPlookup 0 lpm-insert 0x0A000000/{len}=2");
            assert!(parse_line(&line).is_ok(), "{line}");
        }
    }

    #[test]
    fn rejects_an_lpm_value_past_32_bits() {
        let err = parse_line("IPlookup 0 lpm-insert 0x0A000000/8=0x100000002").unwrap_err();
        assert!(err.contains("LPM value"), "{err}");
        let Line::Delta(d) = parse_line("IPlookup 0 lpm-insert 0x0A000000/8=0xffffffff").unwrap()
        else {
            panic!("expected delta");
        };
        match d.op {
            TableOp::LpmInsert(routes) => assert_eq!(routes, vec![(0x0A00_0000, 8, u32::MAX)]),
            other => panic!("wrong op: {other:?}"),
        }
    }

    #[test]
    fn read_appended_tails_and_recovers_from_truncation() {
        let path = std::env::temp_dir().join(format!("dpv-serve-tail-{}", std::process::id()));
        let path_str = path.to_str().expect("utf-8 temp path");
        let _ = std::fs::remove_file(&path);
        let mut offset = 0u64;
        assert_eq!(read_appended(path_str, &mut offset), "", "missing file");

        std::fs::write(&path, "a 0 exact-remove 1\npart").unwrap();
        assert_eq!(
            read_appended(path_str, &mut offset),
            "a 0 exact-remove 1\npart"
        );
        assert_eq!(offset, 23);
        assert_eq!(read_appended(path_str, &mut offset), "", "no change");
        assert_eq!(offset, 23);

        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        file.write_all(b"ial\n").unwrap();
        assert_eq!(read_appended(path_str, &mut offset), "ial\n", "append");
        assert_eq!(offset, 27);

        // Truncate, then append less than was there before: the whole
        // new contents come back and the offset moves backwards.
        std::fs::write(&path, "?\n").unwrap();
        assert_eq!(read_appended(path_str, &mut offset), "?\n");
        assert_eq!(offset, 2);
        file.write_all(b"b 0 exact-remove 2\n").unwrap();
        assert_eq!(read_appended(path_str, &mut offset), "b 0 exact-remove 2\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn named_workloads_resolve() {
        for name in ["firewalled-edge", "edge-router"] {
            let (p, props) = named_workload(name).expect("known workload");
            assert!(!p.stages.is_empty());
            assert!(!props.is_empty());
        }
        assert!(named_workload("nonesuch").is_none());
    }

    /// An `Unknown` reason is escaped once: the line carries the
    /// reason's text as a JSON string, not the quoted Debug form of it.
    #[test]
    fn unknown_reason_is_escaped_once() {
        let report = |reason: &str| UpdateReport {
            update: 3,
            touched: Vec::new(),
            reports: vec![verifier::VerifyReport {
                property: "filtering".into(),
                pipeline: "p".into(),
                verdict: Verdict::Unknown(reason.into()),
                step1_states: 0,
                step1_segments: 0,
                suspects: 0,
                composed_paths: 0,
                solver: Default::default(),
                cores: Default::default(),
                summary: Default::default(),
                step1_time: Default::default(),
                step2_time: Default::default(),
            }],
            replayed: vec![false],
            stages_reexecuted: 0,
            stages_rebased: 0,
            step1_time: Default::default(),
            step2_time: Default::default(),
            total_time: Default::default(),
        };
        let line = verdict_line("update", &report("step-2 path budget exceeded"), "");
        assert!(
            line.contains(
                r#"{"property":"filtering","verdict":{"unknown":"step-2 path budget exceeded"}}"#
            ),
            "{line}"
        );
        let line = verdict_line("update", &report("a \"quoted\" reason"), "");
        assert!(
            line.contains(r#"{"unknown":"a \"quoted\" reason"}"#),
            "{line}"
        );
    }
}
