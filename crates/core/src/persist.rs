//! Versioned binary codec behind the persistent store: step-1 stage
//! summaries, one content-addressed file each.
//!
//! ## Format
//!
//! Every file is `magic "DPVS" · version · kind · key echo ·
//! payload-length · FNV-1a-64 checksum · payload`, all little-endian.
//! The key echo repeats the content address the *filename* claims
//! (the [`SummaryKey`] fingerprints), so a renamed or hash-colliding
//! file cannot impersonate another entry. The payload serializes the
//! reachable term-DAG of the entry: the var table in creation order,
//! then one record per term in
//! pool index order (children always precede parents — the pool is an
//! append-only arena), then the entry body referencing terms by dense
//! index.
//!
//! ## Why decode cannot produce wrong answers
//!
//! Every failure mode degrades to a cache **miss**, never a wrong
//! summary:
//!
//! * truncation, bit flips and stale versions are caught by the
//!   header checks and the payload checksum;
//! * even a checksum-colliding payload is then structurally validated
//!   record by record (widths in `1..=64`, child indices strictly
//!   below the record, ITE conditions width 1, extension/extract/
//!   concat bounds, var records in creation order) before any pool
//!   constructor runs;
//! * a summary that decodes is replayed through the same
//!   [`TermPool`] constructors that built it, which reproduces the
//!   saved compacted pool **byte for byte**: every stored term was
//!   interned by the constructor for its own operator (top-level
//!   imports and simplification byproducts alike), constructor
//!   decisions depend only on the operand terms — identical by
//!   induction over the record order — and a record exists at all
//!   only because its constructor interned rather than simplified it.
//!   A loaded entry is therefore indistinguishable from the entry
//!   that was written, and sessions rebase from it through
//!   [`import_summary`] exactly as from an in-memory hit — so disk
//!   hits, memory hits and fresh executions all build byte-identical
//!   session pools.

use crate::summary::{MapMode, StoredStage, SummaryKey};
use bvsolve::{BinOp, Term, TermId, TermPool, UnOp, Width};
use dpir::CrashReason;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use symexec::{MapOpKind, MapOpRecord, SegOutcome, Segment, SymInput};

const MAGIC: &[u8; 4] = b"DPVS";
/// Bumped on any change to the encoding; mismatched files are misses.
/// Version 2 dropped each segment's list of statically assumed facts.
const VERSION: u32 = 2;
/// The header's entry-kind byte. Summaries are the only kind; the byte
/// stays so files keep their layout.
const KIND_SUMMARY: u8 = 0;

/// Why a store file was rejected (logged, then treated as a miss).
#[derive(Debug)]
pub(crate) enum StoreFileError {
    /// The file does not match the expected header or payload shape.
    Corrupt(&'static str),
}

impl std::fmt::Display for StoreFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreFileError::Corrupt(what) => write!(f, "corrupt store file: {what}"),
        }
    }
}

type DecodeResult<T> = Result<T, StoreFileError>;

fn corrupt<T>(what: &'static str) -> DecodeResult<T> {
    Err(StoreFileError::Corrupt(what))
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

// ----------------------------------------------------------------------
// Byte-level writer / reader
// ----------------------------------------------------------------------

#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn idx(&mut self, t: TermId) {
        self.u32(t.index() as u32);
    }
    fn idx_list(&mut self, ts: &[TermId]) {
        self.u32(ts.len() as u32);
        for &t in ts {
            self.idx(t);
        }
    }
    fn var_list(&mut self, vs: &[u32]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u32(v);
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return corrupt("truncated");
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn str(&mut self) -> DecodeResult<String> {
        let n = self.u32()? as usize;
        match std::str::from_utf8(self.take(n)?) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => corrupt("non-utf8 string"),
        }
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ----------------------------------------------------------------------
// Term pool section
// ----------------------------------------------------------------------

/// The on-disk code of each unary operator is its index here.
const UNOPS: [UnOp; 2] = [UnOp::Not, UnOp::Neg];

/// The on-disk code of each binary operator is its index here.
const BINOPS: [BinOp; 15] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::UDiv,
    BinOp::URem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Lshr,
    BinOp::Eq,
    BinOp::Ult,
    BinOp::Ule,
    BinOp::Slt,
    BinOp::Sle,
];

/// The code of `op`: its index in `table`, which lists every value.
fn op_code<T: PartialEq>(table: &[T], op: T) -> u8 {
    table
        .iter()
        .position(|o| *o == op)
        .expect("every operator has a code") as u8
}

/// The operator `table` lists at `code`.
fn op_from<T: Copy>(table: &[T], code: u8, what: &'static str) -> DecodeResult<T> {
    table
        .get(usize::from(code))
        .copied()
        .map_or_else(|| corrupt(what), Ok)
}

/// Serializes `pool` whole: var table in creation order, then one
/// record per term in index order (already topological).
fn encode_pool(e: &mut Enc, pool: &TermPool) {
    e.u32(pool.num_vars() as u32);
    for id in 0..pool.num_vars() as u32 {
        e.str(pool.var_name(id));
        e.u32(pool.var_width(id));
    }
    e.u32(pool.len() as u32);
    for i in 0..pool.len() {
        match *pool.get(pool.term_id(i)) {
            Term::Const { width, value } => {
                e.u8(0);
                e.u32(width);
                e.u64(value);
            }
            Term::Var { id, .. } => {
                e.u8(1);
                e.u32(id);
            }
            Term::Unary(op, a) => {
                e.u8(2);
                e.u8(op_code(&UNOPS, op));
                e.idx(a);
            }
            Term::Binary(op, a, b) => {
                e.u8(3);
                e.u8(op_code(&BINOPS, op));
                e.idx(a);
                e.idx(b);
            }
            Term::Ite(c, a, b) => {
                e.u8(4);
                e.idx(c);
                e.idx(a);
                e.idx(b);
            }
            Term::ZExt(a, w) => {
                e.u8(5);
                e.idx(a);
                e.u32(w);
            }
            Term::SExt(a, w) => {
                e.u8(6);
                e.idx(a);
                e.u32(w);
            }
            Term::Extract { hi, lo, arg } => {
                e.u8(7);
                e.u32(hi);
                e.u32(lo);
                e.idx(arg);
            }
            Term::Concat(a, b) => {
                e.u8(8);
                e.idx(a);
                e.idx(b);
            }
        }
    }
}

/// Decoded pool plus the record-index → [`TermId`] map (identity for a
/// faithful file; the map exists so even a checksum-colliding record
/// stream that replays into a simplified term still yields *valid*
/// references rather than out-of-pool ids).
struct DecodedPool {
    pool: TermPool,
    map: Vec<TermId>,
    n_vars: usize,
}

impl DecodedPool {
    /// Resolves a record index read from the entry body.
    fn term(&self, d: &mut Dec<'_>) -> DecodeResult<TermId> {
        let i = d.u32()? as usize;
        match self.map.get(i) {
            Some(&t) => Ok(t),
            None => corrupt("term reference out of range"),
        }
    }

    fn term_list(&self, d: &mut Dec<'_>) -> DecodeResult<Vec<TermId>> {
        let n = d.u32()? as usize;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(self.term(d)?);
        }
        Ok(out)
    }

    fn var(&self, d: &mut Dec<'_>) -> DecodeResult<u32> {
        let v = d.u32()?;
        if (v as usize) < self.n_vars {
            Ok(v)
        } else {
            corrupt("var reference out of range")
        }
    }

    fn var_list(&self, d: &mut Dec<'_>) -> DecodeResult<Vec<u32>> {
        let n = d.u32()? as usize;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(self.var(d)?);
        }
        Ok(out)
    }
}

/// Replays a pool section into a fresh pool, validating every record
/// **before** calling the constructor (the constructors `debug_assert`
/// their preconditions, so a malformed record must never reach one).
fn decode_pool(d: &mut Dec<'_>) -> DecodeResult<DecodedPool> {
    let n_vars = d.u32()? as usize;
    let mut vars: Vec<(String, Width)> = Vec::new();
    for _ in 0..n_vars {
        let name = d.str()?;
        let w = d.u32()?;
        if !(1..=bvsolve::MAX_WIDTH).contains(&w) {
            return corrupt("bad var width");
        }
        vars.push((name, w));
    }
    let n_terms = d.u32()? as usize;
    let mut pool = TermPool::new();
    let mut map: Vec<TermId> = Vec::new();
    // Structural width per *record* (== pool width of the mapped term:
    // simplification never changes a term's width).
    let mut widths: Vec<Width> = Vec::new();
    let mut vars_made = 0usize;
    for i in 0..n_terms {
        let child = |d: &mut Dec<'_>| -> DecodeResult<usize> {
            let c = d.u32()? as usize;
            if c >= i {
                return corrupt("child index not below record");
            }
            Ok(c)
        };
        let (t, w) = match d.u8()? {
            0 => {
                let w = d.u32()?;
                let value = d.u64()?;
                if !(1..=bvsolve::MAX_WIDTH).contains(&w) {
                    return corrupt("bad const width");
                }
                (pool.mk_const(w, value), w)
            }
            1 => {
                let id = d.u32()? as usize;
                // Var terms must appear in creation order, one per var
                // table entry — that is the only trajectory
                // `fresh_var` can replay.
                if id != vars_made || id >= n_vars {
                    return corrupt("var record out of order");
                }
                let (name, w) = &vars[id];
                vars_made += 1;
                (pool.fresh_var(name, *w), *w)
            }
            2 => {
                let op = op_from(&UNOPS, d.u8()?, "bad unary op")?;
                let a = child(d)?;
                (pool.mk_unary(op, map[a]), widths[a])
            }
            3 => {
                let op = op_from(&BINOPS, d.u8()?, "bad binary op")?;
                let a = child(d)?;
                let b = child(d)?;
                if widths[a] != widths[b] {
                    return corrupt("binary width mismatch");
                }
                let w = if op.is_comparison() { 1 } else { widths[a] };
                (pool.mk_binary(op, map[a], map[b]), w)
            }
            4 => {
                let c = child(d)?;
                let a = child(d)?;
                let b = child(d)?;
                if widths[c] != 1 || widths[a] != widths[b] {
                    return corrupt("ite width mismatch");
                }
                (pool.mk_ite(map[c], map[a], map[b]), widths[a])
            }
            5 | 6 => {
                let tag = d.buf[d.pos - 1];
                let a = child(d)?;
                let w = d.u32()?;
                if w < widths[a] || w > bvsolve::MAX_WIDTH {
                    return corrupt("bad extension width");
                }
                let t = if tag == 5 {
                    pool.mk_zext(map[a], w)
                } else {
                    pool.mk_sext(map[a], w)
                };
                (t, w)
            }
            7 => {
                let hi = d.u32()?;
                let lo = d.u32()?;
                let a = child(d)?;
                if lo > hi || hi >= widths[a] {
                    return corrupt("bad extract bounds");
                }
                (pool.mk_extract(map[a], hi, lo), hi - lo + 1)
            }
            8 => {
                let a = child(d)?;
                let b = child(d)?;
                if widths[a] + widths[b] > bvsolve::MAX_WIDTH {
                    return corrupt("concat too wide");
                }
                (pool.mk_concat(map[a], map[b]), widths[a] + widths[b])
            }
            _ => return corrupt("bad term tag"),
        };
        map.push(t);
        widths.push(w);
    }
    if vars_made != n_vars {
        return corrupt("unused var table entries");
    }
    Ok(DecodedPool { pool, map, n_vars })
}

// ----------------------------------------------------------------------
// Summary entry body
// ----------------------------------------------------------------------

fn encode_input(e: &mut Enc, input: &SymInput) {
    e.idx_list(&input.pkt_bytes);
    e.idx(input.pkt_len);
    e.idx_list(&input.meta);
    e.var_list(&input.pkt_byte_vars);
    e.u32(input.len_var);
    e.var_list(&input.meta_vars);
    e.idx_list(&input.base_constraints);
}

fn decode_input(d: &mut Dec<'_>, p: &DecodedPool) -> DecodeResult<SymInput> {
    Ok(SymInput {
        pkt_bytes: p.term_list(d)?,
        pkt_len: p.term(d)?,
        meta: p.term_list(d)?,
        pkt_byte_vars: p.var_list(d)?,
        len_var: p.var(d)?,
        meta_vars: p.var_list(d)?,
        base_constraints: p.term_list(d)?,
    })
}

fn encode_outcome(e: &mut Enc, outcome: SegOutcome) {
    match outcome {
        SegOutcome::Emit(port) => {
            e.u8(0);
            e.u8(port);
        }
        SegOutcome::Drop => e.u8(1),
        SegOutcome::Crash(reason) => {
            e.u8(2);
            match reason {
                CrashReason::AssertFailed(i) => {
                    e.u8(0);
                    e.u32(i);
                }
                CrashReason::OobRead => e.u8(1),
                CrashReason::OobWrite => e.u8(2),
                CrashReason::DivByZero => e.u8(3),
                CrashReason::Explicit(i) => {
                    e.u8(4);
                    e.u32(i);
                }
            }
        }
        SegOutcome::FuelExhausted => e.u8(3),
    }
}

fn decode_outcome(d: &mut Dec<'_>) -> DecodeResult<SegOutcome> {
    Ok(match d.u8()? {
        0 => SegOutcome::Emit(d.u8()?),
        1 => SegOutcome::Drop,
        2 => SegOutcome::Crash(match d.u8()? {
            0 => CrashReason::AssertFailed(d.u32()?),
            1 => CrashReason::OobRead,
            2 => CrashReason::OobWrite,
            3 => CrashReason::DivByZero,
            4 => CrashReason::Explicit(d.u32()?),
            _ => return corrupt("bad crash reason"),
        }),
        3 => SegOutcome::FuelExhausted,
        _ => return corrupt("bad segment outcome"),
    })
}

fn encode_opt_var(e: &mut Enc, v: Option<u32>) {
    match v {
        Some(v) => {
            e.u8(1);
            e.u32(v);
        }
        None => e.u8(0),
    }
}

fn decode_opt_var(d: &mut Dec<'_>, p: &DecodedPool) -> DecodeResult<Option<u32>> {
    Ok(match d.u8()? {
        0 => None,
        1 => Some(p.var(d)?),
        _ => return corrupt("bad option flag"),
    })
}

fn encode_segment(e: &mut Enc, seg: &Segment) {
    e.idx_list(&seg.constraint);
    encode_outcome(e, seg.outcome);
    e.idx_list(&seg.pkt_out);
    e.idx(seg.len_out);
    e.idx_list(&seg.meta_out);
    e.u64(seg.instrs);
    e.u32(seg.map_ops.len() as u32);
    for op in &seg.map_ops {
        e.u32(op.map.0);
        e.u8(match op.kind {
            MapOpKind::Read => 0,
            MapOpKind::Write => 1,
            MapOpKind::Test => 2,
            MapOpKind::Expire => 3,
        });
        e.idx(op.key);
        match op.value {
            Some(v) => {
                e.u8(1);
                e.idx(v);
            }
            None => e.u8(0),
        }
        encode_opt_var(e, op.havoc_value_var);
        encode_opt_var(e, op.havoc_flag_var);
    }
}

fn decode_segment(d: &mut Dec<'_>, p: &DecodedPool) -> DecodeResult<Segment> {
    let constraint = p.term_list(d)?;
    let outcome = decode_outcome(d)?;
    let pkt_out = p.term_list(d)?;
    let len_out = p.term(d)?;
    let meta_out = p.term_list(d)?;
    let instrs = d.u64()?;
    let n_ops = d.u32()? as usize;
    let mut map_ops = Vec::new();
    for _ in 0..n_ops {
        let map = dpir::MapId(d.u32()?);
        let kind = match d.u8()? {
            0 => MapOpKind::Read,
            1 => MapOpKind::Write,
            2 => MapOpKind::Test,
            3 => MapOpKind::Expire,
            _ => return corrupt("bad map op kind"),
        };
        let key = p.term(d)?;
        let value = match d.u8()? {
            0 => None,
            1 => Some(p.term(d)?),
            _ => return corrupt("bad option flag"),
        };
        map_ops.push(MapOpRecord {
            map,
            kind,
            key,
            value,
            havoc_value_var: decode_opt_var(d, p)?,
            havoc_flag_var: decode_opt_var(d, p)?,
        });
    }
    Ok(Segment {
        constraint,
        outcome,
        pkt_out,
        len_out,
        meta_out,
        instrs,
        map_ops,
    })
}

// ----------------------------------------------------------------------
// File framing
// ----------------------------------------------------------------------

fn finish_file(key_echo: &[u8], payload: Vec<u8>) -> Vec<u8> {
    let mut f = Enc::default();
    f.buf.extend_from_slice(MAGIC);
    f.u32(VERSION);
    f.u8(KIND_SUMMARY);
    f.buf.extend_from_slice(key_echo);
    f.u64(payload.len() as u64);
    f.u64(fnv64(&payload));
    f.buf.extend_from_slice(&payload);
    f.buf
}

/// Checks the frame and returns a decoder over the verified payload.
fn open_file<'a>(bytes: &'a [u8], key_echo: &[u8]) -> DecodeResult<Dec<'a>> {
    let mut d = Dec::new(bytes);
    if d.take(4)? != MAGIC {
        return corrupt("bad magic");
    }
    if d.u32()? != VERSION {
        return corrupt("unsupported format version");
    }
    if d.u8()? != KIND_SUMMARY {
        return corrupt("wrong entry kind");
    }
    if d.take(key_echo.len())? != key_echo {
        return corrupt("key echo does not match the requested entry");
    }
    let payload_len = d.u64()? as usize;
    let checksum = d.u64()?;
    let payload = d.take(payload_len)?;
    if !d.done() {
        return corrupt("trailing bytes");
    }
    if fnv64(payload) != checksum {
        return corrupt("checksum mismatch");
    }
    Ok(Dec::new(payload))
}

fn mode_byte(mode: MapMode) -> u8 {
    match mode {
        MapMode::Abstract => 0,
        MapMode::Tables => 1,
    }
}

fn mode_char(mode: MapMode) -> char {
    match mode {
        MapMode::Abstract => 'a',
        MapMode::Tables => 't',
    }
}

fn summary_key_echo(key: &SummaryKey) -> Vec<u8> {
    let mut e = Enc::default();
    e.u128(key.program);
    e.u8(mode_byte(key.mode));
    e.u128(key.tables);
    e.u128(key.sym);
    e.buf
}

pub(crate) fn summary_file_name(key: &SummaryKey) -> String {
    format!(
        "s-{:032x}-{}-{:032x}-{:032x}.dpvs",
        key.program,
        mode_char(key.mode),
        key.tables,
        key.sym
    )
}

/// Atomic publish: write to a temp file in `dir` that no other call
/// shares (pid across processes, a process-wide counter across the
/// threads of one), then rename over the final name. Readers only ever
/// see complete files; with a shared temp path one racing writer could
/// rename away, or publish, a file another is still writing.
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    // Relaxed: the counter only has to hand out distinct values.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = dir.join(format!(
        ".{}.tmp.{}.{}",
        name,
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, bytes)?;
    match std::fs::rename(&tmp, dir.join(name)) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

// ----------------------------------------------------------------------
// Summary files
// ----------------------------------------------------------------------

pub(crate) fn encode_summary(key: &SummaryKey, stage: &StoredStage) -> Vec<u8> {
    let mut p = Enc::default();
    encode_pool(&mut p, &stage.pool);
    encode_input(&mut p, &stage.input);
    p.u32(stage.segments.len() as u32);
    for seg in &stage.segments {
        encode_segment(&mut p, seg);
    }
    p.u64(stage.states as u64);
    finish_file(&summary_key_echo(key), p.buf)
}

pub(crate) fn decode_summary(bytes: &[u8], key: &SummaryKey) -> DecodeResult<StoredStage> {
    let mut d = open_file(bytes, &summary_key_echo(key))?;
    let decoded = decode_pool(&mut d)?;
    let input = decode_input(&mut d, &decoded)?;
    let n_segs = d.u32()? as usize;
    let mut segments = Vec::new();
    for _ in 0..n_segs {
        segments.push(decode_segment(&mut d, &decoded)?);
    }
    let states = d.u64()? as usize;
    if !d.done() {
        return corrupt("trailing payload bytes");
    }
    // The replayed pool *is* the saved compacted pool, byte for byte
    // (each record replays through the constructor that interned it;
    // see the module docs), so this entry is indistinguishable from
    // the one that was written and sessions rebase from it through
    // [`import_summary`] exactly as from an in-memory hit. No
    // re-normalization happens here — `import_summary` is only
    // guaranteed stable *from* a compacted pool, not idempotent on
    // one (simplification byproducts would re-order).
    Ok(StoredStage {
        pool: decoded.pool,
        input,
        segments,
        states,
    })
}

/// Loads the summary for `key` from `dir`. Any failure other than the
/// file simply not existing is logged; every failure is a miss.
pub(crate) fn load_summary(dir: &Path, key: &SummaryKey) -> Option<(StoredStage, u64)> {
    let path = dir.join(summary_file_name(key));
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
        Err(e) => {
            eprintln!("dpv-store: cannot read {}: {e}", path.display());
            return None;
        }
    };
    match decode_summary(&bytes, key) {
        Ok(stage) => Some((stage, bytes.len() as u64)),
        Err(e) => {
            eprintln!("dpv-store: ignoring {}: {e}", path.display());
            None
        }
    }
}

/// Writes the summary for `key` into `dir`; returns whether it landed
/// (failures are logged and non-fatal — the store stays memory-only
/// for that entry).
pub(crate) fn save_summary(dir: &Path, key: &SummaryKey, stage: &StoredStage) -> bool {
    let bytes = encode_summary(key, stage);
    match write_atomic(dir, &summary_file_name(key), &bytes) {
        Ok(()) => true,
        Err(e) => {
            eprintln!(
                "dpv-store: cannot write {}: {e}",
                dir.join(summary_file_name(key)).display()
            );
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use symexec::SymConfig;

    /// Every operator code a version-2 file may hold, as the format
    /// first numbered them: a table edit that moves one fails here,
    /// not in a store that reads old files as other operators.
    #[test]
    fn operator_codes_are_pinned() {
        let unops = [(UnOp::Not, 0u8), (UnOp::Neg, 1)];
        let binops = [
            (BinOp::Add, 0u8),
            (BinOp::Sub, 1),
            (BinOp::Mul, 2),
            (BinOp::UDiv, 3),
            (BinOp::URem, 4),
            (BinOp::And, 5),
            (BinOp::Or, 6),
            (BinOp::Xor, 7),
            (BinOp::Shl, 8),
            (BinOp::Lshr, 9),
            (BinOp::Eq, 10),
            (BinOp::Ult, 11),
            (BinOp::Ule, 12),
            (BinOp::Slt, 13),
            (BinOp::Sle, 14),
        ];
        assert_eq!(VERSION, 2);
        for (op, code) in unops {
            assert_eq!(op_code(&UNOPS, op), code, "{op:?}");
            assert_eq!(op_from(&UNOPS, code, "").ok(), Some(op));
        }
        for (op, code) in binops {
            assert_eq!(op_code(&BINOPS, op), code, "{op:?}");
            assert_eq!(op_from(&BINOPS, code, "").ok(), Some(op));
        }
        assert!(op_from(&UNOPS, 2, "bad unary op").is_err());
        assert!(op_from(&BINOPS, 15, "bad binary op").is_err());
    }

    fn sample_key() -> SummaryKey {
        SummaryKey {
            program: 0x1234_5678_9abc_def0_1111_2222_3333_4444,
            mode: MapMode::Tables,
            tables: 7,
            sym: 42,
        }
    }

    /// A real stage summary to roundtrip (DecTTL under the default
    /// config: small but exercises vars, ites, extracts, crash
    /// segments).
    fn sample_stage() -> (SummaryKey, Arc<StoredStage>) {
        let e = elements::dec_ttl::dec_ttl();
        let cfg = SymConfig {
            max_pkt_bytes: 48,
            ..Default::default()
        };
        let store = crate::SummaryStore::new();
        let key = SummaryKey::of(&e, MapMode::Abstract, &cfg);
        let (stage, _) = store.stage(key, &e, &cfg).expect("ok");
        (key, stage)
    }

    fn pool_fingerprint(p: &TermPool) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for id in 0..p.num_vars() as u32 {
            writeln!(s, "v {} {}", p.var_name(id), p.var_width(id)).unwrap();
        }
        for i in 0..p.len() {
            writeln!(s, "{:?}", p.get(p.term_id(i))).unwrap();
        }
        s
    }

    #[test]
    fn summary_roundtrips_byte_identically() {
        let (key, stage) = sample_stage();
        let bytes = encode_summary(&key, &stage);
        let back = decode_summary(&bytes, &key).expect("decodes");
        assert_eq!(pool_fingerprint(&back.pool), pool_fingerprint(&stage.pool));
        assert_eq!(back.states, stage.states);
        assert_eq!(back.segments.len(), stage.segments.len());
        for (a, b) in back.segments.iter().zip(&stage.segments) {
            assert_eq!(a.constraint, b.constraint);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.pkt_out, b.pkt_out);
            assert_eq!(a.len_out, b.len_out);
        }
        assert_eq!(back.input.pkt_byte_vars, stage.input.pkt_byte_vars);
        assert_eq!(back.input.pkt_len, stage.input.pkt_len);
        // Re-encoding the decoded stage reproduces the file exactly.
        assert_eq!(encode_summary(&key, &back), bytes);
    }

    #[test]
    fn header_tampering_is_rejected() {
        let (key, stage) = sample_stage();
        let bytes = encode_summary(&key, &stage);

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(decode_summary(&wrong_magic, &key).is_err());

        let mut bumped = bytes.clone();
        bumped[4] = bumped[4].wrapping_add(1); // version LE byte 0
        assert!(decode_summary(&bumped, &key).is_err());

        // A file for one key must not decode for another.
        let other = sample_key();
        assert!(decode_summary(&bytes, &other).is_err());
    }

    #[test]
    fn every_truncation_is_rejected_not_panicking() {
        let (key, stage) = sample_stage();
        let bytes = encode_summary(&key, &stage);
        // Exhaustive on short prefixes, sampled beyond.
        for n in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
            assert!(
                decode_summary(&bytes[..n], &key).is_err(),
                "prefix of {n} bytes must not decode"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected_or_identical() {
        let (key, stage) = sample_stage();
        let bytes = encode_summary(&key, &stage);
        let reference = pool_fingerprint(&stage.pool);
        // Fuzz-style sweep: flip one bit at a time across the whole
        // image. Every flip must either fail to decode (the expected
        // outcome: header checks + checksum) or — if it ever survived
        // — decode to the identical summary. It must never panic.
        let step = (bytes.len() / 997).max(1);
        for byte in (0..bytes.len()).step_by(step) {
            for bit in 0..8 {
                let mut img = bytes.clone();
                img[byte] ^= 1 << bit;
                match decode_summary(&img, &key) {
                    Err(_) => {}
                    Ok(back) => {
                        assert_eq!(pool_fingerprint(&back.pool), reference);
                    }
                }
            }
        }
    }

    #[test]
    fn malformed_payloads_fail_validation_before_constructors() {
        // Handcraft payloads that pass the frame (we recompute the
        // checksum) but violate structural invariants; each must be a
        // clean decode error even under debug assertions.
        let key = sample_key();
        let frame = |payload: Vec<u8>| finish_file(&summary_key_echo(&key), payload);
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("zero-width const", {
                let mut e = Enc::default();
                e.u32(0); // vars
                e.u32(1); // terms
                e.u8(0); // const
                e.u32(0); // width 0
                e.u64(1);
                e.buf
            }),
            ("forward child reference", {
                let mut e = Enc::default();
                e.u32(0);
                e.u32(1);
                e.u8(2); // unary
                e.u8(0); // not
                e.u32(0); // child 0 == self
                e.buf
            }),
            ("ite with wide condition", {
                let mut e = Enc::default();
                e.u32(0);
                e.u32(3);
                e.u8(0);
                e.u32(8);
                e.u64(1); // const w8
                e.u8(0);
                e.u32(8);
                e.u64(2);
                e.u8(4); // ite(c=0,a=1,b=1): cond width 8
                e.u32(0);
                e.u32(1);
                e.u32(1);
                e.buf
            }),
            ("extract beyond width", {
                let mut e = Enc::default();
                e.u32(0);
                e.u32(2);
                e.u8(0);
                e.u32(8);
                e.u64(1);
                e.u8(7); // extract hi=9 lo=0 of w8
                e.u32(9);
                e.u32(0);
                e.u32(0);
                e.buf
            }),
            ("var out of creation order", {
                let mut e = Enc::default();
                e.u32(2); // two vars in the table
                e.str("x");
                e.u32(8);
                e.str("y");
                e.u32(8);
                e.u32(1);
                e.u8(1); // var record id 1 first
                e.u32(1);
                e.buf
            }),
            ("concat overflowing max width", {
                let mut e = Enc::default();
                e.u32(0);
                e.u32(3);
                e.u8(0);
                e.u32(64);
                e.u64(1);
                e.u8(0);
                e.u32(64);
                e.u64(2);
                e.u8(8);
                e.u32(0);
                e.u32(1);
                e.buf
            }),
        ];
        for (what, payload) in cases {
            assert!(
                decode_summary(&frame(payload), &key).is_err(),
                "{what} must be rejected"
            );
        }
    }

    #[test]
    fn racing_writers_of_one_key_each_publish_a_complete_file() {
        const WRITERS: usize = 4;
        const ROUNDS: usize = 200;
        let (key, stage) = sample_stage();
        let dir = std::env::temp_dir().join(format!("dpv-persist-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let published = dir.join(summary_file_name(&key));
        let barrier = std::sync::Barrier::new(WRITERS);
        // Failures are counted, not asserted, inside the threads: a
        // writer that panicked would leave the rest at the barrier.
        let (lost, incomplete) = std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|_| {
                    s.spawn(|| {
                        let (mut lost, mut incomplete) = (0, 0);
                        for _ in 0..ROUNDS {
                            // All writers enter each round together, so
                            // their write/rename windows overlap.
                            barrier.wait();
                            if !save_summary(&dir, &key, &stage) {
                                lost += 1;
                            }
                            let decodes = std::fs::read(&published)
                                .is_ok_and(|bytes| decode_summary(&bytes, &key).is_ok());
                            if !decodes {
                                incomplete += 1;
                            }
                        }
                        (lost, incomplete)
                    })
                })
                .collect();
            writers
                .into_iter()
                .map(|w| w.join().expect("writer panicked"))
                .fold((0, 0), |(l, i), (dl, di)| (l + dl, i + di))
        });
        assert_eq!(lost, 0, "racing saves must all land");
        assert_eq!(incomplete, 0, "readers must only see complete files");
        let left: Vec<_> = std::fs::read_dir(&dir)
            .expect("scratch dir")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        assert_eq!(left, [published.file_name().expect("file name")]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_names_are_distinct_per_key() {
        let a = sample_key();
        let mut b = a;
        b.tables ^= 1;
        assert_ne!(summary_file_name(&a), summary_file_name(&b));
        let mut c = a;
        c.mode = MapMode::Abstract;
        assert_ne!(summary_file_name(&a), summary_file_name(&c));
    }
}
