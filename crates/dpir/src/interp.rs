//! The concrete interpreter — the execution engine of the software
//! dataplane.
//!
//! Runs one [`Program`] over one [`PacketData`] against a [`MapRuntime`]
//! (the verifiable data structures of `dataplane::store`, or anything
//! else implementing the Fig. 2 interface). Every instruction costs one
//! unit of fuel; running out of fuel yields [`ExecResult::OutOfFuel`],
//! which is how the dataplane guards against the exact infinite-loop
//! bugs the verifier exists to find (§5.3 bugs #1/#2).

use crate::instr::{BinOp, CastKind, CrashReason, Instr, Operand, Terminator, UnOp};
use crate::program::Program;
use crate::types::{MapId, PortId, Width, META_SLOTS};

/// Masks `v` to `w` bits.
pub(crate) fn mask(w: Width, v: u64) -> u64 {
    if w >= 64 {
        v
    } else {
        v & ((1u64 << w) - 1)
    }
}

/// Sign-extends a `w`-bit value to i64.
pub(crate) fn sext64(w: Width, v: u64) -> i64 {
    let shift = 64 - w;
    ((v << shift) as i64) >> shift
}

/// A packet: its bytes plus the metadata slots that travel with it
/// (paper Table 1: *packet state* — owned by exactly one element at a
/// time; ownership transfer is the `Emit` terminator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketData {
    /// The wire bytes. `bytes.len()` is the packet length.
    pub bytes: Vec<u8>,
    /// Metadata slots (Condition 1 state channel).
    pub meta: [u32; META_SLOTS],
    /// Buffer capacity: `PktPush` beyond this crashes.
    pub capacity: usize,
}

impl PacketData {
    /// A packet with the given bytes and default capacity 2048.
    pub fn new(bytes: Vec<u8>) -> Self {
        PacketData {
            bytes,
            meta: [0; META_SLOTS],
            capacity: 2048,
        }
    }

    /// Packet length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the packet is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Big-endian read of `n` bytes at `off`, if in bounds.
    pub fn read_be(&self, off: usize, n: usize) -> Option<u64> {
        if off + n > self.bytes.len() {
            return None;
        }
        let mut v = 0u64;
        for i in 0..n {
            v = (v << 8) | self.bytes[off + i] as u64;
        }
        Some(v)
    }

    /// Big-endian write of `n` bytes at `off`, if in bounds.
    pub fn write_be(&mut self, off: usize, n: usize, v: u64) -> bool {
        if off + n > self.bytes.len() {
            return false;
        }
        for i in 0..n {
            self.bytes[off + i] = (v >> (8 * (n - 1 - i))) as u8;
        }
        true
    }
}

/// The key/value-store interface of paper Fig. 2, as seen by the
/// interpreter. Keys and values are already fixed-width integers.
pub trait MapRuntime {
    /// `read(key)` → `Some(value)` if present.
    fn read(&mut self, map: MapId, key: u64) -> Option<u64>;
    /// `write(key, value)` → whether the write was accepted.
    fn write(&mut self, map: MapId, key: u64, value: u64) -> bool;
    /// `test(key)` → membership.
    fn test(&mut self, map: MapId, key: u64) -> bool;
    /// `expire(key)` → the pair may be reclaimed.
    fn expire(&mut self, map: MapId, key: u64);
}

/// A map runtime with no storage: reads miss, writes are refused.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullMapRuntime;

impl MapRuntime for NullMapRuntime {
    fn read(&mut self, _map: MapId, _key: u64) -> Option<u64> {
        None
    }
    fn write(&mut self, _map: MapId, _key: u64, _value: u64) -> bool {
        false
    }
    fn test(&mut self, _map: MapId, _key: u64) -> bool {
        false
    }
    fn expire(&mut self, _map: MapId, _key: u64) {}
}

/// How an execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecResult {
    /// Packet emitted on a port.
    Emitted(PortId),
    /// Packet dropped (normal).
    Dropped,
    /// Abnormal termination — the crash-freedom property forbids this.
    Crashed(CrashReason),
    /// Instruction budget exhausted — the bounded-execution property
    /// forbids reaching any configured bound.
    OutOfFuel,
}

/// Result plus cost of one program execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOutcome {
    /// How execution ended.
    pub result: ExecResult,
    /// Instructions executed (terminators count as one).
    pub instrs: u64,
}

/// Executes `prog` on `pkt` with `maps`, spending at most `fuel`
/// instructions.
pub fn run_program(
    prog: &Program,
    pkt: &mut PacketData,
    maps: &mut dyn MapRuntime,
    fuel: u64,
) -> ExecOutcome {
    let mut regs: Vec<u64> = vec![0; prog.reg_widths.len()];
    let mut bb = 0usize;
    let mut count: u64 = 0;

    let val = |regs: &[u64], o: Operand, w: Width| -> u64 {
        match o {
            Operand::Reg(r) => mask(w, regs[r.index()]),
            Operand::Imm(v) => mask(w, v),
        }
    };

    loop {
        let block = &prog.blocks[bb];
        for ins in &block.instrs {
            count += 1;
            if count > fuel {
                return ExecOutcome {
                    result: ExecResult::OutOfFuel,
                    instrs: count,
                };
            }
            match *ins {
                Instr::Bin { op, w, dst, a, b } => {
                    let x = val(&regs, a, w);
                    let y = val(&regs, b, w);
                    if op.can_crash() && y == 0 {
                        return ExecOutcome {
                            result: ExecResult::Crashed(CrashReason::DivByZero),
                            instrs: count,
                        };
                    }
                    regs[dst.index()] = eval_bin(op, w, x, y);
                }
                Instr::Un { op, w, dst, a } => {
                    regs[dst.index()] = eval_un(op, w, val(&regs, a, w));
                }
                Instr::Mov { w, dst, a } => {
                    regs[dst.index()] = val(&regs, a, w);
                }
                Instr::Cast {
                    kind,
                    from,
                    to,
                    dst,
                    a,
                } => {
                    regs[dst.index()] = eval_cast(kind, from, to, val(&regs, a, from));
                }
                Instr::PktLoad { w, dst, off } => {
                    let o = val(&regs, off, 16) as usize;
                    match pkt.read_be(o, (w / 8) as usize) {
                        Some(v) => regs[dst.index()] = v,
                        None => {
                            return ExecOutcome {
                                result: ExecResult::Crashed(CrashReason::OobRead),
                                instrs: count,
                            }
                        }
                    }
                }
                Instr::PktStore { w, off, val: v } => {
                    let o = val(&regs, off, 16) as usize;
                    let x = val(&regs, v, w);
                    if !pkt.write_be(o, (w / 8) as usize, x) {
                        return ExecOutcome {
                            result: ExecResult::Crashed(CrashReason::OobWrite),
                            instrs: count,
                        };
                    }
                }
                Instr::PktLen { dst } => {
                    regs[dst.index()] = pkt.len() as u64;
                }
                Instr::PktPush { n } => {
                    let k = val(&regs, n, 16) as usize;
                    if pkt.len() + k > pkt.capacity {
                        return ExecOutcome {
                            result: ExecResult::Crashed(CrashReason::OobWrite),
                            instrs: count,
                        };
                    }
                    pkt.bytes.splice(0..0, std::iter::repeat_n(0u8, k));
                }
                Instr::PktPull { n } => {
                    let k = val(&regs, n, 16) as usize;
                    if k > pkt.len() {
                        return ExecOutcome {
                            result: ExecResult::Crashed(CrashReason::OobRead),
                            instrs: count,
                        };
                    }
                    pkt.bytes.drain(0..k);
                }
                Instr::MetaLoad { slot, dst } => {
                    regs[dst.index()] = pkt.meta[slot as usize] as u64;
                }
                Instr::MetaStore { slot, val: v } => {
                    pkt.meta[slot as usize] = val(&regs, v, crate::types::META_WIDTH) as u32;
                }
                Instr::MapRead {
                    map,
                    key,
                    found,
                    val: vdst,
                } => {
                    let kw = prog.maps[map.index()].key_width;
                    let k = val(&regs, key, kw);
                    match maps.read(map, k) {
                        Some(v) => {
                            regs[found.index()] = 1;
                            regs[vdst.index()] = mask(prog.maps[map.index()].value_width, v);
                        }
                        None => {
                            regs[found.index()] = 0;
                            regs[vdst.index()] = 0;
                        }
                    }
                }
                Instr::MapWrite {
                    map,
                    key,
                    val: v,
                    ok,
                } => {
                    let d = &prog.maps[map.index()];
                    let k = val(&regs, key, d.key_width);
                    let x = val(&regs, v, d.value_width);
                    regs[ok.index()] = maps.write(map, k, x) as u64;
                }
                Instr::MapTest { map, key, found } => {
                    let kw = prog.maps[map.index()].key_width;
                    let k = val(&regs, key, kw);
                    regs[found.index()] = maps.test(map, k) as u64;
                }
                Instr::MapExpire { map, key } => {
                    let kw = prog.maps[map.index()].key_width;
                    let k = val(&regs, key, kw);
                    maps.expire(map, k);
                }
                Instr::Assert { cond, msg } => {
                    if val(&regs, cond, 1) == 0 {
                        return ExecOutcome {
                            result: ExecResult::Crashed(CrashReason::AssertFailed(msg)),
                            instrs: count,
                        };
                    }
                }
            }
        }
        count += 1;
        if count > fuel {
            return ExecOutcome {
                result: ExecResult::OutOfFuel,
                instrs: count,
            };
        }
        match block.term {
            Terminator::Jump(b) => bb = b.index(),
            Terminator::Branch { cond, then_, else_ } => {
                bb = if val(&regs, cond, 1) == 1 {
                    then_.index()
                } else {
                    else_.index()
                };
            }
            Terminator::Emit(p) => {
                return ExecOutcome {
                    result: ExecResult::Emitted(p),
                    instrs: count,
                }
            }
            Terminator::Drop => {
                return ExecOutcome {
                    result: ExecResult::Dropped,
                    instrs: count,
                }
            }
            Terminator::Crash(r) => {
                return ExecOutcome {
                    result: ExecResult::Crashed(r),
                    instrs: count,
                }
            }
        }
    }
}

/// Concrete semantics of a binary operator (divisor known non-zero).
pub(crate) fn eval_bin(op: BinOp, w: Width, x: u64, y: u64) -> u64 {
    match op {
        BinOp::Add => mask(w, x.wrapping_add(y)),
        BinOp::Sub => mask(w, x.wrapping_sub(y)),
        BinOp::Mul => mask(w, x.wrapping_mul(y)),
        BinOp::UDiv => x / y,
        BinOp::URem => x % y,
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => {
            if y >= w as u64 {
                0
            } else {
                mask(w, x << y)
            }
        }
        BinOp::Lshr => {
            if y >= w as u64 {
                0
            } else {
                x >> y
            }
        }
        BinOp::Eq => (x == y) as u64,
        BinOp::Ne => (x != y) as u64,
        BinOp::Ult => (x < y) as u64,
        BinOp::Ule => (x <= y) as u64,
        BinOp::Slt => (sext64(w, x) < sext64(w, y)) as u64,
        BinOp::Sle => (sext64(w, x) <= sext64(w, y)) as u64,
    }
}

/// Concrete semantics of a unary operator.
pub(crate) fn eval_un(op: UnOp, w: Width, x: u64) -> u64 {
    match op {
        UnOp::Not => mask(w, !x),
        UnOp::Neg => mask(w, x.wrapping_neg()),
    }
}

/// Concrete semantics of a cast from `from` to `to` bits.
pub(crate) fn eval_cast(kind: CastKind, from: Width, to: Width, x: u64) -> u64 {
    match kind {
        CastKind::Zext => mask(from, x),
        CastKind::Sext => mask(to, sext64(from, x) as u64),
        CastKind::Trunc => mask(to, x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn run(prog: &Program, bytes: Vec<u8>) -> (ExecOutcome, PacketData) {
        let mut pkt = PacketData::new(bytes);
        let mut maps = NullMapRuntime;
        let out = run_program(prog, &mut pkt, &mut maps, 10_000);
        (out, pkt)
    }

    #[test]
    fn emit_and_drop() {
        let mut b = ProgramBuilder::new("t");
        let len = b.pkt_len();
        let short = b.ult(16, len, 4u64);
        let (t, e) = b.fork(short);
        let _ = t;
        b.drop_();
        b.switch_to(e);
        b.emit(2);
        let p = b.build().expect("valid");
        assert_eq!(run(&p, vec![0; 2]).0.result, ExecResult::Dropped);
        assert_eq!(run(&p, vec![0; 8]).0.result, ExecResult::Emitted(2));
    }

    #[test]
    fn oob_read_crashes() {
        let mut b = ProgramBuilder::new("t");
        let _v = b.pkt_load(32, 10u64);
        b.emit(0);
        let p = b.build().expect("valid");
        let (out, _) = run(&p, vec![0; 12]);
        assert_eq!(out.result, ExecResult::Crashed(CrashReason::OobRead));
        let (out, _) = run(&p, vec![0; 14]);
        assert_eq!(out.result, ExecResult::Emitted(0));
    }

    #[test]
    fn big_endian_load_store() {
        let mut b = ProgramBuilder::new("t");
        let v = b.pkt_load(16, 0u64);
        let v2 = b.add(16, v, 1u64);
        b.pkt_store(16, 2u64, v2);
        b.emit(0);
        let p = b.build().expect("valid");
        let (out, pkt) = run(&p, vec![0x12, 0x34, 0, 0]);
        assert_eq!(out.result, ExecResult::Emitted(0));
        assert_eq!(&pkt.bytes, &[0x12, 0x34, 0x12, 0x35]);
    }

    #[test]
    fn division_by_zero_crashes() {
        let mut b = ProgramBuilder::new("t");
        let v = b.pkt_load(8, 0u64);
        let _q = b.bin(BinOp::UDiv, 8, 100u64, v);
        b.emit(0);
        let p = b.build().expect("valid");
        let (out, _) = run(&p, vec![0]);
        assert_eq!(out.result, ExecResult::Crashed(CrashReason::DivByZero));
        let (out, _) = run(&p, vec![5]);
        assert_eq!(out.result, ExecResult::Emitted(0));
    }

    #[test]
    fn assert_crashes_with_message() {
        let mut b = ProgramBuilder::new("t");
        let v = b.pkt_load(8, 0u64);
        let ok = b.ne(8, v, 7u64);
        b.assert_(ok, "byte 0 must not be 7");
        b.emit(0);
        let p = b.build().expect("valid");
        let (out, _) = run(&p, vec![7]);
        match out.result {
            ExecResult::Crashed(CrashReason::AssertFailed(m)) => {
                assert_eq!(p.assert_msgs[m as usize], "byte 0 must not be 7");
            }
            other => panic!("expected assert failure, got {other:?}"),
        }
    }

    #[test]
    fn infinite_loop_runs_out_of_fuel() {
        let mut b = ProgramBuilder::new("t");
        let hdr = b.new_block();
        b.jump(hdr);
        b.switch_to(hdr);
        b.jump(hdr);
        let p = b.build().expect("valid");
        let (out, _) = run(&p, vec![0; 4]);
        assert_eq!(out.result, ExecResult::OutOfFuel);
    }

    #[test]
    fn push_pull_roundtrip() {
        let mut b = ProgramBuilder::new("t");
        b.pkt_push(2u64);
        b.pkt_store(16, 0u64, 0xBEEFu64);
        b.pkt_pull(1u64);
        b.emit(0);
        let p = b.build().expect("valid");
        let (out, pkt) = run(&p, vec![0xAA]);
        assert_eq!(out.result, ExecResult::Emitted(0));
        assert_eq!(&pkt.bytes, &[0xEF, 0xAA]);
    }

    #[test]
    fn push_beyond_capacity_crashes() {
        let mut b = ProgramBuilder::new("t");
        b.pkt_push(100u64);
        b.emit(0);
        let p = b.build().expect("valid");
        let mut pkt = PacketData::new(vec![0; 10]);
        pkt.capacity = 50;
        let mut maps = NullMapRuntime;
        let out = run_program(&p, &mut pkt, &mut maps, 1000);
        assert_eq!(out.result, ExecResult::Crashed(CrashReason::OobWrite));
    }

    #[test]
    fn metadata_roundtrip() {
        let mut b = ProgramBuilder::new("t");
        let v = b.meta_load(0);
        let v2 = b.add(32, v, 5u64);
        b.meta_store(1, v2);
        b.emit(0);
        let p = b.build().expect("valid");
        let mut pkt = PacketData::new(vec![0; 4]);
        pkt.meta[0] = 37;
        let mut maps = NullMapRuntime;
        let out = run_program(&p, &mut pkt, &mut maps, 1000);
        assert_eq!(out.result, ExecResult::Emitted(0));
        assert_eq!(pkt.meta[1], 42);
    }

    #[test]
    fn instruction_count_exact() {
        let mut b = ProgramBuilder::new("t");
        let _a = b.mov(8, 1u64);
        let _b = b.mov(8, 2u64);
        b.emit(0);
        let p = b.build().expect("valid");
        let (out, _) = run(&p, vec![]);
        assert_eq!(out.instrs, 3); // 2 movs + terminator
    }
}
