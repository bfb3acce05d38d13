//! A fluent builder for IR programs.
//!
//! Elements in the `elements` crate are authored against this API. The
//! builder tracks the "current block"; instruction emitters append to it
//! and terminator emitters seal it. `build()` validates the result.
//!
//! ```
//! use dpir::{ProgramBuilder, BinOp, Operand};
//!
//! // An element that drops packets shorter than 20 bytes.
//! let mut b = ProgramBuilder::new("min_len");
//! let len = b.pkt_len();
//! let short = b.bin(BinOp::Ult, 16, len, 20u64);
//! let (drop_bb, pass_bb) = (b.new_block(), b.new_block());
//! b.branch(short, drop_bb, pass_bb);
//! b.switch_to(drop_bb);
//! b.drop_();
//! b.switch_to(pass_bb);
//! b.emit(0);
//! let prog = b.build().expect("valid");
//! assert_eq!(prog.blocks.len(), 3);
//! ```

use crate::instr::{BinOp, Instr, Operand, Terminator, UnOp};
use crate::program::{Block, MapDecl, Program, ValidateError};
use crate::types::{BlockId, MapId, PortId, Reg, Width};

/// Error returned by [`ProgramBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A block was never given a terminator.
    UnterminatedBlock(BlockId),
    /// Structural validation failed.
    Invalid(ValidateError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnterminatedBlock(b) => write!(f, "block {b} has no terminator"),
            BuildError::Invalid(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder state for one [`Program`].
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    blocks: Vec<(Vec<Instr>, Option<Terminator>)>,
    reg_widths: Vec<Width>,
    maps: Vec<MapDecl>,
    assert_msgs: Vec<String>,
    cur: BlockId,
    /// Whether each register has been written by an already-emitted
    /// instruction (debug-build invariant checking only).
    written: Vec<bool>,
}

impl ProgramBuilder {
    /// Starts a program; the entry block is current.
    pub fn new(name: &str) -> Self {
        ProgramBuilder {
            name: name.to_string(),
            blocks: vec![(Vec::new(), None)],
            reg_widths: Vec::new(),
            maps: Vec::new(),
            assert_msgs: Vec::new(),
            cur: BlockId(0),
            written: Vec::new(),
        }
    }

    /// Allocates a register of width `w`.
    pub fn reg(&mut self, w: Width) -> Reg {
        let r = Reg(self.reg_widths.len() as u32);
        self.reg_widths.push(w);
        self.written.push(false);
        r
    }

    /// Creates a new (unterminated) block and returns its id; the
    /// current block is unchanged.
    pub fn new_block(&mut self) -> BlockId {
        let b = BlockId(self.blocks.len() as u32);
        self.blocks.push((Vec::new(), None));
        b
    }

    /// Makes `b` the current block for subsequent instructions.
    pub fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
    }

    /// The current block.
    pub fn current(&self) -> BlockId {
        self.cur
    }

    /// Declares a map and returns its id.
    pub fn map(&mut self, decl: MapDecl) -> MapId {
        let m = MapId(self.maps.len() as u32);
        self.maps.push(decl);
        m
    }

    fn push(&mut self, i: Instr) {
        let cur = self.cur.index();
        debug_assert!(
            self.blocks[cur].1.is_none(),
            "appending to a sealed block in {}",
            self.name
        );
        self.check_reads(&i);
        for r in instr_writes(&i) {
            self.written[r.index()] = true;
        }
        self.blocks[cur].0.push(i);
    }

    /// Debug-build invariant: every register an instruction reads must
    /// have been written by some earlier-emitted instruction. Elements
    /// are emitted entry-first, so emission order is a conservative
    /// over-approximation of execution order — reading a register no
    /// emitted instruction has defined is always an authoring bug
    /// (silently reading the executor's zero initialization).
    fn check_reads(&self, i: &Instr) {
        if cfg!(debug_assertions) {
            for o in instr_reads(i) {
                if let Operand::Reg(r) = o {
                    debug_assert!(
                        self.written[r.index()],
                        "register {r} read before any write in {} ({i:?})",
                        self.name
                    );
                }
            }
        }
    }

    fn seal(&mut self, t: Terminator) {
        let cur = self.cur.index();
        debug_assert!(
            self.blocks[cur].1.is_none(),
            "double terminator in {}",
            self.name
        );
        match t {
            Terminator::Jump(b) => self.check_target(b),
            Terminator::Branch { cond, then_, else_ } => {
                if let Operand::Reg(r) = cond {
                    debug_assert!(
                        self.written[r.index()],
                        "branch condition {r} read before any write in {}",
                        self.name
                    );
                }
                self.check_target(then_);
                self.check_target(else_);
            }
            _ => {}
        }
        self.blocks[cur].1 = Some(t);
    }

    /// Debug-build invariant: terminator targets must name blocks that
    /// already exist (the builder only hands out ids it allocated, so
    /// an out-of-range id is a hand-constructed `BlockId`).
    fn check_target(&self, b: BlockId) {
        debug_assert!(
            b.index() < self.blocks.len(),
            "terminator targets unallocated block {b} in {}",
            self.name
        );
    }

    // --- instruction emitters (return the destination register) --------

    /// `dst = a op b` at width `w`.
    pub fn bin(
        &mut self,
        op: BinOp,
        w: Width,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> Reg {
        let dst = self.reg(if op.is_comparison() { 1 } else { w });
        self.push(Instr::Bin {
            op,
            w,
            dst,
            a: a.into(),
            b: b.into(),
        });
        dst
    }

    /// Wrapping addition.
    pub fn add(&mut self, w: Width, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Add, w, a, b)
    }
    /// Wrapping subtraction.
    pub fn sub(&mut self, w: Width, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Sub, w, a, b)
    }
    /// Bitwise and.
    pub fn and(&mut self, w: Width, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::And, w, a, b)
    }
    /// Bitwise or.
    pub fn or(&mut self, w: Width, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Or, w, a, b)
    }
    /// Equality test.
    pub fn eq(&mut self, w: Width, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Eq, w, a, b)
    }
    /// Disequality test.
    pub fn ne(&mut self, w: Width, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Ne, w, a, b)
    }
    /// Unsigned less-than.
    pub fn ult(&mut self, w: Width, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Ult, w, a, b)
    }
    /// Unsigned less-or-equal.
    pub fn ule(&mut self, w: Width, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Ule, w, a, b)
    }
    /// Left shift.
    pub fn shl(&mut self, w: Width, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Shl, w, a, b)
    }
    /// Logical right shift.
    pub fn lshr(&mut self, w: Width, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Lshr, w, a, b)
    }

    /// `dst = op a`.
    pub fn un(&mut self, op: UnOp, w: Width, a: impl Into<Operand>) -> Reg {
        let dst = self.reg(w);
        self.push(Instr::Un {
            op,
            w,
            dst,
            a: a.into(),
        });
        dst
    }

    /// Zero-extension `from` → `to`.
    pub fn zext(&mut self, from: Width, to: Width, a: impl Into<Operand>) -> Reg {
        let dst = self.reg(to);
        self.push(Instr::Cast {
            kind: crate::instr::CastKind::Zext,
            from,
            to,
            dst,
            a: a.into(),
        });
        dst
    }

    /// Truncation `from` → `to`.
    pub fn trunc(&mut self, from: Width, to: Width, a: impl Into<Operand>) -> Reg {
        let dst = self.reg(to);
        self.push(Instr::Cast {
            kind: crate::instr::CastKind::Trunc,
            from,
            to,
            dst,
            a: a.into(),
        });
        dst
    }

    /// Copy/constant into a fresh register.
    pub fn mov(&mut self, w: Width, a: impl Into<Operand>) -> Reg {
        let dst = self.reg(w);
        self.push(Instr::Mov {
            w,
            dst,
            a: a.into(),
        });
        dst
    }

    /// Assignment to an *existing* register (loop counters and other
    /// mutable locals).
    pub fn assign(&mut self, w: Width, dst: Reg, a: impl Into<Operand>) {
        self.push(Instr::Mov {
            w,
            dst,
            a: a.into(),
        });
    }

    /// Boolean and of two width-1 operands.
    pub fn bool_and(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::And, 1, a, b)
    }

    /// Boolean or of two width-1 operands.
    pub fn bool_or(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Or, 1, a, b)
    }

    /// Boolean not of a width-1 operand.
    pub fn bool_not(&mut self, a: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Eq, 1, a, 0u64)
    }

    /// Big-endian packet load (`w` ∈ {8, 16, 32}).
    pub fn pkt_load(&mut self, w: Width, off: impl Into<Operand>) -> Reg {
        let dst = self.reg(w);
        self.push(Instr::PktLoad {
            w,
            dst,
            off: off.into(),
        });
        dst
    }

    /// Big-endian packet store.
    pub fn pkt_store(&mut self, w: Width, off: impl Into<Operand>, val: impl Into<Operand>) {
        self.push(Instr::PktStore {
            w,
            off: off.into(),
            val: val.into(),
        });
    }

    /// Packet length (16-bit).
    pub fn pkt_len(&mut self) -> Reg {
        let dst = self.reg(16);
        self.push(Instr::PktLen { dst });
        dst
    }

    /// Prepend `n` zero bytes.
    pub fn pkt_push(&mut self, n: impl Into<Operand>) {
        self.push(Instr::PktPush { n: n.into() });
    }

    /// Remove `n` front bytes.
    pub fn pkt_pull(&mut self, n: impl Into<Operand>) {
        self.push(Instr::PktPull { n: n.into() });
    }

    /// Metadata load (32-bit).
    pub fn meta_load(&mut self, slot: u8) -> Reg {
        let dst = self.reg(crate::types::META_WIDTH);
        self.push(Instr::MetaLoad { slot, dst });
        dst
    }

    /// Metadata store (32-bit).
    pub fn meta_store(&mut self, slot: u8, val: impl Into<Operand>) {
        self.push(Instr::MetaStore {
            slot,
            val: val.into(),
        });
    }

    /// Map read; returns `(found, value)` registers.
    pub fn map_read(&mut self, map: MapId, key: impl Into<Operand>) -> (Reg, Reg) {
        let found = self.reg(1);
        let val = self.reg(self.maps[map.index()].value_width);
        self.push(Instr::MapRead {
            map,
            key: key.into(),
            found,
            val,
        });
        (found, val)
    }

    /// Map write; returns the success register.
    pub fn map_write(
        &mut self,
        map: MapId,
        key: impl Into<Operand>,
        val: impl Into<Operand>,
    ) -> Reg {
        let ok = self.reg(1);
        self.push(Instr::MapWrite {
            map,
            key: key.into(),
            val: val.into(),
            ok,
        });
        ok
    }

    /// Map membership test.
    pub fn map_test(&mut self, map: MapId, key: impl Into<Operand>) -> Reg {
        let found = self.reg(1);
        self.push(Instr::MapTest {
            map,
            key: key.into(),
            found,
        });
        found
    }

    /// Map expiration.
    pub fn map_expire(&mut self, map: MapId, key: impl Into<Operand>) {
        self.push(Instr::MapExpire {
            map,
            key: key.into(),
        });
    }

    /// Assert that `cond` is true; crashes with `msg` otherwise.
    pub fn assert_(&mut self, cond: impl Into<Operand>, msg: &str) {
        let m = self.msg(msg);
        self.push(Instr::Assert {
            cond: cond.into(),
            msg: m,
        });
    }

    /// Interns a message string.
    pub fn msg(&mut self, msg: &str) -> u32 {
        if let Some(i) = self.assert_msgs.iter().position(|m| m == msg) {
            return i as u32;
        }
        self.assert_msgs.push(msg.to_string());
        (self.assert_msgs.len() - 1) as u32
    }

    // --- terminators -----------------------------------------------------

    /// Seals the current block with a jump.
    pub fn jump(&mut self, b: BlockId) {
        self.seal(Terminator::Jump(b));
    }

    /// Seals the current block with a branch.
    pub fn branch(&mut self, cond: impl Into<Operand>, then_: BlockId, else_: BlockId) {
        self.seal(Terminator::Branch {
            cond: cond.into(),
            then_,
            else_,
        });
    }

    /// Convenience: branch to two *fresh* blocks and return them; the
    /// current block becomes the "then" block.
    pub fn fork(&mut self, cond: impl Into<Operand>) -> (BlockId, BlockId) {
        let t = self.new_block();
        let e = self.new_block();
        self.branch(cond, t, e);
        self.switch_to(t);
        (t, e)
    }

    /// Seals the current block with an emit.
    pub fn emit(&mut self, port: PortId) {
        self.seal(Terminator::Emit(port));
    }

    /// Seals the current block with a drop.
    pub fn drop_(&mut self) {
        self.seal(Terminator::Drop);
    }

    /// Seals the current block with an explicit crash.
    pub fn crash(&mut self, msg: &str) {
        let m = self.msg(msg);
        self.seal(Terminator::Crash(crate::instr::CrashReason::Explicit(m)));
    }

    /// Finishes and validates the program.
    pub fn build(self) -> Result<Program, BuildError> {
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for (i, (instrs, term)) in self.blocks.into_iter().enumerate() {
            let term = term.ok_or(BuildError::UnterminatedBlock(BlockId(i as u32)))?;
            blocks.push(Block { instrs, term });
        }
        let prog = Program {
            name: self.name,
            blocks,
            reg_widths: self.reg_widths,
            maps: self.maps,
            assert_msgs: self.assert_msgs,
        };
        prog.validate().map_err(BuildError::Invalid)?;
        Ok(prog)
    }
}

/// The operands an instruction reads.
fn instr_reads(i: &Instr) -> Vec<Operand> {
    match *i {
        Instr::Bin { a, b, .. } => vec![a, b],
        Instr::Un { a, .. } | Instr::Cast { a, .. } | Instr::Mov { a, .. } => vec![a],
        Instr::PktLoad { off, .. } => vec![off],
        Instr::PktStore { off, val, .. } => vec![off, val],
        Instr::PktLen { .. } | Instr::MetaLoad { .. } => vec![],
        Instr::MetaStore { val, .. } => vec![val],
        Instr::MapRead { key, .. } | Instr::MapTest { key, .. } | Instr::MapExpire { key, .. } => {
            vec![key]
        }
        Instr::MapWrite { key, val, .. } => vec![key, val],
        Instr::PktPush { n } | Instr::PktPull { n } => vec![n],
        Instr::Assert { cond, .. } => vec![cond],
    }
}

/// The registers an instruction writes.
fn instr_writes(i: &Instr) -> Vec<Reg> {
    match *i {
        Instr::Bin { dst, .. }
        | Instr::Un { dst, .. }
        | Instr::Cast { dst, .. }
        | Instr::Mov { dst, .. }
        | Instr::PktLoad { dst, .. }
        | Instr::PktLen { dst }
        | Instr::MetaLoad { dst, .. } => vec![dst],
        Instr::MapRead { found, val, .. } => vec![found, val],
        Instr::MapWrite { ok, .. } => vec![ok],
        Instr::MapTest { found, .. } => vec![found],
        Instr::PktStore { .. }
        | Instr::MetaStore { .. }
        | Instr::MapExpire { .. }
        | Instr::PktPush { .. }
        | Instr::PktPull { .. }
        | Instr::Assert { .. } => vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unterminated_block_rejected() {
        let mut b = ProgramBuilder::new("bad");
        let _ = b.new_block(); // never terminated
        b.switch_to(BlockId(0));
        b.drop_();
        assert!(matches!(
            b.build(),
            Err(BuildError::UnterminatedBlock(BlockId(1)))
        ));
    }

    #[test]
    fn fork_creates_then_else() {
        let mut b = ProgramBuilder::new("fork");
        let c = b.mov(1, 1u64);
        let (t, e) = b.fork(c);
        assert_eq!(b.current(), t);
        b.emit(0);
        b.switch_to(e);
        b.drop_();
        let p = b.build().expect("valid");
        assert_eq!(p.blocks.len(), 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "read before any write")]
    fn read_before_write_panics() {
        let mut b = ProgramBuilder::new("rbw");
        let never_written = b.reg(16);
        // Reads a register no emitted instruction has defined.
        b.add(16, never_written, 1u64);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "targets unallocated block")]
    fn jump_to_unallocated_block_panics() {
        let mut b = ProgramBuilder::new("badjump");
        // A hand-constructed id the builder never allocated.
        b.jump(BlockId(7));
    }

    #[test]
    fn messages_interned_once() {
        let mut b = ProgramBuilder::new("msgs");
        let c = b.mov(1, 1u64);
        b.assert_(c, "same");
        b.assert_(c, "same");
        b.emit(0);
        let p = b.build().expect("valid");
        assert_eq!(p.assert_msgs.len(), 1);
    }
}
