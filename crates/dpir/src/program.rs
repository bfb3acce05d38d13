//! Programs, blocks, map declarations, and validation.

use crate::instr::{BinOp, Instr, Operand, Terminator};
use crate::types::{BlockId, MapId, Reg, Width, META_SLOTS};
use std::fmt;

/// Declaration of a key/value map used by a program.
///
/// The declaration carries only the *interface*: key/value widths and a
/// capacity hint. The backing structure (chained-array hash table,
/// flattened LPM, …) is chosen by the dataplane at link time — the
/// paper's Condition 2/3 separation of interface from implementation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MapDecl {
    /// Debug name (e.g. `"nat_flows"`).
    pub name: String,
    /// Key width in bits (1..=64).
    pub key_width: Width,
    /// Value width in bits (1..=64).
    pub value_width: Width,
    /// Capacity hint for the backing store.
    pub capacity: usize,
    /// Whether the map is *static state* (read-only configuration, e.g.
    /// a forwarding table) or *private state* (mutable, e.g. NAT flows).
    /// Static maps may be replaced by their configured contents during
    /// verification with a specific configuration.
    pub is_static: bool,
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Block {
    /// Instructions, executed in order.
    pub instrs: Vec<Instr>,
    /// The terminator.
    pub term: Terminator,
}

/// A complete IR program (one packet-processing element or loop body).
///
/// The blocks are the whole semantics: no analysis result rides along
/// with a program, so the symbolic executor trusts nothing but them,
/// and [`Program::fingerprint`] hashes exactly what executes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Program {
    /// Debug name (e.g. `"CheckIPHeader"`).
    pub name: String,
    /// Basic blocks; entry is block 0.
    pub blocks: Vec<Block>,
    /// Width of each virtual register.
    pub reg_widths: Vec<Width>,
    /// Maps used by this program.
    pub maps: Vec<MapDecl>,
    /// Messages for `Assert`/`Crash::Explicit`, by index.
    pub assert_msgs: Vec<String>,
}

/// A structural validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// The program has no blocks.
    NoBlocks,
    /// A register id is out of range.
    BadReg(Reg),
    /// A register is used at the wrong width.
    WidthMismatch {
        /// The offending register.
        reg: Reg,
        /// Width expected by the instruction.
        expected: Width,
        /// Declared width of the register.
        actual: Width,
    },
    /// A width outside 1..=64 (or a packet access width not in {8,16,32}).
    BadWidth(Width),
    /// A branch/jump target beyond the block list.
    BadBlock(BlockId),
    /// A map id beyond the declaration list.
    BadMap(MapId),
    /// A metadata slot index ≥ [`META_SLOTS`].
    BadMetaSlot(u8),
    /// An assert/crash message index beyond `assert_msgs`.
    BadMsg(u32),
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::NoBlocks => write!(f, "program has no blocks"),
            ValidateError::BadReg(r) => write!(f, "register {r} out of range"),
            ValidateError::WidthMismatch {
                reg,
                expected,
                actual,
            } => write!(
                f,
                "register {reg} used at width {expected}, declared {actual}"
            ),
            ValidateError::BadWidth(w) => write!(f, "illegal width {w}"),
            ValidateError::BadBlock(b) => write!(f, "block {b} out of range"),
            ValidateError::BadMap(m) => write!(f, "map {m} out of range"),
            ValidateError::BadMetaSlot(s) => write!(f, "metadata slot {s} out of range"),
            ValidateError::BadMsg(i) => write!(f, "message index {i} out of range"),
        }
    }
}

impl std::error::Error for ValidateError {}

impl Program {
    /// Width of a register.
    pub fn reg_width(&self, r: Reg) -> Width {
        self.reg_widths[r.index()]
    }

    /// Total instruction count (for reporting).
    pub fn num_instrs(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len() + 1).sum()
    }

    /// Structurally validates the program. A valid program cannot make
    /// the interpreter or symbolic executor panic (it can still crash
    /// *as a dataplane*, which is what verification is for).
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.blocks.is_empty() {
            return Err(ValidateError::NoBlocks);
        }
        for w in &self.reg_widths {
            if *w < 1 || *w > 64 {
                return Err(ValidateError::BadWidth(*w));
            }
        }
        for b in &self.blocks {
            for i in &b.instrs {
                self.validate_instr(i)?;
            }
            match b.term {
                Terminator::Jump(t) => self.check_block(t)?,
                Terminator::Branch { cond, then_, else_ } => {
                    self.check_operand(cond, 1)?;
                    self.check_block(then_)?;
                    self.check_block(else_)?;
                }
                Terminator::Emit(_) | Terminator::Drop => {}
                Terminator::Crash(crate::instr::CrashReason::AssertFailed(m))
                | Terminator::Crash(crate::instr::CrashReason::Explicit(m)) => {
                    if m as usize >= self.assert_msgs.len() {
                        return Err(ValidateError::BadMsg(m));
                    }
                }
                Terminator::Crash(_) => {}
            }
        }
        Ok(())
    }

    fn check_block(&self, b: BlockId) -> Result<(), ValidateError> {
        if b.index() >= self.blocks.len() {
            return Err(ValidateError::BadBlock(b));
        }
        Ok(())
    }

    fn check_reg(&self, r: Reg, w: Width) -> Result<(), ValidateError> {
        if r.index() >= self.reg_widths.len() {
            return Err(ValidateError::BadReg(r));
        }
        let actual = self.reg_widths[r.index()];
        if actual != w {
            return Err(ValidateError::WidthMismatch {
                reg: r,
                expected: w,
                actual,
            });
        }
        Ok(())
    }

    fn check_operand(&self, o: Operand, w: Width) -> Result<(), ValidateError> {
        match o {
            Operand::Reg(r) => self.check_reg(r, w),
            Operand::Imm(_) => Ok(()),
        }
    }

    fn check_map(&self, m: MapId) -> Result<(), ValidateError> {
        if m.index() >= self.maps.len() {
            return Err(ValidateError::BadMap(m));
        }
        Ok(())
    }

    fn validate_instr(&self, i: &Instr) -> Result<(), ValidateError> {
        match *i {
            Instr::Bin { op, w, dst, a, b } => {
                if !(1..=64).contains(&w) {
                    return Err(ValidateError::BadWidth(w));
                }
                self.check_operand(a, w)?;
                self.check_operand(b, w)?;
                let dw = if op.is_comparison() { 1 } else { w };
                self.check_reg(dst, dw)?;
                let _ = BinOp::Add; // exhaustiveness anchor
                Ok(())
            }
            Instr::Un { w, dst, a, .. } => {
                if !(1..=64).contains(&w) {
                    return Err(ValidateError::BadWidth(w));
                }
                self.check_operand(a, w)?;
                self.check_reg(dst, w)
            }
            Instr::Mov { w, dst, a } => {
                if !(1..=64).contains(&w) {
                    return Err(ValidateError::BadWidth(w));
                }
                self.check_operand(a, w)?;
                self.check_reg(dst, w)
            }
            Instr::Cast {
                kind,
                from,
                to,
                dst,
                a,
            } => {
                if !(1..=64).contains(&from) || !(1..=64).contains(&to) {
                    return Err(ValidateError::BadWidth(from.max(to)));
                }
                let ok = match kind {
                    crate::instr::CastKind::Zext | crate::instr::CastKind::Sext => to >= from,
                    crate::instr::CastKind::Trunc => to <= from,
                };
                if !ok {
                    return Err(ValidateError::BadWidth(to));
                }
                self.check_operand(a, from)?;
                self.check_reg(dst, to)
            }
            Instr::PktLoad { w, dst, off } => {
                if !matches!(w, 8 | 16 | 32) {
                    return Err(ValidateError::BadWidth(w));
                }
                self.check_operand(off, 16)?;
                self.check_reg(dst, w)
            }
            Instr::PktStore { w, off, val } => {
                if !matches!(w, 8 | 16 | 32) {
                    return Err(ValidateError::BadWidth(w));
                }
                self.check_operand(off, 16)?;
                self.check_operand(val, w)
            }
            Instr::PktLen { dst } => self.check_reg(dst, 16),
            Instr::MetaLoad { slot, dst } => {
                if slot as usize >= META_SLOTS {
                    return Err(ValidateError::BadMetaSlot(slot));
                }
                self.check_reg(dst, crate::types::META_WIDTH)
            }
            Instr::MetaStore { slot, val } => {
                if slot as usize >= META_SLOTS {
                    return Err(ValidateError::BadMetaSlot(slot));
                }
                self.check_operand(val, crate::types::META_WIDTH)
            }
            Instr::MapRead {
                map,
                key,
                found,
                val,
            } => {
                self.check_map(map)?;
                let d = &self.maps[map.index()];
                self.check_operand(key, d.key_width)?;
                self.check_reg(found, 1)?;
                self.check_reg(val, d.value_width)
            }
            Instr::MapWrite { map, key, val, ok } => {
                self.check_map(map)?;
                let d = &self.maps[map.index()];
                self.check_operand(key, d.key_width)?;
                self.check_operand(val, d.value_width)?;
                self.check_reg(ok, 1)
            }
            Instr::MapTest { map, key, found } => {
                self.check_map(map)?;
                let d = &self.maps[map.index()];
                self.check_operand(key, d.key_width)?;
                self.check_reg(found, 1)
            }
            Instr::MapExpire { map, key } => {
                self.check_map(map)?;
                let d = &self.maps[map.index()];
                self.check_operand(key, d.key_width)
            }
            Instr::PktPush { n } | Instr::PktPull { n } => self.check_operand(n, 16),
            Instr::Assert { cond, msg } => {
                self.check_operand(cond, 1)?;
                if msg as usize >= self.assert_msgs.len() {
                    return Err(ValidateError::BadMsg(msg));
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::CrashReason;

    fn tiny() -> Program {
        Program {
            name: "tiny".into(),
            blocks: vec![Block {
                instrs: vec![Instr::Mov {
                    w: 8,
                    dst: Reg(0),
                    a: Operand::Imm(1),
                }],
                term: Terminator::Emit(0),
            }],
            reg_widths: vec![8],
            maps: vec![],
            assert_msgs: vec![],
        }
    }

    #[test]
    fn valid_program() {
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn rejects_bad_reg() {
        let mut p = tiny();
        p.blocks[0].instrs[0] = Instr::Mov {
            w: 8,
            dst: Reg(7),
            a: Operand::Imm(0),
        };
        assert_eq!(p.validate(), Err(ValidateError::BadReg(Reg(7))));
    }

    #[test]
    fn rejects_width_mismatch() {
        let mut p = tiny();
        p.blocks[0].instrs[0] = Instr::Mov {
            w: 16,
            dst: Reg(0),
            a: Operand::Imm(0),
        };
        assert!(matches!(
            p.validate(),
            Err(ValidateError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn rejects_bad_branch_target() {
        let mut p = tiny();
        p.blocks[0].term = Terminator::Jump(BlockId(9));
        assert_eq!(p.validate(), Err(ValidateError::BadBlock(BlockId(9))));
    }

    #[test]
    fn rejects_bad_meta_slot() {
        let mut p = tiny();
        p.reg_widths.push(32);
        p.blocks[0].instrs.push(Instr::MetaLoad {
            slot: 200,
            dst: Reg(1),
        });
        assert_eq!(p.validate(), Err(ValidateError::BadMetaSlot(200)));
    }

    #[test]
    fn rejects_bad_crash_msg() {
        let mut p = tiny();
        p.blocks[0].term = Terminator::Crash(CrashReason::Explicit(3));
        assert_eq!(p.validate(), Err(ValidateError::BadMsg(3)));
    }
}
