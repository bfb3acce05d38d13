//! # dpir — the Dataplane IR
//!
//! Packet-processing elements in this reproduction are written once, in
//! a small register-machine IR, and executed two ways:
//!
//! * **concretely** by the [`interp`] module (the software dataplane of
//!   the `dataplane` crate), and
//! * **symbolically** by the `symexec` crate (the verifier's step 1).
//!
//! This mirrors the paper's "analyze the executable binary" setup: the
//! artifact that runs is the artifact that is verified — there is no
//! separate model to drift out of sync.
//!
//! ## Shape of the IR
//!
//! A [`Program`] is a CFG of [`Block`]s over typed virtual registers.
//! Instructions cover:
//!
//! * fixed-width arithmetic/logic ([`Instr::Bin`], [`Instr::Un`]),
//! * **packet access** — bounds-checked big-endian loads/stores
//!   ([`Instr::PktLoad`], [`Instr::PktStore`]); an out-of-bounds access
//!   is a *crash*, exactly the class of bug crash-freedom targets,
//! * **packet metadata** slots ([`Instr::MetaLoad`], [`Instr::MetaStore`])
//!   — the paper's Condition 1 channel for loop-carried state,
//! * **key/value map operations** ([`Instr::MapRead`], [`Instr::MapWrite`],
//!   [`Instr::MapTest`], [`Instr::MapExpire`]) — the paper's Condition 2
//!   interface (Fig. 2), behind which the verifiable data structures of
//!   the `dataplane::store` module live,
//! * asserts ([`Instr::Assert`]) and terminators (emit / drop / jump /
//!   branch / crash).
//!
//! Programs are built with the [`builder::ProgramBuilder`], validated by
//! [`Program::validate`], and pretty-printed with [`pretty::print_program`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod fingerprint;
pub mod instr;
pub mod interp;
pub mod pretty;
pub mod program;
pub mod types;

pub use builder::ProgramBuilder;
pub use fingerprint::{fingerprint128, StableHasher};
pub use instr::{BinOp, CastKind, CrashReason, Instr, Operand, Terminator, UnOp};
pub use interp::{run_program, ExecOutcome, ExecResult, MapRuntime, NullMapRuntime, PacketData};
pub use program::{Block, MapDecl, Program, ValidateError};
pub use types::{
    BlockId, MapId, PortId, Reg, Width, META_SLOTS, META_WIDTH, PORT_CONTINUE, PORT_MAX,
};
