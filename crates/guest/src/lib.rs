//! # smarq-guest — guest ISA substrate
//!
//! The SMARQ paper evaluates a dynamic binary translator that consumes x86
//! binaries. x86 semantics are irrelevant to alias-register management —
//! what matters is a guest instruction stream with loads, stores, compute
//! and control flow that the optimizer can profile, regionize and
//! speculatively optimize. This crate provides that substrate:
//!
//! * a small RISC-like guest ISA ([`Instr`], [`Block`], [`Program`]) with
//!   32 integer and 32 floating-point registers and 8-byte memory accesses;
//! * a word-addressed sparse [`Memory`];
//! * an [`Interpreter`] that executes programs block-at-a-time, collecting
//!   an execution [`Profile`] (block counts and edge biases) used for hot
//!   region formation;
//! * a [`ProgramBuilder`] for assembling test programs and workloads.
//!
//! ## Example
//!
//! ```
//! use smarq_guest::{ProgramBuilder, Reg, Interpreter, RunOutcome, AluOp};
//!
//! let mut b = ProgramBuilder::new();
//! let entry = b.block();
//! // r1 = 5; r2 = r1 * 8
//! b.iconst(entry, Reg(1), 5);
//! b.alu_imm(entry, AluOp::Mul, Reg(2), Reg(1), 8);
//! b.halt(entry);
//! let program = b.finish(entry);
//!
//! let mut interp = Interpreter::new();
//! let outcome = interp.run(&program, 1_000);
//! assert_eq!(outcome, RunOutcome::Halted);
//! assert_eq!(interp.regs[2], 40);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
mod builder;
mod interp;
mod isa;
mod mem;

pub use asm::{disassemble, parse_program, ParseAsmError};
pub use builder::ProgramBuilder;
pub use interp::{ArchState, Interpreter, Profile, RunOutcome};
pub use isa::{
    AluOp, Block, BlockId, CmpOp, FReg, FpuOp, Instr, Program, Reg, RegUses, Terminator,
};
pub use mem::{MemRange, Memory};
