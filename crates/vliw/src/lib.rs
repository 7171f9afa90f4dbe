//! # smarq-vliw — in-order VLIW machine substrate
//!
//! The SMARQ paper evaluates on "an internal VLIW CPU modeled by a
//! cycle-accurate simulator" with atomic-region support and 64 alias
//! registers (paper §6, Table 2). This crate provides that substrate:
//!
//! * the target [`VliwOp`]/[`Bundle`]/[`VliwProgram`] instruction set the
//!   dynamic optimizer emits, including alias annotations, `ROTATE`,
//!   `AMOV`, and region side exits;
//! * a [`MachineConfig`] describing issue width, functional-unit mix and
//!   latencies (our substitute for the paper's lost Table 2 — see
//!   EXPERIMENTS.md);
//! * the four alias-detection hardware models of the paper's comparison
//!   (Table 1), as the variants of [`AnyAliasHw`]: the SMARQ ordered
//!   queue (the one model `smarq::queue::AliasQueue`, up to the paper's
//!   [`SMARQ_MAX_REGS`] = 64 registers), a Transmeta-Efficeon-style
//!   bit-mask file ([`EfficeonHw`]), an Itanium-ALAT-style table with
//!   false positives ([`AlatHw`]), and no hardware. Each states its check rule once, as
//!   the walk [`AnyAliasHw::walk`] dispatches to: the cycle simulator runs
//!   the models, and the functional tier's lowering replays them once per
//!   region to compile them out;
//! * [`VliwState`], the one atomic-region state both execution tiers run
//!   on: the register files, a masked register checkpoint taken at region
//!   entry and a store-undo log, so an alias exception rolls back
//!   exactly;
//! * a cycle-level in-order [`Simulator`] over that state, with the
//!   timing model and the alias hardware, and [`entry_stamps`], the same
//!   timing model run once per region: every latency is a machine
//!   constant, so an entry's cycles depend only on the op where it ends.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alias_hw;
mod disasm;
mod fast;
mod isa;
mod machine;
mod parse;
mod sim;

pub use alias_hw::{
    enforce_alias_bounds, AlatHw, AliasViolation, AnyAliasHw, EfficeonHw, HwKind, SMARQ_MAX_REGS,
};
pub use fast::FastState;
pub use isa::{AliasAnnot, Bundle, CondExit, ExitTarget, MemRange, SlotClass, VliwOp, VliwProgram};
pub use machine::MachineConfig;
pub use parse::parse_vliw;
pub use sim::{
    entry_stamps, EntryStamp, RegionOutcome, RegionStats, RegionWriteMask, SimError, Simulator,
    VliwState,
};
