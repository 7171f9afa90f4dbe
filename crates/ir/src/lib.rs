//! # smarq-ir — optimizer IR, superblock formation and alias analysis
//!
//! The dynamic optimizer of the SMARQ paper forms *superblock* regions
//! along hot execution paths, translates them into an internal
//! representation, and runs a deliberately simple binary-level alias
//! analysis (expensive analyses are impractical at runtime — paper §1, §7).
//! This crate provides those pieces:
//!
//! * [`IrOp`]/[`Superblock`]: a single-entry, multiple-side-exit region of
//!   straight-line operations over the 64+64 target register files, with
//!   provenance back to guest blocks/instructions;
//! * [`form_superblock`]: region formation following the profile's biased
//!   successors from a hot block until a cold block, a cycle, or a size
//!   limit (paper §6);
//! * [`AliasAnalysis`]: `base register version + displacement`
//!   disambiguation — precise *no-alias*/*must-alias* for accesses off the
//!   same base value, conservative *may-alias* otherwise (the class of
//!   simple analyses the paper cites as the practical choice for dynamic
//!   optimizers);
//! * [`build_region_spec`]: lowering of the superblock's memory operations
//!   into a [`smarq::RegionSpec`] for constraint analysis and alias
//!   register allocation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alias;
mod form;
mod range;
mod regionmap;
mod sblock;
mod unroll;

pub use alias::{AliasAnalysis, AliasRel, MemRef};
pub use form::{form_superblock, FormationParams};
pub use range::{
    address_intervals, analyze_superblock, apply_alu, bottom_state, nospec_taint, SbRanges,
};
pub use regionmap::{build_region_spec, RegionMap};
pub use sblock::{IrExit, IrOp, OpOrigin, Superblock};
pub use smarq_guest::RegUses;
pub use unroll::unroll_superblock;
