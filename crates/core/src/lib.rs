//! # SMARQ — Software-Managed Alias Register Queue
//!
//! This crate implements the primary contribution of *"SMARQ: Software-Managed
//! Alias Register Queue for Dynamic Optimizations"* (Wang, Wu, Rong, Park —
//! MICRO 2012): compiler management of an **order-based alias register queue**
//! used by a dynamic binary optimizer to detect memory aliases between
//! speculatively optimized memory operations at runtime.
//!
//! The crate is deliberately independent of any particular intermediate
//! representation. It operates on a small *region view* — a list of memory
//! operations in original program order, a may-alias relation, the set of
//! speculative load/store eliminations that were applied, and the final
//! schedule — and produces an [`Allocation`]: per-operation P/C bits and
//! alias-register offsets, plus the `AMOV` and `ROTATE` pseudo-instructions
//! that must be woven into the emitted code.
//!
//! ## Pipeline
//!
//! 1. Describe the region: [`RegionSpec`] (operations + aliasing +
//!    eliminations).
//! 2. Compute dependences: [`DepGraph::compute`] — the paper's
//!    `DEPENDENCE` and `EXTENDED-DEPENDENCE 1/2` rules.
//! 3. Drive the incremental allocator: [`Allocator`] — feed it the schedule
//!    one memory operation at a time (this is how the paper integrates
//!    allocation with list scheduling), or use the convenience wrapper
//!    [`allocate`] when the schedule is already fixed.
//! 4. Inspect the result: [`Allocation`] (offsets, rotations, AMOVs,
//!    working-set size, constraint statistics).
//! 5. Optionally verify: [`validate::validate_allocation`] replays the
//!    hardware semantics ([`queue::AliasQueue`]) over the allocated code and
//!    proves that every required alias detection is performed and no
//!    prohibited detection (false positive) can occur.
//!
//! ## Example
//!
//! Reordering loads above may-aliasing stores (the paper's Figure 2):
//!
//! ```
//! use smarq::{RegionSpec, MemKind, DepGraph, allocate, validate};
//!
//! // Original order: M0 st, M1 ld, M2 st, M3 ld.
//! let mut region = RegionSpec::new();
//! let m0 = region.push(MemKind::Store, 0);
//! let m1 = region.push(MemKind::Load, 1);
//! let m2 = region.push(MemKind::Store, 2);
//! let m3 = region.push(MemKind::Load, 3);
//! region.set_may_alias(m1, m2, true);
//! region.set_may_alias(m3, m0, true);
//! region.set_may_alias(m3, m2, true);
//!
//! let deps = DepGraph::compute(&region);
//! // Optimized order (loads hoisted): M3, M1, M2, M0.
//! let schedule = vec![m3, m1, m2, m0];
//! let alloc = allocate(&region, &deps, &schedule, 64)?;
//!
//! // The two hoisted loads set alias registers; the stores check them.
//! assert!(alloc.op(m3).unwrap().p_bit);
//! assert!(alloc.op(m2).unwrap().c_bit);
//! validate::validate_allocation(&region, &deps, &schedule, &alloc)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod baseline;
pub mod constraints;
pub mod deps;
pub mod error;
pub mod fault;
pub mod hash;
pub mod ids;
pub mod lower_bound;
pub mod prng;
pub mod queue;
pub mod range;
pub mod region;
pub mod validate;

pub use alloc::{
    allocate, AliasCode, AllocScratch, Allocation, Allocator, AmovInsn, OpAlias, RotateInsn,
    SchedulerMode,
};
pub use constraints::{ConstraintGraph, ConstraintKind, ConstraintStats};
pub use deps::{Dep, DepGraph, DepKind};
pub use error::{diagnostics_to_json, AllocError, Diagnostic, Severity, ValidationError};
pub use ids::{MemOpId, Offset, Order};
pub use lower_bound::live_range_lower_bound;
pub use range::{Interval, NospecRanges, RegState};
pub use region::{LoadElim, MemKind, MemOp, RegionSpec, SealedRegion, StoreElim};
