//! # smarq-runtime — the dynamic optimization system
//!
//! The full system of the paper's Figure 1: guest code is interpreted and
//! profiled; hot blocks trigger superblock formation, translation and
//! speculative optimization; optimized regions run in atomic regions on
//! the simulated VLIW; alias exceptions roll the region back, blacklist
//! the faulting pair, and re-optimize conservatively.
//!
//! One engine runs that loop. A [`GuestContext`] is one guest's dispatch
//! loop, region chaining, tier-down sampling, verify-on-emit and deopt; a
//! [`TranslationHub`] is the shared half — translation cache, blacklist,
//! rollback rule, and an optional [`TranslationExecutor`] for background
//! translation. [`DynOptSystem`] is a single guest on a private hub;
//! [`run_multi`] and [`run_multi_interleaved`] schedule many guests on
//! one shared hub.
//!
//! ```
//! use smarq_guest::{ProgramBuilder, Reg, CmpOp, AluOp};
//! use smarq_runtime::{DynOptSystem, SystemConfig};
//!
//! // A counted loop with a load/store pair.
//! let mut b = ProgramBuilder::new();
//! let entry = b.block();
//! let body = b.block();
//! let done = b.block();
//! b.iconst(entry, Reg(1), 0);
//! b.iconst(entry, Reg(2), 1000);
//! b.iconst(entry, Reg(3), 0x1000);
//! b.jump(entry, body);
//! b.ld(body, Reg(4), Reg(3), 0);
//! b.alu(body, AluOp::Add, Reg(4), Reg(4), Reg(1));
//! b.st(body, Reg(4), Reg(3), 0);
//! b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
//! b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, done);
//! b.halt(done);
//! let program = b.finish(entry);
//!
//! let mut sys = DynOptSystem::new(program, SystemConfig::default());
//! sys.run_to_completion(10_000_000);
//! assert!(sys.stats().regions_formed >= 1);
//! assert!(sys.stats().vliw_cycles > 0, "hot loop ran translated");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod hub;
mod multi;
mod region;
mod stats;
mod system;
pub mod translate_service;

pub use context::GuestContext;
pub use hub::{hash_program, HubConfig, HubStats, RegionKey, TranslationHub};
pub use multi::{run_multi, run_multi_interleaved, DEFAULT_SLICE_STEPS};
pub use stats::{RegionRecord, SystemStats};
pub use system::{
    nospec_ranges_from_env, DispatchMode, DynOptSystem, ExecTier, RunStatus, StopReason,
    SystemConfig,
};
pub use translate_service::{
    FinishedTranslation, JobInput, StepExecutor, ThreadedExecutor, TranslationExecutor,
    TranslationJob,
};
