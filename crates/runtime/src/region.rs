//! Region primitives: the immutable translation artifact and the
//! chain-dispatch bookkeeping types.
//!
//! The [`crate::TranslationHub`] publishes [`RegionCode`] values frozen
//! behind an `Arc`; each [`crate::GuestContext`] keeps its *own* mutable
//! chain links next to the shared code, so link memoization never crosses
//! a thread boundary.

use crate::translate_service::FinishedTranslation;
use smarq::range::RegState;
use smarq_guest::BlockId;
use smarq_ir::{IrOp, OpOrigin, Superblock};
use smarq_opt::fastcomp::FastProgram;
use smarq_opt::{OptStats, OptTrace};
use smarq_verify::RegionFacts;
use smarq_vliw::{RegionWriteMask, VliwProgram};

/// Flat-cache sentinels (values below [`ABANDONED`] are region slots):
/// nothing cached or requested for this block.
pub(crate) const NO_REGION: u32 = u32::MAX;
/// A translation was requested and is in flight; not re-requested until
/// the hub's cache changes.
pub(crate) const PENDING: u32 = u32::MAX - 1;
/// The hub gave up on this entry; it is interpreted forever.
pub(crate) const ABANDONED: u32 = u32::MAX - 2;

/// Memoized dispatch decision for one region exit. Every exit starts
/// `Unresolved`; leaving through it with the target pinned memoizes
/// `Region(n)`. Unpinning slot `n` resets its own links and every
/// `Region(n)` link back to `Unresolved`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ChainLink {
    /// Not yet resolved, or invalidated: consult the translation cache.
    Unresolved,
    /// Continue directly in region slot `n`, guest state resident.
    Region(u32),
}

/// Per-chain statistics accumulator, folded into [`crate::SystemStats`]
/// once per chain.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ChainAccum {
    pub guest: u64,
    pub cycles: u64,
    pub mem_ops: u64,
    pub scanned: u64,
    pub entries: u64,
    pub follows: u64,
    pub lookups: u64,
    /// Entries into regions whose blacklist snapshot is older than the
    /// hub's (stale translations kept running until a fresher one is
    /// published).
    pub stale: u64,
}

/// The immutable product of one translation: everything a guest needs to
/// execute, verify or re-optimize a region. The hub shares one across
/// every guest behind an `Arc`.
#[derive(Debug)]
pub(crate) struct RegionCode {
    /// The emitted VLIW code.
    pub vliw: VliwProgram,
    /// Memory-op tag (as reported in alias exceptions) → guest origin.
    pub tag_origin: Vec<OpOrigin>,
    /// The formed superblock (retranslations re-optimize exactly this).
    pub sb: Superblock,
    /// Guest instructions architecturally covered when leaving through
    /// each exit (approximated by the exit op's position in the trace).
    pub exit_instrs: Vec<u64>,
    /// The region's entry block.
    pub entry: BlockId,
    /// Register write-set for masked checkpointing.
    pub write_mask: RegionWriteMask,
    /// Fast-functional lowering of `vliw`, timed for the hub's machine.
    pub fast: FastProgram,
    /// Blacklist generation this region was optimized against; running it
    /// under a newer one is a legal, counted *stale* execution.
    pub blacklist_gen: u64,
    /// Optimization statistics at emit time (per-region records).
    pub opt_stats: OptStats,
    /// The optimizer's trace, retained under verify-on-emit only — the
    /// link-time chain checks read it.
    pub trace: Option<OptTrace>,
    /// The validator's facts for `trace`, kept from emit-time
    /// verification (verify-on-emit only).
    pub facts: Option<RegionFacts>,
    /// The entry register state the optimization assumed (its alias
    /// relation and nospec taint); the chain analyzer proves every chained
    /// predecessor delivers it.
    pub assumed_entry: RegState,
}

impl RegionCode {
    /// Freezes a finished translation into the immutable artifact.
    pub fn from_finished(fin: FinishedTranslation) -> Self {
        let entry = fin.key.entry;
        let exit_instrs = exit_instr_counts(&fin.sb);
        let write_mask = RegionWriteMask::of(&fin.opt.vliw);
        RegionCode {
            vliw: fin.opt.vliw,
            tag_origin: fin.opt.tag_origin,
            sb: fin.sb,
            exit_instrs,
            entry,
            write_mask,
            fast: fin.fast,
            blacklist_gen: fin.blacklist_gen,
            opt_stats: fin.opt.stats,
            trace: fin.trace,
            facts: fin.facts,
            assumed_entry: fin.entry_state,
        }
    }
}

/// Xorshift64 step — the seeded schedule generator of
/// [`crate::run_multi_interleaved`] (state must be non-zero).
pub(crate) fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Guest instructions architecturally covered when leaving through each
/// exit: the number of non-exit ops before the exit, plus the terminators
/// represented by earlier exits.
pub(crate) fn exit_instr_counts(sb: &Superblock) -> Vec<u64> {
    let mut counts = vec![0u64; sb.exits.len()];
    let mut executed = 0u64;
    for op in &sb.ops {
        executed += 1;
        if let IrOp::Exit { exit_id, .. } = op {
            counts[*exit_id as usize] = executed;
        }
    }
    counts
}
