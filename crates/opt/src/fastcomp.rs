//! Fast-functional lowering: compiles an emitted VLIW region into a
//! flat, direct-threaded op stream over [`VliwState`], executed with no
//! per-cycle scoreboard, issue modeling or bundle bookkeeping.
//!
//! The cycle simulator stays the hardware model and the differential
//! oracle; this tier, which runs every region entry, reproduces its whole
//! contract — register/memory effects, guest-visible exit choice,
//! alias-exception outcomes and every [`RegionStats`] field, cycles and
//! bundles included, must be bit-exact with
//! `Simulator::run_region_resident` on the same program (the runtime's
//! sampled tier-down and the fuzz oracle's tier layer both enforce this).
//!
//! Lowering decisions that buy the speedup:
//!
//! * **Flattening**: bundles exist only for issue modeling; ops execute
//!   sequentially in slot order either way, so the fast stream drops
//!   them entirely, along with `Nop` padding and everything after the
//!   first unconditional exit (statically unreachable).
//! * **Plan-free lowering**: a region with no alias annotation and no
//!   `Rotate`, `Amov` or `AlatClear` (every region of the churn
//!   benchmark, for one) skips the hardware replay and the guard: it
//!   gets the empty plan, the empty guard and inert memory ops that examine nothing, which is what the replay would
//!   compute for it.
//! * **Reused buffers**: [`compile_for`] lowers through a
//!   [`TranslationScratch`]'s buffers, so only the [`FastProgram`] it
//!   returns allocates.
//! * **Fault-free fast path**: a region whose annotations can never
//!   raise an alias exception ([`FastProgram::can_fault`] false) skips
//!   the register checkpoint *and* the store-undo log — commit is a
//!   no-op, stores write through directly.
//! * **Compiled-out alias hardware**: a region is straight-line, so
//!   under every scheme the detection state at each annotated op is
//!   fixed by the op's position. `compile` replays the region's hardware
//!   once over the emitted ops (`QueuePlan`) and records, per memory op,
//!   the ordered producers its check compares against. A check is then a
//!   few address compares. `Rotate`, `Amov` and `AlatClear` have no
//!   effect left to run and are dropped from the stream, and a memory op
//!   whose check compares against nothing and which no later check reads
//!   is *inert*: it runs as a plain load or store.
//! * **Compiled-out counters**: every latency is a machine constant and
//!   every check's examined count is fixed by its position, so every
//!   [`RegionStats`] field of an entry depends only on the op where it
//!   ends. `compile_for` runs the simulator's scoreboard once over the
//!   region ([`smarq_vliw::entry_stamps`]) and counts the memory ops,
//!   alias checks and examined entries before each op. The executor
//!   keeps no counter: it reads the stats of the op where the entry
//!   ended, once per entry, through a per-stream-op table of the emitted
//!   ops before each stream op.
//! * **Entry-time alias guards**: when every planned op addresses through
//!   a base register no earlier op of the region writes, with a
//!   word-aligned displacement, each check compares two words a fixed
//!   distance apart at entry, and fires exactly when the aligned entry
//!   bases differ by the displacements' difference. `compile_for` groups
//!   the checks by their two base registers and keeps each group's
//!   forbidden differences (`Guard`). `FastSim` tests them once per
//!   entry; an entry they clear runs every check as a plain load or
//!   store, with no checkpoint and no store-undo log, and any other
//!   entry runs the checked path unchanged. The executor body is one
//!   function, monomorphized on whether it checks.
//!
//! The op stream is a dense enum array rather than boxed host closures:
//! on this workload the indirect call per op costs more than the match
//! dispatch, and the array keeps the whole region in two cache lines.

use crate::TranslationScratch;
use smarq_guest::{AluOp, CmpOp, Memory};
use smarq_vliw::{
    enforce_alias_bounds, entry_stamps, AliasAnnot, AliasViolation, AnyAliasHw, CondExit,
    EfficeonHw, EntryStamp, HwKind, MachineConfig, MemRange, RegionOutcome, RegionStats,
    RegionWriteMask, SimError, VliwOp, VliwProgram, VliwState, SMARQ_MAX_REGS,
};

/// One op of the fast-functional stream: a [`VliwOp`] as emitted, or one
/// of the forms only the lowering creates. `compile` drops `Nop` padding
/// and the alias-management ops, splits `Exit` by predication, and gives
/// every memory op the plan reads its own form, so the hot path never
/// matches on an `Option` or an annotation; `Op` never holds `Nop`,
/// `Exit`, `Rotate`, `Amov` or `AlatClear`, and holds a memory op only
/// when it is inert.
///
/// `Op` comes last, and the eight lowering forms take the tag values 0–7
/// that `VliwOp` leaves free: a `FastOp` is then no wider than a
/// `VliwOp`, and the region loop dispatches every op on one jump table
/// over the shared tag byte. With `Op` first, or with fewer free tags
/// below `VliwOp`'s than lowering forms, the compiler switches on the
/// wrapper first and takes a second indirect jump per emitted op.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FastOp {
    /// Unconditional region exit (always the last op of the stream).
    Exit {
        /// Exit index.
        exit_id: u32,
    },
    /// Conditional side exit, taken when `ra <op> rb` holds.
    ExitIf {
        /// Predicate.
        op: CmpOp,
        /// First compared register.
        ra: u8,
        /// Second compared register.
        rb: u8,
        /// Exit index.
        exit_id: u32,
    },
    /// Fused `AluImm` + `ExitIf`: `rd = <op>(ra, imm)`, then take the
    /// exit when `ca <cmp> cb` holds. This is the induction-variable
    /// update + loop-back check that dominates counted hot loops (once
    /// per iteration in the unrolled body); fusing the adjacent pair at
    /// lowering time halves the per-iteration dispatch overhead. Counts
    /// as two ops in the executed-work stats.
    AluImmExitIf {
        /// ALU operation of the update.
        op: AluOp,
        /// Update destination.
        rd: u8,
        /// Update source.
        ra: u8,
        /// Update immediate.
        imm: i64,
        /// Exit predicate.
        cmp: CmpOp,
        /// First compared register.
        ca: u8,
        /// Second compared register.
        cb: u8,
        /// Exit index.
        exit_id: u32,
    },
    /// `n` back-to-back copies of the same self-updating fused pair:
    /// `rd = <op>(rd, imm); exit if rd <cmp> cb`, repeated. Loop
    /// unrolling emits exactly this shape — identical induction update +
    /// loop-back check per unrolled iteration — and coalescing the run
    /// lets the executor keep the induction value in a host register for
    /// the whole region entry instead of round-tripping it through the
    /// register file once per iteration (the store-to-load chain is what
    /// dominates the plain fused form). Requires `ra == ca == rd` and
    /// `cb != rd`, so the bound is invariant across the run. Counts as
    /// `2 * n` ops in the executed-work stats (2 per iteration).
    AluImmExitIfRep {
        /// ALU operation of the update.
        op: AluOp,
        /// Induction register: update destination, update source and
        /// first compared register all at once.
        rd: u8,
        /// Update immediate.
        imm: i64,
        /// Exit predicate.
        cmp: CmpOp,
        /// Second compared register (invariant bound, never `rd`).
        cb: u8,
        /// Exit index (shared by every copy in the run).
        exit_id: u32,
        /// Repetition count (≥ 2; single pairs stay `AluImmExitIf`).
        n: u16,
    },
    /// A `Load` the plan reads: it checks its word against the words of
    /// the producers `producers[start..end]` of the plan, then records it
    /// under its plan ordinal.
    CheckedLoad {
        /// Destination.
        rd: u8,
        /// Base register.
        base: u8,
        /// The op's plan ordinal.
        ordinal: u32,
        /// Displacement.
        disp: i64,
        /// Start of the op's check list in the plan's producers.
        start: u32,
        /// End of the op's check list.
        end: u32,
    },
    /// An `FLoad` the plan reads (see [`FastOp::CheckedLoad`]).
    CheckedFLoad {
        /// Destination.
        fd: u8,
        /// Base register.
        base: u8,
        /// The op's plan ordinal.
        ordinal: u32,
        /// Displacement.
        disp: i64,
        /// Start of the op's check list in the plan's producers.
        start: u32,
        /// End of the op's check list.
        end: u32,
    },
    /// A `Store` the plan reads (see [`FastOp::CheckedLoad`]).
    CheckedStore {
        /// Source.
        rs: u8,
        /// Base register.
        base: u8,
        /// The op's plan ordinal.
        ordinal: u32,
        /// Displacement.
        disp: i64,
        /// Start of the op's check list in the plan's producers.
        start: u32,
        /// End of the op's check list.
        end: u32,
    },
    /// An `FStore` the plan reads (see [`FastOp::CheckedLoad`]).
    CheckedFStore {
        /// Source.
        fs: u8,
        /// Base register.
        base: u8,
        /// The op's plan ordinal.
        ordinal: u32,
        /// Displacement.
        disp: i64,
        /// Start of the op's check list in the plan's producers.
        start: u32,
        /// End of the op's check list.
        end: u32,
    },
    /// An emitted op with a run-time effect, unchanged. Declared last
    /// (see above).
    Op(VliwOp),
}

impl FastOp {
    /// The checked form of memory op `op`, planned as `check`.
    fn checked(op: VliwOp, check: Check) -> FastOp {
        let Check {
            ordinal,
            start,
            end,
        } = check;
        match op {
            VliwOp::Load { rd, base, disp, .. } => FastOp::CheckedLoad {
                rd,
                base,
                ordinal,
                disp,
                start,
                end,
            },
            VliwOp::FLoad { fd, base, disp, .. } => FastOp::CheckedFLoad {
                fd,
                base,
                ordinal,
                disp,
                start,
                end,
            },
            VliwOp::Store { rs, base, disp, .. } => FastOp::CheckedStore {
                rs,
                base,
                ordinal,
                disp,
                start,
                end,
            },
            VliwOp::FStore { fs, base, disp, .. } => FastOp::CheckedFStore {
                fs,
                base,
                ordinal,
                disp,
                start,
                end,
            },
            op => unreachable!("{op:?} is not a memory op"),
        }
    }

    /// The emitted ops this stream op stands for.
    fn width(&self) -> u32 {
        match *self {
            FastOp::AluImmExitIf { .. } => 2,
            FastOp::AluImmExitIfRep { n, .. } => 2 * u32::from(n),
            _ => 1,
        }
    }

    /// A self-updating fused pair (`ra == ca == rd`, invariant bound), or
    /// a run of them, as the pair and the run length: the form a
    /// repetition run extends.
    fn run(&self) -> Option<(RunPair, u16)> {
        match *self {
            FastOp::AluImmExitIf {
                op,
                rd,
                ra,
                imm,
                cmp,
                ca,
                cb,
                exit_id,
            } if ra == rd && ca == rd && cb != rd => Some(((op, rd, imm, cmp, cb, exit_id), 1)),
            FastOp::AluImmExitIfRep {
                op,
                rd,
                imm,
                cmp,
                cb,
                exit_id,
                n,
            } => Some(((op, rd, imm, cmp, cb, exit_id), n)),
            _ => None,
        }
    }
}

/// A self-updating fused pair, as a repetition run repeats it: the update
/// operation, the induction register, the immediate, the predicate, the
/// bound register and the exit.
type RunPair = (AluOp, u8, i64, CmpOp, u8, u32);

/// The alias hardware of one region, compiled out.
///
/// A region is straight-line code with side exits only, so at every
/// annotated op the hardware's detection state — which producers a check
/// compares against, in which order — is fixed by the op's position;
/// only addresses change between entries. [`compile`] therefore replays
/// the region's hardware once, with producer ids standing in for
/// addresses, and records per memory op what its check compares
/// against. At run time a check only compares its address with the
/// recorded addresses of its producers.
///
/// The plan keeps only the memory ops it reads: those whose check has a
/// producer, and the producers. Each gets a *plan ordinal*, its index
/// among them; the other memory ops are inert.
///
/// The plan holds on any file of `n` registers that satisfies the bounds
/// contract (every register named below `n`, every rotation at most
/// `n`): live entries then sit below `n`, so every walk visits the same
/// producers at any such `n` up to the widest file of the scheme (64
/// SMARQ registers, 15 Efficeon registers). The replay therefore runs on
/// the smallest: the largest register named + 1, or the largest
/// rotation, whichever is greater (the ALAT grows on demand). [`FastSim`]
/// enforces the contract on its own file once per entry.
#[derive(Clone, Debug)]
pub(crate) struct QueuePlan {
    /// The scheme the region's annotations target (`HwKind::None` when
    /// it carries none).
    kind: HwKind,
    /// The tag of each planned memory op, by plan ordinal, reported in
    /// the alias exception.
    tags: Box<[u32]>,
    /// Every check's producers (plan ordinals), concatenated.
    producers: Box<[u32]>,
    /// Largest register the region names (SMARQ offset or AMOV operand,
    /// Efficeon set index), if any.
    max_reg: Option<u32>,
    /// Largest rotation the region performs.
    max_rotation: u32,
}

/// A planned memory op.
#[derive(Clone, Copy, Debug)]
struct Check {
    /// The op's plan ordinal.
    ordinal: u32,
    /// `producers[start..end]` is the op's check list, in the order the
    /// hardware's walk visits them (empty for a producer that checks
    /// nothing).
    start: u32,
    /// End of the check list.
    end: u32,
}

/// What the replay found for one memory op of the region, in stream
/// order.
#[derive(Clone, Copy, Debug)]
struct MemOpPlan {
    /// Valid entries the op's check examines (the `entries_scanned`
    /// proxy).
    examined: u32,
    /// The op's plan; `None` for an inert op.
    check: Option<Check>,
}

impl MemOpPlan {
    /// An op that checks nothing and is checked by nothing.
    const INERT: MemOpPlan = MemOpPlan {
        examined: 0,
        check: None,
    };
}

impl QueuePlan {
    /// The plan of a region with no alias hardware to replay.
    fn empty() -> QueuePlan {
        QueuePlan {
            kind: HwKind::None,
            tags: Box::default(),
            producers: Box::default(),
            max_reg: None,
            max_rotation: 0,
        }
    }

    /// Replays the region's alias hardware over its emitted ops. The
    /// scheme comes from the annotations: SMARQ annotations, `Rotate` or
    /// `Amov` mean SMARQ; Efficeon annotations Efficeon; `AlatSet` or
    /// `AlatClear` the ALAT; none of these no hardware. Returns the plan
    /// and, per memory op, its examined count and its plan.
    ///
    /// # Errors
    /// [`SimError::MixedAliasKinds`] for a region that mixes schemes,
    /// [`SimError::AliasOutOfRange`] for a register or rotation no file
    /// of its scheme holds.
    fn build(emitted: &[VliwOp]) -> Result<(QueuePlan, Vec<MemOpPlan>), SimError> {
        let mut kinds = emitted
            .iter()
            .map(VliwOp::alias_kind)
            .filter(|&k| k != HwKind::None);
        let kind = kinds.next().unwrap_or(HwKind::None);
        if let Some(second) = kinds.find(|&k| k != kind) {
            return Err(SimError::MixedAliasKinds {
                first: kind,
                second,
            });
        }
        let widest = match kind {
            HwKind::Smarq => SMARQ_MAX_REGS,
            HwKind::Efficeon => EfficeonHw::MAX_REGS,
            HwKind::Alat | HwKind::None => 0,
        };
        let out_of_range = |value| SimError::AliasOutOfRange { kind, value };
        let (mut max_reg, mut max_rotation) = (None, 0);
        for op in emitted {
            match *op {
                VliwOp::Rotate { amount } => {
                    if amount > widest {
                        return Err(out_of_range(amount));
                    }
                    max_rotation = max_rotation.max(amount);
                }
                VliwOp::Amov { src, dst } => max_reg = max_reg.max(Some(src.max(dst))),
                _ => {
                    max_reg = max_reg.max(match op.mem_access() {
                        Some((AliasAnnot::Smarq { offset, .. }, ..)) => Some(offset),
                        Some((AliasAnnot::Efficeon { set, .. }, ..)) => set.map(u32::from),
                        _ => None,
                    })
                }
            }
            if let Some(reg) = max_reg.filter(|&r| r >= widest) {
                return Err(out_of_range(reg));
            }
        }
        // The smallest file the bounds contract admits: the plan is the
        // same on every admissible file, and a smaller one scans less.
        let num_regs = max_reg.map_or(0, |r| r + 1).max(max_rotation);
        let mut hw = AnyAliasHw::for_kind(kind, num_regs);
        // Per memory op, in stream order: its check list as a range of
        // `lists` (memory-op ordinals), its examined count and its tag.
        let (mut mem, mut lists) = (Vec::<(u32, u32, u32, u32)>::new(), Vec::new());
        for op in emitted {
            let Some((alias, is_load, tag)) = op.mem_access() else {
                match *op {
                    VliwOp::Rotate { amount } => hw.rotate(amount),
                    VliwOp::Amov { src, dst } => hw.amov(src, dst),
                    VliwOp::AlatClear { entry } => hw.alat_clear(entry),
                    _ => {}
                }
                continue;
            };
            let ordinal = mem.len() as u32;
            let start = lists.len() as u32;
            // One access per op: the check collects every producer it
            // compares against and never hits, so the replay follows the
            // no-alias path, counts the examined entries and records the
            // op (under a word of its own, tagged with its ordinal).
            let word = MemRange::word(u64::from(ordinal) * 8);
            let examined = hw
                .access_with(alias, word, is_load, ordinal, |_, producer| {
                    lists.push(producer);
                    false
                })
                .expect("a check that never hits raises no violation");
            mem.push((start, lists.len() as u32, examined, tag));
        }
        // A memory op is planned when its check has a producer or it is
        // one; plan ordinals number the planned ops in stream order.
        let mut planned: Vec<bool> = mem.iter().map(|&(start, end, ..)| start < end).collect();
        for &producer in &lists {
            planned[producer as usize] = true;
        }
        let mut next = 0u32;
        let ordinals: Vec<Option<u32>> = planned
            .iter()
            .map(|&p| {
                p.then(|| {
                    next += 1;
                    next - 1
                })
            })
            .collect();
        let (mut tags, mut producers, mut ops) = (Vec::new(), Vec::new(), Vec::new());
        for (&(start, end, examined, tag), &ordinal) in mem.iter().zip(&ordinals) {
            let check = ordinal.map(|ordinal| {
                tags.push(tag);
                let from = producers.len() as u32;
                producers.extend(
                    lists[start as usize..end as usize]
                        .iter()
                        .map(|&p| ordinals[p as usize].expect("a producer is planned")),
                );
                Check {
                    ordinal,
                    start: from,
                    end: producers.len() as u32,
                }
            });
            ops.push(MemOpPlan { examined, check });
        }
        let plan = QueuePlan {
            kind,
            tags: tags.into_boxed_slice(),
            producers: producers.into_boxed_slice(),
            max_reg,
            max_rotation,
        };
        Ok((plan, ops))
    }

    /// One planned check, the compiled-out form of the hardware's
    /// `mem_access`: compares the address of the planned op `check` with
    /// the words its producers recorded in `words`, in walk order. The
    /// first overlap raises the [`AliasViolation`]; otherwise the op
    /// records its own word.
    #[inline]
    fn check(&self, check: Check, addr: u64, words: &mut [u64]) -> Result<(), AliasViolation> {
        // Accesses are single words (`MemRange::word`), and two word
        // ranges overlap exactly when they share the aligned word.
        let word = addr & !7;
        for &p in &self.producers[check.start as usize..check.end as usize] {
            if words[p as usize] == word {
                return Err(AliasViolation {
                    checker_tag: self.tags[check.ordinal as usize],
                    producer_tag: self.tags[p as usize],
                });
            }
        }
        words[check.ordinal as usize] = word;
        Ok(())
    }
}

/// The entry-time alias guard of a region: a test, on the registers at
/// entry, that no check of the region can fire on this entry.
///
/// It exists when every planned op addresses through a base register no
/// earlier op of the region writes, with a word-aligned displacement.
/// Such an op's word is `(base & !7) + disp` for the base's value at
/// entry, so a check of `(a, d)` against a producer `(b, e)` fires
/// exactly when `(a & !7) - (b & !7) == e - d` (wrapping): the two
/// expressions differ by the bases' difference minus the displacements'
/// difference. The guard holds, per (checker base, producer base) group,
/// the sorted forbidden differences `e - d`; an entry whose aligned base
/// differences avoid them all cannot fault.
#[derive(Clone, Debug)]
struct Guard {
    /// Per group: the checker base, the producer base and the end of the
    /// group's differences in `deltas` (each starts where the previous
    /// one ends).
    groups: Box<[(u8, u8, u32)]>,
    /// Every group's forbidden differences, each group's sorted.
    deltas: Box<[u64]>,
}

impl Guard {
    /// The guard of a region that cannot fault: it clears every entry.
    fn empty() -> Guard {
        Guard {
            groups: Box::default(),
            deltas: Box::default(),
        }
    }

    /// The guard of the region whose executable ops are `emitted`, with
    /// the per-memory-op plans `mem_plans` over the plan's `producers`:
    /// `None` when some planned op addresses through a base register an
    /// earlier op writes, or with a displacement that is not
    /// word-aligned. A check of two ops on one base compares two words a
    /// fixed distance apart: it never fires when that distance is not
    /// zero, and it fires on every entry that reaches it when it is,
    /// which leaves the region no guard.
    fn build(emitted: &[VliwOp], mem_plans: &[MemOpPlan], producers: &[u32]) -> Option<Guard> {
        // Integer registers written so far, and per plan ordinal the op's
        // base and displacement and its check list.
        let (mut written, mut operands, mut checks) = (0u64, Vec::new(), Vec::new());
        let mut mem_plan = mem_plans.iter();
        for op in emitted {
            if let VliwOp::Load { base, disp, .. }
            | VliwOp::FLoad { base, disp, .. }
            | VliwOp::Store { base, disp, .. }
            | VliwOp::FStore { base, disp, .. } = *op
            {
                if let Some(check) = mem_plan.next().expect("one plan per memory op").check {
                    if written >> ridx(base) & 1 != 0 || disp & 7 != 0 {
                        return None;
                    }
                    operands.push((base, disp));
                    checks.push(check);
                }
            }
            if let Some(rd) = op.int_def() {
                written |= 1 << ridx(rd);
            }
        }
        let mut keys: Vec<(u8, u8, u64)> = Vec::new();
        for check in &checks {
            let (a, d) = operands[check.ordinal as usize];
            for &p in &producers[check.start as usize..check.end as usize] {
                let (b, e) = operands[p as usize];
                let delta = e.wrapping_sub(d) as u64;
                match (a == b, delta == 0) {
                    (true, true) => return None,
                    (true, false) => {}
                    (false, _) => keys.push((a, b, delta)),
                }
            }
        }
        keys.sort_unstable();
        keys.dedup();
        let (mut groups, mut deltas) = (Vec::new(), Vec::with_capacity(keys.len()));
        for (i, &(a, b, delta)) in keys.iter().enumerate() {
            deltas.push(delta);
            if keys
                .get(i + 1)
                .is_none_or(|&(na, nb, _)| (na, nb) != (a, b))
            {
                groups.push((a, b, deltas.len() as u32));
            }
        }
        Some(Guard {
            groups: groups.into_boxed_slice(),
            deltas: deltas.into_boxed_slice(),
        })
    }

    /// Whether no check of the region can fire on an entry from `regs`.
    #[inline]
    fn clears(&self, regs: &[i64; 64]) -> bool {
        let mut start = 0;
        for &(a, b, end) in self.groups.iter() {
            let diff = (regs[ridx(a)] as u64 & !7).wrapping_sub(regs[ridx(b)] as u64 & !7);
            if self.deltas[start..end as usize]
                .binary_search(&diff)
                .is_ok()
            {
                return false;
            }
            start = end as usize;
        }
        true
    }
}

/// A region compiled for the fast-functional tier: the flattened op
/// stream, the compiled-out alias hardware, timing and work counters,
/// and the facts the executor needs up front — the write mask (for the
/// masked checkpoint), whether any op can raise an alias exception at
/// all, and the entry-time guard that rules it out for one entry.
#[derive(Clone, Debug)]
pub struct FastProgram {
    ops: Box<[FastOp]>,
    /// `base[at]` is the count of emitted ops before stream op `at`,
    /// dropped ones included: the position an entry reached is
    /// `base[at]` plus the ops stream op `at` executed.
    base: Box<[u32]>,
    /// The compiled-out alias hardware.
    plan: QueuePlan,
    /// The entry-time guard; `None` when some planned op's address is
    /// not a fixed distance from an entry register (every entry then
    /// runs its checks). A region that cannot fault has the empty guard.
    guard: Option<Guard>,
    /// The compiled-out timing and work counters: `stats[n - 1]` is the
    /// whole [`RegionStats`] of an entry that executed `n` emitted ops.
    stats: Box<[RegionStats]>,
    /// Registers the region may write (drives the masked checkpoint).
    pub write_mask: RegionWriteMask,
}

impl FastProgram {
    /// The flattened op stream (terminal op is always [`FastOp::Exit`]).
    pub fn ops(&self) -> &[FastOp] {
        &self.ops
    }

    /// Whether some check in the region has a producer to compare
    /// against: only such a check can fire, and every planned op is one
    /// or its producer. A region that cannot fault has the empty guard,
    /// so no entry of it checkpoints or logs a store.
    pub fn can_fault(&self) -> bool {
        !self.plan.tags.is_empty()
    }

    /// Whether the region has an entry-time alias guard: every planned op
    /// addresses through a base register no earlier op writes, with a
    /// word-aligned displacement.
    pub fn guarded(&self) -> bool {
        self.guard.is_some()
    }
}

/// Working memory of [`compile_for`], reused across regions.
#[derive(Clone, Debug, Default)]
pub struct LowerScratch {
    /// The ops an entry can execute.
    emitted: Vec<VliwOp>,
    /// Their timing stamps.
    stamps: Vec<EntryStamp>,
}

/// [`compile_for`] on the default machine, with a fresh scratch.
///
/// # Errors
/// As [`compile_for`].
pub fn compile(program: &VliwProgram) -> Result<FastProgram, SimError> {
    compile_for(
        program,
        &MachineConfig::default(),
        &mut TranslationScratch::new(),
    )
}

/// Lowers an emitted region into a [`FastProgram`] for `machine`, whose
/// latencies, checkpoint and rollback costs the stats table reads.
///
/// Validation happens here, once, instead of on every execution: every
/// exit id must be in range, every register of an issuing bundle must
/// index the 64-entry files, the stream must end in an unconditional
/// exit, and the alias annotations must target one scheme within its
/// widest file (the emitter guarantees all of this for well-formed
/// regions). The region's alias hardware (`QueuePlan`), timing
/// ([`smarq_vliw::entry_stamps`]) and work counters are compiled out here
/// too, in the reusable buffers of `scratch`.
///
/// # Errors
/// [`SimError::BadExitId`] for an out-of-range exit,
/// [`SimError::MissingExit`] when control can fall off the end,
/// [`SimError::BadRegister`] for a register past the files,
/// [`SimError::MixedAliasKinds`] for annotations of two schemes,
/// [`SimError::AliasOutOfRange`] for an alias register or rotation past
/// the widest file of its scheme.
pub fn compile_for(
    program: &VliwProgram,
    machine: &MachineConfig,
    scratch: &mut TranslationScratch,
) -> Result<FastProgram, SimError> {
    let LowerScratch { emitted, stamps } = &mut scratch.lower;
    // The ops an entry can execute, in slot order: every non-`Nop` op up
    // to and including the first unconditional exit. An entry that
    // executed `n` of them ended at `emitted[n - 1]`.
    emitted.clear();
    'bundles: for bundle in &program.bundles {
        for &op in &bundle.ops {
            match op {
                VliwOp::Nop => {}
                VliwOp::Exit { exit_id, cond } => {
                    if exit_id as usize >= program.exits.len() {
                        return Err(SimError::BadExitId { exit_id });
                    }
                    emitted.push(op);
                    if cond.is_none() {
                        break 'bundles;
                    }
                }
                op => emitted.push(op),
            }
        }
    }
    if !matches!(emitted.last(), Some(VliwOp::Exit { cond: None, .. })) {
        return Err(SimError::MissingExit);
    }
    // The executor masks register indices to the 64-entry files instead
    // of bounds-checking each access; the timing pass rejects wider
    // indices here, where the op stream is born, which makes the mask a
    // no-op.
    entry_stamps(program, machine, stamps)?;
    let emitted = &emitted[..];
    // A region with no alias annotation and no queue management op plans
    // nothing: the replay would find no scheme, no check and no producer,
    // and leave every memory op inert with nothing examined.
    let plan_free = emitted.iter().all(|op| op.alias_kind() == HwKind::None);
    let (plan, mem_plans, guard) = if plan_free {
        (QueuePlan::empty(), Vec::new(), Some(Guard::empty()))
    } else {
        let (plan, mem_plans) = QueuePlan::build(emitted)?;
        let guard = Guard::build(emitted, &mem_plans, &plan.producers);
        (plan, mem_plans, guard)
    };
    // The plan of each memory op in stream order.
    let plans = || {
        let mut mem_plan = mem_plans.iter();
        move || match plan_free {
            true => MemOpPlan::INERT,
            false => *mem_plan.next().expect("one plan per memory op"),
        }
    };

    // The work counters of an entry that ends at each op. Only a fault
    // ends an entry at a memory op, and a check that hits adds nothing to
    // `entries_scanned`: the examined count of an op counts from the next
    // position on.
    let mut stats = Vec::with_capacity(emitted.len());
    let mut so_far = RegionStats::default();
    let mut next_plan = plans();
    for (op, stamp) in emitted.iter().zip(stamps.iter()) {
        so_far.ops += 1;
        so_far.cycles = stamp.cycles;
        so_far.bundles = stamp.bundles;
        let mut examined = 0;
        if let Some((alias, ..)) = op.mem_access() {
            so_far.mem_ops += 1;
            so_far.alias_checks += u64::from(!matches!(alias, AliasAnnot::None));
            examined = next_plan().examined;
        }
        stats.push(so_far);
        so_far.entries_scanned += u64::from(examined);
    }

    // The stream: only the ops with a run-time effect, each with the
    // count of emitted ops before it.
    let mut ops: Vec<FastOp> = Vec::with_capacity(emitted.len());
    let mut base: Vec<u32> = Vec::with_capacity(emitted.len());
    let mut next_plan = plans();
    for (pos, &op) in (0u32..).zip(emitted) {
        let fast = match op {
            // The plan already holds every alias-hardware effect.
            VliwOp::Rotate { .. } | VliwOp::Amov { .. } | VliwOp::AlatClear { .. } => continue,
            VliwOp::Exit {
                exit_id,
                cond: None,
            } => FastOp::Exit { exit_id },
            VliwOp::Exit {
                exit_id,
                cond:
                    Some(CondExit {
                        op: cmp,
                        ra: ca,
                        rb: cb,
                    }),
            } => match ops.last() {
                // Peephole superinstruction fusion: an induction update
                // directly before its check (adjacent emitted ops, so the
                // pair counts as two) fuses; the executor performs the
                // two halves in original order.
                Some(&FastOp::Op(VliwOp::AluImm {
                    op: alu,
                    rd,
                    ra,
                    imm,
                })) if base.last() == Some(&(pos - 1)) => {
                    ops.pop();
                    let at = base.pop().expect("one base per stream op");
                    let pair = FastOp::AluImmExitIf {
                        op: alu,
                        rd,
                        ra,
                        imm,
                        cmp,
                        ca,
                        cb,
                        exit_id,
                    };
                    // A self-updating pair that repeats the run ending
                    // right before it extends the run instead: loop
                    // unrolling produces exactly such runs.
                    let run = match (ops.last(), base.last()) {
                        (Some(last), Some(&b)) if b + last.width() == at => last.run(),
                        _ => None,
                    };
                    match (run, pair.run()) {
                        (Some((prev, n)), Some((this, _))) if prev == this && n < u16::MAX => {
                            let (op, rd, imm, cmp, cb, exit_id) = this;
                            *ops.last_mut().expect("the run") = FastOp::AluImmExitIfRep {
                                op,
                                rd,
                                imm,
                                cmp,
                                cb,
                                exit_id,
                                n: n + 1,
                            };
                        }
                        _ => {
                            ops.push(pair);
                            base.push(at);
                        }
                    }
                    continue;
                }
                _ => FastOp::ExitIf {
                    op: cmp,
                    ra: ca,
                    rb: cb,
                    exit_id,
                },
            },
            op if op.is_mem() => match next_plan().check {
                Some(check) => FastOp::checked(op, check),
                None => FastOp::Op(op),
            },
            op => FastOp::Op(op),
        };
        ops.push(fast);
        base.push(pos);
    }
    Ok(FastProgram {
        ops: ops.into_boxed_slice(),
        base: base.into_boxed_slice(),
        plan,
        guard,
        stats: stats.into_boxed_slice(),
        write_mask: RegionWriteMask::of(program),
    })
}

/// Register index for the fast tier's fixed 64-entry files. The mask is
/// a no-op (`compile` rejects any index past the files); it exists so the
/// optimizer can prove the access in-bounds and drop the per-operand
/// bounds check.
#[inline(always)]
fn ridx(r: u8) -> usize {
    usize::from(r & 63)
}

/// Inner loop of [`FastOp::AluImmExitIfRep`] with the predicate match
/// hoisted out: one tight loop per [`CmpOp`], so each iteration is just
/// the update closure, a compare and a predictable branch. Returns the
/// final induction value and the 1-based iteration whose check fired
/// (`0` when the run completes without exiting).
#[inline(always)]
fn rep_run(mut v: i64, bound: i64, n: u64, upd: impl Fn(i64) -> i64, cmp: CmpOp) -> (i64, u64) {
    macro_rules! tight {
        ($take:expr) => {
            for k in 0..n {
                v = upd(v);
                #[allow(clippy::redundant_closure_call)]
                if $take(v, bound) {
                    return (v, k + 1);
                }
            }
        };
    }
    match cmp {
        CmpOp::Eq => tight!(|a: i64, b: i64| a == b),
        CmpOp::Ne => tight!(|a: i64, b: i64| a != b),
        CmpOp::Lt => tight!(|a: i64, b: i64| a < b),
        CmpOp::Ge => tight!(|a: i64, b: i64| a >= b),
    }
    (v, 0)
}

/// Executor for [`FastProgram`]s: runs regions over a resident
/// [`VliwState`] with no scoreboard, no alias hardware and no counters
/// of its own.
///
/// Every region carries its compiled-out hardware (`QueuePlan`), timing
/// and work counters, so the only run-time detection state is the word
/// each planned memory op recorded on the current entry, and an entry's
/// statistics are one table lookup. An entry its region's guard clears
/// keeps no detection state at all.
#[derive(Clone, Debug)]
pub struct FastSim {
    /// The scheme regions are translated for.
    kind: HwKind,
    /// The register count of that scheme's file ([`HwKind::file_regs`]).
    num_regs: u32,
    /// The word each planned memory op recorded on the current entry, by
    /// plan ordinal. Recycled across entries: a check's producers always
    /// record earlier in the same entry, so stale words are never read.
    words: Vec<u64>,
    /// Entries whose region's guard found a check that could fire.
    guard_misses: u64,
}

impl FastSim {
    /// Creates an executor for the given hardware scheme, with the file
    /// size [`AnyAliasHw::for_kind`] would build.
    ///
    /// # Panics
    /// Panics for a SMARQ file of more than 64 registers.
    pub fn new(kind: HwKind, num_regs: u32) -> Self {
        FastSim {
            kind,
            num_regs: kind.file_regs(num_regs),
            words: Vec::new(),
            guard_misses: 0,
        }
    }

    /// Entries so far whose region's entry-time guard found a check
    /// that could fire, so that they ran every check; an entry of a
    /// region without a guard is not one.
    pub fn guard_misses(&self) -> u64 {
        self.guard_misses
    }

    /// Runs one region entry to completion. Architectural effects
    /// (registers, memory, exit choice, alias-exception outcome and
    /// rollback) and every statistic are bit-exact with the cycle
    /// simulator on the machine the region was compiled for. The
    /// statistics come from the region's table, rollback penalty
    /// included.
    ///
    /// An entry the region's guard clears cannot fault: it runs the
    /// checked ops as plain loads and stores, with no checkpoint and no
    /// store-undo log. Any other entry runs every check.
    ///
    /// # Panics
    /// Panics when the region's annotations target another scheme than
    /// this executor's, or break the bounds contract of its file. Both
    /// are checked once, before the region runs.
    pub fn run_region(
        &mut self,
        prog: &FastProgram,
        state: &mut VliwState,
        mem: &mut Memory,
    ) -> (RegionOutcome, RegionStats) {
        let plan = &prog.plan;
        if plan.kind != HwKind::None && plan.kind != self.kind {
            kind_mismatch(plan.kind, self.kind);
        }
        enforce_alias_bounds(self.kind, self.num_regs, plan.max_reg, plan.max_rotation);
        let (outcome, ops) = match &prog.guard {
            Some(guard) if guard.clears(&state.regs) => self.exec::<false>(prog, state, mem),
            guard => {
                self.guard_misses += u64::from(guard.is_some());
                if self.words.len() < plan.tags.len() {
                    self.words.resize(plan.tags.len(), 0);
                }
                // Atomic-region entry: the register checkpoint and the
                // store-undo log exist only on entries that can fault.
                state.begin_region(prog.write_mask);
                self.exec::<true>(prog, state, mem)
            }
        };
        (outcome, prog.stats[ops - 1])
    }

    /// The region loop, with the checks (`CHECKED`) or without them.
    /// Returns the outcome and the count of emitted ops the entry
    /// executed: the stream is straight-line, so that count is the base
    /// of the stream op where the entry ended plus the ops it executed —
    /// no per-op counter on the hot path.
    fn exec<const CHECKED: bool>(
        &mut self,
        prog: &FastProgram,
        state: &mut VliwState,
        mem: &mut Memory,
    ) -> (RegionOutcome, usize) {
        let plan = &prog.plan;
        let words = &mut self.words[..];
        // The count of emitted ops an entry that ends at stream op `at`
        // executed, given the ops `at` itself executed.
        let ended = |at: usize, executed: u64| prog.base[at] as usize + executed as usize;
        for (at, op) in prog.ops.iter().enumerate() {
            match *op {
                FastOp::Op(VliwOp::IConst { rd, value }) => state.regs[ridx(rd)] = value,
                FastOp::Op(VliwOp::Alu { op, rd, ra, rb }) => {
                    state.regs[ridx(rd)] = op.apply(state.regs[ridx(ra)], state.regs[ridx(rb)]);
                }
                FastOp::Op(VliwOp::AluImm { op, rd, ra, imm }) => {
                    state.regs[ridx(rd)] = op.apply(state.regs[ridx(ra)], imm);
                }
                FastOp::Op(VliwOp::Copy { rd, ra }) => state.regs[ridx(rd)] = state.regs[ridx(ra)],
                FastOp::Op(VliwOp::FConst { fd, value }) => state.fregs[ridx(fd)] = value,
                FastOp::Op(VliwOp::Fpu { op, fd, fa, fb }) => {
                    state.fregs[ridx(fd)] = op.apply(state.fregs[ridx(fa)], state.fregs[ridx(fb)]);
                }
                FastOp::Op(VliwOp::FCopy { fd, fa }) => {
                    state.fregs[ridx(fd)] = state.fregs[ridx(fa)]
                }
                FastOp::Op(VliwOp::ItoF { fd, ra }) => {
                    state.fregs[ridx(fd)] = state.regs[ridx(ra)] as f64
                }
                FastOp::Op(VliwOp::FtoI { rd, fa }) => {
                    state.regs[ridx(rd)] = state.fregs[ridx(fa)] as i64
                }
                // Inert memory ops: no check, no recording.
                FastOp::Op(VliwOp::Load { rd, base, disp, .. }) => {
                    let addr = (state.regs[ridx(base)].wrapping_add(disp)) as u64;
                    state.regs[ridx(rd)] = mem.read(addr) as i64;
                }
                FastOp::Op(VliwOp::FLoad { fd, base, disp, .. }) => {
                    let addr = (state.regs[ridx(base)].wrapping_add(disp)) as u64;
                    state.fregs[ridx(fd)] = mem.read_f64(addr);
                }
                FastOp::Op(VliwOp::Store { rs, base, disp, .. }) => {
                    let addr = (state.regs[ridx(base)].wrapping_add(disp)) as u64;
                    let old = mem.replace(addr, state.regs[ridx(rs)] as u64);
                    if CHECKED {
                        state.log_store(addr, old);
                    }
                }
                FastOp::Op(VliwOp::FStore { fs, base, disp, .. }) => {
                    let addr = (state.regs[ridx(base)].wrapping_add(disp)) as u64;
                    let old = mem.replace(addr, state.fregs[ridx(fs)].to_bits());
                    if CHECKED {
                        state.log_store(addr, old);
                    }
                }
                // Planned memory ops: checked and logged on a checked
                // entry, plain loads and stores on one the guard cleared.
                FastOp::CheckedLoad {
                    rd,
                    base,
                    ordinal,
                    disp,
                    start,
                    end,
                } => {
                    let addr = (state.regs[ridx(base)].wrapping_add(disp)) as u64;
                    let check = Check {
                        ordinal,
                        start,
                        end,
                    };
                    if CHECKED {
                        if let Err(v) = plan.check(check, addr, words) {
                            return (fault(state, mem, v), ended(at, 1));
                        }
                    }
                    state.regs[ridx(rd)] = mem.read(addr) as i64;
                }
                FastOp::CheckedFLoad {
                    fd,
                    base,
                    ordinal,
                    disp,
                    start,
                    end,
                } => {
                    let addr = (state.regs[ridx(base)].wrapping_add(disp)) as u64;
                    let check = Check {
                        ordinal,
                        start,
                        end,
                    };
                    if CHECKED {
                        if let Err(v) = plan.check(check, addr, words) {
                            return (fault(state, mem, v), ended(at, 1));
                        }
                    }
                    state.fregs[ridx(fd)] = mem.read_f64(addr);
                }
                FastOp::CheckedStore {
                    rs,
                    base,
                    ordinal,
                    disp,
                    start,
                    end,
                } => {
                    let addr = (state.regs[ridx(base)].wrapping_add(disp)) as u64;
                    let check = Check {
                        ordinal,
                        start,
                        end,
                    };
                    if CHECKED {
                        if let Err(v) = plan.check(check, addr, words) {
                            return (fault(state, mem, v), ended(at, 1));
                        }
                    }
                    let old = mem.replace(addr, state.regs[ridx(rs)] as u64);
                    if CHECKED {
                        state.log_store(addr, old);
                    }
                }
                FastOp::CheckedFStore {
                    fs,
                    base,
                    ordinal,
                    disp,
                    start,
                    end,
                } => {
                    let addr = (state.regs[ridx(base)].wrapping_add(disp)) as u64;
                    let check = Check {
                        ordinal,
                        start,
                        end,
                    };
                    if CHECKED {
                        if let Err(v) = plan.check(check, addr, words) {
                            return (fault(state, mem, v), ended(at, 1));
                        }
                    }
                    let old = mem.replace(addr, state.fregs[ridx(fs)].to_bits());
                    if CHECKED {
                        state.log_store(addr, old);
                    }
                }
                // `compile` never wraps these. An `unreachable!` arm for
                // them would cost the loop a register: the region state
                // spills, and specfp-fast ran ~15% slower with one.
                FastOp::Op(
                    VliwOp::AlatClear { .. }
                    | VliwOp::Rotate { .. }
                    | VliwOp::Amov { .. }
                    | VliwOp::Nop
                    | VliwOp::Exit { .. },
                ) => {}
                FastOp::Exit { exit_id } => {
                    return (RegionOutcome::Exited { exit_id }, ended(at, 1));
                }
                FastOp::ExitIf {
                    op,
                    ra,
                    rb,
                    exit_id,
                } => {
                    if op.eval(state.regs[ridx(ra)], state.regs[ridx(rb)]) {
                        return (RegionOutcome::Exited { exit_id }, ended(at, 1));
                    }
                }
                FastOp::AluImmExitIf {
                    op,
                    rd,
                    ra,
                    imm,
                    cmp,
                    ca,
                    cb,
                    exit_id,
                } => {
                    let v = op.apply(state.regs[ridx(ra)], imm);
                    state.regs[ridx(rd)] = v;
                    // Forward the just-written value into the check: the
                    // loop-back compare almost always reads the induction
                    // variable, and the register-to-register chain beats
                    // a store-to-load round trip through the file.
                    let a = if ca == rd { v } else { state.regs[ridx(ca)] };
                    if cmp.eval(a, state.regs[ridx(cb)]) {
                        // The fused pair counts as two executed ops.
                        return (RegionOutcome::Exited { exit_id }, ended(at, 2));
                    }
                }
                FastOp::AluImmExitIfRep {
                    op,
                    rd,
                    imm,
                    cmp,
                    cb,
                    exit_id,
                    n,
                } => {
                    // The whole run chains through a host-register local;
                    // the register file is touched once on entry and once
                    // on the way out. The bound is invariant by
                    // construction (`cb != rd`, nothing else writes). The
                    // induction updates of real counted loops (add/sub by
                    // an immediate) get their own statically-known update
                    // closure so the tight loop carries no dispatch at all.
                    let v = state.regs[ridx(rd)];
                    let bound = state.regs[ridx(cb)];
                    let reps = u64::from(n);
                    let (v, taken) = match op {
                        AluOp::Add => rep_run(v, bound, reps, |x| x.wrapping_add(imm), cmp),
                        AluOp::Sub => rep_run(v, bound, reps, |x| x.wrapping_sub(imm), cmp),
                        _ => rep_run(v, bound, reps, |x| op.apply(x, imm), cmp),
                    };
                    state.regs[ridx(rd)] = v;
                    if taken != 0 {
                        // `taken` fused pairs executed, two ops each.
                        return (RegionOutcome::Exited { exit_id }, ended(at, 2 * taken));
                    }
                }
            }
        }
        unreachable!("compile() guarantees a terminal unconditional exit")
    }
}

/// A region translated for one alias-hardware scheme reached an executor
/// of another: a translation contract, like the bounds contract.
#[cold]
#[inline(never)]
fn kind_mismatch(region: HwKind, executor: HwKind) -> ! {
    panic!("a region annotated for {region:?} alias hardware ran on a {executor:?} executor")
}

/// Alias-exception path: the cycle simulator's own rollback
/// ([`VliwState::rollback`]); the stats table charges the rollback
/// cycles. Only reachable from a check, so only checked entries call it
/// and the checkpoint taken in `run_region` is always live.
#[inline(never)]
fn fault(state: &mut VliwState, mem: &mut Memory, v: AliasViolation) -> RegionOutcome {
    state.rollback(mem);
    RegionOutcome::AliasException(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarq_guest::FpuOp;
    use smarq_vliw::{Bundle, ExitTarget, MachineConfig, Simulator};

    fn exit_targets(n: u32) -> Vec<ExitTarget> {
        (0..n).map(|_| ExitTarget { guest_block: None }).collect()
    }

    fn smarq_annot(p: bool, c: bool, offset: u32) -> AliasAnnot {
        AliasAnnot::Smarq { p, c, offset }
    }

    /// A region with a speculatively hoisted load: the load sets queue
    /// offset 0, the store checks from offset 0 — aliasing iff r1 == r2.
    fn speculative_region() -> VliwProgram {
        VliwProgram {
            bundles: vec![
                Bundle {
                    ops: vec![
                        VliwOp::Load {
                            rd: 10,
                            base: 1,
                            disp: 0,
                            alias: smarq_annot(true, false, 0),
                            tag: 1,
                        },
                        VliwOp::IConst { rd: 11, value: 7 },
                    ],
                },
                Bundle {
                    ops: vec![VliwOp::Store {
                        rs: 11,
                        base: 2,
                        disp: 0,
                        alias: smarq_annot(false, true, 0),
                        tag: 2,
                    }],
                },
                Bundle {
                    ops: vec![
                        VliwOp::Alu {
                            op: AluOp::Add,
                            rd: 12,
                            ra: 10,
                            rb: 11,
                        },
                        VliwOp::Exit {
                            exit_id: 0,
                            cond: None,
                        },
                    ],
                },
            ],
            exits: exit_targets(1),
        }
    }

    type TierRun = (RegionOutcome, RegionStats, VliwState, Memory);

    fn run_both(
        program: &VliwProgram,
        setup: impl Fn(&mut [i64; 64], &mut Memory),
    ) -> (TierRun, TierRun) {
        let prog = compile(program).expect("test region compiles");

        let mut sim = Simulator::new(
            MachineConfig::default(),
            AnyAliasHw::for_kind(HwKind::Smarq, 4),
        );
        let mut vstate = VliwState::new();
        let mut vmem = Memory::new();
        setup(&mut vstate.regs, &mut vmem);
        let (vout, vstats) = sim
            .run_region_resident(program, prog.write_mask, &mut vstate, &mut vmem)
            .expect("cycle sim runs");

        let mut fast = FastSim::new(HwKind::Smarq, 4);
        let mut fstate = VliwState::new();
        let mut fmem = Memory::new();
        setup(&mut fstate.regs, &mut fmem);
        let (fout, fstats) = fast.run_region(&prog, &mut fstate, &mut fmem);

        ((vout, vstats, vstate, vmem), (fout, fstats, fstate, fmem))
    }

    #[test]
    fn commit_path_matches_cycle_sim_bit_exactly() {
        let program = speculative_region();
        let ((vout, vstats, vstate, vmem), (fout, fstats, fstate, fmem)) =
            run_both(&program, |regs, mem| {
                regs[1] = 0x100;
                regs[2] = 0x200; // disjoint: no alias
                mem.write(0x100, 41);
            });
        assert_eq!(vout, RegionOutcome::Exited { exit_id: 0 });
        assert_eq!(fout, vout);
        assert_eq!(fstate.regs, vstate.regs);
        assert_eq!(fstate.fregs, vstate.fregs);
        assert_eq!(fmem, vmem);
        // Work counters and timing agree.
        assert_eq!(fstats.ops, vstats.ops);
        assert_eq!(fstats.mem_ops, vstats.mem_ops);
        assert_eq!(fstats.alias_checks, vstats.alias_checks);
        assert_eq!(fstats.entries_scanned, vstats.entries_scanned);
        assert_eq!(fstats.cycles, vstats.cycles);
        assert_eq!(fstats.bundles, vstats.bundles);
        assert!(vstats.cycles > 0);
    }

    #[test]
    fn alias_exception_rolls_back_bit_exactly() {
        let program = speculative_region();
        let ((vout, vstats, vstate, vmem), (fout, fstats, fstate, fmem)) =
            run_both(&program, |regs, mem| {
                regs[1] = 0x100;
                regs[2] = 0x100; // same word: the check fires
                mem.write(0x100, 41);
            });
        assert!(matches!(vout, RegionOutcome::AliasException(_)));
        assert_eq!(fout, vout);
        assert_eq!(fstats, vstats, "rollback cycles included");
        assert_eq!(fstate.regs, vstate.regs, "rollback restored registers");
        assert_eq!(fmem, vmem, "rollback restored memory");
        assert_eq!(fmem.read(0x100), 41, "store undone");
    }

    /// A store whose check offset equals the register count: both tiers
    /// must reject it with the shared bounds-contract panic, in release
    /// builds too (the cycle-tier twin lives in `smarq_vliw::sim`).
    #[test]
    #[should_panic(expected = "SMARQ queue contract violated")]
    fn out_of_range_check_offset_panics_on_the_fast_tier() {
        let program = VliwProgram {
            bundles: vec![Bundle {
                ops: vec![
                    VliwOp::Store {
                        rs: 1,
                        base: 2,
                        disp: 0,
                        alias: smarq_annot(false, true, 4),
                        tag: 1,
                    },
                    VliwOp::Exit {
                        exit_id: 0,
                        cond: None,
                    },
                ],
            }],
            exits: exit_targets(1),
        };
        let prog = compile(&program).expect("test region compiles");
        let mut fast = FastSim::new(HwKind::Smarq, 4);
        fast.run_region(&prog, &mut VliwState::new(), &mut Memory::new());
    }

    /// The plan enforces the same contract as the dynamic queue, once per
    /// entry: a rotation past the file panics before the region runs.
    #[test]
    #[should_panic(expected = "SMARQ queue contract violated")]
    fn over_long_rotation_panics_on_the_fast_tier() {
        let program = VliwProgram {
            bundles: vec![Bundle {
                ops: vec![
                    VliwOp::Rotate { amount: 5 },
                    VliwOp::Exit {
                        exit_id: 0,
                        cond: None,
                    },
                ],
            }],
            exits: exit_targets(1),
        };
        let prog = compile(&program).expect("test region compiles");
        let mut fast = FastSim::new(HwKind::Smarq, 4);
        fast.run_region(&prog, &mut VliwState::new(), &mut Memory::new());
    }

    /// A one-bundle region of `ops` ending in the unconditional exit.
    fn region_of(ops: Vec<VliwOp>) -> VliwProgram {
        let exit = VliwOp::Exit {
            exit_id: 0,
            cond: None,
        };
        VliwProgram {
            bundles: vec![Bundle {
                ops: [ops, vec![exit]].concat(),
            }],
            exits: exit_targets(1),
        }
    }

    fn load(alias: AliasAnnot) -> VliwOp {
        VliwOp::Load {
            rd: 10,
            base: 1,
            disp: 0,
            alias,
            tag: 1,
        }
    }

    fn efficeon_set(set: u8) -> AliasAnnot {
        AliasAnnot::Efficeon {
            set: Some(set),
            check_mask: 0,
        }
    }

    /// An annotation no hardware of its scheme holds, and a region that
    /// mixes schemes, are typed compile errors; the widest in-range
    /// operands compile.
    #[test]
    fn compile_rejects_alias_operands_no_hardware_holds() {
        let err = |ops| compile(&region_of(ops)).unwrap_err();
        let ok = |ops| compile(&region_of(ops)).is_ok();
        let smarq_load = load(smarq_annot(true, false, 0));
        assert!(ok(vec![load(smarq_annot(true, true, 63))]));
        assert!(ok(vec![smarq_load, VliwOp::Rotate { amount: 64 }]));
        assert!(ok(vec![load(efficeon_set(14))]));
        assert!(ok(vec![load(AliasAnnot::AlatSet { entry: 1000 })]));
        assert_eq!(
            err(vec![load(smarq_annot(true, false, 64))]),
            SimError::AliasOutOfRange {
                kind: HwKind::Smarq,
                value: 64
            }
        );
        assert_eq!(
            err(vec![smarq_load, VliwOp::Rotate { amount: 65 }]),
            SimError::AliasOutOfRange {
                kind: HwKind::Smarq,
                value: 65
            }
        );
        assert_eq!(
            err(vec![VliwOp::Amov { src: 0, dst: 64 }]),
            SimError::AliasOutOfRange {
                kind: HwKind::Smarq,
                value: 64
            }
        );
        assert_eq!(
            err(vec![load(efficeon_set(15))]),
            SimError::AliasOutOfRange {
                kind: HwKind::Efficeon,
                value: 15
            }
        );
        assert_eq!(
            err(vec![smarq_load, load(efficeon_set(0))]),
            SimError::MixedAliasKinds {
                first: HwKind::Smarq,
                second: HwKind::Efficeon
            }
        );
        assert_eq!(
            err(vec![
                VliwOp::AlatClear { entry: 0 },
                VliwOp::Rotate { amount: 0 }
            ]),
            SimError::MixedAliasKinds {
                first: HwKind::Alat,
                second: HwKind::Smarq
            }
        );
    }

    /// An Efficeon set index past the file panics with the contract
    /// message before the region runs (the cycle-tier twin lives in
    /// `smarq_vliw::sim`).
    #[test]
    #[should_panic(expected = "Efficeon alias file contract violated")]
    fn efficeon_set_past_the_file_panics_on_the_fast_tier() {
        let prog = compile(&region_of(vec![load(efficeon_set(12))])).unwrap();
        let mut fast = FastSim::new(HwKind::Efficeon, 8);
        fast.run_region(&prog, &mut VliwState::new(), &mut Memory::new());
    }

    /// A region translated for one scheme cannot run on an executor of
    /// another.
    #[test]
    #[should_panic(expected = "annotated for Efficeon alias hardware ran on a Smarq executor")]
    fn region_of_another_scheme_panics_on_the_fast_tier() {
        let prog = compile(&region_of(vec![load(efficeon_set(0))])).unwrap();
        let mut fast = FastSim::new(HwKind::Smarq, 64);
        fast.run_region(&prog, &mut VliwState::new(), &mut Memory::new());
    }

    /// A register past the 64-entry files is a typed compile error, not
    /// an index the executor would silently wrap.
    #[test]
    fn compile_rejects_registers_past_the_files() {
        let with = |op: VliwOp| VliwProgram {
            bundles: vec![Bundle {
                ops: vec![
                    op,
                    VliwOp::Exit {
                        exit_id: 0,
                        cond: None,
                    },
                ],
            }],
            exits: exit_targets(1),
        };
        let err = |op| compile(&with(op)).unwrap_err();
        assert_eq!(
            err(VliwOp::IConst { rd: 64, value: 5 }),
            SimError::BadRegister { reg: 64 }
        );
        assert_eq!(
            err(VliwOp::FLoad {
                fd: 1,
                base: 200,
                disp: 0,
                alias: AliasAnnot::None,
                tag: 0,
            }),
            SimError::BadRegister { reg: 200 }
        );
        assert_eq!(
            err(VliwOp::Fpu {
                op: FpuOp::Add,
                fd: 3,
                fa: 255,
                fb: 70,
            }),
            SimError::BadRegister { reg: 255 }
        );
        assert!(compile(&with(VliwOp::IConst { rd: 63, value: 5 })).is_ok());
    }

    /// A register past the files is rejected by both executors before the
    /// region runs: in an issuing op, and in a slot after the
    /// unconditional exit of the same bundle, which the bundle's issue
    /// stall reads. A bundle after the exit's never issues.
    #[test]
    fn registers_past_the_files_are_rejected_by_both_executors() {
        let exit = VliwOp::Exit {
            exit_id: 0,
            cond: None,
        };
        let r64 = VliwOp::Copy { rd: 1, ra: 64 };
        let program = |bundles: Vec<Vec<VliwOp>>| VliwProgram {
            bundles: bundles.into_iter().map(|ops| Bundle { ops }).collect(),
            exits: exit_targets(1),
        };
        let run = |p: &VliwProgram| {
            let mut sim = Simulator::new(
                MachineConfig::default(),
                AnyAliasHw::for_kind(HwKind::None, 0),
            );
            let mut st = VliwState::new();
            st.regs[1] = 7;
            let got = sim
                .run_region(p, &mut st, &mut Memory::new())
                .map(|(o, _)| o);
            assert_eq!(st.regs[1], 7, "nothing ran");
            got
        };
        let bad = SimError::BadRegister { reg: 64 };
        for p in [
            program(vec![vec![r64], vec![exit]]),
            program(vec![vec![exit, r64]]),
        ] {
            assert_eq!(compile(&p).unwrap_err(), bad, "{p:?}");
            assert_eq!(run(&p).unwrap_err(), bad, "{p:?}");
        }
        let unreached = program(vec![vec![exit], vec![r64]]);
        assert!(compile(&unreached).is_ok());
        assert_eq!(run(&unreached), Ok(RegionOutcome::Exited { exit_id: 0 }));
    }

    /// One random memory op or alias-management op of a `kind` stream
    /// over a `width`-register file, addressing a pool of a few words
    /// (some unaligned) so checks hit.
    fn random_op(rng: &mut smarq::prng::Prng, kind: HwKind, width: u32, tag: u32) -> VliwOp {
        if rng.chance(3, 10) {
            match kind {
                HwKind::Smarq if rng.chance(2, 3) => {
                    let amount = if rng.chance(1, 16) {
                        width
                    } else {
                        rng.range_u32(0, width.min(4) + 1)
                    };
                    return VliwOp::Rotate { amount };
                }
                HwKind::Smarq => {
                    return VliwOp::Amov {
                        src: rng.range_u32(0, width),
                        dst: rng.range_u32(0, width),
                    }
                }
                HwKind::Alat => {
                    return VliwOp::AlatClear {
                        entry: rng.range_u32(0, 4),
                    }
                }
                _ => {}
            }
        }
        let is_load = rng.chance(1, 2);
        let alias = match kind {
            _ if rng.chance(1, 8) => AliasAnnot::None,
            HwKind::Smarq => {
                smarq_annot(rng.chance(2, 3), rng.chance(1, 2), rng.range_u32(0, width))
            }
            HwKind::Efficeon => AliasAnnot::Efficeon {
                set: rng.chance(2, 3).then(|| rng.range_u32(0, width) as u8),
                // Mask bits past a narrow file name empty registers.
                check_mask: rng.bounded(1 << EfficeonHw::MAX_REGS),
            },
            HwKind::Alat if is_load => AliasAnnot::AlatSet {
                entry: rng.range_u32(0, 4),
            },
            _ => AliasAnnot::None,
        };
        let skew = if rng.chance(1, 4) {
            rng.range_u32(1, 8)
        } else {
            0
        };
        let disp = i64::from(0x100 + rng.range_u32(0, 6) * 8 + skew);
        if is_load {
            VliwOp::Load {
                rd: 1,
                base: 0,
                disp,
                alias,
                tag,
            }
        } else {
            VliwOp::Store {
                rs: 1,
                base: 0,
                disp,
                alias,
                tag,
            }
        }
    }

    /// The emitted ops of `program` an entry can execute, in slot order:
    /// the non-`Nop` ops up to the first unconditional exit.
    fn emitted(program: &VliwProgram) -> Vec<VliwOp> {
        let ops = program.bundles.iter().flat_map(|b| &b.ops);
        let mut out: Vec<VliwOp> = ops.filter(|op| **op != VliwOp::Nop).copied().collect();
        let end = out
            .iter()
            .position(|op| matches!(op, VliwOp::Exit { cond: None, .. }))
            .expect("a terminal exit");
        out.truncate(end + 1);
        out
    }

    /// The stream op of `prog` that stands for each emitted op, by
    /// position; `None` for a dropped op and the second half of a fused
    /// pair or run.
    fn stream_op_at(prog: &FastProgram, len: usize) -> Vec<Option<FastOp>> {
        let mut at = vec![None; len];
        for (op, &b) in prog.ops().iter().zip(prog.base.iter()) {
            at[b as usize] = Some(*op);
        }
        at
    }

    /// The plan of a checked memory op; `None` for the other ops.
    fn planned(op: &FastOp) -> Option<Check> {
        match *op {
            FastOp::CheckedLoad {
                ordinal,
                start,
                end,
                ..
            }
            | FastOp::CheckedFLoad {
                ordinal,
                start,
                end,
                ..
            }
            | FastOp::CheckedStore {
                ordinal,
                start,
                end,
                ..
            }
            | FastOp::CheckedFStore {
                ordinal,
                start,
                end,
                ..
            } => Some(Check {
                ordinal,
                start,
                end,
            }),
            _ => None,
        }
    }

    /// The compiled-out hardware against the hardware it replaces, for
    /// every scheme. Random streams of annotated loads and stores plus
    /// the scheme's management ops (SMARQ rotations and AMOVs, ALAT
    /// clears) are lowered by `compile`, which plans on the smallest
    /// admissible file and drops the management ops, and replayed access
    /// by access from the source program, the management ops included:
    /// every memory op must do what `AnyAliasHw::mem_access` does at the
    /// real width. A planned op's check must return the first
    /// conflicting producer, an inert op must never conflict, and the
    /// examined count the stats table adds after the op must be the
    /// hardware's. A stream ends at its first hit, as a region entry
    /// does. Each whole stream also runs on `FastSim` and on the cycle
    /// simulator, which must agree on outcome, every statistic (timing
    /// too) and memory.
    #[test]
    fn plan_matches_the_dynamic_queue_on_random_streams() {
        use smarq::prng::Prng;
        let schemes = [
            (HwKind::Smarq, 1u32),
            (HwKind::Smarq, 4),
            (HwKind::Smarq, 16),
            (HwKind::Smarq, 64),
            (HwKind::Efficeon, 1),
            (HwKind::Efficeon, 4),
            (HwKind::Efficeon, 15),
            (HwKind::Alat, 0),
        ];
        for (kind, width) in schemes {
            let at = format!("{kind:?}/{width}");
            let mut rng = Prng::new(u64::from(width) * 7919 + kind as u64);
            let mut split = Prng::new(u64::from(width) + 1);
            let mut sim =
                Simulator::new(MachineConfig::default(), AnyAliasHw::for_kind(kind, width));
            let mut fast = FastSim::new(kind, width);
            let (mut hits, mut scanned, mut faults) = (0, 0, 0);
            for stream in 0..300 {
                let mut ops: Vec<VliwOp> = (1..=rng.range_u32(1, 40))
                    .map(|tag| random_op(&mut rng, kind, width, tag))
                    .collect();
                ops.push(VliwOp::Exit {
                    exit_id: 0,
                    cond: None,
                });
                // Bundles of 1 to 4 slots, so loads into r1 stall the
                // stores that read it and the timing has shape.
                let mut bundles = Vec::new();
                while !ops.is_empty() {
                    let take = (split.range_u32(1, 5) as usize).min(ops.len());
                    bundles.push(Bundle {
                        ops: ops.drain(..take).collect(),
                    });
                }
                let program = VliwProgram {
                    bundles,
                    exits: exit_targets(1),
                };
                let prog = compile(&program).unwrap();
                let plan = &prog.plan;
                let source = emitted(&program);
                let lowered = stream_op_at(&prog, source.len());
                assert!(
                    !prog.ops().iter().any(|op| matches!(
                        op,
                        FastOp::Op(VliwOp::Rotate { .. } | VliwOp::Amov { .. })
                            | FastOp::Op(VliwOp::AlatClear { .. })
                    )),
                    "{at} stream={stream}: management ops are dropped"
                );

                // Access by access. The recorded words start out holding
                // a pool word: a stale word must never be read.
                let mut hw = AnyAliasHw::for_kind(kind, width);
                let mut words = vec![0x100; plan.tags.len()];
                for (pos, op) in source.iter().enumerate() {
                    let addr = match *op {
                        VliwOp::Load { disp, .. } | VliwOp::Store { disp, .. } => disp as u64,
                        VliwOp::Rotate { amount } => {
                            hw.rotate(amount);
                            continue;
                        }
                        VliwOp::Amov { src, dst } => {
                            hw.amov(src, dst);
                            continue;
                        }
                        VliwOp::AlatClear { entry } => {
                            hw.alat_clear(entry);
                            continue;
                        }
                        _ => continue,
                    };
                    let (alias, is_load, tag) = op.mem_access().unwrap();
                    let want = hw.mem_access(alias, MemRange::word(addr), is_load, tag);
                    let examined =
                        prog.stats[pos + 1].entries_scanned - prog.stats[pos].entries_scanned;
                    let got = match lowered[pos].expect("a memory op is never dropped") {
                        FastOp::Op(inert) => {
                            assert_eq!(inert, *op, "{at} stream={stream} access={pos}");
                            Ok(())
                        }
                        other => match planned(&other) {
                            Some(check) => plan.check(check, addr, &mut words),
                            None => panic!("{at} stream={stream}: {op:?} lowered to {other:?}"),
                        },
                    }
                    .map(|()| examined as u32);
                    assert_eq!(got, want, "{at} stream={stream} access={pos}");
                    match got {
                        Ok(n) => scanned += n,
                        Err(_) => {
                            hits += 1;
                            break;
                        }
                    }
                }

                // The whole stream, on both tiers.
                let (mut vstate, mut fstate) = (VliwState::new(), VliwState::new());
                let (mut vmem, mut fmem) = (Memory::new(), Memory::new());
                let (vout, vstats) = sim
                    .run_region_resident(&program, prog.write_mask, &mut vstate, &mut vmem)
                    .unwrap();
                let (fout, fstats) = fast.run_region(&prog, &mut fstate, &mut fmem);
                assert_eq!(fout, vout, "{at} stream={stream}");
                // Work counters, cycles and bundles, faults included.
                assert_eq!(fstats, vstats, "{at} stream={stream}");
                assert_eq!(fmem, vmem, "{at} stream={stream}");
                assert_eq!(fstate.regs, vstate.regs);
                faults += u32::from(matches!(fout, RegionOutcome::AliasException(_)));
            }
            assert!(
                hits > 20 && faults > 20 && scanned > 100,
                "{at}: stream too tame ({hits} hits, {faults} faults, {scanned} scanned)"
            );
        }
    }

    /// `op` addressing through register `base` with displacement `disp`.
    fn rebased(op: VliwOp, base: u8, disp: i64) -> VliwOp {
        match op {
            VliwOp::Load { rd, tag, alias, .. } => VliwOp::Load {
                rd,
                base,
                tag,
                disp,
                alias,
            },
            VliwOp::Store { rs, tag, alias, .. } => VliwOp::Store {
                rs,
                base,
                tag,
                disp,
                alias,
            },
            op => op,
        }
    }

    /// Every way an entry can end, against the cycle simulator, on random
    /// streams with fused pairs, repetition runs, pairs split by another
    /// op, `Nop`s and dropped management ops. Each stream runs once to
    /// its terminal exit, once to each conditional exit at each of its
    /// iterations, and once to each fault each planned check can raise,
    /// against each of its producers. Every entry must end where it was
    /// steered, and all six `RegionStats` fields must equal the
    /// simulator's.
    #[test]
    fn entries_end_at_every_exit_and_fault_with_the_simulators_stats() {
        use smarq::prng::Prng;
        // Exit group `g` counts in register 4 + g against the bound in
        // register 10 + g and leaves through exit g + 1. Memory op `i`
        // addresses through register 16 + i, by default a word of its
        // own.
        const GROUPS: u8 = 6;
        const MEM_OPS: u32 = 48;
        let word_of = |i: usize| 0x1000 + 8 * i as i64;
        let schemes = [
            (HwKind::Smarq, 16u32),
            (HwKind::Smarq, 64),
            (HwKind::Efficeon, 15),
            (HwKind::Alat, 0),
            (HwKind::None, 0),
        ];
        for (kind, width) in schemes {
            let at = format!("{kind:?}/{width}");
            let mut rng = Prng::new(0xE17 + u64::from(width) * 31 + kind as u64);
            let mut sim =
                Simulator::new(MachineConfig::default(), AnyAliasHw::for_kind(kind, width));
            let mut fast = FastSim::new(kind, width);
            let (mut exits, mut faults, mut dropped) = (0, 0, 0);
            for stream in 0..60 {
                let mut ops = Vec::new();
                // Per exit group, the bounds that fire it at each of its
                // checks in turn.
                let mut fire = Vec::new();
                let mut mem_ops = 0;
                for g in 0..GROUPS {
                    for _ in 0..rng.range_u32(0, 8) {
                        if rng.chance(1, 10) {
                            ops.push(VliwOp::Nop);
                        }
                        let op = random_op(&mut rng, kind, width.max(1), mem_ops + 1);
                        if op.is_mem() && mem_ops < MEM_OPS {
                            ops.push(rebased(op, 16 + mem_ops as u8, 0));
                            mem_ops += 1;
                        } else if !op.is_mem() {
                            ops.push(op);
                        }
                    }
                    let (ind, bnd, exit_id) = (4 + g, 10 + g, u32::from(g) + 1);
                    let update = VliwOp::AluImm {
                        op: AluOp::Add,
                        rd: ind,
                        ra: ind,
                        imm: 1,
                    };
                    let check = VliwOp::Exit {
                        exit_id,
                        cond: Some(CondExit {
                            op: CmpOp::Ge,
                            ra: ind,
                            rb: bnd,
                        }),
                    };
                    match rng.range_u32(0, 4) {
                        // A plain check.
                        0 => {
                            ops.push(check);
                            fire.push((g, vec![0]));
                        }
                        // A pair kept apart by a management op (dropped
                        // from the stream), or by a plain op where the
                        // scheme has none.
                        1 => {
                            let between = match kind {
                                HwKind::Smarq => VliwOp::Rotate { amount: 0 },
                                HwKind::Alat => VliwOp::AlatClear { entry: 0 },
                                _ => VliwOp::IConst { rd: 3, value: 0 },
                            };
                            ops.extend([update, between, check]);
                            fire.push((g, vec![1]));
                        }
                        // A fused pair, or a run of `n` of them, with a
                        // `Nop` in the way now and then.
                        _ => {
                            let n = rng.range_u32(1, 6);
                            for _ in 0..n {
                                ops.push(update);
                                if rng.chance(1, 8) {
                                    ops.push(VliwOp::Nop);
                                }
                                ops.push(check);
                            }
                            fire.push((g, (1..=i64::from(n)).collect()));
                        }
                    }
                }
                ops.push(VliwOp::Exit {
                    exit_id: 0,
                    cond: None,
                });
                let mut bundles = Vec::new();
                while !ops.is_empty() {
                    let take = (rng.range_u32(1, 5) as usize).min(ops.len());
                    bundles.push(Bundle {
                        ops: ops.drain(..take).collect(),
                    });
                }
                let program = VliwProgram {
                    bundles,
                    exits: exit_targets(u32::from(GROUPS) + 1),
                };
                let prog = compile(&program).unwrap();
                let source = emitted(&program);
                let widths: u32 = prog.ops().iter().map(FastOp::width).sum();
                dropped += source.len() - widths as usize;

                // One entry from the default state with `steer` applied;
                // returns the outcome once both tiers agree on it.
                let mut run = |steer: &dyn Fn(&mut [i64; 64])| {
                    let mut regs = [0i64; 64];
                    for g in 0..GROUPS {
                        regs[usize::from(10 + g)] = i64::MAX;
                    }
                    for i in 0..mem_ops as usize {
                        regs[16 + i] = word_of(i);
                    }
                    steer(&mut regs);
                    let (mut vstate, mut fstate) = (VliwState::new(), VliwState::new());
                    (vstate.regs, fstate.regs) = (regs, regs);
                    let (mut vmem, mut fmem) = (Memory::new(), Memory::new());
                    let (vout, vstats) = sim
                        .run_region_resident(&program, prog.write_mask, &mut vstate, &mut vmem)
                        .unwrap();
                    let (fout, fstats) = fast.run_region(&prog, &mut fstate, &mut fmem);
                    assert_eq!(fout, vout, "{at} stream={stream}");
                    assert_eq!(fstats, vstats, "{at} stream={stream} {fout:?}");
                    assert_eq!(fmem, vmem, "{at} stream={stream}");
                    assert_eq!(fstate.regs, vstate.regs, "{at} stream={stream}");
                    fout
                };
                assert_eq!(run(&|_| {}), RegionOutcome::Exited { exit_id: 0 });
                for (g, bounds) in &fire {
                    for &bound in bounds {
                        let out = run(&|regs| regs[usize::from(10 + g)] = bound);
                        let exit_id = u32::from(*g) + 1;
                        assert_eq!(out, RegionOutcome::Exited { exit_id }, "{at} {stream}");
                        exits += 1;
                    }
                }

                // Faults: the memory op behind each plan ordinal, then
                // every check against every producer it compares with.
                let lowered = stream_op_at(&prog, source.len());
                let plan = &prog.plan;
                let mut mem_of = vec![0; plan.tags.len()];
                let mut checks = Vec::new();
                let memory = source.iter().enumerate().filter(|(_, op)| op.is_mem());
                for (i, (pos, _)) in memory.enumerate() {
                    if let Some(check) = lowered[pos].as_ref().and_then(planned) {
                        mem_of[check.ordinal as usize] = i;
                        checks.push((i, check));
                    }
                }
                for (victim, c) in checks {
                    for &p in &plan.producers[c.start as usize..c.end as usize] {
                        let target = mem_of[p as usize];
                        let skew = i64::from(rng.range_u32(0, 8));
                        let out = run(&|regs| regs[16 + victim] = word_of(target) + skew);
                        let want = AliasViolation {
                            checker_tag: victim as u32 + 1,
                            producer_tag: target as u32 + 1,
                        };
                        assert_eq!(out, RegionOutcome::AliasException(want), "{at} {stream}");
                        faults += 1;
                    }
                }
            }
            let tame = |n: usize| format!("{at}: streams too tame ({n})");
            assert!(exits > 500, "{}", tame(exits));
            if kind != HwKind::None {
                assert!(faults > 200, "{}", tame(faults));
            }
            if matches!(kind, HwKind::Smarq | HwKind::Alat) {
                assert!(dropped > 100, "{}", tame(dropped));
            }
        }
    }

    /// The guard against the simulator on every kind of entry. Random
    /// streams under SMARQ 16 and 64, Efficeon 15 and the ALAT address
    /// through four base registers no op writes, with word-aligned
    /// displacements, so every stream has a guard. Each runs from bases
    /// far apart (some unaligned), which the guard must clear; then, for
    /// every group and every forbidden difference, from a checker base
    /// that hits it exactly, hits it from elsewhere in the word (an
    /// unaligned base) or misses it by 8 either way. A hit must miss the
    /// guard and fault; every entry must equal the simulator's in
    /// outcome, registers, memory and all six `RegionStats` fields.
    #[test]
    fn guarded_entries_match_the_simulator_at_every_forbidden_difference() {
        use smarq::prng::Prng;
        const BASES: u32 = 4;
        // Base register `16 + i` starts at `home(i)`: far from the
        // others, and off the word for odd `i`.
        let home = |i: u32| 0x10_0000 * (i64::from(i) + 1) + 3 * i64::from(i % 2);
        let schemes = [
            (HwKind::Smarq, 16u32),
            (HwKind::Smarq, 64),
            (HwKind::Efficeon, 15),
            (HwKind::Alat, 0),
        ];
        for (kind, width) in schemes {
            let at = format!("{kind:?}/{width}");
            let mut rng = Prng::new(0x6A7D + u64::from(width) * 13 + kind as u64);
            let mut sim =
                Simulator::new(MachineConfig::default(), AnyAliasHw::for_kind(kind, width));
            let mut fast = FastSim::new(kind, width);
            let (mut clears, mut hits, mut near) = (0, 0, 0);
            for stream in 0..80 {
                let mut ops = Vec::new();
                // Each memory op addresses a word of its own at the home
                // bases: two ops on one base and one word would fault on
                // every entry, which leaves no guard.
                let mut slots: Vec<(u8, i64)> = (0..BASES as u8)
                    .flat_map(|i| (-2..4).map(move |w| (16 + i, 8 * w)))
                    .collect();
                for tag in 1..=rng.range_u32(2, 24) {
                    let op = random_op(&mut rng, kind, width.max(1), tag);
                    if op.is_mem() {
                        let pick = rng.range_u32(0, slots.len() as u32) as usize;
                        let (base, disp) = slots.swap_remove(pick);
                        ops.push(rebased(op, base, disp));
                    } else {
                        ops.push(op);
                    }
                    if rng.chance(1, 6) {
                        ops.push(VliwOp::AluImm {
                            op: AluOp::Add,
                            rd: 3,
                            ra: 3,
                            imm: 1,
                        });
                    }
                }
                ops.push(VliwOp::Exit {
                    exit_id: 0,
                    cond: None,
                });
                let mut bundles = Vec::new();
                while !ops.is_empty() {
                    let take = (rng.range_u32(1, 5) as usize).min(ops.len());
                    bundles.push(Bundle {
                        ops: ops.drain(..take).collect(),
                    });
                }
                let program = VliwProgram {
                    bundles,
                    exits: exit_targets(1),
                };
                let prog = compile(&program).unwrap();
                let guard = prog
                    .guard
                    .clone()
                    .expect("fixed bases, aligned displacements");

                // One entry with `steer` applied to the home bases, on
                // both tiers; returns the outcome and whether the guard
                // missed.
                let mut run = |steer: &dyn Fn(&mut [i64; 64])| {
                    let mut regs = [0i64; 64];
                    for i in 0..BASES {
                        regs[16 + i as usize] = home(i);
                    }
                    steer(&mut regs);
                    let (mut vstate, mut fstate) = (VliwState::new(), VliwState::new());
                    (vstate.regs, fstate.regs) = (regs, regs);
                    let (mut vmem, mut fmem) = (Memory::new(), Memory::new());
                    let (vout, vstats) = sim
                        .run_region_resident(&program, prog.write_mask, &mut vstate, &mut vmem)
                        .unwrap();
                    let misses = fast.guard_misses();
                    let (fout, fstats) = fast.run_region(&prog, &mut fstate, &mut fmem);
                    assert_eq!(fout, vout, "{at} stream={stream}");
                    assert_eq!(fstats, vstats, "{at} stream={stream} {fout:?}");
                    assert_eq!(fmem, vmem, "{at} stream={stream}");
                    assert_eq!(fstate.regs, vstate.regs, "{at} stream={stream}");
                    (fout, fast.guard_misses() != misses)
                };
                let clear = run(&|_| {});
                assert_eq!(clear, (RegionOutcome::Exited { exit_id: 0 }, false), "{at}");
                clears += 1;
                let mut start = 0;
                for &(a, b, end) in guard.groups.iter() {
                    for &delta in &guard.deltas[start..end as usize] {
                        let (a, b) = (usize::from(a), usize::from(b));
                        let word = rng.range_u32(0, 8) as i64;
                        for skew in [0, word, -8, 8] {
                            let (out, missed) = run(&|regs| {
                                regs[a] = (regs[b] & !7).wrapping_add(delta as i64) + skew;
                            });
                            if (0..8).contains(&skew) {
                                assert!(missed, "{at} stream={stream}: a hit cleared");
                                assert!(
                                    matches!(out, RegionOutcome::AliasException(_)),
                                    "{at} stream={stream}: {out:?}"
                                );
                                hits += 1;
                            } else {
                                near += 1;
                            }
                        }
                    }
                    start = end as usize;
                }
            }
            let tame = |n: usize| format!("{at}: streams too tame ({n})");
            assert!(hits > 200, "{}", tame(hits));
            assert!(near > 200, "{}", tame(near));
            assert_eq!(clears, 80);
        }
    }

    /// A guard exists exactly when no planned op's base is written before
    /// it and every planned displacement is word-aligned.
    #[test]
    fn guard_needs_unwritten_bases_and_aligned_displacements() {
        // The load of r1 is the producer, the store through r2 checks it.
        let with = |extra: Vec<(usize, VliwOp)>, store_disp: i64| {
            let mut program = speculative_region();
            for (bundle, op) in extra {
                program.bundles[bundle].ops.push(op);
            }
            if let VliwOp::Store { disp, .. } = &mut program.bundles[1].ops[0] {
                *disp = store_disp;
            }
            compile(&program).unwrap()
        };
        let write = |rd| VliwOp::IConst { rd, value: 0x100 };
        let guard = with(vec![], 0).guard.expect("fixed bases");
        assert_eq!(
            (&guard.groups[..], &guard.deltas[..]),
            (&[(2, 1, 1)][..], &[0][..])
        );
        // The checker's base written before the check: no guard.
        assert!(with(vec![(0, write(2))], 0).guard.is_none());
        // The producer's base written after the producer ran: the
        // recorded word is still the entry value's.
        assert!(with(vec![(0, write(1))], 0).guard.is_some());
        // A base written after the last planned op.
        assert!(with(vec![(2, write(2))], 0).guard.is_some());
        // A sub-word displacement.
        assert!(with(vec![], 4).guard.is_none());
        let guard = with(vec![], -16).guard.expect("aligned");
        assert_eq!(&guard.deltas[..], &[16]);

        // One base: the distance is fixed. Apart, the check never fires;
        // on the same word, every entry that reaches it faults.
        let same_base = |disp| {
            compile(&region_of(vec![
                load(smarq_annot(true, false, 0)),
                VliwOp::Store {
                    rs: 2,
                    base: 1,
                    disp,
                    alias: smarq_annot(false, true, 0),
                    tag: 2,
                },
            ]))
            .unwrap()
            .guard
        };
        assert!(same_base(8).is_some_and(|g| g.groups.is_empty()));
        assert!(same_base(0).is_none());
        // A region that cannot fault clears every entry.
        let check_free = compile(&region_of(vec![load(smarq_annot(true, false, 0))])).unwrap();
        assert!(!check_free.can_fault());
        assert!(check_free.guard.is_some_and(|g| g.groups.is_empty()));
    }

    #[test]
    fn compile_flattens_and_truncates_after_exit() {
        let mut program = speculative_region();
        // A rotation, an inert load, and dead code after the
        // unconditional exit.
        program.bundles[1].ops.push(VliwOp::Rotate { amount: 0 });
        program.bundles[1].ops.push(VliwOp::Nop);
        program.bundles[1]
            .ops
            .push(load(smarq_annot(true, false, 3)));
        program.bundles.push(Bundle {
            ops: vec![VliwOp::IConst { rd: 1, value: 0 }],
        });
        let prog = compile(&program).unwrap();
        // In slot order: the planned load and store (the store checks
        // the load) in their checked forms, the other ops with a run-time
        // effect unchanged, the rotation dropped and the exit the
        // terminal lowering form.
        assert_eq!(
            prog.ops(),
            &[
                FastOp::CheckedLoad {
                    rd: 10,
                    base: 1,
                    ordinal: 0,
                    disp: 0,
                    start: 0,
                    end: 0,
                },
                FastOp::Op(VliwOp::IConst { rd: 11, value: 7 }),
                FastOp::CheckedStore {
                    rs: 11,
                    base: 2,
                    ordinal: 1,
                    disp: 0,
                    start: 0,
                    end: 1,
                },
                FastOp::Op(load(smarq_annot(true, false, 3))),
                FastOp::Op(VliwOp::Alu {
                    op: AluOp::Add,
                    rd: 12,
                    ra: 10,
                    rb: 11,
                }),
                FastOp::Exit { exit_id: 0 },
            ]
        );
        // The emitted ops before each stream op, the rotation included.
        assert_eq!(&prog.base[..], &[0, 1, 2, 4, 5, 6]);
        assert_eq!(prog.stats.len(), 7, "one entry per emitted op");
        assert_eq!(prog.stats[6].ops, 7);
        assert_eq!(prog.stats[6].mem_ops, 3);
        assert!(prog.can_fault(), "region has a C-bit check");
    }

    /// Wrapping `VliwOp` costs no space: the lowering forms fit in its
    /// niche, so the hot stream stays as dense as the emitted ops.
    #[test]
    fn fast_ops_are_no_wider_than_vliw_ops() {
        assert_eq!(std::mem::size_of::<FastOp>(), std::mem::size_of::<VliwOp>());
    }

    /// The plan-free shortcut of `compile_for` is what the replay and the
    /// guard produce for a stream with no alias annotation and no queue
    /// management op.
    #[test]
    fn plan_free_regions_lower_as_the_replay_would() {
        let mut rng = smarq::prng::Prng::new(31);
        for _ in 0..200 {
            let len = rng.range_usize(1, 12);
            let mut ops: Vec<VliwOp> = (0..len as u32)
                .map(|tag| random_op(&mut rng, HwKind::None, 0, tag))
                .collect();
            ops.push(VliwOp::Exit {
                exit_id: 0,
                cond: None,
            });
            assert!(ops.iter().all(|op| op.alias_kind() == HwKind::None));
            let (plan, mem_plans) = QueuePlan::build(&ops).unwrap();
            let guard = Guard::build(&ops, &mem_plans, &plan.producers);
            let memory_ops = ops.iter().filter(|op| op.is_mem()).count();
            assert_eq!(
                format!("{:?}", (plan, mem_plans, guard)),
                format!(
                    "{:?}",
                    (
                        QueuePlan::empty(),
                        vec![MemOpPlan::INERT; memory_ops],
                        Some(Guard::empty())
                    )
                )
            );
        }
    }

    #[test]
    fn check_free_regions_are_marked_unfaultable() {
        let program = VliwProgram {
            bundles: vec![Bundle {
                ops: vec![
                    VliwOp::Store {
                        rs: 1,
                        base: 2,
                        disp: 0,
                        alias: smarq_annot(true, false, 0),
                        tag: 1,
                    },
                    VliwOp::Exit {
                        exit_id: 0,
                        cond: None,
                    },
                ],
            }],
            exits: exit_targets(1),
        };
        let prog = compile(&program).unwrap();
        assert!(!prog.can_fault(), "P-only annotations cannot fault");

        // A check whose window is empty at its position cannot fire.
        let lone_check = VliwProgram {
            bundles: vec![Bundle {
                ops: vec![
                    VliwOp::Store {
                        rs: 1,
                        base: 2,
                        disp: 0,
                        alias: smarq_annot(true, true, 0),
                        tag: 1,
                    },
                    VliwOp::Exit {
                        exit_id: 0,
                        cond: None,
                    },
                ],
            }],
            exits: exit_targets(1),
        };
        assert!(!compile(&lone_check).unwrap().can_fault());

        // ALAT: an allocation plus a later store can spuriously fault.
        let alat = VliwProgram {
            bundles: vec![Bundle {
                ops: vec![
                    VliwOp::Load {
                        rd: 1,
                        base: 2,
                        disp: 0,
                        alias: AliasAnnot::AlatSet { entry: 0 },
                        tag: 1,
                    },
                    VliwOp::Store {
                        rs: 1,
                        base: 3,
                        disp: 0,
                        alias: AliasAnnot::None,
                        tag: 2,
                    },
                    VliwOp::Exit {
                        exit_id: 0,
                        cond: None,
                    },
                ],
            }],
            exits: exit_targets(1),
        };
        assert!(compile(&alat).unwrap().can_fault());

        // A store before the allocation has no entry to check.
        let alat_store_first = region_of(vec![
            VliwOp::Store {
                rs: 1,
                base: 3,
                disp: 0,
                alias: AliasAnnot::None,
                tag: 2,
            },
            load(AliasAnnot::AlatSet { entry: 0 }),
        ]);
        assert!(!compile(&alat_store_first).unwrap().can_fault());
    }

    #[test]
    fn compile_rejects_malformed_regions() {
        let no_exit = VliwProgram {
            bundles: vec![Bundle {
                ops: vec![VliwOp::IConst { rd: 1, value: 3 }],
            }],
            exits: exit_targets(1),
        };
        assert!(matches!(compile(&no_exit), Err(SimError::MissingExit)));

        let bad_exit = VliwProgram {
            bundles: vec![Bundle {
                ops: vec![VliwOp::Exit {
                    exit_id: 5,
                    cond: None,
                }],
            }],
            exits: exit_targets(1),
        };
        assert!(matches!(
            compile(&bad_exit),
            Err(SimError::BadExitId { exit_id: 5 })
        ));
    }

    #[test]
    fn adjacent_alu_imm_and_cond_exit_fuse_and_stay_bit_exact() {
        // Induction update followed by the loop-back check — the fusion
        // target — then a second update whose ExitIf is *not* adjacent.
        let program = VliwProgram {
            bundles: vec![
                Bundle {
                    ops: vec![
                        VliwOp::AluImm {
                            op: AluOp::Add,
                            rd: 1,
                            ra: 1,
                            imm: 1,
                        },
                        VliwOp::Exit {
                            exit_id: 1,
                            cond: Some(CondExit {
                                op: CmpOp::Ge,
                                ra: 1,
                                rb: 2,
                            }),
                        },
                    ],
                },
                Bundle {
                    ops: vec![
                        VliwOp::AluImm {
                            op: AluOp::Add,
                            rd: 3,
                            ra: 1,
                            imm: 10,
                        },
                        VliwOp::IConst { rd: 4, value: 9 },
                        VliwOp::Exit {
                            exit_id: 0,
                            cond: None,
                        },
                    ],
                },
            ],
            exits: exit_targets(2),
        };
        let prog = compile(&program).unwrap();
        assert!(
            prog.ops()
                .iter()
                .any(|o| matches!(o, FastOp::AluImmExitIf { .. })),
            "adjacent pair must fuse"
        );
        assert_eq!(prog.ops().len(), program.op_count() - 1);
        // Both polarities of the fused check, bit-exact vs the cycle sim
        // including the executed-op accounting (a fused op counts as 2).
        for r1 in [0i64, 10] {
            let ((vout, vstats, vstate, _), (fout, fstats, fstate, _)) =
                run_both(&program, |regs, _| {
                    regs[1] = r1;
                    regs[2] = 5;
                });
            assert_eq!(fout, vout, "r1={r1}");
            assert_eq!(fstate.regs, vstate.regs);
            assert_eq!(fstats.ops, vstats.ops, "r1={r1}");
        }
    }

    #[test]
    fn identical_fused_runs_coalesce_into_rep_and_stay_bit_exact() {
        // Four copies of the same self-updating induction pair — the
        // shape loop unrolling emits — followed by the terminal exit.
        let pair = |_: u32| {
            vec![
                VliwOp::AluImm {
                    op: AluOp::Add,
                    rd: 1,
                    ra: 1,
                    imm: 3,
                },
                VliwOp::Exit {
                    exit_id: 1,
                    cond: Some(CondExit {
                        op: CmpOp::Ge,
                        ra: 1,
                        rb: 2,
                    }),
                },
            ]
        };
        let program = VliwProgram {
            bundles: (0..4)
                .map(|i| Bundle { ops: pair(i) })
                .chain(std::iter::once(Bundle {
                    ops: vec![VliwOp::Exit {
                        exit_id: 0,
                        cond: None,
                    }],
                }))
                .collect(),
            exits: exit_targets(2),
        };
        let prog = compile(&program).unwrap();
        assert_eq!(
            prog.ops(),
            &[
                FastOp::AluImmExitIfRep {
                    op: AluOp::Add,
                    rd: 1,
                    imm: 3,
                    cmp: CmpOp::Ge,
                    cb: 2,
                    exit_id: 1,
                    n: 4,
                },
                FastOp::Exit { exit_id: 0 },
            ],
            "the run must coalesce into a single repetition op"
        );
        // Sweep the bound so the run exits after 1..=4 iterations or
        // completes: outcome, registers and the executed-op count must
        // match the cycle simulator at every early-out point.
        for bound in [1i64, 4, 7, 10, 1000] {
            let ((vout, vstats, vstate, _), (fout, fstats, fstate, _)) =
                run_both(&program, |regs, _| {
                    regs[1] = 0;
                    regs[2] = bound;
                });
            assert_eq!(fout, vout, "bound={bound}");
            assert_eq!(fstate.regs, vstate.regs, "bound={bound}");
            assert_eq!(fstats, vstats, "bound={bound}");
        }
    }

    #[test]
    fn near_identical_fused_pairs_do_not_coalesce() {
        // Same update but a different immediate in the second copy: the
        // pairs fuse individually and must *not* join a repetition run.
        let program = VliwProgram {
            bundles: vec![Bundle {
                ops: vec![
                    VliwOp::AluImm {
                        op: AluOp::Add,
                        rd: 1,
                        ra: 1,
                        imm: 1,
                    },
                    VliwOp::Exit {
                        exit_id: 1,
                        cond: Some(CondExit {
                            op: CmpOp::Ge,
                            ra: 1,
                            rb: 2,
                        }),
                    },
                    VliwOp::AluImm {
                        op: AluOp::Add,
                        rd: 1,
                        ra: 1,
                        imm: 2,
                    },
                    VliwOp::Exit {
                        exit_id: 1,
                        cond: Some(CondExit {
                            op: CmpOp::Ge,
                            ra: 1,
                            rb: 2,
                        }),
                    },
                    VliwOp::Exit {
                        exit_id: 0,
                        cond: None,
                    },
                ],
            }],
            exits: exit_targets(2),
        };
        let prog = compile(&program).unwrap();
        assert_eq!(
            prog.ops()
                .iter()
                .filter(|o| matches!(o, FastOp::AluImmExitIf { .. }))
                .count(),
            2,
            "differing immediates must stay separate fused pairs"
        );
        assert!(!prog
            .ops()
            .iter()
            .any(|o| matches!(o, FastOp::AluImmExitIfRep { .. })),);
        let ((vout, vstats, vstate, _), (fout, fstats, fstate, _)) =
            run_both(&program, |regs, _| {
                regs[1] = 0;
                regs[2] = 100;
            });
        assert_eq!(fout, vout);
        assert_eq!(fstate.regs, vstate.regs);
        assert_eq!(fstats.ops, vstats.ops);
    }

    #[test]
    fn conditional_exits_and_queue_management_match() {
        // Rotation + AMOV + a conditional exit, run under both tiers.
        let program = VliwProgram {
            bundles: vec![
                Bundle {
                    ops: vec![VliwOp::Load {
                        rd: 10,
                        base: 1,
                        disp: 0,
                        alias: smarq_annot(true, false, 1),
                        tag: 1,
                    }],
                },
                Bundle {
                    ops: vec![
                        VliwOp::Amov { src: 1, dst: 0 },
                        VliwOp::Rotate { amount: 0 },
                    ],
                },
                Bundle {
                    ops: vec![VliwOp::Exit {
                        exit_id: 1,
                        cond: Some(CondExit {
                            op: CmpOp::Eq,
                            ra: 10,
                            rb: 11,
                        }),
                    }],
                },
                Bundle {
                    ops: vec![
                        VliwOp::Store {
                            rs: 10,
                            base: 2,
                            disp: 0,
                            alias: smarq_annot(false, true, 0),
                            tag: 2,
                        },
                        VliwOp::Exit {
                            exit_id: 0,
                            cond: None,
                        },
                    ],
                },
            ],
            exits: exit_targets(2),
        };
        for (r10, r11) in [(5, 5), (5, 6)] {
            let ((vout, _, vstate, vmem), (fout, _, fstate, fmem)) =
                run_both(&program, |regs, mem| {
                    regs[1] = 0x100;
                    regs[2] = 0x100;
                    regs[10] = r10;
                    regs[11] = r11;
                    mem.write(0x100, r10 as u64);
                });
            assert_eq!(fout, vout, "r10={r10} r11={r11}");
            assert_eq!(fstate.regs, vstate.regs);
            assert_eq!(fmem, vmem);
        }
    }

    /// Table-driven check of [`rep_run`]'s early-out contract at every
    /// rep boundary: the reported iteration is 1-based, `0` means the
    /// run completed, and the returned value reflects exactly the
    /// updates applied up to (and including) the firing check.
    #[test]
    fn rep_run_early_out_table() {
        struct Case {
            name: &'static str,
            v0: i64,
            bound: i64,
            n: u64,
            imm: i64,
            cmp: CmpOp,
            want_v: i64,
            want_taken: u64,
        }
        let cases = [
            Case {
                name: "fires on iteration 1",
                v0: 0,
                bound: 1,
                n: 8,
                imm: 1,
                cmp: CmpOp::Ge,
                want_v: 1,
                want_taken: 1,
            },
            Case {
                name: "fires mid-run",
                v0: 0,
                bound: 5,
                n: 8,
                imm: 1,
                cmp: CmpOp::Ge,
                want_v: 5,
                want_taken: 5,
            },
            Case {
                name: "fires exactly on the last rep",
                v0: 0,
                bound: 8,
                n: 8,
                imm: 1,
                cmp: CmpOp::Ge,
                want_v: 8,
                want_taken: 8,
            },
            Case {
                name: "one past the last rep: completes instead",
                v0: 0,
                bound: 9,
                n: 8,
                imm: 1,
                cmp: CmpOp::Ge,
                want_v: 8,
                want_taken: 0,
            },
            Case {
                name: "never fires",
                v0: 0,
                bound: 1000,
                n: 8,
                imm: 1,
                cmp: CmpOp::Ge,
                want_v: 8,
                want_taken: 0,
            },
            Case {
                name: "single-rep run fires",
                v0: 41,
                bound: 42,
                n: 1,
                imm: 1,
                cmp: CmpOp::Eq,
                want_v: 42,
                want_taken: 1,
            },
            Case {
                name: "single-rep run completes",
                v0: 0,
                bound: 42,
                n: 1,
                imm: 1,
                cmp: CmpOp::Eq,
                want_v: 1,
                want_taken: 0,
            },
            Case {
                name: "Ne fires as soon as the value moves off the bound",
                v0: 7,
                bound: 7,
                n: 8,
                imm: 1,
                cmp: CmpOp::Ne,
                want_v: 8,
                want_taken: 1,
            },
            Case {
                name: "Lt on a descending value fires mid-run",
                v0: 3,
                bound: 0,
                n: 8,
                imm: -1,
                cmp: CmpOp::Lt,
                want_v: -1,
                want_taken: 4,
            },
            Case {
                name: "wrapping update is two's-complement exact",
                v0: i64::MAX,
                bound: i64::MIN,
                n: 4,
                imm: 1,
                cmp: CmpOp::Eq,
                want_v: i64::MIN,
                want_taken: 1,
            },
        ];
        for c in &cases {
            let (v, taken) = rep_run(c.v0, c.bound, c.n, |x| x.wrapping_add(c.imm), c.cmp);
            assert_eq!(v, c.want_v, "{}: final value", c.name);
            assert_eq!(taken, c.want_taken, "{}: exit iteration", c.name);
        }
    }

    /// The executor's rep fast path at every boundary, against the cycle
    /// simulator: a coalesced 6-rep run followed by a second fused pair
    /// on a *different* induction register. Early-outs inside the run,
    /// exactly at its end, and past it (falling through into the next
    /// pair) must agree on outcome, registers, executed-op counts and
    /// timing.
    #[test]
    fn rep_boundary_early_outs_match_cycle_sim() {
        let rep_pair = |_: usize| {
            vec![
                VliwOp::AluImm {
                    op: AluOp::Add,
                    rd: 1,
                    ra: 1,
                    imm: 1,
                },
                VliwOp::Exit {
                    exit_id: 1,
                    cond: Some(CondExit {
                        op: CmpOp::Ge,
                        ra: 1,
                        rb: 2,
                    }),
                },
            ]
        };
        let program = VliwProgram {
            bundles: (0..6)
                .map(|i| Bundle { ops: rep_pair(i) })
                .chain([
                    // A second induction on r3 — cannot join the r1 run.
                    Bundle {
                        ops: vec![
                            VliwOp::AluImm {
                                op: AluOp::Add,
                                rd: 3,
                                ra: 3,
                                imm: 1,
                            },
                            VliwOp::Exit {
                                exit_id: 2,
                                cond: Some(CondExit {
                                    op: CmpOp::Ge,
                                    ra: 3,
                                    rb: 2,
                                }),
                            },
                        ],
                    },
                    Bundle {
                        ops: vec![VliwOp::Exit {
                            exit_id: 0,
                            cond: None,
                        }],
                    },
                ])
                .collect(),
            exits: exit_targets(3),
        };
        let prog = compile(&program).unwrap();
        assert!(
            prog.ops()
                .iter()
                .any(|o| matches!(o, FastOp::AluImmExitIfRep { n: 6, .. })),
            "the six identical pairs must coalesce into one run"
        );
        // bound=1..=6: exit at each rep boundary of the run (exit 1).
        // bound=7 with r3 starting at 6: the run completes, the r3 pair
        // fires instead (exit 2). bound=1000: everything falls through
        // to the unconditional exit 0.
        for bound in [1i64, 2, 3, 4, 5, 6, 7, 1000] {
            let ((vout, vstats, vstate, _), (fout, fstats, fstate, _)) =
                run_both(&program, |regs, _| {
                    regs[1] = 0;
                    regs[2] = bound;
                    regs[3] = 6;
                });
            assert_eq!(fout, vout, "bound={bound}: outcome");
            assert_eq!(fstate.regs, vstate.regs, "bound={bound}: registers");
            assert_eq!(fstats.ops, vstats.ops, "bound={bound}: op accounting");
            assert_eq!(
                (fstats.cycles, fstats.bundles),
                (vstats.cycles, vstats.bundles),
                "bound={bound}: timing"
            );
            let expect_exit = match bound {
                1..=6 => 1,
                7 => 2,
                _ => 0,
            };
            assert_eq!(
                fout,
                RegionOutcome::Exited {
                    exit_id: expect_exit
                },
                "bound={bound}: rep-boundary exit routing"
            );
        }
    }
}
