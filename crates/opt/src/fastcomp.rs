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
//! * **Fault-free fast path**: a region whose annotations can never
//!   raise an alias exception ([`FastProgram::can_fault`] false) skips
//!   the register checkpoint *and* the store-undo log — commit is a
//!   no-op, stores write through directly.
//! * **Compiled-out alias hardware**: a region is straight-line, so
//!   under every scheme the detection state at each annotated op is
//!   fixed by the op's position. `compile` replays the region's hardware
//!   once over the stream (`QueuePlan`) and records, per memory op, the
//!   ordered producers its check compares against and its static
//!   examined count. A check is then a few address compares, and
//!   `Rotate`/`Amov`/`AlatClear` do nothing at run time: the executor has
//!   no alias hardware of its own.
//! * **Compiled-out timing**: every latency is a machine constant, so an
//!   entry's cycles and bundles depend only on the op where it ends. `compile_for` runs the
//!   simulator's scoreboard once over the region
//!   ([`smarq_vliw::entry_stamps`]), and the executor reads the stamp of
//!   the op where the entry ended, once per entry, off the positional op
//!   count it already keeps.
//!
//! The op stream is a dense enum array rather than boxed host closures:
//! on this workload the indirect call per op costs more than the match
//! dispatch, and the array keeps the whole region in two cache lines.

use smarq_guest::{AluOp, CmpOp, Memory};
use smarq_vliw::{
    enforce_alias_bounds, entry_stamps, AliasAnnot, AliasViolation, AnyAliasHw, CondExit,
    EfficeonHw, EntryStamp, HwKind, MachineConfig, MemRange, RegionOutcome, RegionStats,
    RegionWriteMask, SimError, VliwOp, VliwProgram, VliwState, SMARQ_MAX_REGS,
};

/// One op of the fast-functional stream: a [`VliwOp`] as emitted, or one
/// of the forms only the lowering creates. `compile` drops `Nop` padding
/// and splits `Exit` by predication, so the hot path never matches on an
/// `Option`; `Op` never holds `Nop` or `Exit`.
///
/// `Op` comes last, and the lowering forms take the tag values 0–3 that
/// `VliwOp` leaves free: a `FastOp` is then no wider than a `VliwOp`, and
/// the region loop dispatches every op on one jump table over the shared
/// tag byte. With `Op` first, or `VliwOp`'s tags starting at 0, the
/// compiler switches on the wrapper first and takes a second indirect
/// jump per emitted op.
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
    /// An emitted op other than `Nop` and `Exit`, unchanged. Declared
    /// last (see above).
    Op(VliwOp),
}

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
    /// One entry per memory op, indexed by its position among the
    /// region's memory ops (its *ordinal*).
    mem: Box<[MemPlan]>,
    /// Every check's producer list, concatenated.
    producers: Box<[Producer]>,
    /// Largest register the region names (SMARQ offset or AMOV operand,
    /// Efficeon set index), if any.
    max_reg: Option<u32>,
    /// Largest rotation the region performs.
    max_rotation: u32,
}

/// What one memory op's check does under the compiled-out hardware.
#[derive(Clone, Copy, Debug)]
struct MemPlan {
    /// `producers[start..end]` is the op's check list, in the order the
    /// hardware's walk visits them (empty without a check).
    start: u32,
    /// End of the check list.
    end: u32,
    /// Valid entries the check examines (the `entries_scanned` proxy).
    examined: u32,
}

/// A producer a check compares against.
#[derive(Clone, Copy, Debug)]
struct Producer {
    /// The producer's memory-op ordinal (where its address is recorded).
    ordinal: u32,
    /// The producer's tag, reported in the alias exception.
    tag: u32,
}

impl QueuePlan {
    /// Replays the region's alias hardware over `ops`. The scheme comes
    /// from the annotations: SMARQ annotations, `Rotate` or `Amov` mean
    /// SMARQ; Efficeon annotations Efficeon; `AlatSet` or `AlatClear` the
    /// ALAT; none of these no hardware.
    ///
    /// # Errors
    /// [`SimError::MixedAliasKinds`] for a region that mixes schemes,
    /// [`SimError::AliasOutOfRange`] for a register or rotation no file
    /// of its scheme holds.
    fn build(ops: &[FastOp]) -> Result<QueuePlan, SimError> {
        // The lowering-only forms are exits and induction updates: only
        // the emitted ops touch alias hardware.
        let emitted = || {
            ops.iter().filter_map(|op| match op {
                FastOp::Op(op) => Some(op),
                _ => None,
            })
        };
        let mut kinds = emitted()
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
        for op in emitted() {
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
        let (mut mem, mut producers, mut tags) = (Vec::new(), Vec::new(), Vec::new());
        for op in emitted() {
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
            let start = producers.len() as u32;
            // One access per op: the check collects every producer it
            // compares against and never hits, so the replay follows the
            // no-alias path, counts the examined entries and records the
            // op (under a word of its own, tagged with its ordinal).
            let word = MemRange::word(u64::from(ordinal) * 8);
            let examined = hw
                .access_with(alias, word, is_load, ordinal, |_, producer| {
                    producers.push(Producer {
                        ordinal: producer,
                        tag: tags[producer as usize],
                    });
                    false
                })
                .expect("a check that never hits raises no violation");
            mem.push(MemPlan {
                start,
                end: producers.len() as u32,
                examined,
            });
            tags.push(tag);
        }
        Ok(QueuePlan {
            kind,
            mem: mem.into_boxed_slice(),
            producers: producers.into_boxed_slice(),
            max_reg,
            max_rotation,
        })
    }

    /// One planned memory access, the compiled-out form of the
    /// hardware's `mem_access`: compares the address of memory op
    /// `ordinal` with the words its producers recorded in `words`, in
    /// walk order. The first overlap raises the [`AliasViolation`];
    /// otherwise the op records its own word and the result is the static
    /// examined count.
    #[inline]
    fn access(
        &self,
        ordinal: usize,
        addr: u64,
        tag: u32,
        words: &mut [u64],
    ) -> Result<u32, AliasViolation> {
        let m = self.mem[ordinal];
        // Accesses are single words (`MemRange::word`), and two word
        // ranges overlap exactly when they share the aligned word.
        let word = addr & !7;
        for p in &self.producers[m.start as usize..m.end as usize] {
            if words[p.ordinal as usize] == word {
                return Err(AliasViolation {
                    checker_tag: tag,
                    producer_tag: p.tag,
                });
            }
        }
        words[ordinal] = word;
        Ok(m.examined)
    }
}

/// A region compiled for the fast-functional tier: the flattened op
/// stream, the compiled-out alias hardware and timing, and the two facts
/// the executor needs up front — the write mask (for the masked
/// checkpoint) and whether any op can raise an alias exception at all.
#[derive(Clone, Debug)]
pub struct FastProgram {
    ops: Box<[FastOp]>,
    /// The compiled-out alias hardware.
    plan: QueuePlan,
    /// The compiled-out timing: `timing[n - 1]` is the cycles and bundles
    /// of an entry that executed `n` ops ([`entry_stamps`]).
    timing: Box<[EntryStamp]>,
    /// Registers the region may write (drives the masked checkpoint).
    pub write_mask: RegionWriteMask,
    /// `true` when some check in the region has a producer to compare
    /// against; `false` regions skip checkpoint and undo logging.
    pub can_fault: bool,
}

impl FastProgram {
    /// The flattened op stream (terminal op is always [`FastOp::Exit`]).
    pub fn ops(&self) -> &[FastOp] {
        &self.ops
    }
}

/// [`compile_for`] on the default machine.
///
/// # Errors
/// As [`compile_for`].
pub fn compile(program: &VliwProgram) -> Result<FastProgram, SimError> {
    compile_for(program, &MachineConfig::default())
}

/// Lowers an emitted region into a [`FastProgram`] for `machine`, whose
/// latencies, checkpoint and rollback costs the timing table reads.
///
/// Validation happens here, once, instead of on every execution: every
/// exit id must be in range, every register of an issuing bundle must
/// index the 64-entry files, the stream must end in an unconditional
/// exit, and the alias annotations must target one scheme within its
/// widest file (the emitter guarantees all of this for well-formed
/// regions). The region's alias hardware (`QueuePlan`) and timing
/// ([`entry_stamps`]) are compiled out here too.
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
) -> Result<FastProgram, SimError> {
    let mut ops = Vec::with_capacity(program.op_count());
    let mut terminated = false;

    'bundles: for bundle in &program.bundles {
        for &op in &bundle.ops {
            match op {
                VliwOp::Nop => {}
                VliwOp::Exit { exit_id, cond } => {
                    if exit_id as usize >= program.exits.len() {
                        return Err(SimError::BadExitId { exit_id });
                    }
                    match cond {
                        None => {
                            ops.push(FastOp::Exit { exit_id });
                            terminated = true;
                            break 'bundles;
                        }
                        Some(CondExit { op, ra, rb }) => ops.push(FastOp::ExitIf {
                            op,
                            ra,
                            rb,
                            exit_id,
                        }),
                    }
                }
                op => ops.push(FastOp::Op(op)),
            }
        }
    }
    if !terminated {
        return Err(SimError::MissingExit);
    }
    // The executor masks register indices to the 64-entry files instead
    // of bounds-checking each access; the timing pass rejects wider
    // indices here, where the op stream is born, which makes the mask a
    // no-op.
    let timing = entry_stamps(program, machine)?.into_boxed_slice();
    // Peephole superinstruction fusion. The stream is straight-line, so
    // any adjacent pair may be fused without reordering concerns; the
    // executor performs the two halves in original order.
    let mut fused: Vec<FastOp> = Vec::with_capacity(ops.len());
    let mut it = ops.into_iter().peekable();
    while let Some(op) = it.next() {
        if let FastOp::Op(VliwOp::AluImm {
            op: alu,
            rd,
            ra,
            imm,
        }) = op
        {
            if let Some(&FastOp::ExitIf {
                op: cmp,
                ra: ca,
                rb: cb,
                exit_id,
            }) = it.peek()
            {
                it.next();
                // Second pass of the peephole, applied on the fly: a
                // self-updating fused pair (`ra == ca == rd`, invariant
                // bound) that repeats the previous stream element extends
                // a repetition run instead of appending another copy.
                // Loop unrolling produces exactly such runs.
                if ra == rd && ca == rd && cb != rd {
                    let extends = match fused.last_mut() {
                        Some(&mut FastOp::AluImmExitIfRep {
                            op: p_op,
                            rd: p_rd,
                            imm: p_imm,
                            cmp: p_cmp,
                            cb: p_cb,
                            exit_id: p_exit,
                            ref mut n,
                        }) if p_op == alu
                            && p_rd == rd
                            && p_imm == imm
                            && p_cmp == cmp
                            && p_cb == cb
                            && p_exit == exit_id
                            && *n < u16::MAX =>
                        {
                            *n += 1;
                            true
                        }
                        Some(&mut FastOp::AluImmExitIf {
                            op: p_op,
                            rd: p_rd,
                            ra: p_ra,
                            imm: p_imm,
                            cmp: p_cmp,
                            ca: p_ca,
                            cb: p_cb,
                            exit_id: p_exit,
                        }) if p_op == alu
                            && p_rd == rd
                            && p_ra == rd
                            && p_ca == rd
                            && p_imm == imm
                            && p_cmp == cmp
                            && p_cb == cb
                            && p_exit == exit_id =>
                        {
                            *fused.last_mut().unwrap() = FastOp::AluImmExitIfRep {
                                op: alu,
                                rd,
                                imm,
                                cmp,
                                cb,
                                exit_id,
                                n: 2,
                            };
                            true
                        }
                        _ => false,
                    };
                    if extends {
                        continue;
                    }
                }
                fused.push(FastOp::AluImmExitIf {
                    op: alu,
                    rd,
                    ra,
                    imm,
                    cmp,
                    ca,
                    cb,
                    exit_id,
                });
                continue;
            }
        }
        fused.push(op);
    }
    let ops = fused;
    let plan = QueuePlan::build(&ops)?;
    // Only a check with a producer to compare against can fire.
    let can_fault = !plan.producers.is_empty();
    Ok(FastProgram {
        ops: ops.into_boxed_slice(),
        plan,
        timing,
        write_mask: RegionWriteMask::of(program),
        can_fault,
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
/// [`VliwState`] with no scoreboard and no alias hardware of its own.
///
/// Every region carries its compiled-out hardware (`QueuePlan`) and
/// timing, so the only run-time detection state is the word each memory
/// op recorded on the current entry, `Rotate`/`Amov`/`AlatClear` do
/// nothing, and an entry's cycles are one table lookup.
#[derive(Clone, Debug)]
pub struct FastSim {
    /// The scheme regions are translated for.
    kind: HwKind,
    /// The register count of that scheme's file ([`HwKind::file_regs`]).
    num_regs: u32,
    /// The word each memory op recorded on the current entry, by
    /// memory-op ordinal. Recycled across entries: a check's producers
    /// always record earlier in the same entry, so stale words are never
    /// read.
    words: Vec<u64>,
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
        }
    }

    /// Runs one region entry to completion. Architectural effects
    /// (registers, memory, exit choice, alias-exception outcome and
    /// rollback) and every statistic are bit-exact with the cycle
    /// simulator on the machine the region was compiled for. `cycles` and
    /// `bundles` come from the region's timing table, rollback penalty
    /// included.
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
        if self.words.len() < plan.mem.len() {
            self.words.resize(plan.mem.len(), 0);
        }
        // Atomic-region entry: the register checkpoint and store-undo log
        // only exist on regions that can actually fault.
        if prog.can_fault {
            state.begin_region(prog.write_mask);
        }
        let (outcome, mut stats) = self.exec(prog, state, mem);
        // The positional op count names the op where the entry ended.
        let stamp = prog.timing[stats.ops as usize - 1];
        stats.cycles = stamp.cycles;
        stats.bundles = stamp.bundles;
        (outcome, stats)
    }

    /// The region loop.
    fn exec(
        &mut self,
        prog: &FastProgram,
        state: &mut VliwState,
        mem: &mut Memory,
    ) -> (RegionOutcome, RegionStats) {
        let mut stats = RegionStats::default();
        // Executed-op accounting is positional: the stream is
        // straight-line, so the op count at any return is the current
        // index plus one, plus one more per fused pair already passed
        // (`extra`) — no per-op counter increment on the hot path.
        let mut extra = 0u64;
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
                FastOp::Op(VliwOp::Load {
                    rd,
                    base,
                    disp,
                    alias,
                    tag,
                }) => {
                    let addr = (state.regs[ridx(base)].wrapping_add(disp)) as u64;
                    if let Err(v) = self.access(&prog.plan, alias, addr, tag, &mut stats) {
                        stats.ops = at as u64 + 1 + extra;
                        return fault(state, mem, v, stats);
                    }
                    state.regs[ridx(rd)] = mem.read(addr) as i64;
                }
                FastOp::Op(VliwOp::FLoad {
                    fd,
                    base,
                    disp,
                    alias,
                    tag,
                }) => {
                    let addr = (state.regs[ridx(base)].wrapping_add(disp)) as u64;
                    if let Err(v) = self.access(&prog.plan, alias, addr, tag, &mut stats) {
                        stats.ops = at as u64 + 1 + extra;
                        return fault(state, mem, v, stats);
                    }
                    state.fregs[ridx(fd)] = mem.read_f64(addr);
                }
                FastOp::Op(VliwOp::Store {
                    rs,
                    base,
                    disp,
                    alias,
                    tag,
                }) => {
                    let addr = (state.regs[ridx(base)].wrapping_add(disp)) as u64;
                    if let Err(v) = self.access(&prog.plan, alias, addr, tag, &mut stats) {
                        stats.ops = at as u64 + 1 + extra;
                        return fault(state, mem, v, stats);
                    }
                    let old = mem.replace(addr, state.regs[ridx(rs)] as u64);
                    if prog.can_fault {
                        state.log_store(addr, old);
                    }
                }
                FastOp::Op(VliwOp::FStore {
                    fs,
                    base,
                    disp,
                    alias,
                    tag,
                }) => {
                    let addr = (state.regs[ridx(base)].wrapping_add(disp)) as u64;
                    if let Err(v) = self.access(&prog.plan, alias, addr, tag, &mut stats) {
                        stats.ops = at as u64 + 1 + extra;
                        return fault(state, mem, v, stats);
                    }
                    let old = mem.replace(addr, state.fregs[ridx(fs)].to_bits());
                    if prog.can_fault {
                        state.log_store(addr, old);
                    }
                }
                // The plan already holds every alias-hardware effect, and
                // `compile` never wraps a `Nop` or an `Exit`. An
                // `unreachable!` arm for those two would cost the loop a
                // register: the region state spills, and specfp-fast ran
                // ~15% slower with one.
                FastOp::Op(
                    VliwOp::AlatClear { .. }
                    | VliwOp::Rotate { .. }
                    | VliwOp::Amov { .. }
                    | VliwOp::Nop
                    | VliwOp::Exit { .. },
                ) => {}
                FastOp::Exit { exit_id } => {
                    stats.ops = at as u64 + 1 + extra;
                    return (RegionOutcome::Exited { exit_id }, stats);
                }
                FastOp::ExitIf {
                    op,
                    ra,
                    rb,
                    exit_id,
                } => {
                    if op.eval(state.regs[ridx(ra)], state.regs[ridx(rb)]) {
                        stats.ops = at as u64 + 1 + extra;
                        return (RegionOutcome::Exited { exit_id }, stats);
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
                        stats.ops = at as u64 + 2 + extra;
                        return (RegionOutcome::Exited { exit_id }, stats);
                    }
                    extra += 1;
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
                        stats.ops = at as u64 + extra + 2 * taken;
                        return (RegionOutcome::Exited { exit_id }, stats);
                    }
                    extra += 2 * reps - 1;
                }
            }
        }
        unreachable!("compile() guarantees a terminal unconditional exit")
    }

    /// The fast tier's copy of the simulator's `mem_hook`: count the
    /// memory op and the check, run the planned detection, accumulate
    /// the energy proxy.
    #[inline(always)]
    fn access(
        &mut self,
        plan: &QueuePlan,
        alias: AliasAnnot,
        addr: u64,
        tag: u32,
        stats: &mut RegionStats,
    ) -> Result<(), AliasViolation> {
        // The memory op's ordinal is the count of memory ops before it.
        let ordinal = stats.mem_ops as usize;
        stats.mem_ops += 1;
        if !matches!(alias, AliasAnnot::None) {
            stats.alias_checks += 1;
        }
        let examined = plan.access(ordinal, addr, tag, &mut self.words)?;
        stats.entries_scanned += u64::from(examined);
        Ok(())
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
/// ([`VliwState::rollback`]); the timing table charges the rollback
/// cycles. Only reachable from a check, so `can_fault` regions are the
/// only callers and the checkpoint taken in `run_region` is always live.
#[inline(never)]
fn fault(
    state: &mut VliwState,
    mem: &mut Memory,
    v: AliasViolation,
    stats: RegionStats,
) -> (RegionOutcome, RegionStats) {
    state.rollback(mem);
    (RegionOutcome::AliasException(v), stats)
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

    /// The compiled-out hardware against the hardware it replaces, for
    /// every scheme. Random streams of annotated loads and stores plus
    /// the scheme's management ops (SMARQ rotations and AMOVs, ALAT
    /// clears) are lowered by `compile`, which plans on the smallest
    /// admissible file, and replayed access by access: every planned
    /// access must return
    /// what `AnyAliasHw::mem_access` returns at the real width — the
    /// examined count, or the first conflicting producer. A stream ends
    /// at its first hit, as a region entry does. Each whole stream also
    /// runs on `FastSim` and on the cycle simulator, which must agree on
    /// outcome, every statistic (timing too) and memory.
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

                // Access by access. The recorded words start out holding
                // a pool word: a stale word must never be read.
                let mut hw = AnyAliasHw::for_kind(kind, width);
                let mut words = vec![0x100; plan.mem.len()];
                let mut ordinal = 0;
                for op in prog.ops() {
                    let FastOp::Op(op) = op else { continue };
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
                    let got = plan.access(ordinal, addr, tag, &mut words);
                    assert_eq!(got, want, "{at} stream={stream} access={ordinal}");
                    ordinal += 1;
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

    #[test]
    fn compile_flattens_and_truncates_after_exit() {
        let mut program = speculative_region();
        // Dead code after the unconditional exit must be dropped.
        program.bundles.push(Bundle {
            ops: vec![VliwOp::IConst { rd: 1, value: 0 }],
        });
        let prog = compile(&program).unwrap();
        // Every emitted op but the exit is wrapped unchanged, in slot
        // order; the exit becomes the terminal lowering form.
        let emitted: Vec<FastOp> = program.bundles[..3]
            .iter()
            .flat_map(|b| &b.ops)
            .filter(|op| !matches!(op, VliwOp::Exit { .. }))
            .map(|&op| FastOp::Op(op))
            .chain([FastOp::Exit { exit_id: 0 }])
            .collect();
        assert_eq!(prog.ops(), &emitted[..]);
        assert_eq!(prog.ops().len(), program.op_count() - 1);
        assert!(prog.can_fault, "region has a C-bit check");
    }

    /// Wrapping `VliwOp` costs no space: the lowering forms fit in its
    /// niche, so the hot stream stays as dense as the emitted ops.
    #[test]
    fn fast_ops_are_no_wider_than_vliw_ops() {
        assert_eq!(std::mem::size_of::<FastOp>(), std::mem::size_of::<VliwOp>());
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
        assert!(!prog.can_fault, "P-only annotations cannot fault");

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
        assert!(!compile(&lone_check).unwrap().can_fault);

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
        assert!(compile(&alat).unwrap().can_fault);

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
        assert!(!compile(&alat_store_first).unwrap().can_fault);
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
