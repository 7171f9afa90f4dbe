//! Fast-functional lowering: compiles an emitted VLIW region into a
//! flat, direct-threaded op stream over [`FastState`], executed with no
//! per-cycle scoreboard, issue modeling or bundle bookkeeping.
//!
//! The cycle simulator stays the timing and differential oracle; this
//! tier reproduces only the *architectural* contract of a region run —
//! register/memory effects, guest-visible exit choice and alias-exception
//! outcomes must be bit-exact with `Simulator::run_region_resident` on
//! the same program (the runtime's sampled tier-down and the fuzz
//! oracle's functional-vs-cycle-sim layer both enforce this).
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
//! * **Compiled-out alias queue**: a region is straight-line, so under
//!   SMARQ the queue's state at every annotated op is fixed by the op's
//!   position. `compile` replays [`FastAliasQueue`] once over the stream
//!   (`QueuePlan`) and records, per memory op, the ordered producers its
//!   check compares against, its static examined count and whether it
//!   records its address. With a hardware-sized file (≤ 64 registers) a
//!   check is then a few address compares, and `Rotate`/`Amov` do nothing
//!   at run time; other schemes and wider files run the generic
//!   `AliasHardware` dispatch.
//!
//! The op stream is a dense enum array rather than boxed host closures:
//! on this workload the indirect call per op costs more than the match
//! dispatch, and the array keeps the whole region in two cache lines.

use smarq_guest::{AluOp, CmpOp, FpuOp, Memory};
use smarq_vliw::{
    AliasAnnot, AliasHardware, AliasViolation, AnyAliasHw, CondExit, FastAliasQueue, FastState,
    HwKind, MemRange, RegionOutcome, RegionStats, RegionWriteMask, SimError, VliwOp, VliwProgram,
};

/// One op of the fast-functional stream — [`VliwOp`] with the padding
/// removed and the exit split by predication so the hot path never
/// matches on an `Option`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FastOp {
    /// `rd = value`.
    IConst {
        /// Destination (integer file).
        rd: u8,
        /// Immediate.
        value: i64,
    },
    /// `rd = ra <op> rb`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: u8,
        /// First source.
        ra: u8,
        /// Second source.
        rb: u8,
    },
    /// `rd = ra <op> imm`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: u8,
        /// Source.
        ra: u8,
        /// Immediate.
        imm: i64,
    },
    /// `rd = ra`.
    Copy {
        /// Destination.
        rd: u8,
        /// Source.
        ra: u8,
    },
    /// `fd = value`.
    FConst {
        /// Destination (fp file).
        fd: u8,
        /// Immediate.
        value: f64,
    },
    /// `fd = fa <op> fb`.
    Fpu {
        /// Operation.
        op: FpuOp,
        /// Destination.
        fd: u8,
        /// First source.
        fa: u8,
        /// Second source.
        fb: u8,
    },
    /// `fd = fa`.
    FCopy {
        /// Destination.
        fd: u8,
        /// Source.
        fa: u8,
    },
    /// `fd = (f64) ra`.
    ItoF {
        /// Destination.
        fd: u8,
        /// Source.
        ra: u8,
    },
    /// `rd = (i64) fa`.
    FtoI {
        /// Destination.
        rd: u8,
        /// Source.
        fa: u8,
    },
    /// Integer load `rd = mem[base + disp]`.
    Load {
        /// Destination.
        rd: u8,
        /// Base register.
        base: u8,
        /// Displacement.
        disp: i64,
        /// Alias-detection annotation.
        alias: AliasAnnot,
        /// Region-local memory-op tag.
        tag: u32,
    },
    /// Integer store `mem[base + disp] = rs`.
    Store {
        /// Source.
        rs: u8,
        /// Base register.
        base: u8,
        /// Displacement.
        disp: i64,
        /// Alias-detection annotation.
        alias: AliasAnnot,
        /// Region-local memory-op tag.
        tag: u32,
    },
    /// FP load `fd = mem[base + disp]`.
    FLoad {
        /// Destination.
        fd: u8,
        /// Base register.
        base: u8,
        /// Displacement.
        disp: i64,
        /// Alias-detection annotation.
        alias: AliasAnnot,
        /// Region-local memory-op tag.
        tag: u32,
    },
    /// FP store `mem[base + disp] = fs`.
    FStore {
        /// Source.
        fs: u8,
        /// Base register.
        base: u8,
        /// Displacement.
        disp: i64,
        /// Alias-detection annotation.
        alias: AliasAnnot,
        /// Region-local memory-op tag.
        tag: u32,
    },
    /// Invalidate ALAT entry `entry`.
    AlatClear {
        /// Entry index.
        entry: u32,
    },
    /// Rotate the alias register queue.
    Rotate {
        /// Rotation amount.
        amount: u32,
    },
    /// Move alias register contents `src -> dst`.
    Amov {
        /// Source offset.
        src: u32,
        /// Destination offset.
        dst: u32,
    },
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
}

impl FastOp {
    /// The largest register index any field of the op names (`0` for
    /// ops without register operands); `compile` rejects the region when
    /// it reaches past the 64-entry files.
    fn max_reg(&self) -> u8 {
        match *self {
            FastOp::IConst { rd, .. } => rd,
            FastOp::Alu { rd, ra, rb, .. } => rd.max(ra).max(rb),
            FastOp::AluImm { rd, ra, .. } | FastOp::Copy { rd, ra } => rd.max(ra),
            FastOp::FConst { fd, .. } => fd,
            FastOp::Fpu { fd, fa, fb, .. } => fd.max(fa).max(fb),
            FastOp::FCopy { fd, fa } => fd.max(fa),
            FastOp::ItoF { fd, ra } => fd.max(ra),
            FastOp::FtoI { rd, fa } => rd.max(fa),
            FastOp::Load { rd, base, .. } => rd.max(base),
            FastOp::Store { rs, base, .. } => rs.max(base),
            FastOp::FLoad { fd, base, .. } => fd.max(base),
            FastOp::FStore { fs, base, .. } => fs.max(base),
            FastOp::AlatClear { .. }
            | FastOp::Rotate { .. }
            | FastOp::Amov { .. }
            | FastOp::Exit { .. } => 0,
            FastOp::ExitIf { ra, rb, .. } => ra.max(rb),
            FastOp::AluImmExitIf { rd, ra, ca, cb, .. } => rd.max(ra).max(ca).max(cb),
            FastOp::AluImmExitIfRep { rd, cb, .. } => rd.max(cb),
        }
    }
}

/// The SMARQ queue of one region, compiled out.
///
/// A region is straight-line code with side exits only, so at every
/// annotated op the queue's occupancy, its load bits and the producer in
/// each live register are fixed by the op's position; only addresses
/// change between entries. [`compile`] therefore replays the queue once,
/// on a [`FastAliasQueue`] of [`FastAliasQueue::MAX_REGS`] registers with
/// producer ids standing in for addresses, and records per memory op
/// what a check compares against. At run time a check only compares its
/// address with the recorded addresses of its producers.
///
/// The plan holds on any file of `n` registers that satisfies the bounds
/// contract (every offset below `n`, every rotation at most `n`): live
/// entries then sit below `n`, so the window a check walks is the same
/// at any `n` from the largest offset + 1 up to 64. [`FastSim`] enforces
/// that contract once per entry.
#[derive(Clone, Debug, Default)]
pub(crate) struct QueuePlan {
    /// One entry per memory op, indexed by its position among the
    /// region's memory ops (its *ordinal*).
    mem: Box<[MemPlan]>,
    /// Every check's producer list, concatenated.
    producers: Box<[Producer]>,
    /// Largest offset the region names (set, check or AMOV operand).
    max_offset: u32,
    /// Largest rotation the region performs.
    max_rotation: u32,
}

/// What one memory op does to the compiled-out queue.
#[derive(Clone, Copy, Debug, Default)]
struct MemPlan {
    /// `producers[start..end]` is the op's check list, in the order the
    /// queue's window walk visits them (empty without a `C` bit).
    start: u32,
    /// End of the check list.
    end: u32,
    /// Valid entries the check examines (the `entries_scanned` proxy).
    examined: u32,
    /// Whether the `P` bit records the op's address.
    records: bool,
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
    /// Replays the SMARQ queue over `ops`. Returns `None` when the
    /// region carries a non-SMARQ annotation, or names an offset or AMOV
    /// operand of 64 or more or a rotation past 64: such regions keep the
    /// dynamic queue, which also enforces the bounds contract.
    fn build(ops: &[FastOp]) -> Option<QueuePlan> {
        const N: u32 = FastAliasQueue::MAX_REGS;
        let mut queue = FastAliasQueue::new(N);
        let (mut mem, mut producers, mut tags) = (Vec::new(), Vec::new(), Vec::new());
        let (mut max_offset, mut max_rotation) = (0, 0);
        for op in ops {
            let (alias, is_load, tag) = match *op {
                FastOp::Load { alias, tag, .. } | FastOp::FLoad { alias, tag, .. } => {
                    (alias, true, tag)
                }
                FastOp::Store { alias, tag, .. } | FastOp::FStore { alias, tag, .. } => {
                    (alias, false, tag)
                }
                FastOp::Rotate { amount } => {
                    if amount > N {
                        return None;
                    }
                    max_rotation = max_rotation.max(amount);
                    queue.rotate(amount);
                    continue;
                }
                FastOp::Amov { src, dst } => {
                    if src.max(dst) >= N {
                        return None;
                    }
                    max_offset = max_offset.max(src).max(dst);
                    queue.amov(src, dst);
                    continue;
                }
                _ => continue,
            };
            let ordinal = mem.len() as u32;
            let start = producers.len() as u32;
            let entry = match alias {
                AliasAnnot::None => MemPlan {
                    start,
                    end: start,
                    ..MemPlan::default()
                },
                AliasAnnot::Smarq { p, c, offset } => {
                    if offset >= N {
                        return None;
                    }
                    max_offset = max_offset.max(offset);
                    if c {
                        queue.walk_window(offset, is_load, |_, producer| {
                            producers.push(Producer {
                                ordinal: producer,
                                tag: tags[producer as usize],
                            });
                            false
                        });
                    }
                    // Every op records a word of its own, so no check
                    // hits and the replay follows the no-alias path.
                    let word = MemRange::word(u64::from(ordinal) * 8);
                    let examined = queue
                        .access(alias, word, is_load, ordinal)
                        .expect("distinct producer words never overlap");
                    MemPlan {
                        start,
                        end: producers.len() as u32,
                        examined,
                        records: p,
                    }
                }
                AliasAnnot::Efficeon { .. } | AliasAnnot::AlatSet { .. } => return None,
            };
            mem.push(entry);
            tags.push(tag);
        }
        Some(QueuePlan {
            mem: mem.into_boxed_slice(),
            producers: producers.into_boxed_slice(),
            max_offset,
            max_rotation,
        })
    }

    /// One planned memory access, the compiled-out form of
    /// [`FastAliasQueue::access`]: compares the address of memory op
    /// `ordinal` with the words its producers recorded in `words`, in
    /// window order. The first overlap raises the [`AliasViolation`];
    /// otherwise the op records its own word if its `P` bit is set and
    /// the result is the static examined count.
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
        if m.records {
            words[ordinal] = word;
        }
        Ok(m.examined)
    }
}

/// A region compiled for the fast-functional tier: the flattened op
/// stream, the compiled-out SMARQ queue, and the two facts the executor
/// needs up front — the write mask (for the masked checkpoint) and
/// whether any op can raise an alias exception at all.
#[derive(Clone, Debug)]
pub struct FastProgram {
    ops: Box<[FastOp]>,
    /// The compiled-out SMARQ queue; `None` for the regions
    /// `QueuePlan::build` leaves to the dynamic one.
    plan: Option<QueuePlan>,
    /// Registers the region may write (drives the masked checkpoint).
    pub write_mask: RegionWriteMask,
    /// `true` when some annotation in the region can raise an alias
    /// exception; `false` regions skip checkpoint and undo logging.
    pub can_fault: bool,
}

impl FastProgram {
    /// The flattened op stream (terminal op is always [`FastOp::Exit`]).
    pub fn ops(&self) -> &[FastOp] {
        &self.ops
    }

    /// Whether the SMARQ queue is compiled out of this region.
    pub fn is_planned(&self) -> bool {
        self.plan.is_some()
    }
}

/// Lowers an emitted region into a [`FastProgram`].
///
/// Validation happens here, once, instead of on every execution: every
/// exit id must be in range, every register must index the 64-entry
/// files, and the stream must end in an unconditional exit (the emitter
/// guarantees all three for well-formed regions). The SMARQ queue is
/// compiled out here too (`QueuePlan`).
///
/// # Errors
/// [`SimError::BadExitId`] for an out-of-range exit,
/// [`SimError::BadRegister`] for a register past the files,
/// [`SimError::MissingExit`] when control can fall off the end.
pub fn compile(program: &VliwProgram) -> Result<FastProgram, SimError> {
    let mut ops = Vec::with_capacity(program.op_count());
    let mut has_check = false;
    let mut has_store = false;
    let mut has_alat_set = false;
    let mut terminated = false;

    let mut note_annot = |alias: AliasAnnot, is_store: bool| {
        has_store |= is_store;
        match alias {
            AliasAnnot::Smarq { c, .. } => has_check |= c,
            AliasAnnot::Efficeon { check_mask, .. } => has_check |= check_mask != 0,
            AliasAnnot::AlatSet { .. } => has_alat_set = true,
            AliasAnnot::None => {}
        }
    };

    'bundles: for bundle in &program.bundles {
        for op in &bundle.ops {
            match *op {
                VliwOp::Nop => {}
                VliwOp::IConst { rd, value } => ops.push(FastOp::IConst { rd, value }),
                VliwOp::Alu { op, rd, ra, rb } => ops.push(FastOp::Alu { op, rd, ra, rb }),
                VliwOp::AluImm { op, rd, ra, imm } => ops.push(FastOp::AluImm { op, rd, ra, imm }),
                VliwOp::Copy { rd, ra } => ops.push(FastOp::Copy { rd, ra }),
                VliwOp::FConst { fd, value } => ops.push(FastOp::FConst { fd, value }),
                VliwOp::Fpu { op, fd, fa, fb } => ops.push(FastOp::Fpu { op, fd, fa, fb }),
                VliwOp::FCopy { fd, fa } => ops.push(FastOp::FCopy { fd, fa }),
                VliwOp::ItoF { fd, ra } => ops.push(FastOp::ItoF { fd, ra }),
                VliwOp::FtoI { rd, fa } => ops.push(FastOp::FtoI { rd, fa }),
                VliwOp::Load {
                    rd,
                    base,
                    disp,
                    alias,
                    tag,
                } => {
                    note_annot(alias, false);
                    ops.push(FastOp::Load {
                        rd,
                        base,
                        disp,
                        alias,
                        tag,
                    });
                }
                VliwOp::Store {
                    rs,
                    base,
                    disp,
                    alias,
                    tag,
                } => {
                    note_annot(alias, true);
                    ops.push(FastOp::Store {
                        rs,
                        base,
                        disp,
                        alias,
                        tag,
                    });
                }
                VliwOp::FLoad {
                    fd,
                    base,
                    disp,
                    alias,
                    tag,
                } => {
                    note_annot(alias, false);
                    ops.push(FastOp::FLoad {
                        fd,
                        base,
                        disp,
                        alias,
                        tag,
                    });
                }
                VliwOp::FStore {
                    fs,
                    base,
                    disp,
                    alias,
                    tag,
                } => {
                    note_annot(alias, true);
                    ops.push(FastOp::FStore {
                        fs,
                        base,
                        disp,
                        alias,
                        tag,
                    });
                }
                VliwOp::AlatClear { entry } => ops.push(FastOp::AlatClear { entry }),
                VliwOp::Rotate { amount } => ops.push(FastOp::Rotate { amount }),
                VliwOp::Amov { src, dst } => ops.push(FastOp::Amov { src, dst }),
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
            }
        }
    }
    if !terminated {
        return Err(SimError::MissingExit);
    }
    // Peephole superinstruction fusion. The stream is straight-line, so
    // any adjacent pair may be fused without reordering concerns; the
    // executor performs the two halves in original order.
    let mut fused: Vec<FastOp> = Vec::with_capacity(ops.len());
    let mut it = ops.into_iter().peekable();
    while let Some(op) = it.next() {
        if let FastOp::AluImm {
            op: alu,
            rd,
            ra,
            imm,
        } = op
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
    // The executor masks register indices to the 64-entry files instead
    // of bounds-checking each access; rejecting wider indices here, where
    // the op stream is born, makes the mask a no-op.
    if let Some(reg) = ops.iter().map(FastOp::max_reg).max().filter(|&r| r >= 64) {
        return Err(SimError::BadRegister { reg });
    }
    let plan = QueuePlan::build(&ops);
    // A SMARQ check can only fire when its plan names a producer; without
    // a plan, any check may. An ALAT store can fault on any valid entry
    // regardless of its own annotation (false positives are the model's
    // point), so the mere combination of an allocation and a later store
    // makes the region faultable. Coarse (region-level, order-blind) but
    // conservative.
    let check_can_fire = match &plan {
        Some(plan) => !plan.producers.is_empty(),
        None => has_check,
    };
    let can_fault = check_can_fire || (has_alat_set && has_store);
    Ok(FastProgram {
        ops: ops.into_boxed_slice(),
        plan,
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

/// Executor for [`FastProgram`]s: owns the alias-detection state and
/// runs regions over a resident [`FastState`] with no timing model.
///
/// Under SMARQ with a single-word file (≤ 64 registers) a region that
/// carries a `QueuePlan` runs with the queue compiled out: the only
/// run-time detection state is the word each producer recorded on the
/// current entry, and `Rotate`/`Amov` do nothing. Every other region and
/// hardware kind runs the dynamic [`AnyAliasHw`].
#[derive(Clone, Debug)]
pub struct FastSim {
    hw: AnyAliasHw,
    /// The word each planned producer recorded on the current entry, by
    /// memory-op ordinal. Recycled across entries: a check's producers
    /// always record earlier in the same entry, so stale words are never
    /// read.
    words: Vec<u64>,
}

impl FastSim {
    /// Creates an executor for the given hardware scheme, sized by
    /// [`AnyAliasHw::for_kind`].
    pub fn new(kind: HwKind, num_regs: u32) -> Self {
        FastSim {
            hw: AnyAliasHw::for_kind(kind, num_regs),
            words: Vec::new(),
        }
    }

    /// Runs one region entry to completion. Architectural effects
    /// (registers, memory, exit choice, alias-exception outcome and
    /// rollback) and the work counters are bit-exact with the cycle
    /// simulator; `cycles` and `bundles` stay 0 because the fast tier has
    /// no timing model.
    ///
    /// # Panics
    /// Panics when a SMARQ region breaks the queue's bounds contract. A
    /// planned region is checked once, before it runs.
    pub fn run_region(
        &mut self,
        prog: &FastProgram,
        state: &mut FastState,
        mem: &mut Memory,
    ) -> (RegionOutcome, RegionStats) {
        // Atomic-region entry: the register checkpoint and store-undo log
        // only exist on regions that can actually fault.
        if prog.can_fault {
            state.begin_region(prog.write_mask);
        }
        match (&self.hw, &prog.plan) {
            (AnyAliasHw::Smarq(queue), Some(plan)) => {
                queue.enforce_bounds(plan.max_offset, plan.max_rotation);
                if self.words.len() < plan.mem.len() {
                    self.words.resize(plan.mem.len(), 0);
                }
                self.exec::<true>(prog, plan, state, mem)
            }
            _ => {
                self.hw.reset();
                self.exec::<false>(prog, &QueuePlan::default(), state, mem)
            }
        }
    }

    /// The region loop, one body for both queue forms (monomorphized, so
    /// neither carries the other's branches): `PLANNED` runs `plan`'s
    /// address compares, otherwise every annotation goes to the dynamic
    /// hardware and `plan` is unused.
    fn exec<const PLANNED: bool>(
        &mut self,
        prog: &FastProgram,
        plan: &QueuePlan,
        state: &mut FastState,
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
                FastOp::IConst { rd, value } => state.regs[ridx(rd)] = value,
                FastOp::Alu { op, rd, ra, rb } => {
                    state.regs[ridx(rd)] = op.apply(state.regs[ridx(ra)], state.regs[ridx(rb)]);
                }
                FastOp::AluImm { op, rd, ra, imm } => {
                    state.regs[ridx(rd)] = op.apply(state.regs[ridx(ra)], imm);
                }
                FastOp::Copy { rd, ra } => state.regs[ridx(rd)] = state.regs[ridx(ra)],
                FastOp::FConst { fd, value } => state.fregs[ridx(fd)] = value,
                FastOp::Fpu { op, fd, fa, fb } => {
                    state.fregs[ridx(fd)] = op.apply(state.fregs[ridx(fa)], state.fregs[ridx(fb)]);
                }
                FastOp::FCopy { fd, fa } => state.fregs[ridx(fd)] = state.fregs[ridx(fa)],
                FastOp::ItoF { fd, ra } => state.fregs[ridx(fd)] = state.regs[ridx(ra)] as f64,
                FastOp::FtoI { rd, fa } => state.regs[ridx(rd)] = state.fregs[ridx(fa)] as i64,
                FastOp::Load {
                    rd,
                    base,
                    disp,
                    alias,
                    tag,
                } => {
                    let addr = (state.regs[ridx(base)].wrapping_add(disp)) as u64;
                    if let Err(v) = self.access::<PLANNED>(plan, alias, addr, true, tag, &mut stats)
                    {
                        stats.ops = at as u64 + 1 + extra;
                        return fault(state, mem, v, stats);
                    }
                    state.regs[ridx(rd)] = mem.read(addr) as i64;
                }
                FastOp::FLoad {
                    fd,
                    base,
                    disp,
                    alias,
                    tag,
                } => {
                    let addr = (state.regs[ridx(base)].wrapping_add(disp)) as u64;
                    if let Err(v) = self.access::<PLANNED>(plan, alias, addr, true, tag, &mut stats)
                    {
                        stats.ops = at as u64 + 1 + extra;
                        return fault(state, mem, v, stats);
                    }
                    state.fregs[ridx(fd)] = mem.read_f64(addr);
                }
                FastOp::Store {
                    rs,
                    base,
                    disp,
                    alias,
                    tag,
                } => {
                    let addr = (state.regs[ridx(base)].wrapping_add(disp)) as u64;
                    if let Err(v) =
                        self.access::<PLANNED>(plan, alias, addr, false, tag, &mut stats)
                    {
                        stats.ops = at as u64 + 1 + extra;
                        return fault(state, mem, v, stats);
                    }
                    let old = mem.replace(addr, state.regs[ridx(rs)] as u64);
                    if prog.can_fault {
                        state.log_store(addr, old);
                    }
                }
                FastOp::FStore {
                    fs,
                    base,
                    disp,
                    alias,
                    tag,
                } => {
                    let addr = (state.regs[ridx(base)].wrapping_add(disp)) as u64;
                    if let Err(v) =
                        self.access::<PLANNED>(plan, alias, addr, false, tag, &mut stats)
                    {
                        stats.ops = at as u64 + 1 + extra;
                        return fault(state, mem, v, stats);
                    }
                    let old = mem.replace(addr, state.fregs[ridx(fs)].to_bits());
                    if prog.can_fault {
                        state.log_store(addr, old);
                    }
                }
                // The plan already holds every queue-management effect.
                FastOp::AlatClear { entry } => {
                    if !PLANNED {
                        self.hw.alat_clear(entry);
                    }
                }
                FastOp::Rotate { amount } => {
                    if !PLANNED {
                        self.hw.rotate(amount);
                    }
                }
                FastOp::Amov { src, dst } => {
                    if !PLANNED {
                        self.hw.amov(src, dst);
                    }
                }
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
    /// memory op and the check, run the detection (planned or dynamic),
    /// accumulate the energy proxy.
    #[inline(always)]
    fn access<const PLANNED: bool>(
        &mut self,
        plan: &QueuePlan,
        alias: AliasAnnot,
        addr: u64,
        is_load: bool,
        tag: u32,
        stats: &mut RegionStats,
    ) -> Result<(), AliasViolation> {
        // The memory op's ordinal is the count of memory ops before it.
        let ordinal = stats.mem_ops as usize;
        stats.mem_ops += 1;
        if !matches!(alias, AliasAnnot::None) {
            stats.alias_checks += 1;
        }
        let examined = if PLANNED {
            plan.access(ordinal, addr, tag, &mut self.words)?
        } else {
            self.hw
                .mem_access(alias, MemRange::word(addr), is_load, tag)?
        };
        stats.entries_scanned += u64::from(examined);
        Ok(())
    }
}

/// Alias-exception path: roll architectural state back, exactly as the
/// cycle simulator does (minus the rollback-cycle penalty — no timing
/// model here). The next entry resets the detection state. Only reachable
/// from a check, so `can_fault` regions are the only callers and the
/// checkpoint taken in `run_region` is always live.
#[inline(never)]
fn fault(
    state: &mut FastState,
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
    use smarq_vliw::{Bundle, ExitTarget, MachineConfig, Simulator, VliwState};

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

    type TierRun<S> = (RegionOutcome, RegionStats, S, Memory);

    fn run_both(
        program: &VliwProgram,
        setup: impl Fn(&mut [i64; 64], &mut Memory),
    ) -> (TierRun<VliwState>, TierRun<FastState>) {
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
        let mut fstate = FastState::new();
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
        // Work counters agree; timing exists only on the cycle sim.
        assert_eq!(fstats.ops, vstats.ops);
        assert_eq!(fstats.mem_ops, vstats.mem_ops);
        assert_eq!(fstats.alias_checks, vstats.alias_checks);
        assert_eq!(fstats.entries_scanned, vstats.entries_scanned);
        assert_eq!(fstats.cycles, 0);
        assert!(vstats.cycles > 0);
    }

    #[test]
    fn alias_exception_rolls_back_bit_exactly() {
        let program = speculative_region();
        let ((vout, _, vstate, vmem), (fout, _, fstate, fmem)) = run_both(&program, |regs, mem| {
            regs[1] = 0x100;
            regs[2] = 0x100; // same word: the check fires
            mem.write(0x100, 41);
        });
        assert!(matches!(vout, RegionOutcome::AliasException(_)));
        assert_eq!(fout, vout);
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
        fast.run_region(&prog, &mut FastState::new(), &mut Memory::new());
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
        assert!(prog.is_planned());
        let mut fast = FastSim::new(HwKind::Smarq, 4);
        fast.run_region(&prog, &mut FastState::new(), &mut Memory::new());
    }

    /// Which regions get a plan: SMARQ (or unannotated) ones whose
    /// offsets fit one occupancy word. A region past it still runs, on
    /// the dynamic queue of a wide file, bit-exact with the cycle tier.
    #[test]
    fn planning_covers_word_sized_smarq_regions_only() {
        let region = |alias: AliasAnnot, tail: Vec<VliwOp>| VliwProgram {
            bundles: vec![Bundle {
                ops: [
                    vec![VliwOp::Load {
                        rd: 10,
                        base: 1,
                        disp: 0,
                        alias,
                        tag: 1,
                    }],
                    tail,
                    vec![
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
                ]
                .concat(),
            }],
            exits: exit_targets(1),
        };
        let planned = |p: &VliwProgram| compile(p).unwrap().is_planned();
        assert!(planned(&region(smarq_annot(true, false, 63), vec![])));
        assert!(planned(&region(AliasAnnot::None, vec![])));
        assert!(planned(&region(
            smarq_annot(true, false, 0),
            vec![VliwOp::Rotate { amount: 64 }]
        )));
        assert!(!planned(&region(
            smarq_annot(true, false, 0),
            vec![VliwOp::Rotate { amount: 65 }]
        )));
        assert!(!planned(&region(
            smarq_annot(true, false, 0),
            vec![VliwOp::Amov { src: 0, dst: 64 }]
        )));
        assert!(!planned(&region(
            AliasAnnot::Efficeon {
                set: Some(0),
                check_mask: 0,
            },
            vec![]
        )));

        // Offset 70 on a 128-register file: unplanned, dynamic, and the
        // store still sees the load's entry after the AMOV to offset 0.
        let wide = region(
            smarq_annot(true, false, 70),
            vec![VliwOp::Amov { src: 70, dst: 0 }],
        );
        let prog = compile(&wide).unwrap();
        assert!(!prog.is_planned());
        assert!(prog.can_fault);
        let mut sim = Simulator::new(
            MachineConfig::default(),
            AnyAliasHw::for_kind(HwKind::Smarq, 128),
        );
        let mut fast = FastSim::new(HwKind::Smarq, 128);
        for r2 in [0x100i64, 0x200] {
            let (mut vstate, mut fstate) = (VliwState::new(), FastState::new());
            vstate.regs[1] = 0x100;
            vstate.regs[2] = r2;
            fstate.copy_from_vliw(&vstate);
            let (mut vmem, mut fmem) = (Memory::new(), Memory::new());
            let (vout, vstats) = sim
                .run_region_resident(&wide, prog.write_mask, &mut vstate, &mut vmem)
                .unwrap();
            let (fout, fstats) = fast.run_region(&prog, &mut fstate, &mut fmem);
            assert_eq!(fout, vout, "r2={r2:#x}");
            assert_eq!(
                matches!(fout, RegionOutcome::AliasException(_)),
                r2 == 0x100
            );
            assert_eq!(fstats.entries_scanned, vstats.entries_scanned);
            assert_eq!(fstate.regs, vstate.regs);
            assert_eq!(fmem, vmem);
        }
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

    /// The compiled-out queue against the queue it replaces. Random
    /// streams of SMARQ loads and stores, rotations and AMOVs at widths
    /// 1, 4, 16 and 64 are lowered by `compile` (which plans at 64
    /// registers) and replayed access by access: every planned access
    /// must return what `FastAliasQueue::access` returns at the real
    /// width — the examined count, or the first conflicting producer.
    /// Addresses come from a pool of a few words, some unaligned, so
    /// checks hit; a stream ends at its first hit, as a region entry
    /// does. Each whole stream also runs on `FastSim` and on the cycle
    /// simulator, which must agree on outcome, work counters and memory.
    #[test]
    fn plan_matches_the_dynamic_queue_on_random_streams() {
        use smarq::prng::Prng;
        for width in [1u32, 4, 16, 64] {
            let mut rng = Prng::new(u64::from(width) * 7919 + 3);
            let mut sim = Simulator::new(
                MachineConfig::default(),
                AnyAliasHw::for_kind(HwKind::Smarq, width),
            );
            let mut fast = FastSim::new(HwKind::Smarq, width);
            let (mut hits, mut scanned, mut faults) = (0, 0, 0);
            for stream in 0..300 {
                let mut ops = Vec::new();
                for tag in 1..=rng.range_u32(1, 40) {
                    match rng.bounded(10) {
                        0..=6 => {
                            let alias = if rng.chance(1, 8) {
                                AliasAnnot::None
                            } else {
                                smarq_annot(
                                    rng.chance(2, 3),
                                    rng.chance(1, 2),
                                    rng.range_u32(0, width),
                                )
                            };
                            let skew = if rng.chance(1, 4) {
                                rng.range_u32(1, 8)
                            } else {
                                0
                            };
                            let disp = i64::from(0x100 + rng.range_u32(0, 6) * 8 + skew);
                            ops.push(if rng.chance(1, 2) {
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
                            });
                        }
                        7 | 8 => {
                            let amount = if rng.chance(1, 16) {
                                width
                            } else {
                                rng.range_u32(0, width.min(4) + 1)
                            };
                            ops.push(VliwOp::Rotate { amount });
                        }
                        _ => ops.push(VliwOp::Amov {
                            src: rng.range_u32(0, width),
                            dst: rng.range_u32(0, width),
                        }),
                    }
                }
                ops.push(VliwOp::Exit {
                    exit_id: 0,
                    cond: None,
                });
                let program = VliwProgram {
                    bundles: vec![Bundle { ops }],
                    exits: exit_targets(1),
                };
                let prog = compile(&program).unwrap();
                let plan = prog.plan.as_ref().expect("in-contract streams are planned");

                // Access by access. The recorded words start out holding
                // a pool word: a stale word must never be read.
                let mut queue = FastAliasQueue::new(width);
                let mut words = vec![0x100; plan.mem.len()];
                let mut ordinal = 0;
                for op in prog.ops() {
                    let (alias, addr, is_load, tag) = match *op {
                        FastOp::Load {
                            disp, alias, tag, ..
                        } => (alias, disp as u64, true, tag),
                        FastOp::Store {
                            disp, alias, tag, ..
                        } => (alias, disp as u64, false, tag),
                        FastOp::Rotate { amount } => {
                            queue.rotate(amount);
                            continue;
                        }
                        FastOp::Amov { src, dst } => {
                            queue.amov(src, dst);
                            continue;
                        }
                        _ => continue,
                    };
                    let want = queue.access(alias, MemRange::word(addr), is_load, tag);
                    let got = plan.access(ordinal, addr, tag, &mut words);
                    assert_eq!(got, want, "width={width} stream={stream} access={ordinal}");
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
                let (mut vstate, mut fstate) = (VliwState::new(), FastState::new());
                let (mut vmem, mut fmem) = (Memory::new(), Memory::new());
                let (vout, vstats) = sim
                    .run_region_resident(&program, prog.write_mask, &mut vstate, &mut vmem)
                    .unwrap();
                let (fout, fstats) = fast.run_region(&prog, &mut fstate, &mut fmem);
                assert_eq!(fout, vout, "width={width} stream={stream}");
                assert_eq!(fstats.ops, vstats.ops, "width={width} stream={stream}");
                assert_eq!(fstats.mem_ops, vstats.mem_ops);
                assert_eq!(fstats.alias_checks, vstats.alias_checks);
                assert_eq!(fstats.entries_scanned, vstats.entries_scanned);
                assert_eq!(fmem, vmem, "width={width} stream={stream}");
                assert_eq!(fstate.regs, vstate.regs);
                faults += u32::from(matches!(fout, RegionOutcome::AliasException(_)));
            }
            assert!(
                hits > 20 && faults > 20 && scanned > 100,
                "width={width}: stream too tame ({hits} hits, {scanned} scanned)"
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
        assert!(matches!(prog.ops().last(), Some(FastOp::Exit { .. })));
        assert_eq!(prog.ops().len(), program.op_count() - 1);
        assert!(prog.can_fault, "region has a C-bit check");
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
            assert_eq!(fstats.ops, vstats.ops, "bound={bound}");
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
    /// pair) must agree on outcome, registers and executed-op counts.
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
