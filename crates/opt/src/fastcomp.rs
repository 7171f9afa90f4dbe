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
//! * **Inlined alias queue**: under SMARQ with a hardware-sized file
//!   (≤ 64 registers) the check/set/rotate/AMOV effects run against
//!   [`FastAliasQueue`], a single-`u64` bitmask form of the ordered
//!   queue, instead of the generic `AliasHardware` dispatch.
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
    /// `true` when every register field indexes below `limit`. Debug-only
    /// invariant check backing the executor's masked (unchecked) register
    /// file accesses.
    fn regs_in_range(&self, limit: u8) -> bool {
        match *self {
            FastOp::IConst { rd, .. } => rd < limit,
            FastOp::Alu { rd, ra, rb, .. } => rd < limit && ra < limit && rb < limit,
            FastOp::AluImm { rd, ra, .. } => rd < limit && ra < limit,
            FastOp::Copy { rd, ra } => rd < limit && ra < limit,
            FastOp::FConst { fd, .. } => fd < limit,
            FastOp::Fpu { fd, fa, fb, .. } => fd < limit && fa < limit && fb < limit,
            FastOp::FCopy { fd, fa } => fd < limit && fa < limit,
            FastOp::ItoF { fd, ra } => fd < limit && ra < limit,
            FastOp::FtoI { rd, fa } => rd < limit && fa < limit,
            FastOp::Load { rd, base, .. } => rd < limit && base < limit,
            FastOp::Store { rs, base, .. } => rs < limit && base < limit,
            FastOp::FLoad { fd, base, .. } => fd < limit && base < limit,
            FastOp::FStore { fs, base, .. } => fs < limit && base < limit,
            FastOp::AlatClear { .. }
            | FastOp::Rotate { .. }
            | FastOp::Amov { .. }
            | FastOp::Exit { .. } => true,
            FastOp::ExitIf { ra, rb, .. } => ra < limit && rb < limit,
            FastOp::AluImmExitIf { rd, ra, ca, cb, .. } => {
                rd < limit && ra < limit && ca < limit && cb < limit
            }
            FastOp::AluImmExitIfRep { rd, cb, .. } => rd < limit && cb < limit,
        }
    }
}

/// A region compiled for the fast-functional tier: the flattened op
/// stream plus the two facts the executor needs up front — the write
/// mask (for the masked checkpoint) and whether any op can raise an
/// alias exception at all.
#[derive(Clone, Debug)]
pub struct FastProgram {
    ops: Box<[FastOp]>,
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
}

/// Lowers an emitted region into a [`FastProgram`].
///
/// Validation happens here, once, instead of on every execution: every
/// exit id must be in range and the stream must end in an unconditional
/// exit (the emitter guarantees both for well-formed regions).
///
/// # Errors
/// [`SimError::BadExitId`] for an out-of-range exit,
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
    // of bounds-checking each access; pin the invariant that makes the
    // mask a no-op here, where the op stream is born.
    debug_assert!(
        ops.iter().all(|op| op.regs_in_range(64)),
        "VLIW program references a register >= 64"
    );
    // An ALAT store can fault on any valid entry regardless of its own
    // annotation (false positives are the model's point), so the mere
    // combination of an allocation and a later store makes the region
    // faultable. Coarse (region-level, order-blind) but conservative.
    let can_fault = has_check || (has_alat_set && has_store);
    Ok(FastProgram {
        ops: ops.into_boxed_slice(),
        write_mask: RegionWriteMask::of(program),
        can_fault,
    })
}

/// Register index for the fast tier's fixed 64-entry files. The mask is
/// a no-op for well-formed programs (`compile` debug-asserts every index
/// is in range, and the cycle simulator panics past 64 long before a
/// region reaches this tier); it exists so the optimizer can prove the
/// access in-bounds and drop the per-operand bounds check.
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

/// Alias-detection state of the fast tier: the inlined single-word SMARQ
/// queue when the configuration allows it, the generic hardware models
/// otherwise. Bit-exact with the cycle simulator's `AnyAliasHw` either
/// way.
#[derive(Clone, Debug)]
enum QueueImpl {
    /// Inlined bitmask SMARQ queue (≤ 64 registers).
    Inline(FastAliasQueue),
    /// Generic dispatch for Efficeon/ALAT/none or oversized files.
    Generic(AnyAliasHw),
}

/// Executor for [`FastProgram`]s: owns the alias-detection state and
/// runs regions over a resident [`FastState`] with no timing model.
#[derive(Clone, Debug)]
pub struct FastSim {
    queue: QueueImpl,
}

impl FastSim {
    /// Creates an executor for the given hardware scheme, mirroring the
    /// sizing rules of [`AnyAliasHw::for_kind`].
    pub fn new(kind: HwKind, num_regs: u32) -> Self {
        let queue = match kind {
            HwKind::Smarq if num_regs.max(1) <= 64 => {
                QueueImpl::Inline(FastAliasQueue::new(num_regs.max(1)))
            }
            _ => QueueImpl::Generic(AnyAliasHw::for_kind(kind, num_regs)),
        };
        FastSim { queue }
    }

    /// Runs one region entry to completion. Architectural effects
    /// (registers, memory, exit choice, alias-exception outcome and
    /// rollback) are bit-exact with the cycle simulator; the returned
    /// stats report executed work only — `cycles` and `bundles` stay 0
    /// because the fast tier has no timing model.
    pub fn run_region(
        &mut self,
        prog: &FastProgram,
        state: &mut FastState,
        mem: &mut Memory,
    ) -> (RegionOutcome, RegionStats) {
        let mut stats = RegionStats::default();
        // Atomic-region entry: detection state always resets; the
        // register checkpoint and store-undo log only exist on regions
        // that can actually fault.
        if prog.can_fault {
            state.begin_region(prog.write_mask);
        }
        match &mut self.queue {
            QueueImpl::Inline(q) => q.reset(),
            QueueImpl::Generic(hw) => hw.reset(),
        }
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
                    stats.mem_ops += 1;
                    if let Err(v) = self.access(alias, addr, true, tag, &mut stats) {
                        stats.ops = at as u64 + 1 + extra;
                        return self.fault(state, mem, v, stats);
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
                    stats.mem_ops += 1;
                    if let Err(v) = self.access(alias, addr, true, tag, &mut stats) {
                        stats.ops = at as u64 + 1 + extra;
                        return self.fault(state, mem, v, stats);
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
                    stats.mem_ops += 1;
                    if let Err(v) = self.access(alias, addr, false, tag, &mut stats) {
                        stats.ops = at as u64 + 1 + extra;
                        return self.fault(state, mem, v, stats);
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
                    stats.mem_ops += 1;
                    if let Err(v) = self.access(alias, addr, false, tag, &mut stats) {
                        stats.ops = at as u64 + 1 + extra;
                        return self.fault(state, mem, v, stats);
                    }
                    let old = mem.replace(addr, state.fregs[ridx(fs)].to_bits());
                    if prog.can_fault {
                        state.log_store(addr, old);
                    }
                }
                FastOp::AlatClear { entry } => match &mut self.queue {
                    // SMARQ hardware ignores ALAT entry management.
                    QueueImpl::Inline(_) => {}
                    QueueImpl::Generic(hw) => hw.alat_clear(entry),
                },
                FastOp::Rotate { amount } => match &mut self.queue {
                    QueueImpl::Inline(q) => q.rotate(amount),
                    QueueImpl::Generic(hw) => hw.rotate(amount),
                },
                FastOp::Amov { src, dst } => match &mut self.queue {
                    QueueImpl::Inline(q) => q.amov(src, dst),
                    QueueImpl::Generic(hw) => hw.amov(src, dst),
                },
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
    /// check, consult the detection state, accumulate the energy proxy.
    #[inline]
    fn access(
        &mut self,
        alias: AliasAnnot,
        addr: u64,
        is_load: bool,
        tag: u32,
        stats: &mut RegionStats,
    ) -> Result<(), AliasViolation> {
        if !matches!(alias, AliasAnnot::None) {
            stats.alias_checks += 1;
        }
        match &mut self.queue {
            QueueImpl::Inline(q) => {
                let AliasAnnot::Smarq { p, c, offset } = alias else {
                    debug_assert!(
                        matches!(alias, AliasAnnot::None),
                        "SMARQ fast queue received a foreign annotation: {alias:?}"
                    );
                    return Ok(());
                };
                let range = MemRange::word(addr);
                if c {
                    stats.entries_scanned += u64::from(q.valid_from(offset));
                    if let Some(producer) = q.check_first(offset, is_load, range) {
                        return Err(AliasViolation {
                            checker_tag: tag,
                            producer_tag: producer,
                        });
                    }
                }
                if p {
                    q.set(offset, range, tag, is_load);
                }
                Ok(())
            }
            QueueImpl::Generic(hw) => {
                let examined = hw.mem_access(alias, MemRange::word(addr), is_load, tag)?;
                stats.entries_scanned += u64::from(examined);
                Ok(())
            }
        }
    }

    /// Alias-exception path: roll architectural state back and reset the
    /// detection state, exactly as the cycle simulator does (minus the
    /// rollback-cycle penalty — no timing model here). Only reachable
    /// from a check, so `can_fault` regions are the only callers and the
    /// checkpoint taken in `run_region` is always live.
    #[inline(never)]
    fn fault(
        &mut self,
        state: &mut FastState,
        mem: &mut Memory,
        v: AliasViolation,
        stats: RegionStats,
    ) -> (RegionOutcome, RegionStats) {
        state.rollback(mem);
        match &mut self.queue {
            QueueImpl::Inline(q) => q.reset(),
            QueueImpl::Generic(hw) => hw.reset(),
        }
        (RegionOutcome::AliasException(v), stats)
    }
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
