//! The VLIW machine state and the cycle-level in-order simulator.
//!
//! [`VliwState`] is the one atomic-region state both execution tiers run
//! on: the register files plus the masked register checkpoint and the
//! store-undo log that make rollback on an alias exception exact (paper
//! §1, Figure 1). [`Simulator`] executes one translated region
//! ([`VliwProgram`]) over it with the timing model: bundles issue in order
//! (one per cycle at best), each bundle stalling until all of its
//! operands are ready (scoreboard), and every memory access runs through
//! the configured [`AnyAliasHw`]. Every latency is a machine constant, so
//! an entry's timing is fixed by where it ends: [`entry_stamps`] computes
//! it once per region with the same rules, and the functional tier
//! (`smarq_opt::fastcomp::FastSim`), which runs every region entry, runs
//! the same state with that table in place of the scoreboard and the
//! alias hardware compiled out. The simulator is that tier's oracle.

use crate::alias_hw::{AliasViolation, AnyAliasHw, HwKind};
use crate::isa::{AliasAnnot, CondExit, MemRange, VliwOp, VliwProgram};
use crate::machine::MachineConfig;
use smarq_guest::Memory;
use std::error::Error;
use std::fmt;

/// The VLIW machine state: 64 integer + 64 floating-point registers,
/// with guest architectural state in registers 0–31 of each file, plus
/// the rollback machinery of an atomic region — a masked register
/// checkpoint and a store-undo log, both recycled across region entries
/// so steady-state execution never allocates.
#[derive(Clone, Debug)]
pub struct VliwState {
    /// Integer register file.
    pub regs: [i64; 64],
    /// Floating-point register file.
    pub fregs: [f64; 64],
    /// Store-undo log `(addr, old_word)`, replayed in reverse on
    /// rollback.
    undo: Vec<(u64, u64)>,
    /// Masked integer-register checkpoint (write-set registers only).
    ckpt_ints: Vec<(u8, i64)>,
    /// Masked FP-register checkpoint.
    ckpt_fps: Vec<(u8, f64)>,
}

impl Default for VliwState {
    fn default() -> Self {
        VliwState {
            regs: [0; 64],
            fregs: [0.0; 64],
            undo: Vec::new(),
            ckpt_ints: Vec::new(),
            ckpt_fps: Vec::new(),
        }
    }
}

impl VliwState {
    /// Creates a zeroed state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads guest registers (32+32) into the low half of the files.
    pub fn load_guest(&mut self, regs: &[i64; 32], fregs: &[f64; 32]) {
        self.regs[..32].copy_from_slice(regs);
        self.fregs[..32].copy_from_slice(fregs);
    }

    /// Stores the low half of the files back to guest registers.
    pub fn store_guest(&self, regs: &mut [i64; 32], fregs: &mut [f64; 32]) {
        regs.copy_from_slice(&self.regs[..32]);
        fregs.copy_from_slice(&self.fregs[..32]);
    }

    /// Atomic-region entry: snapshots the registers in `mask` (the
    /// region's write-set) and clears the store-undo log. Registers
    /// outside the mask are untouched by the region, so restoring the
    /// masked subset reproduces the entry state exactly.
    pub fn begin_region(&mut self, mask: RegionWriteMask) {
        self.undo.clear();
        self.ckpt_ints.clear();
        self.ckpt_fps.clear();
        let mut m = mask.ints;
        while m != 0 {
            let r = m.trailing_zeros() as usize;
            self.ckpt_ints.push((r as u8, self.regs[r]));
            m &= m - 1;
        }
        let mut m = mask.fps;
        while m != 0 {
            let r = m.trailing_zeros() as usize;
            self.ckpt_fps.push((r as u8, self.fregs[r]));
            m &= m - 1;
        }
    }

    /// Logs the pre-store memory word for rollback.
    #[inline]
    pub fn log_store(&mut self, addr: u64, old: u64) {
        self.undo.push((addr, old));
    }

    /// Alias-exception rollback: restores the checkpointed registers and
    /// replays the store-undo log in reverse. Only meaningful after
    /// [`VliwState::begin_region`] on the same entry.
    pub fn rollback(&mut self, mem: &mut Memory) {
        for &(r, v) in &self.ckpt_ints {
            self.regs[r as usize] = v;
        }
        for &(r, v) in &self.ckpt_fps {
            self.fregs[r as usize] = v;
        }
        for i in (0..self.undo.len()).rev() {
            let (addr, old) = self.undo[i];
            mem.write(addr, old);
        }
        self.undo.clear();
    }
}

/// Precomputed register write-sets of a region, as bitmasks over the two
/// 64-entry files. Region entry on either tier
/// ([`VliwState::begin_region`]) checkpoints **only** the registers a
/// region can write: everything else is untouched by execution, so
/// restoring the masked subset on rollback reproduces the entry state
/// exactly. For small hot regions the checkpoint is a handful of register
/// saves — the point of keeping guest state resident across chained
/// region executions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RegionWriteMask {
    /// Bit `r` set: integer register `r` may be written.
    pub ints: u64,
    /// Bit `r` set: floating-point register `r` may be written.
    pub fps: u64,
}

impl RegionWriteMask {
    /// Every register of both files (the conservative full checkpoint).
    pub fn full() -> Self {
        RegionWriteMask {
            ints: u64::MAX,
            fps: u64::MAX,
        }
    }

    /// Scans `program` once and collects every destination register.
    pub fn of(program: &VliwProgram) -> Self {
        let mut m = RegionWriteMask::default();
        for op in program.bundles.iter().flat_map(|b| &b.ops) {
            match *op {
                VliwOp::IConst { rd, .. }
                | VliwOp::Alu { rd, .. }
                | VliwOp::AluImm { rd, .. }
                | VliwOp::Copy { rd, .. }
                | VliwOp::FtoI { rd, .. }
                | VliwOp::Load { rd, .. } => m.ints |= 1u64 << rd,
                VliwOp::FConst { fd, .. }
                | VliwOp::Fpu { fd, .. }
                | VliwOp::FCopy { fd, .. }
                | VliwOp::ItoF { fd, .. }
                | VliwOp::FLoad { fd, .. } => m.fps |= 1u64 << fd,
                VliwOp::Store { .. }
                | VliwOp::FStore { .. }
                | VliwOp::AlatClear { .. }
                | VliwOp::Rotate { .. }
                | VliwOp::Amov { .. }
                | VliwOp::Exit { .. }
                | VliwOp::Nop => {}
            }
        }
        // Fault injection for testing the testers: drop one written
        // integer register from the mask, breaking the chain-boundary
        // obligation that the mask covers the region's write-set. On
        // rollback-free runs the mask only scopes checkpoints and
        // scoreboard clearing, so execution oracles cannot see the bug —
        // the static chain analyzer must.
        if smarq::fault::drop_boundary_enabled() && m.ints != 0 {
            m.ints &= !(1u64 << (63 - m.ints.leading_zeros()));
        }
        m
    }
}

/// Why region execution ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegionOutcome {
    /// The region left through exit `exit_id`; state committed.
    Exited {
        /// Index into [`VliwProgram::exits`].
        exit_id: u32,
    },
    /// An alias exception: state rolled back, region must be re-optimized.
    AliasException(AliasViolation),
}

/// Per-region execution statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RegionStats {
    /// Cycles consumed (including checkpoint and, on exception, rollback).
    pub cycles: u64,
    /// Bundles issued.
    pub bundles: u64,
    /// Non-NOP operations executed.
    pub ops: u64,
    /// Memory operations executed.
    pub mem_ops: u64,
    /// Memory operations carrying an alias annotation.
    pub alias_checks: u64,
    /// Alias entries actually examined by the hardware (an energy proxy).
    pub entries_scanned: u64,
}

/// Simulator errors that indicate translator bugs (not runtime events).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The region ran off the end without an unconditional exit.
    MissingExit,
    /// An `Exit` referenced an id outside the program's exit table.
    BadExitId {
        /// The offending id.
        exit_id: u32,
    },
    /// An op named a register outside the 64-entry register files.
    BadRegister {
        /// The offending register index.
        reg: u8,
    },
    /// An alias annotation or queue op names more than any `kind` file
    /// holds: a SMARQ offset or AMOV operand ≥ 64, a rotation > 64, or an
    /// Efficeon set index ≥ 15.
    AliasOutOfRange {
        /// The annotation's scheme.
        kind: HwKind,
        /// The offset, operand, rotation or set index.
        value: u32,
    },
    /// The region mixes annotations or queue ops of two schemes.
    MixedAliasKinds {
        /// The scheme of the region's first annotation.
        first: HwKind,
        /// The other scheme.
        second: HwKind,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingExit => f.write_str("region fell off the end without an exit"),
            SimError::BadExitId { exit_id } => write!(f, "exit id {exit_id} out of range"),
            SimError::BadRegister { reg } => write!(f, "register {reg} out of range (0..=63)"),
            SimError::AliasOutOfRange { kind, value } => {
                write!(f, "{kind:?} alias operand {value} past every file")
            }
            SimError::MixedAliasKinds { first, second } => {
                write!(f, "region mixes {first:?} and {second:?} annotations")
            }
        }
    }
}

impl Error for SimError {}

/// The region simulator. Owns the machine configuration and the alias
/// hardware; borrows the state and memory per region execution.
pub struct Simulator {
    config: MachineConfig,
    hw: AnyAliasHw,
}

impl Simulator {
    /// Creates a simulator for `config` using alias hardware `hw`.
    pub fn new(config: MachineConfig, hw: AnyAliasHw) -> Self {
        Simulator { config, hw }
    }

    /// Executes one atomic region.
    ///
    /// On [`RegionOutcome::Exited`] the state and memory reflect the
    /// committed region. On [`RegionOutcome::AliasException`] both are
    /// restored to their pre-region contents and the statistics include
    /// the configured rollback penalty.
    ///
    /// # Errors
    /// [`SimError`] on malformed programs (translator bugs).
    pub fn run_region(
        &mut self,
        program: &VliwProgram,
        state: &mut VliwState,
        mem: &mut Memory,
    ) -> Result<(RegionOutcome, RegionStats), SimError> {
        self.run_region_resident(program, RegionWriteMask::full(), state, mem)
    }

    /// Resident entry point for chained dispatch: like
    /// [`Simulator::run_region`], but checkpoints only the registers in
    /// `mask` (the region's precomputed write-set, see
    /// [`RegionWriteMask::of`]). Guest state stays wherever the caller
    /// keeps it — typically resident in `state` across many back-to-back
    /// region executions.
    ///
    /// # Errors
    /// [`SimError`] on malformed programs (translator bugs). Registers are
    /// checked once, before the region runs: [`SimError::BadRegister`]
    /// for a register past the files in a bundle that can issue.
    pub fn run_region_resident(
        &mut self,
        program: &VliwProgram,
        mask: RegionWriteMask,
        state: &mut VliwState,
        mem: &mut Memory,
    ) -> Result<(RegionOutcome, RegionStats), SimError> {
        check_registers(program)?;
        let cfg = self.config;
        let mut stats = RegionStats {
            cycles: cfg.checkpoint_cycles,
            ..RegionStats::default()
        };

        // Atomic region entry: checkpoint the write-set, reset detection
        // state.
        state.begin_region(mask);
        self.hw.reset();

        // Scoreboard: cycle at which each register's value is ready.
        let (mut ir, mut fr) = ([0u64; 64], [0u64; 64]);
        let mut clock: u64 = cfg.checkpoint_cycles;

        let mut outcome: Option<RegionOutcome> = None;

        'bundles: for bundle in &program.bundles {
            // In-order issue: the bundle stalls until every operand of
            // every slot is ready.
            let mut issue = clock;
            for op in &bundle.ops {
                issue = stall_on_sources(issue, op, &ir, &fr);
            }
            stats.bundles += 1;
            clock = issue + 1;

            for op in &bundle.ops {
                if !matches!(op, VliwOp::Nop) {
                    stats.ops += 1;
                }
                match *op {
                    VliwOp::Nop => {}
                    VliwOp::IConst { rd, value } => state.regs[rd as usize] = value,
                    VliwOp::Alu { op, rd, ra, rb } => {
                        state.regs[rd as usize] =
                            op.apply(state.regs[ra as usize], state.regs[rb as usize]);
                    }
                    VliwOp::AluImm { op, rd, ra, imm } => {
                        state.regs[rd as usize] = op.apply(state.regs[ra as usize], imm);
                    }
                    VliwOp::Copy { rd, ra } => state.regs[rd as usize] = state.regs[ra as usize],
                    VliwOp::FConst { fd, value } => state.fregs[fd as usize] = value,
                    VliwOp::Fpu { op, fd, fa, fb } => {
                        state.fregs[fd as usize] =
                            op.apply(state.fregs[fa as usize], state.fregs[fb as usize]);
                    }
                    VliwOp::FCopy { fd, fa } => state.fregs[fd as usize] = state.fregs[fa as usize],
                    VliwOp::ItoF { fd, ra } => {
                        state.fregs[fd as usize] = state.regs[ra as usize] as f64
                    }
                    VliwOp::FtoI { rd, fa } => {
                        state.regs[rd as usize] = state.fregs[fa as usize] as i64
                    }
                    VliwOp::Load {
                        rd,
                        base,
                        disp,
                        alias,
                        tag,
                    } => {
                        let addr = (state.regs[base as usize].wrapping_add(disp)) as u64;
                        stats.mem_ops += 1;
                        if let Err(v) = self.mem_hook(alias, addr, true, tag, &mut stats) {
                            outcome = Some(RegionOutcome::AliasException(v));
                            break 'bundles;
                        }
                        state.regs[rd as usize] = mem.read(addr) as i64;
                    }
                    VliwOp::FLoad {
                        fd,
                        base,
                        disp,
                        alias,
                        tag,
                    } => {
                        let addr = (state.regs[base as usize].wrapping_add(disp)) as u64;
                        stats.mem_ops += 1;
                        if let Err(v) = self.mem_hook(alias, addr, true, tag, &mut stats) {
                            outcome = Some(RegionOutcome::AliasException(v));
                            break 'bundles;
                        }
                        state.fregs[fd as usize] = mem.read_f64(addr);
                    }
                    VliwOp::Store {
                        rs,
                        base,
                        disp,
                        alias,
                        tag,
                    } => {
                        let addr = (state.regs[base as usize].wrapping_add(disp)) as u64;
                        stats.mem_ops += 1;
                        if let Err(v) = self.mem_hook(alias, addr, false, tag, &mut stats) {
                            outcome = Some(RegionOutcome::AliasException(v));
                            break 'bundles;
                        }
                        let old = mem.replace(addr, state.regs[rs as usize] as u64);
                        state.log_store(addr, old);
                    }
                    VliwOp::FStore {
                        fs,
                        base,
                        disp,
                        alias,
                        tag,
                    } => {
                        let addr = (state.regs[base as usize].wrapping_add(disp)) as u64;
                        stats.mem_ops += 1;
                        if let Err(v) = self.mem_hook(alias, addr, false, tag, &mut stats) {
                            outcome = Some(RegionOutcome::AliasException(v));
                            break 'bundles;
                        }
                        let old = mem.replace(addr, state.fregs[fs as usize].to_bits());
                        state.log_store(addr, old);
                    }
                    VliwOp::AlatClear { entry } => self.hw.alat_clear(entry),
                    VliwOp::Rotate { amount } => self.hw.rotate(amount),
                    VliwOp::Amov { src, dst } => self.hw.amov(src, dst),
                    VliwOp::Exit { exit_id, cond } => {
                        if exit_id as usize >= program.exits.len() {
                            return Err(SimError::BadExitId { exit_id });
                        }
                        let take = match cond {
                            None => true,
                            Some(CondExit { op, ra, rb }) => {
                                op.eval(state.regs[ra as usize], state.regs[rb as usize])
                            }
                        };
                        if take {
                            outcome = Some(RegionOutcome::Exited { exit_id });
                            break 'bundles;
                        }
                    }
                }
                mark_ready(&cfg, op, issue, &mut ir, &mut fr);
            }
        }

        stats.cycles = clock.max(stats.cycles);
        match outcome {
            Some(RegionOutcome::Exited { exit_id }) => {
                // Commit: keep state and memory.
                Ok((RegionOutcome::Exited { exit_id }, stats))
            }
            Some(RegionOutcome::AliasException(v)) => {
                // Rollback: restore registers and memory, pay the penalty.
                state.rollback(mem);
                self.hw.reset();
                stats.cycles += self.config.rollback_cycles;
                Ok((RegionOutcome::AliasException(v), stats))
            }
            None => Err(SimError::MissingExit),
        }
    }

    fn mem_hook(
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
        let examined = self
            .hw
            .mem_access(alias, MemRange::word(addr), is_load, tag)?;
        stats.entries_scanned += u64::from(examined);
        Ok(())
    }
}

/// Raises `issue` to the ready time of every source register of `op` —
/// one flat match on the hot path instead of the
/// [`VliwOp::int_sources`]/[`VliwOp::fp_sources`] pair, which the unit
/// tests keep it honest against.
#[inline]
fn stall_on_sources(mut issue: u64, op: &VliwOp, ir: &[u64; 64], fr: &[u64; 64]) -> u64 {
    match *op {
        VliwOp::Alu { ra, rb, .. } => issue = issue.max(ir[ra as usize]).max(ir[rb as usize]),
        VliwOp::AluImm { ra, .. } | VliwOp::Copy { ra, .. } | VliwOp::ItoF { ra, .. } => {
            issue = issue.max(ir[ra as usize]);
        }
        VliwOp::Load { base, .. } | VliwOp::FLoad { base, .. } => {
            issue = issue.max(ir[base as usize]);
        }
        VliwOp::Store { rs, base, .. } => {
            issue = issue.max(ir[rs as usize]).max(ir[base as usize]);
        }
        VliwOp::FStore { fs, base, .. } => {
            issue = issue.max(ir[base as usize]).max(fr[fs as usize]);
        }
        VliwOp::Exit {
            cond: Some(CondExit { ra, rb, .. }),
            ..
        } => issue = issue.max(ir[ra as usize]).max(ir[rb as usize]),
        VliwOp::Fpu { fa, fb, .. } => issue = issue.max(fr[fa as usize]).max(fr[fb as usize]),
        VliwOp::FCopy { fa, .. } | VliwOp::FtoI { fa, .. } => issue = issue.max(fr[fa as usize]),
        VliwOp::Nop
        | VliwOp::IConst { .. }
        | VliwOp::FConst { .. }
        | VliwOp::AlatClear { .. }
        | VliwOp::Rotate { .. }
        | VliwOp::Amov { .. }
        | VliwOp::Exit { cond: None, .. } => {}
    }
    issue
}

/// The scoreboard's write rule, stated once for the simulator and the
/// static timing pass ([`entry_stamps`]): `op`, issued at `issue`, makes
/// its destination register ready after its latency. Ops without a
/// register destination mark nothing.
#[inline]
fn mark_ready(
    cfg: &MachineConfig,
    op: &VliwOp,
    issue: u64,
    ir: &mut [u64; 64],
    fr: &mut [u64; 64],
) {
    let int = u64::from(cfg.lat_int);
    let load = u64::from(cfg.lat_load);
    match *op {
        VliwOp::IConst { rd, .. } | VliwOp::Copy { rd, .. } | VliwOp::FtoI { rd, .. } => {
            ir[rd as usize] = issue + int;
        }
        VliwOp::Alu { op, rd, .. } | VliwOp::AluImm { op, rd, .. } => {
            ir[rd as usize] = issue + u64::from(cfg.alu_latency(op));
        }
        VliwOp::Load { rd, .. } => ir[rd as usize] = issue + load,
        VliwOp::FConst { fd, .. } | VliwOp::FCopy { fd, .. } | VliwOp::ItoF { fd, .. } => {
            fr[fd as usize] = issue + int;
        }
        VliwOp::Fpu { op, fd, .. } => fr[fd as usize] = issue + u64::from(cfg.fpu_latency(op)),
        VliwOp::FLoad { fd, .. } => fr[fd as usize] = issue + load,
        VliwOp::Store { .. }
        | VliwOp::FStore { .. }
        | VliwOp::AlatClear { .. }
        | VliwOp::Rotate { .. }
        | VliwOp::Amov { .. }
        | VliwOp::Exit { .. }
        | VliwOp::Nop => {}
    }
}

/// Rejects a region that names a register past the 64-entry files in a
/// bundle an entry can issue: every bundle up to and including the one
/// that holds the first unconditional exit. The whole of that last
/// bundle counts, slots after the exit too, because a bundle's issue
/// stall reads every slot.
///
/// # Errors
/// [`SimError::BadRegister`] with the largest register named.
fn check_registers(program: &VliwProgram) -> Result<(), SimError> {
    let mut max = 0;
    for bundle in &program.bundles {
        max = bundle.ops.iter().map(VliwOp::max_reg).fold(max, u8::max);
        if bundle
            .ops
            .iter()
            .any(|op| matches!(op, VliwOp::Exit { cond: None, .. }))
        {
            break;
        }
    }
    if max >= 64 {
        return Err(SimError::BadRegister { reg: max });
    }
    Ok(())
}

/// What a region entry that ends at one op reports: the
/// [`RegionStats::cycles`] and [`RegionStats::bundles`] of the
/// [`Simulator`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EntryStamp {
    /// Cycles, including the checkpoint and, at a memory op, the rollback.
    pub cycles: u64,
    /// Bundles issued.
    pub bundles: u64,
}

/// The static timing pass: the timing of every way an entry of `program`
/// can end, on machine `cfg`. One stamp per
/// non-`Nop` op, in slot order, up to and including the first
/// unconditional exit, so an entry that executed `n` ops ended at stamp
/// `n - 1`.
///
/// An entry's timing depends only on where it ends: the
/// scoreboard is all-zero at entry, every latency is a `cfg` constant,
/// and the bundles that issue before the last one are fixed by the
/// straight-line code. The pass therefore walks the bundles once, with
/// the simulator's stall (`stall_on_sources`) and scoreboard
/// (`mark_ready`) rules. A stamp is the issue cycle of the op's bundle
/// plus 1, and the bundle's index plus 1. A memory op's stamp adds
/// `rollback_cycles`: a memory op ends an entry only by faulting.
///
/// # Errors
/// [`SimError::BadRegister`] for a register past the 64-entry files in a
/// bundle an entry can issue: every bundle up to and including the one
/// that holds the first unconditional exit, whose issue stall reads every
/// slot.
///
/// The stamps go into `stamps` (cleared first), so a caller that lowers
/// region after region reuses one buffer.
pub fn entry_stamps(
    program: &VliwProgram,
    cfg: &MachineConfig,
    stamps: &mut Vec<EntryStamp>,
) -> Result<(), SimError> {
    stamps.clear();
    check_registers(program)?;
    let (mut ir, mut fr) = ([0u64; 64], [0u64; 64]);
    let mut clock = cfg.checkpoint_cycles;
    for (b, bundle) in program.bundles.iter().enumerate() {
        let issue = bundle
            .ops
            .iter()
            .fold(clock, |t, op| stall_on_sources(t, op, &ir, &fr));
        clock = issue + 1;
        for op in bundle.ops.iter().filter(|op| !matches!(op, VliwOp::Nop)) {
            let fault = if op.is_mem() { cfg.rollback_cycles } else { 0 };
            stamps.push(EntryStamp {
                cycles: clock + fault,
                bundles: b as u64 + 1,
            });
            if matches!(op, VliwOp::Exit { cond: None, .. }) {
                return Ok(());
            }
            mark_ready(cfg, op, issue, &mut ir, &mut fr);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Bundle, ExitTarget};
    use smarq_guest::AluOp;

    fn no_hw() -> AnyAliasHw {
        AnyAliasHw::for_kind(HwKind::None, 0)
    }

    fn exit_program(bundles: Vec<Bundle>) -> VliwProgram {
        let mut bundles = bundles;
        bundles.push(Bundle {
            ops: vec![VliwOp::Exit {
                exit_id: 0,
                cond: None,
            }],
        });
        VliwProgram {
            bundles,
            exits: vec![ExitTarget {
                guest_block: Some(0),
            }],
        }
    }

    #[test]
    fn arithmetic_and_commit() {
        let p = exit_program(vec![
            Bundle {
                ops: vec![
                    VliwOp::IConst { rd: 1, value: 6 },
                    VliwOp::IConst { rd: 2, value: 7 },
                ],
            },
            Bundle {
                ops: vec![VliwOp::Alu {
                    op: AluOp::Mul,
                    rd: 3,
                    ra: 1,
                    rb: 2,
                }],
            },
        ]);
        let mut sim = Simulator::new(MachineConfig::default(), no_hw());
        let mut st = VliwState::new();
        let mut mem = Memory::new();
        let (out, stats) = sim.run_region(&p, &mut st, &mut mem).unwrap();
        assert_eq!(out, RegionOutcome::Exited { exit_id: 0 });
        assert_eq!(st.regs[3], 42);
        assert!(stats.cycles >= 3);
        assert_eq!(stats.bundles, 3);
    }

    #[test]
    fn scoreboard_stalls_on_load_use() {
        // ld r1=[r2]; add r3 = r1+r1 must wait out the load latency.
        let p = exit_program(vec![
            Bundle {
                ops: vec![VliwOp::Load {
                    rd: 1,
                    base: 2,
                    disp: 0,
                    alias: AliasAnnot::None,
                    tag: 0,
                }],
            },
            Bundle {
                ops: vec![VliwOp::Alu {
                    op: AluOp::Add,
                    rd: 3,
                    ra: 1,
                    rb: 1,
                }],
            },
        ]);
        let cfg = MachineConfig::default();
        let mut sim = Simulator::new(cfg, no_hw());
        let mut st = VliwState::new();
        let mut mem = Memory::new();
        mem.write(0, 21);
        let (_, stats) = sim.run_region(&p, &mut st, &mut mem).unwrap();
        assert_eq!(st.regs[3], 42);
        // checkpoint(1) + load issues at 1 + dependent add waits until
        // 1 + lat_load, then exit: strictly more than 4 cycles.
        assert!(
            stats.cycles >= u64::from(cfg.lat_load) + 2,
            "cycles = {}",
            stats.cycles
        );
    }

    #[test]
    fn conditional_exit_taken_and_not_taken() {
        let mk = |r1: i64| {
            let p = VliwProgram {
                bundles: vec![
                    Bundle {
                        ops: vec![VliwOp::IConst { rd: 1, value: r1 }],
                    },
                    Bundle {
                        ops: vec![VliwOp::Exit {
                            exit_id: 1,
                            cond: Some(CondExit {
                                op: smarq_guest::CmpOp::Ne,
                                ra: 1,
                                rb: 0,
                            }),
                        }],
                    },
                    Bundle {
                        ops: vec![VliwOp::Exit {
                            exit_id: 0,
                            cond: None,
                        }],
                    },
                ],
                exits: vec![
                    ExitTarget {
                        guest_block: Some(10),
                    },
                    ExitTarget {
                        guest_block: Some(20),
                    },
                ],
            };
            let mut sim = Simulator::new(MachineConfig::default(), no_hw());
            let mut st = VliwState::new();
            let mut mem = Memory::new();
            sim.run_region(&p, &mut st, &mut mem).unwrap().0
        };
        assert_eq!(mk(5), RegionOutcome::Exited { exit_id: 1 });
        assert_eq!(mk(0), RegionOutcome::Exited { exit_id: 0 });
    }

    #[test]
    fn alias_exception_rolls_back_state_and_memory() {
        // A hoisted load (P) then an aliasing store (C): exception; the
        // store before it must be undone and registers restored.
        let p = exit_program(vec![
            Bundle {
                ops: vec![VliwOp::IConst {
                    rd: 1,
                    value: 0x100,
                }],
            },
            Bundle {
                ops: vec![VliwOp::Load {
                    rd: 2,
                    base: 1,
                    disp: 0,
                    alias: AliasAnnot::Smarq {
                        p: true,
                        c: false,
                        offset: 0,
                    },
                    tag: 1,
                }],
            },
            Bundle {
                // An unrelated store that will need undoing.
                ops: vec![VliwOp::Store {
                    rs: 1,
                    base: 1,
                    disp: 64,
                    alias: AliasAnnot::None,
                    tag: 2,
                }],
            },
            Bundle {
                // Aliasing store: checks offset 0 and faults.
                ops: vec![VliwOp::Store {
                    rs: 1,
                    base: 1,
                    disp: 0,
                    alias: AliasAnnot::Smarq {
                        p: false,
                        c: true,
                        offset: 0,
                    },
                    tag: 3,
                }],
            },
        ]);
        let cfg = MachineConfig::default();
        let mut sim = Simulator::new(cfg, AnyAliasHw::for_kind(HwKind::Smarq, cfg.num_alias_regs));
        let mut st = VliwState::new();
        let mut mem = Memory::new();
        mem.write(0x100, 7);
        let mem_before = mem.clone();
        let (out, stats) = sim.run_region(&p, &mut st, &mut mem).unwrap();
        match out {
            RegionOutcome::AliasException(v) => {
                assert_eq!(v.checker_tag, 3);
                assert_eq!(v.producer_tag, 1);
            }
            other => panic!("expected exception, got {other:?}"),
        }
        assert_eq!(st.regs[1], 0, "registers rolled back");
        assert_eq!(st.regs[2], 0);
        assert_eq!(mem, mem_before, "memory rolled back");
        assert!(stats.cycles >= cfg.rollback_cycles);
    }

    /// A store whose check offset equals the register count: the cycle
    /// tier panics with the same bounds-contract message as the fast tier
    /// (`smarq_opt::fastcomp`'s twin test).
    #[test]
    #[should_panic(expected = "SMARQ queue contract violated")]
    fn out_of_range_check_offset_panics_on_the_cycle_tier() {
        let p = exit_program(vec![Bundle {
            ops: vec![VliwOp::Store {
                rs: 1,
                base: 2,
                disp: 0,
                alias: AliasAnnot::Smarq {
                    p: false,
                    c: true,
                    offset: 4,
                },
                tag: 1,
            }],
        }]);
        let mut sim = Simulator::new(
            MachineConfig::default(),
            AnyAliasHw::for_kind(HwKind::Smarq, 4),
        );
        let _ = sim.run_region(&p, &mut VliwState::new(), &mut Memory::new());
    }

    /// An Efficeon set index past the file breaks the bounds contract:
    /// the cycle tier panics with the contract message, not a raw index
    /// error (`smarq_opt::fastcomp` has the fast-tier twin).
    #[test]
    #[should_panic(expected = "Efficeon alias file contract violated")]
    fn efficeon_set_past_the_file_panics_on_the_cycle_tier() {
        let p = exit_program(vec![Bundle {
            ops: vec![VliwOp::Load {
                rd: 1,
                base: 2,
                disp: 0,
                alias: AliasAnnot::Efficeon {
                    set: Some(12),
                    check_mask: 0,
                },
                tag: 1,
            }],
        }]);
        let mut sim = Simulator::new(
            MachineConfig::default(),
            AnyAliasHw::for_kind(HwKind::Efficeon, 8),
        );
        let _ = sim.run_region(&p, &mut VliwState::new(), &mut Memory::new());
    }

    /// The masked checkpoint must roll the resident state back to exactly
    /// its entry contents, and the write-mask must cover every
    /// destination register of the region.
    #[test]
    fn resident_rollback_matches_full_checkpoint() {
        let p = exit_program(vec![
            Bundle {
                ops: vec![VliwOp::IConst {
                    rd: 1,
                    value: 0x100,
                }],
            },
            Bundle {
                ops: vec![VliwOp::Load {
                    rd: 2,
                    base: 1,
                    disp: 0,
                    alias: AliasAnnot::Smarq {
                        p: true,
                        c: false,
                        offset: 0,
                    },
                    tag: 1,
                }],
            },
            Bundle {
                ops: vec![VliwOp::Store {
                    rs: 1,
                    base: 1,
                    disp: 64,
                    alias: AliasAnnot::None,
                    tag: 2,
                }],
            },
            Bundle {
                ops: vec![VliwOp::Store {
                    rs: 1,
                    base: 1,
                    disp: 0,
                    alias: AliasAnnot::Smarq {
                        p: false,
                        c: true,
                        offset: 0,
                    },
                    tag: 3,
                }],
            },
        ]);
        let mask = RegionWriteMask::of(&p);
        assert_eq!(mask.ints, (1 << 1) | (1 << 2), "r1 and r2 are written");
        assert_eq!(mask.fps, 0);

        let cfg = MachineConfig::default();
        let mut sim = Simulator::new(cfg, AnyAliasHw::for_kind(HwKind::Smarq, cfg.num_alias_regs));
        let mut st = VliwState::new();
        // Resident junk outside the guest window must survive the region
        // untouched (it is not in the write-set, so it is not saved).
        st.regs[40] = -77;
        st.fregs[41] = 3.5;
        let mut mem = Memory::new();
        mem.write(0x100, 7);
        let st_before = st.clone();
        let mem_before = mem.clone();
        // Run twice through the same simulator: scratch reuse must not
        // leak any state between executions.
        for _ in 0..2 {
            let (out, _) = sim
                .run_region_resident(&p, mask, &mut st, &mut mem)
                .unwrap();
            assert!(matches!(out, RegionOutcome::AliasException(_)));
            assert_eq!(st.regs, st_before.regs, "masked rollback is exact");
            assert_eq!(st.fregs, st_before.fregs);
            assert_eq!(mem, mem_before, "store undo log replayed");
        }
    }

    /// A committed resident execution leaves exactly the registers in the
    /// write mask updated.
    #[test]
    fn resident_commit_updates_only_written_registers() {
        let p = exit_program(vec![Bundle {
            ops: vec![
                VliwOp::IConst { rd: 3, value: 9 },
                VliwOp::FConst { fd: 2, value: 1.5 },
            ],
        }]);
        let mask = RegionWriteMask::of(&p);
        assert_eq!(mask.ints, 1 << 3);
        assert_eq!(mask.fps, 1 << 2);
        let mut sim = Simulator::new(MachineConfig::default(), no_hw());
        let mut st = VliwState::new();
        st.regs[5] = 123;
        let mut mem = Memory::new();
        let (out, _) = sim
            .run_region_resident(&p, mask, &mut st, &mut mem)
            .unwrap();
        assert_eq!(out, RegionOutcome::Exited { exit_id: 0 });
        assert_eq!(st.regs[3], 9);
        assert_eq!(st.fregs[2], 1.5);
        assert_eq!(st.regs[5], 123, "unwritten registers keep their values");
    }

    #[test]
    fn missing_exit_is_a_translator_bug() {
        let p = VliwProgram {
            bundles: vec![Bundle {
                ops: vec![VliwOp::IConst { rd: 1, value: 1 }],
            }],
            exits: vec![],
        };
        let mut sim = Simulator::new(MachineConfig::default(), no_hw());
        let mut st = VliwState::new();
        let mut mem = Memory::new();
        assert_eq!(
            sim.run_region(&p, &mut st, &mut mem).unwrap_err(),
            SimError::MissingExit
        );
    }

    #[test]
    fn bad_exit_id_reported() {
        let p = VliwProgram {
            bundles: vec![Bundle {
                ops: vec![VliwOp::Exit {
                    exit_id: 3,
                    cond: None,
                }],
            }],
            exits: vec![],
        };
        let mut sim = Simulator::new(MachineConfig::default(), no_hw());
        let mut st = VliwState::new();
        let mut mem = Memory::new();
        assert_eq!(
            sim.run_region(&p, &mut st, &mut mem).unwrap_err(),
            SimError::BadExitId { exit_id: 3 }
        );
    }

    /// Guest registers load into the low half of both files and store
    /// back unchanged; the high half is left alone.
    #[test]
    fn guest_state_roundtrip() {
        let mut st = VliwState::new();
        st.regs[40] = -7;
        st.fregs[63] = 0.5;
        let mut regs = [0i64; 32];
        let mut fregs = [0f64; 32];
        regs[5] = 99;
        fregs[7] = 2.5;
        st.load_guest(&regs, &fregs);
        assert_eq!(st.regs[5], 99);
        assert_eq!(st.fregs[7], 2.5);
        assert_eq!((st.regs[40], st.fregs[63]), (-7, 0.5));
        let mut r2 = [0i64; 32];
        let mut f2 = [0f64; 32];
        st.store_guest(&mut r2, &mut f2);
        assert_eq!(r2, regs);
        assert_eq!(f2, fregs);
    }

    #[test]
    fn masked_checkpoint_rollback_is_exact() {
        let mut st = VliwState::new();
        st.regs[1] = 10;
        st.regs[40] = -77; // outside the mask: must survive untouched
        st.fregs[2] = 1.5;
        let mut mem = Memory::new();
        mem.write(0x100, 7);
        let snapshot_regs = st.regs;
        let snapshot_fregs = st.fregs;
        let mem_before = mem.clone();

        let mask = RegionWriteMask {
            ints: (1 << 1) | (1 << 2),
            fps: 1 << 2,
        };
        // Two entries through the same recycled buffers.
        for _ in 0..2 {
            st.begin_region(mask);
            st.regs[1] = 999;
            st.regs[2] = 888;
            st.fregs[2] = 9.25;
            st.log_store(0x100, mem.read(0x100));
            mem.write(0x100, 42);
            st.log_store(0x200, mem.read(0x200));
            mem.write(0x200, 43);
            st.rollback(&mut mem);
            assert_eq!(st.regs, snapshot_regs);
            assert_eq!(st.fregs, snapshot_fregs);
            assert_eq!(mem, mem_before, "undo log replayed in reverse");
        }
    }
}

/// Issue-timing facts, observed through [`RegionStats`].
#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::isa::{Bundle, ExitTarget};

    /// Three dependent bundles issue on three distinct cycles after the
    /// checkpoint, so `cycles` covers every issued bundle.
    #[test]
    fn cycles_cover_every_issued_bundle() {
        let p = VliwProgram {
            bundles: vec![
                Bundle {
                    ops: vec![VliwOp::IConst { rd: 1, value: 2 }],
                },
                Bundle {
                    ops: vec![VliwOp::Alu {
                        op: smarq_guest::AluOp::Mul,
                        rd: 2,
                        ra: 1,
                        rb: 1,
                    }],
                },
                Bundle {
                    ops: vec![VliwOp::Exit {
                        exit_id: 0,
                        cond: None,
                    }],
                },
            ],
            exits: vec![ExitTarget {
                guest_block: Some(0),
            }],
        };
        let cfg = MachineConfig::default();
        let mut sim = Simulator::new(cfg, AnyAliasHw::for_kind(HwKind::None, 0));
        let mut st = VliwState::new();
        let mut mem = Memory::new();
        let (out, stats) = sim.run_region(&p, &mut st, &mut mem).unwrap();
        assert_eq!(out, RegionOutcome::Exited { exit_id: 0 });
        assert_eq!((stats.bundles, stats.ops), (3, 3));
        assert!(
            stats.cycles >= cfg.checkpoint_cycles + stats.bundles,
            "cycles = {}",
            stats.cycles
        );
        assert_eq!(st.regs[2], 4);
    }

    /// A taken exit in the first bundle ends the region: nothing after it
    /// issues.
    #[test]
    fn bundles_stop_at_taken_first_bundle_exit() {
        let p = VliwProgram {
            bundles: vec![
                Bundle {
                    ops: vec![VliwOp::Exit {
                        exit_id: 0,
                        cond: None,
                    }],
                },
                Bundle {
                    ops: vec![VliwOp::IConst { rd: 1, value: 1 }],
                },
            ],
            exits: vec![ExitTarget { guest_block: None }],
        };
        let mut sim = Simulator::new(
            MachineConfig::default(),
            AnyAliasHw::for_kind(HwKind::None, 0),
        );
        let mut st = VliwState::new();
        let mut mem = Memory::new();
        let (out, stats) = sim.run_region(&p, &mut st, &mut mem).unwrap();
        assert_eq!(out, RegionOutcome::Exited { exit_id: 0 });
        assert_eq!(stats.bundles, 1, "bundles after the taken exit never issue");
        assert_eq!(st.regs[1], 0);
    }

    /// A region with two side exits, a load-use and a multiply stall, a
    /// check that can fault, and a slot after the unconditional exit.
    fn stamped_region() -> VliwProgram {
        use smarq_guest::{AluOp, CmpOp};
        let exit_if = |exit_id, ra, rb| VliwOp::Exit {
            exit_id,
            cond: Some(CondExit {
                op: CmpOp::Eq,
                ra,
                rb,
            }),
        };
        let smarq = |p, c| AliasAnnot::Smarq { p, c, offset: 0 };
        let one = |op| Bundle { ops: vec![op] };
        VliwProgram {
            bundles: vec![
                Bundle {
                    ops: vec![
                        VliwOp::IConst {
                            rd: 1,
                            value: 0x100,
                        },
                        VliwOp::Nop,
                    ],
                },
                one(VliwOp::Load {
                    rd: 2,
                    base: 1,
                    disp: 0,
                    alias: smarq(true, false),
                    tag: 1,
                }),
                one(exit_if(1, 3, 0)),
                one(VliwOp::Alu {
                    op: AluOp::Mul,
                    rd: 4,
                    ra: 2,
                    rb: 2,
                }),
                Bundle {
                    ops: vec![exit_if(2, 4, 5), VliwOp::Nop],
                },
                one(VliwOp::Store {
                    rs: 4,
                    base: 6,
                    disp: 0,
                    alias: smarq(false, true),
                    tag: 2,
                }),
                Bundle {
                    ops: vec![
                        VliwOp::Exit {
                            exit_id: 0,
                            cond: None,
                        },
                        VliwOp::IConst { rd: 7, value: 1 },
                    ],
                },
            ],
            exits: (0..3).map(|_| ExitTarget { guest_block: None }).collect(),
        }
    }

    /// The static timing pass against the simulator, at every way an
    /// entry of [`stamped_region`] can end (two side exits, the final
    /// exit, a fault), on the default machine and on a slower one: the
    /// stamp of the op where the entry ended is the simulator's cycles
    /// and bundles.
    #[test]
    fn entry_stamps_match_the_simulator_wherever_an_entry_ends() {
        let p = stamped_region();
        let slow = MachineConfig {
            lat_load: 8,
            lat_mul: 5,
            checkpoint_cycles: 3,
            rollback_cycles: 1000,
            ..MachineConfig::default()
        };
        for cfg in [MachineConfig::default(), slow] {
            let mut stamps = Vec::new();
            entry_stamps(&p, &cfg, &mut stamps).unwrap();
            assert_eq!(
                stamps.len(),
                7,
                "non-Nop ops up to the first unconditional exit"
            );
            let mut sim = Simulator::new(cfg, AnyAliasHw::for_kind(HwKind::Smarq, 64));
            // (r3, r5, r6): r3 == 0 takes exit 1, r5 == 0 (the squared
            // load of an empty word) exit 2, r6 == r1 faults the store.
            let cases = [
                ((0, 0, 0x200), Some(1)),
                ((1, 0, 0x200), Some(2)),
                ((1, 7, 0x200), Some(0)),
                ((1, 7, 0x100), None),
            ];
            let mut fault_cycles = 0;
            for ((r3, r5, r6), exit) in cases {
                let mut st = VliwState::new();
                (st.regs[3], st.regs[5], st.regs[6]) = (r3, r5, r6);
                let (out, stats) = sim.run_region(&p, &mut st, &mut Memory::new()).unwrap();
                match exit {
                    Some(exit_id) => assert_eq!(out, RegionOutcome::Exited { exit_id }),
                    None => {
                        assert!(matches!(out, RegionOutcome::AliasException(_)));
                        fault_cycles = stats.cycles;
                    }
                }
                let stamp = stamps[stats.ops as usize - 1];
                assert_eq!(
                    (stamp.cycles, stamp.bundles),
                    (stats.cycles, stats.bundles),
                    "{cfg:?} r3={r3} r5={r5} r6={r6}"
                );
            }
            assert!(fault_cycles > cfg.rollback_cycles);
        }
    }

    #[test]
    fn stall_on_sources_matches_reference_source_sets() {
        use smarq_guest::{AluOp, CmpOp, FpuOp};
        // Every scoreboard slot gets a distinct ready time so any missed
        // or extra source register changes the computed issue cycle.
        let mut ir = [0u64; 64];
        let mut fr = [0u64; 64];
        for i in 0..64 {
            ir[i] = 1_000 + i as u64;
            fr[i] = 2_000 + i as u64;
        }
        let annot = AliasAnnot::None;
        let ops = [
            VliwOp::Nop,
            VliwOp::IConst { rd: 1, value: 7 },
            VliwOp::Alu {
                op: AluOp::Add,
                rd: 2,
                ra: 3,
                rb: 4,
            },
            VliwOp::AluImm {
                op: AluOp::Mul,
                rd: 2,
                ra: 5,
                imm: 3,
            },
            VliwOp::Copy { rd: 1, ra: 6 },
            VliwOp::FConst { fd: 1, value: 1.5 },
            VliwOp::Fpu {
                op: FpuOp::Add,
                fd: 1,
                fa: 2,
                fb: 3,
            },
            VliwOp::FCopy { fd: 1, fa: 4 },
            VliwOp::ItoF { fd: 1, ra: 7 },
            VliwOp::FtoI { rd: 1, fa: 5 },
            VliwOp::Load {
                rd: 1,
                base: 8,
                disp: 0,
                alias: annot,
                tag: 0,
            },
            VliwOp::Store {
                rs: 9,
                base: 10,
                disp: 0,
                alias: annot,
                tag: 0,
            },
            VliwOp::FLoad {
                fd: 1,
                base: 11,
                disp: 0,
                alias: annot,
                tag: 0,
            },
            VliwOp::FStore {
                fs: 6,
                base: 12,
                disp: 0,
                alias: annot,
                tag: 0,
            },
            VliwOp::AlatClear { entry: 0 },
            VliwOp::Rotate { amount: 1 },
            VliwOp::Amov { src: 0, dst: 1 },
            VliwOp::Exit {
                exit_id: 0,
                cond: None,
            },
            VliwOp::Exit {
                exit_id: 0,
                cond: Some(CondExit {
                    op: CmpOp::Lt,
                    ra: 13,
                    rb: 14,
                }),
            },
        ];
        for op in &ops {
            let fast = stall_on_sources(3, op, &ir, &fr);
            let reference = op
                .int_sources()
                .into_iter()
                .map(|r| ir[r as usize])
                .chain(op.fp_sources().into_iter().map(|r| fr[r as usize]))
                .fold(3u64, u64::max);
            assert_eq!(fast, reference, "issue stall differs for {op:?}");
        }
    }
}
