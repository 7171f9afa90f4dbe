//! Cycle-level in-order simulator with atomic-region semantics.
//!
//! The simulator executes one translated region ([`VliwProgram`]) against
//! the machine state: bundles issue in order (one per cycle at best), each
//! bundle stalling until all of its operands are ready (scoreboard). An
//! atomic region checkpoints the register files on entry and logs memory
//! writes; an alias exception rolls everything back (paper §1, Figure 1).

use crate::alias_hw::{AliasHardware, AliasViolation};
use crate::cache::DCache;
use crate::isa::{AliasAnnot, CondExit, MemRange, VliwOp, VliwProgram};
use crate::machine::MachineConfig;
use smarq_guest::Memory;
use std::error::Error;
use std::fmt;

/// The VLIW register state: 64 integer + 64 floating-point registers.
/// Guest architectural state lives in registers 0–31 of each file.
#[derive(Clone, Debug)]
pub struct VliwState {
    /// Integer register file.
    pub regs: [i64; 64],
    /// Floating-point register file.
    pub fregs: [f64; 64],
}

impl Default for VliwState {
    fn default() -> Self {
        VliwState {
            regs: [0; 64],
            fregs: [0.0; 64],
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
}

/// Precomputed register write-sets of a region, as bitmasks over the two
/// 64-entry files. The resident entry point
/// ([`Simulator::run_region_resident`]) checkpoints **only** the
/// registers a region can write: everything else is untouched by
/// execution, so restoring the masked subset on rollback reproduces the
/// entry state exactly. For small hot regions this turns the per-entry
/// 1 KiB state clone into a handful of register saves — the point of
/// keeping guest state resident across chained region executions.
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

    /// `true` if the mask covers both whole files.
    pub fn is_full(self) -> bool {
        self.ints == u64::MAX && self.fps == u64::MAX
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

/// One issued bundle, reported through [`Simulator::run_region_traced`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Index of the bundle in the program.
    pub bundle: usize,
    /// Cycle at which it issued.
    pub issue_cycle: u64,
    /// Number of non-NOP operations it carried.
    pub ops: u32,
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
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingExit => f.write_str("region fell off the end without an exit"),
            SimError::BadExitId { exit_id } => write!(f, "exit id {exit_id} out of range"),
        }
    }
}

impl Error for SimError {}

/// The region simulator. Owns the machine configuration and the alias
/// hardware; borrows the state and memory per region execution.
pub struct Simulator<H> {
    config: MachineConfig,
    hw: H,
    dcache: Option<DCache>,
    /// Store undo log, recycled across region executions by the resident
    /// entry point so steady-state entries never allocate.
    undo_scratch: Vec<(u64, u64)>,
    /// Masked register checkpoint, recycled like `undo_scratch`.
    ckpt_ints: Vec<(u8, i64)>,
    /// Masked FP register checkpoint.
    ckpt_fps: Vec<(u8, f64)>,
    /// Integer scoreboard (cycle each register's value is ready), kept
    /// across region executions and re-zeroed per the region's write mask
    /// on exit — all-zero between regions, without a 1 KiB memset per
    /// entry.
    int_ready: [u64; 64],
    /// FP scoreboard, managed like `int_ready`.
    fp_ready: [u64; 64],
}

impl<H: AliasHardware> Simulator<H> {
    /// Creates a simulator for `config` using alias hardware `hw`.
    pub fn new(config: MachineConfig, hw: H) -> Self {
        Simulator {
            config,
            hw,
            dcache: config.dcache.map(DCache::new),
            undo_scratch: Vec::new(),
            ckpt_ints: Vec::new(),
            ckpt_fps: Vec::new(),
            int_ready: [0; 64],
            fp_ready: [0; 64],
        }
    }

    /// Restores the between-regions all-zero scoreboard invariant: only
    /// registers in `mask` can have been marked ready, so only they need
    /// clearing (a full mask keeps the plain memset).
    fn clear_scoreboard(&mut self, mask: RegionWriteMask) {
        if mask.is_full() {
            self.int_ready = [0; 64];
            self.fp_ready = [0; 64];
        } else {
            let mut m = mask.ints;
            while m != 0 {
                self.int_ready[m.trailing_zeros() as usize] = 0;
                m &= m - 1;
            }
            let mut m = mask.fps;
            while m != 0 {
                self.fp_ready[m.trailing_zeros() as usize] = 0;
                m &= m - 1;
            }
        }
    }

    /// Load-use latency of an access to `addr` (cache-dependent when a
    /// data cache is configured).
    fn load_latency(&mut self, addr: u64) -> u64 {
        match &mut self.dcache {
            Some(c) => u64::from(c.access(addr)),
            None => u64::from(self.config.lat_load),
        }
    }

    /// `(hits, misses)` of the data cache, if configured.
    pub fn dcache_stats(&self) -> Option<(u64, u64)> {
        self.dcache.as_ref().map(|c| c.stats())
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Immutable access to the alias hardware (for tests/statistics).
    pub fn hw(&self) -> &H {
        &self.hw
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
        self.run_region_core::<false>(program, RegionWriteMask::full(), state, mem, |_| {})
    }

    /// Resident entry point for chained dispatch: like
    /// [`Simulator::run_region`], but checkpoints only the registers in
    /// `mask` (the region's precomputed write-set, see
    /// [`RegionWriteMask::of`]) and recycles the store undo log across
    /// calls. Guest state stays wherever the caller keeps it — typically
    /// resident in `state` across many back-to-back region executions.
    ///
    /// # Errors
    /// [`SimError`] on malformed programs (translator bugs).
    pub fn run_region_resident(
        &mut self,
        program: &VliwProgram,
        mask: RegionWriteMask,
        state: &mut VliwState,
        mem: &mut Memory,
    ) -> Result<(RegionOutcome, RegionStats), SimError> {
        self.run_region_core::<false>(program, mask, state, mem, |_| {})
    }

    /// Like [`Simulator::run_region`], but invokes `trace` for every
    /// issued bundle — a cheap hook for debugging schedules and stalls.
    ///
    /// # Errors
    /// [`SimError`] on malformed programs (translator bugs).
    pub fn run_region_traced(
        &mut self,
        program: &VliwProgram,
        state: &mut VliwState,
        mem: &mut Memory,
        trace: impl FnMut(TraceEvent),
    ) -> Result<(RegionOutcome, RegionStats), SimError> {
        self.run_region_core::<true>(program, RegionWriteMask::full(), state, mem, trace)
    }

    fn run_region_core<const TRACED: bool>(
        &mut self,
        program: &VliwProgram,
        mask: RegionWriteMask,
        state: &mut VliwState,
        mem: &mut Memory,
        mut trace: impl FnMut(TraceEvent),
    ) -> Result<(RegionOutcome, RegionStats), SimError> {
        let cfg = self.config;
        let mut stats = RegionStats {
            cycles: cfg.checkpoint_cycles,
            ..RegionStats::default()
        };

        // Atomic region entry: checkpoint registers, reset detection state.
        // A full mask keeps the plain state clone (one memcpy); a region
        // write-mask saves just the registers the region can clobber.
        let full_checkpoint = if mask.is_full() {
            Some(state.clone())
        } else {
            self.ckpt_ints.clear();
            self.ckpt_fps.clear();
            let mut m = mask.ints;
            while m != 0 {
                let r = m.trailing_zeros() as usize;
                self.ckpt_ints.push((r as u8, state.regs[r]));
                m &= m - 1;
            }
            let mut m = mask.fps;
            while m != 0 {
                let r = m.trailing_zeros() as usize;
                self.ckpt_fps.push((r as u8, state.fregs[r]));
                m &= m - 1;
            }
            None
        };
        self.undo_scratch.clear();
        self.hw.reset();

        // Scoreboard: cycle at which each register's value is ready. The
        // arrays live in `self` and are all-zero on entry — every exit
        // path re-zeroes exactly the write-masked registers, so a tiny
        // chained region never pays a full-file sweep.
        let mut clock: u64 = cfg.checkpoint_cycles;

        let mut outcome: Option<RegionOutcome> = None;

        'bundles: for (bundle_index, bundle) in program.bundles.iter().enumerate() {
            // In-order issue: the bundle stalls until every operand of
            // every slot is ready.
            let mut issue = clock;
            for op in &bundle.ops {
                issue = stall_on_sources(issue, op, &self.int_ready, &self.fp_ready);
            }
            stats.bundles += 1;
            clock = issue + 1;
            if TRACED {
                trace(TraceEvent {
                    bundle: bundle_index,
                    issue_cycle: issue,
                    ops: bundle
                        .ops
                        .iter()
                        .filter(|o| !matches!(o, VliwOp::Nop))
                        .count() as u32,
                });
            }

            for op in &bundle.ops {
                if !matches!(op, VliwOp::Nop) {
                    stats.ops += 1;
                }
                match *op {
                    VliwOp::Nop => {}
                    VliwOp::IConst { rd, value } => {
                        state.regs[rd as usize] = value;
                        self.int_ready[rd as usize] = issue + u64::from(cfg.lat_int);
                    }
                    VliwOp::Alu { op, rd, ra, rb } => {
                        state.regs[rd as usize] =
                            op.apply(state.regs[ra as usize], state.regs[rb as usize]);
                        self.int_ready[rd as usize] = issue + u64::from(cfg.alu_latency(op));
                    }
                    VliwOp::AluImm { op, rd, ra, imm } => {
                        state.regs[rd as usize] = op.apply(state.regs[ra as usize], imm);
                        self.int_ready[rd as usize] = issue + u64::from(cfg.alu_latency(op));
                    }
                    VliwOp::Copy { rd, ra } => {
                        state.regs[rd as usize] = state.regs[ra as usize];
                        self.int_ready[rd as usize] = issue + u64::from(cfg.lat_int);
                    }
                    VliwOp::FConst { fd, value } => {
                        state.fregs[fd as usize] = value;
                        self.fp_ready[fd as usize] = issue + u64::from(cfg.lat_int);
                    }
                    VliwOp::Fpu { op, fd, fa, fb } => {
                        state.fregs[fd as usize] =
                            op.apply(state.fregs[fa as usize], state.fregs[fb as usize]);
                        self.fp_ready[fd as usize] = issue + u64::from(cfg.fpu_latency(op));
                    }
                    VliwOp::FCopy { fd, fa } => {
                        state.fregs[fd as usize] = state.fregs[fa as usize];
                        self.fp_ready[fd as usize] = issue + u64::from(cfg.lat_int);
                    }
                    VliwOp::ItoF { fd, ra } => {
                        state.fregs[fd as usize] = state.regs[ra as usize] as f64;
                        self.fp_ready[fd as usize] = issue + u64::from(cfg.lat_int);
                    }
                    VliwOp::FtoI { rd, fa } => {
                        state.regs[rd as usize] = state.fregs[fa as usize] as i64;
                        self.int_ready[rd as usize] = issue + u64::from(cfg.lat_int);
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
                        self.int_ready[rd as usize] = issue + self.load_latency(addr);
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
                        self.fp_ready[fd as usize] = issue + self.load_latency(addr);
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
                        self.undo_scratch.push((addr, old));
                        let _ = self.load_latency(addr); // write-allocate
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
                        self.undo_scratch.push((addr, old));
                        let _ = self.load_latency(addr); // write-allocate
                    }
                    VliwOp::AlatClear { entry } => self.hw.alat_clear(entry),
                    VliwOp::Rotate { amount } => self.hw.rotate(amount),
                    VliwOp::Amov { src, dst } => self.hw.amov(src, dst),
                    VliwOp::Exit { exit_id, cond } => {
                        if exit_id as usize >= program.exits.len() {
                            self.clear_scoreboard(mask);
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
            }
        }

        stats.cycles = clock.max(stats.cycles);
        self.clear_scoreboard(mask);
        match outcome {
            Some(RegionOutcome::Exited { exit_id }) => {
                // Commit: keep state and memory.
                Ok((RegionOutcome::Exited { exit_id }, stats))
            }
            Some(RegionOutcome::AliasException(v)) => {
                // Rollback: restore registers and memory, pay the penalty.
                match full_checkpoint {
                    Some(cp) => *state = cp,
                    None => {
                        for &(r, v) in &self.ckpt_ints {
                            state.regs[r as usize] = v;
                        }
                        for &(r, v) in &self.ckpt_fps {
                            state.fregs[r as usize] = v;
                        }
                    }
                }
                for i in (0..self.undo_scratch.len()).rev() {
                    let (addr, old) = self.undo_scratch[i];
                    mem.write(addr, old);
                }
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
/// one flat match on the hot path instead of the iterator-based
/// [`int_sources`]/[`fp_sources`] pair, which the unit tests keep it
/// honest against.
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

/// Integer source registers of an op (the readable reference form of
/// [`stall_on_sources`]; kept as the differential oracle for the tests).
#[cfg(test)]
fn int_sources(op: &VliwOp) -> impl Iterator<Item = u8> {
    let mut v: [Option<u8>; 2] = [None, None];
    match *op {
        VliwOp::Alu { ra, rb, .. } => v = [Some(ra), Some(rb)],
        VliwOp::AluImm { ra, .. } | VliwOp::Copy { ra, .. } | VliwOp::ItoF { ra, .. } => {
            v[0] = Some(ra)
        }
        VliwOp::Load { base, .. } | VliwOp::FLoad { base, .. } => v[0] = Some(base),
        VliwOp::Store { rs, base, .. } => v = [Some(rs), Some(base)],
        VliwOp::FStore { base, .. } => v[0] = Some(base),
        VliwOp::Exit {
            cond: Some(CondExit { ra, rb, .. }),
            ..
        } => v = [Some(ra), Some(rb)],
        _ => {}
    }
    v.into_iter().flatten()
}

/// FP source registers of an op (reference form, see [`int_sources`]).
#[cfg(test)]
fn fp_sources(op: &VliwOp) -> impl Iterator<Item = u8> {
    let mut v: [Option<u8>; 2] = [None, None];
    match *op {
        VliwOp::Fpu { fa, fb, .. } => v = [Some(fa), Some(fb)],
        VliwOp::FCopy { fa, .. } | VliwOp::FtoI { fa, .. } => v[0] = Some(fa),
        VliwOp::FStore { fs, .. } => v[0] = Some(fs),
        _ => {}
    }
    v.into_iter().flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alias_hw::{NoAliasHw, SmarqQueueHw};
    use crate::isa::{Bundle, ExitTarget};
    use smarq_guest::AluOp;

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
        let mut sim = Simulator::new(MachineConfig::default(), NoAliasHw);
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
        let mut sim = Simulator::new(cfg, NoAliasHw);
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
            let mut sim = Simulator::new(MachineConfig::default(), NoAliasHw);
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
        let mut sim = Simulator::new(cfg, SmarqQueueHw::new(cfg.num_alias_regs));
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

    /// The masked-checkpoint resident path must roll back to exactly the
    /// same state as the full clone, and the write-mask must cover every
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
        assert!(!mask.is_full());

        let cfg = MachineConfig::default();
        let mut sim = Simulator::new(cfg, SmarqQueueHw::new(cfg.num_alias_regs));
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
        let mut sim = Simulator::new(MachineConfig::default(), NoAliasHw);
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
        let mut sim = Simulator::new(MachineConfig::default(), NoAliasHw);
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
        let mut sim = Simulator::new(MachineConfig::default(), NoAliasHw);
        let mut st = VliwState::new();
        let mut mem = Memory::new();
        assert_eq!(
            sim.run_region(&p, &mut st, &mut mem).unwrap_err(),
            SimError::BadExitId { exit_id: 3 }
        );
    }

    #[test]
    fn guest_state_roundtrip() {
        let mut st = VliwState::new();
        let mut regs = [0i64; 32];
        let mut fregs = [0f64; 32];
        regs[5] = 99;
        fregs[7] = 2.5;
        st.load_guest(&regs, &fregs);
        assert_eq!(st.regs[5], 99);
        let mut r2 = [0i64; 32];
        let mut f2 = [0f64; 32];
        st.store_guest(&mut r2, &mut f2);
        assert_eq!(r2, regs);
        assert_eq!(f2, fregs);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::alias_hw::NoAliasHw;
    use crate::isa::{Bundle, ExitTarget};

    #[test]
    fn trace_reports_every_bundle_with_monotone_cycles() {
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
        let mut sim = Simulator::new(MachineConfig::default(), NoAliasHw);
        let mut st = VliwState::new();
        let mut mem = Memory::new();
        let mut events = Vec::new();
        sim.run_region_traced(&p, &mut st, &mut mem, |e| events.push(e))
            .unwrap();
        assert_eq!(events.len(), 3);
        assert!(events
            .windows(2)
            .all(|w| w[0].issue_cycle < w[1].issue_cycle));
        assert_eq!(events[0].ops, 1);
        assert_eq!(events[0].bundle, 0);
    }

    #[test]
    fn trace_stops_at_taken_exit() {
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
        let mut sim = Simulator::new(MachineConfig::default(), NoAliasHw);
        let mut st = VliwState::new();
        let mut mem = Memory::new();
        let mut n = 0;
        sim.run_region_traced(&p, &mut st, &mut mem, |_| n += 1)
            .unwrap();
        assert_eq!(n, 1, "bundles after the taken exit never issue");
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
            let reference = int_sources(op)
                .map(|r| ir[r as usize])
                .chain(fp_sources(op).map(|r| fr[r as usize]))
                .fold(3u64, u64::max);
            assert_eq!(fast, reference, "issue stall differs for {op:?}");
        }
    }
}
