//! The single-guest system: configuration and the [`DynOptSystem`]
//! facade, one [`GuestContext`] over a private [`TranslationHub`].

use crate::context::GuestContext;
use crate::hub::{HubConfig, TranslationHub};
use crate::multi::run_multi_interleaved;
use crate::stats::SystemStats;
use crate::translate_service::{StepExecutor, ThreadedExecutor, TranslationExecutor};
use smarq::range::{NospecRanges, RegState};
use smarq_guest::{BlockId, Interpreter, Program};
use smarq_ir::{FormationParams, Superblock};
use smarq_opt::{AliasBlacklist, OptConfig, OptTrace};
use smarq_verify::ChainReport;
use smarq_vliw::MachineConfig;

/// How the runtime dispatches between interpreter and translated regions.
/// There is one dispatcher; the type remains so existing configurations
/// keep compiling.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DispatchMode {
    /// Flat translation cache, memoized region→region chain links, guest
    /// state resident across a chain (DESIGN.md §11).
    #[default]
    Chained,
}

/// The execution tier a configuration names. **Both values run the same
/// path**: every region entry runs on the timed `FastSim`
/// (`smarq_opt::fastcomp`), whose compiled-out timing table makes it
/// bit-exact with the cycle simulator, cycles included; every
/// [`SystemConfig::tier_sample_interval`]-th entry is replayed on the
/// cycle simulator and compared
/// ([`SystemStats::tier_sample_mismatches`]). The type remains so
/// configurations that name a tier keep compiling.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExecTier {
    /// The cycle-level tier. The default; runs as [`ExecTier`] says.
    #[default]
    CycleSim,
    /// The fast-functional tier; runs as [`ExecTier`] says.
    Functional,
}

/// System configuration.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Machine model.
    pub machine: MachineConfig,
    /// Optimizer configuration (hardware scheme, speculation switches).
    pub opt: OptConfig,
    /// Execution count at which a block becomes hot.
    pub hot_threshold: u64,
    /// Region-formation parameters.
    pub formation: FormationParams,
    /// Loop unrolling factor applied to self-loop regions (1 disables;
    /// bounded by `formation.max_ops`). Larger regions exercise more alias
    /// registers — the paper's §2.2 scalability argument.
    pub unroll_factor: u32,
    /// Rollbacks after which a region is abandoned to interpretation
    /// (a backstop; blacklisting normally converges much earlier).
    pub max_rollbacks_per_region: u64,
    /// Verify-on-emit: statically verify every (re)translated region with
    /// `smarq_verify` before it enters the code cache. Findings accumulate
    /// in [`SystemStats`]; execution is never blocked (observation mode).
    /// Off by default.
    pub verify_translations: bool,
    /// Dispatch-path implementation. [`DispatchMode`] has a single value,
    /// so this field changes nothing.
    pub dispatch: DispatchMode,
    /// Execution tier for translated regions. Both values run the same
    /// path (see [`ExecTier`]); the field changes nothing.
    pub exec_tier: ExecTier,
    /// Every `tier_sample_interval`-th region entry that runs on `FastSim`
    /// is also executed on the cycle simulator from the same pre-state
    /// and bit-compared, statistics included (0 disables sampling). The
    /// first such entry is always sampled, so even short runs get one
    /// cross-check.
    pub tier_sample_interval: u64,
    /// Run translation asynchronously: hot-region triggers enqueue a
    /// [`crate::TranslationJob`] on a bounded background executor and the
    /// guest keeps executing until the finished region is atomically
    /// published at a dispatch boundary. Off by default.
    pub async_translate: bool,
    /// Worker threads for the background translation pool. `0` selects
    /// the deterministic auto-stepped executor ([`StepExecutor::auto`]):
    /// no threads, each translation completes at the dispatch boundary
    /// after its submission — async publish semantics with fully
    /// reproducible timing.
    pub translate_workers: u32,
    /// Bound of the translation request queue. Submissions against a full
    /// queue are dropped (and counted); the block stays hot, so the next
    /// dispatch of it simply retries.
    pub translate_queue_depth: u32,
    /// Unspeculatable guest address ranges: no memory op whose derived
    /// address can touch one of these is ever eliminated, reordered, or
    /// annotated with alias bits by the optimizer (paper-external safety
    /// contract for MMIO-like regions). Propagated into
    /// [`OptConfig::nospec`] at system construction; the whole-program
    /// value-range analysis ([`smarq_verify::analyze`]) supplies each
    /// region's entry state, so the taint is range-precise. None by
    /// default; the CLIs default `--nospec` to `SMARQ_NOSPEC` through
    /// [`nospec_ranges_from_env`].
    pub nospec_ranges: NospecRanges,
}

/// Parses the `SMARQ_NOSPEC` environment variable; unset or blank means
/// no ranges. The CLIs use it as the default of `--nospec` and report a
/// malformed value; the library reads no environment.
///
/// # Errors
/// The [`NospecRanges::parse`] message for a malformed value.
pub fn nospec_ranges_from_env() -> Result<NospecRanges, String> {
    match std::env::var("SMARQ_NOSPEC") {
        Ok(v) if !v.trim().is_empty() => NospecRanges::parse(&v),
        _ => Ok(NospecRanges::none()),
    }
}

impl Default for SystemConfig {
    /// The default configuration. It reads no environment variable.
    fn default() -> Self {
        let machine = MachineConfig::default();
        SystemConfig {
            opt: OptConfig::smarq(machine.num_alias_regs),
            machine,
            hot_threshold: 50,
            formation: FormationParams {
                cold_threshold: 10,
                max_blocks: 16,
                max_ops: 512,
            },
            unroll_factor: 1,
            max_rollbacks_per_region: 64,
            verify_translations: false,
            dispatch: DispatchMode::default(),
            exec_tier: ExecTier::default(),
            tier_sample_interval: 256,
            async_translate: false,
            translate_workers: 1,
            translate_queue_depth: 4,
            nospec_ranges: NospecRanges::none(),
        }
    }
}

impl SystemConfig {
    /// Default system targeting the given optimizer configuration.
    pub fn with_opt(opt: OptConfig) -> Self {
        SystemConfig {
            opt,
            ..Self::default()
        }
    }
}

/// Why [`DynOptSystem::run_to_completion`] stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// The guest program halted.
    Halted,
    /// The guest-instruction budget ran out first.
    BudgetExhausted,
}

/// Outcome of one bounded stepping call ([`DynOptSystem::run_bounded`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunStatus {
    /// The step bound was reached; the guest can continue.
    Running,
    /// The guest program halted.
    Halted,
    /// The guest-instruction budget ran out.
    BudgetExhausted,
}

/// The dynamic binary optimization system (paper Figure 1) for one
/// guest: a [`GuestContext`] over a private [`TranslationHub`].
pub struct DynOptSystem {
    hub: TranslationHub,
    ctx: GuestContext,
}

impl DynOptSystem {
    /// Creates a system for `program`. Translation runs inline unless the
    /// config enables async translation; then it runs on a
    /// [`ThreadedExecutor`] pool, or on the deterministic
    /// [`StepExecutor::auto`] when `translate_workers` is 0.
    pub fn new(program: Program, config: SystemConfig) -> Self {
        let depth = config.translate_queue_depth.max(1) as usize;
        let exec: Option<Box<dyn TranslationExecutor>> =
            match (config.async_translate, config.translate_workers) {
                (false, _) => None,
                (true, 0) => Some(Box::new(StepExecutor::auto(depth))),
                (true, w) => Some(Box::new(ThreadedExecutor::new(w as usize, depth))),
            };
        Self::build(program, &config, exec)
    }

    /// Creates a system translating asynchronously through the given
    /// executor — the deterministic interleaving harness injects a
    /// manually stepped [`StepExecutor`] here.
    pub fn with_executor(
        program: Program,
        config: SystemConfig,
        exec: Box<dyn TranslationExecutor>,
    ) -> Self {
        Self::build(program, &config, Some(exec))
    }

    fn build(
        program: Program,
        config: &SystemConfig,
        exec: Option<Box<dyn TranslationExecutor>>,
    ) -> Self {
        let hub = TranslationHub::with_executor(HubConfig::from_system(config), exec);
        let ctx = GuestContext::new(0, program, &hub);
        DynOptSystem { hub, ctx }
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &SystemStats {
        self.ctx.stats()
    }

    /// The guest interpreter (architectural state lives here).
    pub fn interp(&self) -> &Interpreter {
        self.ctx.interp()
    }

    /// The alias blacklist accumulated from runtime exceptions.
    pub fn blacklist(&self) -> &AliasBlacklist {
        self.ctx.blacklist()
    }

    /// The superblocks of every region the system formed, one per entry
    /// block in formation order (see [`GuestContext::formed_superblocks`]).
    pub fn formed_superblocks(&self) -> impl Iterator<Item = &Superblock> + '_ {
        self.ctx.formed_superblocks()
    }

    /// The entry register state region `i` was optimized against (see
    /// [`GuestContext::assumed_entry`]).
    pub fn assumed_entry(&self, i: usize) -> Option<&RegState> {
        self.ctx.assumed_entry(i)
    }

    /// Region `i`'s optimizer trace, re-derived on demand (see
    /// [`GuestContext::region_trace`]).
    pub fn region_trace(&self, i: usize) -> Option<OptTrace> {
        self.ctx.region_trace(i)
    }

    /// The whole-chain static analysis of the formed regions (see
    /// [`GuestContext::analyze_chain`]).
    pub fn analyze_chain(&self) -> Option<ChainReport> {
        self.ctx.analyze_chain()
    }

    /// Runs until the guest halts or roughly `budget` guest instructions
    /// have been retired. Resumes from where the previous call stopped
    /// (budget-exhausted runs continue; a halted guest stays halted).
    pub fn run_to_completion(&mut self, budget: u64) -> StopReason {
        self.ctx.run_to_completion(&self.hub, budget)
    }

    /// Runs at most `max_steps` dispatch steps (see
    /// [`GuestContext::run_bounded`]) — the fine-grained clock the
    /// deterministic interleaving harness drives guest progress with.
    pub fn run_bounded(&mut self, max_steps: u64, budget: u64) -> RunStatus {
        self.ctx.run_bounded(&self.hub, max_steps, budget)
    }

    /// Runs to completion under a seeded interleaving of guest steps and
    /// translation compute/release steps: [`run_multi_interleaved`] over
    /// this one guest.
    pub fn run_interleaved(&mut self, seed: u64, budget: u64) -> StopReason {
        run_multi_interleaved(&self.hub, std::slice::from_mut(&mut self.ctx), seed, budget);
        if self.ctx.halted() {
            StopReason::Halted
        } else {
            StopReason::BudgetExhausted
        }
    }

    /// Translation jobs currently in flight (async mode; 0 otherwise).
    pub fn translation_outstanding(&self) -> usize {
        self.hub.outstanding()
    }

    /// Forwards [`TranslationExecutor::compute_one`].
    pub fn translation_compute_one(&mut self) -> bool {
        self.hub.compute_one()
    }

    /// Forwards [`TranslationExecutor::release_one`].
    pub fn translation_release_one(&mut self) -> bool {
        self.hub.release_one()
    }

    /// Blocks until every in-flight translation has finished and is
    /// published.
    pub fn translation_drain(&mut self) {
        self.ctx.drain(&self.hub);
    }

    /// Test hook: submits a duplicate translation job for `entry`,
    /// bypassing single-flight dedup.
    #[doc(hidden)]
    pub fn debug_submit_translate(&mut self, entry: BlockId) {
        self.ctx.debug_submit(&self.hub, entry);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use smarq_guest::{AluOp, CmpOp, ProgramBuilder, Reg};

    /// Loop with an in-loop load/store to a fixed address, plus pointer
    /// accesses that never truly alias.
    fn accumulating_loop(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let entry = b.block();
        let body = b.block();
        let done = b.block();
        b.iconst(entry, Reg(1), 0);
        b.iconst(entry, Reg(2), iters);
        b.iconst(entry, Reg(3), 0x1000); // accumulator
        b.iconst(entry, Reg(5), 0x2000); // array
        b.jump(entry, body);
        b.ld(body, Reg(4), Reg(3), 0);
        b.st(body, Reg(4), Reg(5), 0); // never aliases the accumulator
        b.ld(body, Reg(6), Reg(5), 8);
        b.alu(body, AluOp::Add, Reg(4), Reg(4), Reg(1));
        b.st(body, Reg(4), Reg(3), 0);
        b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, done);
        b.halt(done);
        b.finish(entry)
    }

    fn reference_state(p: &Program) -> smarq_guest::ArchState {
        let mut i = Interpreter::new();
        i.run(p, u64::MAX);
        i.arch_state()
    }

    #[test]
    fn optimized_execution_matches_interpretation() {
        let p = accumulating_loop(500);
        let expected = reference_state(&p);
        for opt in [
            OptConfig::smarq(64),
            OptConfig::smarq(16),
            OptConfig::smarq_no_store_reorder(64),
            OptConfig::alat(),
            OptConfig::no_alias_hw(),
        ] {
            let mut sys = DynOptSystem::new(p.clone(), SystemConfig::with_opt(opt.clone()));
            assert_eq!(sys.run_to_completion(u64::MAX), StopReason::Halted);
            assert_eq!(
                sys.interp().arch_state(),
                expected,
                "arch state mismatch for {opt:?}"
            );
            assert!(sys.stats().regions_formed >= 1);
            assert!(sys.stats().vliw_cycles > 0);
        }
    }

    /// A loop whose load sits *behind* a store fed by a long FP chain:
    /// without alias hardware the load (and its multiply chain) serializes
    /// after the chain; with SMARQ it hoists to the top and overlaps.
    fn store_shadowed_loop(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let entry = b.block();
        let body = b.block();
        let done = b.block();
        b.iconst(entry, Reg(1), 0);
        b.iconst(entry, Reg(2), iters);
        b.iconst_via_memory(entry, Reg(3), 0x1000, 0x800);
        b.iconst_via_memory(entry, Reg(5), 0x2000, 0x808);
        b.fconst(entry, smarq_guest::FReg(3), 1.0001);
        b.jump(entry, body);
        b.fld(body, smarq_guest::FReg(1), Reg(5), 0);
        b.fpu(
            body,
            smarq_guest::FpuOp::Div,
            smarq_guest::FReg(2),
            smarq_guest::FReg(1),
            smarq_guest::FReg(3),
        );
        b.fst(body, smarq_guest::FReg(2), Reg(5), 0);
        // The speculation target: a load after the store, may-alias by the
        // simple analysis (different base registers), never truly aliasing.
        b.ld(body, Reg(4), Reg(3), 0);
        b.alu(body, AluOp::Mul, Reg(6), Reg(4), Reg(4));
        b.alu(body, AluOp::Mul, Reg(6), Reg(6), Reg(6));
        b.st(body, Reg(6), Reg(3), 8);
        b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, done);
        b.halt(done);
        b.finish(entry)
    }

    #[test]
    fn speculation_beats_no_alias_hw_on_shadowed_loads() {
        let p = store_shadowed_loop(2000);
        let expected = reference_state(&p);
        let mut fast = DynOptSystem::new(p.clone(), SystemConfig::with_opt(OptConfig::smarq(64)));
        fast.run_to_completion(u64::MAX);
        let mut slow =
            DynOptSystem::new(p.clone(), SystemConfig::with_opt(OptConfig::no_alias_hw()));
        slow.run_to_completion(u64::MAX);
        assert_eq!(fast.interp().arch_state(), expected);
        assert_eq!(slow.interp().arch_state(), expected);
        assert_eq!(fast.stats().rollbacks, 0, "no true aliasing here");
        assert!(
            fast.stats().total_cycles() < slow.stats().total_cycles(),
            "SMARQ {} !< none {}",
            fast.stats().total_cycles(),
            slow.stats().total_cycles()
        );
    }

    /// Loop where the "unlikely" aliasing pair truly aliases from the
    /// first iteration: the pair aliases while the block warms up, so
    /// formation records it and no scheme speculates on it.
    pub(crate) fn truly_aliasing_loop(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let entry = b.block();
        let body = b.block();
        let done = b.block();
        b.iconst(entry, Reg(1), 0);
        b.iconst(entry, Reg(2), iters);
        b.iconst(entry, Reg(3), 0x1000);
        b.iconst(entry, Reg(5), 0x1000); // same address, different register!
        b.jump(entry, body);
        b.st(body, Reg(1), Reg(3), 0);
        b.ld(body, Reg(4), Reg(5), 0); // must see the store's value
        b.alu_imm(body, AluOp::Add, Reg(6), Reg(4), 0);
        b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, done);
        b.halt(done);
        b.finish(entry)
    }

    #[test]
    fn alias_exception_rolls_back_and_blacklists() {
        let p = late_aliasing_loop(400, 60);
        let expected = reference_state(&p);
        let mut sys = DynOptSystem::new(p, SystemConfig::with_opt(OptConfig::smarq(64)));
        assert_eq!(sys.run_to_completion(u64::MAX), StopReason::Halted);
        assert_eq!(sys.interp().arch_state(), expected);
        assert!(sys.stats().rollbacks >= 1, "speculation must have faulted");
        assert!(sys.stats().retranslations >= 1);
        assert!(!sys.blacklist().is_empty());
        // After re-translation the region must run cleanly (no livelock).
        let last = sys.stats().per_region.last().unwrap();
        assert!(last.rollbacks < 5, "blacklisting must converge");
    }

    /// The three speculating schemes, by name.
    fn speculating_schemes() -> [(&'static str, OptConfig); 3] {
        [
            ("smarq", OptConfig::smarq(64)),
            ("efficeon", OptConfig::efficeon()),
            ("alat", OptConfig::alat()),
        ]
    }

    /// The store at `instr` of the aliasing loops' body block and the load
    /// right after it.
    fn body_pair(instr: u32) -> (smarq_ir::OpOrigin, smarq_ir::OpOrigin) {
        let at = |instr| smarq_ir::OpOrigin {
            block: BlockId(1),
            instr,
        };
        (at(instr), at(instr + 1))
    }

    /// A pair that aliases from the first iteration aliases while its
    /// block warms up: formation records it, no scheme speculates on it,
    /// and the region is translated once and never rolls back.
    #[test]
    fn a_pair_aliasing_during_warm_up_is_never_speculated() {
        let p = truly_aliasing_loop(400);
        let expected = reference_state(&p);
        let (st, ld) = body_pair(0);
        for (label, opt) in speculating_schemes() {
            let mut sys = DynOptSystem::new(p.clone(), SystemConfig::with_opt(opt));
            assert_eq!(sys.run_to_completion(u64::MAX), StopReason::Halted);
            assert_eq!(sys.interp().arch_state(), expected, "{label}");
            let s = sys.stats();
            assert_eq!(s.rollbacks, 0, "{label}: the pair was speculated on");
            assert_eq!(s.retranslations, 0, "{label}");
            assert_eq!(s.regions_formed, s.per_region.len(), "{label}");
            assert!(s.region_entries > 0, "{label}: the region runs");
            assert!(sys.blacklist().is_empty(), "{label}");
            let sb = sys.formed_superblocks().next().expect("the loop is hot");
            assert_eq!(sb.profiled_aliases, vec![(st, ld)], "{label}");
        }
    }

    /// A pair that starts to alias only after warm-up is not among the
    /// profiled pairs: under every scheme it still faults, is blacklisted
    /// and the region is retranslated.
    #[test]
    fn a_pair_aliasing_after_warm_up_still_faults_and_is_blacklisted() {
        let p = late_aliasing_loop(400, 60);
        let expected = reference_state(&p);
        let (st, ld) = body_pair(3);
        for (label, opt) in speculating_schemes() {
            let mut sys = DynOptSystem::new(p.clone(), SystemConfig::with_opt(opt));
            assert_eq!(sys.run_to_completion(u64::MAX), StopReason::Halted);
            assert_eq!(sys.interp().arch_state(), expected, "{label}");
            let s = sys.stats();
            assert!(s.rollbacks >= 1, "{label}: late aliasing must fault");
            assert!(s.retranslations >= 1, "{label}");
            assert!(sys.blacklist().contains(st, ld), "{label}");
            let sb = sys.formed_superblocks().next().expect("the loop is hot");
            assert!(sb.profiled_aliases.is_empty(), "{label}");
        }
    }

    #[test]
    fn budget_stops_runs() {
        let p = accumulating_loop(1_000_000);
        let mut sys = DynOptSystem::new(p, SystemConfig::default());
        assert_eq!(sys.run_to_completion(50_000), StopReason::BudgetExhausted);
        assert!(sys.stats().guest_instrs() >= 50_000);
    }

    /// Two sequential hot loops plus a cold epilogue: both loops must get
    /// their own cached regions and the state must stay exact.
    fn two_phase_program(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let entry = b.block();
        let loop1 = b.block();
        let mid = b.block();
        let loop2 = b.block();
        let done = b.block();
        b.iconst(entry, Reg(1), 0);
        b.iconst(entry, Reg(2), iters);
        b.iconst(entry, Reg(3), 0x1000);
        b.iconst(entry, Reg(5), 0x2000);
        b.jump(entry, loop1);
        // Phase 1: accumulate into [r3].
        b.ld(loop1, Reg(4), Reg(3), 0);
        b.alu(loop1, AluOp::Add, Reg(4), Reg(4), Reg(1));
        b.st(loop1, Reg(4), Reg(3), 0);
        b.alu_imm(loop1, AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(loop1, CmpOp::Lt, Reg(1), Reg(2), loop1, mid);
        // Reset the counter.
        b.iconst(mid, Reg(1), 0);
        b.jump(mid, loop2);
        // Phase 2: copy [r3] into [r5 + 8] with a may-alias pair.
        b.ld(loop2, Reg(6), Reg(3), 0);
        b.st(loop2, Reg(6), Reg(5), 8);
        b.ld(loop2, Reg(7), Reg(5), 16);
        b.alu_imm(loop2, AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(loop2, CmpOp::Lt, Reg(1), Reg(2), loop2, done);
        b.halt(done);
        b.finish(entry)
    }

    #[test]
    fn multiple_hot_loops_each_get_regions() {
        let p = two_phase_program(400);
        let expected = reference_state(&p);
        let mut sys = DynOptSystem::new(p, SystemConfig::with_opt(OptConfig::smarq(64)));
        assert_eq!(sys.run_to_completion(u64::MAX), StopReason::Halted);
        assert_eq!(sys.interp().arch_state(), expected);
        assert!(
            sys.stats().regions_formed >= 2,
            "both hot loops must be translated, got {}",
            sys.stats().regions_formed
        );
        let entries: Vec<_> = sys.stats().per_region.iter().map(|r| r.entry).collect();
        assert!(entries.contains(&BlockId(1)) && entries.contains(&BlockId(3)));
    }

    #[test]
    fn abandoned_regions_fall_back_to_interpretation() {
        // Force abandonment with a zero rollback budget on a program that
        // faults once warm: execution must still complete correctly.
        let p = late_aliasing_loop(300, 60);
        let expected = reference_state(&p);
        let mut cfg = SystemConfig::with_opt(OptConfig::smarq(64));
        cfg.max_rollbacks_per_region = 0;
        let mut sys = DynOptSystem::new(p, cfg);
        assert_eq!(sys.run_to_completion(u64::MAX), StopReason::Halted);
        assert_eq!(sys.interp().arch_state(), expected);
        assert!(sys.stats().rollbacks >= 1);
    }

    #[test]
    fn scan_energy_statistics_accumulate() {
        let p = store_shadowed_loop(400);
        let mut sys = DynOptSystem::new(p, SystemConfig::with_opt(OptConfig::smarq(64)));
        sys.run_to_completion(u64::MAX);
        let s = sys.stats();
        assert!(s.region_mem_ops > 0);
        assert!(s.alias_entries_scanned > 0, "checks must examine entries");
        assert!(s.scans_per_mem_op() > 0.0);
    }

    #[test]
    fn unrolled_regions_stay_bit_exact_and_grow() {
        let p = store_shadowed_loop(1200);
        let expected = reference_state(&p);
        let mut cfg = SystemConfig::with_opt(OptConfig::smarq(64));
        cfg.unroll_factor = 4;
        let mut sys = DynOptSystem::new(p.clone(), cfg);
        assert_eq!(sys.run_to_completion(u64::MAX), StopReason::Halted);
        assert_eq!(sys.interp().arch_state(), expected);
        let unrolled_mem = sys.stats().per_region[0].opt.mem_ops;

        let mut plain = DynOptSystem::new(p, SystemConfig::with_opt(OptConfig::smarq(64)));
        plain.run_to_completion(u64::MAX);
        let plain_mem = plain.stats().per_region[0].opt.mem_ops;
        assert_eq!(unrolled_mem, 4 * plain_mem, "region grew by the factor");
        // Fewer region entries, fewer checkpoints: at least as fast.
        assert!(sys.stats().region_entries < plain.stats().region_entries);
    }

    #[test]
    fn cold_programs_never_translate() {
        let p = accumulating_loop(5);
        let mut sys = DynOptSystem::new(p, SystemConfig::default());
        sys.run_to_completion(u64::MAX);
        assert_eq!(sys.stats().regions_formed, 0);
        assert_eq!(sys.stats().vliw_cycles, 0);
        assert!(sys.stats().interp_instrs > 0);
    }

    /// Runs `p` to completion with the default SMARQ configuration.
    fn run_chained(p: &Program) -> DynOptSystem {
        let mut sys = DynOptSystem::new(p.clone(), SystemConfig::with_opt(OptConfig::smarq(64)));
        assert_eq!(sys.run_to_completion(u64::MAX), StopReason::Halted);
        sys
    }

    /// Chained dispatch must be bit-exact with the interpreter reference,
    /// must match a run synced after every dispatch step, and must
    /// actually bypass the dispatcher: an unchained dispatcher probes the
    /// cache once per interpreted block and once per region entry.
    #[test]
    fn chained_dispatch_is_bit_exact_and_skips_the_dispatcher() {
        for p in [
            accumulating_loop(800),
            store_shadowed_loop(800),
            truly_aliasing_loop(400),
            two_phase_program(400),
        ] {
            let expected = reference_state(&p);
            let chained = run_chained(&p);
            let mut stepped =
                DynOptSystem::new(p.clone(), SystemConfig::with_opt(OptConfig::smarq(64)));
            while stepped.run_bounded(1, u64::MAX) == RunStatus::Running {}
            let s = chained.stats();
            assert_eq!(chained.interp().arch_state(), expected);
            assert_eq!(
                s.guest_instrs(),
                stepped.stats().guest_instrs(),
                "batched stat syncing must not change totals"
            );
            assert_eq!(
                s.region_entries,
                stepped.stats().region_entries,
                "chaining changes dispatch, not execution"
            );
            let profile = chained.interp().profile();
            let interpreted: u64 = p.iter().map(|(b, _)| profile.block_count(b)).sum();
            let unchained_lookups = interpreted + s.region_entries;
            assert!(
                s.dispatch_lookups < unchained_lookups,
                "chaining must shed dispatcher work: {} !< {unchained_lookups}",
                s.dispatch_lookups,
            );
        }
    }

    /// A hot self-loop region must chain to itself: almost every region
    /// entry after warm-up follows the memoized link instead of probing
    /// the translation cache.
    #[test]
    fn self_loop_chains_without_redispatch() {
        let p = accumulating_loop(2000);
        let sys = run_chained(&p);
        let s = sys.stats();
        assert!(s.chain_follows > 0, "self-link must be followed");
        assert!(
            s.chain_follows >= s.region_entries - 2,
            "steady state runs entirely on the chain: {} follows of {} entries",
            s.chain_follows,
            s.region_entries
        );
        assert!(
            s.dispatch_lookups < s.region_entries / 2,
            "chained entries must not re-enter the dispatcher ({} lookups, {} entries)",
            s.dispatch_lookups,
            s.region_entries
        );
    }

    /// Outer loop over two hot inner loops with hot glue blocks: several
    /// distinct regions form and chain region→region in a cycle.
    fn ping_pong_program(outer: i64, inner: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let entry = b.block();
        let a = b.block();
        let l1 = b.block();
        let mid = b.block();
        let l2 = b.block();
        let tail = b.block();
        let done = b.block();
        b.iconst(entry, Reg(10), 0); // outer counter
        b.iconst(entry, Reg(11), outer);
        b.iconst(entry, Reg(12), inner);
        b.iconst(entry, Reg(3), 0x1000);
        b.iconst(entry, Reg(5), 0x2000);
        b.jump(entry, a);
        // A: reset the inner counter for loop 1.
        b.iconst(a, Reg(1), 0);
        b.jump(a, l1);
        // L1: accumulate into [r3].
        b.ld(l1, Reg(4), Reg(3), 0);
        b.alu(l1, AluOp::Add, Reg(4), Reg(4), Reg(1));
        b.st(l1, Reg(4), Reg(3), 0);
        b.alu_imm(l1, AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(l1, CmpOp::Lt, Reg(1), Reg(12), l1, mid);
        // mid: reset the inner counter for loop 2.
        b.iconst(mid, Reg(1), 0);
        b.jump(mid, l2);
        // L2: copy [r3] into [r5+8] with a may-alias pair.
        b.ld(l2, Reg(6), Reg(3), 0);
        b.st(l2, Reg(6), Reg(5), 8);
        b.alu_imm(l2, AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(l2, CmpOp::Lt, Reg(1), Reg(12), l2, tail);
        // tail: outer backedge.
        b.alu_imm(tail, AluOp::Add, Reg(10), Reg(10), 1);
        b.branch(tail, CmpOp::Lt, Reg(10), Reg(11), a, done);
        b.halt(done);
        b.finish(entry)
    }

    /// Multiple distinct regions must chain into each other (not just the
    /// self-link case) and stay bit-exact with the interpreter.
    #[test]
    fn distinct_regions_chain_region_to_region() {
        let p = ping_pong_program(300, 8);
        let expected = reference_state(&p);
        let chained = run_chained(&p);
        assert_eq!(chained.interp().arch_state(), expected);
        let s = chained.stats();
        assert!(
            s.regions_formed >= 3,
            "inner loops and glue blocks must all get regions, got {}",
            s.regions_formed
        );
        assert!(
            s.chain_follows > s.region_entries / 2,
            "most entries arrive over chain links: {} of {}",
            s.chain_follows,
            s.region_entries
        );
    }

    /// Loop that truly aliases only from iteration `flip` on
    /// ([`smarq_workloads::late_aliasing`]: the store is `instr` 3 of
    /// block 1, the load `instr` 4). With `flip` past the hot threshold
    /// the region speculates on the pair and the exception fires *inside
    /// a chained region* (entered over a memoized link). The rollback must
    /// surface the resident state exactly, the chain links must be
    /// invalidated, and blacklisting must re-converge.
    pub(crate) fn late_aliasing_loop(iters: i64, flip: i64) -> Program {
        smarq_workloads::late_aliasing(iters, flip).program
    }

    #[test]
    fn alias_exception_inside_chained_region_unlinks_and_reconverges() {
        let p = late_aliasing_loop(500, 250);
        let expected = reference_state(&p);
        let sys = run_chained(&p);
        let s = sys.stats();
        assert_eq!(
            sys.interp().arch_state(),
            expected,
            "resident rollback is exact"
        );
        assert!(
            s.chain_follows > 0,
            "the faulting region was entered over a link"
        );
        assert!(s.rollbacks >= 1, "late aliasing must fault");
        assert!(s.retranslations >= 1);
        assert!(s.chain_unlinks >= 1, "retranslation must drop stale links");
        assert!(!sys.blacklist().is_empty());
        let last = s.per_region.last().unwrap();
        assert!(last.rollbacks < 5, "blacklisting must converge");
    }

    /// Abandoning a region mid-chain must unlink it so chained execution
    /// can never re-enter dead code.
    #[test]
    fn abandoned_region_is_unlinked_from_chains() {
        let p = late_aliasing_loop(400, 200);
        let mut cfg = SystemConfig::with_opt(OptConfig::smarq(64));
        cfg.dispatch = DispatchMode::Chained;
        cfg.max_rollbacks_per_region = 0; // first fault abandons
        let mut sys = DynOptSystem::new(p.clone(), cfg);
        assert_eq!(sys.run_to_completion(u64::MAX), StopReason::Halted);
        assert_eq!(sys.interp().arch_state(), reference_state(&p));
        let s = sys.stats();
        assert!(s.rollbacks >= 1);
        assert!(
            s.chain_unlinks >= 1,
            "the abandoned region's self-link must be severed"
        );
    }

    /// Verify-on-emit covers every translation AND retranslation, reports
    /// zero errors for the correct optimizer, and stays out of the way
    /// when off.
    #[test]
    fn verify_on_emit_covers_all_translations() {
        let p = accumulating_loop(400);
        let expected = reference_state(&p);
        let mut cfg = SystemConfig::with_opt(OptConfig::smarq(64));
        cfg.hot_threshold = 10;
        cfg.verify_translations = true;
        let mut sys = DynOptSystem::new(p.clone(), cfg);
        assert_eq!(sys.run_to_completion(u64::MAX), StopReason::Halted);
        assert_eq!(sys.interp().arch_state(), expected);
        let s = sys.stats();
        assert!(s.regions_verified > 0, "every emitted region is verified");
        assert_eq!(
            s.regions_verified,
            s.regions_formed + s.retranslations,
            "translations and retranslations both pass through the verifier"
        );
        assert_eq!(s.verify_errors, 0, "{:?}", s.verify_diagnostics);

        let mut off = DynOptSystem::new(p, SystemConfig::with_opt(OptConfig::smarq(64)));
        off.run_to_completion(u64::MAX);
        assert_eq!(off.stats().regions_verified, 0);
        assert!(off.stats().verify_diagnostics.is_empty());
    }

    /// Runs `p` to completion on the functional tier with the given
    /// sampling interval.
    fn run_functional(p: &Program, interval: u64) -> DynOptSystem {
        let mut cfg = SystemConfig::with_opt(OptConfig::smarq(64));
        cfg.tier_sample_interval = interval;
        let mut sys = DynOptSystem::new(p.clone(), cfg);
        assert_eq!(sys.run_to_completion(u64::MAX), StopReason::Halted);
        sys
    }

    /// The functional tier must be architecturally bit-exact with pure
    /// interpretation AND with the chained cycle-sim dispatch on every
    /// helper program, with every tier-down sample agreeing.
    #[test]
    fn functional_tier_is_bit_exact_with_agreeing_samples() {
        for p in [
            accumulating_loop(800),
            store_shadowed_loop(800),
            truly_aliasing_loop(400),
            two_phase_program(400),
            ping_pong_program(300, 8),
            late_aliasing_loop(500, 250),
        ] {
            let expected = reference_state(&p);
            let chained = run_chained(&p);
            let func = run_functional(&p, 16);
            assert_eq!(func.interp().arch_state(), expected);
            assert_eq!(
                func.stats().guest_instrs(),
                chained.stats().guest_instrs(),
                "the tier changes execution speed, not coverage"
            );
            let s = func.stats();
            assert!(s.tier_fast_entries > 0, "hot code runs on the fast tier");
            assert!(s.tier_samples > 0, "sampling fired");
            assert!(s.tier_samples <= s.tier_fast_entries);
            assert_eq!(
                s.tier_sample_mismatches, 0,
                "every sampled entry agrees with the cycle sim"
            );
            assert!(s.tier_sampled_cycles > 0, "samples carry sim timing");
        }
    }

    /// Tier-up policy: interpret → functional on region install. A cold
    /// program never reaches the fast tier; a hot one moves its steady
    /// state there, with the same modeled region cycles as the cycle tier.
    #[test]
    fn tier_up_happens_on_region_install() {
        let cold = run_functional(&accumulating_loop(5), 16);
        assert_eq!(cold.stats().regions_formed, 0);
        assert_eq!(cold.stats().tier_fast_entries, 0);
        assert!(cold.stats().interp_instrs > 0);

        let hot = run_functional(&accumulating_loop(2000), 16);
        let s = hot.stats();
        assert!(s.regions_formed >= 1);
        assert_eq!(
            s.tier_fast_entries, s.region_entries,
            "every region entry ran on the fast tier"
        );
        assert!(
            s.chain_follows >= s.region_entries - 2,
            "the functional dispatcher chains like the cycle-sim one"
        );
        // Work counters and modeled cycles track the cycle tier exactly.
        let chained = run_chained(&accumulating_loop(2000));
        assert!(s.vliw_cycles > 0);
        assert_eq!(s.vliw_cycles, chained.stats().vliw_cycles);
        assert!(s.region_mem_ops > 0);
        assert_eq!(s.region_mem_ops, chained.stats().region_mem_ops);
        assert_eq!(
            s.alias_entries_scanned,
            chained.stats().alias_entries_scanned
        );
    }

    /// Tier-down on alias exception: the fast tier's rollback must hand
    /// the interpreter the exact pre-region state, and the deopt must run
    /// the same blacklist/retranslate machinery as the cycle tier.
    #[test]
    fn functional_tier_deopt_is_exact_and_converges() {
        for p in [late_aliasing_loop(400, 60), late_aliasing_loop(500, 250)] {
            let expected = reference_state(&p);
            let sys = run_functional(&p, 16);
            let s = sys.stats();
            assert_eq!(sys.interp().arch_state(), expected, "deopt state exact");
            assert!(s.rollbacks >= 1, "true aliasing must deopt");
            assert!(s.retranslations >= 1);
            assert!(!sys.blacklist().is_empty());
            let last = s.per_region.last().unwrap();
            assert!(last.rollbacks < 5, "blacklisting must converge");
        }
    }

    /// Interval 0 disables sampling entirely; execution stays exact.
    #[test]
    fn sampling_can_be_disabled() {
        let p = accumulating_loop(1000);
        let sys = run_functional(&p, 0);
        assert_eq!(sys.interp().arch_state(), reference_state(&p));
        assert_eq!(sys.stats().tier_samples, 0);
        assert_eq!(sys.stats().tier_sampled_cycles, 0);
        assert!(sys.stats().tier_fast_entries > 0);
    }

    /// Abandonment works from the fast tier too: a region past its
    /// rollback budget falls back to interpretation permanently.
    #[test]
    fn functional_tier_abandonment_falls_back() {
        let p = late_aliasing_loop(300, 60);
        let expected = reference_state(&p);
        let mut cfg = SystemConfig::with_opt(OptConfig::smarq(64));
        cfg.tier_sample_interval = 16;
        cfg.max_rollbacks_per_region = 0;
        let mut sys = DynOptSystem::new(p, cfg);
        assert_eq!(sys.run_to_completion(u64::MAX), StopReason::Halted);
        assert_eq!(sys.interp().arch_state(), expected);
        assert!(sys.stats().rollbacks >= 1);
    }

    // ----- tier-down sampling countdown edge cases (PR6 gap coverage) --

    /// Table-driven countdown arithmetic: with `interval = n`, the first
    /// functional entry is always sampled (the countdown starts at 1) and
    /// every `n`-th entry after it, so `entries` region entries yield
    /// exactly `1 + (entries - 1) / n` samples.
    #[test]
    fn sampling_countdown_arithmetic_is_exact() {
        for (interval, desc) in [
            (1u64, "every entry"),
            (2, "every other entry"),
            (7, "odd stride"),
            (1_000_000, "stride past the run length"),
        ] {
            let sys = run_functional(&accumulating_loop(1000), interval);
            let s = sys.stats();
            assert!(s.tier_fast_entries > 0);
            let expected = 1 + (s.tier_fast_entries - 1) / interval;
            assert_eq!(
                s.tier_samples, expected,
                "interval {interval} ({desc}): {} entries",
                s.tier_fast_entries
            );
            assert_eq!(s.tier_sample_mismatches, 0);
        }
    }

    /// `tier_sample_interval = 1` is the exhaustive oracle: every single
    /// functional entry is replayed on the cycle simulator, so the timing
    /// table's cycles and the simulator's sum to the same total.
    #[test]
    fn sample_rate_one_checks_every_entry() {
        let sys = run_functional(&accumulating_loop(800), 1);
        let s = sys.stats();
        assert!(s.tier_fast_entries > 0);
        assert_eq!(s.tier_samples, s.tier_fast_entries);
        assert_eq!(s.tier_sample_mismatches, 0);
        assert!(s.tier_sampled_cycles > 0);
        assert_eq!(s.vliw_cycles, s.tier_sampled_cycles);
    }

    /// First-entry-always: even when the interval exceeds the total
    /// number of functional entries, exactly one sample fires — on the
    /// very first entry — so short runs still get a cross-check.
    #[test]
    fn first_functional_entry_is_always_sampled() {
        let sys = run_functional(&accumulating_loop(300), u64::MAX);
        let s = sys.stats();
        assert!(s.tier_fast_entries > 0);
        assert_eq!(s.tier_samples, 1, "only the always-sampled first entry");
        assert_eq!(s.tier_sample_mismatches, 0);
    }

    /// Deopt during a sampled entry: with `interval = 1` the faulting
    /// functional entries are themselves sampled — the cycle-sim replay
    /// must reproduce the identical alias exception (no mismatch), the
    /// rollback must stay architecturally exact, and the countdown must
    /// keep firing across the deopt boundary.
    #[test]
    fn deopt_during_sampled_entry_stays_exact() {
        for p in [late_aliasing_loop(400, 60), late_aliasing_loop(500, 250)] {
            let expected = reference_state(&p);
            let sys = run_functional(&p, 1);
            let s = sys.stats();
            assert_eq!(sys.interp().arch_state(), expected);
            assert!(s.rollbacks >= 1, "true aliasing must deopt");
            assert_eq!(s.tier_samples, s.tier_fast_entries);
            assert_eq!(
                s.tier_sample_mismatches, 0,
                "the sampled replay reproduces the same exception"
            );
            assert!(s.retranslations >= 1);
        }
    }

    // ----- async translation basics (the race harness proper lives in
    // ----- tests/async_interleave.rs) ------------------------------

    /// Async config for deterministic in-process tests: the auto-stepped
    /// executor (no threads), translations land one dispatch boundary
    /// after submission.
    fn async_auto_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::with_opt(OptConfig::smarq(64));
        cfg.async_translate = true;
        cfg.translate_workers = 0;
        cfg.translate_queue_depth = 4;
        cfg
    }

    /// Async translation with the deterministic auto executor: bit-exact
    /// final state, regions still form and run, and the pipeline counters
    /// balance (published + conflicts + still-outstanding = enqueued).
    #[test]
    fn async_auto_executor_is_bit_exact() {
        for p in [
            accumulating_loop(800),
            two_phase_program(400),
            ping_pong_program(300, 8),
        ] {
            let expected = reference_state(&p);
            let mut sys = DynOptSystem::new(p.clone(), async_auto_cfg());
            assert_eq!(sys.run_to_completion(u64::MAX), StopReason::Halted);
            assert_eq!(sys.interp().arch_state(), expected);
            let s = sys.stats();
            assert!(s.regions_formed >= 1, "async translation still installs");
            assert!(s.region_entries > 0, "published regions actually run");
            assert!(s.async_enqueued >= s.regions_formed as u64);
            assert_eq!(
                s.async_published + s.async_publish_conflicts,
                s.async_enqueued - sys.translation_outstanding() as u64,
                "every taken job was either published or rejected"
            );
            assert_eq!(
                s.translation_ns, 0,
                "no translation time on the critical path"
            );
            assert!(s.async_worker_ns > 0);
        }
    }

    /// The real threaded executor reaches the same final state (counters
    /// like the interp/region split are timing-dependent and not
    /// asserted).
    #[test]
    fn async_threaded_executor_is_bit_exact() {
        for workers in [1u32, 3] {
            let p = two_phase_program(600);
            let expected = reference_state(&p);
            let mut cfg = SystemConfig::with_opt(OptConfig::smarq(64));
            cfg.async_translate = true;
            cfg.translate_workers = workers;
            let mut sys = DynOptSystem::new(p, cfg);
            assert_eq!(sys.run_to_completion(u64::MAX), StopReason::Halted);
            sys.translation_drain();
            assert_eq!(sys.interp().arch_state(), expected);
            assert!(sys.stats().async_enqueued >= 1);
            assert_eq!(sys.translation_outstanding(), 0, "drain leaves nothing");
        }
    }

    /// Async deopt path: an alias exception unpublishes the region,
    /// queues the conservative retranslation, and the republished region
    /// converges — bit-exact with the reference throughout.
    #[test]
    fn async_deopt_retranslates_through_the_queue() {
        for p in [late_aliasing_loop(400, 60), late_aliasing_loop(500, 250)] {
            let expected = reference_state(&p);
            let mut sys = DynOptSystem::new(p, async_auto_cfg());
            assert_eq!(sys.run_to_completion(u64::MAX), StopReason::Halted);
            assert_eq!(sys.interp().arch_state(), expected);
            let s = sys.stats();
            assert!(s.rollbacks >= 1, "speculation must have faulted");
            assert!(s.retranslations >= 1, "the queued retranslate published");
            assert!(!sys.blacklist().is_empty());
            let last = s.per_region.last().unwrap();
            assert!(last.rollbacks < 5, "blacklisting must converge");
        }
    }

    /// The functional tier composes with async translation (workers
    /// compile the fast lowering too).
    #[test]
    fn async_composes_with_functional_tier() {
        let p = two_phase_program(500);
        let expected = reference_state(&p);
        let mut cfg = async_auto_cfg();
        cfg.tier_sample_interval = 16;
        let mut sys = DynOptSystem::new(p, cfg);
        assert_eq!(sys.run_to_completion(u64::MAX), StopReason::Halted);
        assert_eq!(sys.interp().arch_state(), expected);
        let s = sys.stats();
        assert!(
            s.tier_fast_entries > 0,
            "published regions run on the fast tier"
        );
        assert_eq!(s.tier_sample_mismatches, 0);
    }

    /// `run_bounded` exposes the dispatch-step clock: it stops after the
    /// requested number of steps with `Running`, resumes where it left
    /// off, and total work matches an unbounded run.
    #[test]
    fn run_bounded_steps_and_resumes() {
        let p = accumulating_loop(500);
        let expected = reference_state(&p);
        let mut sys = DynOptSystem::new(p, SystemConfig::with_opt(OptConfig::smarq(64)));
        let mut statuses = 0u64;
        loop {
            match sys.run_bounded(3, u64::MAX) {
                RunStatus::Running => statuses += 1,
                RunStatus::Halted => break,
                RunStatus::BudgetExhausted => unreachable!(),
            }
        }
        assert!(statuses > 1, "the run was actually chopped into steps");
        assert_eq!(sys.interp().arch_state(), expected);
        // Halted is sticky.
        assert_eq!(sys.run_bounded(10, u64::MAX), RunStatus::Halted);
        assert_eq!(sys.run_to_completion(u64::MAX), StopReason::Halted);
    }
}
