//! The dynamic optimization system loop.

use crate::region::{exit_instr_counts, xorshift64, ChainAccum, ChainLink, NO_REGION};
use crate::stats::{RegionRecord, SystemStats};
use crate::translate_service::{
    FinishedTranslation, JobInput, JobKind, StepExecutor, ThreadedExecutor, TranslationExecutor,
    TranslationJob, TranslationService,
};
use smarq::range::{NospecRanges, RegState};
use smarq::AllocScratch;
use smarq_guest::Memory;
use smarq_guest::{BlockId, Interpreter, Program};
use smarq_ir::OpOrigin;
use smarq_ir::{form_superblock, unroll_superblock, FormationParams, Superblock};
use smarq_opt::fastcomp::{self, FastProgram, FastSim};
use smarq_opt::{optimize_superblock_traced_ranged, AliasBlacklist, OptConfig, OptTrace};
use smarq_verify::{ChainRegionView, ChainReport, ProgramDataflow};
use smarq_vliw::{
    AliasViolation, AnyAliasHw, FastState, MachineConfig, RegionOutcome, RegionStats,
    RegionWriteMask, Simulator, VliwProgram, VliwState,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// How the runtime dispatches between interpreter and translated regions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DispatchMode {
    /// The original dispatcher, retained as the differential oracle (per
    /// repo convention for replaced hot paths): a hash-map lookup per
    /// guest block, a full guest-register marshal around every region
    /// entry/exit, and interpreter stat syncing after every interpreted
    /// block.
    Naive,
    /// The overhauled dispatch path: a flat `Vec`-indexed translation
    /// cache keyed by [`BlockId::index`], memoized region→region chain
    /// links followed in a tight loop without re-entering the dispatcher,
    /// guest state kept resident in the VLIW register file across chained
    /// executions, and stat syncing batched to stop/boundary points.
    #[default]
    Chained,
}

/// Which execution tier runs translated regions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExecTier {
    /// Every region execution runs on the cycle-level VLIW simulator —
    /// full timing model, the configuration every cycle/energy statistic
    /// assumes. The default.
    #[default]
    CycleSim,
    /// Regions run on the fast-functional tier (`smarq_opt::fastcomp`):
    /// architecturally bit-exact, no timing model. The cycle simulator
    /// is retained as a sampled oracle — every
    /// [`SystemConfig::tier_sample_interval`]-th region entry is
    /// re-executed on it from the same pre-state and the architectural
    /// results compared ([`SystemStats::tier_sample_mismatches`]).
    /// Alias exceptions deoptimize to the interpreter through the same
    /// checkpoint/blacklist/unlink machinery as the cycle tier.
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
    /// Defaults to the `SMARQ_VERIFY` environment variable (non-empty,
    /// non-`0` value enables; read once per process).
    pub verify_translations: bool,
    /// Dispatch-path implementation (see [`DispatchMode`]). The chained
    /// dispatcher is the default; the naive one is the bit-exact oracle
    /// used by the differential tests and the `dispatch` perf comparison.
    /// Only consulted on the cycle-sim tier — the functional tier has a
    /// single (chained) dispatcher.
    pub dispatch: DispatchMode,
    /// Execution tier for translated regions (see [`ExecTier`]).
    /// Defaults to the `SMARQ_EXEC_TIER` environment variable
    /// (`functional`, `fast` or `1` select the functional tier; read
    /// once per process), otherwise the cycle simulator.
    pub exec_tier: ExecTier,
    /// On the functional tier, every `tier_sample_interval`-th region
    /// entry is also executed on the cycle simulator from the same
    /// pre-state and bit-compared (0 disables sampling). The first
    /// functional entry is always sampled, so even short runs get one
    /// cross-check.
    pub tier_sample_interval: u64,
    /// Run translation asynchronously: hot-region triggers enqueue a
    /// [`TranslationJob`] on a bounded background service and the guest
    /// keeps executing until the finished region is atomically published
    /// at a dispatch boundary. Defaults to the `SMARQ_ASYNC_TRANSLATE`
    /// environment variable (non-empty, non-`0` enables; read once per
    /// process).
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
    /// region's entry state so the taint is range-precise. Defaults to
    /// the `SMARQ_NOSPEC` environment variable (`lo..hi[,lo..hi…]`,
    /// half-open, decimal or `0x` hex; read once per process).
    pub nospec_ranges: NospecRanges,
}

fn verify_from_env() -> bool {
    static FROM_ENV: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FROM_ENV
        .get_or_init(|| std::env::var_os("SMARQ_VERIFY").is_some_and(|v| !v.is_empty() && v != "0"))
}

fn async_from_env() -> bool {
    static FROM_ENV: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FROM_ENV.get_or_init(|| {
        std::env::var_os("SMARQ_ASYNC_TRANSLATE").is_some_and(|v| !v.is_empty() && v != "0")
    })
}

/// Parses the `SMARQ_NOSPEC` environment variable; unset or blank means
/// no ranges. Front ends call this before building a [`SystemConfig`], so
/// a malformed value is reported to the user instead of panicking in
/// [`SystemConfig::default`].
///
/// # Errors
/// The [`NospecRanges::parse`] message for a malformed value.
pub fn nospec_ranges_from_env() -> Result<NospecRanges, String> {
    match std::env::var("SMARQ_NOSPEC") {
        Ok(v) if !v.trim().is_empty() => NospecRanges::parse(&v),
        _ => Ok(NospecRanges::none()),
    }
}

fn nospec_from_env() -> NospecRanges {
    static FROM_ENV: std::sync::OnceLock<NospecRanges> = std::sync::OnceLock::new();
    FROM_ENV
        .get_or_init(|| {
            nospec_ranges_from_env().unwrap_or_else(|e| panic!("invalid SMARQ_NOSPEC: {e}"))
        })
        .clone()
}

fn exec_tier_from_env() -> ExecTier {
    static FROM_ENV: std::sync::OnceLock<ExecTier> = std::sync::OnceLock::new();
    *FROM_ENV.get_or_init(|| match std::env::var_os("SMARQ_EXEC_TIER") {
        Some(v) if v == "functional" || v == "fast" || v == "1" => ExecTier::Functional,
        _ => ExecTier::CycleSim,
    })
}

impl Default for SystemConfig {
    /// The default configuration, with the `SMARQ_*` environment
    /// overrides documented on each field applied.
    ///
    /// # Panics
    /// If `SMARQ_NOSPEC` is set but malformed. Check it first with
    /// [`nospec_ranges_from_env`] to report the error instead.
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
            verify_translations: verify_from_env(),
            dispatch: DispatchMode::default(),
            exec_tier: exec_tier_from_env(),
            tier_sample_interval: 256,
            async_translate: async_from_env(),
            translate_workers: 1,
            translate_queue_depth: 4,
            nospec_ranges: nospec_from_env(),
        }
    }
}

impl SystemConfig {
    /// Default system targeting the given optimizer configuration.
    ///
    /// # Panics
    /// As [`SystemConfig::default`]: if `SMARQ_NOSPEC` is malformed.
    pub fn with_opt(opt: OptConfig) -> Self {
        SystemConfig {
            opt,
            ..Self::default()
        }
    }
}

struct CachedRegion {
    vliw: VliwProgram,
    tag_origin: Vec<OpOrigin>,
    sb: Superblock,
    /// Guest instructions architecturally covered when leaving through
    /// each exit (approximated by the exit op's position in the trace).
    exit_instrs: Vec<u64>,
    rollbacks: u64,
    /// The region's entry block — the translation-cache key mapping here.
    entry: BlockId,
    /// Precomputed register write-set for masked checkpointing on the
    /// resident dispatch path.
    write_mask: RegionWriteMask,
    /// Memoized region→region links, parallel to `vliw.exits`.
    links: Vec<ChainLink>,
    /// Fast-functional lowering of `vliw`, compiled on install (and on
    /// every retranslation) when the system runs the functional tier;
    /// `None` on the cycle-sim tier.
    fast: Option<FastProgram>,
    /// Blacklist generation this region was optimized against. Running a
    /// region whose generation trails the system's is a *stale* execution
    /// (legal — the alias hardware still catches every true aliasing —
    /// but counted, because it is exactly the window async translation
    /// opens).
    blacklist_gen: u64,
    /// The optimizer's trace, retained under verify-on-emit mode only —
    /// the link-time chain checks re-derive their facts from it.
    trace: Option<OptTrace>,
    /// The abstract entry register state the optimizer's nospec taint
    /// assumed (`None` = assumed ⊤). The chain analyzer proves no chained
    /// predecessor can deliver a state outside it.
    assumed_entry: Option<RegState>,
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

/// The dynamic binary optimization system (paper Figure 1).
pub struct DynOptSystem {
    /// Shared with in-flight translation jobs in async mode.
    program: Arc<Program>,
    config: SystemConfig,
    interp: Interpreter,
    vstate: VliwState,
    sim: Simulator<AnyAliasHw>,
    /// Fast-functional executor (owns the tier's alias-detection state).
    fast_sim: FastSim,
    /// Resident register state of the functional tier.
    fstate: FastState,
    /// Functional entries left until the next tier-down sample (`0` when
    /// sampling is disabled). A countdown instead of
    /// `tier_fast_entries % interval` keeps the u64 divide off the
    /// per-region-entry fast path.
    tier_sample_countdown: u64,
    /// Flat translation cache: `cache[block.index()]` holds the region
    /// index or [`NO_REGION`]. Replaces the per-block `HashMap` lookup of
    /// the original dispatcher with one indexed load.
    cache: Vec<u32>,
    /// The `HashMap` cache the flat one replaced, kept in sync and
    /// consulted only under [`DispatchMode::Naive`] so the retained
    /// oracle measures the original dispatch cost faithfully.
    naive_cache: HashMap<BlockId, usize>,
    regions: Vec<CachedRegion>,
    /// `abandoned[block.index()]`: translation permanently given up.
    abandoned: Vec<bool>,
    blacklist: AliasBlacklist,
    /// Bumped on every fresh blacklist insert. In-flight translation jobs
    /// snapshot it; publish rejects (and resubmits) results whose
    /// snapshot trails it, and region entries under an older generation
    /// count as stale executions.
    blacklist_gen: u64,
    stats: SystemStats,
    /// Allocator scratch recycled across every (re)translation.
    scratch: AllocScratch,
    /// Whole-program value-range analysis (entry state per guest block);
    /// `None` when neither nospec ranges nor verify-on-emit need it.
    dataflow: Option<ProgramDataflow>,
    /// The background translation service (async mode only).
    service: Option<TranslationService>,
    /// Resume point of [`Self::run_bounded`]: the next guest block to
    /// dispatch, or `None` once the guest has halted.
    cursor: Option<BlockId>,
}

impl DynOptSystem {
    /// Creates a system for `program`. When the config enables async
    /// translation, the executor is chosen from it: a [`ThreadedExecutor`]
    /// pool, or the deterministic [`StepExecutor::auto`] when
    /// `translate_workers` is 0.
    pub fn new(program: Program, config: SystemConfig) -> Self {
        let exec: Option<Box<dyn TranslationExecutor>> = config.async_translate.then(|| {
            let depth = config.translate_queue_depth.max(1) as usize;
            if config.translate_workers == 0 {
                Box::new(StepExecutor::auto(depth)) as Box<dyn TranslationExecutor>
            } else {
                Box::new(ThreadedExecutor::new(
                    config.translate_workers as usize,
                    depth,
                ))
            }
        });
        Self::build(program, config, exec)
    }

    /// Creates a system translating asynchronously through the given
    /// executor — the deterministic interleaving harness injects a
    /// manually stepped [`StepExecutor`] here.
    pub fn with_executor(
        program: Program,
        mut config: SystemConfig,
        exec: Box<dyn TranslationExecutor>,
    ) -> Self {
        config.async_translate = true;
        Self::build(program, config, Some(exec))
    }

    fn build(
        program: Program,
        mut config: SystemConfig,
        exec: Option<Box<dyn TranslationExecutor>>,
    ) -> Self {
        // Thread the system-level nospec set into the optimizer config so
        // both the inline and worker translation paths enforce it.
        if !config.nospec_ranges.is_empty() {
            config.opt.nospec = config.nospec_ranges.clone();
        }
        // The whole-program value-range analysis that makes the nospec
        // taint range-precise (and seeds chain verification). Computed
        // once per system; skipped entirely when nothing consumes it.
        let dataflow = (!config.opt.nospec.is_empty() || config.verify_translations)
            .then(|| smarq_verify::analyze(&program));
        let hw = AnyAliasHw::for_kind(config.opt.hw, config.opt.num_alias_regs);
        let sim = Simulator::new(config.machine, hw);
        let fast_sim = FastSim::new(config.opt.hw, config.opt.num_alias_regs);
        let mut interp = Interpreter::new();
        interp.load_data(&program);
        let num_blocks = program.num_blocks();
        let entry = program.entry();
        // 1, not the interval: the very first functional entry is always
        // cross-checked.
        let sample_countdown = u64::from(config.tier_sample_interval != 0);
        DynOptSystem {
            program: Arc::new(program),
            config,
            interp,
            vstate: VliwState::new(),
            sim,
            fast_sim,
            fstate: FastState::new(),
            tier_sample_countdown: sample_countdown,
            cache: vec![NO_REGION; num_blocks],
            naive_cache: HashMap::new(),
            regions: Vec::new(),
            abandoned: vec![false; num_blocks],
            blacklist: AliasBlacklist::new(),
            blacklist_gen: 0,
            stats: SystemStats::default(),
            scratch: AllocScratch::new(),
            dataflow,
            service: exec.map(|e| TranslationService::new(e, num_blocks)),
            cursor: Some(entry),
        }
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// The guest interpreter (architectural state lives here).
    pub fn interp(&self) -> &Interpreter {
        &self.interp
    }

    /// The alias blacklist accumulated from runtime exceptions.
    pub fn blacklist(&self) -> &AliasBlacklist {
        &self.blacklist
    }

    /// The superblocks of every region currently in the translation cache
    /// (in formation order). External oracles — the fuzzer's allocation
    /// validator and differential dependence checks — re-optimize exactly
    /// these regions instead of guessing what the system formed.
    pub fn formed_superblocks(&self) -> impl Iterator<Item = &Superblock> + '_ {
        self.regions.iter().map(|r| &r.sb)
    }

    /// Runs until the guest halts or roughly `budget` guest instructions
    /// have been retired. Resumes from where the previous call stopped
    /// (budget-exhausted runs continue; a halted guest stays halted).
    pub fn run_to_completion(&mut self, budget: u64) -> StopReason {
        match self.run_bounded(u64::MAX, budget) {
            RunStatus::Halted => StopReason::Halted,
            RunStatus::BudgetExhausted => StopReason::BudgetExhausted,
            RunStatus::Running => unreachable!("u64::MAX dispatch steps"),
        }
    }

    /// Runs at most `max_steps` dispatch steps (each an interpreted block
    /// or a region chain), stopping earlier on guest halt or once roughly
    /// `budget` guest instructions have retired. Finished background
    /// translations are published at each step boundary — this is the
    /// fine-grained clock the deterministic interleaving harness drives
    /// guest progress with.
    pub fn run_bounded(&mut self, max_steps: u64, budget: u64) -> RunStatus {
        let Some(mut cur) = self.cursor else {
            // Already halted: publishes may still be pending, but guest
            // execution is over.
            return RunStatus::Halted;
        };
        let mut steps = 0u64;
        while steps < max_steps {
            steps += 1;
            if self.service.is_some() {
                self.poll_translations();
            }
            if self.live_guest_instrs() >= budget {
                self.cursor = Some(cur);
                self.sync_interp_stats();
                return RunStatus::BudgetExhausted;
            }
            let next = if self.config.exec_tier == ExecTier::Functional {
                self.step_functional(cur, budget)
            } else {
                match self.config.dispatch {
                    DispatchMode::Naive => self.step_naive(cur),
                    DispatchMode::Chained => self.step_chained(cur, budget),
                }
            };
            match next {
                Some(b) => cur = b,
                None => {
                    self.cursor = None;
                    self.sync_interp_stats();
                    return RunStatus::Halted;
                }
            }
        }
        self.cursor = Some(cur);
        self.sync_interp_stats();
        RunStatus::Running
    }

    /// Runs to completion under a seeded pseudo-random interleaving of
    /// guest dispatch steps and translation pipeline steps (compute /
    /// release), using the manually stepped executor's hooks. The same
    /// seed replays the exact same schedule — failures reported by the
    /// race harness are reproducible from the seed alone, like fuzz
    /// corpus entries.
    pub fn run_interleaved(&mut self, seed: u64, budget: u64) -> StopReason {
        let mut state = seed | 1;
        loop {
            let steps = 1 + xorshift64(&mut state) % 13;
            match self.run_bounded(steps, budget) {
                RunStatus::Halted => return StopReason::Halted,
                RunStatus::BudgetExhausted => return StopReason::BudgetExhausted,
                RunStatus::Running => {}
            }
            match xorshift64(&mut state) % 4 {
                0 => {
                    self.translation_compute_one();
                }
                1 => {
                    self.translation_release_one();
                }
                2 => {
                    self.translation_compute_one();
                    self.translation_release_one();
                }
                _ => {} // let the guest run on
            }
        }
    }

    /// Translation jobs currently in flight (async mode; 0 otherwise).
    pub fn translation_outstanding(&self) -> usize {
        self.service.as_ref().map_or(0, |s| s.outstanding())
    }

    /// Steps one queued translation job to its computed stage (manual
    /// step executors only; see [`TranslationExecutor::compute_one`]).
    pub fn translation_compute_one(&mut self) -> bool {
        self.service.as_mut().is_some_and(|s| s.compute_one())
    }

    /// Releases one computed translation for publication (manual step
    /// executors only; see [`TranslationExecutor::release_one`]).
    pub fn translation_release_one(&mut self) -> bool {
        self.service.as_mut().is_some_and(|s| s.release_one())
    }

    /// Blocks until every in-flight translation has finished, publishing
    /// each — the pipeline drain used at shutdown and by the benchmarks.
    pub fn translation_drain(&mut self) {
        loop {
            let Some(fin) = self.service.as_mut().and_then(|s| s.take_blocking()) else {
                return;
            };
            self.publish_translation(fin);
        }
    }

    /// Test hook: force-submit a translation job for `entry`, bypassing
    /// the hot-trigger and pending-job dedup (the double-publish race
    /// tests need two in-flight jobs for the same block).
    #[doc(hidden)]
    pub fn debug_submit_translate(&mut self, entry: BlockId) {
        self.submit_translate(entry);
    }

    /// Guest instructions retired so far, computed live from the
    /// interpreter counter so the budget check needs no per-block
    /// [`SystemStats`] sync (stat syncing is batched to stop/boundary
    /// points; see [`Self::sync_interp_stats`]).
    #[inline]
    fn live_guest_instrs(&self) -> u64 {
        self.interp.executed_instrs() + self.stats.region_guest_instrs
    }

    fn sync_interp_stats(&mut self) {
        self.stats.interp_instrs = self.interp.executed_instrs();
        self.stats.interp_cycles =
            self.stats.interp_instrs * self.config.machine.interp_cycles_per_instr;
    }

    /// The derived abstract register state at `b`'s entry, when the
    /// whole-program range analysis ran (nospec or verify mode).
    fn entry_state(&self, b: BlockId) -> Option<RegState> {
        self.dataflow.as_ref().map(|d| *d.entry_state(b))
    }

    /// Flat-cache probe for the region cached at `b`, if any.
    #[inline]
    fn cached_region(&self, b: BlockId) -> Option<usize> {
        match self.cache.get(b.index()) {
            Some(&idx) if idx != NO_REGION => Some(idx as usize),
            _ => None,
        }
    }

    /// The original dispatcher, preserved as the oracle: one hash-map
    /// lookup per guest block, full marshalling per region entry, stat
    /// sync after every interpreted block.
    fn step_naive(&mut self, cur: BlockId) -> Option<BlockId> {
        self.stats.dispatch_lookups += 1;
        if let Some(&idx) = self.naive_cache.get(&cur) {
            return self.run_region_naive(cur, idx);
        }
        // Interpret one block.
        let next = self.interp.step_block(&self.program, cur);
        self.sync_interp_stats();
        self.maybe_translate(cur);
        next
    }

    /// The overhauled dispatcher: flat cache probe, then region chaining.
    fn step_chained(&mut self, cur: BlockId, budget: u64) -> Option<BlockId> {
        self.stats.dispatch_lookups += 1;
        if let Some(idx) = self.cached_region(cur) {
            return self.run_region_chained(idx, budget);
        }
        // Interpret one block; interpreter stats sync at stop/boundary
        // only — the budget check reads the live counter instead.
        let next = self.interp.step_block(&self.program, cur);
        self.maybe_translate(cur);
        next
    }

    /// Hot-block detection after an interpreted block. Inline mode
    /// translates on the spot; async mode enqueues a job (unless one for
    /// this entry is already in flight) and keeps going.
    fn maybe_translate(&mut self, cur: BlockId) {
        if self.interp.profile().block_count(cur) >= self.config.hot_threshold
            && self.cached_region(cur).is_none()
            && !self.abandoned[cur.index()]
        {
            match &self.service {
                None => self.translate(cur),
                Some(s) => {
                    if !s.is_pending(cur) {
                        self.submit_translate(cur);
                    }
                }
            }
        }
    }

    /// Builds a translation job from the system's current configuration
    /// and blacklist snapshot.
    fn make_job(&self, kind: JobKind, input: JobInput) -> TranslationJob {
        TranslationJob {
            kind,
            input,
            program: Arc::clone(&self.program),
            formation: self.config.formation,
            unroll_factor: self.config.unroll_factor,
            opt: self.config.opt.clone(),
            machine: self.config.machine,
            blacklist: self.blacklist.clone(),
            blacklist_gen: self.blacklist_gen,
            verify: self.config.verify_translations,
            compile_fast: self.config.exec_tier == ExecTier::Functional,
            entry_state: self.entry_state(kind.entry()),
        }
    }

    /// Submits `job`, accounting the enqueue on the critical-path clock.
    fn submit_job(&mut self, job: TranslationJob) {
        let t0 = Instant::now();
        let service = self.service.as_mut().expect("async mode");
        if service.submit(job) {
            self.stats.async_enqueued += 1;
            let depth = service.outstanding() as u64;
            self.stats.async_queue_peak = self.stats.async_queue_peak.max(depth);
        } else {
            self.stats.async_queue_full += 1;
        }
        self.stats.async_stall_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Enqueues a first translation of `entry`: the profile is
    /// snapshotted here, formation happens on the worker.
    fn submit_translate(&mut self, entry: BlockId) {
        let job = self.make_job(
            JobKind::Translate { entry },
            JobInput::Form {
                profile: self.interp.profile().clone(),
            },
        );
        self.submit_job(job);
    }

    /// Enqueues a conservative retranslation of region slot `idx`
    /// (reusing its superblock — only the optimization re-runs, against
    /// the just-grown blacklist).
    fn submit_retranslate(&mut self, idx: usize) {
        let job = self.make_job(
            JobKind::Retranslate {
                region: idx as u32,
                entry: self.regions[idx].entry,
            },
            JobInput::Ready(Box::new(self.regions[idx].sb.clone())),
        );
        self.submit_job(job);
    }

    /// Publishes every finished translation the service has ready. Runs
    /// on the execution thread at dispatch-step boundaries only — that
    /// single-threaded discipline is what makes each publish atomic with
    /// respect to guest execution (no region is entered mid-swap).
    fn poll_translations(&mut self) {
        loop {
            let Some(fin) = self.service.as_mut().and_then(|s| s.take()) else {
                return;
            };
            self.publish_translation(fin);
        }
    }

    /// Atomically publishes one finished translation — or rejects it when
    /// the world moved while it was in flight: the entry was abandoned,
    /// the slot was taken, or the blacklist grew past the job's snapshot
    /// (rejected results are resubmitted against the fresh snapshot, so
    /// convergence matches the inline path).
    fn publish_translation(&mut self, fin: FinishedTranslation) {
        self.stats.async_worker_ns += fin.worker_ns;
        let t0 = Instant::now();
        let entry = fin.kind.entry();
        if self.abandoned[entry.index()] || self.cached_region(entry).is_some() {
            // Abandoned while in flight, or a duplicate/raced job already
            // installed code for this entry: drop the result.
            self.stats.async_publish_conflicts += 1;
        } else if fin.blacklist_gen != self.blacklist_gen {
            // The blacklist grew while this job ran; its schedule may
            // still speculate on a known-aliasing pair. Re-optimize
            // against the fresh snapshot (the formed superblock rides
            // along, so only optimization re-runs).
            self.stats.async_publish_conflicts += 1;
            let job = self.make_job(fin.kind, JobInput::Ready(Box::new(fin.sb)));
            self.submit_job(job);
        } else {
            match fin.kind {
                JobKind::Translate { .. } => self.install_translation(fin),
                JobKind::Retranslate { region, .. } => {
                    self.install_retranslation(region as usize, fin)
                }
            }
            self.stats.async_published += 1;
        }
        self.stats.async_stall_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Installs a finished first translation as a new region (the async
    /// twin of [`Self::translate`]'s install tail).
    fn install_translation(&mut self, fin: FinishedTranslation) {
        let entry = fin.kind.entry();
        if fin.verified {
            self.fold_verify_diags(&fin.diags);
        }
        let exit_instrs = exit_instr_counts(&fin.sb);
        let write_mask = RegionWriteMask::of(&fin.opt.vliw);
        let links = vec![ChainLink::Unresolved; fin.opt.vliw.exits.len()];
        self.regions.push(CachedRegion {
            vliw: fin.opt.vliw,
            tag_origin: fin.opt.tag_origin,
            sb: fin.sb,
            exit_instrs,
            rollbacks: 0,
            entry,
            write_mask,
            links,
            fast: fin.fast,
            blacklist_gen: fin.blacklist_gen,
            trace: fin.trace,
            assumed_entry: fin.entry_state,
        });
        self.cache[entry.index()] = (self.regions.len() - 1) as u32;
        self.naive_cache.insert(entry, self.regions.len() - 1);
        self.stats.regions_formed += 1;
        self.stats.per_region.push(RegionRecord {
            entry,
            opt: fin.opt.stats,
            entries: 0,
            rollbacks: 0,
            retranslations: 0,
        });
    }

    /// Re-publishes a finished retranslation into its existing region
    /// slot (the async twin of [`Self::retranslate`]'s install tail; the
    /// slot was unpublished when the deopt enqueued the job, so nothing
    /// can have chained to it in between).
    fn install_retranslation(&mut self, idx: usize, fin: FinishedTranslation) {
        if fin.verified {
            self.fold_verify_diags(&fin.diags);
        }
        let entry = self.regions[idx].entry;
        self.regions[idx].fast = fin.fast;
        self.regions[idx].vliw = fin.opt.vliw;
        self.regions[idx].tag_origin = fin.opt.tag_origin;
        self.regions[idx].trace = fin.trace;
        self.regions[idx].assumed_entry = fin.entry_state;
        self.regions[idx].write_mask = RegionWriteMask::of(&self.regions[idx].vliw);
        let exits = self.regions[idx].vliw.exits.len();
        self.regions[idx].links = vec![ChainLink::Unresolved; exits];
        self.regions[idx].blacklist_gen = fin.blacklist_gen;
        self.cache[entry.index()] = idx as u32;
        self.naive_cache.insert(entry, idx);
        self.stats.retranslations += 1;
        self.stats.per_region[idx].retranslations += 1;
        self.stats.per_region[idx].opt = fin.opt.stats;
    }

    /// Pulls region slot `idx` out of both translation caches and severs
    /// every chain link in and out of it — after this, the region cannot
    /// be dispatched or chained into, so an in-flight retranslation can
    /// swap its code without racing execution.
    fn unpublish(&mut self, idx: usize) {
        let entry = self.regions[idx].entry;
        self.cache[entry.index()] = NO_REGION;
        self.naive_cache.remove(&entry);
        let resolved = self.regions[idx]
            .links
            .iter()
            .filter(|l| **l != ChainLink::Unresolved)
            .count() as u64;
        self.stats.chain_unlinks += resolved;
        for l in &mut self.regions[idx].links {
            *l = ChainLink::Unresolved;
        }
        self.unlink_into(idx);
    }

    fn translate(&mut self, entry: BlockId) {
        let t0 = Instant::now();
        let sb = form_superblock(
            &self.program,
            self.interp.profile(),
            entry,
            self.config.formation,
        );
        let (sb, _) = unroll_superblock(
            &sb,
            self.config.unroll_factor,
            self.config.formation.max_ops,
        );
        let assumed_entry = self.entry_state(entry);
        let (opt, trace) = optimize_superblock_traced_ranged(
            &sb,
            &self.config.opt,
            &self.config.machine,
            &self.blacklist,
            &mut self.scratch,
            assumed_entry.as_ref(),
        );
        let trace = self.config.verify_translations.then_some(trace);
        let ns = t0.elapsed().as_nanos() as u64;
        self.stats.translation_ns += ns;
        self.stats.scheduling_ns += opt.stats.sched_ns;
        // Verify after the overhead clock stops: the paper's Figure 18
        // overhead metric must not be polluted by an opt-in debug mode.
        if let Some(trace) = &trace {
            self.verify_emitted(self.regions.len(), trace);
        }

        let exit_instrs = exit_instr_counts(&sb);
        let write_mask = RegionWriteMask::of(&opt.vliw);
        let links = vec![ChainLink::Unresolved; opt.vliw.exits.len()];
        let fast = self.compile_fast(&opt.vliw);
        self.regions.push(CachedRegion {
            vliw: opt.vliw,
            tag_origin: opt.tag_origin,
            sb,
            exit_instrs,
            rollbacks: 0,
            entry,
            write_mask,
            links,
            fast,
            blacklist_gen: self.blacklist_gen,
            trace,
            assumed_entry,
        });
        self.cache[entry.index()] = (self.regions.len() - 1) as u32;
        self.naive_cache.insert(entry, self.regions.len() - 1);
        self.stats.regions_formed += 1;
        self.stats.per_region.push(RegionRecord {
            entry,
            opt: opt.stats,
            entries: 0,
            rollbacks: 0,
            retranslations: 0,
        });
    }

    fn retranslate(&mut self, idx: usize) {
        let t0 = Instant::now();
        let assumed_entry = self.entry_state(self.regions[idx].entry);
        let (opt, trace) = optimize_superblock_traced_ranged(
            &self.regions[idx].sb,
            &self.config.opt,
            &self.config.machine,
            &self.blacklist,
            &mut self.scratch,
            assumed_entry.as_ref(),
        );
        let trace = self.config.verify_translations.then_some(trace);
        let ns = t0.elapsed().as_nanos() as u64;
        self.stats.translation_ns += ns;
        self.stats.scheduling_ns += opt.stats.sched_ns;
        if let Some(trace) = &trace {
            self.verify_emitted(idx, trace);
        }
        self.regions[idx].trace = trace;
        self.regions[idx].assumed_entry = assumed_entry;
        self.regions[idx].fast = self.compile_fast(&opt.vliw);
        self.regions[idx].vliw = opt.vliw;
        self.regions[idx].tag_origin = opt.tag_origin;
        self.regions[idx].write_mask = RegionWriteMask::of(&self.regions[idx].vliw);
        // The emitted code changed: drop the region's own memoized links
        // and conservatively invalidate every link pointing at it.
        let resolved = self.regions[idx]
            .links
            .iter()
            .filter(|l| **l != ChainLink::Unresolved)
            .count() as u64;
        self.stats.chain_unlinks += resolved;
        let exits = self.regions[idx].vliw.exits.len();
        self.regions[idx].links = vec![ChainLink::Unresolved; exits];
        self.regions[idx].blacklist_gen = self.blacklist_gen;
        self.unlink_into(idx);
        self.stats.retranslations += 1;
        self.stats.per_region[idx].retranslations += 1;
        self.stats.per_region[idx].opt = opt.stats;
    }

    /// Invalidates every memoized link targeting region `target` (called
    /// when the target is retranslated or abandoned — a stale link would
    /// otherwise chain into dead or outdated code).
    fn unlink_into(&mut self, target: usize) {
        let stale = ChainLink::Region(target as u32);
        for r in &mut self.regions {
            for l in &mut r.links {
                if *l == stale {
                    *l = ChainLink::Unresolved;
                    self.stats.chain_unlinks += 1;
                }
            }
        }
    }

    /// Statically verifies a freshly emitted translation (verify-on-emit
    /// mode) and folds the findings into [`SystemStats`]. Observation
    /// only: a bad region still enters the cache — callers inspect
    /// `verify_errors` to decide whether to trust the run.
    fn verify_emitted(&mut self, region: usize, trace: &OptTrace) {
        let diags = smarq_verify::verify_trace(region, trace, self.config.opt.num_alias_regs);
        self.fold_verify_diags(&diags);
    }

    /// Folds verify-on-emit findings (computed inline or on a worker)
    /// into [`SystemStats`].
    fn fold_verify_diags(&mut self, diags: &[smarq::Diagnostic]) {
        self.stats.regions_verified += 1;
        for d in diags {
            if d.severity == smarq::Severity::Error {
                self.stats.verify_errors += 1;
            }
            if self.stats.verify_diagnostics.len() < SystemStats::VERIFY_DIAGNOSTIC_CAP {
                self.stats.verify_diagnostics.push(d.to_json());
            }
        }
    }

    /// Chain-boundary verification at link time (verify-on-emit mode):
    /// when the chained dispatcher memoizes a region→region link, the
    /// hand-off obligations of the two regions involved — write-mask
    /// coverage, entry-state soundness, nospec protection, dead `AMOV`s
    /// and unreachable checks — are proven by the chain analyzer and the
    /// findings folded into [`SystemStats`]. Observation only, like
    /// [`Self::verify_emitted`].
    fn chain_check_link(&mut self, from: usize, to: usize) {
        let mut ids = vec![from];
        if to != from {
            ids.push(to);
        }
        let mut views = Vec::with_capacity(ids.len());
        for &i in &ids {
            let r = &self.regions[i];
            // Regions installed before verify mode was on carry no trace;
            // nothing to re-derive facts from.
            let Some(trace) = r.trace.as_ref() else {
                return;
            };
            views.push(ChainRegionView {
                region_id: i,
                sb: &r.sb,
                trace,
                vliw: &r.vliw,
                write_mask: r.write_mask,
                assumed_entry: r.assumed_entry,
            });
        }
        let report = smarq_verify::analyze_chain(&self.program, &views, &self.config.opt.nospec);
        self.stats.chain_checks += 1;
        for d in &report.diagnostics {
            if d.severity == smarq::Severity::Error {
                self.stats.chain_errors += 1;
            }
            if self.stats.verify_diagnostics.len() < SystemStats::VERIFY_DIAGNOSTIC_CAP {
                self.stats.verify_diagnostics.push(d.to_json());
            }
        }
    }

    /// Runs the whole-chain static analyzer over every cached region that
    /// carries an optimizer trace (verify-on-emit mode retains them).
    /// `None` when no region does — external oracles (the fuzzer's chain
    /// layer, `smarq-run lint`) call this instead of rebuilding views.
    pub fn analyze_chain(&self) -> Option<ChainReport> {
        let views: Vec<ChainRegionView<'_>> = self
            .regions
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                r.trace.as_ref().map(|trace| ChainRegionView {
                    region_id: i,
                    sb: &r.sb,
                    trace,
                    vliw: &r.vliw,
                    write_mask: r.write_mask,
                    assumed_entry: r.assumed_entry,
                })
            })
            .collect();
        if views.is_empty() {
            return None;
        }
        Some(smarq_verify::analyze_chain(
            &self.program,
            &views,
            &self.config.opt.nospec,
        ))
    }

    /// Folds one region execution's statistics into the system totals.
    #[inline]
    fn note_region_entry(&mut self, idx: usize, rstats: &RegionStats) {
        self.stats.vliw_cycles += rstats.cycles;
        self.stats.region_mem_ops += rstats.mem_ops;
        self.stats.alias_entries_scanned += rstats.entries_scanned;
        self.stats.region_entries += 1;
        self.stats.per_region[idx].entries += 1;
    }

    /// One region execution under the naive dispatcher: guest registers
    /// are marshalled into the VLIW state and back around every entry.
    fn run_region_naive(&mut self, entry: BlockId, idx: usize) -> Option<BlockId> {
        if self.service.is_some() && self.regions[idx].blacklist_gen != self.blacklist_gen {
            self.stats.async_stale_entries += 1;
        }
        self.vstate
            .load_guest(&self.interp.regs, &self.interp.fregs);
        let (outcome, rstats) = self
            .sim
            .run_region(
                &self.regions[idx].vliw,
                &mut self.vstate,
                &mut self.interp.mem,
            )
            .expect("translated region is well formed");
        self.note_region_entry(idx, &rstats);
        match outcome {
            RegionOutcome::Exited { exit_id } => {
                self.vstate
                    .store_guest(&mut self.interp.regs, &mut self.interp.fregs);
                let covered = self.regions[idx].exit_instrs[exit_id as usize];
                self.stats.region_guest_instrs += covered;
                self.regions[idx].vliw.exits[exit_id as usize]
                    .guest_block
                    .map(BlockId)
            }
            RegionOutcome::AliasException(v) => {
                // Rolled back: record the pair, re-optimize conservatively,
                // and make forward progress by interpreting one block.
                self.handle_alias_exception(idx, v);
                let next = self.interp.step_block(&self.program, entry);
                self.sync_interp_stats();
                next
            }
        }
    }

    /// Region execution under the chained dispatcher: follows memoized
    /// region→region links in a tight loop. Guest state stays resident in
    /// the VLIW register file for the whole chain and is marshalled back
    /// to the interpreter only at the translated→interpreted boundary (or
    /// after an alias-exception rollback).
    fn run_region_chained(&mut self, idx: usize, budget: u64) -> Option<BlockId> {
        let mut idx = idx;
        self.vstate
            .load_guest(&self.interp.regs, &self.interp.fregs);
        // Chain-local accumulators, folded into `SystemStats` once per
        // chain (and per region switch for the per-region entry counter)
        // instead of half a dozen global read-modify-writes per entry.
        // The interpreter cannot retire instructions while the chain
        // runs, so the budget check is two local adds and a compare.
        let guest_base = self.interp.executed_instrs() + self.stats.region_guest_instrs;
        let async_mode = self.service.is_some();
        let mut acc = ChainAccum::default();
        let mut run_idx = idx;
        let mut run_entries = 0u64;
        loop {
            let region = &self.regions[idx];
            if async_mode && region.blacklist_gen != self.blacklist_gen {
                acc.stale += 1;
            }
            let (outcome, rstats) = self
                .sim
                .run_region_resident(
                    &region.vliw,
                    region.write_mask,
                    &mut self.vstate,
                    &mut self.interp.mem,
                )
                .expect("translated region is well formed");
            acc.cycles += rstats.cycles;
            acc.mem_ops += rstats.mem_ops;
            acc.scanned += rstats.entries_scanned;
            acc.entries += 1;
            run_entries += 1;
            let exit_id = match outcome {
                RegionOutcome::Exited { exit_id } => exit_id as usize,
                RegionOutcome::AliasException(v) => {
                    // The simulator rolled the resident state back to this
                    // region's entry — even mid-chain, the checkpoint taken
                    // at the chained entry is exactly the pre-region guest
                    // state. Surface it to the interpreter, then fall back.
                    self.vstate
                        .store_guest(&mut self.interp.regs, &mut self.interp.fregs);
                    self.stats.per_region[run_idx].entries += run_entries;
                    self.flush_chain_stats(&acc);
                    let entry = self.regions[idx].entry;
                    self.handle_alias_exception(idx, v);
                    return self.interp.step_block(&self.program, entry);
                }
            };
            acc.guest += self.regions[idx].exit_instrs[exit_id];
            // Resolve the exit: a memoized link, a fresh flat-cache probe,
            // or a hand-off back to the interpreter.
            let next_idx = match self.regions[idx].links[exit_id] {
                ChainLink::Region(j) => j as usize,
                ChainLink::Unresolved => {
                    let Some(target) = self.regions[idx].vliw.exits[exit_id].guest_block else {
                        // Guest halt.
                        self.vstate
                            .store_guest(&mut self.interp.regs, &mut self.interp.fregs);
                        self.stats.per_region[run_idx].entries += run_entries;
                        self.flush_chain_stats(&acc);
                        return None;
                    };
                    acc.lookups += 1;
                    match self.cached_region(BlockId(target)) {
                        Some(j) => {
                            self.regions[idx].links[exit_id] = ChainLink::Region(j as u32);
                            if self.config.verify_translations {
                                // Prove the hand-off before the link is
                                // ever followed (observation mode).
                                self.chain_check_link(idx, j);
                            }
                            j
                        }
                        None => {
                            // Not cached (yet): never memoized, so a later
                            // translation of the target is picked up here.
                            self.vstate
                                .store_guest(&mut self.interp.regs, &mut self.interp.fregs);
                            self.stats.per_region[run_idx].entries += run_entries;
                            self.flush_chain_stats(&acc);
                            return Some(BlockId(target));
                        }
                    }
                }
            };
            // Chain boundary: stop following links once the budget is
            // spent so `run_to_completion` can observe it.
            if guest_base + acc.guest >= budget {
                self.vstate
                    .store_guest(&mut self.interp.regs, &mut self.interp.fregs);
                self.stats.per_region[run_idx].entries += run_entries;
                self.flush_chain_stats(&acc);
                return Some(self.regions[next_idx].entry);
            }
            acc.follows += 1;
            if next_idx != run_idx {
                self.stats.per_region[run_idx].entries += run_entries;
                run_idx = next_idx;
                run_entries = 0;
            }
            idx = next_idx;
        }
    }

    /// Lowers a freshly emitted region for the fast-functional tier —
    /// only when that tier is actually selected, so cycle-sim runs pay
    /// nothing for the feature existing.
    fn compile_fast(&self, vliw: &VliwProgram) -> Option<FastProgram> {
        (self.config.exec_tier == ExecTier::Functional)
            .then(|| fastcomp::compile(vliw).expect("translated region is well formed"))
    }

    /// The functional-tier dispatcher: identical probe-and-chain shape to
    /// [`Self::step_chained`], but cached regions run on the fast tier.
    fn step_functional(&mut self, cur: BlockId, budget: u64) -> Option<BlockId> {
        self.stats.dispatch_lookups += 1;
        if let Some(idx) = self.cached_region(cur) {
            return self.run_region_functional(idx, budget);
        }
        let next = self.interp.step_block(&self.program, cur);
        self.maybe_translate(cur);
        next
    }

    /// Region execution on the fast-functional tier: the chained-dispatch
    /// loop of [`Self::run_region_chained`] with the guest state resident
    /// in [`FastState`] and no cycle modeling. Periodically a region entry
    /// is *sampled*: re-executed on the cycle simulator from the same
    /// pre-state and bit-compared ([`Self::tier_down_sample`]). An alias
    /// exception rolls the fast state back (checkpoint + store-undo log)
    /// and deoptimizes to the interpreter through the same
    /// blacklist/retranslate/unlink machinery as the cycle tier.
    fn run_region_functional(&mut self, idx: usize, budget: u64) -> Option<BlockId> {
        let mut idx = idx;
        self.fstate
            .load_guest(&self.interp.regs, &self.interp.fregs);
        let guest_base = self.interp.executed_instrs() + self.stats.region_guest_instrs;
        let async_mode = self.service.is_some();
        let mut acc = ChainAccum::default();
        let mut run_idx = idx;
        let mut run_entries = 0u64;
        loop {
            if async_mode && self.regions[idx].blacklist_gen != self.blacklist_gen {
                acc.stale += 1;
            }
            // Sampling decision *before* the fast run: the oracle needs
            // the pre-state. The countdown starts at 1, so the very first
            // functional entry is always cross-checked; `0` means
            // sampling is disabled and stays disabled.
            let sampled = self.tier_sample_countdown != 0 && {
                self.tier_sample_countdown -= 1;
                if self.tier_sample_countdown == 0 {
                    self.tier_sample_countdown = self.config.tier_sample_interval;
                    true
                } else {
                    false
                }
            };
            let pre_mem = if sampled {
                self.fstate.copy_to_vliw(&mut self.vstate);
                Some(self.interp.mem.clone())
            } else {
                None
            };
            let fast = self.regions[idx]
                .fast
                .as_ref()
                .expect("functional tier compiles regions on install");
            let (outcome, rstats) =
                self.fast_sim
                    .run_region(fast, &mut self.fstate, &mut self.interp.mem);
            self.stats.tier_fast_entries += 1;
            // No cycles: the fast tier has no timing model. Sampled
            // cycle-sim runs report into `tier_sampled_cycles` instead.
            acc.mem_ops += rstats.mem_ops;
            acc.scanned += rstats.entries_scanned;
            acc.entries += 1;
            run_entries += 1;
            if let Some(mut mem) = pre_mem {
                self.tier_down_sample(idx, &outcome, &mut mem);
            }
            let exit_id = match outcome {
                RegionOutcome::Exited { exit_id } => exit_id as usize,
                RegionOutcome::AliasException(v) => {
                    // The fast executor rolled the resident state back to
                    // the region entry; surface it and deoptimize.
                    self.fstate
                        .store_guest(&mut self.interp.regs, &mut self.interp.fregs);
                    self.stats.per_region[run_idx].entries += run_entries;
                    self.flush_chain_stats(&acc);
                    self.stats.tier_deopts += 1;
                    let entry = self.regions[idx].entry;
                    self.handle_alias_exception(idx, v);
                    return self.interp.step_block(&self.program, entry);
                }
            };
            acc.guest += self.regions[idx].exit_instrs[exit_id];
            let next_idx = match self.regions[idx].links[exit_id] {
                ChainLink::Region(j) => j as usize,
                ChainLink::Unresolved => {
                    let Some(target) = self.regions[idx].vliw.exits[exit_id].guest_block else {
                        self.fstate
                            .store_guest(&mut self.interp.regs, &mut self.interp.fregs);
                        self.stats.per_region[run_idx].entries += run_entries;
                        self.flush_chain_stats(&acc);
                        return None;
                    };
                    acc.lookups += 1;
                    match self.cached_region(BlockId(target)) {
                        Some(j) => {
                            self.regions[idx].links[exit_id] = ChainLink::Region(j as u32);
                            if self.config.verify_translations {
                                // Prove the hand-off before the link is
                                // ever followed (observation mode).
                                self.chain_check_link(idx, j);
                            }
                            j
                        }
                        None => {
                            self.fstate
                                .store_guest(&mut self.interp.regs, &mut self.interp.fregs);
                            self.stats.per_region[run_idx].entries += run_entries;
                            self.flush_chain_stats(&acc);
                            return Some(BlockId(target));
                        }
                    }
                }
            };
            if guest_base + acc.guest >= budget {
                self.fstate
                    .store_guest(&mut self.interp.regs, &mut self.interp.fregs);
                self.stats.per_region[run_idx].entries += run_entries;
                self.flush_chain_stats(&acc);
                return Some(self.regions[next_idx].entry);
            }
            acc.follows += 1;
            if next_idx != run_idx {
                self.stats.per_region[run_idx].entries += run_entries;
                run_idx = next_idx;
                run_entries = 0;
            }
            idx = next_idx;
        }
    }

    /// Tier-down sample: replays the region entry the fast tier just ran
    /// on the cycle simulator, starting from the identical pre-state
    /// (`self.vstate` and `sim_mem` were captured before the fast run),
    /// and bit-compares outcome, both register files and memory. The fast
    /// result stays canonical either way; a disagreement only increments
    /// [`SystemStats::tier_sample_mismatches`] for the oracles to flag.
    fn tier_down_sample(&mut self, idx: usize, fast_outcome: &RegionOutcome, sim_mem: &mut Memory) {
        let region = &self.regions[idx];
        let (sim_outcome, sim_stats) = self
            .sim
            .run_region_resident(&region.vliw, region.write_mask, &mut self.vstate, sim_mem)
            .expect("translated region is well formed");
        self.stats.tier_samples += 1;
        self.stats.tier_sampled_cycles += sim_stats.cycles;
        let regs_agree = self.fstate.regs == self.vstate.regs
            && self
                .fstate
                .fregs
                .iter()
                .zip(self.vstate.fregs.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if sim_outcome != *fast_outcome || !regs_agree || *sim_mem != self.interp.mem {
            self.stats.tier_sample_mismatches += 1;
        }
    }

    /// Folds one chain's accumulated statistics into the system totals
    /// (the per-region entry counters are flushed separately, on region
    /// switch, by [`Self::run_region_chained`]).
    fn flush_chain_stats(&mut self, acc: &ChainAccum) {
        self.stats.region_guest_instrs += acc.guest;
        self.stats.vliw_cycles += acc.cycles;
        self.stats.region_mem_ops += acc.mem_ops;
        self.stats.alias_entries_scanned += acc.scanned;
        self.stats.region_entries += acc.entries;
        self.stats.chain_follows += acc.follows;
        self.stats.dispatch_lookups += acc.lookups;
        self.stats.async_stale_entries += acc.stale;
    }

    /// Blacklists the faulting pair of a rolled-back region, then
    /// retranslates it conservatively — or abandons it to interpretation
    /// when blacklisting cannot converge. Both paths invalidate the chain
    /// links into the region.
    fn handle_alias_exception(&mut self, idx: usize, v: AliasViolation) {
        self.stats.rollbacks += 1;
        self.regions[idx].rollbacks += 1;
        self.stats.per_region[idx].rollbacks += 1;
        let a = self.regions[idx].tag_origin[v.checker_tag as usize];
        let b = self.regions[idx].tag_origin[v.producer_tag as usize];
        let fresh = self.blacklist.insert(a, b);
        if fresh {
            // Every in-flight job snapshotted the previous generation;
            // their results now re-optimize before publishing.
            self.blacklist_gen += 1;
        }
        if !fresh || self.regions[idx].rollbacks > self.config.max_rollbacks_per_region {
            // Livelock backstop: abandon translation for this block.
            let entry = self.regions[idx].entry;
            self.cache[entry.index()] = NO_REGION;
            self.naive_cache.remove(&entry);
            self.abandoned[entry.index()] = true;
            self.unlink_into(idx);
        } else if self.service.is_some() {
            // Async deopt: unpublish the faulting region (so the stale
            // code cannot be re-entered and re-fault while the fix is in
            // flight) and queue the conservative retranslation. The guest
            // interprets this block until the new code publishes.
            self.unpublish(idx);
            self.submit_retranslate(idx);
        } else {
            self.retranslate(idx);
        }
    }
}

#[cfg(test)]
mod tests {
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
        b.iconst(entry, Reg(3), 0x1000);
        b.iconst(entry, Reg(5), 0x2000);
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

    /// Loop where the "unlikely" aliasing pair truly aliases: forces an
    /// alias exception, a rollback and a conservative re-translation.
    fn truly_aliasing_loop(iters: i64) -> Program {
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
        let p = truly_aliasing_loop(400);
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
        // always faults: execution must still complete correctly.
        let p = truly_aliasing_loop(300);
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

    /// Runs `p` to completion under the given dispatch mode.
    fn run_mode(p: &Program, mode: DispatchMode) -> DynOptSystem {
        let mut cfg = SystemConfig::with_opt(OptConfig::smarq(64));
        cfg.dispatch = mode;
        let mut sys = DynOptSystem::new(p.clone(), cfg);
        assert_eq!(sys.run_to_completion(u64::MAX), StopReason::Halted);
        sys
    }

    /// The chained dispatcher must be bit-exact with the naive oracle and
    /// must actually bypass the dispatcher on the hot self-loop.
    #[test]
    fn chained_dispatch_is_bit_exact_and_skips_the_dispatcher() {
        for p in [
            accumulating_loop(800),
            store_shadowed_loop(800),
            truly_aliasing_loop(400),
            two_phase_program(400),
        ] {
            let expected = reference_state(&p);
            let naive = run_mode(&p, DispatchMode::Naive);
            let chained = run_mode(&p, DispatchMode::Chained);
            assert_eq!(naive.interp().arch_state(), expected);
            assert_eq!(chained.interp().arch_state(), expected);
            assert_eq!(
                naive.stats().guest_instrs(),
                chained.stats().guest_instrs(),
                "batched stat syncing must not change totals"
            );
            assert_eq!(
                naive.stats().region_entries,
                chained.stats().region_entries,
                "chaining changes dispatch, not execution"
            );
            assert_eq!(naive.stats().chain_follows, 0, "naive mode never chains");
            assert!(
                chained.stats().dispatch_lookups < naive.stats().dispatch_lookups,
                "chaining must shed dispatcher work: {} !< {}",
                chained.stats().dispatch_lookups,
                naive.stats().dispatch_lookups
            );
        }
    }

    /// A hot self-loop region must chain to itself: almost every region
    /// entry after warm-up follows the memoized link instead of probing
    /// the translation cache.
    #[test]
    fn self_loop_chains_without_redispatch() {
        let p = accumulating_loop(2000);
        let sys = run_mode(&p, DispatchMode::Chained);
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
    /// self-link case) and stay bit-exact with the naive oracle.
    #[test]
    fn distinct_regions_chain_region_to_region() {
        let p = ping_pong_program(300, 8);
        let expected = reference_state(&p);
        let naive = run_mode(&p, DispatchMode::Naive);
        let chained = run_mode(&p, DispatchMode::Chained);
        assert_eq!(naive.interp().arch_state(), expected);
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

    /// Loop that truly aliases only after a warm phase: the exception
    /// fires *inside a chained region* (entered over a memoized link).
    /// The rollback must surface the resident state exactly, the chain
    /// links must be invalidated, and blacklisting must re-converge.
    fn late_aliasing_loop(iters: i64, flip: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let entry = b.block();
        let body = b.block();
        let done = b.block();
        b.iconst(entry, Reg(1), 0);
        b.iconst(entry, Reg(2), iters);
        b.iconst(entry, Reg(3), 0x1000);
        b.iconst(entry, Reg(7), flip);
        b.iconst(entry, Reg(8), 0x1000);
        b.jump(entry, body);
        // r5 = 0x1000 + (i < flip) * 0x1000: distinct address while warm,
        // then exactly the store's address.
        b.alu(body, AluOp::Slt, Reg(6), Reg(1), Reg(7));
        b.alu(body, AluOp::Mul, Reg(6), Reg(6), Reg(8));
        b.alu(body, AluOp::Add, Reg(5), Reg(3), Reg(6));
        b.st(body, Reg(1), Reg(3), 0);
        b.ld(body, Reg(4), Reg(5), 0); // may-alias; truly aliases at i >= flip
        b.alu_imm(body, AluOp::Add, Reg(9), Reg(4), 0);
        b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, done);
        b.halt(done);
        b.finish(entry)
    }

    #[test]
    fn alias_exception_inside_chained_region_unlinks_and_reconverges() {
        let p = late_aliasing_loop(500, 250);
        let expected = reference_state(&p);
        let sys = run_mode(&p, DispatchMode::Chained);
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
        // And the whole scenario is bit-exact with the naive oracle.
        let naive = run_mode(&p, DispatchMode::Naive);
        assert_eq!(naive.interp().arch_state(), expected);
        assert_eq!(naive.stats().guest_instrs(), s.guest_instrs());
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
        cfg.exec_tier = ExecTier::Functional;
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
            let chained = run_mode(&p, DispatchMode::Chained);
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
    /// state there and accrues no modeled region cycles.
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
        assert_eq!(s.vliw_cycles, 0, "no modeled cycles on the fast tier");
        assert!(
            s.chain_follows >= s.region_entries - 2,
            "the functional dispatcher chains like the cycle-sim one"
        );
        // Work counters track the cycle tier exactly.
        let chained = run_mode(&accumulating_loop(2000), DispatchMode::Chained);
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
        for p in [truly_aliasing_loop(400), late_aliasing_loop(500, 250)] {
            let expected = reference_state(&p);
            let sys = run_functional(&p, 16);
            let s = sys.stats();
            assert_eq!(sys.interp().arch_state(), expected, "deopt state exact");
            assert!(s.tier_deopts >= 1, "true aliasing must deopt");
            assert_eq!(s.tier_deopts, s.rollbacks);
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
        let p = truly_aliasing_loop(300);
        let expected = reference_state(&p);
        let mut cfg = SystemConfig::with_opt(OptConfig::smarq(64));
        cfg.exec_tier = ExecTier::Functional;
        cfg.tier_sample_interval = 16;
        cfg.max_rollbacks_per_region = 0;
        let mut sys = DynOptSystem::new(p, cfg);
        assert_eq!(sys.run_to_completion(u64::MAX), StopReason::Halted);
        assert_eq!(sys.interp().arch_state(), expected);
        assert!(sys.stats().tier_deopts >= 1);
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
    /// functional entry is replayed on the cycle simulator.
    #[test]
    fn sample_rate_one_checks_every_entry() {
        let sys = run_functional(&accumulating_loop(800), 1);
        let s = sys.stats();
        assert!(s.tier_fast_entries > 0);
        assert_eq!(s.tier_samples, s.tier_fast_entries);
        assert_eq!(s.tier_sample_mismatches, 0);
        assert!(s.tier_sampled_cycles > 0);
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
        for p in [truly_aliasing_loop(400), late_aliasing_loop(500, 250)] {
            let expected = reference_state(&p);
            let sys = run_functional(&p, 1);
            let s = sys.stats();
            assert_eq!(sys.interp().arch_state(), expected);
            assert!(s.tier_deopts >= 1, "true aliasing must deopt");
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
        for p in [truly_aliasing_loop(400), late_aliasing_loop(500, 250)] {
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
        cfg.exec_tier = ExecTier::Functional;
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
