//! The guest execution context: the runtime's one dispatch engine.
//!
//! A [`GuestContext`] is one guest's private half of the paper's Figure 1
//! loop: interpreter and profile, the resident `VliwState` regions run on,
//! the timed `FastSim` that runs every region entry, the cycle simulator
//! (which owns the alias hardware, as the paper's queue is per hardware
//! context) that replays a sample of them as the oracle, statistics, and
//! a flat cache of *pins* into a shared [`TranslationHub`]. Each dispatch
//! step interprets one block or runs one region chain; hot blocks request
//! translations from the hub, alias exceptions report their pair to it
//! and deoptimize. Under verify-on-emit the findings for every installed
//! translation and every memoized link fold into [`SystemStats`].
//!
//! At each dispatch-step boundary the context installs finished background
//! translations and, when the hub's epoch moved, drops pins on withdrawn
//! regions and severs their chain links. [`crate::DynOptSystem`] is this
//! engine over a private hub.

use crate::hub::{HubProbe, Installed, RegionKey, SharedRegion, Submitted, TranslationHub};
use crate::region::{ChainAccum, ChainLink, ABANDONED, NO_REGION, PENDING};
use crate::stats::{RegionRecord, SystemStats};
use crate::system::{RunStatus, StopReason};
use crate::translate_service::{run_translation_job, FinishedTranslation, JobInput};
use crate::HubConfig;
use smarq::{Diagnostic, RegState, Severity};
use smarq_guest::{BlockId, Interpreter, Memory, Program};
use smarq_ir::Superblock;
use smarq_opt::fastcomp::FastSim;
use smarq_opt::{
    optimize_superblock_traced_ranged, AliasBlacklist, OptTrace, Optimized, TranslationScratch,
};
use smarq_verify::{ChainRegionView, ChainReport, ProgramDataflow};
use smarq_vliw::{AliasViolation, AnyAliasHw, RegionOutcome, RegionStats, Simulator, VliwState};
use std::sync::Arc;
use std::time::Instant;

/// One slot per entry block ever pinned: the latest version seen plus
/// this guest's private chain links. Live while `cache[entry]` points at
/// it.
struct LocalRegion {
    shared: Arc<SharedRegion>,
    links: Vec<ChainLink>,
}

/// One guest: private architectural and resident state, executing
/// translations shared through a [`TranslationHub`].
pub struct GuestContext {
    id: usize,
    program: Arc<Program>,
    program_hash: u64,
    cfg: Arc<HubConfig>,
    interp: Interpreter,
    /// Guest registers, resident across a region chain.
    state: VliwState,
    /// The pre-state a tier-down sample replays on the cycle simulator.
    pre: VliwState,
    sim: Simulator,
    fast_sim: FastSim,
    /// `FastSim` entries left until the next tier-down sample (`0`:
    /// sampling disabled). A countdown keeps the divide off the hot path.
    tier_sample_countdown: u64,
    /// `cache[block.index()]`: the pinned slot index, or [`NO_REGION`],
    /// [`PENDING`] or [`ABANDONED`].
    cache: Vec<u32>,
    regions: Vec<LocalRegion>,
    /// Whole-program value-range analysis: every translation request
    /// carries its entry block's state, which the optimizer's alias
    /// relation and nospec taint read.
    dataflow: ProgramDataflow,
    /// The never-faulted analysis that seeds the chain checks, computed
    /// only when `dataflow` ran under the `SMARQ_FAULT_WIDEN_RANGE`
    /// mutation (otherwise `dataflow` is that analysis).
    reference: Option<ProgramDataflow>,
    /// The hub's blacklist as of the last stop, with its generation.
    blacklist: (u64, Arc<AliasBlacklist>),
    stats: SystemStats,
    /// Hub invalidation epoch last seen.
    seen_epoch: u64,
    cursor: Option<BlockId>,
}

impl GuestContext {
    /// Creates a context for `program`, attached to `hub` (the hub's
    /// config supplies every shared knob).
    pub fn new(id: usize, program: Program, hub: &TranslationHub) -> Self {
        let cfg = Arc::clone(&hub.cfg);
        let hw = AnyAliasHw::for_kind(cfg.opt.hw, cfg.opt.num_alias_regs);
        let sim = Simulator::new(cfg.machine, hw);
        let fast_sim = FastSim::new(cfg.opt.hw, cfg.opt.num_alias_regs);
        let mut interp = Interpreter::new();
        interp.load_data(&program);
        let num_blocks = program.num_blocks();
        let entry = program.entry();
        let program_hash = crate::hub::hash_program(&program);
        let dataflow = smarq_verify::analyze(&program);
        let reference = (cfg.verify_translations && smarq::fault::widen_range_enabled())
            .then(|| smarq_verify::analyze_reference(&program));
        GuestContext {
            id,
            program: Arc::new(program),
            program_hash,
            // 1, not the interval: the first `FastSim` entry is always
            // cross-checked.
            tier_sample_countdown: u64::from(cfg.tier_sample_interval != 0),
            cfg,
            interp,
            state: VliwState::new(),
            pre: VliwState::new(),
            sim,
            fast_sim,
            cache: vec![NO_REGION; num_blocks],
            regions: Vec::new(),
            dataflow,
            reference,
            blacklist: hub.blacklist(),
            stats: SystemStats::default(),
            seen_epoch: hub.epoch(),
            cursor: Some(entry),
        }
    }

    /// This guest's tenant id (assigned by the creator; stable).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// The guest interpreter (architectural state lives here).
    pub fn interp(&self) -> &Interpreter {
        &self.interp
    }

    /// The hub's alias blacklist as of this guest's last stop.
    pub fn blacklist(&self) -> &AliasBlacklist {
        &self.blacklist.1
    }

    /// Whether the guest program has halted.
    pub fn halted(&self) -> bool {
        self.cursor.is_none()
    }

    /// The superblock of every region this guest has installed, one per
    /// entry block in formation order (parallel to
    /// [`SystemStats::per_region`]).
    pub fn formed_superblocks(&self) -> impl Iterator<Item = &Superblock> + '_ {
        self.regions.iter().map(|r| &r.shared.code.sb)
    }

    /// The entry register state region `i` (indexed like
    /// [`SystemStats::per_region`]) was optimized against: its entry
    /// block's state in the program's dataflow. `None` when `i` is out of
    /// range.
    pub fn assumed_entry(&self, i: usize) -> Option<&RegState> {
        Some(&self.regions.get(i)?.shared.code.assumed_entry)
    }

    /// Re-derives the optimizer trace of region `i` (indexed like
    /// [`SystemStats::per_region`]) by optimizing its superblock again,
    /// under the hub's configuration, the blacklist it was translated
    /// against and the entry state it assumed; the superblock carries the
    /// pairs its profile saw aliasing. Translation keeps no trace
    /// unless verify-on-emit is on, so what only a trace answers, such as
    /// Figure 17's [`OptTrace::lower_bound`], is computed here, off the
    /// translation path. `None` when `i` is out of range or the region is
    /// stale (the blacklist grew after its last translation, so a
    /// re-optimization would not reproduce it).
    pub fn region_trace(&self, i: usize) -> Option<OptTrace> {
        self.reoptimize(i).map(|(_, trace)| trace)
    }

    /// Optimizes region `i`'s superblock (with its profiled-alias pairs)
    /// again, as [`region_trace`](Self::region_trace) describes.
    fn reoptimize(&self, i: usize) -> Option<(Optimized, OptTrace)> {
        let code = &self.regions.get(i)?.shared.code;
        if code.blacklist_gen != self.blacklist.0 {
            return None;
        }
        Some(optimize_superblock_traced_ranged(
            &code.sb,
            &self.cfg.opt,
            &self.cfg.machine,
            &self.blacklist.1,
            &mut TranslationScratch::new(),
            Some(&code.assumed_entry),
        ))
    }

    /// Runs the whole-chain static analyzer over every installed region
    /// that carries an optimizer trace (verify-on-emit retains them).
    /// `None` when no region does.
    pub fn analyze_chain(&self) -> Option<ChainReport> {
        let views: Vec<ChainRegionView<'_>> = (0..self.regions.len())
            .filter_map(|i| self.chain_view(i))
            .collect();
        (!views.is_empty()).then(|| self.analyze_views(&views, Severity::Info))
    }

    /// The chain analysis of `views`, seeded from this program's
    /// never-faulted dataflow, with the findings of severity `min` or
    /// above.
    fn analyze_views(&self, views: &[ChainRegionView<'_>], min: Severity) -> ChainReport {
        let reference = self.reference.as_ref().unwrap_or(&self.dataflow);
        smarq_verify::analyze_chain_seeded(reference, views, &self.cfg.opt.nospec, min)
    }

    fn chain_view(&self, i: usize) -> Option<ChainRegionView<'_>> {
        let code = &self.regions[i].shared.code;
        Some(ChainRegionView {
            region_id: i,
            sb: &code.sb,
            trace: code.trace.as_ref()?,
            facts: code.facts.as_ref()?,
            vliw: &code.vliw,
            write_mask: code.write_mask,
            assumed_entry: Some(code.assumed_entry),
        })
    }

    /// Runs until the guest halts or roughly `budget` guest instructions
    /// have retired. Resumes from where the previous call stopped.
    pub fn run_to_completion(&mut self, hub: &TranslationHub, budget: u64) -> StopReason {
        match self.run_bounded(hub, u64::MAX, budget) {
            RunStatus::Halted => StopReason::Halted,
            RunStatus::BudgetExhausted => StopReason::BudgetExhausted,
            RunStatus::Running => unreachable!("u64::MAX dispatch steps"),
        }
    }

    /// Runs at most `max_steps` dispatch steps (each an interpreted block
    /// or a region chain), stopping earlier on guest halt or once roughly
    /// `budget` guest instructions have retired. Finished translations
    /// and hub invalidations are picked up only at step boundaries, which
    /// keeps every install atomic with respect to this guest.
    pub fn run_bounded(&mut self, hub: &TranslationHub, max_steps: u64, budget: u64) -> RunStatus {
        let Some(mut cur) = self.cursor else {
            return RunStatus::Halted;
        };
        let mut steps = 0u64;
        let status = loop {
            if steps == max_steps {
                break RunStatus::Running;
            }
            steps += 1;
            if hub.outstanding() != 0 {
                while let Some(fin) = hub.take_finished(false) {
                    self.receive(hub, fin);
                }
            }
            let epoch = hub.epoch();
            if epoch != self.seen_epoch {
                self.revalidate(hub);
                self.seen_epoch = epoch;
            }
            if self.live_guest_instrs() >= budget {
                break RunStatus::BudgetExhausted;
            }
            match self.step(hub, cur, budget) {
                Some(b) => cur = b,
                None => break RunStatus::Halted,
            }
        };
        self.cursor = (status != RunStatus::Halted).then_some(cur);
        self.sync_interp_stats();
        if hub.blacklist_gen() != self.blacklist.0 {
            self.blacklist = hub.blacklist();
        }
        status
    }

    /// Blocks until the hub's executor has no job outstanding, installing
    /// each result as at a dispatch boundary.
    pub fn drain(&mut self, hub: &TranslationHub) {
        while let Some(fin) = hub.take_finished(true) {
            self.receive(hub, fin);
        }
    }

    /// Test hook: submits a duplicate first translation of `entry`,
    /// bypassing single-flight dedup.
    pub(crate) fn debug_submit(&mut self, hub: &TranslationHub, entry: BlockId) {
        let input = JobInput::Form {
            profile: self.interp.profile().clone(),
        };
        let key = self.key(entry);
        let entry_state = *self.dataflow.entry_state(entry);
        let s = hub.submit(hub.job(key, Arc::clone(&self.program), input, entry_state));
        self.submitted(hub, key, s);
    }

    #[inline]
    fn live_guest_instrs(&self) -> u64 {
        self.interp.executed_instrs() + self.stats.region_guest_instrs
    }

    fn sync_interp_stats(&mut self) {
        self.stats.interp_instrs = self.interp.executed_instrs();
        self.stats.interp_cycles =
            self.stats.interp_instrs * self.cfg.machine.interp_cycles_per_instr;
    }

    fn key(&self, entry: BlockId) -> RegionKey {
        RegionKey {
            program: self.program_hash,
            entry,
        }
    }

    #[inline]
    fn cached_region(&self, b: BlockId) -> Option<usize> {
        match self.cache.get(b.index()) {
            Some(&idx) if idx < ABANDONED => Some(idx as usize),
            _ => None,
        }
    }

    fn step(&mut self, hub: &TranslationHub, cur: BlockId, budget: u64) -> Option<BlockId> {
        self.stats.dispatch_lookups += 1;
        if let Some(idx) = self.cached_region(cur) {
            return self.run_chain(hub, idx, budget);
        }
        let next = self.interp.step_block_recording(&self.program, cur);
        self.maybe_request(hub, cur);
        next
    }

    /// Hot-block detection after an interpreted block. A pending block is
    /// re-probed once the hub's cache changes (revalidation clears the
    /// mark).
    fn maybe_request(&mut self, hub: &TranslationHub, cur: BlockId) {
        if self.interp.profile().block_count(cur) < self.cfg.hot_threshold
            || self.cache[cur.index()] != NO_REGION
        {
            return;
        }
        let t0 = Instant::now();
        let key = self.key(cur);
        let entry_state = *self.dataflow.entry_state(cur);
        match hub.request(key, &self.program, self.interp.profile(), entry_state) {
            HubProbe::Hit(r) => self.pin(r),
            HubProbe::Abandoned => self.cache[cur.index()] = ABANDONED,
            HubProbe::Pending => self.cache[cur.index()] = PENDING,
            HubProbe::Miss => {}
            HubProbe::Claimed(s) => self.submitted_since(hub, key, s, t0),
        }
    }

    /// Accounts a submission that started at `t0`; a background one
    /// charges its bookkeeping to the critical-path stall clock.
    fn submitted_since(&mut self, hub: &TranslationHub, key: RegionKey, s: Submitted, t0: Instant) {
        let background = !matches!(s, Submitted::Inline(_));
        self.submitted(hub, key, s);
        if background {
            self.stats.async_stall_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Accounts an async enqueue (marking this guest's block pending) or
    /// full-queue rejection, or runs an inline translation and installs it
    /// on the spot.
    fn submitted(&mut self, hub: &TranslationHub, key: RegionKey, s: Submitted) {
        match s {
            Submitted::Queued(depth) => {
                self.stats.async_enqueued += 1;
                self.stats.async_queue_peak = self.stats.async_queue_peak.max(depth as u64);
                let b = key.entry.index();
                if key.program == self.program_hash && self.cache[b] == NO_REGION {
                    self.cache[b] = PENDING;
                }
            }
            Submitted::Full => self.stats.async_queue_full += 1,
            Submitted::Inline(job) => {
                let fin = run_translation_job(*job);
                self.stats.translation_ns += fin.translate_ns;
                self.stats.scheduling_ns += fin.opt.stats.sched_ns;
                self.install(hub, fin, false);
            }
        }
    }

    /// Installs one translation an executor finished.
    fn receive(&mut self, hub: &TranslationHub, fin: FinishedTranslation) {
        self.stats.async_worker_ns += fin.worker_ns;
        let t0 = Instant::now();
        self.install(hub, fin, true);
        self.stats.async_stall_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Publishes a finished translation through the hub and pins it when
    /// it is this guest's code; a stale result is resubmitted. Results an
    /// executor produced (`background`) count in the async counters.
    fn install(&mut self, hub: &TranslationHub, mut fin: FinishedTranslation, background: bool) {
        self.stats.translation_phases.add(&fin.phase_ns);
        let diags = fin.diags.take();
        match hub.install(fin) {
            Installed::Published(r) => {
                self.fold_verify(diags);
                self.stats.async_published += u64::from(background);
                if r.key.program == self.program_hash {
                    self.pin(r);
                }
            }
            Installed::Conflict => {
                self.fold_verify(diags);
                self.stats.async_publish_conflicts += u64::from(background);
            }
            Installed::Stale(fin) => {
                self.stats.async_publish_conflicts += u64::from(background);
                let key = fin.key;
                let s = hub.resubmit(*fin);
                self.submitted(hub, key, s);
            }
        }
    }

    /// Folds verify-on-emit findings into [`SystemStats`] (observation
    /// only: a bad region still runs).
    fn fold_verify(&mut self, diags: Option<Vec<Diagnostic>>) {
        if let Some(diags) = diags {
            self.stats.regions_verified += 1;
            for d in diags {
                if d.severity == Severity::Error {
                    self.stats.verify_errors += 1;
                }
                self.stats.keep_diagnostic(d);
            }
        }
    }

    /// Pins a published region. The first pin of an entry forms a region;
    /// a newer version in an existing slot counts as a retranslation.
    fn pin(&mut self, r: Arc<SharedRegion>) {
        let entry = r.code.entry;
        let links = vec![ChainLink::Unresolved; r.code.vliw.exits.len()];
        let idx = match self
            .regions
            .iter()
            .position(|lr| lr.shared.code.entry == entry)
        {
            Some(idx) => {
                self.unpin(idx);
                if !Arc::ptr_eq(&self.regions[idx].shared, &r) {
                    self.stats.retranslations += 1;
                    let rec = &mut self.stats.per_region[idx];
                    rec.retranslations += 1;
                    rec.opt = r.code.opt_stats;
                }
                self.regions[idx] = LocalRegion { shared: r, links };
                idx
            }
            None => {
                self.stats.regions_formed += 1;
                self.stats.per_region.push(RegionRecord {
                    entry,
                    opt: r.code.opt_stats,
                    entries: 0,
                    rollbacks: 0,
                    retranslations: 0,
                });
                self.regions.push(LocalRegion { shared: r, links });
                self.regions.len() - 1
            }
        };
        self.cache[entry.index()] = idx as u32;
    }

    /// Unpins slot `idx` if it is live, dropping its own links and every
    /// link into it, so chains never enter withdrawn code.
    fn unpin(&mut self, idx: usize) {
        let entry = self.regions[idx].shared.code.entry;
        if self.cache[entry.index()] != idx as u32 {
            return;
        }
        self.cache[entry.index()] = NO_REGION;
        let stale = ChainLink::Region(idx as u32);
        for (i, r) in self.regions.iter_mut().enumerate() {
            for l in &mut r.links {
                if *l != ChainLink::Unresolved && (i == idx || *l == stale) {
                    *l = ChainLink::Unresolved;
                    self.stats.chain_unlinks += 1;
                }
            }
        }
    }

    /// After the hub's cache changed: drops every pin the hub has
    /// withdrawn or replaced (pointer identity decides: a retranslation
    /// publishes a *new* `Arc`) and clears pending marks so those blocks
    /// are probed again.
    fn revalidate(&mut self, hub: &TranslationHub) {
        for b in 0..self.cache.len() {
            let idx = self.cache[b];
            if idx == PENDING {
                self.cache[b] = NO_REGION;
            } else if idx < ABANDONED {
                let shared = &self.regions[idx as usize].shared;
                match hub.probe(shared.key) {
                    HubProbe::Hit(cur) if Arc::ptr_eq(&cur, shared) => {}
                    probe => {
                        self.unpin(idx as usize);
                        if matches!(probe, HubProbe::Abandoned) {
                            self.cache[b] = ABANDONED;
                        }
                    }
                }
            }
        }
    }

    /// Ends a chain: surfaces the resident state and folds its statistics.
    fn end_chain(&mut self, acc: &ChainAccum, run_idx: usize, run_entries: u64) {
        self.state
            .store_guest(&mut self.interp.regs, &mut self.interp.fregs);
        self.stats.per_region[run_idx].entries += run_entries;
        self.stats.region_guest_instrs += acc.guest;
        self.stats.vliw_cycles += acc.cycles;
        self.stats.region_mem_ops += acc.mem_ops;
        self.stats.alias_entries_scanned += acc.scanned;
        self.stats.region_entries += acc.entries;
        self.stats.tier_fast_entries += acc.entries;
        self.stats.chain_follows += acc.follows;
        self.stats.dispatch_lookups += acc.lookups;
        self.stats.async_stale_entries += acc.stale;
        self.stats.guard_misses = self.fast_sim.guard_misses();
    }

    /// Whether this region entry is a tier-down sample. The countdown
    /// starts at 1, so the first entry always is; `0` means sampling is
    /// disabled and stays disabled.
    #[inline]
    fn sample_due(&mut self) -> bool {
        match self.tier_sample_countdown {
            0 => false,
            1 => {
                self.tier_sample_countdown = self.cfg.tier_sample_interval;
                true
            }
            _ => {
                self.tier_sample_countdown -= 1;
                false
            }
        }
    }

    /// The region-chain loop: runs each entry on the timed `FastSim`,
    /// replaying the due tier-down samples on the cycle simulator. Follows
    /// memoized links without re-entering the dispatcher, guest state
    /// resident in `self.state`, statistics folded once per chain.
    fn run_chain(&mut self, hub: &TranslationHub, start: usize, budget: u64) -> Option<BlockId> {
        let verify = self.cfg.verify_translations;
        self.state.load_guest(&self.interp.regs, &self.interp.fregs);
        let guest_base = self.live_guest_instrs();
        let hub_gen = hub.blacklist_gen();
        let mut acc = ChainAccum::default();
        let mut idx = start;
        let mut run_idx = idx;
        let mut run_entries = 0u64;
        loop {
            if self.regions[idx].shared.code.blacklist_gen != hub_gen {
                acc.stale += 1;
            }
            // Decided before the fast run: the oracle replays from the
            // pre-state.
            let pre_mem = self.sample_due().then(|| {
                self.pre.regs = self.state.regs;
                self.pre.fregs = self.state.fregs;
                self.interp.mem.clone()
            });
            let code = &self.regions[idx].shared.code;
            let (outcome, rstats) =
                self.fast_sim
                    .run_region(&code.fast, &mut self.state, &mut self.interp.mem);
            if let Some(mut mem) = pre_mem {
                self.tier_down_sample(idx, &outcome, &rstats, &mut mem);
            }
            acc.cycles += rstats.cycles;
            acc.mem_ops += rstats.mem_ops;
            acc.scanned += rstats.entries_scanned;
            acc.entries += 1;
            run_entries += 1;
            let exit_id = match outcome {
                RegionOutcome::Exited { exit_id } => exit_id as usize,
                RegionOutcome::AliasException(v) => {
                    // `FastSim` rolled the resident state back to this
                    // region's entry — even mid-chain, the checkpoint is
                    // exactly the pre-region guest state.
                    self.end_chain(&acc, run_idx, run_entries);
                    return self.deopt(hub, idx, v);
                }
            };
            let code = &self.regions[idx].shared.code;
            acc.guest += code.exit_instrs[exit_id];
            let next_idx = match self.regions[idx].links[exit_id] {
                ChainLink::Region(j) => j as usize,
                ChainLink::Unresolved => {
                    let Some(target) = code.vliw.exits[exit_id].guest_block else {
                        // Guest halt.
                        self.end_chain(&acc, run_idx, run_entries);
                        return None;
                    };
                    acc.lookups += 1;
                    let Some(j) = self.cached_region(BlockId(target)) else {
                        // Not pinned (yet): never memoized, so a later
                        // publish of the target is picked up here.
                        self.end_chain(&acc, run_idx, run_entries);
                        return Some(BlockId(target));
                    };
                    self.regions[idx].links[exit_id] = ChainLink::Region(j as u32);
                    if verify {
                        // Prove the hand-off before the link is ever
                        // followed (observation mode).
                        self.chain_check_link(idx, j);
                    }
                    j
                }
            };
            // Chain boundary: stop following links once the budget is
            // spent so the caller can observe it.
            if guest_base + acc.guest >= budget {
                self.end_chain(&acc, run_idx, run_entries);
                return Some(self.regions[next_idx].shared.code.entry);
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

    /// Tier-down sample: replays the entry `FastSim` just ran on the
    /// cycle simulator from the same pre-state (`self.pre`, `sim_mem`)
    /// and bit-compares outcome, registers, memory and every region
    /// statistic (entries scanned pins the compiled-out queue's static
    /// examined counts, cycles and bundles the compiled-out timing); a
    /// disagreement counts in [`SystemStats::tier_sample_mismatches`].
    fn tier_down_sample(
        &mut self,
        idx: usize,
        fast_outcome: &RegionOutcome,
        fast_stats: &RegionStats,
        sim_mem: &mut Memory,
    ) {
        let code = &self.regions[idx].shared.code;
        let (sim_outcome, sim_stats) = self
            .sim
            .run_region_resident(&code.vliw, code.write_mask, &mut self.pre, sim_mem)
            .expect("translated region is well formed");
        self.stats.tier_samples += 1;
        self.stats.tier_sampled_cycles += sim_stats.cycles;
        let regs_agree = self.state.regs == self.pre.regs
            && self
                .state
                .fregs
                .iter()
                .zip(self.pre.fregs.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if sim_outcome != *fast_outcome
            || !regs_agree
            || sim_stats != *fast_stats
            || *sim_mem != self.interp.mem
        {
            self.stats.tier_sample_mismatches += 1;
        }
    }

    /// Link-time chain check (verify-on-emit): proves the hand-off
    /// obligations of the two regions and folds the findings into
    /// [`SystemStats`]. Observation only.
    fn chain_check_link(&mut self, from: usize, to: usize) {
        let ids: &[usize] = if from == to { &[from] } else { &[from, to] };
        let Some(views) = ids
            .iter()
            .map(|&i| self.chain_view(i))
            .collect::<Option<Vec<_>>>()
        else {
            return;
        };
        // Once the kept list is full no warning can be kept again: build
        // only the errors, which still count and can displace a warning.
        let min = if self.stats.keeps_non_errors() {
            Severity::Info
        } else {
            Severity::Error
        };
        let report = self.analyze_views(&views, min);
        self.stats.chain_checks += 1;
        for d in report.diagnostics {
            if d.severity == Severity::Error {
                self.stats.chain_errors += 1;
            }
            self.stats.keep_diagnostic(d);
        }
    }

    /// Alias-exception deopt: unpin the region, report the pair to the hub
    /// (blacklist, then retranslate or abandon), and interpret one block
    /// from the region entry. An inline retranslation is pinned before
    /// that block runs, so one block is interpreted per rollback.
    fn deopt(&mut self, hub: &TranslationHub, idx: usize, v: AliasViolation) -> Option<BlockId> {
        self.stats.rollbacks += 1;
        self.stats.per_region[idx].rollbacks += 1;
        let shared = Arc::clone(&self.regions[idx].shared);
        let entry = shared.code.entry;
        let a = shared.code.tag_origin[v.checker_tag as usize];
        let b = shared.code.tag_origin[v.producer_tag as usize];
        self.unpin(idx);
        let t0 = Instant::now();
        // An abandoned key is learnt from the hub at the next request.
        if let Some(s) = hub.report_rollback(&shared, a, b) {
            self.submitted_since(hub, shared.key, s, t0);
        }
        self.interp.step_block_recording(&self.program, entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;
    use smarq::NospecRanges;
    use smarq_verify::RegionFacts;

    /// The 14 stand-ins and the regression corpus.
    fn programs() -> Vec<(String, Program)> {
        let mut out: Vec<(String, Program)> = smarq_workloads::WORKLOAD_NAMES
            .iter()
            .map(|&n| {
                let w = smarq_workloads::scaled(n, 300).expect("stand-in exists");
                (n.to_string(), w.program)
            })
            .collect();
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .expect("corpus directory")
            .map(|e| e.expect("corpus entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "s"))
            .collect();
        paths.sort();
        assert!(paths.len() >= 3, "corpus too small");
        for path in paths {
            let src = std::fs::read_to_string(&path).expect("corpus file");
            let program = smarq_guest::parse_program(&src).expect("corpus parses");
            out.push((path.display().to_string(), program));
        }
        out
    }

    /// Every region keeps the facts verify-on-emit derived for its trace,
    /// and the chain analysis that reads them, seeded from the context's
    /// one reference dataflow, reports exactly what the unseeded analyzer
    /// reports over freshly derived facts: same findings, same order.
    #[test]
    fn retained_facts_and_seeded_chain_analysis_match_fresh_derivations() {
        let nospec = NospecRanges::parse("0x1000..0x1040").expect("range parses");
        let mut regions = 0;
        for (name, program) in programs() {
            for ranges in [NospecRanges::none(), nospec.clone()] {
                let mut cfg = SystemConfig {
                    hot_threshold: 10,
                    verify_translations: true,
                    ..SystemConfig::default()
                };
                cfg.nospec_ranges = ranges;
                let hub = TranslationHub::with_executor(HubConfig::from_system(&cfg), None);
                let mut ctx = GuestContext::new(0, program.clone(), &hub);
                ctx.run_to_completion(&hub, 2_000_000);
                let views: Vec<ChainRegionView<'_>> = (0..ctx.regions.len())
                    .map(|i| ctx.chain_view(i).expect("verify-on-emit keeps facts"))
                    .collect();
                let fresh: Vec<RegionFacts> = views
                    .iter()
                    .map(|v| RegionFacts::derive(&v.trace.spec, &v.trace.mem_schedule))
                    .collect();
                for (v, f) in views.iter().zip(&fresh) {
                    assert_eq!(v.facts, f, "{name}: region {}", v.region_id);
                    regions += 1;
                }
                let fresh_views: Vec<ChainRegionView<'_>> = views
                    .iter()
                    .zip(&fresh)
                    .map(|(v, f)| ChainRegionView { facts: f, ..*v })
                    .collect();
                let Some(seeded) = ctx.analyze_chain() else {
                    continue;
                };
                let fresh =
                    smarq_verify::analyze_chain(&ctx.program, &fresh_views, &cfg.nospec_ranges);
                assert_eq!(seeded.diagnostics, fresh.diagnostics, "{name}");
                assert_eq!(seeded.entry_states, fresh.entry_states, "{name}");
            }
        }
        assert!(regions > 20, "only {regions} regions formed");
    }
    /// Re-optimizing a region from what it was translated with, as
    /// `region_trace` does, reproduces the installed `VliwProgram` byte
    /// for byte and the trace verify-on-emit kept, for regions whose
    /// superblocks carry profiled-alias pairs (equake's strand, a loop
    /// that aliases from its first iteration) under every scheme.
    #[test]
    fn region_trace_reproduces_regions_with_profiled_pairs() {
        let programs = [
            crate::system::tests::truly_aliasing_loop(300),
            smarq_workloads::scaled("equake", 300)
                .expect("stand-in exists")
                .program,
        ];
        let schemes = [
            smarq_opt::OptConfig::smarq(64),
            smarq_opt::OptConfig::efficeon(),
            smarq_opt::OptConfig::alat(),
        ];
        let mut profiled = 0;
        for program in programs {
            for opt in schemes.clone() {
                let mut cfg = SystemConfig::with_opt(opt);
                cfg.hot_threshold = 10;
                cfg.verify_translations = true;
                let hub = TranslationHub::with_executor(HubConfig::from_system(&cfg), None);
                let mut ctx = GuestContext::new(0, program.clone(), &hub);
                ctx.run_to_completion(&hub, 2_000_000);
                assert!(!ctx.regions.is_empty());
                for i in 0..ctx.regions.len() {
                    let code = &ctx.regions[i].shared.code;
                    profiled += usize::from(!code.sb.profiled_aliases.is_empty());
                    let (opt, trace) = ctx.reoptimize(i).expect("no rollback, no stale region");
                    assert_eq!(opt.vliw.to_string(), code.vliw.to_string());
                    assert_eq!(opt.vliw, code.vliw);
                    let kept = code.trace.as_ref().expect("verify-on-emit keeps the trace");
                    assert_eq!(format!("{trace:?}"), format!("{kept:?}"));
                    let derived = ctx.region_trace(i).expect("same region");
                    assert_eq!(format!("{derived:?}"), format!("{kept:?}"));
                }
            }
        }
        assert!(
            profiled >= 6,
            "only {profiled} regions carry profiled pairs"
        );
    }
}
