//! The translation hub: the shared half of the runtime. Every
//! [`crate::GuestContext`] runs over one, whether it is the only guest
//! ([`crate::DynOptSystem`] owns a private hub) or one of many tenants.
//!
//! * A **sharded translation cache** keyed by ([`hash_program`], entry
//!   block): published entries are immutable [`RegionCode`]s behind
//!   `Arc`s, so guests execute shared code without synchronization. A
//!   slot is `InFlight` (claimed, the pending-job record: single-flight
//!   dedup), `Published` or `Abandoned`.
//! * The **alias blacklist with a generation counter** — one speculation
//!   failure anywhere teaches every guest, the paper's argument that the
//!   software-managed queue makes runtime feedback cheap to centralize.
//! * At most one [`TranslationExecutor`]. Without one the claiming guest
//!   runs the job inline; with one, guests install finished jobs at their
//!   dispatch-step boundaries, gated by an atomic outstanding-job count
//!   (one load per step when idle).
//!
//! Rollback rule: the faulting pair is blacklisted for all guests. A
//! repeat pair on a region optimized against the current generation, or
//! a key over its rollback budget, is abandoned; a fresh pair, or a repeat
//! pair on a region built against an older generation, is withdrawn and
//! retranslated. Queue rule: a job the executor's full queue rejects
//! withdraws its slot and un-counts the key's start, for first
//! translations and retranslations alike.
//!
//! Every publish and withdrawal bumps the `epoch`; guests compare it at
//! dispatch-step boundaries, drop pins on withdrawn regions and re-probe
//! blocks they saw pending. Executing a region built against an older
//! blacklist stays legal: the alias hardware still catches every true
//! aliasing.
//!
//! Lock order: blacklist → rollback counts → shard → executor; the
//! counter lock is a leaf.

use crate::region::RegionCode;
use crate::translate_service::{
    FinishedTranslation, JobInput, ThreadedExecutor, TranslationExecutor, TranslationJob,
};
use crate::{ExecTier, SystemConfig};
use smarq::hash::FastHasher;
use smarq::range::RegState;
use smarq_guest::{BlockId, Instr, Profile, Program, Terminator};
use smarq_ir::{FormationParams, OpOrigin};
use smarq_opt::{AliasBlacklist, OptConfig, PhaseNs};
use smarq_vliw::MachineConfig;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::mem::discriminant;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The guest-code identity the hub keys translations by: a
/// [`FastHasher`] over the entry, every instruction and terminator, and
/// the data image, with floating-point immediates hashed by their bits.
pub fn hash_program(program: &Program) -> u64 {
    let mut h = FastHasher::default();
    program.entry().hash(&mut h);
    for (_, block) in program.iter() {
        block.instrs.len().hash(&mut h);
        for i in &block.instrs {
            discriminant(i).hash(&mut h);
            match *i {
                Instr::IConst { rd, value } => (rd, value).hash(&mut h),
                Instr::Alu { op, rd, ra, rb } => (op, rd, ra, rb).hash(&mut h),
                Instr::AluImm { op, rd, ra, imm } => (op, rd, ra, imm).hash(&mut h),
                Instr::FConst { fd, value } => (fd, value.to_bits()).hash(&mut h),
                Instr::Fpu { op, fd, fa, fb } => (op, fd, fa, fb).hash(&mut h),
                Instr::ItoF { fd, ra } => (fd, ra).hash(&mut h),
                Instr::FtoI { rd, fa } => (rd, fa).hash(&mut h),
                Instr::Ld { rd: r, base, disp } | Instr::St { rs: r, base, disp } => {
                    (r, base, disp).hash(&mut h)
                }
                Instr::FLd { fd: f, base, disp } | Instr::FSt { fs: f, base, disp } => {
                    (f, base, disp).hash(&mut h)
                }
            }
        }
        discriminant(&block.term).hash(&mut h);
        match block.term {
            Terminator::Jump(t) => t.hash(&mut h),
            Terminator::Branch {
                op,
                ra,
                rb,
                taken,
                fallthrough,
            } => (op, ra, rb, taken, fallthrough).hash(&mut h),
            Terminator::Halt => {}
        }
    }
    program.data().hash(&mut h);
    h.finish()
}

/// Identity of a translated region in the hub's shared cache.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RegionKey {
    /// [`hash_program`] of the guest program.
    pub program: u64,
    /// The region's entry block within that program.
    pub entry: BlockId,
}

/// A published translation. Pointer identity is version identity: a
/// retranslation publishes a *new* `Arc`, so `Arc::ptr_eq` tells a guest
/// whether its pin is current.
pub(crate) struct SharedRegion {
    pub key: RegionKey,
    /// Kept so deopt-driven retranslation jobs are self-contained.
    pub program: Arc<Program>,
    pub code: RegionCode,
}

enum Slot {
    InFlight,
    Published(Arc<SharedRegion>),
    Abandoned,
}

/// A cache probe, or (from [`TranslationHub::request`]) the fate of the
/// first translation this call claimed and submitted.
pub(crate) enum HubProbe {
    Hit(Arc<SharedRegion>),
    Pending,
    Miss,
    Abandoned,
    Claimed(Submitted),
}

/// What became of a job handed to [`TranslationHub::submit`].
pub(crate) enum Submitted {
    /// Queued on the executor; carries the jobs now outstanding.
    Queued(usize),
    /// Rejected by the full queue; the slot was withdrawn.
    Full,
    /// No executor: the caller runs the job and installs the result.
    Inline(Box<TranslationJob>),
}

pub(crate) enum Installed {
    Published(Arc<SharedRegion>),
    /// The slot was withdrawn or already filled while the job ran.
    Conflict,
    /// The blacklist outgrew the job's snapshot: resubmit it.
    Stale(Box<FinishedTranslation>),
}

/// Hub configuration: the translation-relevant half of [`SystemConfig`]
/// plus executor sizing. Shared by every guest attached to the hub.
#[derive(Clone, Debug)]
pub struct HubConfig {
    /// Machine model.
    pub machine: MachineConfig,
    /// Optimizer configuration (hardware scheme, speculation switches,
    /// nospec ranges).
    pub opt: OptConfig,
    /// Region-formation parameters.
    pub formation: FormationParams,
    /// Self-loop unrolling factor (1 disables).
    pub unroll_factor: u32,
    /// Execution count at which a guest block becomes hot.
    pub hot_threshold: u64,
    /// Per-key rollbacks after which the key is abandoned.
    pub max_rollbacks_per_region: u64,
    /// Statically verify every (re)translated region, and chain-check
    /// every memoized region→region link.
    pub verify_translations: bool,
    /// Execution tier of the attached guests. Both values run the same
    /// path (see [`ExecTier`]); the field changes nothing.
    pub exec_tier: ExecTier,
    /// Every `tier_sample_interval`-th `FastSim` region entry of each
    /// guest is replayed on the cycle simulator (see
    /// [`SystemConfig::tier_sample_interval`]).
    pub tier_sample_interval: u64,
    /// Worker threads of [`TranslationHub::new`]'s [`ThreadedExecutor`];
    /// `0` translates inline on the requesting guest's thread.
    pub workers: u32,
    /// Bound of the executor's job queue (first translations and
    /// retranslations alike).
    pub queue_depth: u32,
    /// Shard count of the translation cache (rounded up to at least 1).
    pub shards: u32,
}

impl HubConfig {
    /// Derives a hub configuration from a [`SystemConfig`]; its nospec
    /// ranges become the optimizer's.
    pub fn from_system(cfg: &SystemConfig) -> Self {
        let mut opt = cfg.opt.clone();
        if !cfg.nospec_ranges.is_empty() {
            opt.nospec = cfg.nospec_ranges.clone();
        }
        HubConfig {
            machine: cfg.machine,
            opt,
            formation: cfg.formation,
            unroll_factor: cfg.unroll_factor,
            hot_threshold: cfg.hot_threshold,
            max_rollbacks_per_region: cfg.max_rollbacks_per_region,
            verify_translations: cfg.verify_translations,
            exec_tier: cfg.exec_tier,
            tier_sample_interval: cfg.tier_sample_interval,
            workers: cfg.translate_workers,
            queue_depth: cfg.translate_queue_depth,
            shards: 8,
        }
    }
}

/// Snapshot of the hub's counters and cache shape.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HubStats {
    /// Keys claimed for a first translation, less those whose slot a full
    /// queue withdrew: with single-flight dedup, the distinct hot regions
    /// across *all* guests, however many run the same code.
    pub translations_started: u64,
    /// Translations published into the shared cache (first translations
    /// and retranslations).
    pub translations_published: u64,
    /// Conservative retranslations requested by rollback reports.
    pub retranslations: u64,
    /// Finished results rejected and resubmitted because the blacklist
    /// generation advanced while the job ran.
    pub gen_conflicts: u64,
    /// Finished results dropped because the slot was withdrawn (abandoned
    /// or raced) while the job was in flight.
    pub publish_conflicts: u64,
    /// Requests that found a translation already in flight and subscribed
    /// instead of submitting a duplicate (single-flight dedup hits).
    pub single_flight_hits: u64,
    /// Requests answered from the published cache.
    pub probe_hits: u64,
    /// Submissions rejected by a full executor queue.
    pub queue_full: u64,
    /// Rollbacks reported by guests.
    pub rollbacks: u64,
    /// Rollback reports that lost the race to an earlier withdrawal.
    pub rollback_races: u64,
    /// Keys permanently abandoned.
    pub abandoned: u64,
    /// Regions statically verified (verify-on-emit mode).
    pub regions_verified: u64,
    /// Error-severity verify findings (0 for a correct optimizer).
    pub verify_errors: u64,
    /// Current blacklist generation.
    pub blacklist_gen: u64,
    /// Current cache epoch (publishes plus withdrawals).
    pub epoch: u64,
    /// Keys currently published.
    pub published_keys: u64,
    /// Keys currently in flight.
    pub inflight_keys: u64,
    /// Keys currently abandoned.
    pub abandoned_keys: u64,
}

type Shard = Mutex<HashMap<RegionKey, Slot>>;

fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a guest thread panicked while holding a hub lock")
}

/// The shared, thread-safe translation service (see module docs).
pub struct TranslationHub {
    pub(crate) cfg: Arc<HubConfig>,
    shards: Box<[Shard]>,
    blacklist: Mutex<Arc<AliasBlacklist>>,
    /// Bumped under the blacklist lock on every fresh pair insert.
    blacklist_gen: AtomicU64,
    /// Bumped on every publish and every withdrawal.
    epoch: AtomicU64,
    rollback_counts: Mutex<HashMap<RegionKey, u64>>,
    /// `None`: translations run inline on the requesting guest's thread.
    exec: Option<Mutex<Box<dyn TranslationExecutor>>>,
    /// The executor's outstanding-job count, stored under its lock. Read
    /// `Relaxed` as a gate only: results travel through the executor's
    /// mutex.
    outstanding: AtomicUsize,
    /// The counters; the cache-shape fields are filled in by `stats`.
    c: Mutex<HubStats>,
    /// The translation phase ledger, kept apart from the counters: it is
    /// host time, so it does not replay.
    phases: Mutex<PhaseNs>,
}

impl TranslationHub {
    /// Creates a hub; `cfg.workers ≥ 1` gives it a [`ThreadedExecutor`]
    /// with that many workers, `0` translates inline.
    pub fn new(cfg: HubConfig) -> Self {
        let (workers, depth) = (cfg.workers as usize, cfg.queue_depth as usize);
        let exec: Option<Box<dyn TranslationExecutor>> =
            (workers > 0).then(|| Box::new(ThreadedExecutor::new(workers, depth)) as _);
        Self::with_executor(cfg, exec)
    }

    /// Creates a hub whose translations run on `exec` (`None` = inline),
    /// whatever `cfg.workers` says.
    pub fn with_executor(cfg: HubConfig, exec: Option<Box<dyn TranslationExecutor>>) -> Self {
        let shards = (0..cfg.shards.max(1))
            .map(|_| Mutex::new(HashMap::new()))
            .collect();
        TranslationHub {
            cfg: Arc::new(cfg),
            shards,
            blacklist: Mutex::new(Arc::new(AliasBlacklist::new())),
            blacklist_gen: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            rollback_counts: Mutex::new(HashMap::new()),
            exec: exec.map(Mutex::new),
            outstanding: AtomicUsize::new(0),
            c: Mutex::default(),
            phases: Mutex::default(),
        }
    }

    /// Current blacklist generation (lock-free read).
    pub fn blacklist_gen(&self) -> u64 {
        self.blacklist_gen.load(Ordering::SeqCst)
    }

    /// Current cache epoch (lock-free read).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The accumulated blacklist and its generation, read together.
    pub fn blacklist(&self) -> (u64, Arc<AliasBlacklist>) {
        let bl = lock(&self.blacklist);
        (self.blacklist_gen(), Arc::clone(&bl))
    }

    fn shard(&self, key: RegionKey) -> &Shard {
        // Mix the entry index in: one guest program's regions spread
        // across shards instead of piling onto the program hash's shard.
        let h = key
            .program
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(u64::from(key.entry.0));
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Read-only probe: never claims or submits.
    pub(crate) fn probe(&self, key: RegionKey) -> HubProbe {
        Self::lookup(&lock(self.shard(key)), key)
    }

    fn lookup(shard: &HashMap<RegionKey, Slot>, key: RegionKey) -> HubProbe {
        match shard.get(&key) {
            Some(Slot::Published(r)) => HubProbe::Hit(Arc::clone(r)),
            Some(Slot::InFlight) => HubProbe::Pending,
            Some(Slot::Abandoned) => HubProbe::Abandoned,
            None => HubProbe::Miss,
        }
    }

    /// Builds a job against the current blacklist snapshot.
    pub(crate) fn job(
        &self,
        key: RegionKey,
        program: Arc<Program>,
        input: JobInput,
        entry_state: RegState,
    ) -> TranslationJob {
        let (blacklist_gen, blacklist) = self.blacklist();
        TranslationJob {
            key,
            input,
            program,
            cfg: Arc::clone(&self.cfg),
            blacklist,
            blacklist_gen,
            entry_state,
        }
    }

    /// Requests the region for `key`, translating at most once across all
    /// guests (single-flight): the first requester claims the slot and
    /// submits; every concurrent requester observes `Pending` and
    /// re-probes after the cache epoch moves.
    pub(crate) fn request(
        &self,
        key: RegionKey,
        program: &Arc<Program>,
        profile: &Profile,
        entry_state: RegState,
    ) -> HubProbe {
        let mut shard = lock(self.shard(key));
        let found = Self::lookup(&shard, key);
        self.count(|c| match found {
            HubProbe::Hit(_) => c.probe_hits += 1,
            HubProbe::Pending => c.single_flight_hits += 1,
            HubProbe::Miss => c.translations_started += 1,
            _ => {}
        });
        if !matches!(found, HubProbe::Miss) {
            return found;
        }
        shard.insert(key, Slot::InFlight);
        drop(shard);
        let input = JobInput::Form {
            profile: profile.clone(),
        };
        HubProbe::Claimed(self.submit(self.job(key, Arc::clone(program), input, entry_state)))
    }

    /// Hands a job for a claimed slot to the executor, or back to the
    /// caller when there is none (queue rule: module docs).
    pub(crate) fn submit(&self, job: TranslationJob) -> Submitted {
        let Some(exec) = &self.exec else {
            return Submitted::Inline(Box::new(job));
        };
        let key = job.key;
        {
            let mut ex = lock(exec);
            if ex.submit(job) {
                let n = ex.outstanding();
                self.outstanding.store(n, Ordering::SeqCst);
                return Submitted::Queued(n);
            }
        }
        let mut shard = lock(self.shard(key));
        if matches!(shard.get(&key), Some(Slot::InFlight)) {
            shard.remove(&key);
            self.epoch.fetch_add(1, Ordering::SeqCst);
            self.count(|c| c.translations_started -= 1);
        }
        self.count(|c| c.queue_full += 1);
        Submitted::Full
    }

    /// Resubmits a stale result; only optimization re-runs.
    pub(crate) fn resubmit(&self, fin: FinishedTranslation) -> Submitted {
        let input = JobInput::Ready(Box::new(fin.sb));
        self.submit(self.job(fin.key, fin.program, input, fin.entry_state))
    }

    /// Jobs submitted to the executor and not yet taken back (one atomic
    /// load: the guests' per-step gate).
    #[inline]
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// Takes one finished job from the executor, blocking for it when
    /// `wait` is set and a job is outstanding.
    pub(crate) fn take_finished(&self, wait: bool) -> Option<FinishedTranslation> {
        let exec = self.exec.as_ref()?;
        let mut ex = lock(exec);
        let fin = if wait {
            ex.recv_blocking()
        } else {
            ex.try_recv()
        };
        self.outstanding.store(ex.outstanding(), Ordering::SeqCst);
        fin
    }

    /// Forwards [`TranslationExecutor::compute_one`] (`false` without an
    /// executor).
    pub fn compute_one(&self) -> bool {
        self.exec.as_ref().is_some_and(|e| lock(e).compute_one())
    }

    /// Forwards [`TranslationExecutor::release_one`] (`false` without an
    /// executor).
    pub fn release_one(&self) -> bool {
        self.exec.as_ref().is_some_and(|e| lock(e).release_one())
    }

    /// Publishes a finished translation into its claimed slot. The
    /// blacklist lock is held across the swap so a publish never
    /// interleaves with a generation bump.
    pub(crate) fn install(&self, fin: FinishedTranslation) -> Installed {
        lock(&self.phases).add(&fin.phase_ns);
        let _bl = lock(&self.blacklist);
        if fin.blacklist_gen != self.blacklist_gen() {
            self.count(|c| c.gen_conflicts += 1);
            return Installed::Stale(Box::new(fin));
        }
        if let Some(diags) = &fin.diags {
            self.count(|c| c.regions_verified += 1);
            let errors = diags
                .iter()
                .filter(|d| d.severity == smarq::Severity::Error)
                .count() as u64;
            self.count(|c| c.verify_errors += errors);
        }
        let key = fin.key;
        let mut shard = lock(self.shard(key));
        if !matches!(shard.get(&key), Some(Slot::InFlight)) {
            // Abandoned, or filled by a duplicate job, while in flight.
            self.count(|c| c.publish_conflicts += 1);
            return Installed::Conflict;
        }
        let region = Arc::new(SharedRegion {
            key,
            program: Arc::clone(&fin.program),
            code: RegionCode::from_finished(fin),
        });
        shard.insert(key, Slot::Published(Arc::clone(&region)));
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.count(|c| c.translations_published += 1);
        Installed::Published(region)
    }

    /// Reports an alias-exception rollback of `region`: blacklists the pair
    /// for every guest and applies the rollback rule (module docs) if the
    /// region is still current. Returns the retranslation's submission;
    /// `None` when the key was abandoned or another guest already
    /// withdrew the region.
    pub(crate) fn report_rollback(
        &self,
        region: &Arc<SharedRegion>,
        a: OpOrigin,
        b: OpOrigin,
    ) -> Option<Submitted> {
        self.count(|c| c.rollbacks += 1);
        let key = region.key;
        let mut bl = lock(&self.blacklist);
        let fresh = Arc::make_mut(&mut bl).insert(a, b);
        if fresh {
            self.blacklist_gen.fetch_add(1, Ordering::SeqCst);
        }
        let gen = self.blacklist_gen();
        let over_budget = {
            let mut rb = lock(&self.rollback_counts);
            let n = rb.entry(key).or_insert(0);
            *n += 1;
            *n > self.cfg.max_rollbacks_per_region
        };
        let cannot_converge = !fresh && region.code.blacklist_gen == gen;
        {
            let mut shard = lock(self.shard(key));
            match shard.get(&key) {
                Some(Slot::Published(cur)) if Arc::ptr_eq(cur, region) => {}
                _ => {
                    self.count(|c| c.rollback_races += 1);
                    return None;
                }
            }
            self.epoch.fetch_add(1, Ordering::SeqCst);
            if over_budget || cannot_converge {
                shard.insert(key, Slot::Abandoned);
                self.count(|c| c.abandoned += 1);
                return None;
            }
            shard.insert(key, Slot::InFlight);
            self.count(|c| c.retranslations += 1);
        }
        // Conservative retranslation against the just-grown snapshot; the
        // superblock and entry state ride along (sound: the key pins the
        // program).
        let job = TranslationJob {
            key,
            input: JobInput::Ready(Box::new(region.code.sb.clone())),
            program: Arc::clone(&region.program),
            cfg: Arc::clone(&self.cfg),
            blacklist: Arc::clone(&bl),
            blacklist_gen: gen,
            entry_state: region.code.assumed_entry,
        };
        drop(bl);
        Some(self.submit(job))
    }

    /// Blocks until the executor has no job outstanding, installing each
    /// result (and resubmitting stale ones) — the quiesce point once
    /// guests stop. These installs count in no guest's statistics.
    pub fn drain(&self) {
        while let Some(fin) = self.take_finished(true) {
            if let Installed::Stale(fin) = self.install(fin) {
                self.resubmit(*fin);
            }
        }
    }

    fn count(&self, f: impl FnOnce(&mut HubStats)) {
        f(&mut lock(&self.c));
    }

    /// The translation phase ledger: host nanoseconds per phase, summed
    /// over every finished translation offered for publication (stale
    /// ones included). Kept out of [`HubStats`], whose counters replay
    /// exactly under one schedule seed.
    pub fn translation_phases(&self) -> PhaseNs {
        *lock(&self.phases)
    }

    /// Snapshot of the hub counters and cache shape.
    pub fn stats(&self) -> HubStats {
        let mut s = *lock(&self.c);
        for shard in self.shards.iter() {
            for slot in lock(shard).values() {
                match slot {
                    Slot::Published(_) => s.published_keys += 1,
                    Slot::InFlight => s.inflight_keys += 1,
                    Slot::Abandoned => s.abandoned_keys += 1,
                }
            }
        }
        s.blacklist_gen = self.blacklist_gen();
        s.epoch = self.epoch();
        s
    }
}
