//! Translation jobs and the executors that run them.
//!
//! The paper's §7 overhead argument only holds if region formation,
//! optimization and verification can stay off the guest's critical path.
//! A [`TranslationJob`] captures everything a translation needs (program,
//! profile snapshot or formed superblock, hub configuration, blacklist
//! snapshot), [`run_translation_job`] executes one job to a
//! [`FinishedTranslation`], and a [`TranslationExecutor`] decides *where*
//! and *when* jobs run:
//!
//! * [`ThreadedExecutor`] — the production shape: a bounded job queue
//!   drained by a pool of worker threads, results returned over a channel.
//! * [`StepExecutor`] — a single-threaded, step-controlled double for the
//!   deterministic race-interleaving harness: jobs advance through
//!   *queued → computed → released* only when a test driver (or a seeded
//!   schedule) says so, which lets tests enumerate and replay
//!   publish-vs-execute-vs-unlink interleavings exactly.
//!
//! A [`crate::TranslationHub`] owns at most one executor (none means
//! inline translation); guests install finished jobs at their
//! dispatch-step boundaries and never block on a worker.

use crate::hub::{HubConfig, RegionKey};
use smarq::range::RegState;
use smarq::Diagnostic;
use smarq_guest::{Profile, Program};
use smarq_ir::{form_superblock, unroll_superblock, Superblock};
use smarq_opt::fastcomp::{self, FastProgram};
use smarq_opt::{
    optimize_superblock_traced_ranged, AliasBlacklist, Lap, OptTrace, Optimized, Phase, PhaseNs,
    TranslationScratch,
};
use smarq_verify::RegionFacts;
use std::collections::VecDeque;
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

/// Where the job's superblock comes from.
#[derive(Clone, Debug)]
pub enum JobInput {
    /// Form it on the worker from a profile snapshot (first translations:
    /// formation itself moves off the critical path).
    Form {
        /// Execution profile snapshotted at the hot trigger.
        profile: Profile,
    },
    /// Already formed (retranslations reuse the region's superblock;
    /// stale-generation resubmits reuse the one the first attempt formed).
    Ready(Box<Superblock>),
}

/// A self-contained translation request, snapshotted at submit time so
/// guests share nothing mutable with the workers.
#[derive(Clone, Debug)]
pub struct TranslationJob {
    /// The region the result is published under.
    pub key: RegionKey,
    /// Superblock source (profile snapshot or pre-formed).
    pub input: JobInput,
    /// The guest program (shared, immutable).
    pub program: Arc<Program>,
    /// Formation, optimizer, machine and verify settings of the hub.
    pub cfg: Arc<HubConfig>,
    /// Alias-blacklist snapshot the optimization runs against.
    pub blacklist: Arc<AliasBlacklist>,
    /// Generation of that snapshot; a result older than the hub's is
    /// resubmitted.
    pub blacklist_gen: u64,
    /// Entry register state from the whole-program range analysis: the
    /// optimizer's alias relation and nospec taint read the address
    /// intervals it gives.
    pub entry_state: RegState,
}

/// A finished translation, ready to be installed by a guest at a
/// dispatch-step boundary.
#[derive(Debug)]
pub struct FinishedTranslation {
    /// The region this answers.
    pub key: RegionKey,
    /// The guest program.
    pub program: Arc<Program>,
    /// The formed (or reused) superblock.
    pub sb: Superblock,
    /// The optimized region.
    pub opt: Optimized,
    /// Verify-on-emit findings (labeled by entry block), if verify is on.
    pub diags: Option<Vec<Diagnostic>>,
    /// The optimizer's trace, retained when verification ran.
    pub trace: Option<OptTrace>,
    /// The validator's facts for `trace`, derived once by verification
    /// and kept for the link-time chain checks.
    pub facts: Option<RegionFacts>,
    /// The entry state the optimization assumed (echoed from the job).
    pub entry_state: RegState,
    /// Fast-functional lowering, timed for the hub's machine.
    pub fast: FastProgram,
    /// Blacklist generation the job optimized against.
    pub blacklist_gen: u64,
    /// Host nanoseconds of formation and optimization (the paper's
    /// Figure 18 overhead).
    pub translate_ns: u64,
    /// Host nanoseconds of the whole job.
    pub worker_ns: u64,
    /// Host nanoseconds of each translation phase: formation, the
    /// optimizer's phases ([`smarq_opt::OptStats::phase_ns`]), lowering
    /// and verify-on-emit (0 when verification is off).
    pub phase_ns: PhaseNs,
}

/// Idle translation scratches. A translation takes one for the job and
/// puts it back, so the pool holds at most as many as there were
/// translations running at once, each sized to the largest region it
/// translated. Scratches outlive the threads that used them: a runtime
/// whose guest threads come and go (a multi-guest batch spawns its own)
/// reuses them instead of growing fresh ones per thread.
static SCRATCH_POOL: Mutex<Vec<TranslationScratch>> = Mutex::new(Vec::new());

/// Runs one translation job to completion on a pooled translation
/// scratch; pure with respect to the runtime.
pub fn run_translation_job(job: TranslationJob) -> FinishedTranslation {
    let idle = SCRATCH_POOL.lock().ok().and_then(|mut pool| pool.pop());
    let mut scratch = idle.unwrap_or_default();
    let fin = translate(job, &mut scratch);
    if let Ok(mut pool) = SCRATCH_POOL.lock() {
        pool.push(scratch);
    }
    fin
}

fn translate(job: TranslationJob, scratch: &mut TranslationScratch) -> FinishedTranslation {
    let t0 = Instant::now();
    let mut clock = Lap::start();
    let mut formation = PhaseNs::default();
    let cfg = &job.cfg;
    let sb = match job.input {
        JobInput::Ready(sb) => *sb,
        JobInput::Form { profile } => {
            let sb = form_superblock(&job.program, &profile, job.key.entry, cfg.formation);
            unroll_superblock(&sb, cfg.unroll_factor, cfg.formation.max_ops).0
        }
    };
    clock.lap(&mut formation, Phase::Formation);
    let (opt, trace) = optimize_superblock_traced_ranged(
        &sb,
        &cfg.opt,
        &cfg.machine,
        &job.blacklist,
        scratch,
        Some(&job.entry_state),
    );
    let translate_ns = t0.elapsed().as_nanos() as u64;
    let mut phase_ns = opt.stats.phase_ns;
    phase_ns.add(&formation);
    let mut clock = Lap::start();
    let (diags, facts) = if cfg.verify_translations {
        let (diags, facts) = smarq_verify::verify_trace_facts(job.key.entry.index(), &trace);
        (Some(diags), Some(facts))
    } else {
        (None, None)
    };
    clock.lap(&mut phase_ns, Phase::Verify);
    let fast = fastcomp::compile_for(&opt.vliw, &cfg.machine, scratch)
        .expect("translated region is well formed");
    clock.lap(&mut phase_ns, Phase::Lowering);
    FinishedTranslation {
        key: job.key,
        program: job.program,
        sb,
        opt,
        trace: diags.is_some().then_some(trace),
        diags,
        facts,
        entry_state: job.entry_state,
        fast,
        blacklist_gen: job.blacklist_gen,
        translate_ns,
        worker_ns: t0.elapsed().as_nanos() as u64,
        phase_ns,
    }
}

/// Where and when translation jobs run. Implementations must be `Send`
/// so the owning hub can be shared across guest threads.
pub trait TranslationExecutor: Send {
    /// Enqueues a job. Returns `false` when the bounded queue is full —
    /// the job is dropped and the caller retries naturally (the block
    /// stays hot, the next dispatch re-triggers).
    fn submit(&mut self, job: TranslationJob) -> bool;
    /// A finished translation, if one is ready to publish. Never blocks.
    fn try_recv(&mut self) -> Option<FinishedTranslation>;
    /// Blocks until a finished translation is available; `None` when no
    /// job is outstanding (used to drain the pipeline at shutdown).
    fn recv_blocking(&mut self) -> Option<FinishedTranslation>;
    /// Jobs submitted but not yet received.
    fn outstanding(&self) -> usize;
    /// Step hook: run one queued job to the *computed* stage. Returns
    /// `false` when the executor does not expose step control (threaded)
    /// or nothing is queued.
    fn compute_one(&mut self) -> bool {
        false
    }
    /// Step hook: move one computed result to the *released* stage where
    /// `try_recv` can observe it. Returns `false` when unsupported or
    /// nothing is computed.
    fn release_one(&mut self) -> bool {
        false
    }
}

/// The production executor: a bounded job channel drained by a pool of
/// worker threads. Results flow back over an unbounded channel and are
/// installed by the next guest to reach a dispatch-step boundary.
pub struct ThreadedExecutor {
    tx: Option<mpsc::SyncSender<TranslationJob>>,
    rx: mpsc::Receiver<FinishedTranslation>,
    outstanding: usize,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ThreadedExecutor {
    /// Spawns `workers` threads (min 1) behind a job queue bounded at
    /// `queue_depth` (min 1).
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        let (jtx, jrx) = mpsc::sync_channel::<TranslationJob>(queue_depth.max(1));
        let (rtx, rrx) = mpsc::channel::<FinishedTranslation>();
        let jrx = Arc::new(Mutex::new(jrx));
        let handles = (0..workers.max(1))
            .map(|_| {
                let jrx = Arc::clone(&jrx);
                let rtx = rtx.clone();
                thread::spawn(move || {
                    loop {
                        // Hold the lock only for the dequeue, not the job.
                        let job = match jrx.lock() {
                            Ok(rx) => rx.recv(),
                            Err(_) => break,
                        };
                        let Ok(job) = job else { break };
                        if rtx.send(run_translation_job(job)).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        ThreadedExecutor {
            tx: Some(jtx),
            rx: rrx,
            outstanding: 0,
            workers: handles,
        }
    }
}

impl TranslationExecutor for ThreadedExecutor {
    fn submit(&mut self, job: TranslationJob) -> bool {
        let tx = self.tx.as_ref().expect("executor not shut down");
        match tx.try_send(job) {
            Ok(()) => {
                self.outstanding += 1;
                true
            }
            Err(TrySendError::Full(_)) => false,
            Err(TrySendError::Disconnected(_)) => {
                unreachable!("workers outlive the executor")
            }
        }
    }

    fn try_recv(&mut self) -> Option<FinishedTranslation> {
        let fin = self.rx.try_recv().ok()?;
        self.outstanding -= 1;
        Some(fin)
    }

    fn recv_blocking(&mut self) -> Option<FinishedTranslation> {
        if self.outstanding == 0 {
            return None;
        }
        let fin = self.rx.recv().ok()?;
        self.outstanding -= 1;
        Some(fin)
    }

    fn outstanding(&self) -> usize {
        self.outstanding
    }
}

impl Drop for ThreadedExecutor {
    fn drop(&mut self) {
        // Closing the job channel ends every worker's recv loop.
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Single-threaded, step-controlled executor for deterministic schedule
/// exploration. A job moves through three explicit stages —
/// **queued** (submitted, not started), **computed** (translation done,
/// result not yet visible) and **released** (visible to `try_recv`) —
/// and only advances when [`TranslationExecutor::compute_one`] /
/// [`TranslationExecutor::release_one`] are called. A test driver (or the
/// seeded schedule of [`crate::run_multi_interleaved`]) therefore controls
/// exactly when a finished translation becomes publishable, relative to
/// guest execution, deopts and unlinks.
pub struct StepExecutor {
    capacity: usize,
    /// Auto mode: `try_recv` advances one job through both stages itself,
    /// giving a deterministic "translation finishes at the next dispatch
    /// boundary" executor with no manual driving (used for
    /// `translate_workers = 0`).
    auto: bool,
    queued: VecDeque<TranslationJob>,
    computed: VecDeque<FinishedTranslation>,
    released: VecDeque<FinishedTranslation>,
}

impl StepExecutor {
    /// Manual stepping: nothing advances until the driver says so.
    pub fn manual(capacity: usize) -> Self {
        Self::with_mode(capacity, false)
    }

    /// Auto stepping: each `try_recv` completes at most one queued job,
    /// so translations deterministically land one dispatch boundary after
    /// submission.
    pub fn auto(capacity: usize) -> Self {
        Self::with_mode(capacity, true)
    }

    fn with_mode(capacity: usize, auto: bool) -> Self {
        StepExecutor {
            capacity: capacity.max(1),
            auto,
            queued: VecDeque::new(),
            computed: VecDeque::new(),
            released: VecDeque::new(),
        }
    }
}

impl TranslationExecutor for StepExecutor {
    fn submit(&mut self, job: TranslationJob) -> bool {
        // The bound models the threaded job channel: it limits *waiting*
        // jobs, not finished results.
        if self.queued.len() >= self.capacity {
            return false;
        }
        self.queued.push_back(job);
        true
    }

    fn try_recv(&mut self) -> Option<FinishedTranslation> {
        if self.auto {
            if self.released.is_empty() && self.computed.is_empty() {
                self.compute_one();
            }
            if self.released.is_empty() {
                self.release_one();
            }
        }
        self.released.pop_front()
    }

    fn recv_blocking(&mut self) -> Option<FinishedTranslation> {
        loop {
            if let Some(fin) = self.released.pop_front() {
                return Some(fin);
            }
            if !self.release_one() && !self.compute_one() {
                return None;
            }
        }
    }

    fn outstanding(&self) -> usize {
        self.queued.len() + self.computed.len() + self.released.len()
    }

    fn compute_one(&mut self) -> bool {
        let Some(job) = self.queued.pop_front() else {
            return false;
        };
        let fin = run_translation_job(job);
        self.computed.push_back(fin);
        true
    }

    fn release_one(&mut self) -> bool {
        let Some(fin) = self.computed.pop_front() else {
            return false;
        };
        self.released.push_back(fin);
        true
    }
}
