//! The four workloads: what each runs, how its inputs are drawn from the
//! seed, and the runtime configuration it runs under.
//!
//! Every configuration field is set here explicitly. The runtime's own
//! defaults read `SMARQ_*` environment variables, so a default-built
//! config would make the numbers depend on the caller's shell.

use crate::probe::HostSpeed;
use smarq::NospecRanges;
use smarq_guest::{ArchState, Interpreter, Program, RunOutcome};
use smarq_ir::FormationParams;
use smarq_opt::OptConfig;
use smarq_runtime::{DispatchMode, ExecTier, HubConfig, SystemConfig};
use smarq_vliw::MachineConfig;
use smarq_workloads::{random_workload_with, scaled, RandomParams, WORKLOAD_NAMES};
use std::time::Instant;

/// Loop trip count of the 14 SPECFP stand-ins on both specfp workloads.
pub const SPECFP_ITERS: i64 = 150_000;
/// Short random programs per churn round.
pub const CHURN_PROGRAMS: usize = 3000;
/// Seed of the churn round's parameter design (which body size, trip
/// count and address pool meet in each program); the same for every run.
const CHURN_DESIGN_SEED: u64 = 0x5eed_c4a2;
/// Guests per multiguest batch: every distinct program runs on two.
pub const MULTI_GUESTS: usize = 8;
/// Guest instructions of each stand-in in a multiguest batch. Trip counts
/// are fitted to it, so every batch carries about the same work.
pub const MULTI_STANDIN_INSTRS: u64 = 1_500_000;
/// Loop body size of the random loops in a multiguest batch.
pub const MULTI_RANDOM_OPS: usize = 64;
/// Trip count of the random loops in a multiguest batch.
pub const MULTI_RANDOM_ITERS: i64 = 10_000;
/// Setup is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;
/// Guest-instruction budget of the reference interpreter; every generated
/// program halts well within it.
const REFERENCE_BUDGET: u64 = 1 << 40;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The stand-ins on the cycle-level simulator, inline translation.
    SpecfpCycle,
    /// The stand-ins on the fast-functional tier, async translation.
    SpecfpFast,
    /// Thousands of short random programs: translation-bound.
    Churn,
    /// Batches of guests sharing one translation hub.
    Multiguest,
}

impl Workload {
    /// Every workload, in the order `run` measures them.
    pub const ALL: [Workload; 4] = [
        Workload::SpecfpCycle,
        Workload::SpecfpFast,
        Workload::Churn,
        Workload::Multiguest,
    ];

    /// The workload's name on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SpecfpCycle => "specfp-cycle",
            Workload::SpecfpFast => "specfp-fast",
            Workload::Churn => "churn",
            Workload::Multiguest => "multiguest",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists: the layers it stresses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SpecfpCycle => {
                "14 SPECFP stand-ins on the cycle simulator: execution-bound, shows vliw and \
                 chained-dispatch changes, flat for translation changes"
            }
            Workload::SpecfpFast => {
                "the same stand-ins on the functional tier with async translation: shows \
                 FastSim, fastcomp and worker-pool changes, bypasses the cycle simulator"
            }
            Workload::Churn => {
                "3000 short seeded random programs with verify-on-emit: translation-, \
                 rollback- and verify-bound, shows ir/core/opt/verify changes"
            }
            Workload::Multiguest => {
                "batches of 8 guests on one shared hub: translate-once dedup, shared \
                 blacklist and epoch invalidation on the second runtime engine"
            }
        }
    }
}

/// One guest program with its pure-interpretation reference.
#[derive(Clone, Debug)]
pub struct Guest {
    /// The program.
    pub program: Program,
    /// Final architectural state under [`Interpreter::run`].
    pub reference: ArchState,
    /// Guest instructions the reference interpreter retired: the numerator
    /// of `guest_mips`, independent of the translator's own accounting.
    pub ref_instrs: u64,
}

/// One timed unit of work: a single program, or one multiguest batch.
#[derive(Clone, Debug)]
pub struct Item {
    /// The distinct programs of the item.
    pub programs: Vec<Guest>,
    /// Per guest, the index of the program it runs.
    pub guests: Vec<usize>,
}

impl Item {
    fn single(g: Guest) -> Item {
        Item {
            programs: vec![g],
            guests: vec![0],
        }
    }

    /// Reference guest instructions over every guest of the item.
    pub fn ref_instrs(&self) -> u64 {
        self.guests
            .iter()
            .map(|&p| self.programs[p].ref_instrs)
            .sum()
    }
}

/// A workload's generated inputs.
pub struct Inputs {
    /// The items of one round, in the order they run.
    pub items: Vec<Item>,
    /// Host nanoseconds the reference interpreter took over all programs
    /// (the last setup repetition).
    pub ref_ns: u64,
    /// Guest instructions it retired in that time.
    pub ref_total_instrs: u64,
}

/// The runtime configuration of one workload.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Single-guest system configuration (for multiguest: the
    /// configuration the hub is derived from and the solo replays use).
    pub system: SystemConfig,
    /// Multiguest only: the hub configuration.
    pub hub: Option<HubConfig>,
    /// Multiguest only: `run_multi` scheduler threads.
    pub scheduler_threads: usize,
}

impl RunConfig {
    /// Host threads a run under this configuration keeps busy.
    pub fn threads(&self) -> usize {
        match self.hub {
            Some(_) => self.scheduler_threads,
            None if self.system.async_translate => 1 + self.system.translate_workers as usize,
            None => 1,
        }
    }

    /// The same configuration on the cycle-level tier with one scheduler
    /// thread: the untimed, deterministic pass that gives a multiguest
    /// round its `sim_cpi`, since functional-tier hub guests model no
    /// cycles.
    pub fn cycle_tier(&self) -> RunConfig {
        let mut c = self.clone();
        c.system.exec_tier = ExecTier::CycleSim;
        if let Some(hub) = &mut c.hub {
            hub.exec_tier = ExecTier::CycleSim;
        }
        c.scheduler_threads = 1;
        c
    }
}

/// Host hardware threads, as the standard library reports them.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn system_config(
    exec_tier: ExecTier,
    hot_threshold: u64,
    verify: bool,
    async_workers: Option<u32>,
) -> SystemConfig {
    let machine = MachineConfig::default();
    SystemConfig {
        opt: OptConfig::smarq(machine.num_alias_regs),
        machine,
        hot_threshold,
        formation: FormationParams {
            cold_threshold: 10,
            max_blocks: 16,
            max_ops: 512,
        },
        unroll_factor: 1,
        max_rollbacks_per_region: 64,
        verify_translations: verify,
        dispatch: DispatchMode::Chained,
        exec_tier,
        tier_sample_interval: 256,
        async_translate: async_workers.is_some(),
        translate_workers: async_workers.unwrap_or(0),
        translate_queue_depth: 4,
        nospec_ranges: NospecRanges::none(),
    }
}

impl Workload {
    /// The configuration this workload runs under. Thread use stays within
    /// `min(2, host_threads)`: on a one-thread host the async worker
    /// becomes the runtime's auto-stepped executor (`translate_workers =
    /// 0`) and multiguest schedules its guests on one thread.
    pub fn config(self, host_threads: usize) -> RunConfig {
        let threads = host_threads.clamp(1, 2);
        let single = |system| RunConfig {
            system,
            hub: None,
            scheduler_threads: 1,
        };
        match self {
            Workload::SpecfpCycle => single(system_config(ExecTier::CycleSim, 50, false, None)),
            Workload::SpecfpFast => single(system_config(
                ExecTier::Functional,
                50,
                false,
                Some(threads as u32 - 1),
            )),
            Workload::Churn => single(system_config(ExecTier::CycleSim, 10, true, None)),
            Workload::Multiguest => {
                let system = system_config(ExecTier::Functional, 50, true, None);
                let mut hub = HubConfig::from_system(&system);
                hub.workers = 0;
                hub.queue_depth = 4;
                hub.shards = 8;
                RunConfig {
                    system,
                    hub: Some(hub),
                    scheduler_threads: threads,
                }
            }
        }
    }

    /// Generates the workload's inputs from `seed` and computes every
    /// reference, [`SETUP_REPS`] times. Returns the inputs of the last
    /// repetition and the seconds of each, at the reference host's speed.
    pub fn setup(self, seed: u64, scale: f64) -> Result<(Inputs, Vec<f64>), String> {
        let mut host = HostSpeed::new(1);
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut inputs = None;
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let generated = self.generate(seed, scale)?;
            let mut t = [t0.elapsed().as_secs_f64()];
            host.scale(&mut t);
            times.push(t[0]);
            inputs = Some(generated);
        }
        Ok((inputs.expect("SETUP_REPS > 0"), times))
    }

    /// One setup: program generation plus the reference interpreter runs.
    pub fn generate(self, seed: u64, scale: f64) -> Result<Inputs, String> {
        let programs = self.programs(seed, scale);
        let mut ref_ns = 0u64;
        let mut reference = |p: Program| -> Result<Guest, String> {
            let t0 = Instant::now();
            let mut interp = Interpreter::new();
            let outcome = interp.run(&p, REFERENCE_BUDGET);
            ref_ns += t0.elapsed().as_nanos() as u64;
            if outcome != RunOutcome::Halted {
                return Err(format!(
                    "{}: a generated program does not halt",
                    self.name()
                ));
            }
            Ok(Guest {
                reference: interp.arch_state(),
                ref_instrs: interp.executed_instrs(),
                program: p,
            })
        };
        let items = match programs {
            Programs::Single(ps) => ps
                .into_iter()
                .map(|p| reference(p).map(Item::single))
                .collect::<Result<Vec<_>, _>>()?,
            Programs::Batches(bs) => bs
                .into_iter()
                .map(|batch| {
                    let programs = batch
                        .into_iter()
                        .map(&mut reference)
                        .collect::<Result<Vec<_>, _>>()?;
                    let guests = (0..MULTI_GUESTS).map(|g| g % programs.len()).collect();
                    Ok(Item { programs, guests })
                })
                .collect::<Result<Vec<_>, String>>()?,
        };
        let ref_total_instrs = items
            .iter()
            .flat_map(|i| i.programs.iter())
            .map(|g| g.ref_instrs)
            .sum();
        Ok(Inputs {
            items,
            ref_ns,
            ref_total_instrs,
        })
    }

    /// The programs of one round, drawn from `seed`.
    pub fn programs(self, seed: u64, scale: f64) -> Programs {
        let iters = |base: i64| ((base as f64 * scale).round() as i64).max(1);
        let standin = |name: &str, n: i64| {
            scaled(name, n)
                .expect("WORKLOAD_NAMES lists the stand-ins")
                .program
        };
        let mut rng = SplitMix64(seed);
        match self {
            Workload::SpecfpCycle | Workload::SpecfpFast => Programs::Single(
                WORKLOAD_NAMES
                    .iter()
                    .map(|n| standin(n, iters(SPECFP_ITERS)))
                    .collect(),
            ),
            Workload::Churn => {
                // Each parameter covers its range evenly over the round (a
                // Latin hypercube), and which values meet in one program is
                // fixed; the seed draws each program's code. A seed that
                // paired the largest bodies with the most trips would make
                // the round's slowest programs slower, and so move
                // `program_ms_p99` by itself.
                let n = ((CHURN_PROGRAMS as f64 * scale).round() as usize).max(1);
                let mut design = SplitMix64(CHURN_DESIGN_SEED);
                let body = design.stratified(n, 8, 65);
                let trips = design.stratified(n, 100, 601);
                let pool = design.stratified(n, 1, 9);
                Programs::Single(
                    (0..n)
                        .map(|i| {
                            let params = RandomParams {
                                body_ops: body[i] as usize,
                                iters: trips[i] as i64,
                                address_pool: pool[i],
                            };
                            random_workload_with(rng.next(), params).program
                        })
                        .collect(),
                )
            }
            Workload::Multiguest => {
                // All 14 stand-ins once per round, in fixed pairs fitted
                // to equal work; the seed orders the batches and draws the
                // random loops' code. Address pools cover 1..4 evenly over
                // the round, and batch k pairs the k-th smallest pool with
                // the k-th largest, so every batch carries about the same
                // aliasing and no seed can put the two smallest pools in
                // one batch.
                let pairs = WORKLOAD_NAMES.len() / 2;
                let pool: Vec<u64> = (0..2 * pairs as u64)
                    .map(|i| 1 + i * 4 / (2 * pairs as u64))
                    .collect();
                let mut order: Vec<usize> = (0..pairs).collect();
                rng.shuffle(&mut order);
                let target = (MULTI_STANDIN_INSTRS as f64 * scale) as u64;
                Programs::Batches(
                    order
                        .into_iter()
                        .map(|k| {
                            let mut batch: Vec<Program> = [k, k + pairs]
                                .iter()
                                .map(|&i| {
                                    let n = WORKLOAD_NAMES[i];
                                    standin(n, (target / instrs_per_iter(n)).max(1) as i64)
                                })
                                .collect();
                            for p in [pool[k], pool[2 * pairs - 1 - k]] {
                                let params = RandomParams {
                                    body_ops: MULTI_RANDOM_OPS,
                                    iters: iters(MULTI_RANDOM_ITERS),
                                    address_pool: p,
                                };
                                batch.push(random_workload_with(rng.next(), params).program);
                            }
                            batch
                        })
                        .collect(),
                )
            }
        }
    }
}

/// Guest instructions one loop iteration of stand-in `name` retires.
fn instrs_per_iter(name: &str) -> u64 {
    let retired = |iters: i64| {
        let program = scaled(name, iters)
            .expect("WORKLOAD_NAMES lists the stand-ins")
            .program;
        let mut interp = Interpreter::new();
        interp.run(&program, REFERENCE_BUDGET);
        interp.executed_instrs()
    };
    (retired(2) - retired(1)).max(1)
}

/// The generated programs of one round.
#[derive(Clone, Debug, PartialEq)]
pub enum Programs {
    /// One program per item.
    Single(Vec<Program>),
    /// One batch of distinct programs per item.
    Batches(Vec<Vec<Program>>),
}

/// SplitMix64: the seed stream the generators draw their parameters from.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + ((u128::from(self.next()) * u128::from(hi - lo)) >> 64) as u64
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i as u64 + 1) as usize);
        }
    }

    /// `n` values spread evenly over `[lo, hi)`, in seeded order.
    fn stratified(&mut self, n: usize, lo: u64, hi: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n as u64)
            .map(|i| lo + i * (hi - lo) / n as u64)
            .collect();
        self.shuffle(&mut v);
        v
    }
}
