//! Running a workload: warm-up, the timed closed-loop rounds, the
//! correctness gate, and the reduction of what was measured to metric
//! rows.

use crate::probe::HostSpeed;
use crate::report::{quantile, ratio, Row, Stat};
use crate::rss;
use crate::trace::{replay, ReplayCtx, Replayed, Tracer};
use crate::workload::{Guest, Inputs, Item, RunConfig, Workload};
use smarq_guest::Interpreter;
use smarq_runtime::{
    run_multi, DynOptSystem, ExecTier, GuestContext, HubConfig, StopReason, SystemStats,
    TranslationHub, DEFAULT_SLICE_STEPS,
};
use std::time::Instant;

/// What a run measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Untraced rounds only; reports the end-to-end metrics.
    EndToEnd,
    /// Untraced and traced rounds alternately; reports the per-layer
    /// metrics (and the tracing overhead from the difference).
    Layers,
}

/// Counters summed over the items of a set of rounds.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Guests run.
    pub attempted: u64,
    /// Guests whose outcome was wrong.
    pub failed: u64,
    /// Timed wall ns (every workload runs its guests on one thread).
    pub wall_ns: u64,
    /// Reference guest instructions of the guests run.
    pub ref_instrs: u64,
    /// Simulated cycles behind `sim_cpi`.
    pub cpi_cycles: f64,
    /// Guest instructions those cycles retired.
    pub cpi_instrs: f64,
    /// Guest instructions the runtime interpreted.
    pub interp_instrs: u64,
    /// Regions formed plus retranslations.
    pub translations: u64,
    /// Per-region records (region installs).
    pub regions: u64,
    /// Check-constraints over the records.
    pub checks: u64,
    /// Memory operations over the records.
    pub mem_ops: u64,
    /// Alias-register working sets over the records.
    pub working_set: u64,
    /// AMOVs over the records.
    pub amovs: u64,
    /// Overflow retries over the records.
    pub overflow_retries: u64,
    /// Rollbacks.
    pub rollbacks: u64,
    /// Region entries.
    pub region_entries: u64,
    /// Chain links followed.
    pub chain_follows: u64,
    /// Translation-cache probes.
    pub dispatch_lookups: u64,
    /// Inline translation ns on the guest's critical path.
    pub translation_ns: u64,
    /// Async submit/publish ns on the guest's critical path.
    pub async_stall_ns: u64,
    /// Tier-down samples run on the cycle simulator.
    pub tier_samples: u64,
    /// Region entries on the functional tier.
    pub tier_fast_entries: u64,
    /// Memory operations executed in regions.
    pub region_mem_ops: u64,
    /// Alias entries the detection hardware scanned.
    pub alias_scans: u64,
    /// Multiguest batches run.
    pub batches: u64,
    /// Hub first translations claimed.
    pub hub_started: u64,
    /// Hub rollback reports.
    pub hub_rollbacks: u64,
    /// Hub invalidation epoch bumps.
    pub hub_epoch: u64,
    /// Hub generation and publish conflicts.
    pub hub_conflicts: u64,
}

impl Tally {
    fn add_guest(&mut self, s: &SystemStats, tier: ExecTier) {
        match tier {
            ExecTier::CycleSim => {
                self.cpi_cycles += s.vliw_cycles as f64;
                self.cpi_instrs += s.region_guest_instrs as f64;
            }
            // The functional tier has no timing model: its code quality
            // is estimated from the tier-down samples, each replaying one
            // average region entry on the cycle simulator.
            ExecTier::Functional => {
                self.cpi_cycles += s.tier_sampled_cycles as f64;
                self.cpi_instrs += s.tier_samples as f64
                    * ratio(s.region_guest_instrs as f64, s.tier_fast_entries as f64);
            }
        }
        self.interp_instrs += s.interp_instrs;
        self.translations += s.regions_formed as u64 + s.retranslations as u64;
        for r in &s.per_region {
            self.regions += 1;
            self.checks += r.opt.checks as u64;
            self.mem_ops += r.opt.mem_ops as u64;
            self.working_set += u64::from(r.opt.working_set);
            self.amovs += r.opt.amovs as u64;
            self.overflow_retries += u64::from(r.opt.overflow_retries);
        }
        self.rollbacks += s.rollbacks;
        self.region_entries += s.region_entries;
        self.chain_follows += s.chain_follows;
        self.dispatch_lookups += s.dispatch_lookups;
        self.translation_ns += s.translation_ns;
        self.async_stall_ns += s.async_stall_ns;
        self.tier_samples += s.tier_samples;
        self.tier_fast_entries += s.tier_fast_entries;
        self.region_mem_ops += s.region_mem_ops;
        self.alias_scans += s.alias_entries_scanned;
    }
}

/// Whether a finished guest produced the reference result and the runtime
/// raised no error finding.
pub fn guest_ok(halted: bool, interp: &Interpreter, s: &SystemStats, g: &Guest) -> bool {
    halted
        && s.verify_errors == 0
        && s.chain_errors == 0
        && s.tier_sample_mismatches == 0
        && interp.arch_state() == g.reference
}

/// The cycle-simulator entries a run made: every region entry on the cycle
/// tier, only the tier-down samples on the functional tier.
fn sim_entries(s: &SystemStats, tier: ExecTier) -> u64 {
    match tier {
        ExecTier::CycleSim => s.region_entries,
        ExecTier::Functional => s.tier_samples,
    }
}

/// Runs one workload's items under one configuration.
pub struct Runner<'a> {
    /// The workload.
    pub workload: Workload,
    /// Its configuration.
    pub cfg: &'a RunConfig,
}

impl Runner<'_> {
    /// Runs `item` once, checks it, and folds its counters into `tally`.
    /// With a tracer, the timed run gets a root span and every layer call
    /// is replayed after it. Returns the timed wall ns.
    pub fn run_item(
        &self,
        item: &Item,
        tally: &mut Tally,
        trace: Option<(&mut Tracer, &mut Replayed)>,
    ) -> u64 {
        match &self.cfg.hub {
            None => self.run_single(&item.programs[0], tally, trace),
            Some(hub_cfg) => self.run_batch(hub_cfg, item, tally, trace),
        }
    }

    /// The replay context of a timed run over `[t0, t1]`: a fresh program
    /// id and its root span.
    fn root<'t>(&self, tracer: &'t mut Tracer, t0: Instant, t1: Instant) -> ReplayCtx<'t> {
        let program_id = tracer.new_program();
        let workload = self.workload.name();
        let root = tracer.span(None, "program", workload, program_id, t0, t1);
        ReplayCtx {
            tracer,
            workload,
            program_id,
            root,
        }
    }

    fn run_single(
        &self,
        g: &Guest,
        tally: &mut Tally,
        trace: Option<(&mut Tracer, &mut Replayed)>,
    ) -> u64 {
        let program = g.program.clone();
        let cfg = self.cfg.system.clone();
        let t0 = Instant::now();
        let mut sys = DynOptSystem::new(program, cfg);
        let stop = sys.run_to_completion(u64::MAX);
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        let tier = self.cfg.system.exec_tier;
        tally.attempted += 1;
        if !guest_ok(stop == StopReason::Halted, sys.interp(), sys.stats(), g) {
            tally.failed += 1;
        }
        tally.add_guest(sys.stats(), tier);
        tally.wall_ns += ns;
        tally.ref_instrs += g.ref_instrs;
        if let Some((tracer, acc)) = trace {
            let entries = sim_entries(sys.stats(), tier);
            let mut cx = self.root(tracer, t0, t1);
            replay(&mut cx, acc, &self.cfg.system, &g.program, &sys, entries);
        }
        ns
    }

    fn run_batch(
        &self,
        hub_cfg: &HubConfig,
        item: &Item,
        tally: &mut Tally,
        trace: Option<(&mut Tracer, &mut Replayed)>,
    ) -> u64 {
        let programs: Vec<_> = item
            .guests
            .iter()
            .map(|&p| item.programs[p].program.clone())
            .collect();
        let hub_cfg = hub_cfg.clone();
        let t0 = Instant::now();
        let hub = TranslationHub::new(hub_cfg);
        let guests: Vec<GuestContext> = programs
            .into_iter()
            .enumerate()
            .map(|(i, p)| GuestContext::new(i, p, &hub))
            .collect();
        let guests = run_multi(
            &hub,
            guests,
            self.cfg.scheduler_threads,
            u64::MAX,
            DEFAULT_SLICE_STEPS,
        );
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        let hs = hub.stats();
        let tier = self.cfg.system.exec_tier;
        let mut failed = 0;
        for (g, &p) in guests.iter().zip(&item.guests) {
            if !guest_ok(g.halted(), g.interp(), g.stats(), &item.programs[p]) {
                failed += 1;
            }
            tally.add_guest(g.stats(), tier);
        }
        if hs.verify_errors > 0 {
            failed = guests.len() as u64;
        }
        tally.attempted += guests.len() as u64;
        tally.failed += failed;
        tally.wall_ns += ns;
        tally.ref_instrs += item.ref_instrs();
        tally.batches += 1;
        tally.hub_started += hs.translations_started;
        tally.hub_rollbacks += hs.rollbacks;
        tally.hub_epoch += hs.epoch;
        tally.hub_conflicts += hs.gen_conflicts + hs.publish_conflicts;
        if let Some((tracer, acc)) = trace {
            let mut cx = self.root(tracer, t0, t1);
            // The hub's guests expose no formed superblocks: the layer
            // replay runs on a solo system per distinct program, weighted
            // by the simulator entries of the guests that ran it.
            for (p, g) in item.programs.iter().enumerate() {
                let mut solo = DynOptSystem::new(g.program.clone(), self.cfg.system.clone());
                solo.run_to_completion(u64::MAX);
                let timed_entries = guests
                    .iter()
                    .zip(&item.guests)
                    .filter(|(_, &gp)| gp == p)
                    .map(|(c, _)| sim_entries(c.stats(), tier))
                    .sum();
                replay(
                    &mut cx,
                    acc,
                    &self.cfg.system,
                    &g.program,
                    &solo,
                    timed_entries,
                );
            }
        }
        ns
    }
}

/// One round's end-to-end samples.
#[derive(Clone, Debug, Default)]
struct Round {
    /// Timed ms of each item at the reference host's speed, in input
    /// order.
    item_ms: Vec<f64>,
    cpi: f64,
}

/// Each item's time (ms at the reference host's speed): the median of its
/// times over `rounds`.
fn item_ms(rounds: &[Round]) -> Vec<f64> {
    let items = rounds.first().map_or(0, |r| r.item_ms.len());
    (0..items)
        .map(|i| {
            let times: Vec<f64> = rounds.iter().map(|r| r.item_ms[i]).collect();
            quantile(&times, 0.5)
        })
        .collect()
}

/// Aggregate throughput in M guest instructions per second of items that
/// retire `instrs` in `ms` each.
fn mips(instrs: &[u64], ms: &[f64]) -> f64 {
    ratio(
        instrs.iter().sum::<u64>() as f64,
        ms.iter().sum::<f64>() * 1e3,
    )
}

/// A measured workload: its metric rows and correctness counts.
pub struct Outcome {
    /// Metric rows (end-to-end or per-layer, by mode).
    pub rows: Vec<Row>,
    /// Guests run, warm-up included.
    pub attempted: u64,
    /// Guests with a wrong outcome.
    pub failed: u64,
    /// The host's speed over the timed rounds and the unscaled
    /// throughput, for the human-readable output.
    pub note: String,
}

/// Untraced timed rounds a run makes at the least, however short
/// `seconds` is.
pub const MIN_ROUNDS: usize = 3;

/// Consecutive items run at least this long (ms) between two host-speed
/// probes; a longer item is a segment of its own. A probe costs about 2 ms.
const SEGMENT_MS: f64 = 50.0;

/// Runs `workload` on `inputs`: an untimed warm-up over the first quarter
/// of a round, then as many whole rounds as fit in `seconds` of wall time,
/// and at least [`MIN_ROUNDS`] untraced ones (in [`Mode::Layers`], traced
/// and untraced rounds alternate). Item times are scaled to the reference
/// host's speed by the probes taken between segments of items.
pub fn measure(
    workload: Workload,
    cfg: &RunConfig,
    inputs: &Inputs,
    setup_s: &[f64],
    seconds: f64,
    mode: Mode,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let runner = Runner { workload, cfg };
    let mut warm = Tally::default();
    for item in &inputs.items[..inputs.items.len().div_ceil(4)] {
        runner.run_item(item, &mut warm, None);
    }
    // Index 0: untraced rounds, index 1: traced rounds.
    let mut totals = [Tally::default(), Tally::default()];
    let mut rounds: [Vec<Round>; 2] = [Vec::new(), Vec::new()];
    let mut replayed = Replayed::default();
    let mut host = HostSpeed::new(cfg.scheduler_threads);
    let start = Instant::now();
    loop {
        let traced = mode == Mode::Layers && rounds[0].len() > rounds[1].len();
        let k = usize::from(traced);
        let before = totals[k].clone();
        let mut item_ms = Vec::with_capacity(inputs.items.len());
        let (mut segment_start, mut segment_ms) = (0, 0.0);
        for item in &inputs.items {
            let trace = traced.then_some((&mut *tracer, &mut replayed));
            let ms = runner.run_item(item, &mut totals[k], trace) as f64 / 1e6;
            item_ms.push(ms);
            segment_ms += ms;
            if segment_ms >= SEGMENT_MS {
                host.scale(&mut item_ms[segment_start..]);
                (segment_start, segment_ms) = (item_ms.len(), 0.0);
            }
        }
        if segment_start < item_ms.len() {
            host.scale(&mut item_ms[segment_start..]);
        }
        let t = &totals[k];
        rounds[k].push(Round {
            item_ms,
            cpi: ratio(
                t.cpi_cycles - before.cpi_cycles,
                t.cpi_instrs - before.cpi_instrs,
            ),
        });
        let enough =
            rounds[0].len() >= MIN_ROUNDS && (mode == Mode::EndToEnd || !rounds[1].is_empty());
        // Stop before a round that would, at the mean round time so far,
        // end after `seconds`.
        let elapsed = start.elapsed().as_secs_f64();
        let done = (rounds[0].len() + rounds[1].len()) as f64;
        if enough && elapsed * (done + 1.0) / done > seconds {
            break;
        }
    }
    let note = format!(
        "host speed {:.3} of the reference host (q1 {:.3}..q3 {:.3}, {} probes); \
         unscaled guest_mips {:.3} Minstr/s",
        quantile(&host.factors, 0.5),
        quantile(&host.factors, 0.25),
        quantile(&host.factors, 0.75),
        host.factors.len(),
        ratio(totals[0].ref_instrs as f64 * 1e3, totals[0].wall_ns as f64),
    );
    let mut attempted = warm.attempted + totals[0].attempted + totals[1].attempted;
    let mut failed = warm.failed + totals[0].failed + totals[1].failed;
    let instrs: Vec<u64> = inputs.items.iter().map(Item::ref_instrs).collect();
    let rows = match mode {
        Mode::EndToEnd => {
            let peak_rss_mb = rss::peak_mb()?;
            let cpi = match cfg.hub {
                // Functional-tier hub guests model no cycles and take no
                // tier-down samples: the round's code quality comes from
                // one untimed, deterministic pass on the cycle tier.
                Some(_) if cfg.system.exec_tier == ExecTier::Functional => {
                    let cycle = cfg.cycle_tier();
                    let runner = Runner {
                        workload,
                        cfg: &cycle,
                    };
                    let mut t = Tally::default();
                    for item in &inputs.items {
                        runner.run_item(item, &mut t, None);
                    }
                    attempted += t.attempted;
                    failed += t.failed;
                    Row::total(
                        workload.name(),
                        "sim_cpi",
                        ratio(t.cpi_cycles, t.cpi_instrs),
                        inputs.items.len(),
                    )
                }
                _ => {
                    let per_round: Vec<f64> = rounds[0].iter().map(|r| r.cpi).collect();
                    Row::median(workload.name(), "sim_cpi", &per_round)
                }
            };
            end_to_end_rows(workload, &instrs, &rounds[0], cpi, setup_s, peak_rss_mb)
        }
        Mode::Layers => {
            let plain = mips(&instrs, &item_ms(&rounds[0]));
            let traced = mips(&instrs, &item_ms(&rounds[1]));
            let overhead_pct = ratio((plain - traced) * 100.0, plain);
            layer_rows(
                workload,
                inputs,
                &totals[1],
                &replayed,
                tracer,
                overhead_pct,
            )
        }
    };
    Ok(Outcome {
        rows,
        attempted,
        failed,
        note,
    })
}

fn end_to_end_rows(
    workload: Workload,
    instrs: &[u64],
    rounds: &[Round],
    sim_cpi: Row,
    setup_s: &[f64],
    peak_rss_mb: f64,
) -> Vec<Row> {
    let w = workload.name();
    // Throughput and latency come from each item's median over the rounds;
    // the quartiles of throughput show how it varied from round to round.
    let items = item_ms(rounds);
    let per_round: Vec<f64> = rounds.iter().map(|r| mips(instrs, &r.item_ms)).collect();
    let guest_mips = Row {
        value: mips(instrs, &items),
        q1: quantile(&per_round, 0.25),
        q3: quantile(&per_round, 0.75),
        n: rounds.len(),
        stat: Stat::Items,
        ..Row::total(w, "guest_mips", 0.0, 0)
    };
    vec![
        guest_mips,
        Row::percentile(w, "program_ms_p50", 0.5, &items),
        Row::percentile(w, "program_ms_p99", 0.99, &items),
        sim_cpi,
        Row::median(w, "setup_s", setup_s),
        Row::total(w, "peak_rss_mb", peak_rss_mb, 1),
    ]
}

fn layer_rows(
    workload: Workload,
    inputs: &Inputs,
    t: &Tally,
    rp: &Replayed,
    tracer: &Tracer,
    overhead_pct: f64,
) -> Vec<Row> {
    let w = workload.name();
    // Span durations of `name`, in units of `unit_ns`.
    let spans = |name: &str, unit_ns: f64| -> Vec<f64> {
        tracer
            .durations(w, name)
            .iter()
            .map(|ns| ns / unit_ns)
            .collect()
    };
    let median =
        |metric: &str, span: &str, unit_ns: f64| Row::median(w, metric, &spans(span, unit_ns));
    let total = |metric: &str, num: f64, den: f64, n: u64| {
        Row::total(w, metric, ratio(num, den), n as usize)
    };
    let f = |v: u64| v as f64;
    let optimize_us = spans("opt.optimize", 1e3);
    let (guests, regions, batches) = (t.attempted, t.regions, t.batches);
    vec![
        total(
            "guest.interp_mips",
            f(inputs.ref_total_instrs) * 1e3,
            f(inputs.ref_ns),
            inputs.items.len() as u64,
        ),
        total(
            "guest.interp_instr_share",
            f(t.interp_instrs),
            f(t.ref_instrs),
            guests,
        ),
        median("ir.form_us", "ir.form", 1e3),
        total("ir.region_ops", f(rp.region_ops), f(rp.regions), rp.regions),
        median("core.deps_us", "core.deps", 1e3),
        total("core.checks_per_memop", f(t.checks), f(t.mem_ops), regions),
        total("core.working_set", f(t.working_set), f(regions), regions),
        Row::percentile(w, "opt.optimize_us_p50", 0.5, &optimize_us),
        Row::percentile(w, "opt.optimize_us_p99", 0.99, &optimize_us),
        total(
            "opt.sched_share",
            f(rp.sched_ns) / 1e3,
            optimize_us.iter().sum(),
            rp.regions,
        ),
        total("opt.amovs_per_region", f(t.amovs), f(regions), regions),
        total(
            "opt.overflow_retries",
            f(t.overflow_retries),
            f(regions),
            regions,
        ),
        median("opt.fastcomp_us", "opt.fastcomp", 1e3),
        median("opt.fast_entry_ns", "opt.fast_entry", 1.0),
        total(
            "opt.fast_ops_per_region",
            f(rp.fast_ops),
            f(rp.regions),
            rp.regions,
        ),
        median("vliw.sim_entry_ns", "vliw.sim_entry", 1.0),
        total("vliw.sim_share", rp.sim_est_ns, f(t.wall_ns), guests),
        total(
            "vliw.bundles_per_region",
            f(rp.sim_bundles),
            f(rp.sim_entries),
            rp.sim_entries,
        ),
        total(
            "vliw.alias_scans_per_memop",
            f(t.alias_scans),
            f(t.region_mem_ops),
            guests,
        ),
        median("verify.dataflow_us", "verify.dataflow", 1e3),
        median("verify.check_us", "verify.check", 1e3),
        median("verify.chain_us", "verify.chain", 1e3),
        total(
            "runtime.translate_share",
            f(t.translation_ns + t.async_stall_ns),
            f(t.wall_ns),
            guests,
        ),
        total(
            "runtime.translations_per_program",
            f(t.translations),
            f(guests),
            guests,
        ),
        total(
            "runtime.rollbacks_per_kentry",
            f(t.rollbacks) * 1e3,
            f(t.region_entries),
            guests,
        ),
        total(
            "runtime.chain_follow_ratio",
            f(t.chain_follows),
            f(t.region_entries),
            guests,
        ),
        total(
            "runtime.region_entry_ns",
            f(t.wall_ns),
            f(t.region_entries),
            guests,
        ),
        total(
            "runtime.dispatch_lookups_per_kinstr",
            f(t.dispatch_lookups) * 1e3,
            f(t.ref_instrs),
            guests,
        ),
        total(
            "runtime.async_stall_us",
            f(t.async_stall_ns) / 1e3,
            f(guests),
            guests,
        ),
        total(
            "runtime.tier_sample_share",
            f(t.tier_samples),
            f(t.tier_fast_entries),
            guests,
        ),
        total(
            "runtime.hub_translations_per_guest",
            f(t.hub_started),
            f(guests),
            guests,
        ),
        total(
            "runtime.hub_rollbacks",
            f(t.hub_rollbacks),
            f(batches),
            batches,
        ),
        total(
            "runtime.hub_epoch_bumps",
            f(t.hub_epoch),
            f(batches),
            batches,
        ),
        total(
            "runtime.hub_publish_conflicts",
            f(t.hub_conflicts),
            f(batches),
            batches,
        ),
        Row::total(w, "trace.overhead_pct", overhead_pct, guests as usize),
    ]
}
