//! The traced run: spans around the timed program runs and around replayed
//! calls into each layer, kept in memory and written as `smarq-trace/1`
//! JSON lines when the benchmark ends.
//!
//! The replay happens after each program's timed span and outside it, on
//! the exact superblocks, blacklist and profile the runtime ended with, so
//! tracing never perturbs the end-to-end numbers it is compared against.

use crate::report::{json_str, quantile, ratio};
use smarq::{AllocScratch, DepGraph};
use smarq_guest::{BlockId, Interpreter, Program};
use smarq_ir::form_superblock;
use smarq_opt::fastcomp::{self, FastSim};
use smarq_opt::optimize_superblock_traced;
use smarq_runtime::{DynOptSystem, SystemConfig};
use smarq_vliw::{AnyAliasHw, FastState, RegionWriteMask, Simulator, VliwState};
use std::hint::black_box;
use std::io::{self, Write};
use std::time::Instant;

/// Replayed region entries per formed region, on each executor.
pub const ENTRY_SAMPLES: usize = 8;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The enclosing span (`None` for a program's root span).
    pub parent: Option<u64>,
    /// Layer call or `program`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Workload the span belongs to.
    pub workload: &'static str,
    /// Program (item) id, shared by a root span and its children.
    pub program: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_program: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            next_program: 0,
        }
    }
}

impl Tracer {
    /// A fresh program id.
    pub fn new_program(&mut self) -> u64 {
        self.next_program += 1;
        self.next_program
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span over `[start, end]`; returns its id.
    pub fn span(
        &mut self,
        parent: Option<u64>,
        name: &'static str,
        workload: &'static str,
        program: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: self.ns_since_origin(start),
            end_ns: self.ns_since_origin(end),
            workload,
            program,
        });
        id
    }

    /// Durations (ns) of every span of `workload` named `name`.
    pub fn durations(&self, workload: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.workload == workload && s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Writes the spans as `smarq-trace/1` JSON lines.
    pub fn write(&self, out: &mut impl Write, seed: u64) -> io::Result<()> {
        writeln!(out, "{{\"schema\":\"smarq-trace/1\",\"seed\":{seed}}}")?;
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"workload\":{},\"program\":{}}}",
                s.id,
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                json_str(s.workload),
                s.program
            )?;
        }
        Ok(())
    }
}

/// Replay-derived quantities that are not span durations.
#[derive(Clone, Debug, Default)]
pub struct Replayed {
    /// Estimated host ns the timed runs spent in the cycle simulator:
    /// simulator entries made × the replayed median entry time.
    pub sim_est_ns: f64,
    /// Scheduling + allocation ns inside the replayed optimizations.
    pub sched_ns: u64,
    /// Replayed regions.
    pub regions: u64,
    /// IR operations over the replayed superblocks.
    pub region_ops: u64,
    /// Fast-tier operations over the replayed lowerings.
    pub fast_ops: u64,
    /// Replayed cycle-simulator entries.
    pub sim_entries: u64,
    /// Bundles those entries issued.
    pub sim_bundles: u64,
}

/// A program's replay context: who it belongs to and which timed span.
pub struct ReplayCtx<'a> {
    /// Span recorder.
    pub tracer: &'a mut Tracer,
    /// Workload name.
    pub workload: &'static str,
    /// Program id of the root span.
    pub program_id: u64,
    /// The timed root span.
    pub root: u64,
}

impl ReplayCtx<'_> {
    /// Records a child span of the root over `[t0, t1]`.
    fn span(&mut self, name: &'static str, t0: Instant, t1: Instant) {
        let (workload, program) = (self.workload, self.program_id);
        self.tracer
            .span(Some(self.root), name, workload, program, t0, t1);
    }

    /// Runs `f` inside a child span of the root.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = black_box(f());
        self.span(name, t0, Instant::now());
        r
    }
}

/// Replays every layer call for one program, timing each as a child span
/// of `cx.root`. `sys` is the system that ran the program (or, for
/// multiguest, a solo run of it under the same configuration);
/// `timed_sim_entries` is how many cycle-simulator entries the timed run
/// made, which the replayed per-region entry times are weighted over.
pub fn replay(
    cx: &mut ReplayCtx<'_>,
    acc: &mut Replayed,
    cfg: &SystemConfig,
    program: &Program,
    sys: &DynOptSystem,
    timed_sim_entries: u64,
) {
    let dataflow = cx.time("verify.dataflow", || smarq_verify::analyze(program));
    let sbs: Vec<_> = sys.formed_superblocks().collect();
    let entries: Vec<BlockId> = sbs.iter().map(|sb| sb.entry).collect();
    let pre_states = hot_entry_states(program, &entries, cfg.hot_threshold);
    let profile = sys.interp().profile();
    let blacklist = sys.blacklist();
    let per_region = &sys.stats().per_region;
    let num_regs = cfg.opt.num_alias_regs;
    let mut sim = Simulator::new(cfg.machine, AnyAliasHw::for_kind(cfg.opt.hw, num_regs));
    let mut fast_sim = FastSim::new(cfg.opt.hw, num_regs);
    let mut scratch = AllocScratch::new();
    // Σ weight × median entry ns, and Σ weight, over regions with a
    // replay. The median discards the cold first entry of each replay.
    let (mut weighted_ns, mut weight) = (0.0, 0.0);
    for (r, sb) in sbs.iter().enumerate() {
        cx.time("ir.form", || {
            form_superblock(program, profile, sb.entry, cfg.formation)
        });
        let (opt, trace) = cx.time("opt.optimize", || {
            optimize_superblock_traced(sb, &cfg.opt, &cfg.machine, blacklist, &mut scratch)
        });
        cx.time("core.deps", || DepGraph::compute(&trace.spec));
        cx.time("verify.check", || {
            smarq_verify::check_trace_ranged(
                r,
                &trace,
                num_regs,
                Some((sb, dataflow.entry_state(sb.entry))),
            )
        });
        let fast = cx
            .time("opt.fastcomp", || fastcomp::compile(&opt.vliw))
            .expect("an emitted region lowers to the fast tier");
        acc.sched_ns += opt.stats.sched_ns;
        acc.regions += 1;
        acc.region_ops += sb.ops.len() as u64;
        acc.fast_ops += fast.ops().len() as u64;
        let Some(pre) = &pre_states[r] else {
            continue;
        };
        // The runtime's chained dispatcher enters regions through the
        // resident path, checkpointing only the region's write set. Each
        // executor replays its entries back to back, so neither evicts
        // the other's state between entries.
        let mask = RegionWriteMask::of(&opt.vliw);
        let mut sim_ns = Vec::with_capacity(ENTRY_SAMPLES);
        for _ in 0..ENTRY_SAMPLES {
            let (mut state, mut mem) = (VliwState::new(), pre.mem.clone());
            state.load_guest(&pre.regs, &pre.fregs);
            let t0 = Instant::now();
            let (_, stats) = sim
                .run_region_resident(&opt.vliw, mask, &mut state, &mut mem)
                .expect("an emitted region is well formed");
            let t1 = Instant::now();
            cx.span("vliw.sim_entry", t0, t1);
            sim_ns.push((t1 - t0).as_nanos() as f64);
            acc.sim_entries += 1;
            acc.sim_bundles += stats.bundles;
        }
        for _ in 0..ENTRY_SAMPLES {
            let (mut state, mut mem) = (FastState::new(), pre.mem.clone());
            state.load_guest(&pre.regs, &pre.fregs);
            let t0 = Instant::now();
            black_box(fast_sim.run_region(&fast, &mut state, &mut mem));
            let t1 = Instant::now();
            cx.span("opt.fast_entry", t0, t1);
        }
        let w = per_region.get(r).map_or(0, |rec| rec.entries) as f64;
        weighted_ns += w * quantile(&sim_ns, 0.5);
        weight += w;
    }
    acc.sim_est_ns += timed_sim_entries as f64 * ratio(weighted_ns, weight);
    // Only verify-on-emit systems retain the traces the chain analyzer
    // re-derives its facts from.
    let t0 = Instant::now();
    if sys.analyze_chain().is_some() {
        cx.span("verify.chain", t0, Instant::now());
    }
}

/// Interprets `program` from the start and clones the interpreter each time
/// it is about to enter one of `entries` for the first time after that
/// block turned hot, i.e. the pre-state of the region's first entry in the
/// dynamic optimizer. Entries never reached stay `None`.
pub fn hot_entry_states(
    program: &Program,
    entries: &[BlockId],
    hot: u64,
) -> Vec<Option<Interpreter>> {
    let mut states: Vec<Option<Interpreter>> = vec![None; entries.len()];
    let mut missing = entries.len();
    let mut interp = Interpreter::new();
    interp.load_data(program);
    let mut block = program.entry();
    while missing > 0 {
        if interp.profile().block_count(block) >= hot {
            for (k, e) in entries.iter().enumerate() {
                if *e == block && states[k].is_none() {
                    states[k] = Some(interp.clone());
                    missing -= 1;
                }
            }
        }
        match interp.step_block(program, block) {
            Some(next) => block = next,
            None => break,
        }
    }
    states
}
