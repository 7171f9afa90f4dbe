//! Before/after performance comparisons for the tracked perf trajectory.
//!
//! Each comparison times the *retained reference implementation* and the
//! fast path it replaced **in the same process run**, so the reported
//! speedups are apples-to-apples on the machine that produced them. Paths
//! whose reference implementation is gone are reported as absolute
//! points and compared against earlier committed baselines instead. The
//! `figures -- bench-json` mode serializes the results to a `BENCH_PR<n>.json`
//! file at the repository root; each PR that claims a performance win
//! commits one so the trajectory is reviewable.

use crate::harness::{median, time_fn, Comparison, Measurement};
use crate::synth::hoist_region;
use crate::Evaluation;
use smarq::{allocate, AllocScratch, Allocator, DepGraph};
use smarq_guest::Program;
use smarq_guest::{AluOp, BlockId, CmpOp, Interpreter, Memory, ProgramBuilder, Reg};
use smarq_ir::{form_superblock, FormationParams};
use smarq_opt::fastcomp::{self, FastSim};
use smarq_opt::{
    optimize_superblock, optimize_superblock_traced, AliasBlacklist, OptConfig, OptTrace,
};
use smarq_runtime::{DynOptSystem, SystemConfig};
use smarq_vliw::{
    AnyAliasHw, HwKind, MachineConfig, RegionOutcome, RegionWriteMask, Simulator, VliwState,
};
use std::time::Instant;

/// Dependence + constraint analysis: the all-pairs reference
/// ([`DepGraph::compute_naive`]) vs the sealed-region bit-matrix path
/// ([`DepGraph::compute`]).
pub fn compare_constraint_analysis() -> Comparison {
    let (region, _, _) = hoist_region(256);
    let before = time_fn("constraint_analysis/naive_all_pairs", || {
        DepGraph::compute_naive(&region)
    });
    let after = time_fn("constraint_analysis/sealed_bit_matrix", || {
        DepGraph::compute(&region)
    });
    Comparison {
        name: "constraint_analysis".into(),
        before,
        after,
    }
}

/// Allocator over a fixed schedule: a fresh [`Allocator`] per region vs
/// recycling one [`AllocScratch`] across regions (the runtime's usage).
pub fn compare_allocator() -> Comparison {
    let (region, deps, schedule) = hoist_region(64);
    let before = time_fn("allocator/fresh_buffers", || {
        allocate(&region, &deps, &schedule, u32::MAX)
            .unwrap()
            .working_set()
    });
    let mut scratch = Some(AllocScratch::new());
    let after = time_fn("allocator/scratch_reuse", move || {
        let mut a = Allocator::with_scratch(&region, &deps, u32::MAX, scratch.take().unwrap());
        for &op in &schedule {
            a.schedule_op(op).unwrap();
        }
        let (alloc, s) = a.finish_reclaim().unwrap();
        scratch = Some(s);
        alloc.working_set()
    });
    Comparison {
        name: "allocator".into(),
        before,
        after,
    }
}

/// End-to-end dispatch overhead on a region-chained hot loop (flat cache,
/// memoized region→region links followed in a tight loop, resident guest
/// state, write-masked checkpoints, batched stat sync). An absolute point:
/// the naive dispatcher it was once compared against is gone, so the
/// trajectory compares it with the `dispatch` rows of earlier baselines.
///
/// The system runs an effectively-infinite counted loop, is warmed until
/// the loop is translated and chained, then timed on incremental budget
/// slices of steady-state execution, so one timed iteration is exactly
/// `DISPATCH_STEP` guest instructions dominated by region entries.
pub fn measure_dispatch() -> Measurement {
    /// Guest instructions per timed closure call.
    const DISPATCH_STEP: u64 = 20_000;
    const WARM: u64 = 100_000;

    // Register-only tiny loop: the per-iteration work is two guest
    // instructions, so the measurement is dominated by dispatch (lookup,
    // chaining) rather than by memory simulation.
    let cfg = SystemConfig {
        hot_threshold: 50,
        ..Default::default()
    };
    let mut sys = DynOptSystem::new(reg_loop_kernel(), cfg);
    let mut budget = WARM + DISPATCH_STEP;
    sys.run_to_completion(budget);
    // Prove the fast path is engaged before timing it.
    assert!(
        sys.stats().chain_follows > 0,
        "the system must follow region links in steady state"
    );
    time_fn("dispatch/chained_resident", move || {
        budget += DISPATCH_STEP;
        sys.run_to_completion(budget)
    })
}

/// The dispatch-bound hot-loop kernel of [`measure_dispatch`]: two guest
/// instructions per iteration, no memory traffic.
fn reg_loop_kernel() -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let body = b.block();
    let done = b.block();
    b.iconst(entry, Reg(1), 0);
    b.iconst(entry, Reg(2), i64::MAX);
    b.jump(entry, body);
    b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
    b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, done);
    b.halt(done);
    b.finish(entry)
}

/// A memory-bound hot-loop kernel: a load/store pair through the same
/// address plus the induction update, so the translated region carries
/// alias annotations and the functional tier's compiled-out queue
/// checks are on the timed path.
fn mem_loop_kernel() -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let body = b.block();
    let done = b.block();
    b.iconst(entry, Reg(1), 0);
    b.iconst(entry, Reg(2), i64::MAX);
    b.iconst(entry, Reg(3), 0x1000);
    b.jump(entry, body);
    b.ld(body, Reg(4), Reg(3), 0);
    b.alu(body, AluOp::Add, Reg(4), Reg(4), Reg(1));
    b.st(body, Reg(4), Reg(3), 0);
    b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
    b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, done);
    b.halt(done);
    b.finish(entry)
}

/// One region entry on the retained reference executor, the cycle
/// simulator's [`Simulator::run_region_resident`] (scoreboard, issue
/// modeling, alias hardware), vs the timed [`FastSim::run_region`] the
/// runtime runs on every region entry (the same statistics, cycles
/// included, from a compiled-out timing table).
/// The region is the hot loop of `kernel`, unrolled and translated by a
/// warmed system; each executor then runs it back to back from the
/// warmed guest state, so every timed iteration is one steady-state
/// entry that leaves through the loop-back exit into the same region.
fn compare_executors(
    name: &str,
    before_label: &str,
    after_label: &str,
    kernel: fn() -> Program,
) -> Comparison {
    let cfg = SystemConfig {
        hot_threshold: 50,
        // Unroll the hot loop so the region carries real straight-line
        // work: with a 2-op body both executors are dominated by the
        // per-entry bookkeeping. Unrolled regions are also the deployed
        // shape — the optimizer exists to form them.
        unroll_factor: 16,
        ..Default::default()
    };
    let mut sys = DynOptSystem::new(kernel(), cfg.clone());
    sys.run_to_completion(100_000);
    let sb = sys
        .formed_superblocks()
        .next()
        .expect("hot loop must be translated before timing");
    let vliw = optimize_superblock(sb, &cfg.opt, &cfg.machine, sys.blacklist()).vliw;
    let fast = fastcomp::compile_for(&vliw, &cfg.machine).expect("an emitted region lowers");
    let mask = RegionWriteMask::of(&vliw);
    let warm = || {
        let mut state = VliwState::new();
        state.load_guest(&sys.interp().regs, &sys.interp().fregs);
        (state, sys.interp().mem.clone())
    };
    let regs = cfg.opt.num_alias_regs;
    let mut sim = Simulator::new(cfg.machine, AnyAliasHw::for_kind(cfg.opt.hw, regs));
    let mut fast_sim = FastSim::new(cfg.opt.hw, regs);
    // Prove both executors take the steady-state path, and agree on it.
    let ((mut vs, mut vm), (mut fs, mut fm)) = (warm(), warm());
    let want = sim
        .run_region_resident(&vliw, mask, &mut vs, &mut vm)
        .expect("an emitted region is well formed");
    assert!(matches!(want.0, RegionOutcome::Exited { .. }));
    assert_eq!(fast_sim.run_region(&fast, &mut fs, &mut fm), want);

    let (mut state, mut mem) = warm();
    let before = time_fn(before_label, move || {
        sim.run_region_resident(&vliw, mask, &mut state, &mut mem)
            .expect("an emitted region is well formed")
    });
    let (mut state, mut mem) = warm();
    let after = time_fn(after_label, move || {
        fast_sim.run_region(&fast, &mut state, &mut mem)
    });
    Comparison {
        name: name.into(),
        before,
        after,
    }
}

/// The cycle simulator against the timed fast tier, entry for entry, on
/// the register-only dispatch kernel: the per-op cost of the scoreboard
/// and issue modeling against the timing table.
pub fn compare_exec_tier() -> Comparison {
    compare_executors(
        "exec_tier",
        "exec_tier/cycle_sim_entry",
        "exec_tier/timed_fast_entry",
        reg_loop_kernel,
    )
}

/// [`compare_exec_tier`] on the load/store hot loop: adds the per-memory-op
/// cost difference (compiled-out queue check + direct memory access vs
/// the cycle simulator's alias hardware and modeled memory pipeline).
pub fn compare_exec_tier_mem() -> Comparison {
    compare_executors(
        "exec_tier_mem",
        "exec_tier/mem_cycle_sim_entry",
        "exec_tier/mem_timed_fast_entry",
        mem_loop_kernel,
    )
}

/// A translation-heavy kernel: `loops` distinct counted loops run in
/// sequence, each hot enough to be translated — so a run performs many
/// independent region formations + optimizations, which is the work the
/// async pipeline moves off the guest's critical path.
fn many_loops_kernel(loops: usize, iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    // Each loop gets a preheader that resets the induction variable:
    // the reset must NOT live at the top of the looping block itself,
    // because the back edge re-executes the whole block and the loop
    // would never terminate.
    let pres: Vec<BlockId> = (0..loops).map(|_| b.block()).collect();
    let bodies: Vec<BlockId> = (0..loops).map(|_| b.block()).collect();
    let done = b.block();
    b.iconst(entry, Reg(2), iters);
    b.iconst(entry, Reg(3), 0x1000);
    b.jump(entry, pres[0]);
    for (i, &body) in bodies.iter().enumerate() {
        let next = pres.get(i + 1).copied().unwrap_or(done);
        b.iconst(pres[i], Reg(1), 0);
        b.jump(pres[i], body);
        // Each loop gets its own memory op mix so the formed regions are
        // genuinely distinct translations, not copies.
        b.ld(body, Reg(4), Reg(3), (i as i64 % 7) * 8);
        b.alu(body, AluOp::Add, Reg(4), Reg(4), Reg(1));
        b.st(body, Reg(4), Reg(3), (i as i64 % 5) * 8);
        b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, next);
    }
    b.halt(done);
    b.finish(entry)
}

/// Translation stalls on the guest's critical path: inline translation
/// (the dispatch loop stops and runs formation + optimization + install
/// synchronously, `translation_ns`) vs the async pipeline (the dispatch
/// loop only enqueues a snapshot and later links in the finished region;
/// its entire critical-path cost is `async_stall_ns`). Both numbers are
/// reported per translation actually produced, as the median (with
/// min/max) over five end-to-end runs each of the same
/// translation-heavy multi-loop kernel.
///
/// This is not a closure-timing microbench: the system's own monotonic
/// accounting *is* the measurement, so the comparison captures exactly
/// the stall the guest would observe (and `speedup` is the stall-removal
/// factor the async pipeline buys). The background worker's time is
/// still spent — `stall_cycles_avoided()` reports it — just no longer in
/// front of guest progress.
pub fn compare_async_translate() -> Comparison {
    let program = many_loops_kernel(24, 2_000);

    // Inline: every translation stalls the dispatch loop. Hot loops are
    // unrolled so each translation job carries a realistic optimization
    // payload (scheduling + allocation cost grows with region size); the
    // async path's enqueue + publish bookkeeping does not.
    let inline_cfg = SystemConfig {
        hot_threshold: 50,
        unroll_factor: 8,
        async_translate: false,
        ..Default::default()
    };
    // Async: the critical path only pays the enqueue and the publish
    // link-in. The deterministic in-thread stepper (`translate_workers =
    // 0`) stands in for the worker pool: on a single-core host a real
    // worker thread preempts the execution thread inside the stall
    // timers, so the measured "stall" would absorb slices of the
    // worker's own translation time and say nothing about the
    // bookkeeping cost the exec thread actually pays.
    let async_cfg = SystemConfig {
        async_translate: true,
        translate_workers: 0,
        translate_queue_depth: 8,
        ..inline_cfg.clone()
    };
    let (mut inline_ns, mut async_ns) = (Vec::new(), Vec::new());
    let (mut inline_jobs, mut async_jobs) = (0, 0);
    for _ in 0..ASYNC_SAMPLES {
        let mut sys = DynOptSystem::new(program.clone(), inline_cfg.clone());
        sys.run_to_completion(u64::MAX);
        let s = sys.stats();
        inline_jobs = (s.regions_formed + s.retranslations).max(1) as u64;
        assert!(
            s.regions_formed >= 16,
            "kernel must be translation-heavy, formed only {}",
            s.regions_formed
        );
        inline_ns.push(s.translation_ns as f64 / inline_jobs as f64);

        let mut sys = DynOptSystem::new(program.clone(), async_cfg.clone());
        sys.run_to_completion(u64::MAX);
        sys.translation_drain();
        let s = sys.stats();
        assert_eq!(s.translation_ns, 0, "async mode must not translate inline");
        assert!(s.async_published >= 1, "async run must publish regions");
        async_jobs = s.async_enqueued.max(1);
        async_ns.push(s.async_stall_ns as f64 / async_jobs as f64);
    }
    Comparison {
        name: "async_translate".into(),
        before: sampled("async_translate/inline_stall", inline_ns, inline_jobs),
        after: sampled("async_translate/queue_publish", async_ns, async_jobs),
    }
}

/// End-to-end runs per side of [`compare_async_translate`].
const ASYNC_SAMPLES: u32 = 5;

/// A measurement from one per-iteration figure per run: median, min, max.
fn sampled(name: &str, mut per_iter: Vec<f64>, iters: u64) -> Measurement {
    let ns_min = per_iter.iter().copied().fold(f64::INFINITY, f64::min);
    let ns_max = per_iter.iter().copied().fold(0.0, f64::max);
    Measurement {
        name: name.into(),
        ns_per_iter: median(&mut per_iter),
        ns_min,
        ns_max,
        iters_per_sample: iters,
        samples: per_iter.len() as u32,
    }
}

/// Absolute cycle-level simulator throughput on a real translated region
/// (no before/after — an absolute trajectory point).
pub fn measure_simulator_region() -> Measurement {
    let w = smarq_workloads::by_name("ammp").unwrap();
    let mut interp = Interpreter::new();
    interp.run(&w.program, 1_000_000);
    let sb = form_superblock(
        &w.program,
        interp.profile(),
        BlockId(1),
        FormationParams::default(),
    );
    let machine = MachineConfig::default();
    let opt = optimize_superblock(&sb, &OptConfig::smarq(64), &machine, &AliasBlacklist::new());
    let mut sim = Simulator::new(machine, AnyAliasHw::for_kind(HwKind::Smarq, 64));
    let mut state = VliwState::new();
    let mut mem = Memory::new();
    time_fn("simulator/ammp_region", move || {
        sim.run_region(&opt.vliw, &mut state, &mut mem).unwrap()
    })
}

/// Static validator + lint throughput (`crates/verify`): every region
/// the system forms for a batch of seeded random workloads, fully
/// re-checked per iteration — independent fact derivation, symbolic
/// queue replay and all four lint passes. Regions verified per second is
/// `1e9 / ns_per_iter`.
pub fn measure_validator_regions() -> Measurement {
    let machine = MachineConfig::default();
    let opt_cfg = OptConfig::smarq(64);
    let mut traces: Vec<OptTrace> = Vec::new();
    let mut scratch = AllocScratch::new();
    for seed in 0..8u64 {
        let w = smarq_workloads::random_workload(seed);
        let mut cfg = SystemConfig::with_opt(opt_cfg.clone());
        cfg.hot_threshold = 10;
        let mut sys = DynOptSystem::new(w.program, cfg);
        sys.run_to_completion(2_000_000);
        for sb in sys.formed_superblocks() {
            let (_, trace) = optimize_superblock_traced(
                sb,
                &opt_cfg,
                &machine,
                &AliasBlacklist::new(),
                &mut scratch,
            );
            if trace.allocation.is_some() {
                traces.push(trace);
            }
        }
    }
    assert!(!traces.is_empty(), "random workloads must form regions");
    let mut i = 0usize;
    time_fn("verify/random_region_check", move || {
        let t = &traces[i % traces.len()];
        i += 1;
        smarq_verify::check_trace(0, t, 64).len()
    })
}

/// Whole-chain static analyzer throughput at both granularities:
///
/// * `analyzer/region_ranged_check` — one range-aware region check
///   ([`smarq_verify::check_trace_ranged`] with the region's superblock
///   and analyzed entry state), the marginal cost verify-on-emit pays
///   per emitted region (the whole-program dataflow is computed once per
///   program and reused, so it stays outside the timed loop).
/// * `analyzer/chain_fixpoint` — one full [`DynOptSystem::analyze_chain`]
///   run: chain-graph fixpoint plus all five chain checks over every
///   cached region of one system.
///
/// Workloads are the same seeded random batch the validator measurement
/// uses, run under verify-on-emit so traces and assumed entry states are
/// retained.
pub fn measure_analyzer() -> (Measurement, Measurement) {
    let machine = MachineConfig::default();
    let opt_cfg = OptConfig::smarq(64);
    let mut scratch = AllocScratch::new();
    let mut systems: Vec<DynOptSystem> = Vec::new();
    let mut regions: Vec<(smarq_ir::Superblock, OptTrace, smarq::range::RegState)> = Vec::new();
    for seed in 0..8u64 {
        let w = smarq_workloads::random_workload(seed);
        let df = smarq_verify::analyze_reference(&w.program);
        let mut cfg = SystemConfig::with_opt(opt_cfg.clone());
        cfg.hot_threshold = 10;
        cfg.verify_translations = true;
        let mut sys = DynOptSystem::new(w.program, cfg);
        sys.run_to_completion(2_000_000);
        for sb in sys.formed_superblocks() {
            let (_, trace) = optimize_superblock_traced(
                sb,
                &opt_cfg,
                &machine,
                &AliasBlacklist::new(),
                &mut scratch,
            );
            if trace.allocation.is_some() {
                regions.push((sb.clone(), trace, *df.entry_state(sb.entry)));
            }
        }
        if sys.analyze_chain().is_some() {
            systems.push(sys);
        }
    }
    assert!(!regions.is_empty(), "random workloads must form regions");
    assert!(!systems.is_empty(), "random workloads must form chains");
    let mut i = 0usize;
    let per_region = time_fn("analyzer/region_ranged_check", move || {
        let (sb, trace, entry) = &regions[i % regions.len()];
        i += 1;
        smarq_verify::check_trace_ranged(0, trace, 64, Some((sb, entry))).len()
    });
    let mut j = 0usize;
    let per_chain = time_fn("analyzer/chain_fixpoint", move || {
        let sys = &systems[j % systems.len()];
        j += 1;
        sys.analyze_chain().map(|r| r.diagnostics.len())
    });
    (per_region, per_chain)
}

/// Wall-clock of the full 14x5 evaluation sweep, serial vs the scoped
/// thread fan-out (single shot each — the sweep is seconds, not micros).
pub struct SweepTiming {
    /// Serial sweep wall-clock, seconds.
    pub serial_s: f64,
    /// Parallel sweep wall-clock, seconds.
    pub parallel_s: f64,
    /// Worker threads used for the parallel sweep.
    pub threads: usize,
    /// Hardware threads the host reports
    /// ([`std::thread::available_parallelism`]) — recorded so a committed
    /// JSON is interpretable without knowing the machine it ran on.
    pub host_threads: usize,
    /// `true` when the machine has a single hardware thread: the
    /// "parallel" run would be the serial run again, so it is skipped and
    /// `parallel_s` mirrors `serial_s`. A `speedup()` of 1.00 from a
    /// degenerate sweep says nothing about the fan-out.
    pub degenerate: bool,
}

impl SweepTiming {
    /// Parallel speedup over the serial sweep (exactly 1.0 when
    /// [`SweepTiming::degenerate`]).
    pub fn speedup(&self) -> f64 {
        self.serial_s / self.parallel_s
    }
}

/// Times [`Evaluation::run_parallel`] at 1 thread and at the machine's
/// available parallelism. On a single-core machine the second run is
/// skipped ([`SweepTiming::degenerate`]) instead of re-measuring the
/// serial sweep and reporting the noise ratio as a "speedup".
pub fn time_eval_sweep() -> SweepTiming {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t0 = Instant::now();
    let serial = Evaluation::run_parallel(1);
    let serial_s = t0.elapsed().as_secs_f64();
    if threads == 1 {
        return SweepTiming {
            serial_s,
            parallel_s: serial_s,
            threads,
            host_threads: threads,
            degenerate: true,
        };
    }
    let t1 = Instant::now();
    let parallel = Evaluation::run_parallel(threads);
    let parallel_s = t1.elapsed().as_secs_f64();
    assert_eq!(
        serial.rows.len(),
        parallel.rows.len(),
        "sweeps cover the same benchmarks"
    );
    SweepTiming {
        serial_s,
        parallel_s,
        threads,
        host_threads: threads,
        degenerate: false,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Serializes the comparisons, absolute points, sweep timing and
/// multi-guest scaling as a small hand-written JSON document (the
/// container has no serde). Every timed number carries its median plus
/// the min/max repetition spread.
pub fn to_json(
    comparisons: &[Comparison],
    absolutes: &[Measurement],
    sweep: Option<&SweepTiming>,
    multi: Option<&crate::MultiGuestScaling>,
) -> String {
    let mut out = String::from("{\n  \"schema\": \"smarq-bench/2\",\n  \"comparisons\": [\n");
    for (i, c) in comparisons.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"before_ns_per_iter\": {:.1}, \"before_ns_min\": {:.1}, \"before_ns_max\": {:.1}, \"after_ns_per_iter\": {:.1}, \"after_ns_min\": {:.1}, \"after_ns_max\": {:.1}, \"samples\": {}, \"speedup\": {:.2}}}{}\n",
            json_escape(&c.name),
            c.before.ns_per_iter,
            c.before.ns_min,
            c.before.ns_max,
            c.after.ns_per_iter,
            c.after.ns_min,
            c.after.ns_max,
            c.before.samples.min(c.after.samples),
            c.speedup(),
            if i + 1 < comparisons.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"absolute\": [\n");
    for (i, m) in absolutes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_iter\": {:.1}, \"ns_min\": {:.1}, \"ns_max\": {:.1}, \"samples\": {}}}{}\n",
            json_escape(&m.name),
            m.ns_per_iter,
            m.ns_min,
            m.ns_max,
            m.samples,
            if i + 1 < absolutes.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]");
    if let Some(s) = sweep {
        if s.degenerate {
            // A single-hardware-thread host never ran a parallel sweep;
            // publishing its serial time as "parallel" and the noise ratio
            // as a speedup would be meaningless, so those fields are null.
            out.push_str(&format!(
                ",\n  \"eval_sweep\": {{\"serial_s\": {:.3}, \"parallel_s\": null, \"threads\": {}, \"host_threads\": {}, \"speedup\": null, \"degenerate\": true}}",
                s.serial_s, s.threads, s.host_threads
            ));
        } else {
            out.push_str(&format!(
                ",\n  \"eval_sweep\": {{\"serial_s\": {:.3}, \"parallel_s\": {:.3}, \"threads\": {}, \"host_threads\": {}, \"speedup\": {:.2}, \"degenerate\": false}}",
                s.serial_s,
                s.parallel_s,
                s.threads,
                s.host_threads,
                s.speedup()
            ));
        }
    }
    if let Some(m) = multi {
        out.push_str(&format!(
            ",\n  \"multiguest\": {{\"guests\": {}, \"reps\": {}, \"host_threads\": {}, \"degenerate\": {}, \"shared_translations\": {}, \"private_translations\": {}, \"scaling_speedup\": {}, \"rows\": [\n",
            m.guests,
            m.reps,
            m.host_threads,
            m.degenerate,
            m.shared_translations,
            m.private_translations,
            m.scaling_speedup()
                .map_or("null".to_string(), |s| format!("{s:.2}")),
        ));
        for (i, r) in m.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"threads\": {}, \"wall_s\": {:.3}, \"wall_min_s\": {:.3}, \"wall_max_s\": {:.3}, \"guest_programs_per_s\": {:.2}, \"guest_instrs_per_s\": {:.0}}}{}\n",
                r.threads,
                r.wall_s,
                r.wall_min_s,
                r.wall_max_s,
                r.guest_programs_per_s,
                r.guest_instrs_per_s,
                if i + 1 < m.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]}");
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn many_loops_kernel_halts_under_pure_interpretation() {
        // Regression: an early version reset the induction variable at
        // the top of each looping block, so every back edge re-ran the
        // reset and the guest never terminated (hanging `bench-json`).
        let p = many_loops_kernel(24, 2_000);
        let mut interp = Interpreter::new();
        let reason = interp.run(&p, 1_000_000);
        assert_eq!(reason, smarq_guest::RunOutcome::Halted);
        // 24 loops x 2000 iterations x 5 body instructions, plus the
        // entry/preheader glue.
        assert!(interp.executed_instrs() >= 24 * 2_000 * 5);
    }

    #[test]
    fn json_shape_is_plausible() {
        let mut m = Measurement::single("abs", 12.5, 10);
        m.ns_min = 11.0;
        m.ns_max = 14.0;
        let c = Comparison {
            name: "cmp".into(),
            before: m.clone(),
            after: Measurement {
                ns_per_iter: 5.0,
                ..m.clone()
            },
        };
        let j = to_json(&[c], &[m], None, None);
        assert!(j.contains("\"schema\": \"smarq-bench/2\""));
        assert!(j.contains("\"speedup\": 2.50"));
        assert!(j.contains("\"ns_per_iter\": 12.5"));
        assert!(j.contains("\"ns_min\": 11.0"));
        assert!(j.contains("\"ns_max\": 14.0"));
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
    }

    #[test]
    fn degenerate_sweep_is_marked_in_json() {
        let s = SweepTiming {
            serial_s: 4.2,
            parallel_s: 4.2,
            threads: 1,
            host_threads: 1,
            degenerate: true,
        };
        let j = to_json(&[], &[], Some(&s), None);
        assert!(j.contains("\"degenerate\": true"));
        assert!(j.contains("\"threads\": 1"));
        assert!(j.contains("\"host_threads\": 1"));
        assert!(j.contains("\"parallel_s\": null"));
        assert!(j.contains("\"speedup\": null"));
        assert!((s.speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn non_degenerate_sweep_keeps_numeric_fields() {
        let s = SweepTiming {
            serial_s: 4.0,
            parallel_s: 2.0,
            threads: 4,
            host_threads: 4,
            degenerate: false,
        };
        let j = to_json(&[], &[], Some(&s), None);
        assert!(j.contains("\"degenerate\": false"));
        assert!(j.contains("\"parallel_s\": 2.000"));
        assert!(j.contains("\"speedup\": 2.00"));
    }

    #[test]
    fn multiguest_json_degenerate_has_null_scaling() {
        let m = crate::MultiGuestScaling {
            guests: 8,
            reps: 5,
            host_threads: 1,
            degenerate: true,
            rows: vec![crate::MultiGuestRow {
                threads: 1,
                wall_s: 1.5,
                wall_min_s: 1.4,
                wall_max_s: 1.6,
                guest_programs_per_s: 5.33,
                guest_instrs_per_s: 1.0e7,
            }],
            shared_translations: 4,
            private_translations: 8,
        };
        let j = to_json(&[], &[], None, Some(&m));
        assert!(j.contains("\"multiguest\""));
        assert!(j.contains("\"scaling_speedup\": null"));
        assert!(j.contains("\"shared_translations\": 4"));
        assert!(j.contains("\"private_translations\": 8"));
        assert!(j.contains("\"wall_min_s\": 1.400"));
        assert_eq!(m.scaling_speedup(), None);
    }

    #[test]
    fn multiguest_scaling_speedup_is_first_over_last() {
        let row = |threads: usize, wall_s: f64| crate::MultiGuestRow {
            threads,
            wall_s,
            wall_min_s: wall_s,
            wall_max_s: wall_s,
            guest_programs_per_s: 8.0 / wall_s,
            guest_instrs_per_s: 1.0e7 / wall_s,
        };
        let m = crate::MultiGuestScaling {
            guests: 8,
            reps: 5,
            host_threads: 4,
            degenerate: false,
            rows: vec![row(1, 4.0), row(2, 2.5), row(4, 2.0)],
            shared_translations: 4,
            private_translations: 8,
        };
        assert!((m.scaling_speedup().unwrap() - 2.0).abs() < 1e-12);
        let j = to_json(&[], &[], None, Some(&m));
        assert!(j.contains("\"scaling_speedup\": 2.00"));
    }
}
