//! # smarq-opt — speculative optimizations, scheduling and emission
//!
//! The optimization pipeline of the paper's dynamic optimizer (§6), over a
//! superblock region:
//!
//! 1. **Speculative load/store elimination** ([`elim`]): redundant-load
//!    removal and store→load forwarding across may-aliasing stores, and
//!    dead-store removal across may-aliasing loads — the optimizations
//!    whose *extended dependences* motivate SMARQ's constraint analysis.
//! 2. **Dependence DAG construction** ([`dag`]): register and memory
//!    dependences; may-alias edges are *speculation candidates* that the
//!    target hardware policy may drop.
//! 3. **List scheduling** ([`sched`]): latency-driven scheduling with the
//!    SMARQ alias register allocator embedded exactly as in the paper's
//!    Figure 13 — constraints are built and registers allocated as each
//!    memory operation is scheduled, and the allocator's overflow estimate
//!    switches the scheduler between speculation and non-speculation modes.
//! 4. **Annotation + VLIW emission** ([`emit`]): P/C bits, offsets, AMOV
//!    and rotate instructions for SMARQ; ALAT set/clear for the
//!    Itanium-like model; greedy bundling for the in-order machine.
//!
//! The entry point is [`optimize_superblock`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blacklist;
mod config;
pub mod dag;
pub mod elim;
pub mod emit;
pub mod fastcomp;
pub mod sched;

pub use blacklist::AliasBlacklist;
pub use config::OptConfig;

use smarq::DepGraph;
use smarq_ir::{build_region_spec, AliasAnalysis, OpOrigin, Superblock};
use smarq_vliw::{MachineConfig, VliwProgram};

/// Aggregate optimization statistics for one region (feeding the paper's
/// Figures 14, 17 and 19).
///
/// Only what the translation computes anyway is recorded here. Figure 17's
/// live-range lower bound on the working set re-derives the region's whole
/// constraint graph, so it is not: [`OptTrace::lower_bound`] computes it
/// on demand, and a runtime that kept no trace re-derives one off the
/// translation path (`smarq_runtime::DynOptSystem::region_trace`).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct OptStats {
    /// IR operations in the region (before elimination).
    pub ir_ops: usize,
    /// Memory operations in the region (before elimination).
    pub mem_ops: usize,
    /// Speculative load eliminations applied.
    pub spec_load_elims: usize,
    /// Speculative store eliminations applied.
    pub spec_store_elims: usize,
    /// Non-speculative (fully proven) eliminations applied.
    pub nonspec_elims: usize,
    /// Check-constraints inserted.
    pub checks: usize,
    /// Anti-constraints inserted.
    pub antis: usize,
    /// AMOV instructions inserted.
    pub amovs: usize,
    /// AMOVs that truly move (the rest only clean up).
    pub amov_moves: usize,
    /// Operations that set an alias register (P bit).
    pub p_ops: usize,
    /// Alias register working set (max offset + 1).
    pub working_set: u32,
    /// Scheduled memory operations (after elimination).
    pub scheduled_mem_ops: usize,
    /// Times the scheduler retried with less speculation after a register
    /// overflow.
    pub overflow_retries: u32,
    /// Host nanoseconds spent in list scheduling + alias register
    /// allocation (the paper instruments exactly this slice for Figure 18).
    pub sched_ns: u64,
}

/// A fully optimized, annotated, bundled region.
#[derive(Clone, Debug)]
pub struct Optimized {
    /// The emitted VLIW code.
    pub vliw: VliwProgram,
    /// Statistics.
    pub stats: OptStats,
    /// Memory-op tag (as reported in alias exceptions) → guest origin.
    pub tag_origin: Vec<OpOrigin>,
}

/// The intermediate artifacts of one (successful) optimization attempt,
/// exposed for external oracles: the fuzzer replays
/// [`smarq::validate::validate_allocation`] and the differential
/// dependence/queue checks over exactly the regions the optimizer
/// produced, not synthetic ones.
#[derive(Clone, Debug)]
pub struct OptTrace {
    /// The region view handed to the constraint analysis (after
    /// eliminations were recorded).
    pub spec: smarq::RegionSpec,
    /// The dependence graph the allocator consumed.
    pub deps: smarq::DepGraph,
    /// Surviving memory operations in final scheduled order.
    pub mem_schedule: Vec<smarq::MemOpId>,
    /// The alias register allocation (`None` for hardware schemes without
    /// an embedded allocator, e.g. ALAT or no-alias-support).
    pub allocation: Option<smarq::Allocation>,
    /// Per [`smarq::MemOpId`] index: the superblock op index it lowers.
    /// Lets external analyzers relate allocation-level findings back to
    /// the IR (e.g. to re-derive address ranges for scheduled mem ops).
    pub mem_origin: Vec<usize>,
}

impl OptTrace {
    /// The live-range lower bound on the alias register working set of
    /// this schedule (Figure 17; see [`smarq::live_range_lower_bound`]),
    /// or 0 without an allocation. Computed on demand: it re-derives the
    /// region's constraint graph, which no translation needs.
    pub fn lower_bound(&self) -> u32 {
        match self.allocation {
            Some(_) => smarq::live_range_lower_bound(&self.spec, &self.deps, &self.mem_schedule),
            None => 0,
        }
    }
}

/// Optimizes one superblock for the configured hardware.
///
/// On alias-register overflow the pipeline retries with progressively less
/// speculation (first dropping speculative eliminations, then all memory
/// speculation); the retry count is reported in
/// [`OptStats::overflow_retries`].
///
/// # Panics
/// Panics if `sb` fails [`Superblock::validate`] (caller bug).
pub fn optimize_superblock(
    sb: &Superblock,
    config: &OptConfig,
    machine: &MachineConfig,
    blacklist: &AliasBlacklist,
) -> Optimized {
    optimize_superblock_traced(
        sb,
        config,
        machine,
        blacklist,
        &mut smarq::AllocScratch::new(),
    )
    .0
}

/// Like [`optimize_superblock`], but recycles `scratch` for the embedded
/// alias register allocator and also returns the [`OptTrace`] of the
/// successful attempt. A long-running translator (see `smarq-runtime`)
/// keeps one scratch per thread so back-to-back region translations reuse
/// the allocator's working memory; results are identical to a fresh
/// scratch. The trace lets callers replay external oracles (allocation
/// validation, differential dependence checks) over the exact
/// region/schedule/allocation the optimizer committed to.
///
/// # Panics
/// Panics if `sb` fails [`Superblock::validate`] (caller bug).
pub fn optimize_superblock_traced(
    sb: &Superblock,
    config: &OptConfig,
    machine: &MachineConfig,
    blacklist: &AliasBlacklist,
    scratch: &mut smarq::AllocScratch,
) -> (Optimized, OptTrace) {
    optimize_superblock_traced_ranged(sb, config, machine, blacklist, scratch, None)
}

/// Like [`optimize_superblock_traced`], with an optional abstract **entry
/// register state** from a whole-program dataflow analysis (see
/// `smarq-verify`). When [`OptConfig::nospec`] is non-empty, the entry
/// state sharpens the address intervals used to decide which memory
/// operations are *tainted* (can touch an unspeculatable range): with
/// `None`, every entry-dependent address is unknown (⊤) and conservatively
/// tainted. Tainted ops are excluded from every elimination and pinned in
/// program order against all other memory operations.
///
/// # Panics
/// Panics if `sb` fails [`Superblock::validate`] (caller bug).
pub fn optimize_superblock_traced_ranged(
    sb: &Superblock,
    config: &OptConfig,
    machine: &MachineConfig,
    blacklist: &AliasBlacklist,
    scratch: &mut smarq::AllocScratch,
    entry: Option<&smarq::RegState>,
) -> (Optimized, OptTrace) {
    sb.validate().expect("well-formed superblock");
    let mut cfg = config.clone();
    for retry in 0..3u32 {
        match try_optimize(sb, &cfg, machine, blacklist, scratch, entry) {
            Ok((mut opt, trace)) => {
                opt.stats.overflow_retries = retry;
                return (opt, trace);
            }
            Err(Overflowed) => {
                if cfg.allow_spec_load_elim || cfg.allow_spec_store_elim {
                    cfg.allow_spec_load_elim = false;
                    cfg.allow_spec_store_elim = false;
                } else {
                    cfg.speculate_reordering = false;
                }
            }
        }
    }
    unreachable!("non-speculative optimization cannot overflow the alias register file")
}

/// Internal marker: the alias register file overflowed; retry with less
/// speculation.
struct Overflowed;

fn try_optimize(
    sb: &Superblock,
    config: &OptConfig,
    machine: &MachineConfig,
    blacklist: &AliasBlacklist,
    scratch: &mut smarq::AllocScratch,
    entry: Option<&smarq::RegState>,
) -> Result<(Optimized, OptTrace), Overflowed> {
    let analysis = AliasAnalysis::new(sb);
    let (mut spec, map) = build_region_spec(sb, &analysis);
    // Nospec taint: which memory ops can touch an unspeculatable range,
    // under the derived address intervals (entry state from the caller's
    // whole-program dataflow, or ⊤ when none is available).
    let taint = if config.nospec.is_empty() {
        vec![false; sb.ops.len()]
    } else {
        let ranges = match entry {
            Some(e) => smarq_ir::analyze_superblock(sb, e),
            None => smarq_ir::analyze_superblock_top(sb),
        };
        smarq_ir::nospec_taint(sb, &ranges, &config.nospec)
    };
    for (i, &t) in taint.iter().enumerate() {
        if t {
            if let Some(id) = map.mem_id(i) {
                spec.set_nospec(id);
            }
        }
    }
    let mut elims =
        elim::run_eliminations(sb, &analysis, &mut spec, &map, config, blacklist, &taint);
    elim::dce(sb, &mut elims);
    let deps = DepGraph::compute(&spec);
    // The drop-deps fault models an allocator that misses a dependence the
    // scheduler speculated past, so the scheduler keeps the whole graph.
    let unfaulted;
    let dag_deps = if smarq::fault::drop_plain_deps_enabled() {
        unfaulted = DepGraph::compute_naive(&spec);
        &unfaulted
    } else {
        &deps
    };
    let work = dag::build_work_list(sb, &elims);
    let graph = dag::build_dag(
        sb, &analysis, &work, dag_deps, &map, config, machine, blacklist, &taint,
    );
    let sched_start = std::time::Instant::now();
    // On overflow the scratch is dropped inside the allocator; leave the
    // caller's slot holding a fresh (empty) one.
    let sched = match sched::schedule_with_scratch(
        &work,
        &graph,
        config,
        machine,
        &spec,
        &deps,
        &map,
        std::mem::take(scratch),
    ) {
        Ok((res, s)) => {
            *scratch = s;
            res
        }
        Err(_) => return Err(Overflowed),
    };
    let sched_ns = sched_start.elapsed().as_nanos() as u64;
    if config.hw == smarq_vliw::HwKind::Efficeon {
        if let Some(alloc) = &sched.allocation {
            if alloc.stats().amovs > 0 {
                // The bit-mask file has no AMOV: a cyclic constraint graph
                // cannot be realized. Retry with less speculation (the
                // cycles come from speculative eliminations).
                return Err(Overflowed);
            }
        }
    }
    let vliw = emit::emit(sb, &analysis, &work, &sched, config, machine, &map);

    let mut stats = OptStats {
        ir_ops: sb.ops.len(),
        mem_ops: map.len(),
        spec_load_elims: elims.spec_load_elims,
        spec_store_elims: elims.spec_store_elims,
        nonspec_elims: elims.nonspec_elims,
        scheduled_mem_ops: sched
            .linear
            .iter()
            .filter(|&&k| work.ops[k].is_mem())
            .count(),
        sched_ns,
        ..OptStats::default()
    };
    // Surviving memory operations in final scheduled order (eliminated
    // loads appear as copies in the work list; their original memory ids
    // must not be resurrected here).
    let mem_sched: Vec<_> = sched
        .linear
        .iter()
        .filter(|&&k| work.ops[k].is_mem())
        .filter_map(|&k| map.mem_id(work.orig[k]))
        .collect();
    if let Some(alloc) = &sched.allocation {
        let s = alloc.stats();
        stats.checks = s.checks;
        stats.antis = s.antis;
        stats.amovs = s.amovs;
        stats.amov_moves = s.amov_moves;
        stats.p_ops = s.p_ops;
        stats.working_set = alloc.working_set();
    }

    // Memory-op tags are MemOpId indices; map them back to guest origins.
    let mem_origin: Vec<usize> = (0..map.len())
        .map(|k| map.op_index(smarq::MemOpId::new(k)))
        .collect();
    let tag_origin: Vec<OpOrigin> = mem_origin.iter().map(|&i| sb.origins[i]).collect();

    Ok((
        Optimized {
            vliw,
            stats,
            tag_origin,
        },
        OptTrace {
            spec,
            deps,
            mem_schedule: mem_sched,
            allocation: sched.allocation,
            mem_origin,
        },
    ))
}
