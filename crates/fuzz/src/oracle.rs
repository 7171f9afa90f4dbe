//! Layered differential oracles.
//!
//! One fuzz case is checked at five layers, cheapest evidence last, after
//! the reference run and its range check:
//!
//! 0. **Range containment** — the reference interpreter steps the program
//!    block by block, and at every block entry each guest register must lie
//!    in the interval the never-faulted whole-program dataflow
//!    ([`smarq_verify::analyze_reference`]) derived for it
//!    ([`check_containment`]). The optimizer reads those intervals to
//!    disambiguate memory pairs, so an escape is a miscompile waiting for
//!    the right addresses.
//! 1. **End-to-end** — a pure [`Interpreter`] run is the reference; the
//!    full [`DynOptSystem`] must reproduce the architectural state
//!    bit-exactly under every hardware scheme. A second run tier-down
//!    samples every region entry: each entry the timed `FastSim` ran is
//!    replayed on the cycle simulator, the reference, and must agree on
//!    state and on every region statistic, cycles included. A third run moves translation
//!    onto the async background pipeline (a manually stepped depth-1
//!    queue driven by a seeded interleaving schedule) and must again be
//!    bit-exact — every publish/execute/deopt interleaving is
//!    architecturally invisible.
//! 2. **Allocation validation** — every superblock the system formed is
//!    re-optimized through [`smarq_opt::optimize_superblock_traced_ranged`]
//!    against the entry state the runtime assumed for it, so the code under
//!    check is the code that ran, and the resulting allocation is replayed
//!    symbolically by [`validate_allocation`] (soundness, precision,
//!    mechanics).
//! 3. **Static verification** — the same regions go through
//!    [`smarq_verify`]'s independent constraint re-derivation and
//!    symbolic queue replay; any error-severity diagnostic is a
//!    divergence. Unlike layer 2 this layer does *not* share the
//!    production dependence analysis, so a consistent-but-wrong analysis
//!    (the injected faults of `smarq::fault`) is caught here without any
//!    execution at all.
//! 4. **Fast-path differential** — on the same live regions,
//!    [`DepGraph::compute`] vs [`DepGraph::compute_naive`] edge sets.
//! 5. **Whole-chain analysis** — the main run executes under
//!    verify-on-emit, so every memoized region→region link is
//!    chain-checked at resolution time, and afterwards
//!    [`DynOptSystem::analyze_chain`] re-proves the entire cached region
//!    graph at its cross-region fixpoint (write-mask coverage, entry-state
//!    obligations, nospec speculation). This is the only layer that sees
//!    *between* regions, so faults confined to region boundaries
//!    (`SMARQ_FAULT_DROP_BOUNDARY`, `SMARQ_FAULT_WIDEN_RANGE`) are caught
//!    here and nowhere else.
//!
//! The layering is the point: a consistent-but-wrong analysis slips past
//! the validator — which is fed the same wrong dependences — but cannot
//! slip past the independent static verifier, the differential or the
//! end-to-end state check.
//!
//! A separate multi-guest oracle ([`check_multi_guest`]) runs G distinct
//! programs as concurrent tenants of one shared
//! [`smarq_runtime::TranslationHub`] under a seeded interleaved schedule,
//! with verify-on-emit and every region entry sampled, and
//! cross-checks every guest against the same program run alone —
//! covering the shared-cache, cross-guest-invalidation and scheduling
//! machinery the single-guest layers cannot reach.

use smarq::validate::validate_allocation;
use smarq::{Dep, DepGraph, MemOpId};
use smarq_guest::{ArchState, Interpreter, Program, RunOutcome};
use smarq_opt::{optimize_superblock_traced_ranged, OptConfig, TranslationScratch};
use smarq_runtime::{
    run_multi_interleaved, DynOptSystem, GuestContext, HubConfig, StepExecutor, StopReason,
    SystemConfig, TranslationHub,
};

/// Oracle budgets and system knobs.
#[derive(Clone, Copy, Debug)]
pub struct OracleParams {
    /// Guest-instruction budget for the reference interpreter; a program
    /// that does not halt within it is reported as
    /// [`Divergence::Nontermination`] (a skip, not a failure).
    pub interp_budget: u64,
    /// Execution count at which the system considers a block hot (kept
    /// low so short fuzz programs actually form regions).
    pub hot_threshold: u64,
    /// Unroll factor for the optimized systems (larger regions exercise
    /// more alias registers).
    pub unroll_factor: u32,
}

impl Default for OracleParams {
    fn default() -> Self {
        OracleParams {
            interp_budget: 2_000_000,
            hot_threshold: 10,
            unroll_factor: 1,
        }
    }
}

/// The hardware schemes every case is checked under.
pub fn schemes() -> [(&'static str, OptConfig); 6] {
    [
        ("smarq64", OptConfig::smarq(64)),
        ("smarq8", OptConfig::smarq(8)),
        ("smarq_nsr", OptConfig::smarq_no_store_reorder(64)),
        ("efficeon", OptConfig::efficeon()),
        ("alat", OptConfig::alat()),
        ("none", OptConfig::no_alias_hw()),
    ]
}

/// A divergence found by one of the oracle layers.
#[derive(Clone, Debug)]
pub enum Divergence {
    /// The reference interpreter exhausted its budget; the case carries no
    /// signal and is skipped (the minimizer also uses this to reject edits
    /// that break termination).
    Nontermination,
    /// Layer 0: a concrete register value at a block entry escaped the
    /// interval the whole-program dataflow derived for it.
    RangeEscape {
        /// The block, register, value and interval.
        detail: String,
    },
    /// Layer 1: optimized execution left different architectural state.
    ArchMismatch {
        /// Scheme label from [`schemes`].
        scheme: &'static str,
        /// First differing locations.
        detail: String,
    },
    /// Layer 1b: the fast functional tier diverged from the cycle
    /// simulator — different final architectural state, different
    /// guest-instruction accounting, or a sampled tier-down comparison
    /// (state, memory or work counters) that disagreed mid-run.
    TierMismatch {
        /// Scheme label from [`schemes`].
        scheme: &'static str,
        /// What differed between the functional tier and the cycle sim.
        detail: String,
    },
    /// Layer 1c: the async background translation pipeline diverged from
    /// inline translation — different architectural state or different
    /// guest-instruction accounting under a seeded publish/execute
    /// interleaving schedule.
    AsyncMismatch {
        /// Scheme label from [`schemes`].
        scheme: &'static str,
        /// The schedule seed the divergence reproduces under.
        seed: u64,
        /// What differed between the async and inline runs.
        detail: String,
    },
    /// Layer 2: the symbolic validator rejected a produced allocation.
    ValidatorReject {
        /// Scheme label.
        scheme: &'static str,
        /// Region index in formation order.
        region: usize,
        /// The validator's error.
        detail: String,
    },
    /// Layer 3: the independent static verifier (`smarq_verify`) rejected
    /// a produced region — an error-severity structured diagnostic.
    StaticVerify {
        /// Scheme label.
        scheme: &'static str,
        /// Region index in formation order.
        region: usize,
        /// The first error diagnostic, JSON-serialized.
        detail: String,
    },
    /// Layer 4: fast dependence analysis disagrees with the naive oracle.
    DepGraphMismatch {
        /// Scheme label.
        scheme: &'static str,
        /// Region index in formation order.
        region: usize,
        /// Edge-set difference summary.
        detail: String,
    },
    /// Multi-guest: G guests sharing a [`TranslationHub`] diverged from
    /// the same programs run alone — a wrong per-guest architectural
    /// state, a broken publish ledger, a violated translate-once
    /// guarantee, or a seeded schedule that does not replay
    /// deterministically.
    MultiGuestMismatch {
        /// Scheme label from [`schemes`].
        scheme: &'static str,
        /// The interleaving seed the divergence reproduces under.
        seed: u64,
        /// What diverged between shared-hub and solo execution.
        detail: String,
    },
    /// Layer 5: the whole-chain analyzer rejected the cached region graph
    /// — a diverged fixpoint, a chain-boundary obligation violation, or
    /// speculation into an unspeculatable address range.
    ChainVerify {
        /// Scheme label.
        scheme: &'static str,
        /// The first chain-level error diagnostic, JSON-serialized (or a
        /// convergence-failure note).
        detail: String,
    },
}

impl Divergence {
    /// Short stable label for reports and corpus headers.
    pub fn kind(&self) -> &'static str {
        match self {
            Divergence::Nontermination => "nontermination",
            Divergence::RangeEscape { .. } => "range-escape",
            Divergence::ArchMismatch { .. } => "arch-mismatch",
            Divergence::TierMismatch { .. } => "tier-mismatch",
            Divergence::AsyncMismatch { .. } => "async-mismatch",
            Divergence::ValidatorReject { .. } => "validator-reject",
            Divergence::StaticVerify { .. } => "static-verify",
            Divergence::DepGraphMismatch { .. } => "depgraph-mismatch",
            Divergence::MultiGuestMismatch { .. } => "multiguest-mismatch",
            Divergence::ChainVerify { .. } => "chain-verify",
        }
    }

    /// `true` for real failures (everything except a skipped
    /// non-terminating case).
    pub fn is_failure(&self) -> bool {
        !matches!(self, Divergence::Nontermination)
    }
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::Nontermination => write!(f, "nontermination (skipped)"),
            Divergence::RangeEscape { detail } => write!(f, "range-escape: {detail}"),
            Divergence::ArchMismatch { scheme, detail } => {
                write!(f, "arch-mismatch under {scheme}: {detail}")
            }
            Divergence::TierMismatch { scheme, detail } => {
                write!(f, "tier-mismatch under {scheme}: {detail}")
            }
            Divergence::AsyncMismatch {
                scheme,
                seed,
                detail,
            } => write!(
                f,
                "async-mismatch under {scheme} (seed {seed:#x}): {detail}"
            ),
            Divergence::ValidatorReject {
                scheme,
                region,
                detail,
            } => write!(
                f,
                "validator-reject under {scheme} region {region}: {detail}"
            ),
            Divergence::StaticVerify {
                scheme,
                region,
                detail,
            } => write!(f, "static-verify under {scheme} region {region}: {detail}"),
            Divergence::DepGraphMismatch {
                scheme,
                region,
                detail,
            } => write!(
                f,
                "depgraph-mismatch under {scheme} region {region}: {detail}"
            ),
            Divergence::MultiGuestMismatch {
                scheme,
                seed,
                detail,
            } => write!(
                f,
                "multiguest-mismatch under {scheme} (seed {seed:#x}): {detail}"
            ),
            Divergence::ChainVerify { scheme, detail } => {
                write!(f, "chain-verify under {scheme}: {detail}")
            }
        }
    }
}

/// What a green oracle run covered.
#[derive(Clone, Copy, Debug, Default)]
pub struct OracleReport {
    /// Block entries whose concrete registers the range check (layer 0)
    /// found inside the derived intervals.
    pub range_entries: u64,
    /// Schemes executed end to end.
    pub schemes: usize,
    /// Functional-tier-vs-cycle-sim differentials that came out bit-exact
    /// (final state, instruction accounting, and every in-run sample).
    pub tier_differentials: usize,
    /// Async-pipeline-vs-inline differentials that came out bit-exact
    /// under a seeded publish/execute interleaving schedule.
    pub async_differentials: usize,
    /// Regions whose traces passed layers 2–4.
    pub regions_checked: usize,
    /// Allocations replayed by the validator.
    pub allocations_validated: usize,
    /// Regions proven by the independent static verifier.
    pub regions_verified: usize,
    /// Regions covered by a converged whole-chain analysis (layer 5).
    pub chain_regions: usize,
    /// Alias-exception rollbacks of the main run, per scheme of
    /// [`schemes`] (same order).
    pub rollbacks: [u64; 6],
    /// Entry-time alias guard misses of the main run, per scheme of
    /// [`schemes`] (same order).
    pub guard_misses: [u64; 6],
}

/// Steps `program` concretely block by block from its entry and checks,
/// at every block entry, that each guest register lies inside the
/// interval the never-faulted whole-program dataflow derived for it.
/// Returns the number of block entries checked.
///
/// # Errors
/// The first escape, a dataflow that did not converge, or a program that
/// has not halted after `max_entries` block entries.
pub fn check_containment(program: &Program, max_entries: u64) -> Result<u64, String> {
    let df = smarq_verify::analyze_reference(program);
    if !df.converged {
        return Err("the dataflow did not converge".to_string());
    }
    let mut interp = Interpreter::new();
    interp.load_data(program);
    let mut block = program.entry();
    let mut checked = 0u64;
    loop {
        let st = df.entry_state(block);
        for (r, iv) in st.iter().enumerate().take(32) {
            if !iv.contains(interp.regs[r]) {
                return Err(format!(
                    "at block {block:?} entry #{checked}, r{r} = {} outside derived {iv}",
                    interp.regs[r]
                ));
            }
        }
        checked += 1;
        match interp.step_block(program, block) {
            Some(next) => block = next,
            None => return Ok(checked),
        }
        if checked >= max_entries {
            return Err(format!("no halt within {max_entries} block entries"));
        }
    }
}

fn arch_diff(expected: &ArchState, got: &ArchState) -> String {
    for i in 0..32 {
        if expected.regs[i] != got.regs[i] {
            return format!("r{i}: expected {}, got {}", expected.regs[i], got.regs[i]);
        }
    }
    for i in 0..32 {
        if expected.fregs[i] != got.fregs[i] {
            return format!(
                "f{i}: expected {:#x}, got {:#x}",
                expected.fregs[i], got.fregs[i]
            );
        }
    }
    "memory contents differ".to_string()
}

fn dep_key(d: &Dep) -> (MemOpId, MemOpId, u8) {
    (d.src, d.dst, d.kind as u8)
}

/// Runs all oracle layers over `program`.
///
/// # Errors
/// The first [`Divergence`] found, layer by layer per scheme.
pub fn check_program(program: &Program, params: &OracleParams) -> Result<OracleReport, Divergence> {
    // Layer 0: the reference run.
    let mut reference = Interpreter::new();
    if reference.run(program, params.interp_budget) == RunOutcome::BudgetExhausted {
        return Err(Divergence::Nontermination);
    }
    let expected = reference.arch_state();

    // Layer 0: the reference run halted, so stepping it again does too.
    let range_entries = check_containment(program, u64::MAX)
        .map_err(|detail| Divergence::RangeEscape { detail })?;
    let mut report = OracleReport {
        range_entries,
        ..OracleReport::default()
    };
    let mut scratch = TranslationScratch::new();
    for (label, opt) in schemes() {
        let mut cfg = SystemConfig::with_opt(opt.clone());
        cfg.hot_threshold = params.hot_threshold;
        cfg.unroll_factor = params.unroll_factor;
        // Verify-on-emit for the main run: regions keep their traces, so
        // link resolutions are chain-checked live and layer 5 can re-prove
        // the whole region graph afterwards.
        cfg.verify_translations = true;
        let mut sys = DynOptSystem::new(program.clone(), cfg.clone());
        sys.run_to_completion(u64::MAX);
        report.rollbacks[report.schemes] = sys.stats().rollbacks;
        report.guard_misses[report.schemes] = sys.stats().guard_misses;
        report.schemes += 1;

        // Layer 1: bit-exact architectural state.
        let got = sys.interp().arch_state();
        if got != expected {
            return Err(Divergence::ArchMismatch {
                scheme: label,
                detail: arch_diff(&expected, &got),
            });
        }

        // Layer 1b: the timed `FastSim` vs the cycle simulator. Same
        // program, same scheme, every region entry tier-down sampled: the
        // final architectural state and the guest-instruction accounting
        // must match the run above, and every in-run sample must have
        // been bit-exact, statistics included (so the compiled-out
        // queue's static examined counts and the compiled-out timing are
        // checked on every entry).
        let mut fast_cfg = cfg.clone();
        fast_cfg.tier_sample_interval = 1;
        let mut fast_sys = DynOptSystem::new(program.clone(), fast_cfg);
        fast_sys.run_to_completion(u64::MAX);
        let fast_got = fast_sys.interp().arch_state();
        if fast_got != expected {
            return Err(Divergence::TierMismatch {
                scheme: label,
                detail: format!(
                    "functional tier arch state: {}",
                    arch_diff(&expected, &fast_got)
                ),
            });
        }
        if fast_sys.stats().guest_instrs() != sys.stats().guest_instrs() {
            return Err(Divergence::TierMismatch {
                scheme: label,
                detail: format!(
                    "guest_instrs: cycle-sim {} vs functional {}",
                    sys.stats().guest_instrs(),
                    fast_sys.stats().guest_instrs()
                ),
            });
        }
        if fast_sys.stats().tier_sample_mismatches != 0 {
            return Err(Divergence::TierMismatch {
                scheme: label,
                detail: format!(
                    "{} of {} tier-down samples were not bit-exact",
                    fast_sys.stats().tier_sample_mismatches,
                    fast_sys.stats().tier_samples
                ),
            });
        }
        report.tier_differentials += 1;

        // Layer 1c: async background translation vs inline. Same program,
        // same scheme, but translations flow through a manually stepped
        // depth-1 pipeline whose publish points are interleaved against
        // guest dispatch by a seeded xorshift schedule. Whatever the
        // schedule — stale regions running, publishes landing mid-chain,
        // deopts racing retranslations — the architectural state and the
        // guest-instruction accounting must be bit-exact.
        let seed = 0xa11a_5000 + report.schemes as u64;
        let mut async_cfg = cfg.clone();
        async_cfg.async_translate = true;
        async_cfg.translate_queue_depth = 1;
        let mut async_sys = DynOptSystem::with_executor(
            program.clone(),
            async_cfg,
            Box::new(StepExecutor::manual(1)),
        );
        if async_sys.run_interleaved(seed, u64::MAX) != StopReason::Halted {
            return Err(Divergence::AsyncMismatch {
                scheme: label,
                seed,
                detail: "async run did not halt".to_string(),
            });
        }
        let async_got = async_sys.interp().arch_state();
        if async_got != expected {
            return Err(Divergence::AsyncMismatch {
                scheme: label,
                seed,
                detail: format!("async arch state: {}", arch_diff(&expected, &async_got)),
            });
        }
        // (No guest_instrs comparison here: that counter reflects region
        // shapes, and the async run legitimately forms regions from later
        // profile snapshots than the inline run does.)
        report.async_differentials += 1;

        // Layers 2 and 3 over every region the system actually formed,
        // optimized against the entry state the runtime assumed for it.
        for (region, sb) in sys.formed_superblocks().enumerate() {
            let (_, trace) = optimize_superblock_traced_ranged(
                sb,
                &opt,
                &cfg.machine,
                sys.blacklist(),
                &mut scratch,
                sys.assumed_entry(region),
            );

            // Layer 4: dependence fast path vs naive oracle.
            let mut fast: Vec<_> = DepGraph::compute(&trace.spec).iter().collect();
            let mut naive: Vec<_> = DepGraph::compute_naive(&trace.spec).iter().collect();
            fast.sort_by_key(dep_key);
            naive.sort_by_key(dep_key);
            if fast != naive {
                let missing: Vec<_> = naive.iter().filter(|d| !fast.contains(d)).collect();
                let extra: Vec<_> = fast.iter().filter(|d| !naive.contains(d)).collect();
                return Err(Divergence::DepGraphMismatch {
                    scheme: label,
                    region,
                    detail: format!(
                        "{} edges missing from fast path {missing:?}, {} extra {extra:?}",
                        missing.len(),
                        extra.len()
                    ),
                });
            }

            if let Some(alloc) = &trace.allocation {
                // Layer 2: symbolic replay of the allocation.
                if let Err(e) =
                    validate_allocation(&trace.spec, &trace.deps, &trace.mem_schedule, alloc)
                {
                    return Err(Divergence::ValidatorReject {
                        scheme: label,
                        region,
                        detail: e.diagnostic(region).to_json(),
                    });
                }
                report.allocations_validated += 1;
            }

            // Layer 3: the independent static verifier. Fed the original
            // region, not the production dependence analysis, so it also
            // catches consistent-but-wrong analyses — with no execution.
            let diags = smarq_verify::verify_trace(region, &trace, opt.num_alias_regs);
            if let Some(d) = diags.iter().find(|d| d.severity == smarq::Severity::Error) {
                return Err(Divergence::StaticVerify {
                    scheme: label,
                    region,
                    detail: d.to_json(),
                });
            }
            report.regions_verified += 1;
            report.regions_checked += 1;
        }

        // Layer 5: whole-chain analysis over the regions exactly as the
        // system cached them (entry assumptions, write masks, links). The
        // link-time incremental checks already ran during execution; here
        // the full cross-region fixpoint is re-proven in one pass.
        if sys.stats().chain_errors != 0 {
            // `verify_diagnostics` mixes emission and chain findings, and
            // warnings with errors; pick the first chain-layer error.
            let detail = sys
                .stats()
                .verify_diagnostics
                .iter()
                .find(|d| {
                    d.severity == smarq::Severity::Error
                        && (d.code.starts_with("chain-")
                            || d.code == "nospec-speculation"
                            || d.code == "range-unproven-disjoint")
                })
                .map_or_else(
                    || "link-time chain check failed".to_string(),
                    |d| d.to_json(),
                );
            return Err(Divergence::ChainVerify {
                scheme: label,
                detail,
            });
        }
        if let Some(chain) = sys.analyze_chain() {
            if !chain.converged {
                return Err(Divergence::ChainVerify {
                    scheme: label,
                    detail: format!(
                        "chain fixpoint did not converge after {} iterations",
                        chain.iterations
                    ),
                });
            }
            if let Some(d) = chain
                .diagnostics
                .iter()
                .find(|d| d.severity == smarq::Severity::Error)
            {
                return Err(Divergence::ChainVerify {
                    scheme: label,
                    detail: d.to_json(),
                });
            }
            report.chain_regions += chain.regions;
        }
    }
    Ok(report)
}

/// What a green multi-guest oracle run covered.
#[derive(Clone, Copy, Debug, Default)]
pub struct MultiGuestReport {
    /// Schemes executed end to end.
    pub schemes: usize,
    /// Guests in the shared-hub run (the distinct programs plus one
    /// duplicate of guest 0, which exercises cross-guest cache sharing).
    pub guests: usize,
    /// Schemes on which the translate-once counter check was exact (it is
    /// only decidable for rollback-free runs: shared rollback budgets and
    /// the shared blacklist legitimately change which regions form).
    pub translate_once_checks: usize,
}

/// Multi-guest differential oracle: runs `programs` (each as its own
/// guest, plus a duplicate of `programs[0]` to exercise cross-guest cache
/// sharing) through one shared [`TranslationHub`] under a seeded
/// interleaved schedule, and cross-checks every guest against the same
/// program run alone.
///
/// Translation is inline (`workers = 0`), so the whole run — publishes,
/// withdrawals, deopts included — is a pure function of `seed`; a
/// divergence replays from the seed and the generating seeds alone. The
/// oracle checks, per scheme:
///
/// * every guest's final architectural state is bit-exact vs. a pure
///   interpreter run of its program;
/// * no guest reports a verify-on-emit error, a link-time chain error or
///   a tier-down sample mismatch, and the hub verified no error;
/// * the hub's publish ledger balances and nothing is left in flight;
/// * on rollback-free runs, the shared cache translated each unique
///   region exactly once across guests (the solo runs' claim counts,
///   with the duplicate guest counted once);
/// * re-running the same seed reproduces identical per-guest states and
///   an identical hub counter trajectory.
///
/// # Errors
/// [`Divergence::Nontermination`] if any reference run exhausts its
/// budget (a skip), otherwise the first [`Divergence::MultiGuestMismatch`]
/// found.
pub fn check_multi_guest(
    programs: &[Program],
    params: &OracleParams,
    seed: u64,
) -> Result<MultiGuestReport, Divergence> {
    let mut refs = Vec::with_capacity(programs.len());
    for p in programs {
        let mut reference = Interpreter::new();
        if reference.run(p, params.interp_budget) == RunOutcome::BudgetExhausted {
            return Err(Divergence::Nontermination);
        }
        refs.push(reference.arch_state());
    }
    // The references halted within `interp_budget`; 4x headroom means a
    // guest that fails to halt is a real lost-progress bug, not a budget
    // artifact.
    let budget = params.interp_budget.saturating_mul(4);

    let mut report = MultiGuestReport::default();
    for (label, opt) in schemes() {
        let mut cfg = SystemConfig::with_opt(opt.clone());
        cfg.hot_threshold = params.hot_threshold;
        cfg.unroll_factor = params.unroll_factor;
        // Every guest verifies what it installs, chain-checks every link
        // and replays every region entry on the cycle simulator.
        cfg.verify_translations = true;
        cfg.tier_sample_interval = 1;
        let mut hub_cfg = HubConfig::from_system(&cfg);
        hub_cfg.workers = 0; // inline translation: deterministic in `seed`
        let err = |detail: String| Divergence::MultiGuestMismatch {
            scheme: label,
            seed,
            detail,
        };

        // Solo baselines: each program alone through a private hub.
        let mut solo_started = 0u64;
        let mut solo_rollbacks = 0u64;
        for (i, p) in programs.iter().enumerate() {
            let hub = TranslationHub::new(hub_cfg.clone());
            let mut g = GuestContext::new(i, p.clone(), &hub);
            g.run_to_completion(&hub, budget);
            if !g.halted() {
                return Err(err(format!("solo guest {i} did not halt within budget")));
            }
            if g.interp().arch_state() != refs[i] {
                return Err(err(format!(
                    "solo guest {i}: {}",
                    arch_diff(&refs[i], &g.interp().arch_state())
                )));
            }
            let s = hub.stats();
            solo_started += s.translations_started;
            solo_rollbacks += s.rollbacks;
        }

        // The shared run, twice with the same seed: once for the
        // differential, once for replayability.
        let run = |run_seed: u64| {
            let hub = TranslationHub::new(hub_cfg.clone());
            let mut guests: Vec<GuestContext> = programs
                .iter()
                .chain(std::iter::once(&programs[0]))
                .enumerate()
                .map(|(i, p)| GuestContext::new(i, p.clone(), &hub))
                .collect();
            run_multi_interleaved(&hub, &mut guests, run_seed, budget);
            let states: Vec<ArchState> = guests.iter().map(|g| g.interp().arch_state()).collect();
            let halted = guests.iter().all(GuestContext::halted);
            let findings = guests
                .iter()
                .map(|g| {
                    let s = g.stats();
                    (s.verify_errors, s.chain_errors, s.tier_sample_mismatches)
                })
                .find(|&f| f != (0, 0, 0));
            hub.drain();
            (states, halted, findings, hub.stats())
        };
        let (states, halted, findings, stats) = run(seed);
        if !halted {
            return Err(err("a shared-hub guest did not halt within budget".into()));
        }
        if let Some((verify, chain, tier)) = findings {
            return Err(err(format!(
                "a shared-hub guest reported {verify} verify error(s), {chain} chain \
                 error(s) and {tier} tier-down sample mismatch(es)"
            )));
        }
        if stats.verify_errors != 0 {
            return Err(err(format!(
                "the hub verified {} error(s)",
                stats.verify_errors
            )));
        }
        for (i, got) in states.iter().enumerate() {
            // Guests are programs[0..n] followed by programs[0] again.
            let expect = if i < programs.len() {
                &refs[i]
            } else {
                &refs[0]
            };
            if got != expect {
                return Err(err(format!("guest {i}: {}", arch_diff(expect, got))));
            }
        }
        if stats.inflight_keys != 0
            || stats.translations_started + stats.retranslations
                != stats.translations_published + stats.publish_conflicts
            || stats.published_keys + stats.abandoned_keys != stats.translations_started
        {
            return Err(err(format!("publish ledger does not balance: {stats:?}")));
        }
        // Translate-once is only exact without rollbacks: shared rollback
        // budgets and the shared blacklist legitimately reshape regions.
        if solo_rollbacks == 0 && stats.rollbacks == 0 {
            if stats.translations_started != solo_started {
                return Err(err(format!(
                    "translate-once violated: shared hub claimed {} translations, \
                     solo runs claimed {solo_started}",
                    stats.translations_started
                )));
            }
            report.translate_once_checks += 1;
        }
        let (states2, _, _, stats2) = run(seed);
        if states2 != states || stats2 != stats {
            return Err(err(
                "same seed did not replay the same states and counters".into()
            ));
        }
        report.schemes += 1;
        report.guests = programs.len() + 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, FuzzParams};

    #[test]
    fn clean_code_passes_all_layers() {
        let p = generate(1, &FuzzParams::default());
        let report = check_program(&p, &OracleParams::default()).expect("no divergence");
        assert_eq!(report.schemes, 6);
        assert_eq!(report.tier_differentials, 6);
        assert_eq!(report.async_differentials, 6);
        assert!(report.range_entries > 0, "no block entry range-checked");
        assert!(report.regions_checked > 0, "no regions formed");
        assert!(report.allocations_validated > 0, "no allocations replayed");
        assert!(
            report.regions_verified > 0,
            "no regions statically verified"
        );
        assert!(
            report.chain_regions > 0,
            "no regions covered by whole-chain analysis"
        );
    }

    #[test]
    fn multi_guest_clean_set_passes() {
        let programs: Vec<_> = (10..13)
            .map(|s| generate(s, &FuzzParams::default()))
            .collect();
        let report = check_multi_guest(&programs, &OracleParams::default(), 0x5eed)
            .expect("no multi-guest divergence");
        assert_eq!(report.schemes, 6);
        assert_eq!(report.guests, 4, "three distinct programs + one duplicate");
    }

    #[test]
    fn multi_guest_nontermination_is_a_skip() {
        let programs: Vec<_> = (10..12)
            .map(|s| generate(s, &FuzzParams::default()))
            .collect();
        let d = check_multi_guest(
            &programs,
            &OracleParams {
                interp_budget: 3,
                ..OracleParams::default()
            },
            0x5eed,
        )
        .unwrap_err();
        assert!(!d.is_failure());
    }

    #[test]
    fn nontermination_is_reported_as_skip() {
        // Trip count 1 loop but with a tiny budget: the reference cannot
        // finish, so the oracle must skip rather than fail.
        let p = generate(2, &FuzzParams::default());
        let d = check_program(
            &p,
            &OracleParams {
                interp_budget: 3,
                ..OracleParams::default()
            },
        )
        .unwrap_err();
        assert!(!d.is_failure());
        assert_eq!(d.kind(), "nontermination");
    }
}
