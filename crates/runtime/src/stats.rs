//! End-to-end execution statistics.

use smarq::{Diagnostic, Severity};
use smarq_guest::BlockId;
use smarq_opt::{OptStats, PhaseNs};

/// Per-formed-region record (drives the paper's Figures 14, 17, 19).
#[derive(Clone, Debug)]
pub struct RegionRecord {
    /// Region entry block.
    pub entry: BlockId,
    /// Optimization statistics at last (re-)translation.
    pub opt: OptStats,
    /// Times this region was entered.
    pub entries: u64,
    /// Rollbacks suffered.
    pub rollbacks: u64,
    /// Re-translations after exceptions.
    pub retranslations: u32,
}

/// Whole-system statistics.
#[derive(Clone, Debug, Default)]
pub struct SystemStats {
    /// Guest instructions executed by the interpreter.
    pub interp_instrs: u64,
    /// Guest instructions covered by translated region executions
    /// (approximated per exit point).
    pub region_guest_instrs: u64,
    /// Simulated cycles spent in translated regions (incl. checkpoint and
    /// rollback penalties), read off the timed `FastSim`'s table, which
    /// the tier-down samples check against the cycle simulator.
    pub vliw_cycles: u64,
    /// Simulated cycles attributed to interpretation
    /// (`interp_instrs × interp_cycles_per_instr`).
    pub interp_cycles: u64,
    /// Host nanoseconds spent translating/optimizing (the paper's
    /// Figure 18 overhead, measured around the optimizer like the paper's
    /// marker symbols).
    pub translation_ns: u64,
    /// Host nanoseconds of that spent inside scheduling + allocation.
    pub scheduling_ns: u64,
    /// The translation phase ledger: host nanoseconds per phase, summed
    /// over every translation this guest installed, inline or from a
    /// worker (stale results that were resubmitted included).
    pub translation_phases: PhaseNs,
    /// Regions formed.
    pub regions_formed: usize,
    /// Total region entries.
    pub region_entries: u64,
    /// Translation-cache probes made by the dispatcher (per interpreted
    /// block, plus one per unresolved region exit). Chained dispatch
    /// drives this toward zero in steady state — followed links never
    /// consult the cache.
    pub dispatch_lookups: u64,
    /// Region→region transitions taken through a memoized chain link
    /// without re-entering the dispatcher.
    pub chain_follows: u64,
    /// Chain links invalidated because their target region was
    /// retranslated or abandoned.
    pub chain_unlinks: u64,
    /// Total rollbacks.
    pub rollbacks: u64,
    /// Region entries whose entry-time alias guard found a check that
    /// could fire, so that they ran every check under a checkpoint
    /// ([`smarq_opt::fastcomp::FastSim::guard_misses`]). Every rollback
    /// of a guarded region is one; entries of regions without a guard
    /// are not.
    pub guard_misses: u64,
    /// Total re-translations.
    pub retranslations: usize,
    /// Memory operations executed inside translated regions.
    pub region_mem_ops: u64,
    /// Alias entries examined by the detection hardware (energy proxy,
    /// paper §2.4).
    pub alias_entries_scanned: u64,
    /// Regions statically verified at emit time (verify-on-emit mode;
    /// see [`crate::SystemConfig::verify_translations`]).
    pub regions_verified: usize,
    /// Error-severity findings from verify-on-emit. Always 0 for a
    /// correct optimizer — any other value is a translation bug caught
    /// before the region ever ran.
    pub verify_errors: usize,
    /// Findings from verify-on-emit and the link-time chain checks, kept
    /// as values (serialize one with [`Diagnostic::to_json`]) and capped
    /// at [`Self::VERIFY_DIAGNOSTIC_CAP`] entries. Error-severity findings
    /// come first, each group in arrival order: once the list is full, a
    /// new error displaces the latest warning or note, so no error is
    /// crowded out while any non-error is kept.
    pub verify_diagnostics: Vec<Diagnostic>,
    /// Chain-boundary verifications run when the chained dispatcher
    /// memoized a region→region link (verify-on-emit mode).
    pub chain_checks: u64,
    /// Error-severity findings from those link-time chain checks. Always
    /// 0 for a correct optimizer/runtime — any other value is a chained
    /// hand-off bug caught before the link was ever followed.
    pub chain_errors: usize,
    /// Region entries executed on the timed `FastSim`. Every region entry
    /// runs there, on either [`crate::ExecTier`], so this always equals
    /// `region_entries`.
    pub tier_fast_entries: u64,
    /// `FastSim` entries that were also replayed on the cycle simulator
    /// as tier-down samples.
    pub tier_samples: u64,
    /// Tier-down samples whose result (outcome, register files, memory,
    /// or any region statistic, cycles and bundles included) differed
    /// from `FastSim`'s. Always 0 for a correct lowering — any other value
    /// is a fast-tier bug caught by the sampling oracle.
    pub tier_sample_mismatches: u64,
    /// Simulated cycles the cycle simulator reported for the tier-down
    /// samples. Kept out of `vliw_cycles`, which already counts the same
    /// entries' cycles from `FastSim`: sampled runs are oracle work, not
    /// modeled guest time. `tier_sampled_cycles / tier_samples` is the
    /// mean cycles of a sampled entry.
    pub tier_sampled_cycles: u64,
    /// Translation jobs enqueued on the hub's executor (async mode).
    pub async_enqueued: u64,
    /// Finished translations atomically published into the translation
    /// cache at a dispatch boundary.
    pub async_published: u64,
    /// Finished translations rejected at publish because the world moved
    /// while they were in flight: the entry was abandoned, its slot was
    /// already taken, or the blacklist generation advanced (those are
    /// resubmitted against the fresh snapshot).
    pub async_publish_conflicts: u64,
    /// Submissions dropped because the bounded job queue was full (the
    /// block stays hot, so the next dispatch retries).
    pub async_queue_full: u64,
    /// Peak number of jobs in flight at once.
    pub async_queue_peak: u64,
    /// Region entries under a blacklist generation older than the hub's
    /// — executions of *stale* translations, the window rollbacks and
    /// async publication open while a fresher translation is produced.
    pub async_stale_entries: u64,
    /// Host nanoseconds translation workers spent producing regions — off
    /// the guest's critical path (compare `translation_ns`, which is the
    /// inline path's on-critical-path cost and stays 0 in async mode).
    pub async_worker_ns: u64,
    /// Host nanoseconds of translation bookkeeping left *on* the critical
    /// path in async mode: job submission plus atomic publication.
    pub async_stall_ns: u64,
    /// Per-region records.
    pub per_region: Vec<RegionRecord>,
}

impl SystemStats {
    /// Upper bound on retained verify-on-emit diagnostics (the counters
    /// keep counting past it).
    pub const VERIFY_DIAGNOSTIC_CAP: usize = 64;

    /// Whether [`Self::verify_diagnostics`] can still take a diagnostic
    /// below [`Severity::Error`]: once the list is full, only errors get
    /// in (each displacing the last non-error).
    pub(crate) fn keeps_non_errors(&self) -> bool {
        self.verify_diagnostics.len() < Self::VERIFY_DIAGNOSTIC_CAP
    }

    /// Keeps `d` in [`Self::verify_diagnostics`] under the cap, errors
    /// ahead of every other severity.
    pub(crate) fn keep_diagnostic(&mut self, d: Diagnostic) {
        if d.severity < Severity::Error {
            if self.keeps_non_errors() {
                self.verify_diagnostics.push(d);
            }
            return;
        }
        let kept = &mut self.verify_diagnostics;
        let first_non_error = kept
            .iter()
            .position(|k| k.severity < Severity::Error)
            .unwrap_or(kept.len());
        if kept.len() == Self::VERIFY_DIAGNOSTIC_CAP {
            if first_non_error == kept.len() {
                return; // the cap is all errors already
            }
            kept.pop();
        }
        kept.insert(first_non_error, d);
    }

    /// Total simulated execution cycles (interpretation + regions).
    pub fn total_cycles(&self) -> u64 {
        self.vliw_cycles + self.interp_cycles
    }

    /// Total guest instructions retired (interpreted + in regions).
    pub fn guest_instrs(&self) -> u64 {
        self.interp_instrs + self.region_guest_instrs
    }

    /// Fraction of execution time spent in the optimizer, modeling the
    /// simulated core at 1 GHz (1 cycle = 1 ns) — the paper's Figure 18
    /// metric.
    pub fn optimization_overhead(&self) -> f64 {
        let exec_ns = self.total_cycles() as f64;
        let opt_ns = self.translation_ns as f64;
        if exec_ns + opt_ns == 0.0 {
            0.0
        } else {
            opt_ns / (exec_ns + opt_ns)
        }
    }

    /// Fraction of execution time spent in scheduling + allocation.
    pub fn scheduling_overhead(&self) -> f64 {
        let exec_ns = self.total_cycles() as f64;
        let opt_ns = self.translation_ns as f64;
        if exec_ns + opt_ns == 0.0 {
            0.0
        } else {
            self.scheduling_ns as f64 / (exec_ns + opt_ns)
        }
    }

    /// Alias entries examined per executed memory operation — the energy
    /// proxy the paper uses to argue against check-everything schemes.
    pub fn scans_per_mem_op(&self) -> f64 {
        if self.region_mem_ops == 0 {
            0.0
        } else {
            self.alias_entries_scanned as f64 / self.region_mem_ops as f64
        }
    }

    /// Translation-stall cycles the async pipeline removed from the
    /// guest's critical path, modeling the simulated core at 1 GHz
    /// (1 cycle = 1 ns, like [`Self::optimization_overhead`]): worker
    /// time that would have stalled the guest inline, minus the
    /// submit/publish bookkeeping the async path still pays.
    pub fn stall_cycles_avoided(&self) -> u64 {
        self.async_worker_ns.saturating_sub(self.async_stall_ns)
    }

    /// Average memory operations per formed superblock (Figure 14).
    pub fn avg_mem_ops_per_region(&self) -> f64 {
        if self.per_region.is_empty() {
            return 0.0;
        }
        self.per_region
            .iter()
            .map(|r| r.opt.mem_ops as f64)
            .sum::<f64>()
            / self.per_region.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::tests::late_aliasing_loop;
    use crate::{DynOptSystem, StopReason, SystemConfig};
    use smarq_guest::{AluOp, CmpOp, Program, ProgramBuilder, Reg};
    use smarq_opt::OptConfig;

    #[test]
    fn totals_and_ratios() {
        let mut s = SystemStats::default();
        assert_eq!(s.optimization_overhead(), 0.0);
        s.vliw_cycles = 900;
        s.interp_cycles = 100;
        s.interp_instrs = 5;
        s.region_guest_instrs = 95;
        s.translation_ns = 1000;
        s.scheduling_ns = 400;
        assert_eq!(s.total_cycles(), 1000);
        assert_eq!(s.guest_instrs(), 100);
        assert!((s.optimization_overhead() - 0.5).abs() < 1e-12);
        assert!((s.scheduling_overhead() - 0.2).abs() < 1e-12);
    }

    /// Counted loop whose load sits behind a store to a different (but
    /// not provably different) address: the optimizer hoists the load and
    /// the store checks it, so regions form, run, and scan alias entries.
    fn counted_loop(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let entry = b.block();
        let body = b.block();
        let done = b.block();
        b.iconst(entry, Reg(1), 0);
        b.iconst(entry, Reg(2), iters);
        b.iconst_via_memory(entry, Reg(3), 0x1000, 0x800);
        b.iconst_via_memory(entry, Reg(5), 0x2000, 0x808);
        b.jump(entry, body);
        b.st(body, Reg(1), Reg(5), 0);
        b.ld(body, Reg(4), Reg(3), 0); // never truly aliases the store
        b.alu(body, AluOp::Add, Reg(4), Reg(4), Reg(1));
        b.st(body, Reg(4), Reg(3), 0);
        b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, done);
        b.halt(done);
        b.finish(entry)
    }

    fn run(p: Program, cfg: SystemConfig) -> SystemStats {
        let mut sys = DynOptSystem::new(p, cfg);
        assert_eq!(sys.run_to_completion(u64::MAX), StopReason::Halted);
        sys.stats().clone()
    }

    /// Per-region records must sum to the global counters, and the
    /// hot-threshold knob must shift work between the interpreter and the
    /// translated regions.
    #[test]
    fn counters_account_for_promotion_and_entries() {
        let hot = SystemConfig {
            hot_threshold: 10,
            ..SystemConfig::default()
        };
        let s = run(counted_loop(200), hot);

        assert_eq!(s.regions_formed, s.per_region.len());
        assert!(s.regions_formed >= 1);
        assert!(s.interp_instrs > 0, "warm-up iterations are interpreted");
        assert!(s.region_entries > 0);
        assert!(s.region_guest_instrs > 0);
        assert_eq!(
            s.region_entries,
            s.per_region.iter().map(|r| r.entries).sum::<u64>()
        );
        assert_eq!(s.total_cycles(), s.vliw_cycles + s.interp_cycles);
        assert!(s.guest_instrs() >= s.interp_instrs);
        assert!(s.translation_ns >= s.scheduling_ns);
        assert!(s.avg_mem_ops_per_region() > 0.0);

        // A colder threshold keeps more iterations in the interpreter.
        let cold = SystemConfig {
            hot_threshold: 100,
            ..SystemConfig::default()
        };
        let c = run(counted_loop(200), cold);
        assert!(c.interp_instrs > s.interp_instrs);
        assert!(c.region_entries < s.region_entries);
    }

    /// The phase ledger times every translation phase, and the phases
    /// the optimizer call times fit inside the translation time around
    /// it.
    #[test]
    fn phase_ledger_covers_every_translation_phase() {
        use smarq_opt::Phase;
        let cfg = SystemConfig {
            hot_threshold: 10,
            verify_translations: true,
            ..SystemConfig::default()
        };
        let s = run(counted_loop(200), cfg);
        assert!(s.regions_formed >= 1);
        let phases = &s.translation_phases;
        for (phase, ns) in phases.iter() {
            assert!(ns > 0, "{phase:?} is timed: {phases:?}");
        }
        let optimizer = phases.sum(&Phase::OPTIMIZER);
        assert!(
            optimizer + phases[Phase::Formation] <= s.translation_ns,
            "{optimizer} + formation within {}",
            s.translation_ns
        );
        // `scheduling_ns` counts the successful attempts only; the ledger
        // also counts the ones that overflowed.
        assert!(s.scheduling_ns <= phases[Phase::Schedule]);
    }

    /// Rollback and re-translation events must be mirrored exactly between
    /// the global counters and the per-region records.
    #[test]
    fn rollback_counters_mirror_per_region_records() {
        let cfg = SystemConfig {
            hot_threshold: 10,
            ..SystemConfig::default()
        };
        let s = run(late_aliasing_loop(300, 20), cfg);

        assert!(s.rollbacks >= 1, "true aliasing must fault at least once");
        assert!(s.retranslations >= 1);
        assert_eq!(
            s.rollbacks,
            s.per_region.iter().map(|r| r.rollbacks).sum::<u64>()
        );
        assert_eq!(
            s.retranslations,
            s.per_region
                .iter()
                .map(|r| r.retranslations as usize)
                .sum::<usize>()
        );
        // A region cannot roll back more often than it was entered.
        for r in &s.per_region {
            assert!(r.rollbacks <= r.entries, "{r:?}");
        }
    }

    /// Batching `sync_interp_stats` off the per-block dispatch path must
    /// not change any guest-instruction accounting: a run driven one
    /// dispatch step at a time (a sync after every block or chain) reports
    /// the same totals as one uninterrupted run, and the synced counter
    /// equals the interpreter's own counter at every stop point.
    #[test]
    fn batched_stat_sync_preserves_guest_instr_totals() {
        for p in [counted_loop(300), late_aliasing_loop(300, 20)] {
            let cfg = SystemConfig {
                hot_threshold: 10,
                ..SystemConfig::default()
            };
            let mut sys = DynOptSystem::new(p.clone(), cfg.clone());
            assert_eq!(sys.run_to_completion(u64::MAX), StopReason::Halted);
            let mut stepped = DynOptSystem::new(p.clone(), cfg);
            while stepped.run_bounded(1, u64::MAX) == crate::RunStatus::Running {
                assert_eq!(
                    stepped.stats().interp_instrs,
                    stepped.interp().executed_instrs(),
                    "the synced counter matches the interpreter at every stop"
                );
            }
            assert_eq!(
                sys.stats().guest_instrs(),
                stepped.stats().guest_instrs(),
                "total guest instructions are sync-invariant"
            );
            assert_eq!(
                sys.stats().interp_instrs,
                stepped.stats().interp_instrs,
                "interpreted share is sync-invariant"
            );
            assert_eq!(sys.stats().interp_instrs, sys.interp().executed_instrs());
        }

        // Budget-exhausted stops are boundary syncs too.
        let cfg = SystemConfig {
            hot_threshold: 10,
            ..SystemConfig::default()
        };
        let mut sys = DynOptSystem::new(counted_loop(1_000_000), cfg);
        assert_eq!(sys.run_to_completion(20_000), StopReason::BudgetExhausted);
        assert!(sys.stats().guest_instrs() >= 20_000);
        assert_eq!(sys.stats().interp_instrs, sys.interp().executed_instrs());
    }

    /// The energy proxy separates the schemes: SMARQ's checks scan alias
    /// entries, while the no-alias-hardware baseline never scans any.
    #[test]
    fn alias_scan_proxy_distinguishes_schemes() {
        let cfg = SystemConfig {
            hot_threshold: 10,
            ..SystemConfig::with_opt(OptConfig::smarq(64))
        };
        let smarq = run(counted_loop(200), cfg);
        assert!(smarq.region_mem_ops > 0);
        assert!(smarq.alias_entries_scanned > 0);
        assert!(smarq.scans_per_mem_op() > 0.0);

        let cfg = SystemConfig {
            hot_threshold: 10,
            ..SystemConfig::with_opt(OptConfig::no_alias_hw())
        };
        let none = run(counted_loop(200), cfg);
        assert!(none.region_mem_ops > 0, "regions still form and run");
        assert_eq!(none.alias_entries_scanned, 0);
        assert_eq!(none.scans_per_mem_op(), 0.0);
    }
}
