//! End-to-end correctness: every benchmark workload, under every hardware
//! configuration, must produce the *bit-identical architectural state* that
//! pure interpretation produces — including under rollback and
//! re-optimization.

use smarq_guest::Interpreter;
use smarq_opt::{optimize_superblock_traced_ranged, OptConfig};
use smarq_runtime::{DynOptSystem, SystemConfig};

const TEST_ITERS: i64 = 300;

fn configs() -> Vec<(&'static str, OptConfig)> {
    vec![
        ("none", OptConfig::no_alias_hw()),
        ("smarq64", OptConfig::smarq(64)),
        ("smarq16", OptConfig::smarq(16)),
        ("smarq8", OptConfig::smarq(8)),
        ("alat", OptConfig::alat()),
        ("efficeon", OptConfig::efficeon()),
        ("smarq-no-st-reorder", OptConfig::smarq_no_store_reorder(64)),
    ]
}

#[test]
fn all_workloads_match_interpretation_under_all_hardware() {
    for name in smarq_workloads::WORKLOAD_NAMES {
        let w = smarq_workloads::scaled(name, TEST_ITERS).unwrap();
        let mut reference = Interpreter::new();
        reference.run(&w.program, u64::MAX);
        let expected = reference.arch_state();

        for (label, opt) in configs() {
            let mut sys = DynOptSystem::new(w.program.clone(), SystemConfig::with_opt(opt));
            sys.run_to_completion(u64::MAX);
            assert_eq!(
                sys.interp().arch_state(),
                expected,
                "{name} under {label}: architectural state diverged"
            );
            assert!(
                sys.stats().regions_formed >= 1,
                "{name} under {label}: the hot loop must be translated"
            );
        }
    }
}

/// The stand-ins' array bases reach their loops through memory, so the
/// whole-program ranges prove none of their pairs apart: under every
/// hardware configuration, each region optimized with the entry state the
/// runtime assumed emits exactly the code it emits with none. A kernel a
/// static range analysis could see through would stop measuring what the
/// paper's alias hardware is for, and fails here.
#[test]
fn stand_in_pairs_stay_beyond_static_range_analysis() {
    let mut scratch = smarq_opt::TranslationScratch::new();
    for name in smarq_workloads::WORKLOAD_NAMES {
        let w = smarq_workloads::scaled(name, TEST_ITERS).unwrap();
        for (label, opt) in configs() {
            let cfg = SystemConfig::with_opt(opt.clone());
            let mut sys = DynOptSystem::new(w.program.clone(), cfg.clone());
            sys.run_to_completion(u64::MAX);
            for (i, sb) in sys.formed_superblocks().enumerate() {
                let entry = sys.assumed_entry(i).expect("formed region");
                let mut emit = |entry| {
                    let machine = &cfg.machine;
                    let bl = sys.blacklist();
                    optimize_superblock_traced_ranged(sb, &opt, machine, bl, &mut scratch, entry)
                        .0
                        .vliw
                };
                assert_eq!(
                    emit(Some(entry)),
                    emit(None),
                    "{name} under {label}: region {i} has range-provable pairs"
                );
            }
        }
    }
}

#[test]
fn speculative_configs_never_lose_to_the_baseline_badly() {
    // Speculation may cost a rollback or two, but across the suite the
    // SMARQ configuration must be at least as fast as no-alias-hardware
    // on every benchmark (these workloads all have latency to hide).
    for name in smarq_workloads::WORKLOAD_NAMES {
        let w = smarq_workloads::scaled(name, 1_000).unwrap();
        let mut base = DynOptSystem::new(
            w.program.clone(),
            SystemConfig::with_opt(OptConfig::no_alias_hw()),
        );
        base.run_to_completion(u64::MAX);
        let mut smarq = DynOptSystem::new(
            w.program.clone(),
            SystemConfig::with_opt(OptConfig::smarq(64)),
        );
        smarq.run_to_completion(u64::MAX);
        assert!(
            smarq.stats().total_cycles() <= base.stats().total_cycles(),
            "{name}: SMARQ {} cycles > baseline {}",
            smarq.stats().total_cycles(),
            base.stats().total_cycles()
        );
    }
}

#[test]
fn rollback_workloads_converge() {
    // Pairs that truly alias only once the region runs: equake's strand
    // aliases from the first iteration, so the runtime sees it while the
    // loop warms up and never speculates on it. The loop nest's inner
    // pointer is fixed across each inner-region entry, so that region
    // has an entry-time guard, and the faulting entry is a guard miss.
    for w in [
        smarq_workloads::late_aliasing(500, 250),
        smarq_workloads::late_entry_aliasing(20, 100, 8),
    ] {
        let name = w.name;
        let mut interp = Interpreter::new();
        interp.run(&w.program, u64::MAX);
        let mut sys = DynOptSystem::new(
            w.program.clone(),
            SystemConfig::with_opt(OptConfig::smarq(64)),
        );
        sys.run_to_completion(u64::MAX);
        assert_eq!(sys.interp().arch_state(), interp.arch_state(), "{name}");
        let s = sys.stats();
        assert!(s.rollbacks >= 1, "{name} must fault at least once");
        assert!(
            s.rollbacks <= 8,
            "{name}: blacklisting must converge, saw {} rollbacks",
            s.rollbacks
        );
        if name == "late-entry-aliasing" {
            assert!(
                s.guard_misses >= s.rollbacks,
                "{name}: every fault misses the guard"
            );
        }
        assert!(!sys.blacklist().is_empty());
    }
}

#[test]
fn alat_false_positive_fires_and_converges() {
    // mesa carries the paper's Figure 3 pattern: a truly aliasing,
    // never-reordered pair. SMARQ must stay silent; the ALAT must take a
    // spurious exception, then converge after the re-optimization.
    let w = smarq_workloads::scaled("mesa", 500).unwrap();
    let mut smarq = DynOptSystem::new(
        w.program.clone(),
        SystemConfig::with_opt(OptConfig::smarq(64)),
    );
    smarq.run_to_completion(u64::MAX);
    assert_eq!(
        smarq.stats().rollbacks,
        0,
        "SMARQ anti-constraints must prevent the false positive"
    );

    let mut alat = DynOptSystem::new(w.program.clone(), SystemConfig::with_opt(OptConfig::alat()));
    alat.run_to_completion(u64::MAX);
    assert!(
        alat.stats().rollbacks >= 1,
        "the ALAT's check-everything stores must fault spuriously"
    );
    assert!(alat.stats().rollbacks <= 4, "and then converge");
}

#[test]
fn alias_register_scaling_matters_on_ammp() {
    // Paper §2.2: ammp improves substantially from 16 -> 64 registers.
    let w = smarq_workloads::scaled("ammp", 1_000).unwrap();
    let run = |regs| {
        let mut sys = DynOptSystem::new(
            w.program.clone(),
            SystemConfig::with_opt(OptConfig::smarq(regs)),
        );
        sys.run_to_completion(u64::MAX);
        sys.stats().total_cycles()
    };
    let c64 = run(64);
    let c16 = run(16);
    assert!(c64 < c16, "64 regs ({c64}) must beat 16 regs ({c16})");
}

#[test]
fn store_reordering_matters_on_store_bound_benchmarks() {
    // Paper Figure 16: disabling store reordering costs performance on
    // store-bound benchmarks (mesa in the paper; in this reproduction the
    // effect is largest on the elimination-heavy kernels).
    for name in ["mesa", "lucas", "fma3d"] {
        let w = smarq_workloads::scaled(name, 2_000).unwrap();
        let run = |opt| {
            let mut sys = DynOptSystem::new(w.program.clone(), SystemConfig::with_opt(opt));
            sys.run_to_completion(u64::MAX);
            sys.stats().total_cycles()
        };
        let with = run(OptConfig::smarq(64));
        let without = run(OptConfig::smarq_no_store_reorder(64));
        assert!(
            with < without,
            "store reordering must help {name} ({with} !< {without})"
        );
    }
}

#[test]
fn working_set_statistics_are_consistent() {
    let w = smarq_workloads::scaled("sixtrack", 300).unwrap();
    let mut sys = DynOptSystem::new(
        w.program.clone(),
        SystemConfig::with_opt(OptConfig::smarq(64)),
    );
    sys.run_to_completion(u64::MAX);
    for (i, r) in sys.stats().per_region.iter().enumerate() {
        assert!(r.opt.working_set <= 64);
        // The lower bound is re-derived on demand from the region's trace,
        // which reproduces the installed translation.
        let trace = sys
            .region_trace(i)
            .expect("no rollbacks, so no stale region");
        let alloc = trace.allocation.as_ref().expect("SMARQ allocates");
        assert_eq!(alloc.working_set(), r.opt.working_set);
        assert!(trace.lower_bound() <= r.opt.working_set);
        assert!(r.opt.p_ops <= r.opt.scheduled_mem_ops);
        // order = base + offset holds inside the allocator; here just
        // sanity-check the counters.
        assert!(r.opt.checks >= r.opt.p_ops, "every P op has a checker");
    }
}
