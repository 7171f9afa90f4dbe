//! Corpus-wide differential for the fast functional execution tier.
//!
//! Every minimized repro in `tests/corpus/` is executed twice through the
//! full `DynOptSystem` — once on the default chained cycle simulator and
//! once with `ExecTier::Functional` and every functional region entry
//! tier-down sampled (`tier_sample_interval = 1`). The two runs must
//! agree bit-exactly on final architectural state and guest-instruction
//! accounting, and every in-run sample must have compared bit-exact,
//! under every hardware scheme.
//!
//! The targeted tier-transition tests (tier-up on install, deopt state
//! equivalence, sampling on/off, abandonment) live next to the tiering
//! policy in `crates/runtime/src/system.rs`; this test is the breadth
//! half.

use smarq_fuzz::{load_dir, schemes};
use smarq_runtime::{DynOptSystem, ExecTier, SystemConfig};
use std::path::Path;

#[test]
fn corpus_is_bit_exact_across_execution_tiers() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let entries = load_dir(&dir).expect("corpus directory loads");
    assert!(
        !entries.is_empty(),
        "no corpus entries in {}",
        dir.display()
    );

    let mut fast_entries = 0u64;
    let mut samples = 0u64;
    for (path, program) in &entries {
        for (label, opt) in schemes() {
            let mut cfg = SystemConfig::with_opt(opt);
            // Low threshold so the short corpus programs form regions.
            cfg.hot_threshold = 10;
            cfg.exec_tier = ExecTier::CycleSim;

            let mut cycle = DynOptSystem::new(program.clone(), cfg.clone());
            cycle.run_to_completion(u64::MAX);

            let mut fast_cfg = cfg;
            fast_cfg.exec_tier = ExecTier::Functional;
            fast_cfg.tier_sample_interval = 1;
            let mut fast = DynOptSystem::new(program.clone(), fast_cfg);
            fast.run_to_completion(u64::MAX);

            assert_eq!(
                fast.interp().arch_state(),
                cycle.interp().arch_state(),
                "{} under {label}: functional tier and cycle sim left \
                 different architectural state",
                path.display()
            );
            assert_eq!(
                fast.stats().guest_instrs(),
                cycle.stats().guest_instrs(),
                "{} under {label}: guest-instruction totals diverged",
                path.display()
            );
            assert_eq!(
                fast.stats().tier_sample_mismatches,
                0,
                "{} under {label}: {} of {} tier-down samples were not \
                 bit-exact",
                path.display(),
                fast.stats().tier_sample_mismatches,
                fast.stats().tier_samples
            );
            assert_eq!(
                cycle.stats().tier_fast_entries,
                0,
                "{} under {label}: cycle-sim run must never enter the \
                 functional tier",
                path.display()
            );
            fast_entries += fast.stats().tier_fast_entries;
            samples += fast.stats().tier_samples;
        }
    }
    assert!(
        fast_entries > 0,
        "no corpus entry ever ran on the functional tier; the \
         differential is not exercising the fast path"
    );
    assert!(
        samples > 0,
        "no functional region entry was ever tier-down sampled"
    );
}

/// The 14 SPECFP stand-ins on the functional tier with every region entry
/// tier-down sampled. Each sample compares the work counters too (ops,
/// memory ops, alias checks, entries scanned), so every entry pins the
/// compiled-out queue's static examined counts against the cycle
/// simulator's dynamic queue; equake's truly aliasing strand makes some
/// of the sampled entries roll back.
#[test]
fn stand_ins_sample_clean_on_the_functional_tier() {
    let mut equake_rollbacks = 0;
    for &name in &smarq_workloads::WORKLOAD_NAMES {
        let w = smarq_workloads::scaled(name, 40).expect("known stand-in");
        let mut cfg = SystemConfig::with_opt(smarq_opt::OptConfig::smarq(64));
        cfg.hot_threshold = 10;
        cfg.exec_tier = ExecTier::Functional;
        cfg.tier_sample_interval = 1;
        let mut sys = DynOptSystem::new(w.program, cfg);
        sys.run_to_completion(u64::MAX);
        let s = sys.stats();
        assert!(s.tier_fast_entries > 0, "{name}: no functional entry");
        assert_eq!(s.tier_samples, s.tier_fast_entries, "{name}");
        assert_eq!(
            s.tier_sample_mismatches, 0,
            "{name}: {} of {} samples disagreed",
            s.tier_sample_mismatches, s.tier_samples
        );
        if name == "equake" {
            equake_rollbacks += s.rollbacks;
        }
    }
    assert!(equake_rollbacks > 0, "equake must roll back");
}
