//! Corpus-wide differential for the timed fast executor.
//!
//! Both execution tiers run every region entry on the timed `FastSim`;
//! the cycle simulator is the oracle that tier-down samples replay
//! entries on. Every minimized repro in `tests/corpus/` runs twice
//! through the full `DynOptSystem`: once on the default configuration,
//! and once with `ExecTier::Functional` and every region entry tier-down
//! sampled (`tier_sample_interval = 1`), so the cycle simulator replays
//! every entry. The runs must agree bit-exactly on final architectural
//! state, guest-instruction accounting and modeled cycles, and every
//! in-run sample must have compared bit-exact, statistics included,
//! under every hardware scheme.
//!
//! The targeted tier-transition tests (tier-up on install, deopt state
//! equivalence, sampling on/off, abandonment) live next to the tiering
//! policy in `crates/runtime/src/system.rs`; this test is the breadth
//! half.

use smarq_fuzz::{load_dir, schemes};
use smarq_runtime::{DynOptSystem, ExecTier, SystemConfig};
use smarq_vliw::MachineConfig;
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
                "{} under {label}: the tiers left different architectural state",
                path.display()
            );
            assert_eq!(
                fast.stats().guest_instrs(),
                cycle.stats().guest_instrs(),
                "{} under {label}: guest-instruction totals diverged",
                path.display()
            );
            assert_eq!(
                fast.stats().vliw_cycles,
                cycle.stats().vliw_cycles,
                "{} under {label}: the tiers modeled different region cycles",
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
                fast.stats().tier_samples,
                fast.stats().tier_fast_entries,
                "{} under {label}: interval 1 must replay every entry on the \
                 cycle simulator",
                path.display()
            );
            fast_entries += fast.stats().tier_fast_entries;
            samples += fast.stats().tier_samples;
        }
    }
    assert!(
        fast_entries > 0,
        "no corpus entry ever ran a region; the differential is not \
         exercising either executor"
    );
    assert!(
        samples > 0,
        "no functional region entry was ever tier-down sampled"
    );
}

/// Runs the 14 SPECFP stand-ins on `machine` with every region entry
/// tier-down sampled and checks that every sample agreed. Each sample
/// compares every region statistic (ops, memory ops, alias checks,
/// entries scanned, cycles, bundles), so every entry pins the
/// compiled-out queue's static examined counts and the compiled-out
/// timing against the cycle simulator. The stand-ins' truly aliasing
/// pairs alias while their loops warm up and are never speculated on, so
/// a loop whose pair starts to alias once its region runs makes some of
/// the sampled entries roll back.
fn stand_ins_sample_clean_on(machine: MachineConfig) {
    let mut late_rollbacks = 0;
    let late = smarq_workloads::late_aliasing(40, 25);
    let stand_ins = smarq_workloads::WORKLOAD_NAMES
        .iter()
        .map(|&name| smarq_workloads::scaled(name, 40).expect("known stand-in"));
    for w in stand_ins.chain([late]) {
        let name = w.name;
        let mut cfg = SystemConfig::with_opt(smarq_opt::OptConfig::smarq(64));
        cfg.machine = machine;
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
            "{name} on {machine:?}: {} of {} samples disagreed",
            s.tier_sample_mismatches, s.tier_samples
        );
        assert_eq!(s.vliw_cycles, s.tier_sampled_cycles, "{name}");
        if name == "late-aliasing" {
            late_rollbacks += s.rollbacks;
        }
    }
    assert!(late_rollbacks > 0, "late-aliasing must roll back");
}

#[test]
fn stand_ins_sample_clean_on_the_functional_tier() {
    stand_ins_sample_clean_on(MachineConfig::default());
}

/// The timing table follows the configured machine: the other machines
/// of the `sensitivity` study (4-issue, load latency 2 and 8, a
/// 1000-cycle rollback) sample as clean as the default one. The 4-issue
/// machine schedules different bundles, so it checks a different table.
#[test]
fn stand_ins_sample_clean_on_the_sensitivity_machines() {
    let base = MachineConfig::default();
    for machine in [
        MachineConfig {
            issue_width: 4,
            mem_slots: 1,
            fpu_slots: 1,
            alu_slots: 2,
            ..base
        },
        MachineConfig {
            lat_load: 2,
            ..base
        },
        MachineConfig {
            lat_load: 8,
            ..base
        },
        MachineConfig {
            rollback_cycles: 1000,
            ..base
        },
    ] {
        stand_ins_sample_clean_on(machine);
    }
}
