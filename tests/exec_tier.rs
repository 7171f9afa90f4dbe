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
use smarq_guest::{
    AluOp, CmpOp, FReg, FpuOp, Interpreter, Program, ProgramBuilder, Reg, RunOutcome,
};
use smarq_runtime::{DynOptSystem, ExecTier, SystemConfig};
use smarq_vliw::{HwKind, MachineConfig};
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

/// The late-entry-aliasing loop nest under every speculating scheme, on
/// both tiers, with every region entry tier-down sampled. The inner
/// region's pointers are fixed across an entry, so it has an entry-time
/// guard, which clears every entry until the inner pointer lands on the
/// store base. That entry misses the guard, runs its checks and rolls
/// back; the run must still end bit-exact with pure interpretation.
#[test]
fn guard_misses_roll_back_bit_exactly() {
    let w = smarq_workloads::late_entry_aliasing(12, 60, 6);
    let mut interp = Interpreter::new();
    assert_eq!(interp.run(&w.program, u64::MAX), RunOutcome::Halted);
    let reference = interp.arch_state();
    for (scheme, opt) in schemes() {
        if opt.hw == HwKind::None {
            continue;
        }
        for tier in [ExecTier::CycleSim, ExecTier::Functional] {
            let mut cfg = SystemConfig::with_opt(opt.clone());
            cfg.hot_threshold = 10;
            cfg.exec_tier = tier;
            cfg.tier_sample_interval = 1;
            let mut sys = DynOptSystem::new(w.program.clone(), cfg);
            sys.run_to_completion(u64::MAX);
            let at = format!("{scheme} on {tier:?}");
            assert_eq!(sys.interp().arch_state(), reference, "{at}");
            let s = sys.stats();
            assert!(s.rollbacks >= 1, "{at}: the late pointer must fault");
            assert!(
                s.guard_misses > 0,
                "{at}: the faulting entry misses the guard"
            );
            assert_eq!(s.tier_samples, s.tier_fast_entries, "{at}");
            assert_eq!(
                s.tier_sample_mismatches, 0,
                "{at}: {} of {} samples disagreed",
                s.tier_sample_mismatches, s.tier_samples
            );
        }
    }
}

/// Guest memory's page directory covers the low 16 MiB; words above it
/// live in a hash map.
const DIRECTORY_WINDOW: i64 = 1 << 24;

/// A streaming loop over two pointers, `base` and `base + 0x400`: each
/// iteration loads `a[i]`, stores `a[i + 1] = a[i] + i` (a dependence
/// through memory into the next iteration), and updates a second FP
/// stream the same way. The two pointers are unrelated registers, so the
/// optimizer speculates between their accesses.
fn pointer_loop(base: i64, iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let entry = b.block();
    let body = b.block();
    let done = b.block();
    b.iconst(entry, Reg(1), 0);
    b.iconst(entry, Reg(2), iters);
    b.iconst(entry, Reg(3), base);
    b.iconst(entry, Reg(5), base + 0x400);
    b.iconst(entry, Reg(6), 7);
    b.st(entry, Reg(6), Reg(3), 0);
    b.fconst(entry, FReg(1), 0.5);
    b.jump(entry, body);
    b.ld(body, Reg(4), Reg(3), 0);
    b.alu(body, AluOp::Add, Reg(4), Reg(4), Reg(1));
    b.st(body, Reg(4), Reg(3), 8);
    b.fld(body, FReg(2), Reg(5), 0);
    b.fpu(body, FpuOp::Add, FReg(2), FReg(2), FReg(1));
    b.fst(body, FReg(2), Reg(5), 8);
    b.alu_imm(body, AluOp::Add, Reg(3), Reg(3), 8);
    b.alu_imm(body, AluOp::Add, Reg(5), Reg(5), 8);
    b.alu_imm(body, AluOp::Add, Reg(1), Reg(1), 1);
    b.branch(body, CmpOp::Lt, Reg(1), Reg(2), body, done);
    b.halt(done);
    b.finish(entry)
}

/// Runs `program` through the system under every scheme with every
/// region entry tier-down sampled, and checks the final state against
/// pure interpretation.
fn bit_exact_with_every_entry_sampled(label: &str, program: &Program) {
    let mut interp = Interpreter::new();
    assert_eq!(interp.run(program, u64::MAX), RunOutcome::Halted);
    let reference = interp.arch_state();
    for (scheme, opt) in schemes() {
        let mut cfg = SystemConfig::with_opt(opt);
        cfg.hot_threshold = 10;
        cfg.exec_tier = ExecTier::Functional;
        cfg.tier_sample_interval = 1;
        let mut sys = DynOptSystem::new(program.clone(), cfg);
        sys.run_to_completion(u64::MAX);
        assert_eq!(
            sys.interp().arch_state(),
            reference,
            "{label} under {scheme}: final state differs from interpretation"
        );
        let s = sys.stats();
        assert!(
            s.tier_fast_entries > 0,
            "{label} under {scheme}: no region ran"
        );
        assert_eq!(
            s.tier_samples, s.tier_fast_entries,
            "{label} under {scheme}"
        );
        assert_eq!(
            s.tier_sample_mismatches, 0,
            "{label} under {scheme}: {} of {} samples disagreed",
            s.tier_sample_mismatches, s.tier_samples
        );
    }
}

#[test]
fn pointers_above_the_directory_window_are_bit_exact() {
    let base = 0x7_0000_0000;
    let program = pointer_loop(base, 300);
    let mut interp = Interpreter::new();
    interp.run(&program, u64::MAX);
    assert_ne!(interp.mem.read(base as u64 + 8 * 300), 0);
    bit_exact_with_every_entry_sampled("above the window", &program);
}

#[test]
fn pointers_straddling_the_directory_window_are_bit_exact() {
    // Both streams cross the window's top while the region runs hot.
    let base = DIRECTORY_WINDOW - 0x800;
    let program = pointer_loop(base, 512);
    let mut interp = Interpreter::new();
    interp.run(&program, u64::MAX);
    let mem = &interp.mem;
    assert_ne!(mem.read(DIRECTORY_WINDOW as u64 - 8), 0, "below the window");
    assert_ne!(mem.read(DIRECTORY_WINDOW as u64), 0, "above the window");
    bit_exact_with_every_entry_sampled("straddling the window", &program);
}
