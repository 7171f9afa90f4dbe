//! Whole-region differential between the forms of the SMARQ queue: the
//! single-word `FastAliasQueue` that `AnyAliasHw::for_kind` builds for
//! every shipped configuration, the wide `SmarqQueueHw` over
//! `smarq::queue::AliasQueue` that serves files of more than 64
//! registers, and the functional tier's `FastSim`, which runs the queue
//! compiled out (`fastcomp`'s plan) on word-sized files and the dynamic
//! wide queue beyond.
//!
//! Every region the 14 SPECFP stand-ins and a few seeded random workloads
//! form is optimized for 16 and for 64 alias registers and run on the
//! cycle simulator under both storage forms and on `FastSim` (planned),
//! from the same guest states the interpreter reaches at that region's
//! entry; regions optimized for 128 registers run on the cycle simulator
//! and on `FastSim` (unplanned). Outcome (including the alias exception
//! and its producer), the work counters (every `RegionStats` field
//! between the two cycle-simulator forms), registers and memory must
//! agree. The speculative regions of `equake`, whose strand pointer truly
//! aliases a store, fault and roll back.

use smarq_guest::{ArchState, BlockId, Interpreter, Program};
use smarq_ir::Superblock;
use smarq_opt::fastcomp::{self, FastSim};
use smarq_opt::{optimize_superblock, AliasBlacklist, OptConfig};
use smarq_runtime::{DynOptSystem, SystemConfig};
use smarq_vliw::{
    AliasHardware, AnyAliasHw, FastState, HwKind, MachineConfig, RegionOutcome, RegionStats,
    RegionWriteMask, Simulator, SmarqQueueHw, VliwProgram, VliwState,
};
use smarq_workloads::WORKLOAD_NAMES;

/// Loop trip count of the scaled stand-ins: enough to form every region
/// and revisit it, small enough for a debug-build test.
const ITERS: i64 = 40;
/// Region entries replayed per region: the interpreter states at the
/// entry block's first `VISITS` visits.
const VISITS: u64 = 24;
const HOT_THRESHOLD: u64 = 10;
const BUDGET: u64 = 2_000_000;

fn programs() -> Vec<(String, Program)> {
    let kernels = WORKLOAD_NAMES.iter().map(|&name| {
        let w = smarq_workloads::scaled(name, ITERS).expect("known stand-in");
        (name.to_string(), w.program)
    });
    let random = (0..8u64).map(|seed| {
        let w = smarq_workloads::random_workload(seed);
        (format!("random/{seed}"), w.program)
    });
    kernels.chain(random).collect()
}

/// The regions the runtime forms for `program`.
fn formed_regions(program: &Program) -> Vec<Superblock> {
    let mut cfg = SystemConfig::with_opt(OptConfig::smarq(64));
    cfg.hot_threshold = HOT_THRESHOLD;
    let mut sys = DynOptSystem::new(program.clone(), cfg);
    sys.run_to_completion(BUDGET);
    sys.formed_superblocks().cloned().collect()
}

/// Interpreter states at the first [`VISITS`] visits of each block in
/// `entries`, in `entries` order.
fn entry_states(program: &Program, entries: &[BlockId]) -> Vec<Vec<ArchState>> {
    let mut states = vec![Vec::new(); entries.len()];
    let mut visits = vec![0u64; entries.len()];
    let mut interp = Interpreter::new();
    interp.load_data(program);
    let mut block = Some(program.entry());
    while let Some(b) = block {
        if interp.executed_instrs() > BUDGET {
            break;
        }
        for (i, &e) in entries.iter().enumerate() {
            if e == b {
                visits[i] += 1;
                if visits[i] <= VISITS {
                    states[i].push(interp.arch_state());
                }
            }
        }
        block = interp.step_block(program, b);
    }
    states
}

type Run = (RegionOutcome, RegionStats, VliwState, smarq_guest::Memory);

fn run<H: AliasHardware>(sim: &mut Simulator<H>, vliw: &VliwProgram, pre: &ArchState) -> Run {
    let mut state = VliwState::new();
    state.load_guest(&pre.regs, &pre.fregs.map(f64::from_bits));
    let mut mem = pre.mem.clone();
    let (outcome, stats) = sim
        .run_region_resident(vliw, RegionWriteMask::of(vliw), &mut state, &mut mem)
        .expect("an emitted region is well formed");
    (outcome, stats, state, mem)
}

/// Runs `vliw` on the functional tier from `pre` and asserts it matches
/// the cycle simulator's `cycle` run of the same entry.
fn check_fast(fast: &mut FastSim, vliw: &VliwProgram, pre: &ArchState, cycle: &Run, at: &str) {
    let prog = fastcomp::compile(vliw).expect("an emitted region lowers");
    let mut state = FastState::new();
    state.load_guest(&pre.regs, &pre.fregs.map(f64::from_bits));
    let mut mem = pre.mem.clone();
    let (outcome, stats) = fast.run_region(&prog, &mut state, &mut mem);
    let (cycle_out, cycle_stats, cycle_state, cycle_mem) = cycle;
    let work = |s: &RegionStats| (s.ops, s.mem_ops, s.alias_checks, s.entries_scanned);
    assert_eq!(outcome, *cycle_out, "{at}: fast outcome");
    assert_eq!(work(&stats), work(cycle_stats), "{at}: fast work counters");
    assert_eq!(state.regs, cycle_state.regs, "{at}: fast int registers");
    assert_eq!(
        state.fregs.map(f64::to_bits),
        cycle_state.fregs.map(f64::to_bits),
        "{at}: fast fp registers"
    );
    assert_eq!(mem, *cycle_mem, "{at}: fast memory");
}

#[test]
fn word_queue_matches_wide_queue_on_every_formed_region() {
    let machine = MachineConfig::default();
    let (mut regions, mut entries, mut faults) = (0, 0, 0);
    let (mut checks, mut scanned) = (0, 0);
    let (mut equake_faults, mut wide_faults) = (0, 0);
    for (name, program) in programs() {
        let sbs = formed_regions(&program);
        assert!(!sbs.is_empty(), "{name} forms no region");
        let starts: Vec<BlockId> = sbs.iter().map(|sb| sb.entry).collect();
        let states = entry_states(&program, &starts);
        for num_regs in [16u32, 64] {
            let opt_cfg = OptConfig::smarq(num_regs);
            let word = AnyAliasHw::for_kind(HwKind::Smarq, num_regs);
            assert!(
                matches!(word, AnyAliasHw::Smarq(_)),
                "{num_regs} fits a word"
            );
            let mut word_sim = Simulator::new(machine, word);
            let mut wide_sim = Simulator::new(machine, SmarqQueueHw::new(num_regs));
            let mut fast = FastSim::new(HwKind::Smarq, num_regs);
            for (sb, pres) in sbs.iter().zip(&states) {
                let opt = optimize_superblock(sb, &opt_cfg, &machine, &AliasBlacklist::new());
                assert!(
                    fastcomp::compile(&opt.vliw).unwrap().is_planned(),
                    "{name} regs={num_regs}: a word-sized region gets a plan"
                );
                regions += 1;
                for (k, pre) in pres.iter().enumerate() {
                    let at = format!("{name} regs={num_regs} entry={:?} visit#{k}", sb.entry);
                    let (wide_out, wide_stats, wide_state, wide_mem) =
                        run(&mut wide_sim, &opt.vliw, pre);
                    let (word_out, word_stats, word_state, word_mem) =
                        run(&mut word_sim, &opt.vliw, pre);
                    assert_eq!(word_out, wide_out, "{at}: outcome");
                    assert_eq!(word_stats, wide_stats, "{at}: region stats");
                    assert_eq!(word_state.regs, wide_state.regs, "{at}: int registers");
                    assert_eq!(
                        word_state.fregs.map(f64::to_bits),
                        wide_state.fregs.map(f64::to_bits),
                        "{at}: fp registers"
                    );
                    assert_eq!(word_mem, wide_mem, "{at}: memory");
                    let word_run = (word_out, word_stats, word_state, word_mem);
                    check_fast(&mut fast, &opt.vliw, pre, &word_run, &at);
                    entries += 1;
                    checks += word_stats.alias_checks;
                    scanned += word_stats.entries_scanned;
                    if matches!(word_run.0, RegionOutcome::AliasException(_)) {
                        faults += 1;
                        equake_faults += u64::from(name == "equake");
                    }
                }
            }
        }
        // Past one occupancy word: the cycle simulator's wide queue
        // against the functional tier's dynamic one.
        let opt_cfg = OptConfig::smarq(128);
        let mut wide_sim = Simulator::new(machine, AnyAliasHw::for_kind(HwKind::Smarq, 128));
        let mut fast = FastSim::new(HwKind::Smarq, 128);
        for (sb, pres) in sbs.iter().zip(&states) {
            let opt = optimize_superblock(sb, &opt_cfg, &machine, &AliasBlacklist::new());
            for (k, pre) in pres.iter().enumerate() {
                let at = format!("{name} regs=128 entry={:?} visit#{k}", sb.entry);
                let wide_run = run(&mut wide_sim, &opt.vliw, pre);
                check_fast(&mut fast, &opt.vliw, pre, &wide_run, &at);
                wide_faults += u64::from(matches!(wide_run.0, RegionOutcome::AliasException(_)));
            }
        }
    }
    assert!(wide_faults > 0, "128-register regions must fault too");
    assert!(entries > regions, "too few replayed entries: {entries}");
    assert!(checks > 0 && scanned > 0, "regions must exercise the queue");
    assert!(
        equake_faults > 0,
        "equake's truly aliasing strand must fault"
    );
    assert!(faults > equake_faults, "random workloads should fault too");
}
