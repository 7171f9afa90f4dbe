//! Whole-region differential between the functional tier's compiled-out
//! alias hardware and the cycle simulator's dynamic models, under every
//! scheme.
//!
//! Every region the 14 SPECFP stand-ins and a few seeded random workloads
//! form is optimized for SMARQ with 16 and with 64 alias registers, for
//! Efficeon, for the ALAT and for no hardware. Each is run on the cycle
//! simulator (`AnyAliasHw`) and on `FastSim`, which runs the plan
//! `fastcomp::compile` reads off one replay of the same hardware, from
//! the guest states the interpreter reaches at that region's entry.
//! Outcome (including the alias exception and its producer), the work
//! counters, registers and memory must agree. This tests lowering, not
//! speculation policy, so the regions are optimized with their
//! profiled-alias pairs cleared: the speculative regions of `equake`,
//! whose strand pointer truly aliases a store, fault and roll back;
//! Efficeon and ALAT regions fault too.

use smarq_guest::{ArchState, BlockId, Interpreter, Program};
use smarq_ir::Superblock;
use smarq_opt::fastcomp::{self, FastSim};
use smarq_opt::{optimize_superblock, AliasBlacklist, OptConfig};
use smarq_runtime::{DynOptSystem, SystemConfig};
use smarq_vliw::{
    AnyAliasHw, MachineConfig, RegionOutcome, RegionStats, RegionWriteMask, Simulator, VliwProgram,
    VliwState,
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

/// The regions the runtime forms for `program`, without the pairs the
/// profile saw aliasing, so truly aliasing pairs are speculated on.
fn formed_regions(program: &Program) -> Vec<Superblock> {
    let mut cfg = SystemConfig::with_opt(OptConfig::smarq(64));
    cfg.hot_threshold = HOT_THRESHOLD;
    let mut sys = DynOptSystem::new(program.clone(), cfg);
    sys.run_to_completion(BUDGET);
    let mut sbs: Vec<Superblock> = sys.formed_superblocks().cloned().collect();
    for sb in &mut sbs {
        sb.profiled_aliases.clear();
    }
    sbs
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

fn run(sim: &mut Simulator, vliw: &VliwProgram, pre: &ArchState) -> Run {
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
    let mut state = VliwState::new();
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

/// What one scheme's replay saw.
#[derive(Default)]
struct Tally {
    regions: u64,
    entries: u64,
    faults: u64,
    equake_faults: u64,
    checks: u64,
    scanned: u64,
}

/// Optimizes every formed region for `opt_cfg` and replays each of its
/// entries on the cycle simulator and on `FastSim` of that scheme,
/// asserting they agree.
fn replay_every_formed_region(opt_cfg: &OptConfig) -> Tally {
    let machine = MachineConfig::default();
    let (hw, num_regs) = (opt_cfg.hw, opt_cfg.num_alias_regs);
    let mut tally = Tally::default();
    for (name, program) in programs() {
        let sbs = formed_regions(&program);
        assert!(!sbs.is_empty(), "{name} forms no region");
        let starts: Vec<BlockId> = sbs.iter().map(|sb| sb.entry).collect();
        let states = entry_states(&program, &starts);
        let mut sim = Simulator::new(machine, AnyAliasHw::for_kind(hw, num_regs));
        let mut fast = FastSim::new(hw, num_regs);
        for (sb, pres) in sbs.iter().zip(&states) {
            let opt = optimize_superblock(sb, opt_cfg, &machine, &AliasBlacklist::new());
            tally.regions += 1;
            for (k, pre) in pres.iter().enumerate() {
                let at = format!("{name} {hw:?}/{num_regs} entry={:?} visit#{k}", sb.entry);
                let cycle = run(&mut sim, &opt.vliw, pre);
                check_fast(&mut fast, &opt.vliw, pre, &cycle, &at);
                tally.entries += 1;
                tally.checks += cycle.1.alias_checks;
                tally.scanned += cycle.1.entries_scanned;
                if matches!(cycle.0, RegionOutcome::AliasException(_)) {
                    tally.faults += 1;
                    tally.equake_faults += u64::from(name == "equake");
                }
            }
        }
    }
    assert!(
        tally.entries > tally.regions,
        "{hw:?}: too few replayed entries: {}",
        tally.entries
    );
    tally
}

#[test]
fn smarq_plan_matches_the_cycle_simulator_on_every_formed_region() {
    for num_regs in [16, 64] {
        let t = replay_every_formed_region(&OptConfig::smarq(num_regs));
        assert!(
            t.checks > 0 && t.scanned > 0,
            "regions must exercise the queue"
        );
        assert!(
            t.equake_faults > 0,
            "equake's truly aliasing strand must fault"
        );
        assert!(
            t.faults > t.equake_faults,
            "random workloads should fault too"
        );
    }
}

#[test]
fn efficeon_plan_matches_the_cycle_simulator_on_every_formed_region() {
    let t = replay_every_formed_region(&OptConfig::efficeon());
    assert!(
        t.checks > 0 && t.scanned > 0,
        "regions must exercise the file"
    );
    assert!(t.faults > 0, "Efficeon regions must fault");
}

#[test]
fn alat_plan_matches_the_cycle_simulator_on_every_formed_region() {
    let t = replay_every_formed_region(&OptConfig::alat());
    assert!(
        t.checks > 0 && t.scanned > 0,
        "regions must exercise the ALAT"
    );
    assert!(t.faults > 0, "ALAT regions must fault");
}

#[test]
fn unannotated_regions_match_the_cycle_simulator_without_hardware() {
    let t = replay_every_formed_region(&OptConfig::no_alias_hw());
    assert_eq!((t.checks, t.scanned, t.faults), (0, 0, 0));
}
