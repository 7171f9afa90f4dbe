//! Working-set study on one workload's hot region (the paper's §6.2 and
//! Figure 17, as a standalone experiment): compares SMARQ's constraint-
//! order allocation against the straightforward program-order baselines
//! and the live-range lower bound, and shows the constraint graph.
//!
//! Run with: `cargo run --release --example working_set_study [workload]`

use smarq::baseline::{program_order_allocate, BaselineOptions, BaselineScope};
use smarq::{allocate, live_range_lower_bound, ConstraintGraph, DepGraph};
use smarq_guest::Interpreter;
use smarq_ir::{build_region_spec, form_superblock, AliasAnalysis, FormationParams};
use smarq_opt::{dag, elim, sched, AliasBlacklist, OptConfig};
use smarq_vliw::MachineConfig;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "mgrid".into());
    let Some(w) = smarq_workloads::by_name(&name) else {
        eprintln!(
            "unknown workload '{name}'; available: {}",
            smarq_workloads::WORKLOAD_NAMES.join(", ")
        );
        std::process::exit(2);
    };
    println!("workload: {} — {}", w.name, w.description);

    // Profile, form the hot region, and reproduce the optimizer's schedule.
    let mut interp = Interpreter::new();
    interp.run(&w.program, 1_000_000);
    let sb = form_superblock(
        &w.program,
        interp.profile(),
        smarq_guest::BlockId(1),
        FormationParams::default(),
    );
    let config = OptConfig::smarq(64);
    let machine = MachineConfig::default();
    let analysis = AliasAnalysis::new(&sb);
    let (mut spec, map) = build_region_spec(&sb, &analysis);
    let no_taint = vec![false; sb.ops.len()];
    let mut elims = elim::run_eliminations(
        &sb,
        &analysis,
        &mut spec,
        &map,
        &config,
        &AliasBlacklist::new(),
        &no_taint,
    );
    elim::dce(&sb, &mut elims);
    let deps = DepGraph::compute(&spec);
    let work = dag::build_work_list(&sb, &elims);
    let graph = dag::build_dag(
        &sb,
        &analysis,
        &work,
        &deps,
        &map,
        &config,
        &machine,
        &AliasBlacklist::new(),
        &no_taint,
    );
    let res = sched::schedule(&work, &graph, &config, &machine, &spec, &deps, &map)
        .expect("scheduling succeeds");
    let schedule: Vec<_> = res
        .linear
        .iter()
        .filter(|&&k| work.ops[k].is_mem())
        .filter_map(|&k| map.mem_id(work.orig[k]))
        .collect();

    println!(
        "hot region: {} memory operations ({} scheduled after eliminations)",
        map.len(),
        schedule.len()
    );

    // The four Figure 17 quantities.
    let smarq_alloc = allocate(&spec, &deps, &schedule, u32::MAX).unwrap();
    smarq::validate::validate_allocation(&spec, &deps, &schedule, &smarq_alloc).unwrap();
    let lb = live_range_lower_bound(&spec, &deps, &schedule);
    println!("\nalias register working sets:");
    println!("  program order, all ops     {}", schedule.len());
    match program_order_allocate(
        &spec,
        &deps,
        &schedule,
        u32::MAX,
        BaselineOptions {
            scope: BaselineScope::POnly,
            rotate: true,
        },
    ) {
        Ok(p_only) => println!("  program order, P ops only  {}", p_only.working_set()),
        Err(_) => println!(
            "  program order, P ops only  n/a (speculative eliminations present —\n\
             \x20                            exactly the case the paper says program-order\n\
             \x20                            allocation cannot handle)"
        ),
    }
    println!("  SMARQ (constraint order)   {}", smarq_alloc.working_set());
    println!("  live-range lower bound     {lb}");

    let s = smarq_alloc.stats();
    println!(
        "\nconstraints: {} check, {} anti; {} AMOVs; {} rotations",
        s.checks, s.antis, s.amovs, s.rotations
    );

    // Constraint graph for visual inspection.
    let cg = ConstraintGraph::derive(&spec, &deps, &schedule);
    println!("\nconstraint graph (Graphviz):\n{}", cg.to_dot(&spec));
}
