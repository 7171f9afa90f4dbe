//! The paper's figures, regenerated from an [`Evaluation`] run.

use crate::{bar, EvalConfig, Evaluation};

/// Figure 14: memory operations per superblock (hot region), per benchmark.
pub fn fig14(ev: &Evaluation) -> String {
    let mut out = String::new();
    out.push_str("Figure 14: memory operations per superblock\n");
    out.push_str("-------------------------------------------\n");
    let data: Vec<(&str, f64)> = ev
        .rows
        .iter()
        .map(|r| {
            let m = r
                .hot_region(EvalConfig::Smarq64)
                .map(|reg| reg.opt.mem_ops as f64)
                .unwrap_or(0.0);
            (r.name, m)
        })
        .collect();
    let max = data.iter().map(|d| d.1).fold(0.0, f64::max);
    for (name, m) in &data {
        out.push_str(&format!("{name:>9} {m:6.0}  {}\n", bar(*m, max, 40)));
    }
    let avg = data.iter().map(|d| d.1).sum::<f64>() / data.len() as f64;
    out.push_str(&format!("  average {avg:6.1}\n"));
    out
}

/// Figure 15: speedups over no-alias-hardware for SMARQ, SMARQ16 and the
/// Itanium-like scheme.
pub fn fig15(ev: &Evaluation) -> String {
    let mut out = String::new();
    out.push_str("Figure 15: speedup with different alias detection (vs no alias HW)\n");
    out.push_str("-------------------------------------------------------------------\n");
    out.push_str("benchmark     SMARQ   SMARQ16   Itanium-like\n");
    for r in &ev.rows {
        out.push_str(&format!(
            "{:>9}     {:5.3}   {:5.3}     {:5.3}\n",
            r.name,
            r.speedup(EvalConfig::Smarq64),
            r.speedup(EvalConfig::Smarq16),
            r.speedup(EvalConfig::AlatLike),
        ));
    }
    for c in [
        EvalConfig::Smarq64,
        EvalConfig::Smarq16,
        EvalConfig::AlatLike,
    ] {
        out.push_str(&format!(
            "{:>22}: mean +{:.1}% (geomean +{:.1}%)\n",
            c.name(),
            (ev.mean_speedup(c) - 1.0) * 100.0,
            (ev.geomean_speedup(c) - 1.0) * 100.0,
        ));
    }
    out
}

/// Figure 16: impact of disabling store reordering on SMARQ.
pub fn fig16(ev: &Evaluation) -> String {
    let mut out = String::new();
    out.push_str("Figure 16: impact of store reordering (SMARQ vs SMARQ without it)\n");
    out.push_str("------------------------------------------------------------------\n");
    out.push_str("benchmark    with      without   impact\n");
    let mut impacts = Vec::new();
    for r in &ev.rows {
        let with = r.speedup(EvalConfig::Smarq64);
        let without = r.speedup(EvalConfig::Smarq64NoStoreReorder);
        let impact = (with / without - 1.0) * 100.0;
        impacts.push(impact);
        out.push_str(&format!(
            "{:>9}    {with:5.3}     {without:5.3}     {impact:+5.1}%\n",
            r.name
        ));
    }
    let avg = impacts.iter().sum::<f64>() / impacts.len() as f64;
    out.push_str(&format!("  average impact {avg:+.1}%\n"));
    out
}

/// Figure 17: alias register working set, normalized to the number of
/// memory operations per superblock (= program-order allocation).
pub fn fig17(ev: &Evaluation) -> String {
    let mut out = String::new();
    out.push_str("Figure 17: alias register working set (normalized to memory ops)\n");
    out.push_str("-----------------------------------------------------------------\n");
    out.push_str("benchmark    P-ops/prog-order   SMARQ    lower-bound\n");
    let (mut sp, mut ss, mut sl) = (0.0, 0.0, 0.0);
    let mut n = 0usize;
    for r in &ev.rows {
        let Some(reg) = r.hot_region(EvalConfig::Smarq64) else {
            continue;
        };
        let mem = reg.opt.scheduled_mem_ops.max(1) as f64;
        let p = reg.opt.p_ops as f64 / mem;
        let ws = f64::from(reg.opt.working_set) / mem;
        let lb = f64::from(r.hot_lower_bound(EvalConfig::Smarq64).unwrap_or(0)) / mem;
        sp += p;
        ss += ws;
        sl += lb;
        n += 1;
        out.push_str(&format!(
            "{:>9}        {p:5.3}         {ws:5.3}      {lb:5.3}\n",
            r.name
        ));
    }
    let nf = n.max(1) as f64;
    out.push_str(&format!(
        "  average        {:.3}         {:.3}      {:.3}\n",
        sp / nf,
        ss / nf,
        sl / nf
    ));
    out.push_str(&format!(
        "  SMARQ reduces the working set by {:.0}% vs program-order (all ops),\n",
        (1.0 - ss / nf) * 100.0
    ));
    out.push_str(&format!(
        "  and by {:.0}% vs program-order over P-bit ops only.\n",
        (1.0 - (ss / nf) / (sp / nf).max(1e-9)) * 100.0
    ));
    out
}

/// Figure 18: optimization overhead as a fraction of execution time.
pub fn fig18(ev: &Evaluation) -> String {
    let mut out = String::new();
    out.push_str("Figure 18: translation overhead (% of execution time, 1 GHz model)\n");
    out.push_str("-------------------------------------------------------------------\n");
    out.push_str("benchmark    optimization   scheduling\n");
    let (mut so, mut ssch) = (0.0, 0.0);
    for r in &ev.rows {
        let s = r.get(EvalConfig::Smarq64);
        let o = s.optimization_overhead() * 100.0;
        let sc = s.scheduling_overhead() * 100.0;
        so += o;
        ssch += sc;
        out.push_str(&format!("{:>9}      {o:8.4}%     {sc:8.4}%\n", r.name));
    }
    let n = ev.rows.len() as f64;
    out.push_str(&format!(
        "  average      {:8.4}%     {:8.4}%\n",
        so / n,
        ssch / n
    ));
    out
}

/// Figure 19: constraints per memory operation, plus AMOV statistics.
pub fn fig19(ev: &Evaluation) -> String {
    let mut out = String::new();
    out.push_str("Figure 19: number of constraints (per scheduled memory op)\n");
    out.push_str("-----------------------------------------------------------\n");
    out.push_str("benchmark    check/op   anti/op   AMOVs   AMOV-moves\n");
    let (mut sc, mut sa) = (0.0, 0.0);
    let mut n = 0usize;
    for r in &ev.rows {
        let Some(reg) = r.hot_region(EvalConfig::Smarq64) else {
            continue;
        };
        let mem = reg.opt.scheduled_mem_ops.max(1) as f64;
        let c = reg.opt.checks as f64 / mem;
        let a = reg.opt.antis as f64 / mem;
        sc += c;
        sa += a;
        n += 1;
        out.push_str(&format!(
            "{:>9}      {c:5.2}      {a:5.2}    {:4}      {:4}\n",
            r.name, reg.opt.amovs, reg.opt.amov_moves
        ));
    }
    let nf = n.max(1) as f64;
    out.push_str(&format!(
        "  average      {:5.2}      {:5.2}\n",
        sc / nf,
        sa / nf
    ));
    out
}

/// Sensitivity study: how the SMARQ speedup responds to machine
/// parameters (issue width, load latency, rollback penalty). Not a paper
/// figure — it demonstrates that the reproduction's conclusions are not an
/// artifact of one machine configuration.
pub fn sensitivity() -> String {
    use smarq_runtime::{DynOptSystem, SystemConfig};
    use smarq_vliw::MachineConfig;

    let mut out = String::new();
    out.push_str(
        "Sensitivity: SMARQ speedup vs machine parameters (swim / ammp)
",
    );
    out.push_str(
        "----------------------------------------------------------------
",
    );
    let run = |name: &str, machine: MachineConfig| -> (f64, f64) {
        let speedup = |wname: &str| {
            let w = smarq_workloads::scaled(wname, 4_000).unwrap();
            let cycles = |opt: smarq_opt::OptConfig| {
                let mut cfg = SystemConfig::with_opt(opt);
                cfg.machine = machine;
                let mut sys = DynOptSystem::new(w.program.clone(), cfg);
                sys.run_to_completion(u64::MAX);
                sys.stats().total_cycles()
            };
            cycles(smarq_opt::OptConfig::no_alias_hw()) as f64
                / cycles(smarq_opt::OptConfig::smarq(64)) as f64
        };
        let _ = name;
        (speedup("swim"), speedup("ammp"))
    };

    let base = MachineConfig::default();
    let variants: Vec<(String, MachineConfig)> = vec![
        ("default (8-issue, load 4)".into(), base),
        (
            "4-issue (1 mem, 1 fpu, 2 alu)".into(),
            MachineConfig {
                issue_width: 4,
                mem_slots: 1,
                fpu_slots: 1,
                alu_slots: 2,
                ..base
            },
        ),
        (
            "load latency 2".into(),
            MachineConfig {
                lat_load: 2,
                ..base
            },
        ),
        (
            "load latency 8".into(),
            MachineConfig {
                lat_load: 8,
                ..base
            },
        ),
        (
            "rollback 1000 cycles".into(),
            MachineConfig {
                rollback_cycles: 1000,
                ..base
            },
        ),
    ];
    for (name, m) in variants {
        let (swim, ammp) = run(&name, m);
        out.push_str(&format!(
            "{name:32} swim {swim:5.3}   ammp {ammp:5.3}
"
        ));
    }
    out
}

/// Ablation report: the design-choice experiments DESIGN.md calls out.
pub fn ablations(ev: &Evaluation) -> String {
    use smarq::baseline::{program_order_allocate, BaselineOptions, BaselineScope};
    use smarq::DepGraph;

    let mut out = String::new();
    out.push_str("Ablations\n");
    out.push_str("---------\n");

    // Rotation ablation on a representative synthetic region: serialized
    // hoist pairs (paper §3.2's argument for rotation).
    let mut region = smarq::RegionSpec::new();
    let mut sched = Vec::new();
    for i in 0..16u32 {
        let st = region.push(smarq::MemKind::Store, 2 * i);
        let ld = region.push(smarq::MemKind::Load, 2 * i + 1);
        region.set_may_alias(st, ld, true);
        sched.push((st, ld));
    }
    let schedule: Vec<_> = sched.iter().flat_map(|&(s, l)| [l, s]).collect();
    let deps = DepGraph::compute(&region);
    let no_rot = program_order_allocate(
        &region,
        &deps,
        &schedule,
        u32::MAX,
        BaselineOptions {
            scope: BaselineScope::POnly,
            rotate: false,
        },
    )
    .unwrap();
    let rot = program_order_allocate(
        &region,
        &deps,
        &schedule,
        u32::MAX,
        BaselineOptions {
            scope: BaselineScope::POnly,
            rotate: true,
        },
    )
    .unwrap();
    let smarq_ws = smarq::allocate(&region, &deps, &schedule, u32::MAX)
        .unwrap()
        .working_set();
    out.push_str(&format!(
        "rotation (16 serialized hoists): without {} regs, with {} regs, SMARQ {} regs\n",
        no_rot.working_set(),
        rot.working_set(),
        smarq_ws
    ));

    // Speculative-elimination ablation: how much of the SMARQ win comes
    // from eliminations (the feature that *requires* AMOV/anti machinery).
    let mut with_sum = 0.0;
    let mut n = 0;
    for r in &ev.rows {
        let reg = match r.hot_region(EvalConfig::Smarq64) {
            Some(x) => x,
            None => continue,
        };
        if reg.opt.spec_load_elims + reg.opt.spec_store_elims > 0 {
            with_sum += r.speedup(EvalConfig::Smarq64);
            n += 1;
        }
    }
    out.push_str(&format!(
        "speculative eliminations active in {n} benchmarks (mean SMARQ speedup there {:.3})\n",
        if n > 0 { with_sum / n as f64 } else { 0.0 }
    ));

    // AMOV usage across the suite.
    let (mut amovs, mut moves) = (0usize, 0usize);
    for r in &ev.rows {
        if let Some(reg) = r.hot_region(EvalConfig::Smarq64) {
            amovs += reg.opt.amovs;
            moves += reg.opt.amov_moves;
        }
    }
    out.push_str(&format!(
        "AMOVs inserted across hot regions: {amovs} total, {moves} real moves, {} clean-ups\n",
        amovs - moves
    ));

    // Energy proxy (paper §2.4): alias entries examined per executed
    // memory operation, per scheme. The ordered queue with P/C bits scans
    // only what the constraints require; the ALAT's stores scan every
    // live entry.
    out.push_str("alias entries examined per memory op (energy proxy):\n");
    for c in [EvalConfig::Smarq64, EvalConfig::AlatLike] {
        let avg = ev
            .rows
            .iter()
            .map(|r| r.get(c).scans_per_mem_op())
            .sum::<f64>()
            / ev.rows.len() as f64;
        out.push_str(&format!("  {:<14} {avg:6.3}\n", c.name()));
    }

    // Region-size scaling (paper §2.2): unrolling grows regions, and
    // larger regions widen the gap between 16 and 64 alias registers.
    {
        use smarq_runtime::{DynOptSystem, SystemConfig};
        let w = smarq_workloads::scaled("ammp", 3_000).unwrap();
        let cycles = |regs: u32, unroll: u32| {
            let mut cfg = SystemConfig::with_opt(smarq_opt::OptConfig::smarq(regs));
            cfg.unroll_factor = unroll;
            let mut sys = DynOptSystem::new(w.program.clone(), cfg);
            sys.run_to_completion(u64::MAX);
            sys.stats().total_cycles() as f64
        };
        for unroll in [1u32, 3] {
            let gap = cycles(16, unroll) / cycles(64, unroll);
            out.push_str(&format!(
                "region scaling (ammp, unroll x{unroll}): 64 regs beat 16 regs by {:+.1}%\n",
                (gap - 1.0) * 100.0
            ));
        }
    }

    // AMOV mechanism on the canonical cyclic-constraint region (paper
    // Figures 9/12): one run with an unscheduled checker remaining (the
    // AMOV must relocate the range) and one without (pure clean-up, the
    // paper's common case).
    for (label, second_checker) in [("clean-up", false), ("relocation", true)] {
        let (region, schedule) = cyclic_region(second_checker);
        let deps = DepGraph::compute(&region);
        let alloc = smarq::allocate(&region, &deps, &schedule, u32::MAX).unwrap();
        smarq::validate::validate_allocation(&region, &deps, &schedule, &alloc).unwrap();
        out.push_str(&format!(
            "cyclic region ({label}): {} AMOV(s), {} relocation(s), validated\n",
            alloc.stats().amovs,
            alloc.stats().amov_moves
        ));
    }
    out
}

/// The Figure 9/12 cyclic-constraint shape (see `crates/core` tests).
fn cyclic_region(with_second_checker: bool) -> (smarq::RegionSpec, Vec<smarq::MemOpId>) {
    use smarq::MemKind;
    let mut r = smarq::RegionSpec::new();
    let c1 = r.push(MemKind::Store, 0);
    let s = r.push(MemKind::Store, 1);
    let s2 = with_second_checker.then(|| r.push(MemKind::Store, 2));
    let x = r.push(MemKind::Load, 3);
    let v = r.push(MemKind::Store, 4);
    let z2 = r.push(MemKind::Load, 3);
    let y = r.push(MemKind::Store, 5);
    let z1 = r.push(MemKind::Load, 0);
    r.set_may_alias(c1, x, true);
    r.set_may_alias(s, x, true);
    r.set_may_alias(x, v, true);
    r.set_may_alias(v, z2, true);
    r.set_may_alias(y, c1, true);
    r.set_may_alias(y, z1, true);
    r.set_may_alias(x, y, true);
    r.set_may_alias(s, z2, false);
    r.set_may_alias(c1, z2, false);
    r.set_may_alias(y, z2, false);
    if let Some(s2) = s2 {
        r.set_may_alias(s2, x, true);
        r.set_may_alias(s2, z2, false);
        for other in [c1, s, v, y] {
            r.set_may_alias(s2, other, false);
        }
    }
    r.add_load_elim(x, z2);
    r.add_load_elim(c1, z1);
    let mut schedule = vec![c1, v, x, s, y];
    if let Some(s2) = s2 {
        schedule.push(s2);
    }
    (r, schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BenchmarkRow;

    fn mini_eval() -> Evaluation {
        // Two benchmarks are enough to exercise the formatting paths.
        let rows = ["art", "swim"]
            .iter()
            .map(|name| BenchmarkRow::run(&smarq_workloads::by_name(name).unwrap()))
            .collect();
        Evaluation { rows }
    }

    #[test]
    fn figures_render() {
        let ev = mini_eval();
        for f in [
            fig14(&ev),
            fig15(&ev),
            fig16(&ev),
            fig17(&ev),
            fig18(&ev),
            fig19(&ev),
            ablations(&ev),
        ] {
            assert!(f.contains('\n'));
            assert!(f.len() > 50);
        }
    }
}
