//! Regenerates every table and figure of the SMARQ paper's evaluation.
//!
//! Usage: `figures [table1|table2|table3|fig14|fig15|fig16|fig17|fig18|fig19|ablations|all]`
//! (default: `all`).
//!
//! `figures bench-json [OUT.json]` instead runs the before/after perf
//! comparisons (see `smarq_bench::perf`), the serial-vs-parallel
//! evaluation sweep and the multi-guest scaling benchmark, and writes the
//! JSON baseline (default `BENCH_PR31.json`). The convention: a PR
//! claiming performance work commits the file this prints, named
//! `BENCH_PR<n>.json`.

use smarq_bench::{bench_multi_guest, figures, perf, tables, Evaluation};

fn bench_json(out_path: &str) {
    eprintln!("running before/after comparisons ...");
    // Report each comparison as it finishes: on a slow host the full set
    // takes a while, and a silent multi-minute gap is indistinguishable
    // from a hang.
    type ComparisonFn = fn() -> smarq_bench::harness::Comparison;
    let parts: [(&str, ComparisonFn); 5] = [
        ("constraint_analysis", perf::compare_constraint_analysis),
        ("allocator", perf::compare_allocator),
        ("exec_tier", perf::compare_exec_tier),
        ("exec_tier_mem", perf::compare_exec_tier_mem),
        ("async_translate", perf::compare_async_translate),
    ];
    let mut comparisons = Vec::with_capacity(parts.len());
    for (name, run) in parts {
        eprintln!("[bench] {name} ...");
        let c = run();
        eprintln!("{}", c.report());
        comparisons.push(c);
    }
    eprintln!(
        "measuring absolute dispatch + simulator + stand-in entry + guest memory + validator + analyzer + optimizer + lowering throughput ..."
    );
    let (analyzer_region, analyzer_chain) = perf::measure_analyzer();
    let absolutes = vec![
        perf::measure_dispatch(),
        perf::measure_simulator_region(),
        perf::measure_standin_entry(),
        perf::measure_memory_stream(),
        perf::measure_validator_regions(),
        analyzer_region,
        analyzer_chain,
        perf::measure_optimizer_regions(),
        perf::measure_lowering_regions(),
    ];
    for m in &absolutes {
        eprintln!("{}", m.line());
    }
    eprintln!("timing the evaluation sweep (serial, then parallel) ...");
    let sweep = perf::time_eval_sweep();
    if sweep.degenerate {
        eprintln!(
            "sweep: serial {:.2}s; single hardware thread, parallel run \
             skipped (degenerate)",
            sweep.serial_s
        );
    } else {
        eprintln!(
            "sweep: serial {:.2}s, parallel {:.2}s on {} threads ({:.2}x)",
            sweep.serial_s,
            sweep.parallel_s,
            sweep.threads,
            sweep.speedup()
        );
    }
    eprintln!("running the multi-guest scaling benchmark ...");
    let multi = bench_multi_guest();
    for r in &multi.rows {
        eprintln!(
            "multiguest: {} threads  {:.2}s [{:.2}..{:.2}]  {:.2} guest-programs/s  {:.2}M guest-instrs/s",
            r.threads,
            r.wall_s,
            r.wall_min_s,
            r.wall_max_s,
            r.guest_programs_per_s,
            r.guest_instrs_per_s / 1.0e6
        );
    }
    match multi.scaling_speedup() {
        Some(s) => eprintln!(
            "multiguest: {:.2}x from 1 -> {} threads; shared cache translated {} regions vs {} private",
            s,
            multi.rows.last().map_or(1, |r| r.threads),
            multi.shared_translations,
            multi.private_translations
        ),
        None => eprintln!(
            "multiguest: single hardware thread, scaling rows skipped (degenerate); \
             shared cache translated {} regions vs {} private",
            multi.shared_translations, multi.private_translations
        ),
    }
    let json = perf::to_json(&comparisons, &absolutes, Some(&sweep), Some(&multi));
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    if arg == "bench-json" {
        let out = std::env::args()
            .nth(2)
            .unwrap_or_else(|| "BENCH_PR31.json".into());
        bench_json(&out);
        return;
    }
    let needs_eval = !matches!(arg.as_str(), "table1" | "table2" | "table3" | "sensitivity");
    let ev = if needs_eval {
        eprintln!("running 14 benchmarks x 5 configurations ...");
        Some(Evaluation::run())
    } else {
        None
    };
    let ev = ev.as_ref();

    let sections: Vec<(&str, String)> = vec![
        ("table1", tables::table1()),
        ("table2", tables::table2()),
        ("table3", tables::table3()),
        ("fig14", ev.map(figures::fig14).unwrap_or_default()),
        ("fig15", ev.map(figures::fig15).unwrap_or_default()),
        ("fig16", ev.map(figures::fig16).unwrap_or_default()),
        ("fig17", ev.map(figures::fig17).unwrap_or_default()),
        ("fig18", ev.map(figures::fig18).unwrap_or_default()),
        ("fig19", ev.map(figures::fig19).unwrap_or_default()),
        ("ablations", ev.map(figures::ablations).unwrap_or_default()),
        (
            "sensitivity",
            if arg == "sensitivity" || arg == "all" {
                figures::sensitivity()
            } else {
                String::new()
            },
        ),
    ];

    let mut printed = false;
    for (name, text) in &sections {
        if arg == "all" || arg == *name {
            println!("{text}");
            printed = true;
        }
    }
    if !printed {
        eprintln!("unknown section '{arg}'");
        eprintln!("sections: table1 table2 table3 fig14..fig19 ablations sensitivity all");
        eprintln!("perf baseline: bench-json [OUT.json]");
        std::process::exit(2);
    }
}
