//! Soundness of the whole-program interval dataflow and convergence of
//! the chain analyzer, corpus-wide.
//!
//! * **Interval soundness**: on every `tests/corpus/` entry (plus a
//!   spread of fuzz-generated programs), a concrete interpreter run must
//!   stay inside the derived ranges — at every block entry, every guest
//!   register's value lies in the interval `crates/verify`'s dataflow
//!   proved for it.
//! * **Chain fixpoint**: the chain analyzer reaches a genuine fixpoint
//!   (widening bounds the iterations) on every corpus program, under
//!   every hardware scheme the runtime forms regions for, and reports no
//!   error-severity finding on the clean corpus.

use smarq_guest::Program;
use smarq_runtime::{DynOptSystem, SystemConfig};
use std::path::Path;

fn corpus() -> Vec<(String, Program)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let entries = smarq_fuzz::load_dir(&dir).expect("corpus loads");
    assert!(entries.len() >= 3, "corpus too small: {}", entries.len());
    entries
        .into_iter()
        .map(|(p, prog)| (p.display().to_string(), prog))
        .collect()
}

/// Steps `program` concretely block-by-block and asserts containment in
/// its derived ranges at every block entry (the fuzz oracle's layer 0).
/// Returns the number of block entries checked.
fn check_containment(name: &str, program: &Program) -> u64 {
    smarq_fuzz::check_containment(program, 3_000_000).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn concrete_runs_stay_inside_derived_ranges_on_corpus() {
    let mut total = 0;
    for (name, program) in corpus() {
        total += check_containment(&name, &program);
    }
    assert!(total > 0);
}

#[test]
fn concrete_runs_stay_inside_derived_ranges_on_generated_programs() {
    for seed in 0..24 {
        let program = smarq_fuzz::generate(seed, &smarq_fuzz::FuzzParams::default());
        check_containment(&format!("gen-{seed}"), &program);
    }
}

#[test]
fn chain_analyzer_reaches_fixpoint_on_every_corpus_program() {
    let mut analyzed = 0;
    for (name, program) in corpus() {
        let mut cfg = SystemConfig {
            hot_threshold: 10,
            ..SystemConfig::default()
        };
        cfg.verify_translations = true;
        let mut sys = DynOptSystem::new(program, cfg);
        sys.run_to_completion(2_000_000);
        let Some(report) = sys.analyze_chain() else {
            continue; // no regions formed: nothing to chain-check
        };
        analyzed += 1;
        assert!(report.converged, "{name}: chain fixpoint hit iteration cap");
        // Widening bounds the work: a generous structural cap, far below
        // the analyzer's own backstop.
        assert!(
            report.iterations <= report.regions * 64 * 16,
            "{name}: {} iterations for {} regions",
            report.iterations,
            report.regions
        );
        let errors: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.severity == smarq::Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{name}: {errors:?}");
    }
    assert!(analyzed > 0, "no corpus program formed chainable regions");
}
