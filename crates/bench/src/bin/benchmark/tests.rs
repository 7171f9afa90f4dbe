//! Tests of the benchmark itself: deterministic generators, percentiles
//! backed by enough samples, the correctness gate, the comparison
//! verdicts, and a smoke run of every workload against the metrics
//! `BENCHMARK.json` declares.

use crate::compare::{verdict, Verdict};
use crate::exec::{measure, Mode, Runner, Tally, MIN_ROUNDS};
use crate::probe::HostSpeed;
use crate::report::{metric, samples_beyond, Json, Row, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::workload::{host_threads, Workload, CHURN_PROGRAMS};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The repository root: the first directory above this package's manifest
/// that holds `BENCHMARK.json` (the sources build both as the benchmark's
/// own package and as a binary of `smarq-bench`).
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .find(|d| d.join("BENCHMARK.json").is_file())
        .expect("BENCHMARK.json above the package")
        .to_path_buf()
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("readable BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// The settings of a manifest's `[profile.release]` table, comments and
/// blank lines dropped.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).expect("readable manifest");
    text.lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

fn array<'a>(json: &'a Json, key: &str) -> &'a [Json] {
    match json.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn declared(json: &Json, key: &str) -> Vec<String> {
    array(json, key)
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn generators_are_deterministic_in_the_seed_and_every_program_halts() {
    for w in [Workload::Churn, Workload::Multiguest] {
        let a = w.programs(7, 0.1);
        assert_eq!(
            a,
            w.programs(7, 0.1),
            "{} is a function of the seed",
            w.name()
        );
        assert_ne!(a, w.programs(8, 0.1), "{} varies with the seed", w.name());
        // `generate` runs the reference interpreter on every program and
        // fails on one that does not halt.
        let inputs = w.generate(7, 0.1).expect("every program halts");
        assert!(inputs.items.iter().all(|i| i.ref_instrs() > 0));
    }
}

/// Program latency is the headline of churn, each of whose rounds holds
/// enough programs for both percentiles. On the other workloads a round
/// holds 14 programs or 7 batches, so their `program_ms_p99` is nearly a
/// round's slowest item time, which the report marks "(fewer than 10)".
#[test]
fn churn_percentiles_have_ten_samples_beyond_them() {
    for m in ["program_ms_p50", "program_ms_p99"] {
        let q = if m.ends_with("p50") { 0.5 } else { 0.99 };
        assert!(metric(m).is_some());
        assert!(samples_beyond(CHURN_PROGRAMS, q) >= 10, "{m}");
    }
    assert_eq!(samples_beyond(1000, 0.99), 10);
    assert_eq!(samples_beyond(999, 0.99), 9);
}

/// Scaling to the reference host's speed multiplies every time of a
/// segment by the same positive factor, also when the probe runs on two
/// threads at once, as multiguest's does.
#[test]
fn host_speed_scales_a_segment_by_one_factor() {
    for threads in [1, 2] {
        let mut host = HostSpeed::new(threads);
        let mut segment = [1.0, 3.0];
        host.scale(&mut segment);
        let f = host.factors[0];
        assert!(f.is_finite() && f > 0.0, "{threads} threads: factor {f}");
        assert_eq!(segment, [f, 3.0 * f]);
    }
}

#[test]
fn a_perturbed_reference_counts_as_a_failure() {
    for w in [Workload::Churn, Workload::Multiguest] {
        let cfg = w.config(host_threads());
        let mut inputs = w.generate(3, 0.01).expect("inputs");
        let runner = Runner {
            workload: w,
            cfg: &cfg,
        };
        let item = &mut inputs.items[0];
        let guests = item.guests.len() as u64;
        let mut good = Tally::default();
        runner.run_item(item, &mut good, None);
        assert_eq!((good.attempted, good.failed), (guests, 0), "{}", w.name());
        item.programs[0].reference.regs[1] ^= 1;
        let mut bad = Tally::default();
        runner.run_item(item, &mut bad, None);
        let on_program_0 = item.guests.iter().filter(|&&p| p == 0).count() as u64;
        assert_eq!(
            (bad.attempted, bad.failed),
            (guests, on_program_0),
            "{}",
            w.name()
        );
    }
}

#[test]
fn benchmark_json_matches_the_metric_tables_and_workloads() {
    let json = benchmark_json();
    let entries = |key: &str| array(&json, key).to_vec();
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = entries(key);
        assert_eq!(listed.len(), table.len(), "{key}");
        for (m, def) in listed.iter().zip(table) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(def.name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(def.better.as_str())
            );
            assert_eq!(
                m.get("bound").and_then(Json::as_f64),
                def.bound,
                "{}",
                def.name
            );
        }
    }
    let workloads = entries("workloads");
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (j, w) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(j.get("name").and_then(Json::as_str), Some(w.name()));
        assert_eq!(j.get("why").and_then(Json::as_str), Some(w.why()));
    }
}

/// `BENCHMARK.json` builds the benchmark as its own package, whose release
/// profile must stay the one the workspace ships, or the benchmark would
/// measure a different build.
#[test]
fn the_benchmark_package_builds_with_the_workspace_release_profile() {
    let root = repo_root();
    let dir = array(&benchmark_json(), "paths")[0]
        .as_str()
        .expect("paths holds strings")
        .to_string();
    let workspace = release_profile(&root.join("Cargo.toml"));
    assert!(
        !workspace.is_empty(),
        "the workspace sets a release profile"
    );
    assert_eq!(
        release_profile(&root.join(dir).join("Cargo.toml")),
        workspace
    );
}

#[test]
fn smoke_run_of_every_workload_reports_exactly_the_declared_metrics() {
    let json = benchmark_json();
    let t0 = Instant::now();
    for w in Workload::ALL {
        let cfg = w.config(host_threads());
        let (inputs, setup_s) = w.setup(1, 0.01).expect("inputs");
        let mut tracer = Tracer::default();
        for (mode, key) in [(Mode::EndToEnd, "end_to_end"), (Mode::Layers, "per_layer")] {
            let out =
                measure(w, &cfg, &inputs, &setup_s, 0.0, mode, &mut tracer).expect("measured");
            assert!(out.attempted > 0);
            assert_eq!(out.failed, 0, "{}: error rate must be 0", w.name());
            let names: Vec<&str> = out.rows.iter().map(|r| r.def.name).collect();
            assert_eq!(names, declared(&json, key), "{} {key}", w.name());
            if mode == Mode::EndToEnd {
                assert!(
                    out.rows.iter().all(|r| r.value > 0.0),
                    "{}: {:?}",
                    w.name(),
                    out.rows
                );
                // `guest_mips` counts the timed rounds behind it.
                assert!(out.rows[0].n >= MIN_ROUNDS, "{}", w.name());
            }
        }
    }
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "smoke run took {:?}",
        t0.elapsed()
    );
}

#[test]
fn result_rows_round_trip_through_the_json_reader() {
    let row = Row::median("churn", "guest_mips", &[1.0, 2.5, 3.0]);
    let parsed = Json::parse(&row.json()).expect("row is JSON");
    assert_eq!(parsed.get("workload").and_then(Json::as_str), Some("churn"));
    assert_eq!(
        parsed.get("metric").and_then(Json::as_str),
        Some("guest_mips")
    );
    assert_eq!(parsed.get("value").and_then(Json::as_f64), Some(2.5));
    assert_eq!(parsed.get("n").and_then(Json::as_f64), Some(3.0));
    let nested = Json::parse(r#"{"a": [1, -2.5e3, "x\"yA"], "b": {"c": null, "d": true}}"#)
        .expect("nested JSON");
    let a = array(&nested, "a");
    assert_eq!(a[1].as_f64(), Some(-2500.0));
    assert_eq!(a[2].as_str(), Some("x\"yA"));
    assert!(Json::parse("{\"a\": 1,}").is_err());
}

#[test]
fn compare_verdicts_follow_the_bounds() {
    let mips = metric("guest_mips").expect("declared");
    let base = [100.0, 101.0, 99.0, 100.5, 99.5];
    assert_eq!(verdict(mips, &base, &base), Verdict::Within);
    let faster: Vec<f64> = base.iter().map(|v| v * 1.3).collect();
    assert_eq!(verdict(mips, &base, &faster), Verdict::Better);
    let slower: Vec<f64> = base.iter().map(|v| v * 0.5).collect();
    assert_eq!(verdict(mips, &base, &slower), Verdict::Worse);
    let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
    assert_eq!(verdict(mips, &noisy, &base), Verdict::Unresolved);
    assert_eq!(
        verdict(metric("ir.form_us").expect("declared"), &base, &slower),
        Verdict::NoBound
    );
}
