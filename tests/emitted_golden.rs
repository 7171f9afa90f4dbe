//! Emitted-code golden test: the optimizer's output is pinned bit for bit.
//!
//! Every region the runtime forms for the 14 stand-ins, the regression
//! corpus (`tests/corpus/*.s`) and a set of seeded random loops is
//! re-optimized under each hardware scheme, against the blacklist the run
//! ended with. The disassembly of every `VliwProgram` and the `Debug` form
//! of every `FastProgram` (op stream, compiled-out alias plan and timing)
//! are hashed per (program, scheme) and compared with
//! `tests/golden/emitted_code.txt`. A change to the translation pipeline
//! that is meant to be a pure speed-up must leave this file untouched. A
//! speed-up of the fast-tier lowering itself may change the `fast=`
//! column, never a `regions=` or `vliw=` field: the emitted code stays
//! the same.
//!
//! To regenerate the fixture after an intended change to the emitted code:
//! `cargo test --release --test emitted_golden -- --ignored regenerate`.

use smarq::NospecRanges;
use smarq_guest::Program;
use smarq_opt::{fastcomp, optimize_superblock_traced_ranged, OptConfig};
use smarq_runtime::{DynOptSystem, SystemConfig};
use smarq_workloads::{random_workload_with, RandomParams};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/emitted_code.txt")
}

fn schemes() -> Vec<(&'static str, OptConfig)> {
    // Slot 1 of the random loops' address pool (0x1000 + slot * 128) is
    // unspeculatable: the nospec taint pins some ops and not others.
    let mut nospec = OptConfig::smarq(64);
    nospec.nospec = NospecRanges::from_ranges([(0x1080, 0x1100)]);
    vec![
        ("smarq64", OptConfig::smarq(64)),
        ("smarq8", OptConfig::smarq(8)),
        ("smarq-nsr", OptConfig::smarq_no_store_reorder(64)),
        ("efficeon", OptConfig::efficeon()),
        ("alat", OptConfig::alat()),
        ("none", OptConfig::no_alias_hw()),
        ("smarq64-nospec", nospec),
    ]
}

fn programs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = smarq_workloads::WORKLOAD_NAMES
        .iter()
        .map(|&n| {
            let w = smarq_workloads::scaled(n, 300).expect("stand-in exists");
            (n.to_string(), w.program)
        })
        .collect();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    for (path, program) in smarq_fuzz::load_dir(&dir).expect("corpus loads") {
        let stem = path.file_stem().expect("corpus file name");
        out.push((format!("corpus/{}", stem.to_string_lossy()), program));
    }
    for seed in 0..12u64 {
        let params = RandomParams {
            body_ops: 8 + (seed as usize * 5) % 57,
            iters: 150,
            address_pool: 1 + seed % 8,
        };
        let w = random_workload_with(0x5EED_0000 + seed, params);
        out.push((format!("random/{seed}"), w.program));
    }
    out
}

/// FNV-1a, 64-bit: stable across platforms and toolchains.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One line per (program, scheme): region count and the hashes of the
/// concatenated disassemblies and fast-tier lowerings.
fn render() -> String {
    let mut out = String::new();
    for (name, program) in programs() {
        let dataflow = smarq_verify::analyze(&program);
        for (label, opt) in schemes() {
            let mut cfg = SystemConfig::with_opt(opt.clone());
            cfg.nospec_ranges = opt.nospec.clone();
            cfg.hot_threshold = 10;
            let mut sys = DynOptSystem::new(program.clone(), cfg.clone());
            sys.run_to_completion(u64::MAX);
            let (mut vliw, mut fast, mut regions) = (String::new(), String::new(), 0usize);
            let mut scratch = smarq_opt::TranslationScratch::new();
            for sb in sys.formed_superblocks() {
                let (o, _) = optimize_superblock_traced_ranged(
                    sb,
                    &cfg.opt,
                    &cfg.machine,
                    sys.blacklist(),
                    &mut scratch,
                    Some(dataflow.entry_state(sb.entry)),
                );
                let f = fastcomp::compile_for(&o.vliw, &cfg.machine, &mut scratch)
                    .expect("an emitted region lowers to the fast tier");
                writeln!(vliw, "{}", o.vliw).unwrap();
                writeln!(fast, "{f:?}").unwrap();
                regions += 1;
            }
            writeln!(
                out,
                "{name} {label} regions={regions} vliw={:016x} fast={:016x}",
                fnv1a(vliw.as_bytes()),
                fnv1a(fast.as_bytes())
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn emitted_code_matches_the_golden_fixture() {
    let want = std::fs::read_to_string(fixture()).expect("golden fixture exists");
    let got = render();
    let diffs: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        diffs.is_empty() && want.lines().count() == got.lines().count(),
        "emitted code changed ({} of {} lines differ):\n{}",
        diffs.len(),
        want.lines().count(),
        diffs.join("\n")
    );
}

#[test]
#[ignore = "rewrites the fixture; run after an intended change to the emitted code"]
fn regenerate() {
    let path = fixture();
    std::fs::create_dir_all(path.parent().expect("fixture directory")).unwrap();
    std::fs::write(&path, render()).unwrap();
}
