//! System-level statistics and configuration coverage: the energy proxy
//! across schemes and budgeted runs, driven through the public runtime
//! API.

use smarq_guest::parse_program;
use smarq_opt::OptConfig;
use smarq_runtime::{DynOptSystem, SystemConfig};

const KERNEL: &str = r"
.word 0x9000, 7
.word 0x800, 0x1000      ; the store's base, passed in memory
entry:
    iconst r1, 0
    iconst r2, 800
    ld r3, [r0+0x800]    ; no static range analysis sees this value
    iconst r4, 0x9000
    fconst f1, 1.5
    fconst f2, 1.0
    jump body
body:
    fdiv f3, f1, f2
    fst f3, [r3+0]
    fld f4, [r4+0]       ; may-alias to the analysis, never truly aliases
    fmul f5, f4, f2
    fst f5, [r4+8]
    addi r1, r1, 1
    blt r1, r2, body, done
done:
    halt
";

fn run(opt: OptConfig) -> smarq_runtime::SystemStats {
    let program = parse_program(KERNEL).unwrap();
    let mut sys = DynOptSystem::new(program, SystemConfig::with_opt(opt));
    sys.run_to_completion(u64::MAX);
    sys.stats().clone()
}

#[test]
fn energy_proxy_differs_between_schemes() {
    let smarq = run(OptConfig::smarq(64));
    let none = run(OptConfig::no_alias_hw());
    assert!(smarq.scans_per_mem_op() > 0.0, "SMARQ examines entries");
    assert_eq!(none.alias_entries_scanned, 0, "no hardware, no scans");
    assert!(smarq.region_mem_ops > 0);
}

#[test]
fn assembly_data_image_reaches_translated_code() {
    // The .word initialization must be visible to region executions.
    let program = parse_program(KERNEL).unwrap();
    let mut sys = DynOptSystem::new(program, SystemConfig::default());
    sys.run_to_completion(u64::MAX);
    // f4 = mem[0x9000] was seeded with integer bits 7 -> f64::from_bits(7).
    assert_eq!(sys.interp().fregs[4].to_bits(), 7);
    assert!(sys.stats().regions_formed >= 1);
}

#[test]
fn budgeted_runs_report_partial_progress() {
    let program = parse_program(KERNEL).unwrap();
    let mut sys = DynOptSystem::new(program, SystemConfig::default());
    let out = sys.run_to_completion(2_000);
    assert_eq!(out, smarq_runtime::StopReason::BudgetExhausted);
    assert!(sys.stats().guest_instrs() >= 2_000);
    assert!(sys.stats().total_cycles() > 0);
}

#[test]
fn multi_guest_assembly_matches_interpreter() {
    // The `smarq-run --guests N` path: parsed assembly (with a data
    // image) as several tenants of one shared hub, every guest bit-exact.
    use smarq_runtime::{run_multi, GuestContext, HubConfig, TranslationHub, DEFAULT_SLICE_STEPS};
    let program = parse_program(KERNEL).unwrap();
    let mut reference = smarq_guest::Interpreter::new();
    reference.run(&program, u64::MAX);
    let expected = reference.arch_state();

    let mut hub_cfg = HubConfig::from_system(&SystemConfig::default());
    hub_cfg.workers = 0;
    let hub = TranslationHub::new(hub_cfg);
    let guests: Vec<GuestContext> = (0..3)
        .map(|i| GuestContext::new(i, program.clone(), &hub))
        .collect();
    let guests = run_multi(&hub, guests, 2, u64::MAX, DEFAULT_SLICE_STEPS);
    for g in &guests {
        assert!(g.halted());
        assert_eq!(g.interp().arch_state(), expected, "guest {}", g.id());
        assert_eq!(g.interp().fregs[4].to_bits(), 7, "data image visible");
    }
    assert_eq!(
        hub.stats().translations_started,
        1,
        "one hot region, translated once for all guests"
    );
}

/// The removed `--dispatch` flag is a usage error like any other unknown
/// flag: exit status 2, no panic.
#[test]
fn dispatch_flag_is_rejected_as_unknown() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_smarq-run"))
        .args(["examples/hoist_loop.s", "--dispatch", "naive"])
        .output()
        .expect("spawn smarq-run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// `--verify` fails a run whose translations the verifier rejects, on
/// the single-guest and the multi-guest path alike. The injected
/// dependence-dropping fault makes the optimizer speculate past real
/// dependences on a fuzz-generated program.
#[test]
fn verify_errors_fail_single_and_multi_guest_runs() {
    let program = smarq_fuzz::generate(2, &smarq_fuzz::FuzzParams::default());
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("verify_fault_seed2.s");
    std::fs::write(&path, smarq_guest::disassemble(&program)).expect("write program");
    let run = |extra: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_smarq-run"))
            .arg(&path)
            .arg("--verify")
            .args(extra)
            .env("SMARQ_FAULT_DROP_DEPS", "1")
            .output()
            .expect("spawn smarq-run");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    let (single, stdout) = run(&[]);
    assert_eq!(
        single,
        Some(1),
        "precondition: single guest fails\n{stdout}"
    );
    let (multi, stdout) = run(&["--guests", "2"]);
    assert_eq!(multi, Some(1), "{stdout}");
    assert!(stdout.contains("\"severity\": \"error\""), "{stdout}");
}

/// Error findings are listed ahead of warnings under the findings cap.
/// Three loops run one after another, each a region whose loads are
/// hoisted past stores to provably disjoint addresses. Under the
/// lost-precision fault (`SMARQ_FAULT_DROP_RANGES`) the optimizer still
/// speculates on those pairs, so each link's chain check reports dozens
/// of `chain-unreachable-check` warnings: with the entry state's ranges
/// in use no runtime check emits a warning at all. The first link alone
/// brings more warnings than the cap leaves room for; under the
/// dependence-dropping fault the second and third regions' verify errors
/// arrive after it and must still be listed.
#[test]
fn verify_errors_are_listed_ahead_of_warnings_under_the_cap() {
    let mut src = String::from(
        "b0:\n    iconst r1, 0\n    iconst r2, 200\n    iconst r3, 0x1000\n    \
         iconst r5, 0x2000\n    iconst r6, 0x3000\n    iconst r7, 0x4000\n    jump b1\n",
    );
    for l in 1..=3 {
        src.push_str(&format!("b{l}:\n"));
        for k in 0..6 {
            let d = k * 8;
            src.push_str(&format!(
                "    st r1, [r5+{d}]\n    ld r4, [r3+{d}]\n    st r4, [r6+{d}]\n    \
                 ld r8, [r7+{d}]\n    add r9, r4, r8\n"
            ));
        }
        src.push_str(&format!(
            "    addi r1, r1, 1\n    blt r1, r2, b{l}, e{l}\ne{l}:\n    iconst r1, 0\n    \
             jump b{}\n",
            l + 1
        ));
    }
    src.push_str("b4:\n    halt\n");
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("three_loops.s");
    std::fs::write(&path, src).expect("write program");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_smarq-run"))
        .arg(&path)
        .arg("--verify")
        .env("SMARQ_FAULT_DROP_DEPS", "1")
        .env("SMARQ_FAULT_DROP_RANGES", "1")
        .output()
        .expect("spawn smarq-run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // "verification: 3 region(s) statically verified, E error(s), C chain
    // check(s) with CE error(s)"
    let counts: Vec<u64> = stdout
        .lines()
        .find(|l| l.starts_with("verification:"))
        .expect("verification line")
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|w| w.parse().ok())
        .collect();
    let [regions, verify_errors, chain_checks, chain_errors] = counts[..] else {
        panic!("unexpected verification line: {counts:?}\n{stdout}");
    };
    let listed: Vec<&str> = stdout.lines().filter(|l| l.starts_with("  {")).collect();
    let listed_errors = listed
        .iter()
        .filter(|l| l.contains("\"severity\": \"error\""))
        .count() as u64;
    assert!(
        regions >= 3 && chain_checks >= 2,
        "precondition: three regions, links checked\n{stdout}"
    );
    assert_eq!(
        listed.len(),
        smarq_runtime::SystemStats::VERIFY_DIAGNOSTIC_CAP,
        "precondition: warnings fill the cap\n{stdout}"
    );
    let errors = verify_errors + chain_errors;
    assert!(errors > 0 && errors < listed.len() as u64, "{stdout}");
    assert_eq!(listed_errors, errors, "every error is listed\n{stdout}");
    assert!(
        listed[..errors as usize]
            .iter()
            .all(|l| l.contains("\"severity\": \"error\"")),
        "errors come first\n{stdout}"
    );
}

/// `--regs` is bounded by the paper's 64-register machine: a larger file
/// is a usage error (exit 2, no panic or allocation abort), while the
/// full 64-register file runs bit-exact against pure interpretation.
#[test]
fn alias_register_count_is_bounded() {
    let run = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_smarq-run"))
            .args(args)
            .output()
            .expect("spawn smarq-run");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    for regs in ["4000000000", "65", "0"] {
        let (code, _, stderr) = run(&["tests/corpus/seed_000000.s", "--regs", regs]);
        assert_eq!(code, Some(2), "--regs {regs}: {stderr}");
        assert!(stderr.contains("usage:"), "--regs {regs}: {stderr}");
        assert!(!stderr.contains("panicked"), "--regs {regs}: {stderr}");
    }
    for file in ["tests/corpus/seed_000000.s", "examples/hoist_loop.s"] {
        let (code, stdout, stderr) = run(&[file, "--regs", "64", "--compare"]);
        assert_eq!(code, Some(0), "{file}: {stderr}");
        assert!(stdout.contains("bit-exact"), "{file}: {stdout}");
        // The loop forms a region, so its run exercised the full queue.
        if file.starts_with("examples") {
            assert!(stdout.contains("regions:             1 formed"), "{stdout}");
        }
    }
}

/// The other size flags are bounded too: past its maximum each is a
/// usage error (exit 2, no abort while allocating or spawning), and a
/// value at each maximum still runs, bit-exact against interpretation.
#[test]
fn size_flags_are_bounded() {
    let run = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_smarq-run"))
            .arg("tests/corpus/seed_000000.s")
            .args(args)
            .output()
            .expect("spawn smarq-run");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    for args in [
        &["--guests", "100000000"][..],
        &["--guests", "1025"],
        &["--async-translate", "--translate-workers", "100000"],
        &["--async-translate", "--translate-workers", "65"],
        &["--async-translate", "--translate-queue", "4000000000"],
        &["--async-translate", "--translate-queue", "4097"],
        &["--guests", "2", "--threads", "65"],
    ] {
        let (code, _, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    for args in [
        &["--guests", "1024", "--compare"][..],
        &[
            "--async-translate",
            "--translate-workers",
            "64",
            "--translate-queue",
            "4096",
            "--compare",
        ],
        &["--guests", "4", "--threads", "64", "--compare"],
    ] {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        assert!(stdout.contains("bit-exact"), "{args:?}: {stdout}");
    }
}
