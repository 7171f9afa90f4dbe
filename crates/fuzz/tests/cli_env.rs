//! Front-door robustness of the `smarq` CLI: malformed environment input
//! and malformed `lint` arguments are usage errors, not panics.

use std::process::Command;

#[test]
fn malformed_nospec_env_exits_2_without_panicking() {
    for args in [
        &["replay", "../../tests/corpus"][..],
        &["lint", "../../tests/corpus"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_smarq"))
            .args(args)
            .env("SMARQ_NOSPEC", "garbage")
            .output()
            .expect("spawn smarq");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("SMARQ_NOSPEC"), "{args:?}: {stderr}");
    }
}

/// `--multiguest` is bounded: past its maximum it is a usage error (exit
/// 2) instead of exhausting memory, and the maximum itself still runs.
#[test]
fn multiguest_count_is_bounded() {
    let run = |g: &str| {
        Command::new(env!("CARGO_BIN_EXE_smarq"))
            .args(["fuzz", "--cases", "1", "--multiguest", g])
            .output()
            .expect("spawn smarq")
    };
    for g in ["100000000", "65"] {
        let out = run(g);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--multiguest {g}: {stderr}");
        assert!(stderr.contains("usage:"), "--multiguest {g}: {stderr}");
        assert!(!stderr.contains("panicked"), "--multiguest {g}: {stderr}");
    }
    let out = run("64");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("1 cases"), "{stdout}");
}

/// `smarq lint` and `smarq-run lint` share one front door
/// (`smarq_fuzz::lint::cli`): a malformed command line exits 2 without a
/// panic, and an error-severity finding exits 1, so a typo and a finding
/// never look alike. The `smarq-run` half lives in the root `tests/cli_env.rs`.
#[test]
fn lint_exit_status_separates_malformed_arguments_from_findings() {
    let lint = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_smarq"))
            .arg("lint")
            .args(args)
            .output()
            .expect("spawn smarq");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    for args in [
        &["../../tests/corpus", "--nospec", "garbage"][..],
        &["../../tests/corpus", "--bogus"],
        &["../../tests/corpus", "--json"],
        &["../../tests/corpus", "--deny", "NOPE"],
    ] {
        let (code, stderr) = lint(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    // The example's regions lint clean with warnings; denying the
    // warning's code turns them into errors.
    let (code, stderr) = lint(&["../../examples/hoist_loop.s"]);
    assert_eq!(code, Some(0), "{stderr}");
    let (code, stderr) = lint(&["../../examples/hoist_loop.s", "--deny", "overflow-risk"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("error-severity finding"), "{stderr}");
}

/// A reader that has gone (as in `smarq lint --list | head -2`) drops the
/// output instead of panicking: with stdout already closed, each command
/// exits with the status it returns on an open stdout. The `smarq-run`
/// half lives in the root `tests/cli_env.rs`.
#[test]
fn closed_stdout_keeps_the_exit_status_without_panicking() {
    for (args, status) in [
        (&["lint", "--list"][..], 0),
        (&["lint", "../../examples/hoist_loop.s"], 0),
        (
            &[
                "lint",
                "../../examples/hoist_loop.s",
                "--deny",
                "overflow-risk",
            ],
            1,
        ),
        (&["replay", "../../tests/corpus"], 0),
        (&["fuzz", "--seed", "0", "--cases", "2"], 0),
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_smarq"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("spawn smarq");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(status), "{args:?}: {stderr}");
    }
}

/// A mutation run keeps its repros out of the committed corpus, and no
/// run overwrites an entry: in a working directory that already holds
/// `tests/corpus/seed_000000.s`, a fault-injected campaign whose first
/// repro is seed 0 leaves that file byte-unchanged, with and without
/// `--corpus-dir tests/corpus`.
#[test]
fn fault_injected_fuzz_never_overwrites_the_corpus() {
    let dir = std::env::temp_dir().join(format!("smarq-cli-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let corpus = dir.join("tests/corpus");
    std::fs::create_dir_all(&corpus).expect("create corpus dir");
    let entry = corpus.join("seed_000000.s");
    let committed = "; a committed entry\nb0:\n  halt\n";
    std::fs::write(&entry, committed).expect("write entry");
    let fuzz = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_smarq"))
            .current_dir(&dir)
            .args(["fuzz", "--seed", "0", "--cases", "4", "--max-repros", "1"])
            .args(["--inject-fault", "drop-plain-deps", "--expect-divergence"])
            .args(extra)
            .output()
            .expect("spawn smarq");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert_eq!(out.status.code(), Some(0), "{extra:?}: {stdout}");
        stdout
    };
    let names = |d: &std::path::Path| {
        let mut names: Vec<String> = std::fs::read_dir(d)
            .expect("read dir")
            .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };

    let stdout = fuzz(&[]);
    assert!(
        stdout.contains("wrote target/fault-repros/seed_000000.s"),
        "{stdout}"
    );
    assert_eq!(names(&corpus), ["seed_000000.s"]);
    let stdout = fuzz(&["--corpus-dir", "tests/corpus"]);
    assert!(
        stdout.contains("wrote tests/corpus/seed_000000_1.s"),
        "{stdout}"
    );
    assert_eq!(names(&corpus), ["seed_000000.s", "seed_000000_1.s"]);
    assert_eq!(std::fs::read_to_string(&entry).unwrap(), committed);
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
