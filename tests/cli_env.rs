//! Front-door robustness of the `smarq-run` CLI: malformed environment
//! input is a usage error, not a panic, and only `SMARQ_NOSPEC` (the
//! `--nospec` default) of the configuration comes from the environment.

use std::process::Command;

#[test]
fn malformed_nospec_env_exits_2_without_panicking() {
    for args in [
        &["examples/hoist_loop.s"][..],
        &["lint", "tests/corpus"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_smarq-run"))
            .args(args)
            .env("SMARQ_NOSPEC", "garbage")
            .output()
            .expect("spawn smarq-run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("SMARQ_NOSPEC"), "{args:?}: {stderr}");
    }
}

/// The library reads no environment: the variables that once switched
/// the execution tier, verify-on-emit and async translation change
/// nothing, so a run with them set prints the same tier and cycle lines
/// as a run without them (only the host-timed `optimization:` share
/// differs between runs).
#[test]
fn removed_config_variables_change_nothing() {
    let run = |vars: &[(&str, &str)]| {
        let out = Command::new(env!("CARGO_BIN_EXE_smarq-run"))
            .arg("examples/hoist_loop.s")
            .envs(vars.iter().copied())
            .output()
            .expect("spawn smarq-run");
        assert!(out.status.success(), "{vars:?}: {out:?}");
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.starts_with("optimization:"))
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    let plain = run(&[]);
    assert!(
        plain.iter().any(|l| l.starts_with("simulated cycles:")),
        "{plain:?}"
    );
    let with_vars = run(&[
        ("SMARQ_EXEC_TIER", "functional"),
        ("SMARQ_VERIFY", "1"),
        ("SMARQ_ASYNC_TRANSLATE", "1"),
    ]);
    assert_eq!(with_vars, plain);
}
