//! `smarq` — fuzzing and corpus tooling for the SMARQ reproduction.
//!
//! ```text
//! smarq fuzz   [--seed N] [--cases N] [--budget-secs S] [--corpus-dir DIR]
//!              [--max-repros N] [--multiguest G]
//!              [--inject-fault drop-plain-deps|drop-anti|drop-boundary|widen-range]
//!              [--expect-divergence]
//! smarq replay PATH...        # corpus files or directories
//! smarq lint   PATH... [--json FILE] [--nospec LO..HI[,..]]
//!              [--deny CODE] [--allow CODE]   # static verification + lints
//! smarq lint --list           # print the stable diagnostic code table
//! smarq snippet FILE          # print a paste-ready Rust regression test
//! ```
//!
//! `fuzz` exits non-zero when a divergence was found (or, with
//! `--expect-divergence`, when none was — the mutation sanity mode).
//! Minimized repros are written to `--corpus-dir` (default
//! `tests/corpus`). `lint` exits non-zero on any error-severity finding
//! *after* the `--deny`/`--allow` policy is applied; `--json`
//! additionally writes the structured report for CI artifacts, and
//! `--nospec` forbids speculation across the given half-open address
//! ranges (the chain analyzer proves none was scheduled). A malformed
//! `SMARQ_NOSPEC` is reported and exits with status 2 before any command
//! runs.

use smarq_fuzz::{
    check_program, lint_paths_with, load_dir, run_campaign, CampaignParams, LintConfig,
    OracleParams, Repro,
};
use smarq_verify::{LintPolicy, CODES, CODE_TABLE_VERSION};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: smarq fuzz [--seed N] [--cases N] [--budget-secs S] [--corpus-dir DIR]\n\
         \x20                 [--max-repros N] [--multiguest G]\n\
         \x20                 [--inject-fault drop-plain-deps|drop-anti|drop-boundary|widen-range]\n\
         \x20                 [--expect-divergence]\n\
         \x20      smarq replay PATH...\n\
         \x20      smarq lint PATH... [--json FILE] [--nospec LO..HI[,..]]\n\
         \x20                 [--deny CODE] [--allow CODE]\n\
         \x20      smarq lint --list\n\
         \x20      smarq snippet FILE"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    if let Err(e) = smarq_runtime::nospec_ranges_from_env() {
        eprintln!("SMARQ_NOSPEC: {e}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("snippet") => cmd_snippet(&args[1..]),
        _ => usage(),
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    value
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag}: bad value"))
}

fn cmd_fuzz(args: &[String]) -> ExitCode {
    let mut params = CampaignParams {
        budget: None,
        ..CampaignParams::default()
    };
    let mut cases_set = false;
    let mut corpus_dir = PathBuf::from("tests/corpus");
    let mut expect_divergence = false;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match args[i].as_str() {
            "--seed" => match parse_num("--seed", value) {
                Ok(v) => params.seed = v,
                Err(e) => return fail(&e),
            },
            "--cases" => match parse_num("--cases", value) {
                Ok(v) => {
                    params.cases = v;
                    cases_set = true;
                }
                Err(e) => return fail(&e),
            },
            "--budget-secs" => match parse_num("--budget-secs", value) {
                Ok(v) => params.budget = Some(Duration::from_secs(v)),
                Err(e) => return fail(&e),
            },
            "--max-repros" => match parse_num("--max-repros", value) {
                Ok(v) => params.max_repros = v,
                Err(e) => return fail(&e),
            },
            "--multiguest" => match parse_num("--multiguest", value) {
                Ok(v) => params.multi_guests = v,
                Err(e) => return fail(&e),
            },
            "--corpus-dir" => match value {
                Some(v) => corpus_dir = PathBuf::from(v),
                None => return fail("--corpus-dir needs a value"),
            },
            "--inject-fault" => match value.map(String::as_str) {
                Some("drop-plain-deps") => smarq::fault::set_drop_plain_deps(true),
                Some("drop-anti") => smarq::fault::set_drop_anti(true),
                Some("drop-boundary") => smarq::fault::set_drop_boundary(true),
                Some("widen-range") => smarq::fault::set_widen_range(true),
                _ => {
                    return fail(
                        "--inject-fault supports: drop-plain-deps, drop-anti, \
                         drop-boundary, widen-range",
                    )
                }
            },
            "--expect-divergence" => {
                expect_divergence = true;
                i += 1;
                continue;
            }
            other => return fail(&format!("unknown flag {other}")),
        }
        i += 2;
    }
    if params.budget.is_none() && !cases_set {
        params.budget = Some(Duration::from_secs(60));
    }

    let outcome = run_campaign(&params, |line| println!("[fuzz] {line}"));
    println!(
        "[fuzz] {} cases, {} skipped (nonterminating), {} repro(s)",
        outcome.cases_run,
        outcome.skipped,
        outcome.repros.len()
    );
    for repro in &outcome.repros {
        match repro.write_to(&corpus_dir) {
            Ok(path) => {
                println!("[fuzz] wrote {}", path.display());
                println!("----- paste-ready regression test -----");
                print!("{}", repro.rust_snippet());
                println!("---------------------------------------");
            }
            Err(e) => return fail(&format!("writing repro: {e}")),
        }
    }
    let found = !outcome.repros.is_empty();
    if expect_divergence {
        if found {
            println!("[fuzz] divergence found, as expected");
            ExitCode::SUCCESS
        } else {
            fail("expected a divergence but the oracles stayed green")
        }
    } else if found {
        fail("divergence(s) found — see repro files above")
    } else {
        ExitCode::SUCCESS
    }
}

fn collect_entries(paths: &[String]) -> Result<Vec<(PathBuf, smarq_guest::Program)>, String> {
    let mut out = Vec::new();
    for p in paths {
        let path = Path::new(p);
        if path.is_dir() {
            out.extend(load_dir(path).map_err(|e| e.to_string())?);
        } else {
            let src = std::fs::read_to_string(path).map_err(|e| format!("{p}: {e}"))?;
            let prog = smarq_guest::parse_program(&src).map_err(|e| format!("{p}: {e:?}"))?;
            out.push((path.to_path_buf(), prog));
        }
    }
    Ok(out)
}

fn cmd_replay(args: &[String]) -> ExitCode {
    if args.is_empty() {
        return usage();
    }
    let entries = match collect_entries(args) {
        Ok(e) => e,
        Err(e) => return fail(&e),
    };
    if entries.is_empty() {
        return fail("no corpus entries found");
    }
    let mut failures = 0;
    for (path, program) in &entries {
        match check_program(program, &OracleParams::default()) {
            Ok(report) => println!(
                "[replay] {}: green ({} schemes, {} regions)",
                path.display(),
                report.schemes,
                report.regions_checked
            ),
            Err(d) => {
                failures += 1;
                println!("[replay] {}: {d}", path.display());
            }
        }
    }
    if failures == 0 {
        println!("[replay] {} entr(ies) green", entries.len());
        ExitCode::SUCCESS
    } else {
        fail(&format!("{failures} corpus entr(ies) diverged"))
    }
}

/// Prints the stable diagnostic code table (`smarq lint --list`).
fn list_codes() -> ExitCode {
    println!("code table version {CODE_TABLE_VERSION}");
    for info in CODES {
        println!(
            "{:<24} {:<9} {:<7} {}",
            info.code,
            info.origin.label(),
            format!("{:?}", info.default_severity).to_lowercase(),
            info.description
        );
    }
    ExitCode::SUCCESS
}

fn cmd_lint(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--list") {
        return list_codes();
    }
    let mut paths: Vec<&str> = Vec::new();
    let mut json_out: Option<PathBuf> = None;
    let mut nospec = smarq::range::NospecRanges::none();
    let mut deny: Vec<String> = Vec::new();
    let mut allow: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => match args.get(i + 1) {
                Some(v) => {
                    json_out = Some(PathBuf::from(v));
                    i += 2;
                }
                None => return fail("--json needs a value"),
            },
            "--nospec" => match args.get(i + 1) {
                Some(v) => match smarq::range::NospecRanges::parse(v) {
                    Ok(r) => {
                        nospec = r;
                        i += 2;
                    }
                    Err(e) => return fail(&format!("--nospec: {e}")),
                },
                None => return fail("--nospec needs a value"),
            },
            "--deny" => match args.get(i + 1) {
                Some(v) => {
                    deny.push(v.clone());
                    i += 2;
                }
                None => return fail("--deny needs a value"),
            },
            "--allow" => match args.get(i + 1) {
                Some(v) => {
                    allow.push(v.clone());
                    i += 2;
                }
                None => return fail("--allow needs a value"),
            },
            flag if flag.starts_with("--") => return fail(&format!("unknown flag {flag}")),
            p => {
                paths.push(p);
                i += 1;
            }
        }
    }
    if paths.is_empty() {
        return usage();
    }
    let policy = match LintPolicy::new(deny, allow) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let config = LintConfig { nospec, policy };
    let path_refs: Vec<&Path> = paths.iter().map(Path::new).collect();
    let outcome = match lint_paths_with(&path_refs, &config, |line| println!("[lint] {line}")) {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    println!(
        "[lint] {} entr(ies), {} region(s): {} error(s), {} warning(s)",
        outcome.entries, outcome.regions, outcome.errors, outcome.warnings
    );
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(&path, smarq_fuzz::lint::to_json(&outcome)) {
            return fail(&format!("writing {}: {e}", path.display()));
        }
        println!("[lint] wrote {}", path.display());
    }
    if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        fail(&format!("{} error-severity finding(s)", outcome.errors))
    }
}

fn cmd_snippet(args: &[String]) -> ExitCode {
    let [file] = args else { return usage() };
    let src = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => return fail(&format!("{file}: {e}")),
    };
    let program = match smarq_guest::parse_program(&src) {
        Ok(p) => p,
        Err(e) => return fail(&format!("{file}: {e:?}")),
    };
    // Recover the recorded metadata from the header when present.
    let field = |name: &str| {
        src.lines()
            .filter_map(|l| l.strip_prefix(&format!("; {name}: ")))
            .next()
            .map(str::to_string)
    };
    let repro = Repro {
        seed: field("seed").and_then(|s| s.parse().ok()).unwrap_or(0),
        divergence: field("divergence").unwrap_or_else(|| "unrecorded".to_string()),
        original_ops: program.static_instrs(),
        program,
    };
    print!("{}", repro.rust_snippet());
    ExitCode::SUCCESS
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("smarq: {msg}");
    ExitCode::FAILURE
}
