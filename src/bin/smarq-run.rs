//! `smarq-run` — execute a guest assembly file on the dynamic optimization
//! system.
//!
//! ```text
//! smarq-run FILE.s [--hw smarq|smarq16|efficeon|alat|none]
//!                  [--regs N] [--unroll N] [--budget N]
//!                  [--dispatch naive|chained] [--exec-tier cycle|functional]
//!                  [--async-translate] [--translate-workers N]
//!                  [--translate-queue N] [--guests N] [--threads M]
//!                  [--dump-region] [--compare] [--verify]
//!                  [--nospec LO..HI[,..]]
//! smarq-run lint PATH... [--json FILE] [--nospec LO..HI[,..]]
//!                  [--deny CODE] [--allow CODE]
//! smarq-run lint --list
//! ```
//!
//! The `lint` subcommand statically verifies and lints every region the
//! system forms for the given programs (or corpus directories) under every
//! hardware scheme — see `crates/verify`. `--list` prints the stable
//! diagnostic code table; `--deny CODE` / `--allow CODE` raise/lower a
//! code's severity before the exit status is decided. `--verify` enables
//! the runtime's verify-on-emit mode for a normal run (also via
//! `SMARQ_VERIFY=1`); with it, region→region link formation additionally
//! runs the whole-chain static analyzer. `--nospec LO..HI[,..]` declares
//! half-open unspeculatable address ranges (also via `SMARQ_NOSPEC`):
//! the optimizer never schedules speculation that can touch them, and the
//! chain analyzer proves none was. A malformed `SMARQ_NOSPEC` is reported
//! and exits with status 2 before anything runs.
//! `--exec-tier functional` runs optimized regions on the fast functional
//! tier with sampled cycle-sim tier-down checks (also via
//! `SMARQ_EXEC_TIER=functional`); `--dispatch naive` disables region
//! chaining. `--async-translate` moves region formation, optimization and
//! verification onto background worker threads (also via
//! `SMARQ_ASYNC_TRANSLATE=1`): the guest keeps interpreting while
//! translations are in flight and finished regions publish atomically at
//! dispatch-step boundaries. `--translate-workers N` sizes the pool
//! (`0` = a deterministic in-thread stepper) and `--translate-queue N`
//! bounds the job queue.
//!
//! `--guests N` (N >= 2) switches to the multi-guest runtime: N tenants
//! of the same program run over one shared `TranslationHub` (sharded
//! translation cache, single-flight dedup, shared blacklist), scheduled
//! on `--threads M` host threads. `--translate-workers` then sizes the
//! hub's background pool (`0` = translate inline in the requesting
//! guest) and `--compare` checks every guest bit-exactly against pure
//! interpretation.

use smarq_opt::OptConfig;
use smarq_runtime::{
    run_multi, DispatchMode, DynOptSystem, ExecTier, GuestContext, HubConfig, SystemConfig,
    TranslationHub, DEFAULT_SLICE_STEPS,
};
use std::process::ExitCode;

struct Args {
    file: String,
    hw: String,
    regs: u32,
    unroll: u32,
    budget: u64,
    dispatch: Option<DispatchMode>,
    exec_tier: Option<ExecTier>,
    async_translate: bool,
    translate_workers: Option<u32>,
    translate_queue: Option<u32>,
    guests: usize,
    threads: usize,
    dump_region: bool,
    compare: bool,
    verify: bool,
    nospec: Option<smarq::range::NospecRanges>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: smarq-run FILE.s [--hw smarq|smarq16|efficeon|alat|none] \
         [--regs N] [--unroll N] [--budget N] [--dispatch naive|chained] \
         [--exec-tier cycle|functional] [--async-translate] \
         [--translate-workers N] [--translate-queue N] \
         [--guests N] [--threads M] \
         [--dump-region] [--compare] [--verify] [--nospec LO..HI[,..]]\n\
         \x20      smarq-run lint PATH... [--json FILE] [--nospec LO..HI[,..]] \
         [--deny CODE] [--allow CODE]\n\
         \x20      smarq-run lint --list"
    );
    ExitCode::from(2)
}

fn cmd_lint(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--list") {
        println!("code table version {}", smarq_verify::CODE_TABLE_VERSION);
        for info in smarq_verify::CODES {
            println!(
                "{:<24} {:<9} {:<7} {}",
                info.code,
                info.origin.label(),
                format!("{:?}", info.default_severity).to_lowercase(),
                info.description
            );
        }
        return ExitCode::SUCCESS;
    }
    let mut paths: Vec<&str> = Vec::new();
    let mut json_out: Option<std::path::PathBuf> = None;
    let mut nospec = smarq::range::NospecRanges::none();
    let mut deny: Vec<String> = Vec::new();
    let mut allow: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if matches!(flag, "--json" | "--nospec" | "--deny" | "--allow") {
            let Some(v) = args.get(i + 1) else {
                eprintln!("{flag} needs a value");
                return usage();
            };
            match flag {
                "--json" => json_out = Some(std::path::PathBuf::from(v)),
                "--nospec" => match smarq::range::NospecRanges::parse(v) {
                    Ok(r) => nospec = r,
                    Err(e) => {
                        eprintln!("--nospec: {e}");
                        return usage();
                    }
                },
                "--deny" => deny.push(v.clone()),
                _ => allow.push(v.clone()),
            }
            i += 2;
        } else if flag.starts_with('-') {
            eprintln!("unknown flag '{flag}'");
            return usage();
        } else {
            paths.push(flag);
            i += 1;
        }
    }
    if paths.is_empty() {
        return usage();
    }
    let policy = match smarq_verify::LintPolicy::new(deny, allow) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("smarq-run: {e}");
            return usage();
        }
    };
    let config = smarq_fuzz::LintConfig { nospec, policy };
    let path_refs: Vec<&std::path::Path> = paths.iter().map(std::path::Path::new).collect();
    let outcome =
        match smarq_fuzz::lint_paths_with(&path_refs, &config, |line| println!("[lint] {line}")) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("smarq-run: {e}");
                return ExitCode::from(1);
            }
        };
    println!(
        "[lint] {} entr(ies), {} region(s): {} error(s), {} warning(s)",
        outcome.entries, outcome.regions, outcome.errors, outcome.warnings
    );
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(&path, smarq_fuzz::lint::to_json(&outcome)) {
            eprintln!("smarq-run: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("[lint] wrote {}", path.display());
    }
    if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args {
        file: String::new(),
        hw: "smarq".into(),
        regs: 64,
        unroll: 1,
        budget: u64::MAX,
        dispatch: None,
        exec_tier: None,
        async_translate: false,
        translate_workers: None,
        translate_queue: None,
        guests: 1,
        threads: 1,
        dump_region: false,
        compare: false,
        verify: false,
        nospec: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match a.as_str() {
            "--hw" => args.hw = value("--hw")?,
            "--regs" => {
                args.regs = value("--regs")?.parse().map_err(|_| usage())?;
            }
            "--unroll" => {
                args.unroll = value("--unroll")?.parse().map_err(|_| usage())?;
            }
            "--budget" => {
                args.budget = value("--budget")?.parse().map_err(|_| usage())?;
            }
            "--dispatch" => {
                args.dispatch = Some(match value("--dispatch")?.as_str() {
                    "naive" => DispatchMode::Naive,
                    "chained" => DispatchMode::Chained,
                    other => {
                        eprintln!("unknown dispatch mode '{other}' (naive|chained)");
                        return Err(usage());
                    }
                });
            }
            "--exec-tier" => {
                args.exec_tier = Some(match value("--exec-tier")?.as_str() {
                    "cycle" | "cycle-sim" => ExecTier::CycleSim,
                    "functional" | "fast" => ExecTier::Functional,
                    other => {
                        eprintln!("unknown exec tier '{other}' (cycle|functional)");
                        return Err(usage());
                    }
                });
            }
            "--async-translate" => args.async_translate = true,
            "--translate-workers" => {
                args.translate_workers =
                    Some(value("--translate-workers")?.parse().map_err(|_| usage())?);
            }
            "--translate-queue" => {
                args.translate_queue =
                    Some(value("--translate-queue")?.parse().map_err(|_| usage())?);
            }
            "--guests" => {
                args.guests = value("--guests")?.parse().map_err(|_| usage())?;
                if args.guests == 0 {
                    eprintln!("--guests must be at least 1");
                    return Err(usage());
                }
            }
            "--threads" => {
                args.threads = value("--threads")?.parse().map_err(|_| usage())?;
                if args.threads == 0 {
                    eprintln!("--threads must be at least 1");
                    return Err(usage());
                }
            }
            "--nospec" => {
                args.nospec = Some(
                    smarq::range::NospecRanges::parse(&value("--nospec")?).map_err(|e| {
                        eprintln!("--nospec: {e}");
                        usage()
                    })?,
                );
            }
            "--dump-region" => args.dump_region = true,
            "--compare" => args.compare = true,
            "--verify" => args.verify = true,
            "-h" | "--help" => return Err(usage()),
            other if other.starts_with('-') => {
                eprintln!("unknown flag '{other}'");
                return Err(usage());
            }
            file => {
                if !args.file.is_empty() {
                    return Err(usage());
                }
                args.file = file.to_string();
            }
        }
    }
    if args.file.is_empty() {
        return Err(usage());
    }
    Ok(args)
}

fn opt_for(hw: &str, regs: u32) -> Option<OptConfig> {
    Some(match hw {
        "smarq" => OptConfig::smarq(regs),
        "smarq16" => OptConfig::smarq(16),
        "efficeon" => OptConfig::efficeon(),
        "alat" => OptConfig::alat(),
        "none" => OptConfig::no_alias_hw(),
        _ => return None,
    })
}

/// The `--guests N` path: N tenants of the same program over one shared
/// translation hub, scheduled on `--threads M` host threads.
fn run_multi_guests(program: smarq_guest::Program, cfg: SystemConfig, args: &Args) -> ExitCode {
    let hub = TranslationHub::new(HubConfig::from_system(&cfg));
    let guests: Vec<GuestContext> = (0..args.guests)
        .map(|i| GuestContext::new(i, program.clone(), &hub))
        .collect();
    let t0 = std::time::Instant::now();
    let guests = run_multi(&hub, guests, args.threads, args.budget, DEFAULT_SLICE_STEPS);
    let wall = t0.elapsed().as_secs_f64();
    hub.drain();
    let hs = hub.stats();

    let halted = guests.iter().filter(|g| g.halted()).count();
    let instrs: u64 = guests.iter().map(|g| g.stats().guest_instrs()).sum();
    let rollbacks: u64 = guests.iter().map(|g| g.stats().rollbacks).sum();
    println!("hardware:            {}", args.hw);
    println!(
        "multi-guest:         {} guests on {} threads, {}/{} halted, {:.3}s wall",
        args.guests, args.threads, halted, args.guests, wall
    );
    println!(
        "guest instructions:  {} total ({:.2}M/s aggregate)",
        instrs,
        instrs as f64 / wall / 1.0e6
    );
    println!(
        "shared hub:          {} translations, {} re-translations, {} cache hits, \
         {} single-flight waits, {} rollbacks, {} abandoned",
        hs.translations_started,
        hs.retranslations,
        hs.probe_hits,
        hs.single_flight_hits,
        rollbacks,
        hs.abandoned
    );
    println!(
        "publish ledger:      {} published + {} conflicts, {} keys live, epoch {}",
        hs.translations_published, hs.publish_conflicts, hs.published_keys, hs.epoch
    );

    if args.compare {
        if args.budget == u64::MAX {
            let mut reference = smarq_guest::Interpreter::new();
            reference.run(&program, u64::MAX);
            let expected = reference.arch_state();
            for g in &guests {
                if g.interp().arch_state() != expected {
                    eprintln!(
                        "state check:         guest {} MISMATCH vs pure interpretation",
                        g.id()
                    );
                    return ExitCode::from(1);
                }
            }
            println!(
                "state check:         all {} guests bit-exact vs pure interpretation",
                args.guests
            );
        } else {
            eprintln!("state check:         skipped (budgeted run)");
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    if let Err(e) = smarq_runtime::nospec_ranges_from_env() {
        eprintln!("SMARQ_NOSPEC: {e}");
        return ExitCode::from(2);
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("lint") {
        return cmd_lint(&raw[1..]);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let src = match std::fs::read_to_string(&args.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.file);
            return ExitCode::from(1);
        }
    };
    let program = match smarq_guest::parse_program(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}: {e}", args.file);
            return ExitCode::from(1);
        }
    };
    let Some(opt) = opt_for(&args.hw, args.regs) else {
        eprintln!("unknown hardware scheme '{}'", args.hw);
        return usage();
    };

    let mut cfg = SystemConfig::with_opt(opt);
    cfg.unroll_factor = args.unroll;
    if args.verify {
        cfg.verify_translations = true;
    }
    if let Some(d) = args.dispatch {
        cfg.dispatch = d;
    }
    if let Some(t) = args.exec_tier {
        cfg.exec_tier = t;
    }
    if args.async_translate {
        cfg.async_translate = true;
    }
    if let Some(w) = args.translate_workers {
        cfg.translate_workers = w;
    }
    if let Some(q) = args.translate_queue {
        cfg.translate_queue_depth = q;
    }
    if let Some(n) = args.nospec.clone() {
        cfg.nospec_ranges = n;
    }
    if args.guests >= 2 {
        return run_multi_guests(program, cfg, &args);
    }

    let tier = cfg.exec_tier;
    let async_on = cfg.async_translate;
    let mut sys = DynOptSystem::new(program.clone(), cfg);
    sys.run_to_completion(args.budget);
    if async_on {
        // Settle in-flight jobs so the worker/publish counters are final.
        sys.translation_drain();
    }
    let s = sys.stats();

    println!("hardware:            {}", args.hw);
    println!("guest instructions:  {}", s.guest_instrs());
    println!("simulated cycles:    {}", s.total_cycles());
    println!(
        "regions:             {} formed, {} entries, {} rollbacks, {} re-translations",
        s.regions_formed, s.region_entries, s.rollbacks, s.retranslations
    );
    println!(
        "optimization:        {:.4}% of execution time",
        s.optimization_overhead() * 100.0
    );
    if tier == ExecTier::Functional {
        println!(
            "functional tier:     {} fast entries, {} deopts, {} samples ({} mismatches, {} sampled cycles)",
            s.tier_fast_entries,
            s.tier_deopts,
            s.tier_samples,
            s.tier_sample_mismatches,
            s.tier_sampled_cycles
        );
    }
    if async_on {
        println!(
            "async translation:   {} enqueued, {} published, {} conflicts, {} stale entries, \
             {} stall cycles avoided",
            s.async_enqueued,
            s.async_published,
            s.async_publish_conflicts,
            s.async_stale_entries,
            s.stall_cycles_avoided()
        );
    }
    if s.regions_verified > 0 || s.verify_errors > 0 {
        println!(
            "verification:        {} region(s) statically verified, {} error(s)",
            s.regions_verified, s.verify_errors
        );
        for d in &s.verify_diagnostics {
            println!("  {d}");
        }
        if s.verify_errors > 0 {
            return ExitCode::from(1);
        }
    }
    if let Some(r) = s.per_region.iter().max_by_key(|r| r.entries) {
        println!(
            "hot region:          {} memops, working set {}, {} checks, {} antis",
            r.opt.mem_ops, r.opt.working_set, r.opt.checks, r.opt.antis
        );
    }

    if args.dump_region {
        // Re-derive the hot region's translation for display.
        use smarq_ir::{form_superblock, unroll_superblock, FormationParams};
        let mut interp = smarq_guest::Interpreter::new();
        interp.run(&program, 100_000);
        if let Some(rec) = s.per_region.iter().max_by_key(|r| r.entries) {
            let sb = form_superblock(
                &program,
                interp.profile(),
                rec.entry,
                FormationParams::default(),
            );
            let (sb, _) = unroll_superblock(&sb, args.unroll, 512);
            let Some(opt) = opt_for(&args.hw, args.regs) else {
                unreachable!("validated above");
            };
            let o = smarq_opt::optimize_superblock(
                &sb,
                &opt,
                &smarq_vliw::MachineConfig::default(),
                sys.blacklist(),
            );
            println!("\ntranslated hot region:\n{}", o.vliw);
        }
    }

    if args.compare {
        let mut reference = smarq_guest::Interpreter::new();
        reference.run(&program, args.budget);
        if args.budget == u64::MAX {
            if sys.interp().arch_state() == reference.arch_state() {
                println!("state check:         bit-exact vs pure interpretation");
            } else {
                eprintln!("state check:         MISMATCH vs pure interpretation");
                return ExitCode::from(1);
            }
        } else {
            eprintln!("state check:         skipped (budgeted run)");
        }
    }
    ExitCode::SUCCESS
}
