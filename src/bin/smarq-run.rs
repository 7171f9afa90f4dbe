//! `smarq-run` — execute a guest assembly file on the dynamic optimization
//! system.
//!
//! ```text
//! smarq-run FILE.s [--hw smarq|smarq16|efficeon|alat|none]
//!                  [--regs 1..=64] [--unroll N] [--budget N]
//!                  [--async-translate] [--translate-workers 0..=64]
//!                  [--translate-queue 0..=4096] [--guests 1..=1024]
//!                  [--threads 1..=64]
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
//! code's severity before the exit status is decided: 1 on an
//! error-severity finding, 2 on a malformed command line, as for
//! `smarq lint` (both run `smarq_fuzz::lint::cli`). `--verify` enables
//! the runtime's verify-on-emit mode for a normal run; with it,
//! region→region link formation additionally runs the whole-chain static
//! analyzer. `--nospec LO..HI[,..]` declares half-open unspeculatable
//! address ranges: the optimizer never schedules speculation that can
//! touch them, and the chain analyzer proves none was. Both commands
//! default `--nospec` to the `SMARQ_NOSPEC` environment variable; a
//! malformed value is reported and exits with status 2 before anything
//! runs. No other variable changes the configuration.
//! Optimized regions run on the timed fast executor, with a sample of
//! region entries replayed on the cycle simulator; the `functional tier:`
//! line reports those tier-down checks. The `alias guards:` line counts
//! the entries whose region's entry-time alias guard could not rule out
//! a firing check, so that they ran their checks. `--async-translate`
//! moves region formation, optimization and verification onto background
//! worker threads: the guest keeps interpreting while translations are
//! in flight and finished regions publish atomically at dispatch-step
//! boundaries. `--translate-workers N` sizes the pool
//! (`0` = a deterministic in-thread stepper) and `--translate-queue N`
//! bounds the job queue.
//!
//! `--regs N` sizes the SMARQ alias register file, from 1 to
//! [`SMARQ_MAX_REGS`], the paper's machine. Every size flag is bounded
//! (`--guests` by [`MAX_GUESTS`], `--threads` and `--translate-workers`
//! by [`MAX_HOST_THREADS`], `--translate-queue` by
//! [`MAX_TRANSLATE_QUEUE`]); a value out of range exits with status 2.
//!
//! `--guests N` (N >= 2) switches to the multi-guest runtime: N tenants
//! of the same program run over one shared `TranslationHub` (sharded
//! translation cache, single-flight dedup, shared blacklist), scheduled
//! on `--threads M` host threads. `--translate-workers` then sizes the
//! hub's background pool (`0` = translate inline in the requesting
//! guest) and `--compare` checks every guest bit-exactly against pure
//! interpretation. Both paths print the same statistics (summed over
//! guests, plus the hub's publish ledger when several guests share one)
//! and exit with status 1 when verification found an error.

use smarq_fuzz::outln;
use smarq_opt::{OptConfig, PhaseNs};
use smarq_runtime::{
    run_multi, DynOptSystem, GuestContext, HubConfig, HubStats, SystemConfig, SystemStats,
    TranslationHub, DEFAULT_SLICE_STEPS,
};
use smarq_vliw::SMARQ_MAX_REGS;
use std::fmt::Display;
use std::ops::RangeInclusive;
use std::process::ExitCode;
use std::str::FromStr;

/// Largest `--guests` value accepted (each guest owns an interpreter and
/// its guest memory).
const MAX_GUESTS: usize = 1024;
/// Largest `--threads` and `--translate-workers` value accepted (each is
/// a host thread).
const MAX_HOST_THREADS: u32 = 64;
/// Largest `--translate-queue` value accepted (the job channel allocates
/// its capacity up front).
const MAX_TRANSLATE_QUEUE: u32 = 4096;

/// Parses the value of flag `name` and checks it against `range`; a
/// malformed or out-of-range value is a usage error.
fn bounded<T>(name: &str, raw: String, range: RangeInclusive<T>) -> Result<T, ExitCode>
where
    T: FromStr + PartialOrd + Display,
{
    let v: T = raw.parse().map_err(|_| usage())?;
    if !range.contains(&v) {
        eprintln!(
            "{name} must be between {} and {}",
            range.start(),
            range.end()
        );
        return Err(usage());
    }
    Ok(v)
}

struct Args {
    file: String,
    hw: String,
    regs: u32,
    unroll: u32,
    budget: u64,
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
         [--regs 1..=64] [--unroll N] [--budget N] [--async-translate] \
         [--translate-workers 0..=64] [--translate-queue 0..=4096] \
         [--guests 1..=1024] [--threads 1..=64] \
         [--dump-region] [--compare] [--verify] [--nospec LO..HI[,..]]\n\
         \x20      smarq-run lint PATH... [--json FILE] [--nospec LO..HI[,..]] \
         [--deny CODE] [--allow CODE]\n\
         \x20      smarq-run lint --list"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args {
        file: String::new(),
        hw: "smarq".into(),
        regs: 64,
        unroll: 1,
        budget: u64::MAX,
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
            "--regs" => args.regs = bounded("--regs", value("--regs")?, 1..=SMARQ_MAX_REGS)?,
            "--unroll" => {
                args.unroll = value("--unroll")?.parse().map_err(|_| usage())?;
            }
            "--budget" => {
                args.budget = value("--budget")?.parse().map_err(|_| usage())?;
            }
            "--async-translate" => args.async_translate = true,
            "--translate-workers" => {
                let v = value("--translate-workers")?;
                args.translate_workers =
                    Some(bounded("--translate-workers", v, 0..=MAX_HOST_THREADS)?);
            }
            "--translate-queue" => {
                let v = value("--translate-queue")?;
                args.translate_queue =
                    Some(bounded("--translate-queue", v, 0..=MAX_TRANSLATE_QUEUE)?);
            }
            "--guests" => args.guests = bounded("--guests", value("--guests")?, 1..=MAX_GUESTS)?,
            "--threads" => {
                let v = value("--threads")?;
                args.threads = bounded("--threads", v, 1..=MAX_HOST_THREADS as usize)?;
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

/// Prints a run's statistics summed over `guests`, plus the shared hub's
/// publish ledger when several guests ran on one. Returns exit status 1
/// when verify-on-emit or a link-time chain check reported an error.
fn report(
    args: &Args,
    async_on: bool,
    guests: &[&SystemStats],
    hub: Option<&HubStats>,
) -> ExitCode {
    let sum = |f: fn(&SystemStats) -> u64| guests.iter().map(|s| f(s)).sum::<u64>();
    outln!("hardware:            {}", args.hw);
    outln!("guest instructions:  {}", sum(SystemStats::guest_instrs));
    outln!("simulated cycles:    {}", sum(SystemStats::total_cycles));
    outln!(
        "regions:             {} formed, {} entries, {} rollbacks, {} re-translations",
        sum(|s| s.regions_formed as u64),
        sum(|s| s.region_entries),
        sum(|s| s.rollbacks),
        sum(|s| s.retranslations as u64)
    );
    outln!(
        "alias guards:        {} guard misses (entries that ran their checks)",
        sum(|s| s.guard_misses)
    );
    let overhead = SystemStats {
        vliw_cycles: sum(|s| s.vliw_cycles),
        interp_cycles: sum(|s| s.interp_cycles),
        translation_ns: sum(|s| s.translation_ns),
        ..SystemStats::default()
    }
    .optimization_overhead();
    // The phase ledger is host time too, so it shares the line.
    let mut phases = PhaseNs::default();
    for s in guests {
        phases.add(&s.translation_phases);
    }
    let ledger: Vec<String> = phases
        .iter()
        .map(|(p, ns)| format!("{} {:.1}", p.name(), ns as f64 / 1e3))
        .collect();
    outln!(
        "optimization:        {:.4}% of execution time; translation phases (host us): {}",
        overhead * 100.0,
        ledger.join(", ")
    );
    if sum(|s| s.tier_samples) > 0 {
        outln!(
            "functional tier:     {} fast entries, {} rollbacks, {} samples ({} mismatches, {} sampled cycles)",
            sum(|s| s.tier_fast_entries),
            sum(|s| s.rollbacks),
            sum(|s| s.tier_samples),
            sum(|s| s.tier_sample_mismatches),
            sum(|s| s.tier_sampled_cycles)
        );
    }
    if async_on {
        outln!(
            "async translation:   {} enqueued, {} published, {} conflicts, {} stale entries, \
             {} stall cycles avoided",
            sum(|s| s.async_enqueued),
            sum(|s| s.async_published),
            sum(|s| s.async_publish_conflicts),
            sum(|s| s.async_stale_entries),
            sum(SystemStats::stall_cycles_avoided)
        );
    }
    if let Some(hs) = hub {
        outln!(
            "shared hub:          {} translations, {} re-translations, {} cache hits, \
             {} single-flight waits, {} rollbacks, {} abandoned",
            hs.translations_started,
            hs.retranslations,
            hs.probe_hits,
            hs.single_flight_hits,
            hs.rollbacks,
            hs.abandoned
        );
        outln!(
            "publish ledger:      {} published + {} conflicts, {} keys live, epoch {}",
            hs.translations_published,
            hs.publish_conflicts,
            hs.published_keys,
            hs.epoch
        );
    }
    let verify_errors = sum(|s| s.verify_errors as u64);
    let chain_errors = sum(|s| s.chain_errors as u64);
    let verified = sum(|s| s.regions_verified as u64);
    if verified > 0 || verify_errors > 0 || chain_errors > 0 {
        outln!(
            "verification:        {verified} region(s) statically verified, {verify_errors} \
             error(s), {} chain check(s) with {chain_errors} error(s)",
            sum(|s| s.chain_checks)
        );
        for d in guests.iter().flat_map(|s| &s.verify_diagnostics) {
            outln!("  {}", d.to_json());
        }
    }
    if let Some(r) = guests
        .iter()
        .flat_map(|s| &s.per_region)
        .max_by_key(|r| r.entries)
    {
        outln!(
            "hot region:          {} memops, working set {}, {} checks, {} antis",
            r.opt.mem_ops,
            r.opt.working_set,
            r.opt.checks,
            r.opt.antis
        );
    }
    if verify_errors > 0 || chain_errors > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Compares every guest's final state with a pure interpreter run;
/// `false` on a mismatch. Budgeted runs are skipped.
fn compare(program: &smarq_guest::Program, budget: u64, states: &[smarq_guest::ArchState]) -> bool {
    if budget != u64::MAX {
        eprintln!("state check:         skipped (budgeted run)");
        return true;
    }
    let mut reference = smarq_guest::Interpreter::new();
    reference.run(program, u64::MAX);
    let expected = reference.arch_state();
    if let Some(i) = states.iter().position(|s| *s != expected) {
        eprintln!("state check:         guest {i} MISMATCH vs pure interpretation");
        return false;
    }
    outln!(
        "state check:         {} guest(s) bit-exact vs pure interpretation",
        states.len()
    );
    true
}

/// The `--guests N` path: N tenants of the same program over one shared
/// translation hub, scheduled on `--threads M` host threads.
fn run_multi_guests(program: smarq_guest::Program, cfg: SystemConfig, args: &Args) -> ExitCode {
    let hub = TranslationHub::new(HubConfig::from_system(&cfg));
    let guests: Vec<GuestContext> = (0..args.guests)
        .map(|i| GuestContext::new(i, program.clone(), &hub))
        .collect();
    let t0 = std::time::Instant::now();
    let mut guests = run_multi(&hub, guests, args.threads, args.budget, DEFAULT_SLICE_STEPS);
    let wall = t0.elapsed().as_secs_f64();
    // Settle in-flight jobs through a guest, so their verify findings
    // land in the statistics the report sums.
    guests[0].drain(&hub);
    let halted = guests.iter().filter(|g| g.halted()).count();
    let instrs: u64 = guests.iter().map(|g| g.stats().guest_instrs()).sum();
    outln!(
        "multi-guest:         {} guests on {} threads, {}/{} halted, {:.3}s wall \
         ({:.2}M guest instructions/s)",
        args.guests,
        args.threads,
        halted,
        args.guests,
        wall,
        instrs as f64 / wall / 1.0e6
    );
    let stats: Vec<&SystemStats> = guests.iter().map(GuestContext::stats).collect();
    let status = report(args, cfg.translate_workers > 0, &stats, Some(&hub.stats()));
    let states: Vec<_> = guests.iter().map(|g| g.interp().arch_state()).collect();
    if args.compare && !compare(&program, args.budget, &states) {
        return ExitCode::from(1);
    }
    status
}

fn main() -> ExitCode {
    let env_nospec = match smarq_runtime::nospec_ranges_from_env() {
        Ok(ranges) => ranges,
        Err(e) => {
            eprintln!("SMARQ_NOSPEC: {e}");
            return ExitCode::from(2);
        }
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("lint") {
        return smarq_fuzz::lint::cli("smarq-run", &raw[1..], env_nospec, || {
            usage();
        });
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
    if args.async_translate {
        cfg.async_translate = true;
    }
    if let Some(w) = args.translate_workers {
        cfg.translate_workers = w;
    }
    if let Some(q) = args.translate_queue {
        cfg.translate_queue_depth = q;
    }
    cfg.nospec_ranges = args.nospec.clone().unwrap_or(env_nospec);
    if args.guests >= 2 {
        return run_multi_guests(program, cfg, &args);
    }

    let async_on = cfg.async_translate;
    let mut sys = DynOptSystem::new(program.clone(), cfg);
    sys.run_to_completion(args.budget);
    if async_on {
        // Settle in-flight jobs so the worker/publish counters are final.
        sys.translation_drain();
    }
    let s = sys.stats();
    let status = report(&args, async_on, &[s], None);

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
            outln!("\ntranslated hot region:\n{}", o.vliw);
        }
    }

    if args.compare && !compare(&program, args.budget, &[sys.interp().arch_state()]) {
        return ExitCode::from(1);
    }
    status
}
