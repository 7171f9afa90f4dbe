//! The repository benchmark: reference-checked end-to-end guest throughput
//! of the dynamic optimizer on four workloads, plus a traced run that
//! attributes host time to each layer. See `README.md` beside this file
//! for the metrics, the workloads and how to run, trace and compare.
//!
//! ```text
//! benchmark [run] [--workload NAME]... [--seed N] [--seconds S]
//!                 [--trace 0|1|FILE] [--scale X] [--out FILE]
//! benchmark compare A.json... -- B.json...
//! ```
//!
//! The last line of standard output is always one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

mod compare;
mod exec;
mod probe;
mod report;
mod rss;
mod trace;
mod workload;

#[cfg(test)]
mod tests;

use exec::{measure, Mode};
use report::{json_num, json_str, result_line, Row};
use std::io::Write;
use std::process::ExitCode;
use trace::Tracer;
use workload::{host_threads, Workload};

const USAGE: &str = "\
usage: benchmark [run] [--workload NAME]... [--seed N] [--seconds S]
                       [--trace 0|1|FILE] [--scale X] [--out FILE]
       benchmark compare A.json... -- B.json...

workloads: specfp-cycle, specfp-fast, churn, multiguest (default: all)
--seconds   measured wall time per workload (default 10)
--trace     0: end-to-end metrics; 1: per-layer metrics from the traced
            run; FILE: both, and the spans written to FILE
--scale     multiplies the work per round (default 1)
--out       writes every row as flat JSON lines (input of `compare`)";

/// What `--trace` asked for.
#[derive(Clone, Debug, PartialEq)]
enum TraceArg {
    Off,
    On,
    File(String),
}

/// Parsed `run` arguments.
#[derive(Clone, Debug)]
struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: TraceArg,
    scale: f64,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: TraceArg::Off,
        scale: 1.0,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                r.workloads
                    .push(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => r.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                r.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(r.seconds.is_finite() && r.seconds >= 0.0) {
                    return Err("--seconds must be finite and non-negative".into());
                }
            }
            "--scale" => {
                r.scale = value()?.parse().map_err(|_| "--scale takes a number")?;
                if !(r.scale.is_finite() && r.scale > 0.0) {
                    return Err("--scale must be finite and positive".into());
                }
            }
            "--trace" => {
                r.trace = match value()?.as_str() {
                    "0" => TraceArg::Off,
                    "1" => TraceArg::On,
                    file => TraceArg::File(file.to_string()),
                }
            }
            "--out" => r.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if r.workloads.is_empty() {
        r.workloads = Workload::ALL.to_vec();
    }
    Ok(r)
}

/// The runtime reads `SMARQ_*` variables for its defaults and its fault
/// injection hooks; a benchmark run under any of them would measure
/// something else.
fn smarq_env() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SMARQ_"))
        .collect()
}

/// Everything one `run` produced.
struct RunResult {
    rows: Vec<Row>,
    attempted: u64,
    failed: u64,
    tracer: Tracer,
    configs: Vec<(Workload, String)>,
}

fn run(args: &RunArgs) -> Result<RunResult, String> {
    let host = host_threads();
    let modes: &[Mode] = match args.trace {
        TraceArg::Off => &[Mode::EndToEnd],
        TraceArg::On => &[Mode::Layers],
        TraceArg::File(_) => &[Mode::EndToEnd, Mode::Layers],
    };
    let mut result = RunResult {
        rows: Vec::new(),
        attempted: 0,
        failed: 0,
        tracer: Tracer::default(),
        configs: Vec::new(),
    };
    for &w in &args.workloads {
        let cfg = w.config(host);
        let echo = format!(
            "threads={} host_threads={host} seed={} scale={} system={:?} hub={:?}",
            cfg.threads(),
            args.seed,
            args.scale,
            cfg.system,
            cfg.hub
        );
        println!("# {}: {}", w.name(), w.why());
        println!("# {} config: {echo}", w.name());
        result.configs.push((w, echo));
        rss::reset_peak()?;
        let (inputs, setup_s) = w.setup(args.seed, args.scale)?;
        for &mode in modes {
            let out = measure(
                w,
                &cfg,
                &inputs,
                &setup_s,
                args.seconds,
                mode,
                &mut result.tracer,
            )?;
            println!("# {} {}", w.name(), out.note);
            for row in &out.rows {
                println!("{}", row.line());
            }
            result.attempted += out.attempted;
            result.failed += out.failed;
            result.rows.extend(out.rows);
        }
    }
    Ok(result)
}

fn write_out(path: &str, args: &RunArgs, r: &RunResult) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        f,
        "{{\"schema\":\"smarq-benchmark/1\",\"seed\":{},\"seconds\":{},\"scale\":{},\"host_threads\":{}}}",
        args.seed,
        json_num(args.seconds),
        json_num(args.scale),
        host_threads()
    )?;
    for (w, echo) in &r.configs {
        writeln!(
            f,
            "{{\"workload\":{},\"config\":{}}}",
            json_str(w.name()),
            json_str(echo)
        )?;
    }
    for row in &r.rows {
        writeln!(f, "{}", row.json())?;
    }
    writeln!(
        f,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{}}}",
        r.failed == 0,
        r.attempted,
        r.failed
    )?;
    f.flush()
}

fn write_trace(path: &str, seed: u64, tracer: &Tracer) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    tracer.write(&mut f, seed)?;
    f.flush()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::compare(&args[1..]) {
            Ok(any_worse) => ExitCode::from(u8::from(any_worse)),
            Err(e) => {
                eprintln!("benchmark compare: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let env = smarq_env();
    if !env.is_empty() {
        eprintln!(
            "benchmark: refusing to run with {} set; the runtime reads them",
            env.join(", ")
        );
        return ExitCode::from(2);
    }
    let rest = match args.first().map(String::as_str) {
        Some("run") => &args[1..],
        _ => &args[..],
    };
    let run_args = match parse_run(rest) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match run(&run_args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &run_args.out {
        if let Err(e) = write_out(path, &run_args, &result) {
            eprintln!("benchmark: writing {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if let TraceArg::File(path) = &run_args.trace {
        if let Err(e) = write_trace(path, run_args.seed, &result.tracer) {
            eprintln!("benchmark: writing {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!(
        "{}",
        result_line(
            &result.rows,
            result.attempted,
            result.failed,
            run_args.workloads.len() > 1,
        )
    );
    if result.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
