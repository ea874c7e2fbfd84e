//! `perfbench --workload <name> [--seed N] [--seconds N] [--trace 0|1]`
//!
//! Runs one workload's campaigns for the given host seconds and prints
//! one JSON object as the last line of standard output: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
//! failed correctness check exits 1 and prints no result; bad arguments
//! exit 2. The full result record, with its environment and the span
//! run's spans, is written to `perfbench/results/` when the run ends.

use clip_perfbench::bench::{plain_run, span_run, RunResult, RunSpec};
use clip_perfbench::env::{json_str, Env};
use clip_perfbench::workloads::{Workload, DEFAULT_SEED};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload serve-flat|fleet-10k|serve-racks \
                     [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn metrics_json(r: &RunResult) -> String {
    let body: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The full record: arguments, environment, result, notes and every
/// campaign's timings or spans.
fn record(a: &Args, env: &Env, r: &RunResult) -> String {
    let notes: Vec<String> = r.notes.iter().map(|n| json_str(n)).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {},\n\
         \"env\": {{\"commit\": {}, \"rustc\": {}, \"cpu\": {}, \"nproc\": {}}},\n\
         \"campaigns\": {}, \"report_fnv\": \"{:#018x}\",\n\"metrics\": {},\n\
         \"notes\": [{}],\n\"samples\": [\n{}\n]}}\n",
        json_str(a.workload.name()),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        json_str(&env.commit),
        json_str(&env.rustc),
        json_str(&env.cpu),
        env.nproc,
        r.campaigns,
        r.outcome.report_fnv,
        metrics_json(r),
        notes.join(", "),
        r.samples.join(",\n"),
    )
}

/// Write the record under `perfbench/results/`; a failure to write is
/// reported but does not void the measured result.
fn write_record(a: &Args, text: &str) {
    let dir = std::path::Path::new("perfbench").join("results");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        a.workload.name(),
        a.seed,
        u8::from(a.trace)
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => println!("record: {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = Env::probe();
    let spec = RunSpec {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        full: true,
        nproc: env.nproc,
    };
    println!(
        "perfbench {} seed={} seconds={} trace={} workers={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.workers()
    );
    println!(
        "env commit={} rustc=\"{}\" cpu=\"{}\" nproc={}",
        env.commit, env.rustc, env.cpu, env.nproc
    );
    let result = if args.trace {
        span_run(&spec)
    } else {
        plain_run(&spec)
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: check failed on {}: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    if let Some(m) = result.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", m.name);
        return ExitCode::from(1);
    }
    println!(
        "campaigns={} report_fnv={:#018x}",
        result.campaigns, result.outcome.report_fnv
    );
    for note in &result.notes {
        println!("{note}");
    }
    for m in &result.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    write_record(&args, &record(&args, &env, &result));
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {}}}",
        result.campaigns,
        metrics_json(&result)
    );
    ExitCode::SUCCESS
}
