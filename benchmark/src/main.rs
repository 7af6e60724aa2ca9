//! Command line of the benchmark. `README.md` has the full story.

use bench_spine::agree;
use bench_spine::run::{run, Options};
use bench_spine::spec::{workload, DEFAULT_SEED, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str = "usage:
  bench-spine run   --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  bench-spine run   --all             [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  bench-spine trace --workload <name> [--seed N] [--smoke]        (= run --trace 1)
  bench-spine agree [--runs N] [--seconds S] [--smoke]
workloads: ping_flood bogus_block_flood relay_mix sybil_churn detect_replay detect_replay_sharded swarm_ping";

/// `run_seconds` of `BENCHMARK.json`, for runs started by hand. Smoke runs
/// default to the minimum number of reps instead.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    command: String,
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: usize,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let command = it.next().ok_or("no subcommand")?.clone();
    let mut a = Args {
        trace: command == "trace",
        command,
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: None,
        smoke: false,
        runs: 1,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--all" => a.all = true,
            "--smoke" => a.smoke = true,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--runs" => a.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.seconds.is_some_and(|s| !s.is_finite() || s < 0.0) {
        return Err("--seconds must be a non-negative number".to_owned());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench-spine: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 0.0 } else { DEFAULT_SECONDS });
    let ok = match (args.command.as_str(), &args.workload, args.all) {
        ("run" | "trace", Some(name), false) => {
            let Some(spec) = workload(name) else {
                eprintln!("bench-spine: no workload called {name}\n{USAGE}");
                return ExitCode::from(2);
            };
            run(&Options {
                workload: spec,
                seed: args.seed,
                seconds,
                trace: args.trace,
                smoke: args.smoke,
            })
        }
        // Every workload in a process of its own, so that peak RSS is its
        // own; a failure does not stop the ones after it.
        ("run" | "trace", None, true) => WORKLOADS.iter().fold(true, |ok, w| {
            let ran = agree::child(w.name, args.seed, seconds, args.trace, args.smoke, true);
            ok & ran.is_some_and(|r| r.correct)
        }),
        ("agree", None, false) => agree::agree(args.runs, seconds, args.smoke),
        _ => {
            eprintln!("bench-spine: bad combination of arguments\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
