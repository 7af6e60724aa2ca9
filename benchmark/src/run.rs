//! One workload, one process: set-up, warm-up, timed reps, output check,
//! and the final JSON line the driver reads.

use crate::json::{number, quote};
use crate::spec::{self, DEFAULT_SEED, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::util::{self, Env};
use crate::workloads::detect_replay::DetectReplay;
use crate::workloads::scripted::Scripted;
use crate::workloads::swarm_ping::SwarmPing;
use crate::workloads::sybil_churn::SybilChurn;
use crate::workloads::{Baseline, Layers, Rep, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Cold set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed reps a run never goes below, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Untraced reps of a traced run (the base of `trace.overhead_ratio`).
const TRACE_BASE_REPS: usize = 2;

pub struct Options {
    pub workload: &'static spec::WorkloadSpec,
    pub seed: u64,
    /// Wall time the timed reps should fill.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Writes `contents` to `benchmark/out/<file>`. Best effort: a read-only
/// checkout must not fail the run. Smoke runs leave no files: the tests
/// start many of them at once.
fn save(opts: &Options, file: &str, contents: &str) {
    if opts.smoke {
        return;
    }
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(file), contents)) {
        Ok(()) => println!("wrote {}", dir.join(file).display()),
        Err(e) => eprintln!(
            "bench-spine: cannot write {}: {e}",
            dir.join(file).display()
        ),
    }
}

fn golden(workload: &str) -> Option<u64> {
    let text = match workload {
        "ping_flood" => include_str!("../golden/ping_flood.txt"),
        "bogus_block_flood" => include_str!("../golden/bogus_block_flood.txt"),
        "relay_mix" => include_str!("../golden/relay_mix.txt"),
        "sybil_churn" => include_str!("../golden/sybil_churn.txt"),
        "detect_replay" => include_str!("../golden/detect_replay.txt"),
        "detect_replay_sharded" => include_str!("../golden/detect_replay_sharded.txt"),
        "swarm_ping" => include_str!("../golden/swarm_ping.txt"),
        _ => return None,
    };
    u64::from_str_radix(text.trim(), 16).ok()
}

/// Runs one workload and prints what it found. `true` when the outputs
/// are correct.
pub fn run(opts: &Options) -> bool {
    let seed = opts.seed;
    match opts.workload.name {
        "ping_flood" => drive(opts, |smoke| Scripted::ping_flood(seed, smoke)),
        "bogus_block_flood" => drive(opts, |smoke| Scripted::bogus_block_flood(seed, smoke)),
        "relay_mix" => drive(opts, |smoke| Scripted::relay_mix(seed, smoke)),
        "sybil_churn" => drive(opts, |smoke| SybilChurn::setup(seed, smoke)),
        "detect_replay" => drive(opts, |smoke| DetectReplay::setup(seed, smoke, 1)),
        "detect_replay_sharded" => drive(opts, |smoke| DetectReplay::setup(seed, smoke, 2)),
        "swarm_ping" => drive(opts, |smoke| SwarmPing::setup(seed, smoke)),
        other => unreachable!("{other} is in spec::WORKLOADS but not here"),
    }
}

struct Summary {
    median: f64,
    min: f64,
    max: f64,
    n: usize,
}

impl Summary {
    fn of(values: &[f64]) -> Summary {
        Summary {
            median: util::median(values),
            min: util::min(values),
            max: util::max(values),
            n: values.len(),
        }
    }
}

/// `setup(smoke)` generates the inputs at full or at smoke size. Every
/// set-up also runs one rep at smoke size, so that every layer's first-use
/// costs land in `setup_s` and no workload's set-up is too short to time.
fn drive<W: Workload>(opts: &Options, setup: impl Fn(bool) -> W) -> bool {
    let name = opts.workload.name;
    let env = Env::capture();
    println!(
        "# {name} seed={} seconds={} trace={} smoke={} nproc={} rustc={:?} commit={} wire.sha_ni={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.smoke,
        env.nproc,
        env.rustc,
        env.commit,
        u8::from(env.sha_ni)
    );
    let mut off = Tracer::new(name, false);
    let mut problems: Vec<String> = Vec::new();

    // ---- Set-up, several times over; the last one is kept.
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..if opts.trace { 1 } else { SETUPS } {
        drop(workload.take());
        let started = Instant::now();
        let w = setup(opts.smoke);
        let (rep, _) = setup(true).rep(&mut off);
        setup_s.push(started.elapsed().as_secs_f64());
        problems.extend(
            rep.violations
                .into_iter()
                .map(|v| format!("set-up warm-up: {v}")),
        );
        workload = Some(w);
    }
    let workload = workload.expect("at least one set-up");

    // ---- Untimed full-size warm-up: heap and caches at their working size.
    let started = Instant::now();
    let (warmup, _) = workload.rep(&mut off);
    let warmup_s = started.elapsed().as_secs_f64();
    println!("warm-up {warmup_s:.3} s  {}", warmup.note);
    let mut reps: Vec<Rep> = vec![warmup];

    // ---- Timed reps, each on fresh state.
    let mut timed_reps = |reps: &mut Vec<Rep>, at_least: usize, seconds: f64| {
        let first = reps.len();
        let mut spent = 0.0;
        while reps.len() - first < at_least || spent < seconds {
            let (rep, _) = workload.rep(&mut off);
            spent += rep.wall_ns as f64 / 1e9;
            println!(
                "rep {} {:.3} s  {:.1} {}s/s",
                reps.len(),
                rep.wall_ns as f64 / 1e9,
                rep.ops as f64 / (rep.wall_ns as f64 / 1e9),
                opts.workload.op
            );
            reps.push(rep);
        }
    };
    let mut layers = None;
    let mut tracer = Tracer::new(name, true);
    if opts.trace {
        timed_reps(&mut reps, TRACE_BASE_REPS, 0.0);
        let untraced: Vec<f64> = reps[1..].iter().map(|r| r.wall_ns as f64).collect();
        let base = Baseline {
            untraced_wall_ns: util::median(&untraced),
        };
        let (traced, done) = workload.rep(&mut tracer);
        let mut out = Layers::default();
        out.set("wire.sha_ni", f64::from(u8::from(env.sha_ni)));
        tracer.span("probes", |t| {
            workload.probes(&traced, done, &base, t, &mut out);
            ((), 0)
        });
        out.set("trace.coverage", out.covered_ns / base.untraced_wall_ns);
        out.set(
            "trace.overhead_ratio",
            traced.wall_ns as f64 / base.untraced_wall_ns,
        );
        reps.push(traced);
        layers = Some(out);
    } else {
        timed_reps(&mut reps, MIN_REPS, opts.seconds);
    }

    // ---- Output check.
    let digest = reps[0].digest;
    for (i, rep) in reps.iter().enumerate() {
        if rep.digest != digest {
            problems.push(format!(
                "rep {i} digest {:016x} differs from the warm-up's {digest:016x}",
                rep.digest
            ));
        }
        problems.extend(rep.violations.iter().map(|v| format!("rep {i}: {v}")));
    }
    if opts.seed == DEFAULT_SEED && !opts.smoke {
        match golden(name) {
            Some(g) if g == digest => {}
            Some(g) => problems.push(format!(
                "digest {digest:016x} differs from golden/{name}.txt {g:016x}"
            )),
            None => problems.push(format!("golden/{name}.txt holds no digest")),
        }
    }
    println!("digest {name} {digest:016x}");
    let timed = &reps[1..];
    let attempted: u64 = timed.iter().map(|r| r.attempted).sum();
    let failed: u64 = timed.iter().map(|r| r.failed).sum();
    println!(
        "attempted {attempted} failed {failed} over {} timed reps ({} per rep)",
        timed.len(),
        timed[0].attempted
    );

    // ---- Metrics.
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut record = String::new();
    if let Some(layers) = &layers {
        println!("{:<40} {:>18} unit", "per-layer metric", "value");
        for (name, value) in layers.iter() {
            let unit = PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map_or("", |m| m.unit);
            println!("{name:<40} {value:>18.4} {unit}");
            metrics.push((name, value, unit));
        }
        save(opts, &format!("trace-{name}.json"), &tracer.to_json());
    } else {
        let ops_per_s: Vec<f64> = timed
            .iter()
            .map(|r| r.ops as f64 / (r.wall_ns as f64 / 1e9))
            .collect();
        let ops = Summary::of(&ops_per_s);
        let set = Summary::of(&setup_s);
        let rss = util::peak_rss_mb();
        println!(
            "{:<14} {:>16} {:>16} {:>16} {:>3}  unit",
            "metric", "median", "min", "max", "n"
        );
        println!(
            "{:<14} {:>16.1} {:>16.1} {:>16.1} {:>3}  {}s/s (= {})",
            "ops_per_s", ops.median, ops.min, ops.max, ops.n, opts.workload.op, opts.workload.alias
        );
        println!(
            "{:<14} {:>16.4} {:>16.4} {:>16.4} {:>3}  s",
            "setup_s", set.median, set.min, set.max, set.n
        );
        println!(
            "{:<14} {:>16.1} {:>16.1} {:>16.1} {:>3}  MB (VmHWM)",
            "peak_rss_mb", rss, rss, rss, 1
        );
        for m in &END_TO_END {
            let value = match m.name {
                "ops_per_s" => ops.median,
                "setup_s" => set.median,
                "peak_rss_mb" => rss,
                other => unreachable!("end-to-end metric {other} is declared but not measured"),
            };
            metrics.push((m.name, value, m.unit));
        }
        let _ = write!(
            record,
            ", \"ops_per_s\": {{\"median\": {}, \"min\": {}, \"max\": {}, \"n\": {}}}, \"setup_s\": {{\"median\": {}, \"min\": {}, \"max\": {}, \"n\": {}}}, \"peak_rss_mb\": {}, \"warmup_s\": {}",
            number(ops.median), number(ops.min), number(ops.max), ops.n,
            number(set.median), number(set.min), number(set.max), set.n,
            number(rss), number(warmup_s)
        );
    }
    for p in &problems {
        println!("INCORRECT {p}");
    }
    let correct = problems.is_empty();

    // The record on disk carries the environment; the last line of stdout
    // is the driver's and carries exactly what the contract names.
    let last = {
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(n),
                    number(*v),
                    quote(u)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            attempted.max(1),
            body.join(", ")
        )
    };
    let kind = if opts.trace { "layers" } else { "run" };
    let full = format!(
        "{{\"workload\": {}, \"seed\": {}, \"smoke\": {}, \"digest\": \"{digest:016x}\", \"env\": {}{record}, \"result\": {last}}}\n",
        quote(name),
        opts.seed,
        opts.smoke,
        env.to_json()
    );
    save(opts, &format!("{kind}-{name}.json"), &full);
    println!("{last}");
    correct
}
