//! `agree`: the benchmark judging its own steadiness the way the driver
//! does. Two sets of `--runs` runs per workload, a different seed per run;
//! per end-to-end metric the spread of each set (distance between the
//! quartiles over the median) and the drift between the two sets' medians,
//! both against the metric's bound in `BENCHMARK.json`.

use crate::json::{self, Value};
use crate::spec::{DEFAULT_SEED, END_TO_END, WORKLOADS};
use crate::util;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// What a child run's last line said.
pub struct ChildResult {
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
    pub digest: String,
}

/// Runs one workload in a process of its own (so that `VmHWM` is its own)
/// and reads its last line back. `None` when the child failed to run or
/// its last line does not parse.
pub fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    echo: bool,
) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "run",
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.stderr(Stdio::inherit()).output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest "))
        .and_then(|l| l.split(' ').nth(1))?
        .to_owned();
    let last = json::parse(stdout.lines().last()?).ok()?;
    let metrics = last
        .get("metrics")?
        .as_object()?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Some(ChildResult {
        correct: output.status.success() && last.get("correct") == Some(&Value::Bool(true)),
        metrics,
        digest,
    })
}

/// `bound` of every end-to-end metric, from `BENCHMARK.json`.
pub fn bounds() -> BTreeMap<String, f64> {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get("end_to_end")
        .map(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// By how much of `first` the second value is worse, given the direction.
fn worse_by(better: &str, first: f64, second: f64) -> f64 {
    if better == "higher" {
        (first - second) / first
    } else {
        (second - first) / first
    }
}

pub fn agree(runs: usize, seconds: f64, smoke: bool) -> bool {
    let bounds = bounds();
    let mut ok = true;
    println!(
        "{:<22} {:<12} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "spreadA", "spreadB", "drift", "bound"
    );
    for w in &WORKLOADS {
        // sets[set][metric] = one value per run
        let mut sets: [BTreeMap<&str, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        let mut digests: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        for (set, digests) in sets.iter_mut().zip(&mut digests) {
            for run in 0..runs {
                let seed = DEFAULT_SEED + run as u64;
                match child(w.name, seed, seconds, false, smoke, false) {
                    Some(r) if r.correct => {
                        for m in &END_TO_END {
                            set.entry(m.name)
                                .or_default()
                                .push(r.metrics.get(m.name).copied().unwrap_or(f64::NAN));
                        }
                        digests.push(r.digest);
                    }
                    _ => {
                        println!(
                            "{:<22} seed {seed}: run failed or reported incorrect outputs",
                            w.name
                        );
                        ok = false;
                    }
                }
            }
        }
        if digests[0] != digests[1] {
            println!("{:<22} digests differ between the two sets", w.name);
            ok = false;
        }
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (sets[0].get(m.name), sets[1].get(m.name)) else {
                continue;
            };
            if a.len() != runs || b.len() != runs {
                continue;
            }
            let bound = bounds.get(m.name).copied().unwrap_or(0.0);
            let (med_a, med_b) = (util::median(a), util::median(b));
            let spread = |v: &[f64]| {
                if v.len() < 2 {
                    return 0.0;
                }
                let (q1, q3) = util::quartiles(v);
                (q3 - q1) / util::median(v)
            };
            let (spread_a, spread_b) = (spread(a), spread(b));
            let drift = worse_by(m.better, med_a, med_b);
            // The driver exempts setup_s from the spread rule, not from the drift rule.
            let spread_ok = m.name == "setup_s" || (spread_a <= bound && spread_b <= bound);
            let steady = spread_a.max(spread_b) <= bound / 3.0;
            let verdict = match (spread_ok && drift <= bound, steady) {
                (true, true) => "ok",
                (true, false) => "ok, spread above a third of the bound",
                (false, _) => "FAIL",
            };
            ok &= spread_ok && drift <= bound;
            println!(
                "{:<22} {:<12} {:>14.4} {:>14.4} {:>7.2}% {:>7.2}% {:>+7.2}% {:>5.0}%  {verdict}",
                w.name,
                m.name,
                med_a,
                med_b,
                100.0 * spread_a,
                100.0 * spread_b,
                100.0 * drift,
                100.0 * bound
            );
        }
    }
    println!(
        "{}",
        if ok {
            "agree: the two sets agree within the bounds"
        } else {
            "agree: FAILED"
        }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_end_to_end_metric_has_a_bound() {
        let b = bounds();
        for m in &END_TO_END {
            assert!(
                b.get(m.name).is_some_and(|b| *b > 0.0 && *b <= 0.25),
                "{} has no usable bound",
                m.name
            );
        }
    }

    #[test]
    fn drift_respects_direction() {
        assert!(worse_by("higher", 100.0, 90.0) > 0.0);
        assert!(worse_by("higher", 100.0, 110.0) < 0.0);
        assert!(worse_by("lower", 100.0, 110.0) > 0.0);
    }
}
