//! The benchmark against its own contract: `BENCHMARK.json`, `spec.rs` and
//! what the binary prints must name the same things, and the smoke runs
//! must be correct and repeatable. Every run here is a real process of the
//! real binary at `--smoke` size.

use bench_spine::json::{parse, Value};
use bench_spine::spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;
use std::process::Command;

fn contract() -> Value {
    parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn names(doc: &Value, key: &str) -> Vec<String> {
    doc.get(key)
        .map(Value::as_array)
        .unwrap_or_default()
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Value::as_str)
                .expect("every entry has a name")
                .to_owned()
        })
        .collect()
}

struct Run {
    status: Option<i32>,
    digest: String,
    last: Value,
}

fn smoke(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_bench-spine"))
        .args([
            "run",
            "--smoke",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
        ])
        .args(["--seconds", "0", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest "))
        .and_then(|l| l.split(' ').nth(1))
        .unwrap_or_else(|| panic!("{workload}: no digest line in\n{stdout}"))
        .to_owned();
    let last = parse(stdout.lines().last().unwrap_or_default())
        .unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}):\n{stdout}"));
    Run {
        status: out.status.code(),
        digest,
        last,
    }
}

fn assert_result_shape(workload: &str, run: &Run, declared: &[MetricSpec]) {
    assert_eq!(run.status, Some(0), "{workload}: exit code");
    let top: BTreeSet<&str> = run
        .last
        .as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        top,
        BTreeSet::from(["attempted", "correct", "failed", "metrics"]),
        "{workload}: keys of the last line"
    );
    assert_eq!(
        run.last.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}: outputs incorrect"
    );
    assert!(
        run.last
            .get("attempted")
            .and_then(Value::as_f64)
            .is_some_and(|a| a >= 1.0),
        "{workload}: attempted"
    );
    assert_eq!(
        run.last.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{workload}: failed operations"
    );
    let metrics = run
        .last
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics is an object");
    let printed: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
    let wanted: BTreeSet<&str> = declared.iter().map(|m| m.name).collect();
    assert_eq!(
        printed, wanted,
        "{workload}: metric names printed vs declared"
    );
    for m in declared {
        let entry = &metrics[m.name];
        assert_eq!(
            entry.get("unit").and_then(Value::as_str),
            Some(m.unit),
            "{workload}: unit of {}",
            m.name
        );
        assert!(
            entry
                .get("value")
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite),
            "{workload}: value of {}",
            m.name
        );
    }
}

#[test]
fn contract_file_and_spec_name_the_same_things() {
    let doc = contract();
    let keys: BTreeSet<&str> = doc
        .as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        BTreeSet::from([
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ])
    );
    assert_eq!(
        names(&doc, "workloads"),
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
    );
    for (key, declared) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        assert_eq!(
            names(&doc, key),
            declared.iter().map(|m| m.name).collect::<Vec<_>>(),
            "{key}"
        );
        for (entry, m) in doc.get(key).unwrap().as_array().iter().zip(declared) {
            assert_eq!(
                entry.get("unit").and_then(Value::as_str),
                Some(m.unit),
                "unit of {}",
                m.name
            );
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(m.better),
                "direction of {}",
                m.name
            );
        }
    }
    assert!(names(&doc, "end_to_end").contains(&"setup_s".to_owned()));
    let paths: Vec<&str> = doc
        .get("paths")
        .unwrap()
        .as_array()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
}

#[test]
fn names_and_counts_are_within_the_contract_limits() {
    let doc = contract();
    let (workloads, e2e, layers) = (
        names(&doc, "workloads"),
        names(&doc, "end_to_end"),
        names(&doc, "per_layer"),
    );
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    let mut seen = BTreeSet::new();
    for name in workloads.iter().chain(&e2e).chain(&layers) {
        assert!(!name.is_empty() && name.len() <= 64, "{name}: length");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}: characters"
        );
        assert!(
            name.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()),
            "{name}: first character"
        );
        assert!(seen.insert(name.clone()), "{name}: used twice");
    }
    for w in doc.get("workloads").unwrap().as_array() {
        let why = w
            .get("why")
            .and_then(Value::as_str)
            .expect("every workload says why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why of {:?}",
            w.get("name")
        );
    }
}

#[test]
fn smoke_runs_print_exactly_the_declared_metrics_and_repeat_their_digests() {
    for w in &WORKLOADS {
        let untraced = smoke(w.name, 1, false);
        assert_result_shape(w.name, &untraced, &END_TO_END);
        let traced = smoke(w.name, 1, true);
        assert_result_shape(w.name, &traced, &PER_LAYER);
        assert_eq!(
            untraced.digest, traced.digest,
            "{}: two runs of one seed disagree",
            w.name
        );
    }
}

#[test]
fn another_seed_passes_the_invariant_checks_with_other_inputs() {
    for w in &WORKLOADS {
        let other = smoke(w.name, 7, false);
        assert_result_shape(w.name, &other, &END_TO_END);
    }
    // The seed reaches the inputs: frame bytes differ, and the verdicts with them.
    assert_ne!(
        smoke("detect_replay", 7, false).digest,
        smoke("detect_replay", 1, false).digest
    );
}

#[test]
fn shard_count_does_not_change_the_verdicts() {
    assert_eq!(
        smoke("detect_replay", 3, false).digest,
        smoke("detect_replay_sharded", 3, false).digest
    );
    assert_eq!(
        include_str!("../golden/detect_replay.txt"),
        include_str!("../golden/detect_replay_sharded.txt")
    );
}

#[test]
fn control_predictions_hold_at_smoke_size() {
    let value = |run: &Run, name: &str| {
        run.last
            .get("metrics")
            .unwrap()
            .get(name)
            .unwrap()
            .get("value")
            .unwrap()
            .as_f64()
            .unwrap()
    };
    let bogus = smoke("bogus_block_flood", 1, true);
    assert_eq!(value(&bogus, "wire.decoded_frames"), 0.0);
    assert!(value(&bogus, "wire.frames") > 0.0);
    assert_eq!(
        value(&bogus, "node.bad_checksum_frames"),
        value(&bogus, "wire.frames")
    );
    let relay = smoke("relay_mix", 1, true);
    assert_eq!(
        value(&relay, "node.bans")
            + value(&relay, "node.graylists")
            + value(&relay, "node.graylist_dropped"),
        0.0
    );
    assert!(value(&relay, "node.telemetry.query_ns") > 0.0);
    assert_eq!(
        value(&smoke("detect_replay", 1, true), "detect.agreement"),
        1.0
    );
}

#[test]
fn bad_arguments_exit_with_usage() {
    let exe = env!("CARGO_BIN_EXE_bench-spine");
    for args in [
        &["run", "--workload", "no_such_workload"][..],
        &["run"],
        &["frobnicate"],
        &["run", "--workload", "ping_flood", "--trace", "2"],
    ] {
        let out = Command::new(exe)
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
