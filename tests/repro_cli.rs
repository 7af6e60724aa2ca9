//! The `repro` command line: named experiments run in the order given,
//! and an unknown name is refused before anything runs.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn repro_runs_named_ablations_in_order_and_refuses_unknown_names() {
    let out = repro(&["duration", "good-score"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let duration = stdout
        .find("==== ablation: ban duration (default 24 h) ====")
        .expect("duration section");
    let good_score = stdout
        .find("==== ablation: good-score minimum credit ====")
        .expect("good-score section");
    assert!(duration < good_score, "order as named:\n{stdout}");

    let out = repro(&["duration", "tabel3"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "an experiment ran before the name check");
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(stderr.contains("usage: repro"), "{stderr}");
}
