//! The `ablate` command line: every named ablation runs, in order, and
//! the `repro`-only flags are refused before anything runs.

use std::process::Command;

fn ablate(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ablate"))
        .args(args)
        .output()
        .expect("ablate runs")
}

#[test]
fn ablate_runs_every_named_ablation_and_refuses_repro_flags() {
    let out = ablate(&["duration", "good-score"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let duration = stdout
        .find("==== ablation: ban duration (default 24 h) ====")
        .expect("duration section");
    let good_score = stdout
        .find("==== ablation: good-score minimum credit ====")
        .expect("good-score section");
    assert!(duration < good_score, "order as named:\n{stdout}");

    for flag in ["--quick", "--csv"] {
        let out = ablate(&[flag, "duration"]);
        assert_eq!(out.status.code(), Some(2), "{flag}: {out:?}");
        assert!(out.stdout.is_empty(), "{flag} ran an ablation");
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        assert!(stderr.contains("usage: ablate"), "{flag}: {stderr}");
    }
}
