//! CLI entry point: `cargo run -p btc-lint [-- --root <dir>] [--json]`.
//!
//! Default output prints findings as `file:line:rule: message [chain]` (one
//! per line, sorted) and exits 1 when any exist, 0 when the workspace is
//! clean, 2 on usage errors. `--json` emits a single JSON object —
//! `{"findings": [...], "callgraph": {...}}` — on stdout for machine
//! consumption (CI gates on the findings array).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let Some(dir) = args.next() else {
                    eprintln!("btc-lint: --root needs a directory");
                    return ExitCode::from(2);
                };
                root = PathBuf::from(dir);
            }
            "--json" => json = true,
            "--help" | "-h" => {
                println!(
                    "usage: btc-lint [--root <workspace-dir>] [--json]\n\n\
                     Multi-pass analyzer: lexes, parses and call-graph-links the workspace,\n\
                     then checks determinism, panic-safety, narrowing casts, score arithmetic,\n\
                     RNG stream discipline, lock ordering and stale exemptions. Exits non-zero\n\
                     on findings.\n\n\
                     --json   emit {{\"findings\": [...], \"callgraph\": {{...}}}} on stdout"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("btc-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    if !root.join("crates").is_dir() {
        eprintln!(
            "btc-lint: `{}` has no crates/ directory; run from the workspace root or pass --root",
            root.display()
        );
        return ExitCode::from(2);
    }

    let analysis = btc_lint::analyze(&root);
    let findings = &analysis.findings;
    if json {
        let mut out = String::from("{\"findings\":[");
        for (i, f) in findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&f.to_json());
        }
        let s = analysis.stats;
        out.push_str(&format!(
            "],\"callgraph\":{{\"functions\":{},\"edges\":{},\"ambiguous\":{},\"unknown\":{}}}}}",
            s.functions, s.edges, s.ambiguous, s.unknown
        ));
        println!("{out}");
    } else {
        for f in findings {
            println!("{f}");
        }
    }
    if findings.is_empty() {
        eprintln!("btc-lint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("btc-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
