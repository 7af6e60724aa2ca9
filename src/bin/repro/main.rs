//! `repro` — regenerates every table and figure of the paper as text,
//! and runs the DESIGN.md §5 ablations.
//!
//! ```text
//! repro [--quick] [--csv] [--jobs N] [NAME]...
//! ```
//!
//! Each `NAME` is a row of [`EXPERIMENTS`] or a group of rows: `all` (the
//! default) runs every paper experiment, `ablate` every ablation. Names
//! run in the order given. `swarm` is the sharded-simulator scale bench
//! (hosts-vs-wall-clock curve); it times every cell at several worker
//! counts and is therefore in neither group.
//!
//! Exits 2, before anything runs, on an unknown name or flag. Exits 1,
//! after everything requested has printed, when a `serve` case or a
//! `swarm` cell breaks its determinism contract.
//!
//! `--jobs N` fans each experiment's independent, deterministically-seeded
//! points across `N` worker threads (default: available parallelism). The
//! simulation-derived outputs are byte-identical for any job count; only
//! the wall-clock measurements of table2/fig11/serve/swarm vary run to
//! run.

mod ablate;
mod args;
mod csv;
mod swarm;

use args::{ReproArgs, ReproConfig};
use banscore::countermeasure::{auth_overhead, evaluate_countermeasures, render_countermeasures};
use banscore::scenario::evasion::{render_evasion, run_evasion, EvasionConfig};
use banscore::scenario::fault_matrix::{render_fault_matrix, run_fault_matrix};
use banscore::scenario::fig10::{render_fig10, run_fig10};
use banscore::scenario::fig6::{render_fig6, run_fig6};
use banscore::scenario::fig8::{render_fig8, run_fig8};
use banscore::scenario::reputation::{render_reputation, run_reputation};
use banscore::scenario::serve::{render_serve, run_serve};
use banscore::scenario::table3::{render_table3, run_table3};
use btc_attack::meter::{fixtures, measure_bogus_block, measure_table2, render_table2};
use btc_detect::dataset::Dataset;
use btc_detect::eval::{compare_accuracy, render_accuracy};
use btc_detect::latency::{compare_latencies, render_fig11};
use btc_node::banscore::render_table1;

/// One row of [`EXPERIMENTS`]: the names that select it, what runs it,
/// and the group name that also selects it (`all`, `ablate`, or none).
struct Experiment {
    names: &'static [&'static str],
    /// Runs the experiment; returns whether its determinism contract held
    /// (only `serve` and `swarm` check one).
    run: fn(&ReproConfig, &ReproArgs) -> bool,
    group: Option<&'static str>,
}

impl Experiment {
    fn selected_by(&self, name: &str) -> bool {
        self.names.contains(&name) || self.group == Some(name)
    }
}

const ALL: Option<&str> = Some("all");
const ABLATE: Option<&str> = Some("ablate");

/// Every experiment `repro` runs, in the order a group runs them. The
/// usage line, the name check of [`ReproArgs::parse`] and the groups are
/// all read off this table.
const EXPERIMENTS: &[Experiment] = &[
    Experiment { names: &["table1"], run: table1, group: ALL },
    Experiment { names: &["table2"], run: table2, group: ALL },
    Experiment { names: &["fig6"], run: fig6, group: ALL },
    Experiment { names: &["fig7", "table3"], run: table3, group: ALL },
    Experiment { names: &["fig8"], run: fig8, group: ALL },
    Experiment { names: &["fig10"], run: fig10, group: ALL },
    Experiment { names: &["fig11"], run: fig11, group: ALL },
    Experiment { names: &["serve"], run: serve, group: ALL },
    Experiment { names: &["evasion"], run: evasion, group: ALL },
    Experiment { names: &["faults"], run: faults, group: ALL },
    Experiment { names: &["reputation"], run: reputation, group: ALL },
    Experiment { names: &["counter"], run: counter, group: ALL },
    Experiment { names: &["swarm"], run: swarm, group: None },
    Experiment { names: &["threshold"], run: ablate::threshold, group: ABLATE },
    Experiment { names: &["check-order"], run: ablate::check_order, group: ABLATE },
    Experiment { names: &["duration"], run: ablate::duration, group: ABLATE },
    Experiment { names: &["good-score"], run: ablate::good_score, group: ABLATE },
    Experiment { names: &["window"], run: ablate::window, group: ABLATE },
    Experiment { names: &["reconnect"], run: ablate::reconnect, group: ABLATE },
];

/// The usage line: every row's names, then every group.
fn usage() -> String {
    let mut names: Vec<&str> = EXPERIMENTS.iter().flat_map(|e| e.names.iter().copied()).collect();
    for group in EXPERIMENTS.iter().filter_map(|e| e.group) {
        if !names.contains(&group) {
            names.push(group);
        }
    }
    format!("usage: repro [--quick] [--csv] [--jobs N] [{}]...", names.join("|"))
}

fn section(title: &str) {
    println!("\n==== {title} ====\n");
}

/// When `--csv` is given, experiment results are also written here.
fn csv_out(args: &ReproArgs, name: &str, contents: &str) {
    if !args.csv {
        return;
    }
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create results/: {e}");
        return;
    }
    let path = dir.join(name);
    match std::fs::write(&path, contents) {
        Ok(()) => println!("[csv written to {}]", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

fn table1(_: &ReproConfig, _: &ReproArgs) -> bool {
    section("Table I — ban-score rules (0.20.0 / 0.21.0 / 0.22.0)");
    print!("{}", render_table1());
    let protected =
        btc_node::banscore::protected_message_types(btc_node::banscore::CoreVersion::V0_20);
    println!(
        "\n{} of 26 message types carry ban-score rules in 0.20.0: {:?}",
        protected.len(),
        protected
    );
    true
}

fn table2(cfg: &ReproConfig, args: &ReproArgs) -> bool {
    section("Table II — per-message attacker cost vs victim impact (measured)");
    // One fixture chain serves both the 19 regular rows and the bogus
    // block (it used to be mined twice).
    let fx = fixtures();
    let mut rows = measure_table2(&fx, cfg.table2_iters, args.jobs);
    rows.push(measure_bogus_block(&fx, cfg.table2_iters, 200_000));
    rows.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
    print!("{}", render_table2(&rows));
    csv_out(args, "table2.csv", &csv::table2(&rows));
    println!("\n(paper: BLOCK ratio 26323, BLOCKTXN 5849, CMPCTBLOCK 3192; bogus BLOCK 2133)");
    true
}

fn fig6(cfg: &ReproConfig, args: &ReproArgs) -> bool {
    section("Figure 6 — BM-DoS impact on mining rate");
    let points = run_fig6(cfg.flood_secs, args.jobs);
    print!("{}", render_fig6(&points));
    csv_out(args, "fig6.csv", &csv::fig6(&points));
    println!("\n(paper: none 9.5e5; block 3.5/2.8/2.6e5; ping 5.5/4.6/3.5e5 at 1/10/20 conns)");
    true
}

fn table3(cfg: &ReproConfig, args: &ReproArgs) -> bool {
    section("Table III / Figure 7 — BM-DoS vs network-layer flooding");
    let rows = run_table3(cfg.flood_secs, args.jobs);
    print!("{}", render_table3(&rows));
    csv_out(args, "table3.csv", &csv::table3(&rows));
    println!("\n(paper: PING capped at 1e3 msg/s; ICMP reaches 1e6 pps; at equal rates the");
    println!(" application-layer flood degrades mining more)");
    true
}

fn fig8(cfg: &ReproConfig, args: &ReproArgs) -> bool {
    section("Figure 8 / §VI-D — Defamation timing");
    let r = run_fig8(cfg.fig8_secs, args.jobs);
    print!("{}", render_fig8(&r));
    csv_out(args, "fig8_staircase.csv", &csv::fig8_staircase(&r));
    true
}

fn fig10(cfg: &ReproConfig, args: &ReproArgs) -> bool {
    section("Figure 10 — anomaly detection (normal vs BM-DoS vs Defamation)");
    let r = run_fig10(cfg.fig10, args.jobs);
    print!("{}", render_fig10(&r));
    println!("\n(paper: τ_n=[252,390], τ_c=[0,2.1], τ_Λ=0.993; ρ=0.05 under BM-DoS,");
    println!(" ρ=0.88 under Defamation, c=5.3/min)");
    true
}

fn fig11(cfg: &ReproConfig, args: &ReproArgs) -> bool {
    section("Figure 11 — detection training/testing latency vs ML baselines");
    // Build a labelled dataset from the trained scenario traffic.
    let r = run_fig10(cfg.fig10, args.jobs);
    let mut windows = Vec::new();
    let mut labels = Vec::new();
    // Replicate the aggregate case windows into a training corpus.
    for c in &r.cases {
        let label = if c.name == "normal" { 0.0 } else { 1.0 };
        for i in 0..40u64 {
            let mut w = c.window;
            // Small deterministic jitter so models see variation.
            for (j, count) in w.counts.iter_mut().enumerate() {
                *count += (i * 7 + j as u64) % 5;
            }
            windows.push(w);
            labels.push(label);
        }
    }
    let rows = compare_latencies(&windows, &labels, args.jobs);
    print!("{}", render_fig11(&rows));
    csv_out(args, "fig11.csv", &csv::fig11(&rows));
    println!("\n(paper: the statistical engine is ≥4 orders of magnitude faster than the");
    println!(" Python/sklearn baselines; our compiled-Rust baselines narrow the absolute");
    println!(" gap but preserve the ordering — see EXPERIMENTS.md)");

    // Detection quality on the same corpus (the paper reports 100 %
    // accuracy against the non-evasive attacker).
    let mut ds = Dataset::new();
    for (w, l) in windows.iter().zip(&labels) {
        ds.push(*w, *l);
    }
    println!("\nDetection accuracy (held-out every 4th window):");
    print!(
        "{}",
        render_accuracy(&compare_accuracy(&ds, 4, args.jobs))
    );
    true
}

/// Returns whether every case agrees with itself across shard counts and
/// with the batch engine (`ServeCase::agrees`).
fn serve(cfg: &ReproConfig, args: &ReproArgs) -> bool {
    section("Streaming service — sharded per-peer detector vs batch engine");
    let r = run_serve(cfg.serve.clone(), args.jobs);
    print!("{}", render_serve(&r));
    csv_out(args, "serve.csv", &csv::serve(&r));
    println!("\nDigest lines are deterministic and must be identical across shard counts;");
    println!("[wall] lines are wall-clock.");
    let mut ok = true;
    for c in r.cases.iter().filter(|c| !c.agrees()) {
        eprintln!("serve: case {}: shard digests or streaming-vs-batch verdicts disagree", c.name);
        ok = false;
    }
    ok
}

fn evasion(_: &ReproConfig, args: &ReproArgs) -> bool {
    section("Extension (§VII future work) — the intelligent/evasive attacker");
    let r = run_evasion(
        EvasionConfig::default(),
        &[30.0, 150.0, 1_000.0, 12_000.0],
        args.jobs,
    );
    print!("{}", render_evasion(&r));
    csv_out(args, "evasion.csv", &csv::evasion(&r));
    println!("\nThe paper's mitigation argument, quantified: staying under the");
    println!("detector's thresholds caps the attacker's damage.");
    true
}

fn faults(cfg: &ReproConfig, args: &ReproArgs) -> bool {
    section("Robustness — detector accuracy/latency under injected network faults");
    let r = run_fault_matrix(&cfg.faults, args.jobs);
    print!("{}", render_fault_matrix(&r));
    csv_out(args, "fault_matrix.csv", &csv::fault_matrix(&r));
    println!("\nThe profile is trained on a clean network; the grid shows how packet loss");
    println!("attenuates BM-DoS (detection latency grows) and how honest churn pushes the");
    println!("reconnection-rate feature toward Defamation's signature (false positives).");
    true
}

fn reputation(cfg: &ReproConfig, args: &ReproArgs) -> bool {
    section("Trust tiers — graceful degradation vs stock ban cliff vs detector");
    let r = run_reputation(&cfg.reputation, args.jobs);
    print!("{}", render_reputation(&r));
    csv_out(args, "reputation.csv", &csv::reputation(&r));
    println!("\nStock never scores the PING flood and 24h-bans defamed innocents; the");
    println!("trust-tier engine graylists the flooder via flood pressure and lets the");
    println!("defamed re-enter at Probation when the graylist expires. All columns are");
    println!("simulation-derived and byte-identical for any --jobs count.");
    true
}

/// Returns whether every cell's outcome is identical at every worker count.
fn swarm(cfg: &ReproConfig, args: &ReproArgs) -> bool {
    section("Swarm scale — sharded simulator, attack testbed in a 100k+ host swarm");
    let r = swarm::run_swarm_bench(&cfg.swarm);
    print!("{}", swarm::render_swarm(&r));
    csv_out(args, "swarm.csv", &csv::swarm(&r));
    println!("\nDigest lines are deterministic and must be identical across worker counts;");
    println!("[wall] lines carry the hosts-vs-wall-clock curve. Speedup over workers=1");
    println!("needs a multi-core runner.");
    let mut ok = true;
    for p in r.points.iter().filter(|p| !p.outcomes_agree()) {
        eprintln!("swarm: case {} at {} hosts: outcomes diverged", p.case, p.swarm_hosts);
        ok = false;
    }
    ok
}

fn counter(_: &ReproConfig, _: &ReproArgs) -> bool {
    section("§VIII — countermeasures vs the Defamation attack");
    let rows = evaluate_countermeasures();
    print!("{}", render_countermeasures(&rows));
    let a = auth_overhead(60_000, 34);
    println!(
        "\nAuthentication estimate: {} nodes × {} conns → {} connections to encrypt;",
        a.nodes, a.connections_per_node, a.total_connections
    );
    println!(
        "≈{:.1} CPU-seconds of handshakes network-wide, +{} B/message.",
        a.handshake_cpu_seconds, a.per_message_overhead_bytes
    );
    true
}

fn main() {
    let args = match ReproArgs::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    };
    let cfg = args.config();
    let what = if args.what.is_empty() {
        vec!["all".to_owned()]
    } else {
        args.what.clone()
    };
    let mut contracts_hold = true;
    for w in &what {
        for e in EXPERIMENTS.iter().filter(|e| e.selected_by(w)) {
            contracts_hold &= (e.run)(&cfg, &args);
        }
    }
    if !contracts_hold {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_run_their_rows_in_table_order() {
        let group = |g: &str| -> Vec<String> {
            EXPERIMENTS.iter().filter(|e| e.group == Some(g)).map(|e| e.names.join("|")).collect()
        };
        // `all` is the paper run, and its order is the byte order of
        // `repro` with no name: no `swarm`, no ablations.
        let all = [
            "table1", "table2", "fig6", "fig7|table3", "fig8", "fig10", "fig11", "serve",
            "evasion", "faults", "reputation", "counter",
        ];
        assert_eq!(group("all"), all);
        let ablate = ["threshold", "check-order", "duration", "good-score", "window", "reconnect"];
        assert_eq!(group("ablate"), ablate);
    }
}
