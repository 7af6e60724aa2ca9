//! # btc-bench
//!
//! The paper-reproduction CLI: the `repro` binary regenerates every table
//! and figure as text (and, with `--csv`, as `results/*.csv`), `ablate`
//! runs the design-choice ablations:
//!
//! ```text
//! cargo run -p btc-bench --release --bin repro -- all
//! ```
//!
//! Performance is measured elsewhere, by the one bench spine under
//! `benchmark/` (`BENCHMARK.json`).

#![warn(missing_docs)]

pub mod swarm;

use banscore::scenario::fault_matrix::FaultMatrixConfig;
use banscore::scenario::fig10::Fig10Config;
use banscore::scenario::reputation::ReputationSweepConfig;
use banscore::scenario::serve::ServeConfig;
use btc_netsim::time::MINUTES;

/// Experiment sizes for the `repro` binary.
#[derive(Clone, Debug)]
pub struct ReproConfig {
    /// Seconds of virtual flooding per Figure-6 / Table-III point.
    pub flood_secs: u64,
    /// Seconds of virtual serial-Sybil Defamation for Figure 8.
    pub fig8_secs: u64,
    /// Figure-10 durations.
    pub fig10: Fig10Config,
    /// Streaming-service study (fig10 traffic + per-peer window length).
    pub serve: ServeConfig,
    /// Iterations per Table-II row.
    pub table2_iters: u32,
    /// The detector-robustness fault grid.
    pub faults: FaultMatrixConfig,
    /// The swarm scale-bench grid (many-region simulator).
    pub swarm: swarm::SwarmBenchConfig,
    /// The stock vs trust-tier reputation sweep.
    pub reputation: ReputationSweepConfig,
}

impl Default for ReproConfig {
    fn default() -> Self {
        let fig10 = Fig10Config {
            train: 120 * MINUTES,
            window: 10 * MINUTES,
            test: 10 * MINUTES,
            innocents: 80,
        };
        ReproConfig {
            flood_secs: 10,
            fig8_secs: 10,
            fig10,
            serve: ServeConfig {
                fig10,
                window: MINUTES,
            },
            table2_iters: 200,
            faults: FaultMatrixConfig::full(),
            swarm: swarm::SwarmBenchConfig::full(),
            reputation: ReputationSweepConfig::full(),
        }
    }
}

impl ReproConfig {
    /// A fast configuration for smoke tests.
    pub fn quick() -> Self {
        let fig10 = Fig10Config {
            train: 20 * MINUTES,
            window: 5 * MINUTES,
            test: 4 * MINUTES,
            innocents: 25,
        };
        ReproConfig {
            flood_secs: 2,
            fig8_secs: 3,
            fig10,
            serve: ServeConfig {
                fig10,
                window: MINUTES,
            },
            table2_iters: 10,
            faults: FaultMatrixConfig::quick(),
            swarm: swarm::SwarmBenchConfig::quick(),
            reputation: ReputationSweepConfig::quick(),
        }
    }
}

/// Every experiment name `repro` accepts, in usage order. `fig7` is an
/// alias of `table3`; `all` runs every experiment except `swarm`.
pub const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "fig6",
    "fig7",
    "table3",
    "fig8",
    "fig10",
    "fig11",
    "serve",
    "evasion",
    "counter",
    "faults",
    "reputation",
    "swarm",
    "all",
];

/// Every ablation name `ablate` accepts, in usage order; `all` runs every
/// ablation.
pub const ABLATIONS: &[&str] = &[
    "threshold",
    "check-order",
    "duration",
    "good-score",
    "window",
    "reconnect",
    "all",
];

/// The usage line of the `repro` binary.
pub fn usage() -> String {
    format!(
        "usage: repro [--quick] [--csv] [--jobs N] [{}]",
        EXPERIMENTS.join("|")
    )
}

/// Parsed command line of the `repro` and `ablate` binaries. Flags are
/// scanned **once** at startup (`csv_out` used to re-scan
/// `std::env::args()` on every call) and carried through every experiment
/// section.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReproArgs {
    /// `--quick`: use [`ReproConfig::quick`] experiment sizes.
    pub quick: bool,
    /// `--csv`: also write results/<experiment>.csv files.
    pub csv: bool,
    /// `--jobs N` (or `--jobs=N`): worker threads for the experiment
    /// sweeps. Defaults to the machine's available parallelism.
    pub jobs: usize,
    /// The experiments to run, in order; empty means "all".
    pub what: Vec<String>,
}

impl Default for ReproArgs {
    fn default() -> Self {
        ReproArgs {
            quick: false,
            csv: false,
            jobs: btc_par::default_jobs(),
            what: Vec::new(),
        }
    }
}

impl ReproArgs {
    /// Parses the argument list (without the program name). Unknown
    /// `--flags`, malformed `--jobs` values and bare words that are not in
    /// `names` (`repro` passes [`EXPERIMENTS`], `ablate` [`ABLATIONS`]) are
    /// errors, so a misspelt name fails before any experiment runs.
    pub fn parse<I, S>(args: I, names: &[&str]) -> Result<ReproArgs, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut out = ReproArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let arg = arg.as_ref();
            match arg {
                "--quick" => out.quick = true,
                "--csv" => out.csv = true,
                "--jobs" => {
                    let v = iter
                        .next()
                        .ok_or_else(|| "--jobs requires a value".to_owned())?;
                    out.jobs = parse_jobs(v.as_ref())?;
                }
                _ if arg.starts_with("--jobs=") => {
                    out.jobs = parse_jobs(&arg["--jobs=".len()..])?;
                }
                _ if arg.starts_with("--") => {
                    return Err(format!("unknown flag {arg:?}"));
                }
                _ if names.contains(&arg) => out.what.push(arg.to_owned()),
                _ => return Err(format!("unknown experiment {arg:?}")),
            }
        }
        Ok(out)
    }

    /// The experiment sizes selected by the flags.
    pub fn config(&self) -> ReproConfig {
        if self.quick {
            ReproConfig::quick()
        } else {
            ReproConfig::default()
        }
    }
}

fn parse_jobs(v: &str) -> Result<usize, String> {
    let n: usize = v
        .parse()
        .map_err(|_| format!("--jobs expects a positive integer, got {v:?}"))?;
    if n == 0 {
        return Err("--jobs must be at least 1".to_owned());
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults() {
        let a = ReproArgs::parse(Vec::<String>::new(), EXPERIMENTS).unwrap();
        assert!(!a.quick);
        assert!(!a.csv);
        assert!(a.jobs >= 1);
        assert!(a.what.is_empty());
    }

    #[test]
    fn parse_flags_and_experiments() {
        let a = ReproArgs::parse(["--quick", "fig6", "--csv", "table3"], EXPERIMENTS).unwrap();
        assert!(a.quick);
        assert!(a.csv);
        assert_eq!(a.what, vec!["fig6", "table3"]);
    }

    #[test]
    fn parse_jobs_both_spellings() {
        assert_eq!(ReproArgs::parse(["--jobs", "4"], EXPERIMENTS).unwrap().jobs, 4);
        assert_eq!(ReproArgs::parse(["--jobs=7"], EXPERIMENTS).unwrap().jobs, 7);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(ReproArgs::parse(["--jobs"], EXPERIMENTS).is_err());
        assert!(ReproArgs::parse(["--jobs", "zero"], EXPERIMENTS).is_err());
        assert!(ReproArgs::parse(["--jobs", "0"], EXPERIMENTS).is_err());
        assert!(ReproArgs::parse(["--jobs=-3"], EXPERIMENTS).is_err());
        assert!(ReproArgs::parse(["--frobnicate"], EXPERIMENTS).is_err());
        // A misspelt name is rejected up front, not after fig6 has run.
        assert!(ReproArgs::parse(["--quick", "fig6", "tabel3"], EXPERIMENTS).is_err());
        assert_eq!(ReproArgs::parse(EXPERIMENTS, EXPERIMENTS).unwrap().what, EXPERIMENTS);
    }

    #[test]
    fn every_ablation_name_parses() {
        // Regression: `ablate` parsed against `repro`'s names, so every
        // named ablation exited 2 as an unknown experiment.
        for name in ABLATIONS {
            assert_eq!(ReproArgs::parse([*name], ABLATIONS).unwrap().what, [*name]);
        }
        assert!(ReproArgs::parse(["threshold"], EXPERIMENTS).is_err());
        assert!(ReproArgs::parse(["table1"], ABLATIONS).is_err());
    }

    #[test]
    fn quick_selects_quick_config() {
        let a = ReproArgs::parse(["--quick"], EXPERIMENTS).unwrap();
        assert_eq!(a.config().flood_secs, ReproConfig::quick().flood_secs);
        let b = ReproArgs::parse(Vec::<String>::new(), EXPERIMENTS).unwrap();
        assert_eq!(b.config().flood_secs, ReproConfig::default().flood_secs);
    }
}

/// CSV serializers for the experiment results — written next to the text
/// tables when `repro --csv` is used, so figures can be re-plotted with
/// any external tool.
pub mod csv {
    use banscore::scenario::evasion::EvasionResult;
    use banscore::scenario::fault_matrix::FaultMatrixResult;
    use banscore::scenario::fig6::Fig6Point;
    use banscore::scenario::fig8::Fig8Result;
    use banscore::scenario::table3::Table3Row;
    use btc_attack::meter::CostRow;
    use btc_detect::latency::LatencyRow;

    /// Table II rows.
    pub fn table2(rows: &[CostRow]) -> String {
        let mut out = String::from("message,attacker_clocks,victim_clocks,ratio\n");
        for r in rows {
            out.push_str(&format!(
                "{},{:.2},{:.2},{:.4}\n",
                r.command, r.attacker_clocks, r.victim_clocks, r.ratio
            ));
        }
        out
    }

    /// Figure 6 points.
    pub fn fig6(points: &[Fig6Point]) -> String {
        let mut out = String::from("attack,connections,msgs_per_sec,mbits_per_sec,mining_rate\n");
        for p in points {
            out.push_str(&format!(
                "{},{},{:.2},{:.3},{:.1}\n",
                p.attack.label(),
                p.connections,
                p.msgs_per_sec,
                p.mbits_per_sec,
                p.mining_rate
            ));
        }
        out
    }

    /// Table III rows.
    pub fn table3(rows: &[Table3Row]) -> String {
        let mut out = String::from(
            "layer,rate,achieved_rate,attacker_cpu_pct,attacker_mem_mb,bandwidth_kbits,mining_rate\n",
        );
        for r in rows {
            out.push_str(&format!(
                "{},{:.0},{:.1},{:.3},{:.2},{:.2},{:.1}\n",
                r.layer,
                r.rate,
                r.achieved_rate,
                r.attacker_cpu_pct,
                r.attacker_mem_mb,
                r.bandwidth_kbits,
                r.mining_rate
            ));
        }
        out
    }

    /// The Figure-8 ban-score staircase.
    pub fn fig8_staircase(r: &Fig8Result) -> String {
        let mut out = String::from("seconds,score\n");
        for (t, s) in &r.staircase {
            out.push_str(&format!("{t:.6},{s}\n"));
        }
        out
    }

    /// Figure 11 latencies.
    pub fn fig11(rows: &[LatencyRow]) -> String {
        let mut out = String::from("method,train_ns,test_ns_per_window\n");
        for r in rows {
            out.push_str(&format!("{},{:.0},{:.1}\n", r.name, r.train_ns, r.test_ns));
        }
        out
    }

    /// The detector-robustness fault matrix.
    pub fn fault_matrix(r: &FaultMatrixResult) -> String {
        use btc_netsim::time::MILLIS;
        let mut out = String::from(
            "loss,jitter_ms,churn_fpm,false_positive,normal_c,normal_rho,\
             bmdos_detected,bmdos_latency_s,bmdos_n,\
             defam_detected,defam_latency_s,defam_c,dropped,retransmits\n",
        );
        for p in &r.points {
            let normal = p.case("normal");
            let dos = p.case("bm-dos");
            let def = p.case("defamation");
            let dropped: u64 = p.cases.iter().map(|c| c.fault_stats.total_dropped()).sum();
            let rtx: u64 = p.cases.iter().map(|c| c.retransmits).sum();
            out.push_str(&format!(
                "{:.3},{},{},{},{:.3},{:.4},{},{:.0},{:.1},{},{:.0},{:.3},{},{}\n",
                p.point.loss,
                p.point.jitter / MILLIS,
                p.point.churn_fpm,
                u8::from(p.false_positive()),
                normal.detection.c,
                normal.detection.rho,
                u8::from(dos.detection.anomalous),
                dos.latency_s,
                dos.detection.n,
                u8::from(def.detection.anomalous),
                def.latency_s,
                def.detection.c,
                dropped,
                rtx,
            ));
        }
        out
    }

    /// The streaming-service study: one row per (engine, shard count,
    /// case). `digest` is deterministic; the throughput/latency columns
    /// are wall-clock and vary run to run.
    pub fn serve(r: &banscore::scenario::serve::ServeResult) -> String {
        let mut out = String::from(
            "engine,shards,case,events,verdicts,anomalous,msgs_per_sec,p99_decision_ns,digest\n",
        );
        for c in &r.cases {
            for run in &c.runs {
                out.push_str(&format!(
                    "streaming,{},{},{},{},{},{:.0},{},{:016x}\n",
                    run.shards,
                    c.name,
                    c.events,
                    c.verdicts,
                    c.anomalous,
                    run.bench.msgs_per_sec,
                    run.bench.p99_decision_ns,
                    run.digest
                ));
            }
            out.push_str(&format!(
                "batch,1,{},{},{},{},{:.0},{},{:016x}\n",
                c.name,
                c.events,
                c.verdicts,
                c.anomalous,
                c.batch_msgs_per_sec,
                c.batch_ns_per_window,
                c.batch_digest
            ));
        }
        out
    }

    /// The swarm scale sweep: one row per (case, size, worker count).
    /// `digest` and the counters are deterministic; `wall_secs` and
    /// `speedup` are wall-clock and vary run to run.
    pub fn swarm(r: &crate::swarm::SwarmBenchResult) -> String {
        let mut out = String::from(
            "case,hosts,regions,workers,digest,delivered,target_msgs,bans,dropped,\
             strikes,flood_msgs,wall_secs,speedup\n",
        );
        for p in &r.points {
            for run in &p.runs {
                let o = &run.outcome;
                out.push_str(&format!(
                    "{},{},{},{},{:016x},{},{},{},{},{},{},{:.3},{:.2}\n",
                    p.case,
                    o.hosts,
                    r.regions,
                    run.workers,
                    o.digest,
                    o.delivered,
                    o.target_msgs,
                    o.target_bans,
                    o.dropped,
                    o.strikes,
                    o.flood_msgs,
                    run.wall_secs,
                    p.speedup(run),
                ));
            }
        }
        out
    }

    /// The stock vs trust-tier reputation sweep: one row per (case,
    /// policy), then one `swarm` row. Every column is simulation-derived
    /// and therefore byte-identical for any `--jobs` count.
    pub fn reputation(r: &banscore::scenario::reputation::ReputationResult) -> String {
        let mut out = String::from(
            "case,policy,bans,graylists,graylist_dropped,tier_changes,\
             innocents_excluded,recovery_s,detected,latency_s,target_msgs,outbound_at_end\n",
        );
        for row in &r.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{:.0},{},{:.0},{},{}\n",
                row.case,
                row.policy,
                row.bans,
                row.graylists,
                row.graylist_dropped,
                row.tier_changes,
                row.innocents_excluded,
                row.recovery_s,
                u8::from(row.detected),
                row.latency_s,
                row.target_msgs,
                row.outbound_at_end,
            ));
        }
        let s = &r.swarm;
        out.push_str(&format!(
            "swarm,trust-tiers,{},{},{},0,0,NaN,0,NaN,{},{}\n",
            s.bans, s.graylists, s.graylist_dropped, s.target_msgs, s.hosts
        ));
        out.push_str(&format!("# swarm_digest,{:016x}\n", s.digest));
        out
    }

    /// The evasion sweep.
    pub fn evasion(r: &EvasionResult) -> String {
        let mut out = String::from("rate_per_min,sent,detected,mining_rate,damage\n");
        for p in &r.points {
            out.push_str(&format!(
                "{:.0},{},{},{:.1},{:.4}\n",
                p.rate_per_min, p.sent, p.detected, p.mining_rate, p.damage
            ));
        }
        out
    }
}
