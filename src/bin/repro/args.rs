//! The `repro` command line and the experiment sizes it selects. Flags
//! are scanned **once** at startup and carried through every experiment;
//! bare words are checked against [`crate::EXPERIMENTS`], so a misspelt
//! name fails before anything runs.

use crate::swarm;
use crate::EXPERIMENTS;
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

/// Parsed command line of `repro`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReproArgs {
    /// `--quick`: use [`ReproConfig::quick`] experiment sizes.
    pub quick: bool,
    /// `--csv`: also write results/<experiment>.csv files.
    pub csv: bool,
    /// `--jobs N` (or `--jobs=N`): worker threads for the experiment
    /// sweeps. Defaults to the machine's available parallelism.
    pub jobs: usize,
    /// The experiment and group names to run, in order; empty means
    /// `all`.
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
    /// `--flags`, malformed `--jobs` values and bare words that select no
    /// row of [`EXPERIMENTS`] are errors.
    pub fn parse<I, S>(args: I) -> Result<ReproArgs, String>
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
                _ if EXPERIMENTS.iter().any(|e| e.selected_by(arg)) => {
                    out.what.push(arg.to_owned());
                }
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
        let a = ReproArgs::parse(Vec::<String>::new()).unwrap();
        assert!(!a.quick);
        assert!(!a.csv);
        assert!(a.jobs >= 1);
        assert!(a.what.is_empty());
    }

    #[test]
    fn parse_flags_and_experiments() {
        let a = ReproArgs::parse(["--quick", "fig6", "--csv", "table3"]).unwrap();
        assert!(a.quick);
        assert!(a.csv);
        assert_eq!(a.what, vec!["fig6", "table3"]);
    }

    #[test]
    fn parse_jobs_both_spellings() {
        assert_eq!(ReproArgs::parse(["--jobs", "4"]).unwrap().jobs, 4);
        assert_eq!(ReproArgs::parse(["--jobs=7"]).unwrap().jobs, 7);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(ReproArgs::parse(["--jobs"]).is_err());
        assert!(ReproArgs::parse(["--jobs", "zero"]).is_err());
        assert!(ReproArgs::parse(["--jobs", "0"]).is_err());
        assert!(ReproArgs::parse(["--jobs=-3"]).is_err());
        assert!(ReproArgs::parse(["--frobnicate"]).is_err());
        // A misspelt name is rejected up front, not after fig6 has run.
        assert!(ReproArgs::parse(["--quick", "fig6", "tabel3"]).is_err());
        // Every row name and group name parses, in order.
        let every: Vec<&str> = EXPERIMENTS
            .iter()
            .flat_map(|e| e.names.iter().copied().chain(e.group))
            .collect();
        assert_eq!(ReproArgs::parse(&every).unwrap().what, every);
    }

    #[test]
    fn every_ablation_name_parses() {
        // The ablations are rows of the one table: each parses by name,
        // and all six as the group `ablate`.
        for name in ["threshold", "check-order", "duration", "good-score", "window", "reconnect", "ablate"] {
            assert_eq!(ReproArgs::parse([name]).unwrap().what, [name]);
        }
    }

    #[test]
    fn quick_selects_quick_config() {
        let a = ReproArgs::parse(["--quick"]).unwrap();
        assert_eq!(a.config().flood_secs, ReproConfig::quick().flood_secs);
        let b = ReproArgs::parse(Vec::<String>::new()).unwrap();
        assert_eq!(b.config().flood_secs, ReproConfig::default().flood_secs);
    }
}
