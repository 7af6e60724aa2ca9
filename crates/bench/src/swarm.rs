//! The swarm scale bench: runs the [`banscore::scenario::swarm`] cases
//! over a grid of topology sizes and worker counts, timing each run —
//! the hosts-vs-wall-clock curve `repro swarm` prints.
//!
//! The scenario itself is deterministic and wall-clock-free (it lives in
//! the lint-gated `banscore` crate); this module owns the `Instant`
//! reads, which is why it is file-allowlisted for the `wallclock` rule.
//! Runs execute strictly serially: each one may spin up its own worker
//! threads, and overlapping them would corrupt the timing.

use banscore::scenario::swarm::{run_swarm, SwarmOutcome, SwarmSpec, CASES};
use btc_netsim::time::{Nanos, SECS};
use std::time::Instant;

/// Bench grid configuration.
#[derive(Clone, Debug)]
pub struct SwarmBenchConfig {
    /// Background swarm sizes (the hosts axis of the curve).
    pub sizes: Vec<usize>,
    /// Worker counts every (size, case) cell is timed at.
    pub workers: Vec<usize>,
    /// Region count (fixed across the grid — the partition is part of
    /// the experiment, the worker count is not).
    pub regions: u32,
    /// Virtual duration per run.
    pub dur: Nanos,
    /// Innocent peers in the attack core.
    pub innocents: usize,
    /// Simulation seed.
    pub seed: u64,
}

impl SwarmBenchConfig {
    /// The full curve: 25k/50k/100k hosts at 1/2/4/8 workers.
    pub fn full() -> Self {
        SwarmBenchConfig {
            sizes: vec![25_000, 50_000, 100_000],
            workers: vec![1, 2, 4, 8],
            regions: 8,
            dur: 5 * SECS,
            innocents: 12,
            seed: 0x5AA8_0123,
        }
    }

    /// A small smoke grid (CI byte-equality: 1 vs 4 workers).
    pub fn quick() -> Self {
        SwarmBenchConfig {
            sizes: vec![1_500],
            workers: vec![1, 4],
            regions: 8,
            dur: 3 * SECS,
            innocents: 8,
            seed: 0x5AA8_0123,
        }
    }
}

/// One timed run of a (case, size) cell.
#[derive(Clone, Copy, Debug)]
pub struct SwarmRun {
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock seconds of the run (topology build + simulation).
    pub wall_secs: f64,
    /// The run's deterministic outcome — must equal every other worker
    /// count's on the same cell.
    pub outcome: SwarmOutcome,
}

/// One (case, size) cell of the grid.
#[derive(Clone, Debug)]
pub struct SwarmPoint {
    /// One of [`CASES`].
    pub case: &'static str,
    /// Background swarm hosts.
    pub swarm_hosts: usize,
    /// The timed runs, in configured worker order.
    pub runs: Vec<SwarmRun>,
}

impl SwarmPoint {
    /// Whether every worker count produced the same outcome (digest and
    /// all counters).
    pub fn outcomes_agree(&self) -> bool {
        self.runs.windows(2).all(|w| w[0].outcome == w[1].outcome)
    }

    /// Wall-clock speedup of `run` relative to the first (fewest-worker)
    /// run of the cell.
    pub fn speedup(&self, run: &SwarmRun) -> f64 {
        let base = self.runs.first().map_or(run.wall_secs, |r| r.wall_secs);
        if run.wall_secs > 0.0 {
            base / run.wall_secs
        } else {
            f64::NAN
        }
    }
}

/// The full grid result.
#[derive(Clone, Debug)]
pub struct SwarmBenchResult {
    /// Region count of every run.
    pub regions: u32,
    /// Cells in (size ascending, case) order.
    pub points: Vec<SwarmPoint>,
}

/// Runs the whole grid, serially (see the module docs on timing).
pub fn run_swarm_bench(cfg: &SwarmBenchConfig) -> SwarmBenchResult {
    let mut points = Vec::new();
    for &swarm_hosts in &cfg.sizes {
        for case in CASES {
            let mut runs = Vec::new();
            for &workers in &cfg.workers {
                let spec = SwarmSpec {
                    case,
                    swarm_hosts,
                    regions: cfg.regions,
                    workers,
                    dur: cfg.dur,
                    innocents: cfg.innocents,
                    seed: cfg.seed,
                };
                let start = Instant::now();
                let outcome = run_swarm(&spec);
                runs.push(SwarmRun {
                    workers,
                    wall_secs: start.elapsed().as_secs_f64(),
                    outcome,
                });
            }
            points.push(SwarmPoint {
                case,
                swarm_hosts,
                runs,
            });
        }
    }
    SwarmBenchResult {
        regions: cfg.regions,
        points,
    }
}

/// Renders the grid as text. Digest/counter lines are deterministic and
/// identical at every worker count; `[wall]` lines carry the timing
/// curve and vary run to run.
pub fn render_swarm(r: &SwarmBenchResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Swarm scale sweep: attack testbed + background swarm on the sharded \
         simulator ({} regions)",
        r.regions
    );
    for p in &r.points {
        let o = &p.runs.first().expect("at least one worker count").outcome;
        let _ = writeln!(
            out,
            "{:<11} hosts={} delivered={} target_msgs={} bans={} replies={} \
             dropped={} strikes={} flood={}",
            p.case,
            o.hosts,
            o.delivered,
            o.target_msgs,
            o.target_bans,
            o.swarm_replies,
            o.dropped,
            o.strikes,
            o.flood_msgs
        );
        for run in &p.runs {
            let _ = writeln!(
                out,
                "  digest workers={} {:016x}{}",
                run.workers,
                run.outcome.digest,
                if run.outcome == *o { "" } else { "  DIVERGED" }
            );
        }
        for run in &p.runs {
            let _ = writeln!(
                out,
                "  [wall] workers={} {:>8.2} s  ({:.2}x)",
                run.workers,
                run.wall_secs,
                p.speedup(run)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_agrees_across_workers() {
        let cfg = SwarmBenchConfig {
            sizes: vec![150],
            workers: vec![1, 2],
            regions: 4,
            dur: 2 * SECS,
            innocents: 4,
            seed: 11,
        };
        let r = run_swarm_bench(&cfg);
        assert_eq!(r.points.len(), CASES.len());
        for p in &r.points {
            assert!(p.outcomes_agree(), "{}: outcomes diverged", p.case);
            assert_eq!(p.runs.len(), 2);
        }
        let t = render_swarm(&r);
        assert!(t.contains("digest workers=1"));
        assert!(t.contains("digest workers=2"));
        assert!(t.contains("[wall] workers=1"));
        assert!(!t.contains("DIVERGED"));
    }
}
