//! Figure 10: anomaly detection — train the statistical engine on normal
//! synthetic-Mainnet traffic, then compare the normal, under-BM-DoS and
//! under-Defamation message distributions and detection verdicts.

use crate::testbed::{train_profile, Case, Testbed, TestbedConfig, PACED_POLL, SETTLE};
use btc_detect::engine::{AnalysisEngine, Detection, Profile};
use btc_detect::features::TrafficWindow;
use btc_netsim::time::{Nanos, MINUTES};

/// One evaluated case.
#[derive(Clone, Debug)]
pub struct Fig10Case {
    /// "normal", "bm-dos" or "defamation".
    pub name: &'static str,
    /// Aggregate test window.
    pub window: TrafficWindow,
    /// Detection verdict.
    pub detection: Detection,
}

/// The full Figure-10 result.
#[derive(Clone, Debug)]
pub struct Fig10Result {
    /// Trained profile (τ_n, τ_c, τ_Λ, reference distribution).
    pub profile: Profile,
    /// The three cases.
    pub cases: Vec<Fig10Case>,
}

/// Scenario knobs (virtual durations; the paper trains ~35 h and windows
/// at 10 minutes — the `repro` binary uses larger values than the tests).
#[derive(Clone, Copy, Debug)]
pub struct Fig10Config {
    /// Training duration.
    pub train: Nanos,
    /// Detection window length.
    pub window: Nanos,
    /// Test duration per case.
    pub test: Nanos,
    /// Innocent outbound peers available to the target in the defamation
    /// case.
    pub innocents: usize,
}

impl Default for Fig10Config {
    fn default() -> Self {
        Fig10Config {
            train: 60 * MINUTES,
            window: 10 * MINUTES,
            test: 10 * MINUTES,
            innocents: 40,
        }
    }
}

fn bed(innocents: usize, target_outbound: usize, seed: u64) -> TestbedConfig {
    TestbedConfig {
        innocents,
        target_outbound,
        seed,
        ..TestbedConfig::default()
    }
}

/// The evaluated cases in presentation order.
pub const CASES: [Case; 3] = [
    Case::Normal,
    Case::PingFlood { sybil: false },
    Case::Defamation { poll: PACED_POLL },
];

/// Builds and runs one case's testbed for `settle + test` of virtual
/// time, returning it with the telemetry still inside — the `serve`
/// scenario replays the same recorded traffic event by event. Each case
/// has its own fixed seed, so the result is independent of which thread
/// (or order) runs it.
pub(crate) fn run_case_testbed(case: Case, cfg: &Fig10Config) -> Testbed {
    // Only Defamation needs outbound peers to defame.
    let (innocents, target_outbound) = match case {
        Case::Defamation { .. } => (cfg.innocents, 2),
        _ => (0, 0),
    };
    let mut tb = Testbed::build(bed(innocents, target_outbound, case.seed()));
    tb.attack(case);
    tb.sim.run_for(SETTLE + cfg.test);
    tb
}

/// Trains the node profile on the clean bed for `cfg.train` of virtual
/// time (seed 1 — distinct from every evaluation case). The bed comes
/// back too, so the `serve` scenario trains its streaming detector on the
/// exact same recorded traffic as the batch engine.
pub(crate) fn train(cfg: &Fig10Config) -> (Profile, Testbed) {
    train_profile(bed(0, 0, 1), cfg.train, cfg.window)
}

/// Runs the Figure-10 study with the three evaluation cases fanned across
/// `jobs` workers (training stays serial — every case depends on the
/// profile).
pub fn run_fig10(cfg: Fig10Config, jobs: usize) -> Fig10Result {
    let (profile, _) = train(&cfg);
    let cases = btc_par::par_map(jobs, CASES.to_vec(), |c| {
        let window = run_case_testbed(c, &cfg).single_window(SETTLE, SETTLE + cfg.test);
        Fig10Case {
            name: c.name(),
            detection: AnalysisEngine.detect(&profile, &window),
            window,
        }
    });
    Fig10Result { profile, cases }
}

/// Renders the Figure-10 study as text.
pub fn render_fig10(r: &Fig10Result) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "Trained profile: τ_n = [{:.0}, {:.0}] msg/min, τ_c = [0, {:.1}]/min, τ_Λ = {:.3}",
        r.profile.tau_n.0, r.profile.tau_n.1, r.profile.tau_c.1, r.profile.tau_lambda
    )
    .unwrap();
    for c in &r.cases {
        writeln!(
            out,
            "{:<11} n = {:>8.0}/min  c = {:>5.2}/min  ρ = {:>6.3}  → {}",
            c.name,
            c.detection.n,
            c.detection.c,
            c.detection.rho,
            if c.detection.anomalous {
                format!("ANOMALOUS {:?}", c.detection.violations)
            } else {
                "normal".to_owned()
            }
        )
        .unwrap();
        // Top message types of the case's distribution.
        let mut dist: Vec<(usize, f64)> = c
            .window
            .distribution()
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, v)| *v > 0.01)
            .collect();
        dist.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN"));
        for (idx, share) in dist.iter().take(5) {
            writeln!(
                out,
                "             {:>10}: {:>5.1}%",
                btc_wire::message::ALL_COMMANDS[*idx],
                share * 100.0
            )
            .unwrap();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> Fig10Config {
        Fig10Config {
            train: 20 * MINUTES,
            window: 5 * MINUTES,
            test: 4 * MINUTES,
            innocents: 25,
        }
    }

    #[test]
    fn fig10_detects_both_attacks_and_passes_normal() {
        let r = run_fig10(quick_cfg(), 1);
        let get = |n: &str| r.cases.iter().find(|c| c.name == n).expect("case");
        let normal = get("normal");
        assert!(!normal.detection.anomalous, "{:?}", normal.detection);
        assert!(normal.detection.rho > r.profile.tau_lambda);

        let bmdos = get("bm-dos");
        assert!(bmdos.detection.anomalous);
        // PING dominates (paper: 94.16%), correlation collapses (paper:
        // 0.05), rate explodes (paper: ~15000/min).
        let ping_share = bmdos.window.distribution()
            [btc_node::metrics::msg_type_id("ping").unwrap() as usize];
        assert!(ping_share > 0.85, "ping share {ping_share}");
        assert!(bmdos.detection.rho < 0.3, "rho {}", bmdos.detection.rho);
        assert!(bmdos.detection.n > 10_000.0, "n {}", bmdos.detection.n);

        let defam = get("defamation");
        assert!(defam.detection.anomalous, "{:?}", defam.detection);
        // Reconnection rate exceeds τ_c; correlation stays moderate-high
        // (paper: c = 5.3, ρ = 0.88).
        assert!(
            defam
                .detection
                .violations
                .contains(&btc_detect::engine::Violation::ReconnectRate),
            "{:?}",
            defam.detection
        );
        assert!(defam.detection.rho > 0.5, "rho {}", defam.detection.rho);
        assert!(
            defam.detection.rho < bmdos.detection.rho + 1.0
                && defam.detection.rho > bmdos.detection.rho,
            "defamation ρ should exceed BM-DoS ρ"
        );
    }

    #[test]
    fn render_includes_thresholds_and_cases() {
        let r = run_fig10(quick_cfg(), 1);
        let t = render_fig10(&r);
        assert!(t.contains("τ_Λ"));
        assert!(t.contains("bm-dos"));
        assert!(t.contains("defamation"));
    }
}
