//! Detector robustness under adverse networks: the fault-matrix sweep.
//!
//! The paper evaluates its anomaly detector (Figure 10) on a clean LAN
//! testbed. This sweep re-runs the same three traffic cases — normal,
//! BM-DoS (PING flood) and post-connection Defamation — across a grid of
//! injected link faults (i.i.d. loss × latency jitter × scheduled peer
//! churn) and asks how the detector's verdicts, thresholds-feature values
//! and detection latency drift once the network stops being perfect.
//!
//! Two effects are of particular interest:
//!
//! * **False positives from honest churn** — periodic link flaps make the
//!   hardened target evict and replace outbound peers, which feeds the
//!   same `record_reconnect` telemetry the reconnection-rate feature `c`
//!   watches. Enough honest churn is indistinguishable from a slow
//!   Defamation attack.
//! * **Attack attenuation from loss** — packet loss throttles the
//!   effective flood rate (the reliable transport retransmits, but the
//!   goodput drops), so `n` drifts back toward the trained band and
//!   detection latency grows.
//!
//! The profile is always trained on *clean* traffic — the deployed
//! detector does not know the network has degraded — which is exactly the
//! mismatch the sweep measures.
//!
//! The target node runs with the resilience hardening enabled
//! (handshake/ping timeouts, reconnection backoff), so the churn dimension
//! exercises the eviction-and-redial machinery end to end.

use crate::testbed::{
    churn_plan, first_alarm_s, hardened_node, train_profile, Case, Testbed, TestbedConfig,
    PACED_POLL, SETTLE,
};
use btc_detect::engine::{AnalysisEngine, Detection, Profile};
use btc_netsim::faults::{FaultStats, LinkFaults};
use btc_netsim::time::{Nanos, MILLIS, MINUTES, SECS};

/// One grid point of the sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPoint {
    /// I.i.d. per-packet loss probability.
    pub loss: f64,
    /// Symmetric latency jitter (± this many nanoseconds).
    pub jitter: Nanos,
    /// Scheduled link flaps per minute across the target's outbound
    /// peers (honest churn).
    pub churn_fpm: u32,
}

impl FaultPoint {
    /// The clean reference point.
    pub const CLEAN: FaultPoint = FaultPoint {
        loss: 0.0,
        jitter: 0,
        churn_fpm: 0,
    };

    /// Compact label, e.g. `loss=0.10 jit=2ms churn=5`.
    pub fn label(&self) -> String {
        format!(
            "loss={:.2} jit={}ms churn={}",
            self.loss,
            self.jitter / MILLIS,
            self.churn_fpm
        )
    }

    /// The sweep's bed at this point: the hardened target dialing two of
    /// `innocents`, three feeders, this point's link faults, and its honest
    /// churn — `churn_fpm` flaps per minute over the measured span. Each
    /// flap outlasts a full keepalive round, so the connection either
    /// aborts on retransmission timeout or is evicted by the ping timeout —
    /// both produce an honest reconnection. Shared with the `reputation`
    /// sweep.
    pub(crate) fn bed(&self, innocents: usize, seed: u64, test: Nanos) -> TestbedConfig {
        let period = (60 * SECS).checked_div(u64::from(self.churn_fpm)).unwrap_or(0);
        TestbedConfig {
            node: hardened_node(),
            innocents,
            target_outbound: 2,
            seed,
            faults: LinkFaults {
                loss: self.loss,
                jitter: self.jitter,
                ..LinkFaults::NONE
            },
            fault_plan: churn_plan(SETTLE, period, 12 * SECS, innocents, SETTLE + test),
            ..TestbedConfig::default()
        }
    }
}

/// Sweep configuration.
#[derive(Clone, Debug)]
pub struct FaultMatrixConfig {
    /// Clean-traffic training duration.
    pub train: Nanos,
    /// Detection window length (also the latency granularity).
    pub window: Nanos,
    /// Measured duration per case (after a one-minute settle).
    pub test: Nanos,
    /// Innocent listening nodes the target draws outbound peers from.
    pub innocents: usize,
    /// The grid.
    pub grid: Vec<FaultPoint>,
}

impl FaultMatrixConfig {
    /// The full grid: loss {0, 0.01, 0.1} × jitter {0, 2 ms} × churn
    /// {0, 5/min} — 12 points, 3 cases each.
    pub fn full() -> Self {
        let mut grid = Vec::new();
        for &loss in &[0.0, 0.01, 0.1] {
            for &jitter in &[0, 2 * MILLIS] {
                for &churn_fpm in &[0u32, 5] {
                    grid.push(FaultPoint {
                        loss,
                        jitter,
                        churn_fpm,
                    });
                }
            }
        }
        FaultMatrixConfig {
            train: 20 * MINUTES,
            window: MINUTES,
            test: 4 * MINUTES,
            innocents: 12,
            grid,
        }
    }

    /// The quick grid: clean, heavy loss, jitter+churn, and the worst
    /// corner — 4 points.
    pub fn quick() -> Self {
        FaultMatrixConfig {
            train: 10 * MINUTES,
            window: MINUTES,
            test: 3 * MINUTES,
            innocents: 8,
            grid: vec![
                FaultPoint::CLEAN,
                FaultPoint {
                    loss: 0.1,
                    ..FaultPoint::CLEAN
                },
                FaultPoint {
                    jitter: 2 * MILLIS,
                    churn_fpm: 5,
                    ..FaultPoint::CLEAN
                },
                FaultPoint {
                    loss: 0.1,
                    jitter: 2 * MILLIS,
                    churn_fpm: 5,
                },
            ],
        }
    }
}

/// One traffic case evaluated at one grid point.
#[derive(Clone, Debug)]
pub struct FaultCase {
    /// "normal", "bm-dos" or "defamation".
    pub name: &'static str,
    /// Verdict over the whole measured span.
    pub detection: Detection,
    /// Seconds from measurement start to the end of the first anomalous
    /// window (`NaN` when no window fires).
    pub latency_s: f64,
    /// Fault-layer drop/delay counters of the run.
    pub fault_stats: FaultStats,
    /// Transport retransmissions across all hosts of the run.
    pub retransmits: u64,
}

/// All three cases at one grid point.
#[derive(Clone, Debug)]
pub struct FaultPointResult {
    /// The grid point.
    pub point: FaultPoint,
    /// The cases, in `normal`, `bm-dos`, `defamation` order.
    pub cases: Vec<FaultCase>,
}

impl FaultPointResult {
    /// The named case.
    pub fn case(&self, name: &str) -> &FaultCase {
        self.cases
            .iter()
            .find(|c| c.name == name)
            .expect("case present")
    }

    /// Whether the clean-traffic case was (wrongly) flagged.
    pub fn false_positive(&self) -> bool {
        self.case("normal").detection.anomalous
    }

    /// How many of the two attacks were caught.
    pub fn attacks_detected(&self) -> usize {
        ["bm-dos", "defamation"]
            .iter()
            .filter(|n| self.case(n).detection.anomalous)
            .count()
    }
}

/// The full sweep result.
#[derive(Clone, Debug)]
pub struct FaultMatrixResult {
    /// Profile trained on clean traffic (shared by every point).
    pub profile: Profile,
    /// Per-point results, in grid order.
    pub points: Vec<FaultPointResult>,
}

impl FaultMatrixResult {
    /// Detector accuracy over the grid: fraction of the `2 × points`
    /// attack cases flagged anomalous.
    pub fn attack_recall(&self) -> f64 {
        let hit: usize = self.points.iter().map(FaultPointResult::attacks_detected).sum();
        hit as f64 / (2 * self.points.len()) as f64
    }

    /// Fraction of grid points whose clean case was flagged.
    pub fn false_positive_rate(&self) -> f64 {
        let fp = self.points.iter().filter(|p| p.false_positive()).count();
        fp as f64 / self.points.len() as f64
    }
}

/// The evaluated traffic cases, in presentation order.
const CASES: [Case; 3] = [
    Case::Normal,
    Case::PingFlood { sybil: true },
    Case::Defamation { poll: PACED_POLL },
];

/// Runs one case at one grid point and judges it against the (shared,
/// immutable) clean profile — plain data out, so it can execute on a
/// worker thread.
fn run_case(
    case: Case,
    point: FaultPoint,
    cfg: &FaultMatrixConfig,
    profile: &Profile,
) -> FaultCase {
    let mut tb = Testbed::build(point.bed(cfg.innocents, case.seed(), cfg.test));
    tb.attack(case);
    let end = SETTLE + cfg.test;
    tb.sim.run_for(end);
    let retransmits: u64 = std::iter::once(tb.target)
        .chain(tb.innocent_ips.iter().copied())
        .chain(tb.feeder_ips.iter().copied())
        .map(|ip| tb.sim.host_tcp_drops(ip).retransmits)
        .sum();
    let aggregate = tb.single_window(SETTLE, end);
    let windows = tb.windows(SETTLE, end, cfg.window);
    FaultCase {
        name: case.name(),
        detection: AnalysisEngine.detect(profile, &aggregate),
        latency_s: first_alarm_s(profile, &windows, cfg.window),
        fault_stats: tb.sim.fault_stats(),
        retransmits,
    }
}

/// Runs the sweep with every `(grid point, case)` pair fanned across
/// `jobs` workers. Results are byte-identical for any job count: each pair
/// is an independent, fully-seeded simulation, and [`btc_par::par_map`]
/// preserves input order.
pub fn run_fault_matrix(cfg: &FaultMatrixConfig, jobs: usize) -> FaultMatrixResult {
    // Train once, on clean traffic over the same topology — the deployed
    // detector has never seen the degraded network.
    let clean = FaultPoint::CLEAN.bed(cfg.innocents, 1, cfg.test);
    let (profile, _) = train_profile(clean, cfg.train, cfg.window);

    let pairs: Vec<(FaultPoint, Case)> = cfg
        .grid
        .iter()
        .flat_map(|p| CASES.iter().map(move |c| (*p, *c)))
        .collect();
    let runs = btc_par::par_map(jobs, pairs, |(point, case)| {
        run_case(case, point, cfg, &profile)
    });
    // `par_map` preserves input order, so the runs come back grouped by
    // grid point, cases in `CASES` order.
    let mut it = runs.into_iter();
    let points = cfg
        .grid
        .iter()
        .map(|p| FaultPointResult {
            point: *p,
            cases: it.by_ref().take(CASES.len()).collect(),
        })
        .collect();
    FaultMatrixResult { profile, points }
}

/// Renders the sweep as text.
pub fn render_fault_matrix(r: &FaultMatrixResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Detector robustness under injected faults (profile trained clean: \
         τ_n = [{:.0}, {:.0}]/min, τ_c ≤ {:.1}/min, τ_Λ = {:.3})",
        r.profile.tau_n.0, r.profile.tau_n.1, r.profile.tau_c.1, r.profile.tau_lambda
    );
    let _ = writeln!(
        out,
        "{:<28} {:>6} {:>9} {:>7} | {:>6} {:>7} | {:>6} {:>7} | {:>8} {:>8}",
        "point", "FP?", "norm-c", "norm-ρ", "dos?", "lat(s)", "def?", "lat(s)", "dropped", "rtx"
    );
    for p in &r.points {
        let normal = p.case("normal");
        let dos = p.case("bm-dos");
        let def = p.case("defamation");
        let dropped: u64 = p.cases.iter().map(|c| c.fault_stats.total_dropped()).sum();
        let rtx: u64 = p.cases.iter().map(|c| c.retransmits).sum();
        let _ = writeln!(
            out,
            "{:<28} {:>6} {:>9.2} {:>7.3} | {:>6} {:>7.0} | {:>6} {:>7.0} | {:>8} {:>8}",
            p.point.label(),
            if p.false_positive() { "FP" } else { "-" },
            normal.detection.c,
            normal.detection.rho,
            if dos.detection.anomalous { "yes" } else { "MISS" },
            dos.latency_s,
            if def.detection.anomalous { "yes" } else { "MISS" },
            def.latency_s,
            dropped,
            rtx,
        );
    }
    let _ = writeln!(
        out,
        "attack recall {:.2}  false-positive rate {:.2} over {} grid points",
        r.attack_recall(),
        r.false_positive_rate(),
        r.points.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(grid: Vec<FaultPoint>) -> FaultMatrixConfig {
        FaultMatrixConfig {
            train: 8 * MINUTES,
            window: MINUTES,
            test: 2 * MINUTES,
            innocents: 6,
            grid,
        }
    }

    #[test]
    fn clean_point_matches_detector_expectations() {
        let r = run_fault_matrix(&tiny_cfg(vec![FaultPoint::CLEAN]), 1);
        let p = &r.points[0];
        assert!(!p.false_positive(), "{:?}", p.case("normal").detection);
        assert_eq!(p.attacks_detected(), 2, "{:?}", p);
        // No faults ⇒ the fault layer never acted.
        for c in &p.cases {
            assert_eq!(c.fault_stats, FaultStats::default());
        }
    }

    #[test]
    fn loss_throttles_the_flood() {
        let r = run_fault_matrix(
            &tiny_cfg(vec![
                FaultPoint::CLEAN,
                FaultPoint {
                    loss: 0.1,
                    ..FaultPoint::CLEAN
                },
            ]),
            1,
        );
        let clean = r.points[0].case("bm-dos").detection.n;
        let lossy_case = r.points[1].case("bm-dos");
        // The reliable transport retransmits but goodput drops: the
        // observed flood rate drifts down.
        assert!(lossy_case.fault_stats.dropped_loss > 0);
        assert!(lossy_case.retransmits > 0);
        assert!(
            lossy_case.detection.n < clean,
            "loss did not attenuate the flood: {} vs {}",
            lossy_case.detection.n,
            clean
        );
    }

    #[test]
    fn churn_raises_honest_reconnect_rate() {
        let r = run_fault_matrix(
            &tiny_cfg(vec![
                FaultPoint::CLEAN,
                FaultPoint {
                    churn_fpm: 5,
                    ..FaultPoint::CLEAN
                },
            ]),
            1,
        );
        let calm = r.points[0].case("normal").detection.c;
        let churned = r.points[1].case("normal").detection.c;
        assert!(
            churned > calm,
            "flaps produced no extra reconnects: {churned} vs {calm}"
        );
    }
}
