//! The intelligent-attacker extension (§VII-A2, left as future work by the
//! paper): an evasive BM-DoS attacker throttles and mimics normal traffic
//! to stay under the detection thresholds — and the experiment quantifies
//! the paper's mitigation claim: *"attacker which controls its traffic and
//! reduces the traffic amount for the attack would have a smaller impact
//! on the victim"*.

use crate::contention;
use crate::testbed::{addrs, train_profile, Testbed, TestbedConfig, SETTLE};
use btc_attack::evasive::{EvasiveConfig, EvasiveFlooder};
use btc_detect::engine::{AnalysisEngine, Profile};
use btc_netsim::time::{as_secs_f64, Nanos, MINUTES};

/// One evasion operating point.
#[derive(Clone, Debug)]
pub struct EvasionPoint {
    /// Attacker's chosen rate (messages/minute).
    pub rate_per_min: f64,
    /// Measured messages actually sent.
    pub sent: u64,
    /// Whether the detector flagged the test window.
    pub detected: bool,
    /// Predicted victim mining rate (h/s).
    pub mining_rate: f64,
    /// Mining-rate loss relative to idle (fraction).
    pub damage: f64,
}

/// The evasion study result.
#[derive(Clone, Debug)]
pub struct EvasionResult {
    /// The trained profile the attacker is trying to evade.
    pub profile: Profile,
    /// One row per attacker rate.
    pub points: Vec<EvasionPoint>,
}

/// Scenario knobs.
#[derive(Clone, Copy, Debug)]
pub struct EvasionConfig {
    /// Training duration.
    pub train: Nanos,
    /// Window length.
    pub window: Nanos,
    /// Test duration per rate.
    pub test: Nanos,
    /// Fraction of each evasive message stream that is the damaging
    /// payload (bogus 200 kB blocks).
    pub attack_weight: f64,
}

impl Default for EvasionConfig {
    fn default() -> Self {
        EvasionConfig {
            train: 30 * MINUTES,
            window: 5 * MINUTES,
            test: 5 * MINUTES,
            attack_weight: 0.3,
        }
    }
}

/// Runs one evasion operating point: a fresh per-rate-seeded testbed with
/// an evasive flooder, judged against the (shared, immutable) trained
/// profile. The seed depends on the point's *index*, not the thread that
/// runs it, so fan-out cannot change the result.
fn run_point(index: usize, rate: f64, cfg: &EvasionConfig, profile: &Profile) -> EvasionPoint {
    let mut tb = Testbed::build(TestbedConfig {
        seed: 100 + index as u64,
        ..TestbedConfig::default()
    });
    tb.add_attacker(EvasiveFlooder::new(EvasiveConfig::stealthy(
        tb.target_addr,
        rate,
        cfg.attack_weight,
    )));
    tb.sim.run_for(SETTLE + cfg.test);
    let window = tb.single_window(SETTLE, SETTLE + cfg.test);
    let detection = AnalysisEngine.detect(profile, &window);
    let attacker: &EvasiveFlooder = tb.sim.app(addrs::ATTACKER).expect("evasive flooder");
    let secs = as_secs_f64(cfg.test);
    let load = contention::app_layer_load(
        attacker.stats.messages_sent,
        attacker.stats.bytes_sent,
        secs,
    );
    let mining_rate = contention::mining_rate(load);
    EvasionPoint {
        rate_per_min: rate,
        sent: attacker.stats.messages_sent,
        detected: detection.anomalous,
        mining_rate,
        damage: 1.0 - mining_rate / contention::BASELINE_HASH_RATE,
    }
}

/// Runs the evasion sweep over attacker rates, the per-rate testbeds
/// fanned across `jobs` workers (training stays serial — every point
/// needs the profile).
pub fn run_evasion(cfg: EvasionConfig, rates_per_min: &[f64], jobs: usize) -> EvasionResult {
    // Train on clean traffic.
    let clean = TestbedConfig {
        seed: 11,
        ..TestbedConfig::default()
    };
    let (profile, _) = train_profile(clean, cfg.train, cfg.window);
    let indexed: Vec<(usize, f64)> = rates_per_min.iter().copied().enumerate().collect();
    let points = btc_par::par_map(jobs, indexed, |(i, rate)| run_point(i, rate, &cfg, &profile));
    EvasionResult { profile, points }
}

/// Renders the evasion study as text.
pub fn render_evasion(r: &EvasionResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "Detector headroom: τ_n = [{:.0}, {:.0}] msg/min",
        r.profile.tau_n.0, r.profile.tau_n.1
    )
    .unwrap();
    writeln!(
        out,
        "{:>12} {:>8} {:>10} {:>14} {:>10}",
        "atk msg/min", "sent", "detected", "mining (h/s)", "damage"
    )
    .unwrap();
    for p in &r.points {
        writeln!(
            out,
            "{:>12.0} {:>8} {:>10} {:>14.0} {:>9.1}%",
            p.rate_per_min,
            p.sent,
            p.detected,
            p.mining_rate,
            p.damage * 100.0
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evasion_tradeoff_matches_papers_argument() {
        let cfg = EvasionConfig {
            train: 12 * MINUTES,
            window: 3 * MINUTES,
            test: 2 * MINUTES,
            attack_weight: 0.3,
        };
        // A whisper (well inside τ_n headroom), a shout (rate violation).
        let r = run_evasion(cfg, &[30.0, 12_000.0], 1);
        assert_eq!(r.points.len(), 2);
        let quiet = &r.points[0];
        let loud = &r.points[1];
        // The quiet attacker evades detection but inflicts little damage.
        assert!(!quiet.detected, "quiet attacker was detected: {quiet:?}");
        assert!(quiet.damage < 0.25, "quiet damage {}", quiet.damage);
        // The loud attacker does real damage but is caught.
        assert!(loud.detected, "loud attacker evaded: {loud:?}");
        assert!(loud.damage > quiet.damage + 0.1);
    }

    #[test]
    fn render_contains_headroom_and_rows() {
        let cfg = EvasionConfig {
            train: 12 * MINUTES,
            window: 3 * MINUTES,
            test: 2 * MINUTES,
            attack_weight: 0.2,
        };
        let r = run_evasion(cfg, &[10.0], 1);
        let t = render_evasion(&r);
        assert!(t.contains("τ_n"));
        assert!(t.contains("damage"));
    }
}
