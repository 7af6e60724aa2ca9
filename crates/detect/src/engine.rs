//! The statistical anomaly-detection engine of §VII: train a reference
//! profile from normal traffic, then flag windows whose features leave the
//! learned thresholds.
//!
//! Mirrors the paper's architecture: the **Monitor** lives in the node
//! (telemetry), the **Dataset** is a collection of [`TrafficWindow`]s, and
//! the **Analysis Engine** is [`Profile`] + [`AnalysisEngine`]. Training is
//! a single O(windows) pass — no iterative optimization — which is where
//! the ≥4-orders-of-magnitude latency advantage over the ML baselines
//! (Figure 11) comes from.
//! Both engines score with [`StreamingWindow`]: the streaming engine
//! feeds it per message, [`AnalysisEngine::detect`] per finished window,
//! and [`AnalysisEngine::train`] measures `τ_Λ` with it.

use crate::features::{TrafficWindow, NUM_TYPES};
use crate::streaming::StreamingWindow;

/// Which feature flagged a window.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Violation {
    /// Overall message rate `n` outside `τ_n`.
    MessageRate,
    /// Reconnection rate `c` above `τ_c`.
    ReconnectRate,
    /// Distribution correlation `ρ` below `τ_Λ`.
    Distribution,
}

impl Violation {
    /// Every violation, in declaration order.
    const ALL: [Violation; 3] = [
        Violation::MessageRate,
        Violation::ReconnectRate,
        Violation::Distribution,
    ];

    /// This violation's bit in a [`Violations`] set.
    fn bit(self) -> u8 {
        1 << self as u8
    }
}

/// The set of thresholds one window violated, in one byte.
///
/// [`Violations::iter`] yields members in declaration order, whatever
/// order they were inserted in; `Debug` prints that sequence as a list
/// (`[MessageRate, Distribution]`), and `verdict_digest` hashes it.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Violations(u8);

impl Violations {
    /// Adds `v` to the set.
    pub fn insert(&mut self, v: Violation) {
        self.0 |= v.bit();
    }

    /// Whether `v` is in the set.
    pub fn contains(&self, v: &Violation) -> bool {
        self.0 & v.bit() != 0
    }

    /// Whether no threshold was violated.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// The members, in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = Violation> {
        let set = *self;
        Violation::ALL.into_iter().filter(move |v| set.contains(v))
    }
}

impl std::fmt::Debug for Violations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The trained reference profile.
#[derive(Clone, Debug, PartialEq)]
pub struct Profile {
    /// Message-rate band `τ_n` (messages/minute).
    pub tau_n: (f64, f64),
    /// Reconnection-rate band `τ_c` (reconnections/minute).
    pub tau_c: (f64, f64),
    /// Distribution-similarity threshold `τ_Λ` (Pearson ρ).
    pub tau_lambda: f64,
    /// Mean normal message distribution (the Λ reference).
    reference: [f64; NUM_TYPES],
    /// Windows trained on.
    pub training_windows: usize,
    /// Mean of the reference slots.
    pub(crate) ref_mean: f64,
    /// `Σ (refᵢ − mean)²`.
    pub(crate) ref_centered_sq_sum: f64,
}

impl Profile {
    /// A profile with the given thresholds against `reference`, whose
    /// moments are computed here, once, for the scorer.
    pub fn new(
        tau_n: (f64, f64),
        tau_c: (f64, f64),
        tau_lambda: f64,
        reference: [f64; NUM_TYPES],
        training_windows: usize,
    ) -> Self {
        let ref_mean = reference.iter().sum::<f64>() / NUM_TYPES as f64;
        let ref_centered_sq_sum = reference
            .iter()
            .map(|r| (r - ref_mean) * (r - ref_mean))
            .sum();
        Profile {
            tau_n,
            tau_c,
            tau_lambda,
            reference,
            training_windows,
            ref_mean,
            ref_centered_sq_sum,
        }
    }

    /// Mean normal message distribution (the Λ reference).
    pub fn reference(&self) -> &[f64; NUM_TYPES] {
        &self.reference
    }

    /// Compares already-measured features against the thresholds: the
    /// verdict half of the one scorer, [`StreamingWindow::detect`].
    pub fn judge(&self, n: f64, c: f64, rho: f64) -> Detection {
        let mut violations = Violations::default();
        if n < self.tau_n.0 || n > self.tau_n.1 {
            violations.insert(Violation::MessageRate);
        }
        if c < self.tau_c.0 || c > self.tau_c.1 {
            violations.insert(Violation::ReconnectRate);
        }
        if rho < self.tau_lambda {
            violations.insert(Violation::Distribution);
        }
        Detection {
            anomalous: !violations.is_empty(),
            n,
            c,
            rho,
            violations,
        }
    }
}

/// One detection verdict.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Detection {
    /// Whether the window is anomalous.
    pub anomalous: bool,
    /// Measured message rate `n`.
    pub n: f64,
    /// Measured reconnection rate `c`.
    pub c: f64,
    /// Measured correlation `ρ` against the reference.
    pub rho: f64,
    /// Which thresholds were violated.
    pub violations: Violations,
}

/// Errors from training.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrainError {
    /// No training windows were provided.
    EmptyDataset,
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::EmptyDataset => write!(f, "empty training dataset"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Slack applied outside the observed `n` band (fraction).
const RATE_MARGIN: f64 = 0.10;
/// Slack added above the observed `c` maximum (absolute, per minute).
const RECONNECT_MARGIN: f64 = 0.5;
/// Slack below the observed worst-case training correlation.
const LAMBDA_MARGIN: f64 = 0.004;

/// The analysis engine: trains a [`Profile`] and scores whole windows
/// against it.
#[derive(Clone, Copy, Debug, Default)]
pub struct AnalysisEngine;

impl AnalysisEngine {
    /// Trains a [`Profile`] from normal-traffic windows.
    ///
    /// # Errors
    ///
    /// [`TrainError::EmptyDataset`] when `windows` is empty.
    pub fn train(&self, windows: &[TrafficWindow]) -> Result<Profile, TrainError> {
        if windows.is_empty() {
            return Err(TrainError::EmptyDataset);
        }
        // Reference distribution: mean of the per-window distributions.
        let mut reference = [0.0f64; NUM_TYPES];
        for w in windows {
            for (r, d) in reference.iter_mut().zip(w.distribution().iter()) {
                *r += d;
            }
        }
        for r in reference.iter_mut() {
            *r /= windows.len() as f64;
        }
        let rates = |rate: fn(&TrafficWindow) -> f64| windows.iter().map(rate);
        let n_min = rates(TrafficWindow::message_rate).fold(f64::INFINITY, f64::min);
        let n_max = rates(TrafficWindow::message_rate).fold(f64::NEG_INFINITY, f64::max);
        let c_max = rates(TrafficWindow::reconnect_rate).fold(0.0, f64::max);
        let mut profile = Profile::new(
            (n_min * (1.0 - RATE_MARGIN), n_max * (1.0 + RATE_MARGIN)),
            (0.0, c_max + RECONNECT_MARGIN),
            0.0,
            reference,
            windows.len(),
        );
        // τ_Λ is measured by the scorer that will judge against it.
        let rho_min = windows
            .iter()
            .map(|w| StreamingWindow::of(w, &profile).rho(&profile))
            .fold(1.0f64, f64::min);
        profile.tau_lambda = (rho_min - LAMBDA_MARGIN).clamp(0.0, 1.0);
        Ok(profile)
    }

    /// Tests one window against a trained profile, through the same
    /// scorer the streaming engine closes its windows with.
    pub fn detect(&self, profile: &Profile, window: &TrafficWindow) -> Detection {
        StreamingWindow::of(window, profile).detect(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plausible normal 10-minute window: TX/INV dominated, some pings,
    /// rare version/verack churn — rates inside the paper's 252–390
    /// msg/min band.
    fn normal_window(seed: u64) -> TrafficWindow {
        let mut w = TrafficWindow::empty(10.0);
        let jitter = |base: u64, k: u64| base + (seed.wrapping_mul(k + 1) % (base / 4 + 1));
        w.counts[12] = jitter(1200, 1); // tx
        w.counts[6] = jitter(1000, 2); // inv
        w.counts[4] = jitter(300, 3); // ping
        w.counts[5] = jitter(300, 4); // pong
        w.counts[2] = jitter(80, 5); // addr
        w.counts[11] = jitter(120, 6); // headers
        w.counts[7] = jitter(100, 7); // getdata
        w.counts[0] = 2; // version
        w.counts[1] = 2; // verack
        w.reconnects = seed % 2;
        w
    }

    fn trained() -> (AnalysisEngine, Profile) {
        let engine = AnalysisEngine;
        let windows: Vec<TrafficWindow> = (0..210).map(normal_window).collect();
        let profile = engine.train(&windows).unwrap();
        (engine, profile)
    }

    #[test]
    fn training_requires_data() {
        assert_eq!(
            AnalysisEngine.train(&[]),
            Err(TrainError::EmptyDataset)
        );
    }

    #[test]
    fn normal_windows_pass() {
        let (engine, profile) = trained();
        for seed in 300..320 {
            let d = engine.detect(&profile, &normal_window(seed));
            assert!(!d.anomalous, "false positive: {d:?}");
            assert!(d.rho > profile.tau_lambda);
        }
    }

    #[test]
    fn ping_flood_detected_by_rate_and_distribution() {
        // The paper's under-BM-DoS case: PING at ~15000 msg/min, 94% of
        // traffic, ρ ≈ 0.05.
        let (engine, profile) = trained();
        let mut w = normal_window(1);
        w.counts[4] += 150_000;
        let d = engine.detect(&profile, &w);
        assert!(d.anomalous);
        assert!(d.violations.contains(&Violation::MessageRate));
        assert!(d.violations.contains(&Violation::Distribution));
        assert!(d.rho < 0.3, "rho {}", d.rho);
        let ping_share = w.distribution()[4];
        assert!(ping_share > 0.9, "ping share {ping_share}");
    }

    #[test]
    fn defamation_detected_by_reconnect_rate() {
        // The paper's under-Defamation case: c = 5.3/min, VERSION ×44,
        // VERACK ×30, ρ ≈ 0.88 — distribution alone borderline, but c is
        // decisive.
        let (engine, profile) = trained();
        let mut w = normal_window(1);
        w.counts[0] *= 44;
        w.counts[1] *= 30;
        w.reconnects = 53; // 5.3 per minute over 10 minutes
        let d = engine.detect(&profile, &w);
        assert!(d.anomalous);
        assert!(d.violations.contains(&Violation::ReconnectRate));
        assert!(d.rho > 0.5, "rho {}", d.rho);
        assert!(d.c > profile.tau_c.1);
    }

    #[test]
    fn thresholds_resemble_paper_bands() {
        let (_, profile) = trained();
        // n band should bracket the training rates (~300-400 msg/min).
        assert!(profile.tau_n.0 > 100.0 && profile.tau_n.1 < 1000.0,
            "tau_n {:?}", profile.tau_n);
        // τ_Λ near 1 (paper: 0.993).
        assert!(profile.tau_lambda > 0.95, "tau_lambda {}", profile.tau_lambda);
        // τ_c small (paper: 2.1/min).
        assert!(profile.tau_c.1 < 3.0, "tau_c {:?}", profile.tau_c);
    }

    #[test]
    fn quiet_window_flagged_by_low_rate() {
        let (engine, profile) = trained();
        let w = TrafficWindow::empty(10.0);
        let d = engine.detect(&profile, &w);
        assert!(d.anomalous);
        assert!(d.violations.contains(&Violation::MessageRate));
    }

    #[test]
    fn violations_iterate_in_declaration_order() {
        let mut v = Violations::default();
        assert!(v.is_empty());
        v.insert(Violation::Distribution);
        v.insert(Violation::MessageRate);
        v.insert(Violation::Distribution);
        assert!(!v.is_empty());
        assert!(v.contains(&Violation::MessageRate));
        assert!(!v.contains(&Violation::ReconnectRate));
        assert_eq!(
            v.iter().collect::<Vec<_>>(),
            [Violation::MessageRate, Violation::Distribution]
        );
        assert_eq!(format!("{v:?}"), "[MessageRate, Distribution]");
        assert_eq!(std::mem::size_of::<Violations>(), 1);
    }

    #[test]
    fn profile_clones_faithfully() {
        let (_, profile) = trained();
        let copy = profile.clone();
        assert_eq!(copy, profile);
        assert_eq!(copy.training_windows, 210);
    }
}
