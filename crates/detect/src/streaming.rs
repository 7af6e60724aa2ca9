//! Streaming feature extraction: the line-rate counterpart of
//! [`crate::features::TrafficWindow`] + [`crate::engine::AnalysisEngine`].
//!
//! The batch pipeline buffers a whole window of telemetry, then computes
//! `n`, `c` and `Λ` in one pass. This module updates all three features
//! **incrementally, in O(1) per message**, so one process can score very
//! many concurrent peers without re-scanning any history:
//!
//! * `n`/`c` — running counters over a tumbling window, plus EWMA
//!   estimators ([`EwmaRate`]) for a continuous between-window signal;
//! * `Λ` — a dense 26-slot per-command histogram (indexed exactly like
//!   `btc_wire::message::ALL_COMMANDS`) whose Pearson correlation against
//!   the trained reference is maintained through running sufficient
//!   statistics (`Σ counts`, `Σ counts²`, `Σ countsᵢ·refᵢ`), exploiting
//!   that Pearson ρ is invariant under the positive scaling that turns raw
//!   counts into the relative distribution.
//!
//! Every window verdict goes through [`crate::engine::Profile::judge`] —
//! the same threshold comparison the batch engine uses — so a
//! [`StreamingWindow`] fed message-by-message reproduces the batch
//! `detect()` verdict (property-tested in `tests/prop_streaming.rs`).

use crate::engine::{Detection, Profile};
use crate::features::{TrafficWindow, NUM_TYPES};

/// Nanoseconds since stream start. Mirrors `btc_netsim::time::Nanos`
/// without making this crate depend on the simulator.
pub type Nanos = u64;

/// One minute in [`Nanos`].
pub const MINUTE: Nanos = 60 * 1_000_000_000;

/// Precomputed centered moments of a trained reference distribution, so
/// the per-window correlation is O(1) at decision time and O(1) per
/// recorded message.
#[derive(Clone, Debug, PartialEq)]
pub struct ReferenceStats {
    /// The reference distribution itself.
    pub reference: [f64; NUM_TYPES],
    /// Mean of the reference slots.
    mean: f64,
    /// `Σ (refᵢ − mean)²`.
    centered_sq_sum: f64,
}

impl ReferenceStats {
    /// Precomputes the reference moments from a trained profile's `Λ`
    /// reference.
    pub fn new(reference: [f64; NUM_TYPES]) -> Self {
        let mean = reference.iter().sum::<f64>() / NUM_TYPES as f64;
        let centered_sq_sum = reference.iter().map(|r| (r - mean) * (r - mean)).sum();
        ReferenceStats {
            reference,
            mean,
            centered_sq_sum,
        }
    }
}

/// One observation window maintained incrementally. The dense histogram
/// makes [`StreamingWindow::record`] a couple of integer updates and one
/// float add; [`StreamingWindow::rho`] and the verdict are O(1) in the
/// number of recorded messages.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamingWindow {
    /// Message count per type (indexed like
    /// `btc_wire::message::ALL_COMMANDS`).
    counts: [u64; NUM_TYPES],
    /// Reconnections within the window.
    reconnects: u64,
    /// Window length in minutes.
    minutes: f64,
    /// Running `Σ counts` (total messages).
    total: u64,
    /// Running `Σ countsᵢ²`.
    sq_sum: u64,
    /// Running `Σ countsᵢ · refᵢ`.
    ref_dot: f64,
}

impl StreamingWindow {
    /// An empty window of `minutes` length.
    pub fn empty(minutes: f64) -> Self {
        StreamingWindow {
            counts: [0; NUM_TYPES],
            reconnects: 0,
            minutes,
            total: 0,
            sq_sum: 0,
            ref_dot: 0.0,
        }
    }

    /// Records one message of type `msg_type` (index into the 26-command
    /// table; out-of-range ids are ignored, mirroring the telemetry
    /// guard). O(1).
    pub fn record(&mut self, msg_type: u8, refs: &ReferenceStats) {
        let ty = usize::from(msg_type);
        let (Some(slot), Some(weight)) = (self.counts.get_mut(ty), refs.reference.get(ty)) else {
            return;
        };
        // (c+1)² − c² = 2c + 1 keeps Σ counts² current without a rescan.
        self.sq_sum += 2 * *slot + 1;
        *slot += 1;
        self.total += 1;
        self.ref_dot += weight;
    }

    /// Records one outbound reconnection. O(1).
    pub fn record_reconnect(&mut self) {
        self.reconnects += 1;
    }

    /// Total messages recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Feature `n`: messages per minute. Same computation as
    /// [`TrafficWindow::message_rate`], so the two agree bit for bit.
    pub fn message_rate(&self) -> f64 {
        if self.minutes <= 0.0 {
            return 0.0;
        }
        self.total as f64 / self.minutes
    }

    /// Feature `c`: reconnections per minute.
    pub fn reconnect_rate(&self) -> f64 {
        if self.minutes <= 0.0 {
            return 0.0;
        }
        self.reconnects as f64 / self.minutes
    }

    /// Feature `Λ`: Pearson ρ of the window's count distribution against
    /// the reference, from the running sufficient statistics.
    ///
    /// The batch path correlates `counts/total` with the reference;
    /// Pearson ρ is invariant under positive scaling, so correlating the
    /// raw counts gives the same value (up to float rounding). Degenerate
    /// windows (no traffic, or a perfectly flat histogram) report 0,
    /// matching `correlation`'s zero-variance guard.
    pub fn rho(&self, refs: &ReferenceStats) -> f64 {
        let k = NUM_TYPES as f64;
        let mean_counts = self.total as f64 / k;
        // Centered second moment of the counts: Σc² − k·mean².
        let var_counts = self.sq_sum as f64 - k * mean_counts * mean_counts;
        if var_counts <= 0.0 || refs.centered_sq_sum <= 0.0 {
            return 0.0;
        }
        // Centered cross moment: Σ cᵢ·rᵢ − k·mean_c·mean_r.
        let cov = self.ref_dot - k * mean_counts * refs.mean;
        cov / (var_counts.sqrt() * refs.centered_sq_sum.sqrt())
    }

    /// Verdict against a trained profile — the same
    /// [`Profile::judge`] threshold path the batch engine uses.
    pub fn detect(&self, profile: &Profile, refs: &ReferenceStats) -> Detection {
        profile.judge(self.message_rate(), self.reconnect_rate(), self.rho(refs))
    }

    /// The equivalent batch window (diagnostics and tests).
    pub fn as_traffic_window(&self) -> TrafficWindow {
        TrafficWindow {
            counts: self.counts,
            reconnects: self.reconnects,
            minutes: self.minutes,
        }
    }
}

/// Exponentially weighted event-rate estimator: each event contributes an
/// impulse that decays with time constant `tau`, normalized so the
/// estimate is in events/minute. O(1) per event, no event buffer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EwmaRate {
    /// Time constant in minutes.
    tau_minutes: f64,
    /// Decayed intensity at `last`, in events/minute.
    value: f64,
    /// Time of the last update.
    last: Nanos,
}

impl EwmaRate {
    /// A zero-rate estimator with time constant `tau_minutes`.
    pub fn new(tau_minutes: f64, start: Nanos) -> Self {
        // lint:allow(panic-path): constructor config validation; tau comes from the profile, not a peer
        assert!(tau_minutes > 0.0, "EWMA needs a positive time constant");
        EwmaRate {
            tau_minutes,
            value: 0.0,
            last: start,
        }
    }

    fn decay_to(&mut self, now: Nanos) {
        if now > self.last {
            let dt_minutes = (now - self.last) as f64 / MINUTE as f64;
            self.value *= (-dt_minutes / self.tau_minutes).exp();
            self.last = now;
        }
    }

    /// Records one event at `now` (non-decreasing times expected; an
    /// earlier `now` is treated as `last`).
    pub fn observe(&mut self, now: Nanos) {
        self.decay_to(now);
        // ∫₀^∞ (1/τ)·e^(−t/τ) dt = 1: each event adds total weight one,
        // so for Poisson traffic the expectation equals the true rate.
        self.value += 1.0 / self.tau_minutes;
    }

    /// The rate estimate at `now`, in events/minute.
    pub fn rate(&self, now: Nanos) -> f64 {
        if now <= self.last {
            return self.value;
        }
        let dt_minutes = (now - self.last) as f64 / MINUTE as f64;
        self.value * (-dt_minutes / self.tau_minutes).exp()
    }
}

/// The immutable part of the streaming detector: trained thresholds,
/// precomputed reference moments, and the window/EWMA parameters. Shared
/// (by reference) across every per-peer [`StreamingProfile`] and every
/// shard of the profile service.
#[derive(Clone, Debug)]
pub struct StreamingEngine {
    /// Trained thresholds (τ_n, τ_c, τ_Λ) and the Λ reference.
    pub profile: Profile,
    /// Precomputed reference moments.
    pub refs: ReferenceStats,
    /// Tumbling-window length.
    pub window_len: Nanos,
    /// EWMA time constant in minutes.
    pub ewma_tau_minutes: f64,
}

impl StreamingEngine {
    /// Builds a streaming engine from a batch-trained profile. Windows
    /// default to the profile's semantics only in length — pass the same
    /// `window_len` the batch pipeline cuts at to get matching verdicts.
    pub fn new(profile: Profile, window_len: Nanos) -> Self {
        // lint:allow(panic-path): constructor config validation; window length comes from training, not a peer
        assert!(window_len > 0, "zero window length");
        let refs = ReferenceStats::new(profile.reference);
        StreamingEngine {
            profile,
            refs,
            window_len,
            ewma_tau_minutes: 1.0,
        }
    }

    /// Window length in minutes (the `minutes` denominator of the rates).
    pub fn window_minutes(&self) -> f64 {
        self.window_len as f64 / MINUTE as f64
    }
}

/// One closed window's verdict, emitted by [`StreamingProfile`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowVerdict {
    /// Which tumbling window (0-based since the stream start).
    pub window_index: u64,
    /// The threshold verdict for the window.
    pub detection: Detection,
    /// EWMA message rate at window close (events/minute) — the
    /// between-window signal the batch engine does not have.
    pub ewma_n: f64,
    /// EWMA reconnection rate at window close (events/minute).
    pub ewma_c: f64,
}

/// Per-peer streaming detector state: the current tumbling window plus
/// EWMA rate estimators. All updates are O(1) per event; closed windows
/// are scored through the shared [`StreamingEngine`] and pushed to the
/// caller's verdict sink.
#[derive(Clone, Debug)]
pub struct StreamingProfile {
    window: StreamingWindow,
    /// Stream origin: window `i` covers `[start + i·len, start + (i+1)·len)`.
    start: Nanos,
    /// Index of the currently open window.
    window_index: u64,
    ewma_msg: EwmaRate,
    ewma_reconnect: EwmaRate,
    /// Lifetime messages seen (diagnostics).
    pub messages_seen: u64,
}

impl StreamingProfile {
    /// Fresh per-peer state with windows anchored at `start` — every peer
    /// of one stream shares the anchor so window indices align across
    /// peers and with the batch window cutter.
    pub fn new(engine: &StreamingEngine, start: Nanos) -> Self {
        StreamingProfile {
            window: StreamingWindow::empty(engine.window_minutes()),
            start,
            window_index: 0,
            ewma_msg: EwmaRate::new(engine.ewma_tau_minutes, start),
            ewma_reconnect: EwmaRate::new(engine.ewma_tau_minutes, start),
            messages_seen: 0,
        }
    }

    /// Where the open window closes, or `None` when that boundary is past
    /// the end of `Nanos` — such a window can never close, so a far-future
    /// timestamp neither overflows nor rolls forever.
    fn close_at(&self, engine: &StreamingEngine) -> Option<Nanos> {
        let windows = self.window_index.checked_add(1)?;
        self.start
            .checked_add(windows.checked_mul(engine.window_len)?)
    }

    /// Whether an event at `now` closes at least one window, i.e. whether
    /// feeding it pushes a verdict. Callers that time decisions read their
    /// clock only when this holds.
    pub fn window_due(&self, engine: &StreamingEngine, now: Nanos) -> bool {
        self.close_at(engine)
            .is_some_and(|close_at| now >= close_at)
    }

    /// Closes every window that ends at or before `now`, scoring each
    /// (including interior windows with no traffic — a silent peer is the
    /// "quiet window" anomaly, not a gap in the record).
    fn roll_to(&mut self, engine: &StreamingEngine, now: Nanos, out: &mut Vec<WindowVerdict>) {
        while let Some(close_at) = self.close_at(engine).filter(|close_at| now >= *close_at) {
            out.push(WindowVerdict {
                window_index: self.window_index,
                detection: self.window.detect(&engine.profile, &engine.refs),
                ewma_n: self.ewma_msg.rate(close_at),
                ewma_c: self.ewma_reconnect.rate(close_at),
            });
            self.window = StreamingWindow::empty(engine.window_minutes());
            self.window_index += 1;
        }
    }

    /// Feeds one message. Any windows the stream has moved past are
    /// closed and their verdicts pushed to `out` first.
    pub fn on_message(
        &mut self,
        engine: &StreamingEngine,
        now: Nanos,
        msg_type: u8,
        out: &mut Vec<WindowVerdict>,
    ) {
        self.roll_to(engine, now, out);
        self.window.record(msg_type, &engine.refs);
        self.ewma_msg.observe(now);
        self.messages_seen += 1;
    }

    /// Feeds one outbound-reconnection event.
    pub fn on_reconnect(
        &mut self,
        engine: &StreamingEngine,
        now: Nanos,
        out: &mut Vec<WindowVerdict>,
    ) {
        self.roll_to(engine, now, out);
        self.window.record_reconnect();
        self.ewma_reconnect.observe(now);
    }

    /// Closes all windows ending at or before `end` (the stream is over;
    /// a trailing partial window past the last boundary is discarded,
    /// like the batch cutter's partial tail).
    pub fn finish(
        &mut self,
        engine: &StreamingEngine,
        end: Nanos,
        out: &mut Vec<WindowVerdict>,
    ) {
        self.roll_to(engine, end, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AnalysisEngine, Violation};
    use crate::features::correlation;

    fn trained_profile() -> Profile {
        let mut windows = Vec::new();
        for seed in 0..40u64 {
            let mut w = TrafficWindow::empty(10.0);
            w.counts[12] = 1200 + seed % 60;
            w.counts[6] = 1000 + seed % 30;
            w.counts[4] = 300;
            w.counts[5] = 290;
            w.reconnects = seed % 2;
            windows.push(w);
        }
        AnalysisEngine::default().train(&windows).unwrap()
    }

    #[test]
    fn incremental_rho_matches_two_pass_correlation() {
        let profile = trained_profile();
        let refs = ReferenceStats::new(profile.reference);
        let mut sw = StreamingWindow::empty(10.0);
        let mut batch = TrafficWindow::empty(10.0);
        for (t, k) in [(12u8, 900u64), (6, 750), (4, 300), (0, 7), (25, 3)] {
            for _ in 0..k {
                sw.record(t, &refs);
            }
            batch.counts[t as usize] = k;
        }
        let expect = correlation(&batch.distribution(), &profile.reference);
        assert!((sw.rho(&refs) - expect).abs() < 1e-9, "{} vs {expect}", sw.rho(&refs));
        assert_eq!(sw.message_rate(), batch.message_rate());
    }

    #[test]
    fn degenerate_windows_report_zero_rho() {
        let profile = trained_profile();
        let refs = ReferenceStats::new(profile.reference);
        // Empty window.
        let sw = StreamingWindow::empty(10.0);
        assert_eq!(sw.rho(&refs), 0.0);
        // Perfectly flat histogram: zero count variance.
        let mut flat = StreamingWindow::empty(10.0);
        for t in 0..NUM_TYPES as u8 {
            flat.record(t, &refs);
        }
        assert_eq!(flat.rho(&refs), 0.0);
        // Flat reference: zero reference variance (a power-of-two slot
        // value so the mean subtraction is exact).
        let flat_refs = ReferenceStats::new([0.03125; NUM_TYPES]);
        let mut sw = StreamingWindow::empty(10.0);
        sw.record(4, &flat_refs);
        sw.record(4, &flat_refs);
        assert_eq!(sw.rho(&flat_refs), 0.0);
    }

    #[test]
    fn out_of_range_type_is_ignored() {
        let refs = ReferenceStats::new(trained_profile().reference);
        let mut sw = StreamingWindow::empty(10.0);
        sw.record(NUM_TYPES as u8, &refs);
        sw.record(255, &refs);
        assert_eq!(sw.total(), 0);
        assert_eq!(sw.as_traffic_window(), TrafficWindow::empty(10.0));
    }

    #[test]
    fn ewma_estimates_a_steady_rate() {
        // 120 events/minute for five time constants: the estimate settles
        // near the true rate.
        let mut e = EwmaRate::new(1.0, 0);
        let step = MINUTE / 120;
        let mut now = 0;
        for _ in 0..600 {
            now += step;
            e.observe(now);
        }
        let r = e.rate(now);
        assert!((100.0..140.0).contains(&r), "rate {r}");
        // And decays toward zero when the events stop.
        let later = e.rate(now + 10 * MINUTE);
        assert!(later < 1.0, "decayed rate {later}");
    }

    #[test]
    fn tumbling_windows_close_with_verdicts() {
        let profile = trained_profile();
        let engine = StreamingEngine::new(profile, 10 * MINUTE);
        let mut peer = StreamingProfile::new(&engine, 0);
        let mut out = Vec::new();
        // Normal-looking first window.
        for i in 0..2400u64 {
            let t = if i % 2 == 0 { 12 } else { 6 };
            peer.on_message(&engine, i * (10 * MINUTE) / 2400, t, &mut out);
        }
        for i in 0..600u64 {
            peer.on_message(&engine, 10 * MINUTE + i, 4, &mut out);
        }
        // First window closed when the flood started.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].window_index, 0);
        assert!(out[0].ewma_n > 0.0);
        // Skip two windows: the empty interior windows are scored too.
        peer.on_message(&engine, 40 * MINUTE + 1, 12, &mut out);
        assert_eq!(out.len(), 4, "{out:?}");
        assert_eq!(out[3].window_index, 3);
        assert!(
            out[2].detection.violations.contains(&Violation::MessageRate),
            "empty interior window must be the quiet-window anomaly"
        );
        // Finish closes through the last full boundary.
        peer.finish(&engine, 50 * MINUTE, &mut out);
        assert_eq!(out.len(), 5);
        assert_eq!(out[4].window_index, 4);
    }

    #[test]
    fn a_window_boundary_past_the_end_of_time_never_closes() {
        // Window 0 closes at 10 + 2⁶³; window 1 would close past u64::MAX.
        let engine = StreamingEngine::new(trained_profile(), 1 << 63);
        let mut peer = StreamingProfile::new(&engine, 10);
        let mut out = Vec::new();
        assert!(peer.window_due(&engine, u64::MAX));
        peer.on_message(&engine, u64::MAX, 4, &mut out);
        assert_eq!(out.len(), 1);
        assert!(!peer.window_due(&engine, u64::MAX));
        peer.finish(&engine, u64::MAX, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn streaming_verdict_equals_batch_verdict() {
        let profile = trained_profile();
        let engine = AnalysisEngine::default();
        let sengine = StreamingEngine::new(profile.clone(), 10 * MINUTE);
        let mut sw = StreamingWindow::empty(10.0);
        let mut batch = TrafficWindow::empty(10.0);
        for (t, k) in [(4u8, 150_000u64), (12, 1200), (6, 1000)] {
            for _ in 0..k {
                sw.record(t, &sengine.refs);
            }
            batch.counts[t as usize] = k;
        }
        let streaming = sw.detect(&profile, &sengine.refs);
        let batch_d = engine.detect(&profile, &batch);
        assert_eq!(streaming.anomalous, batch_d.anomalous);
        assert_eq!(streaming.violations, batch_d.violations);
        assert!((streaming.rho - batch_d.rho).abs() < 1e-9);
    }
}
