//! The detector's one scorer, and the per-peer streaming state that feeds
//! it one message at a time.
//!
//! A [`StreamingWindow`] is a [`TrafficWindow`] plus the running sums
//! `Σ countsᵢ²` and `Σ countsᵢ·refᵢ`, so every feature costs **O(1) per
//! message** and one process can score very many concurrent peers:
//! `n`/`c` are the window's own rates, and `Λ`'s Pearson ρ follows from
//! the two sums and the reference moments [`Profile`] holds (ρ is
//! invariant under the scaling that turns counts into a distribution).
//! `EwmaRate` adds a between-window rate signal.
//!
//! The batch [`crate::engine::AnalysisEngine`] builds the same sums from a
//! finished window ([`StreamingWindow::of`]), so both engines share every
//! formula and [`Profile::judge`]; only the order ρ's cross sum is added
//! in differs (property-tested in `tests/prop_streaming.rs`).

use crate::engine::{Detection, Profile};
use crate::features::{TrafficWindow, NUM_TYPES};

/// Nanoseconds since stream start. Mirrors `btc_netsim::time::Nanos`
/// without making this crate depend on the simulator.
pub type Nanos = u64;

/// One minute in [`Nanos`].
pub const MINUTE: Nanos = 60 * 1_000_000_000;

/// EWMA time constant, in minutes.
const EWMA_TAU_MINUTES: f64 = 1.0;

/// One observation window with the running sums that score it. The
/// dense histogram makes [`StreamingWindow::record`] a couple of integer
/// updates and one float add; [`StreamingWindow::rho`] and the verdict
/// are O(1) in the number of recorded messages.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamingWindow {
    /// Counts, reconnections and length.
    window: TrafficWindow,
    /// Running `Σ countsᵢ²`.
    sq_sum: u64,
    /// Running `Σ countsᵢ · refᵢ`.
    ref_dot: f64,
}

impl StreamingWindow {
    /// An empty window of `minutes` length.
    pub fn empty(minutes: f64) -> Self {
        StreamingWindow {
            window: TrafficWindow::empty(minutes),
            sq_sum: 0,
            ref_dot: 0.0,
        }
    }

    /// A finished window with its sums built in one pass over the counts
    /// (the batch engine's way in).
    pub fn of(window: &TrafficWindow, profile: &Profile) -> Self {
        let mut sq_sum = 0;
        let mut ref_dot = 0.0;
        for (&count, weight) in window.counts.iter().zip(profile.reference()) {
            sq_sum += count * count;
            ref_dot += count as f64 * weight;
        }
        StreamingWindow {
            window: *window,
            sq_sum,
            ref_dot,
        }
    }

    /// Records one message of type `msg_type` (index into the 26-command
    /// table; out-of-range ids are ignored, mirroring the telemetry
    /// guard). O(1).
    pub fn record(&mut self, msg_type: u8, profile: &Profile) {
        let ty = usize::from(msg_type);
        let (Some(slot), Some(weight)) =
            (self.window.counts.get_mut(ty), profile.reference().get(ty))
        else {
            return;
        };
        // (c+1)² − c² = 2c + 1 keeps Σ counts² current without a rescan.
        self.sq_sum += 2 * *slot + 1;
        *slot += 1;
        self.ref_dot += weight;
    }

    /// Records one outbound reconnection. O(1).
    pub fn record_reconnect(&mut self) {
        self.window.reconnects += 1;
    }

    /// The window recorded so far.
    pub fn window(&self) -> &TrafficWindow {
        &self.window
    }

    /// Feature `Λ`: Pearson ρ of the window's count distribution against
    /// the reference, from the running sums.
    ///
    /// Pearson ρ is invariant under positive scaling, so correlating the
    /// raw counts gives the value `correlation` gives for `counts/total`
    /// (up to float rounding). Degenerate windows (no traffic, or a
    /// perfectly flat histogram) and a flat reference report 0, matching
    /// `correlation`'s zero-variance guard.
    pub fn rho(&self, profile: &Profile) -> f64 {
        let k = NUM_TYPES as f64;
        let mean_counts = self.window.total() as f64 / k;
        // Centered second moment of the counts: Σc² − k·mean².
        let var_counts = self.sq_sum as f64 - k * mean_counts * mean_counts;
        if var_counts <= 0.0 || profile.ref_centered_sq_sum <= 0.0 {
            return 0.0;
        }
        // Centered cross moment: Σ cᵢ·rᵢ − k·mean_c·mean_r.
        let cov = self.ref_dot - k * mean_counts * profile.ref_mean;
        cov / (var_counts.sqrt() * profile.ref_centered_sq_sum.sqrt())
    }

    /// Verdict against a trained profile: the window's `n` and `c`, this
    /// ρ, and [`Profile::judge`].
    pub fn detect(&self, profile: &Profile) -> Detection {
        profile.judge(
            self.window.message_rate(),
            self.window.reconnect_rate(),
            self.rho(profile),
        )
    }
}

/// Exponentially weighted event-rate estimator: each event contributes an
/// impulse that decays with time constant [`EWMA_TAU_MINUTES`], normalized
/// so the estimate is in events/minute. O(1) per event, no event buffer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct EwmaRate {
    /// Decayed intensity at `last`, in events/minute.
    value: f64,
    /// Time of the last update.
    last: Nanos,
}

impl EwmaRate {
    /// A zero-rate estimator starting at `start`.
    pub fn new(start: Nanos) -> Self {
        EwmaRate {
            value: 0.0,
            last: start,
        }
    }

    fn decay_to(&mut self, now: Nanos) {
        if now > self.last {
            let dt_minutes = (now - self.last) as f64 / MINUTE as f64;
            self.value *= (-dt_minutes / EWMA_TAU_MINUTES).exp();
            self.last = now;
        }
    }

    /// Records one event at `now` (non-decreasing times expected; an
    /// earlier `now` is treated as `last`).
    pub fn observe(&mut self, now: Nanos) {
        self.decay_to(now);
        // ∫₀^∞ (1/τ)·e^(−t/τ) dt = 1: each event adds total weight one,
        // so for Poisson traffic the expectation equals the true rate.
        self.value += 1.0 / EWMA_TAU_MINUTES;
    }

    /// The rate estimate at `now`, in events/minute.
    pub fn rate(&self, now: Nanos) -> f64 {
        if now <= self.last {
            return self.value;
        }
        let dt_minutes = (now - self.last) as f64 / MINUTE as f64;
        self.value * (-dt_minutes / EWMA_TAU_MINUTES).exp()
    }
}

/// The immutable part of the streaming detector: the trained profile
/// and the window length. Shared (by reference) across every per-peer
/// [`StreamingProfile`] and every shard of the profile service.
#[derive(Clone, Debug)]
pub struct StreamingEngine {
    /// Trained thresholds, the Λ reference and its moments.
    pub profile: Profile,
    /// Tumbling-window length.
    pub window_len: Nanos,
}

impl StreamingEngine {
    /// Builds a streaming engine from a batch-trained profile. Windows
    /// default to the profile's semantics only in length — pass the same
    /// `window_len` the batch pipeline cuts at to get matching verdicts.
    pub fn new(profile: Profile, window_len: Nanos) -> Self {
        // lint:allow(panic-path): constructor config validation; window length comes from training, not a peer
        assert!(window_len > 0, "zero window length");
        StreamingEngine {
            profile,
            window_len,
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
            ewma_msg: EwmaRate::new(start),
            ewma_reconnect: EwmaRate::new(start),
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
                detection: self.window.detect(&engine.profile),
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
        self.window.record(msg_type, &engine.profile);
        self.ewma_msg.observe(now);
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
        AnalysisEngine.train(&windows).unwrap()
    }

    #[test]
    fn incremental_rho_matches_two_pass_correlation() {
        let profile = trained_profile();
        let mut sw = StreamingWindow::empty(10.0);
        let mut batch = TrafficWindow::empty(10.0);
        for (t, k) in [(12u8, 900u64), (6, 750), (4, 300), (0, 7), (25, 3)] {
            for _ in 0..k {
                sw.record(t, &profile);
            }
            batch.counts[t as usize] = k;
        }
        let expect = correlation(&batch.distribution(), profile.reference());
        let rho = sw.rho(&profile);
        assert!((rho - expect).abs() < 1e-9, "{rho} vs {expect}");
        assert_eq!(sw.window(), &batch);
    }

    #[test]
    fn degenerate_windows_report_zero_rho() {
        let profile = trained_profile();
        // Empty window.
        let sw = StreamingWindow::empty(10.0);
        assert_eq!(sw.rho(&profile), 0.0);
        // Perfectly flat histogram: zero count variance.
        let mut flat = StreamingWindow::empty(10.0);
        for t in 0..NUM_TYPES as u8 {
            flat.record(t, &profile);
        }
        assert_eq!(flat.rho(&profile), 0.0);
        // Flat reference: zero reference variance (a power-of-two slot
        // value so the mean subtraction is exact).
        let flat_ref = Profile::new((0.0, 1.0), (0.0, 1.0), 0.5, [0.03125; NUM_TYPES], 1);
        let mut sw = StreamingWindow::empty(10.0);
        sw.record(4, &flat_ref);
        sw.record(4, &flat_ref);
        assert_eq!(sw.rho(&flat_ref), 0.0);
    }

    #[test]
    fn out_of_range_type_is_ignored() {
        let profile = trained_profile();
        let mut sw = StreamingWindow::empty(10.0);
        sw.record(NUM_TYPES as u8, &profile);
        sw.record(255, &profile);
        assert_eq!(sw, StreamingWindow::empty(10.0));
    }

    #[test]
    fn ewma_estimates_a_steady_rate() {
        // 120 events/minute for five time constants: the estimate settles
        // near the true rate.
        let mut e = EwmaRate::new(0);
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
        let mut sw = StreamingWindow::empty(10.0);
        let mut batch = TrafficWindow::empty(10.0);
        for (t, k) in [(4u8, 150_000u64), (12, 1200), (6, 1000)] {
            for _ in 0..k {
                sw.record(t, &profile);
            }
            batch.counts[t as usize] = k;
        }
        let streaming = sw.detect(&profile);
        let batch_d = AnalysisEngine.detect(&profile, &batch);
        assert_eq!(streaming.anomalous, batch_d.anomalous);
        assert_eq!(streaming.violations, batch_d.violations);
        assert_eq!((streaming.n, streaming.c), (batch_d.n, batch_d.c));
        assert!((streaming.rho - batch_d.rho).abs() < 1e-9);
    }
}
