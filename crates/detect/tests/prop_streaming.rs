//! Property tests for the one scorer, driven by the in-repo
//! `btc_netsim::prop` harness: the batch scorer's ρ must match the
//! two-pass `correlation` — including degenerate zero-variance windows,
//! which must give exactly 0 — a [`StreamingWindow`] fed message by
//! message must give the batch scorer's `n`, `c` and verdict bit for bit
//! and its ρ within float tolerance, the sharded profile service must be
//! bit-identical at every shard count, and `window_due` must say exactly
//! which events pay a decision. (Chunk boundaries and the peer index are
//! exercised next to their private constants, in `serve.rs`' unit
//! tests.)

use btc_detect::engine::AnalysisEngine;
use btc_detect::features::{correlation, TrafficWindow, NUM_TYPES};
use btc_detect::serve::{run_service, TraceEvent, TraceEventKind, TraceSpan};
use btc_detect::streaming::{StreamingEngine, StreamingProfile, StreamingWindow, MINUTE};
use btc_detect::Profile;
use btc_netsim::prop::{check, Gen};

/// Trains a profile on generated normal-ish windows (tx/inv dominated
/// with generated jitter) so every case sees a different reference.
fn gen_profile(g: &mut Gen) -> Profile {
    let mut windows = Vec::new();
    for _ in 0..g.usize_in(3, 20) {
        let mut w = TrafficWindow::empty(10.0);
        w.counts[12] = g.u64_in(1000, 1400);
        w.counts[6] = g.u64_in(800, 1100);
        w.counts[4] = g.u64_in(200, 400);
        w.counts[2] = g.u64_in(0, 100);
        w.reconnects = g.u64_in(0, 2);
        windows.push(w);
    }
    AnalysisEngine.train(&windows).expect("nonempty")
}

/// Generates an arbitrary window — occasionally degenerate: empty, flat
/// (zero count variance), or single-type.
fn gen_window(g: &mut Gen) -> TrafficWindow {
    let mut w = TrafficWindow::empty(10.0);
    match g.usize_in(0, 4) {
        0 => {} // empty: zero variance on the counts side
        1 => {
            // Perfectly flat histogram: also zero count variance.
            let level = g.u64_in(1, 50);
            w.counts = [level; NUM_TYPES];
        }
        2 => {
            // Single dominant type (the flood shape).
            w.counts[g.usize_in(0, NUM_TYPES)] = g.u64_in(1, 200_000);
        }
        _ => {
            for slot in w.counts.iter_mut() {
                *slot = g.u64_in(0, 2000);
            }
        }
    }
    w.reconnects = g.u64_in(0, 60);
    w
}

/// Whether `w` has zero count variance: empty, or perfectly flat.
fn degenerate(w: &TrafficWindow) -> bool {
    w.counts.iter().all(|c| *c == w.counts[0])
}

#[test]
fn batch_scorer_matches_two_pass_correlation() {
    check("batch scorer ρ ≡ correlation", |g: &mut Gen| {
        let profile = gen_profile(g);
        let batch = gen_window(g);
        let rho = StreamingWindow::of(&batch, &profile).rho(&profile);
        let expect = correlation(&batch.distribution(), profile.reference());
        assert!(
            (rho - expect).abs() < 1e-9,
            "rho {rho} vs two-pass {expect} for {batch:?}"
        );
        if degenerate(&batch) {
            assert_eq!(rho, 0.0, "degenerate window must report ρ = 0");
        }
        assert_eq!(AnalysisEngine.detect(&profile, &batch).rho, rho);
    });
}

#[test]
fn streaming_window_reproduces_batch_features_and_verdict() {
    check("StreamingWindow ≡ batch scorer", |g: &mut Gen| {
        let profile = gen_profile(g);
        let batch = gen_window(g);

        // Feed the same window message by message, in a generated
        // interleaving (round-robin over types rather than type-by-type).
        let mut sw = StreamingWindow::empty(batch.minutes);
        let mut remaining = batch.counts;
        let mut left: u64 = remaining.iter().sum();
        let mut cursor = g.usize_in(0, NUM_TYPES);
        while left > 0 {
            while remaining[cursor] == 0 {
                cursor = (cursor + 1) % NUM_TYPES;
            }
            sw.record(cursor as u8, &profile);
            remaining[cursor] -= 1;
            left -= 1;
            cursor = (cursor + g.usize_in(1, NUM_TYPES)) % NUM_TYPES;
        }
        for _ in 0..batch.reconnects {
            sw.record_reconnect();
        }
        assert_eq!(sw.window(), &batch);

        let streaming = sw.detect(&profile);
        let batch_d = AnalysisEngine.detect(&profile, &batch);
        // n and c are the same computation on the same window: bit-equal.
        assert_eq!(streaming.n.to_bits(), batch_d.n.to_bits());
        assert_eq!(streaming.c.to_bits(), batch_d.c.to_bits());
        // Λ: the cross sum is added per event here, per slot there.
        assert!(
            (streaming.rho - batch_d.rho).abs() < 1e-9,
            "rho {} vs batch {} for {batch:?}",
            streaming.rho,
            batch_d.rho
        );
        if degenerate(&batch) {
            assert_eq!(streaming.rho, 0.0, "degenerate window must report ρ = 0");
        }
        assert_eq!(streaming.anomalous, batch_d.anomalous);
        assert_eq!(streaming.violations, batch_d.violations);
    });
}

#[test]
fn service_digest_is_shard_count_invariant_for_any_trace() {
    check("profile service ≡ at any shard count", |g: &mut Gen| {
        let profile = gen_profile(g);
        let window_len = MINUTE;
        let windows = g.u64_in(1, 3);
        let span = TraceSpan {
            start: 0,
            end: windows * window_len,
        };
        let peers = g.u64_in(1, 8);
        let mut trace = Vec::new();
        for _ in 0..g.usize_in(0, 400) {
            let time = g.u64_in(span.start, span.end);
            let peer = g.u64_in(0, peers);
            let kind = if g.usize_in(0, 9) == 0 {
                TraceEventKind::Reconnect
            } else {
                TraceEventKind::Message(g.usize_in(0, NUM_TYPES) as u8)
            };
            trace.push(TraceEvent { time, peer, kind });
        }
        trace.sort_by_key(|e| e.time);
        let engine = StreamingEngine::new(profile, window_len);
        let serial = run_service(&engine, &trace, span, 1);
        for shards in [2, 3, 5] {
            let sharded = run_service(&engine, &trace, span, shards);
            assert_eq!(sharded.digest, serial.digest, "shards={shards}");
            assert_eq!(sharded.verdicts, serial.verdicts, "shards={shards}");
        }
    });
}

#[test]
fn window_due_predicts_exactly_the_events_that_push_a_verdict() {
    check("window_due ⇔ a verdict is pushed", |g: &mut Gen| {
        let window_len = *g.choose(&[1, 7, 1_000, MINUTE]);
        let engine = StreamingEngine::new(gen_profile(g), window_len);
        // Some streams start after their first events: those are never due.
        let start = g.u64_in(0, 3 * window_len + 1);
        let mut profile = StreamingProfile::new(&engine, start);
        let mut now = g.u64_in(0, 2 * window_len + 1);
        let mut out = Vec::new();
        for _ in 0..g.len_in(1, 200) {
            // Mostly small steps (same window, or onto a boundary), now
            // and then a jump across several silent windows.
            now += match g.usize_in(0, 4) {
                0 => 0,
                1 => g.u64_in(0, window_len + 1),
                2 => window_len,
                _ => g.u64_in(0, 6 * window_len),
            };
            let due = profile.window_due(&engine, now);
            if g.bool() {
                profile.on_message(&engine, now, g.usize_in(0, NUM_TYPES) as u8, &mut out);
            } else {
                profile.on_reconnect(&engine, now, &mut out);
            }
            assert_eq!(
                due,
                !out.is_empty(),
                "now={now} start={start} len={window_len}"
            );
            out.clear();
        }
        let end = now + g.u64_in(0, 3 * window_len);
        let due = profile.window_due(&engine, end);
        profile.finish(&engine, end, &mut out);
        assert_eq!(due, !out.is_empty(), "finish at {end}");
    });
}
