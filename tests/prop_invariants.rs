//! Property-based invariants across the suite's core data structures.
//! Driven by the in-repo `btc_netsim::prop` harness.

use banscore::contention;
use btc_attack::socket_model;
use btc_detect::engine::AnalysisEngine;
use btc_detect::features::{correlation, TrafficWindow, NUM_TYPES};
use btc_netsim::packet::SockAddr;
use btc_netsim::prop::{check, Gen};
use btc_node::banscore::{
    BanPolicy, CoreVersion, Misbehavior, MisbehaviorTracker, Verdict, ALL_MISBEHAVIORS,
};
use btc_node::BanMan;

fn arb_addr(g: &mut Gen) -> SockAddr {
    SockAddr::new(g.array4(), g.u16())
}

fn arb_rule(g: &mut Gen) -> Misbehavior {
    *g.choose(&ALL_MISBEHAVIORS)
}

#[test]
fn tracker_score_is_monotone_and_ban_is_exact() {
    check("tracker_score_is_monotone_and_ban_is_exact", |g| {
        let rules = g.vec_with(1, 200, |g| (arb_rule(g), g.bool()));
        let peer = arb_addr(g);
        let mut t = MisbehaviorTracker::new(CoreVersion::V0_20, BanPolicy::Standard);
        let mut prev = 0u32;
        for (i, (rule, inbound)) in rules.iter().enumerate() {
            let before = t.score(&peer);
            assert_eq!(before, prev);
            match t.misbehaving(i as u64, peer, *inbound, *rule) {
                Verdict::Ignored => {
                    assert_eq!(t.score(&peer), before);
                    assert!(!rule.applies_to(*inbound) || rule.penalty(CoreVersion::V0_20).is_none());
                }
                Verdict::Scored { total } => {
                    assert!(total > before);
                    assert!(total < 100, "scored but total {} >= threshold", total);
                    prev = total;
                }
                Verdict::Ban { total } => {
                    assert!(total >= 100);
                    // A real node disconnects and forgets here; stop.
                    return;
                }
            }
        }
    });
}

#[test]
fn deprecated_rules_never_score_anywhere() {
    check("deprecated_rules_never_score_anywhere", |g| {
        let rule = arb_rule(g);
        let inbound = g.bool();
        let peer = arb_addr(g);
        for version in [CoreVersion::V0_20, CoreVersion::V0_21, CoreVersion::V0_22] {
            let mut t = MisbehaviorTracker::new(version, BanPolicy::Standard);
            let v = t.misbehaving(0, peer, inbound, rule);
            if rule.penalty(version).is_none() || !rule.applies_to(inbound) {
                assert_eq!(v, Verdict::Ignored);
                assert_eq!(t.score(&peer), 0);
            } else {
                assert!(t.score(&peer) > 0);
            }
        }
    });
}

#[test]
fn banman_expiry_is_exact() {
    check("banman_expiry_is_exact", |g| {
        let peer = arb_addr(g);
        let ban_at = g.u64_in(0, 1_000_000_000);
        let duration = g.u64_in(1, 1_000_000_000);
        let probe = g.u64_in(0, 3_000_000_000);
        let mut bm = BanMan::with_duration(duration);
        bm.ban(ban_at, peer);
        let expect = probe >= ban_at && probe < ban_at + duration;
        assert_eq!(
            bm.is_banned(probe, &peer),
            expect
                || probe < ban_at && {
                    // Bans apply from creation; probing before creation reports
                    // banned too (time never runs backwards in the simulator).
                    probe < ban_at + duration
                }
        );
    });
}

#[test]
fn banman_never_affects_other_identifiers() {
    check("banman_never_affects_other_identifiers", |g| {
        let a = arb_addr(g);
        let b = arb_addr(g);
        let t = g.u64_in(0, 1_000_000);
        if a == b {
            return;
        }
        let mut bm = BanMan::new();
        bm.ban(0, a);
        assert!(!bm.is_banned(t, &b));
    });
}

#[test]
fn correlation_is_bounded_and_symmetric() {
    check("correlation_is_bounded_and_symmetric", |g| {
        let a = g.vec_with(2, 64, |g| g.f64_in(0.0, 1e6));
        let b_seed = g.vec_with(2, 64, |g| g.f64_in(0.0, 1e6));
        let n = a.len().min(b_seed.len());
        let a = &a[..n];
        let b = &b_seed[..n];
        let r = correlation(a, b);
        assert!((-1.0001..=1.0001).contains(&r), "rho {r}");
        let r2 = correlation(b, a);
        assert!((r - r2).abs() < 1e-9);
    });
}

#[test]
fn window_distribution_is_a_distribution() {
    check("window_distribution_is_a_distribution", |g| {
        let counts: Vec<u64> = (0..NUM_TYPES).map(|_| g.u64_in(0, 1_000_000)).collect();
        let reconnects = g.u64_in(0, 1000);
        let mut w = TrafficWindow::empty(10.0);
        w.counts.copy_from_slice(&counts);
        w.reconnects = reconnects;
        let d = w.distribution();
        assert!(d.iter().all(|v| (0.0..=1.0).contains(v)));
        let sum: f64 = d.iter().sum();
        if w.total() > 0 {
            assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        } else {
            assert_eq!(sum, 0.0);
        }
    });
}

#[test]
fn detector_never_flags_its_own_training_windows() {
    check("detector_never_flags_its_own_training_windows", |g| {
        let seeds = g.vec_with(5, 40, |g| g.u64_in(1, 1000));
        let windows: Vec<TrafficWindow> = seeds
            .iter()
            .map(|s| {
                let mut w = TrafficWindow::empty(10.0);
                w.counts[12] = 1000 + s % 300;
                w.counts[6] = 900 + (s * 3) % 200;
                w.counts[4] = 200 + s % 100;
                w.reconnects = s % 3;
                w
            })
            .collect();
        let engine = AnalysisEngine;
        let profile = engine.train(&windows).unwrap();
        for w in &windows {
            let d = engine.detect(&profile, w);
            assert!(!d.anomalous, "training window flagged: {d:?}");
        }
    });
}

#[test]
fn socket_model_rates_respect_caps() {
    check("socket_model_rates_respect_caps", |g| {
        let n = g.usize_in(1, 64);
        let msg_bytes = g.usize_in(1, 4_000_000);
        let agg = socket_model::aggregate_rate(n, msg_bytes);
        // Never exceeds the thread cap nor the line rate.
        assert!(agg <= socket_model::APP_LAYER_RATE_CAP * (n as f64) + 1e-9);
        assert!(agg * (msg_bytes as f64) * 8.0 <= socket_model::LINK_BANDWIDTH_BPS + 1e-3);
        // Monotone in n.
        let agg2 = socket_model::aggregate_rate(n + 1, msg_bytes);
        assert!(agg2 + 1e-9 >= agg);
        // Per-connection interval inverts the rate.
        let ival = socket_model::min_interval(n, msg_bytes);
        assert!(ival >= 1);
    });
}

#[test]
fn contention_model_is_monotone_and_bounded() {
    check("contention_model_is_monotone_and_bounded", |g| {
        let msgs = g.u64_in(0, 10_000_000);
        let bytes = g.u64_in(0, 10_000_000_000);
        let l = contention::app_layer_load(msgs, bytes, 10.0);
        let rate = contention::mining_rate(l);
        assert!(rate <= contention::BASELINE_HASH_RATE + 1e-6);
        assert!(rate >= contention::BASELINE_HASH_RATE * (1.0 - contention::S_MAX) - 1e-6);
    });
}
