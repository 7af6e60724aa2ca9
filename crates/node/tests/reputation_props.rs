//! Property tests for the trust-tier reputation engine, driven by the
//! in-repo fuzzer (`btc_netsim::prop`): decay monotonicity, hysteresis
//! no-oscillation, graylist re-entry, and bit-exact stock equivalence
//! under [`ReputationConfig::stock_equivalent`].

use btc_netsim::packet::SockAddr;
use btc_netsim::prop::{check, Gen};
use btc_netsim::time::{Nanos, MINUTES, SECS};
use btc_node::banscore::reputation::{GRAYLIST_DURATION, PROBATION_THRESHOLD};
use btc_node::banscore::rules::ALL_MISBEHAVIORS;
use btc_node::banscore::{
    BanPolicy, CoreVersion, MisbehaviorTracker, ReputationConfig, ReputationEngine, Tier, Verdict,
};

fn peer(n: u8) -> SockAddr {
    SockAddr::new([10, 0, 0, n], 8333)
}

/// Sampling the decayed score at any later time never shows it grow: the
/// exponential decay law is monotone non-increasing between strikes.
#[test]
fn decay_is_monotone_between_strikes() {
    check("decay_is_monotone_between_strikes", |g: &mut Gen| {
        let mut engine = ReputationEngine::new(ReputationConfig::default());
        let p = peer(1);
        let t0 = g.u64_in(0, 10 * MINUTES);
        // A few strikes of random stock-equivalent weight, all at t0.
        for _ in 0..g.usize_in(1, 4) {
            engine.strike_raw(t0, p, g.u64_in(1, 120) as u32);
        }
        let mut prev = engine.score(t0, &p);
        let mut now = t0;
        for _ in 0..g.usize_in(2, 12) {
            now += g.u64_in(0, 30 * MINUTES);
            let s = engine.score(now, &p);
            assert!(
                s <= prev + 1e-9,
                "score grew without a strike: {prev} -> {s} at {now}"
            );
            prev = s;
        }
        // Far future: fully forgiven (default half-life is 10 min).
        assert!(engine.score(now + 100 * 10 * MINUTES, &p) < 1e-3);
    });
}

/// With the default config a single Light strike (5 pts) is smaller than
/// the hysteresis band (10 pts), so a promotion out of Probation can
/// never be reversed by the very next strike — no tier flapping under
/// alternating strike/credit streams.
#[test]
fn hysteresis_prevents_single_event_oscillation() {
    check("hysteresis_prevents_single_event_oscillation", |g: &mut Gen| {
        let mut engine = ReputationEngine::new(ReputationConfig::default());
        let p = peer(2);
        let mut now: Nanos = 0;
        // Strikes since the last promotion out of Probation; None while
        // the peer has not been promoted (or was never in Probation).
        let mut strikes_since_promotion: Option<u32> = None;
        for _ in 0..g.usize_in(10, 120) {
            now += g.u64_in(10 * SECS, 3 * MINUTES);
            if g.bool() {
                engine.strike_raw(now, p, 5); // Light
                if let Some(n) = strikes_since_promotion.as_mut() {
                    *n += 1;
                }
            } else {
                engine.on_good_block(now, p);
            }
            for t in engine.take_transitions() {
                if t.from == Tier::Probation && t.to < Tier::Probation {
                    strikes_since_promotion = Some(0);
                } else if t.to >= Tier::Probation {
                    if let Some(n) = strikes_since_promotion.take() {
                        assert!(
                            n >= 2,
                            "re-demoted to {:?} after only {n} strike(s) — hysteresis broken",
                            t.to
                        );
                    }
                }
            }
        }
    });
}

/// A served graylist sentence always re-enters at Probation or better —
/// never straight back to Graylist, never Banned — with the score clamped
/// to the probation boundary.
#[test]
fn graylist_expiry_reenters_at_probation() {
    check("graylist_expiry_reenters_at_probation", |g: &mut Gen| {
        let mut engine = ReputationEngine::new(ReputationConfig::default());
        let p = peer(3);
        let t0 = g.u64_in(0, MINUTES);
        // Severe strikes until the peer lands in the graylist.
        let mut entered = false;
        for _ in 0..8 {
            if engine.strike_raw(t0, p, 100).graylisted() {
                entered = true;
                break;
            }
        }
        assert!(entered, "severe strikes never graylisted the peer");
        assert!(engine.is_graylisted(t0, &p));
        // Serve the sentence (plus a random margin), then one message.
        let t1 = t0 + GRAYLIST_DURATION + g.u64_in(0, 2 * GRAYLIST_DURATION);
        let out = engine.on_message(t1, p);
        assert!(out.deliver, "post-expiry message was rate-limited");
        let reentry = engine
            .take_transitions()
            .into_iter()
            .find(|t| t.from == Tier::Graylist)
            .expect("expiry recorded a transition");
        assert!(
            reentry.to <= Tier::Probation,
            "re-entered at {:?}, not Probation or better",
            reentry.to
        );
        let t = engine.tier(t1, &p);
        assert!(t != Tier::Graylist && t != Tier::Banned, "still soft/hard banned: {t:?}");
        assert!(
            engine.score(t1, &p) <= PROBATION_THRESHOLD + 1e-9,
            "score not clamped to the probation boundary"
        );
    });
}

/// Under [`ReputationConfig::stock_equivalent`] (stock weights, no decay,
/// no graylist, no credit) the engine hard-bans on *exactly* the event
/// the stock `MisbehaviorTracker` does, for any fuzzed rule stream.
#[test]
fn stock_equivalence_ban_on_same_event() {
    check("stock_equivalence_ban_on_same_event", |g: &mut Gen| {
        let version = *g.choose(&[CoreVersion::V0_20, CoreVersion::V0_21, CoreVersion::V0_22]);
        let threshold = g.u64_in(20, 200) as u32;
        let mut stock = MisbehaviorTracker::new(version, BanPolicy::Standard);
        stock.threshold = threshold;
        let mut engine =
            ReputationEngine::new(ReputationConfig::stock_equivalent(version, threshold));
        let peers = [peer(10), peer(11), peer(12)];
        let mut stock_first: [Option<usize>; 3] = [None; 3];
        let mut tiers_first: [Option<usize>; 3] = [None; 3];
        let mut now: Nanos = 0;
        for i in 0..g.usize_in(5, 200) {
            now += g.u64_in(0, MINUTES);
            let which = g.usize_in(0, 2);
            let p = peers[which];
            let rule = *g.choose(&ALL_MISBEHAVIORS);
            let inbound = g.bool();
            let verdict = stock.misbehaving(now, p, inbound, rule);
            let outcome = engine.on_misbehavior(now, p, inbound, rule);
            if stock_first[which].is_none() {
                if let Verdict::Ban { .. } = verdict {
                    stock_first[which] = Some(i);
                }
            }
            if tiers_first[which].is_none() && outcome.banned() {
                tiers_first[which] = Some(i);
            }
        }
        assert_eq!(
            stock_first, tiers_first,
            "stock and stock-equivalent engine banned on different events \
             (version {version:?}, threshold {threshold})"
        );
    });
}
