//! The trust-tier reputation engine (ROADMAP item 3): graceful degradation
//! instead of the stock binary ban cliff.
//!
//! The paper shows both attacks exploit the same brittleness: 100 points →
//! 24 h hard ban, no forgiveness. A burst of spoofed strikes permanently
//! evicts an honest peer (Defamation), and a patient flooder rides just
//! under the cliff forever (BM-DoS). This engine replaces the cliff with a
//! five-tier lattice:
//!
//! ```text
//! Trusted ── Normal ── Probation ── Graylist ── Banned
//!   ▲ credit       ▲ decay      ▲ expiry     (24 h, BanMan)
//! ```
//!
//! * **Weighted penalties** — strikes are graded by
//!   [`TierWeight`](super::rules::TierWeight) (Severe 40 / Moderate 15 /
//!   Light 5), derived from the stock Table-I penalty of the rule, so the
//!   relative severity of Table I is preserved while no single rule can
//!   jump a peer past the graylist.
//! * **Deterministic decay** — the strike score halves every ten minutes
//!   of sim time (`score · 2^(−Δt/half_life)`), so stale (e.g. spoofed)
//!   strikes age out instead of accumulating forever.
//! * **Credit promotion** — good behaviour (valid blocks) feeds an
//!   embedded [`GoodScoreTracker`]; enough credit with a clean sheet
//!   promotes Normal → Trusted, and each credit also forgives a few strike
//!   points.
//! * **Hysteresis** — demotion happens at a threshold, promotion only
//!   after the score decays a further 10 points below it, so a peer
//!   oscillating around a boundary does not flap between tiers.
//! * **Graylist soft-ban** — crossing the graylist threshold rate-limits
//!   the peer and removes it from relay / makes it the first eviction
//!   choice for [`GRAYLIST_DURATION`], after which it re-enters at
//!   Probation. A hard (BanMan, 24 h) ban can only fire from *within* the
//!   graylist, so every peer passes through the recoverable soft-ban
//!   before the irreversible one.
//! * **Flood pressure** — a per-peer token bucket charges Light strikes
//!   for sustained message floods, covering the 14 commands with no
//!   Table-I rule (the paper's first BM-DoS vector, e.g. PING).
//!
//! The tuning is fixed: the constants below are the one trust-tier
//! configuration. Everything runs on sim time ([`Nanos`]) with
//! pure-function state updates, so sweeps are float-bit-identical at any
//! `--jobs` count. Under [`ReputationConfig::stock_equivalent`] (decay
//! off, stock weights, graylist/pressure/credit off) the engine reproduces
//! the stock [`MisbehaviorTracker`](super::MisbehaviorTracker) ban decision
//! exactly — a property pinned by fuzz tests in
//! `crates/node/tests/reputation_props.rs`.

use super::rules::{tier_weight_of_penalty, CoreVersion, Misbehavior};
use super::tracker::GoodScoreTracker;
use btc_netsim::packet::SockAddr;
use btc_netsim::time::{Nanos, MINUTES, SECS};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Strikes at or above this demote Normal → Probation.
pub const PROBATION_THRESHOLD: f64 = 30.0;
/// Strikes at or above this enter the Graylist soft-ban. The largest
/// weighted penalty (Severe, 40) fits between it and [`BAN_THRESHOLD`], so
/// no single strike skips the graylist (`severe_fits_graylist_gap`).
const GRAYLIST_THRESHOLD: f64 = 60.0;
/// Strikes at or above this — from within the Graylist — hard-ban.
const BAN_THRESHOLD: f64 = 100.0;
/// Promotion needs the score this far below the demotion boundary.
const HYSTERESIS: f64 = 10.0;
/// Strike-score half-life.
const HALF_LIFE: Nanos = 10 * MINUTES;
/// How long a graylist soft-ban lasts before Probation re-entry.
pub const GRAYLIST_DURATION: Nanos = 120 * SECS;
/// Messages per second serviced from a graylisted peer (1-second burst).
const GRAYLIST_MSGS_PER_SEC: f64 = 5.0;
/// Credit needed (with a clean sheet) for Normal → Trusted.
const TRUSTED_MIN_CREDIT: u64 = 3;
/// Strike points forgiven per good-behaviour credit.
const CREDIT_FORGIVENESS: f64 = 2.0;
/// Flood bucket capacity, in messages (burst allowance).
const PRESSURE_CAPACITY: f64 = 300.0;
/// Flood bucket refill rate, messages per second (sustained allowance).
const PRESSURE_REFILL_PER_SEC: f64 = 50.0;
/// Strike points charged when the flood bucket runs dry.
const PRESSURE_STRIKE: f64 = 5.0;
/// Minimum spacing between two flood-pressure strikes on one peer.
const PRESSURE_STRIKE_COOLDOWN: Nanos = SECS;

/// The five trust tiers, ordered best → worst (so `Ord` compares standing).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Tier {
    /// Earned credit and a clean sheet: shielded from eviction.
    Trusted,
    /// The default standing of a new peer.
    #[default]
    Normal,
    /// Strikes above the probation threshold: watched, fully serviced.
    Probation,
    /// Soft-banned: rate-limited, skipped by relay, first eviction choice.
    /// Expires after [`GRAYLIST_DURATION`] back into Probation.
    Graylist,
    /// Hard-banned: handed to `BanMan` for the stock 24 h identifier ban.
    Banned,
}

impl Tier {
    /// Short lowercase label (stable across output formats).
    pub fn label(&self) -> &'static str {
        match self {
            Tier::Trusted => "trusted",
            Tier::Normal => "normal",
            Tier::Probation => "probation",
            Tier::Graylist => "graylist",
            Tier::Banned => "banned",
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Which of the engine's two configurations runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ReputationKind {
    /// The five-tier lattice with the fixed tuning of this module.
    #[default]
    TrustTiers,
    /// The stock tracker's ban decision, bit for bit: stock penalties, a
    /// hard ban at `threshold`, no decay, no graylist stage, no pressure,
    /// no credit. Integer penalty sums stay exact in `f64` (well below
    /// 2⁵³), so the engine bans on exactly the event the stock tracker
    /// does.
    StockEquivalent {
        /// Score at which the peer is hard-banned.
        threshold: u32,
    },
}

/// Configuration of the reputation engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ReputationConfig {
    /// Rule-set version: deprecation and direction gating match the stock
    /// tracker exactly.
    pub version: CoreVersion,
    /// Trust tiers or the stock-equivalent reference.
    pub kind: ReputationKind,
}

impl ReputationConfig {
    /// The stock-equivalent engine for `version`, hard-banning at
    /// `threshold`.
    pub fn stock_equivalent(version: CoreVersion, threshold: u32) -> Self {
        ReputationConfig {
            version,
            kind: ReputationKind::StockEquivalent { threshold },
        }
    }

    fn tiered(&self) -> bool {
        self.kind == ReputationKind::TrustTiers
    }

    /// Strike points for a stock penalty: its tier weight, or the stock
    /// points themselves in stock-equivalent mode.
    fn points(&self, stock: u32) -> f64 {
        match self.kind {
            ReputationKind::TrustTiers => tier_weight_of_penalty(stock).points(),
            ReputationKind::StockEquivalent { .. } => f64::from(stock),
        }
    }

    /// Strike points for `rule`, or `None` when the rule is deprecated in
    /// `version` (same gating as the stock tracker).
    fn strike_points(&self, rule: Misbehavior) -> Option<f64> {
        rule.penalty(self.version).map(|stock| self.points(stock))
    }

    /// `score · 2^(−Δt/half_life)` — the decay law. Stock-equivalent
    /// scores never decay.
    fn decay(&self, strikes: f64, since: Nanos, now: Nanos) -> f64 {
        if !self.tiered() || strikes == 0.0 {
            return strikes;
        }
        let dt = now.saturating_sub(since);
        if dt == 0 {
            return strikes;
        }
        strikes * (-(dt as f64 / HALF_LIFE as f64)).exp2()
    }

    /// Tier the ladder assigns for `strikes`/`credit`, given the peer's
    /// current standing (`cur`) — the hysteresis anchor. Graylist/Banned
    /// entry and exit are handled by the caller; this ladder only ranks
    /// Trusted / Normal / Probation.
    fn ladder(&self, strikes: f64, credit: u64, cur: Tier) -> Tier {
        // Stock-equivalent mode: Probation from 30 % of the ban
        // threshold, no hysteresis band, no credit.
        if let ReputationKind::StockEquivalent { threshold } = self.kind {
            return if strikes >= f64::from(threshold) * 0.3 {
                Tier::Probation
            } else {
                Tier::Normal
            };
        }
        if strikes >= PROBATION_THRESHOLD {
            return Tier::Probation;
        }
        // Hysteresis hold: a probation peer stays put until the score has
        // decayed a full `HYSTERESIS` below the boundary.
        if cur >= Tier::Probation && strikes > PROBATION_THRESHOLD - HYSTERESIS {
            return Tier::Probation;
        }
        if credit >= TRUSTED_MIN_CREDIT && strikes <= PROBATION_THRESHOLD - HYSTERESIS {
            return Tier::Trusted;
        }
        Tier::Normal
    }
}

/// Per-peer reputation state.
#[derive(Clone, Copy, Debug)]
struct PeerRep {
    /// Strike score at `scored_at` (decays forward from there).
    strikes: f64,
    scored_at: Nanos,
    tier: Tier,
    /// When the current graylist stint expires (only valid in Graylist).
    graylist_until: Nanos,
    /// Flood-pressure bucket: tokens remaining at `tokens_at`.
    tokens: f64,
    tokens_at: Nanos,
    /// Last flood-pressure strike (cooldown anchor); `None` encoded as 0
    /// with `pressure_struck = false`.
    last_pressure_strike: Nanos,
    pressure_struck: bool,
    /// Graylist service allowance (token bucket, 1-second burst).
    gray_allowance: f64,
    gray_at: Nanos,
}

impl PeerRep {
    fn fresh(now: Nanos) -> Self {
        PeerRep {
            strikes: 0.0,
            scored_at: now,
            tier: Tier::Normal,
            graylist_until: 0,
            tokens: PRESSURE_CAPACITY,
            tokens_at: now,
            last_pressure_strike: 0,
            pressure_struck: false,
            gray_allowance: GRAYLIST_MSGS_PER_SEC,
            gray_at: now,
        }
    }
}

/// One recorded tier transition (telemetry feed).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TierTransition {
    /// When it happened.
    pub time: Nanos,
    /// Which peer.
    pub peer: SockAddr,
    /// Standing before.
    pub from: Tier,
    /// Standing after.
    pub to: Tier,
}

/// Outcome of one strike (or credit) application.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct StrikeOutcome {
    /// Points actually applied (0 when the rule was gated off).
    pub applied: f64,
    /// Decayed strike score after the event.
    pub score: f64,
    /// Tier before.
    pub from: Tier,
    /// Tier after.
    pub to: Tier,
}

impl StrikeOutcome {
    /// The event moved the peer across a tier boundary.
    pub fn changed(&self) -> bool {
        self.from != self.to
    }

    /// The event triggered the hard (BanMan) ban.
    pub fn banned(&self) -> bool {
        self.changed() && self.to == Tier::Banned
    }

    /// The event entered the graylist soft-ban.
    pub fn graylisted(&self) -> bool {
        self.changed() && self.to == Tier::Graylist
    }
}

/// Outcome of per-message accounting ([`ReputationEngine::on_message`]).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MessageOutcome {
    /// Whether the message should be processed at all. `false` only while
    /// graylisted and over the service rate limit.
    pub deliver: bool,
    /// Whether this message tripped a flood-pressure strike.
    pub pressure_strike: bool,
    /// Tier before.
    pub from: Tier,
    /// Tier after (pressure strikes can demote, expiry can promote).
    pub to: Tier,
}

impl MessageOutcome {
    /// The event moved the peer across a tier boundary.
    pub fn changed(&self) -> bool {
        self.from != self.to
    }

    /// The event triggered the hard (BanMan) ban.
    pub fn banned(&self) -> bool {
        self.changed() && self.to == Tier::Banned
    }
}

/// The engine: per-identifier tier state plus the embedded good-behaviour
/// credit tracker. All methods are deterministic functions of (state, sim
/// time, event); nothing reads wall clocks or unseeded randomness.
#[derive(Clone, Debug)]
pub struct ReputationEngine {
    config: ReputationConfig,
    peers: BTreeMap<SockAddr, PeerRep>,
    credit: GoodScoreTracker,
    transitions: VecDeque<TierTransition>,
    pending: VecDeque<TierTransition>,
}

/// Cap on the recorded transition history (mirrors `BanMan`'s history cap;
/// the oldest entries are dropped first).
const TRANSITION_HISTORY_CAP: usize = 4096;

impl ReputationEngine {
    /// Creates an engine running `config`.
    pub fn new(config: ReputationConfig) -> Self {
        ReputationEngine {
            config,
            peers: BTreeMap::new(),
            credit: GoodScoreTracker::new(),
            transitions: VecDeque::new(),
            pending: VecDeque::new(),
        }
    }

    /// Recorded tier transitions, oldest first (bounded history).
    pub fn transitions(&self) -> &VecDeque<TierTransition> {
        &self.transitions
    }

    /// Drains the transitions recorded since the last drain, oldest first
    /// (the node forwards these into telemetry; `transitions()` keeps the
    /// bounded history regardless). Taking an empty backlog allocates
    /// nothing.
    pub fn take_transitions(&mut self) -> Vec<TierTransition> {
        Vec::from(std::mem::take(&mut self.pending))
    }

    /// Number of peers with reputation state.
    pub fn tracked_peers(&self) -> usize {
        self.peers.len()
    }

    /// Read access to the embedded credit tracker.
    pub fn credit_tracker(&self) -> &GoodScoreTracker {
        &self.credit
    }

    /// Decayed strike score of `peer` at `now` (0 if never seen).
    pub fn score(&self, now: Nanos, peer: &SockAddr) -> f64 {
        self.peers
            .get(peer)
            .map(|r| self.config.decay(r.strikes, r.scored_at, now))
            .unwrap_or(0.0)
    }

    /// Current tier of `peer` at `now`, accounting for graylist expiry
    /// (read-only: the transition itself is recorded on the next event).
    pub fn tier(&self, now: Nanos, peer: &SockAddr) -> Tier {
        match self.peers.get(peer) {
            None => Tier::Normal,
            Some(r) => match r.tier {
                Tier::Graylist if now >= r.graylist_until => Tier::Probation,
                t => t,
            },
        }
    }

    /// Whether `peer` is currently under the graylist soft-ban.
    pub fn is_graylisted(&self, now: Nanos, peer: &SockAddr) -> bool {
        self.tier(now, peer) == Tier::Graylist
    }

    /// Whether `peer` should be skipped for relay and deprioritized for
    /// outbound selection (graylisted or worse).
    pub fn deprioritized(&self, now: Nanos, peer: &SockAddr) -> bool {
        self.tier(now, peer) >= Tier::Graylist
    }

    /// Drops all state for `peer` (used when an identifier is recycled;
    /// note that ordinary disconnects deliberately do NOT forget strikes —
    /// decay is the only forgiveness, which is what defeats the
    /// reconnect-and-reset Sybil pattern the stock tracker allows).
    pub fn forget(&mut self, peer: &SockAddr) {
        self.peers.remove(peer);
    }

    /// Settles decay, graylist expiry and decay-based promotion for
    /// `peer` at `now`, returning the tier it holds *after* settlement.
    /// Tier changes caused purely by the passage of time (expiry, decay
    /// below a promotion boundary) are recorded here.
    fn settle(&mut self, now: Nanos, peer: SockAddr) -> Tier {
        let cfg = self.config;
        let credit = self.credit.score(now, &peer);
        let mut transition: Option<(Tier, Tier)> = None;
        let tier;
        {
            let rep = self
                .peers
                .entry(peer)
                .or_insert_with(|| PeerRep::fresh(now));
            rep.strikes = cfg.decay(rep.strikes, rep.scored_at, now);
            rep.scored_at = rep.scored_at.max(now);
            let cur = rep.tier;
            let next = match cur {
                // Soft-ban served: re-enter at (at best) Probation with the
                // score clamped to the probation boundary, so one further
                // moderate strike is a second chance, not an instant
                // re-graylist.
                Tier::Graylist if now >= rep.graylist_until => {
                    rep.strikes = rep.strikes.min(PROBATION_THRESHOLD);
                    cfg.ladder(rep.strikes, credit, Tier::Probation)
                }
                // BanMan owns the 24 h connection refusal; once the strikes
                // have decayed below probation the engine's standing
                // recovers too, so a re-admitted identifier is watched, not
                // damned forever. Stock-equivalent scores never decay, so
                // its bans stand.
                Tier::Banned if cfg.tiered() && rep.strikes < PROBATION_THRESHOLD => {
                    cfg.ladder(rep.strikes, credit, cur)
                }
                Tier::Graylist | Tier::Banned => cur,
                _ => cfg.ladder(rep.strikes, credit, cur),
            };
            if next != cur {
                transition = Some((cur, next));
            }
            rep.tier = next;
            tier = next;
        }
        if let Some((from, to)) = transition {
            self.record(now, peer, from, to);
        }
        tier
    }

    fn record(&mut self, time: Nanos, peer: SockAddr, from: Tier, to: Tier) {
        let t = TierTransition {
            time,
            peer,
            from,
            to,
        };
        for log in [&mut self.transitions, &mut self.pending] {
            if log.len() >= TRANSITION_HISTORY_CAP {
                log.pop_front();
            }
            log.push_back(t);
        }
    }

    /// Applies `points` of strike to `peer` and reclassifies. The common
    /// path for rule strikes, raw (ablation) strikes and pressure strikes.
    fn strike(&mut self, now: Nanos, peer: SockAddr, points: f64) -> StrikeOutcome {
        let before = self.settle(now, peer);
        let cfg = self.config;
        let credit = self.credit.score(now, &peer);
        let score = match self.peers.get_mut(&peer) {
            Some(rep) => {
                // lint:allow(score-arith): f64 strikes saturate to +inf rather than wrap; ban fires at the threshold long before
                rep.strikes += points;
                rep.strikes
            }
            // settle() always inserts; unreachable, but no panic path.
            None => {
                return StrikeOutcome {
                    applied: 0.0,
                    score: 0.0,
                    from: before,
                    to: before,
                };
            }
        };
        let mut enter_graylist = false;
        let to = match (before, cfg.kind) {
            (Tier::Banned, _) => Tier::Banned,
            (Tier::Graylist, _) if score >= BAN_THRESHOLD => Tier::Banned,
            (Tier::Graylist, _) => Tier::Graylist,
            (_, ReputationKind::TrustTiers) if score >= GRAYLIST_THRESHOLD => {
                // Every path to a hard ban leads through the graylist: even
                // an over-threshold score only soft-bans on entry.
                enter_graylist = true;
                Tier::Graylist
            }
            (_, ReputationKind::StockEquivalent { threshold }) if score >= f64::from(threshold) => {
                Tier::Banned
            }
            _ => cfg.ladder(score, credit, before),
        };
        if let Some(rep) = self.peers.get_mut(&peer) {
            rep.tier = to;
            if enter_graylist {
                rep.graylist_until = now.saturating_add(GRAYLIST_DURATION);
                rep.gray_allowance = GRAYLIST_MSGS_PER_SEC;
                rep.gray_at = now;
            }
        }
        if before != to {
            self.record(now, peer, before, to);
        }
        StrikeOutcome {
            applied: points,
            score,
            from: before,
            to,
        }
    }

    /// Records a Table-I misbehavior by `peer`. Direction and deprecation
    /// gating match the stock tracker; the points are the rule's tier
    /// weight (its stock penalty in stock-equivalent mode).
    pub fn on_misbehavior(
        &mut self,
        now: Nanos,
        peer: SockAddr,
        inbound: bool,
        rule: Misbehavior,
    ) -> StrikeOutcome {
        if !rule.applies_to(inbound) {
            let t = self.tier(now, &peer);
            return StrikeOutcome {
                applied: 0.0,
                score: self.score(now, &peer),
                from: t,
                to: t,
            };
        }
        let Some(points) = self.config.strike_points(rule) else {
            let t = self.tier(now, &peer);
            return StrikeOutcome {
                applied: 0.0,
                score: self.score(now, &peer),
                from: t,
                to: t,
            };
        };
        self.strike(now, peer, points)
    }

    /// Applies a raw strike outside Table I (the checksum-ablation hook),
    /// graded through the same weight classes as rule strikes.
    pub fn strike_raw(&mut self, now: Nanos, peer: SockAddr, stock_points: u32) -> StrikeOutcome {
        let points = self.config.points(stock_points);
        if points == 0.0 {
            let t = self.tier(now, &peer);
            return StrikeOutcome {
                applied: 0.0,
                score: self.score(now, &peer),
                from: t,
                to: t,
            };
        }
        self.strike(now, peer, points)
    }

    /// Per-message accounting: flood pressure plus the graylist service
    /// rate limit. Call once per checksum-valid frame *before* dispatch;
    /// `deliver == false` means the frame is dropped unprocessed.
    pub fn on_message(&mut self, now: Nanos, peer: SockAddr) -> MessageOutcome {
        let before = self.settle(now, peer);
        let cfg = self.config;
        let mut pressure_due = false;
        let mut deliver = true;
        if let Some(rep) = self.peers.get_mut(&peer) {
            if cfg.tiered() {
                let dt = now.saturating_sub(rep.tokens_at);
                // lint:allow(score-arith): f64 token refill clamped by the min() to the bucket capacity
                rep.tokens = (rep.tokens + dt as f64 / SECS as f64 * PRESSURE_REFILL_PER_SEC)
                    .min(PRESSURE_CAPACITY);
                rep.tokens_at = now;
                if rep.tokens >= 1.0 {
                    // lint:allow(score-arith): guarded by the >= 1.0 branch; cannot underflow
                    rep.tokens -= 1.0;
                } else {
                    let cooled = !rep.pressure_struck
                        || now.saturating_sub(rep.last_pressure_strike)
                            >= PRESSURE_STRIKE_COOLDOWN;
                    if cooled {
                        rep.last_pressure_strike = now;
                        rep.pressure_struck = true;
                        pressure_due = true;
                    }
                }
            }
            if rep.tier == Tier::Graylist {
                let dt = now.saturating_sub(rep.gray_at);
                // lint:allow(score-arith): f64 refill clamped by the min() to the service rate
                rep.gray_allowance = (rep.gray_allowance
                    + dt as f64 / SECS as f64 * GRAYLIST_MSGS_PER_SEC)
                    .min(GRAYLIST_MSGS_PER_SEC);
                rep.gray_at = now;
                if rep.gray_allowance >= 1.0 {
                    // lint:allow(score-arith): guarded by the >= 1.0 branch; cannot underflow
                    rep.gray_allowance -= 1.0;
                } else {
                    deliver = false;
                }
            }
        }
        let to = if pressure_due {
            self.strike(now, peer, PRESSURE_STRIKE).to
        } else {
            self.peers.get(&peer).map(|r| r.tier).unwrap_or(before)
        };
        MessageOutcome {
            deliver,
            pressure_strike: pressure_due,
            from: before,
            to,
        }
    }

    /// Credits `peer` for good behaviour (a valid block): feeds the
    /// embedded [`GoodScoreTracker`] and forgives `CREDIT_FORGIVENESS`
    /// strike points (none in stock-equivalent mode), possibly promoting
    /// the peer.
    pub fn on_good_block(&mut self, now: Nanos, peer: SockAddr) -> StrikeOutcome {
        let before = self.settle(now, peer);
        self.credit.credit(now, peer);
        let cfg = self.config;
        let forgiveness = if cfg.tiered() { CREDIT_FORGIVENESS } else { 0.0 };
        let credit = self.credit.score(now, &peer);
        let mut score = 0.0;
        if let Some(rep) = self.peers.get_mut(&peer) {
            // lint:allow(score-arith): f64 strikes clamped at 0.0 by the max(); floats cannot wrap
            rep.strikes = (rep.strikes - forgiveness).max(0.0);
            score = rep.strikes;
        }
        // Credits never demote and never touch graylist/ban standing.
        let to = match before {
            Tier::Banned | Tier::Graylist => before,
            _ => cfg.ladder(score, credit, before),
        };
        if let Some(rep) = self.peers.get_mut(&peer) {
            rep.tier = to;
        }
        if before != to {
            self.record(now, peer, before, to);
        }
        StrikeOutcome {
            applied: -forgiveness,
            score,
            from: before,
            to,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer(last: u8) -> SockAddr {
        SockAddr::new([10, 0, 0, last], 8333)
    }

    fn engine() -> ReputationEngine {
        ReputationEngine::new(ReputationConfig::default())
    }

    #[test]
    fn severe_fits_graylist_gap() {
        // The graylist-before-ban guarantee: no single weighted penalty
        // may exceed BAN_THRESHOLD - GRAYLIST_THRESHOLD.
        let cfg = ReputationConfig::default();
        let max = super::super::rules::ALL_MISBEHAVIORS
            .into_iter()
            .filter_map(|m| cfg.strike_points(m))
            .fold(0.0f64, f64::max);
        assert!(max <= BAN_THRESHOLD - GRAYLIST_THRESHOLD);
    }

    #[test]
    fn severe_strikes_pass_through_graylist_before_ban() {
        let mut e = engine();
        let p = peer(1);
        // 40 → Probation, 80 → Graylist (never straight to ban).
        assert_eq!(
            e.on_misbehavior(0, p, true, Misbehavior::BlockMutated).to,
            Tier::Probation
        );
        let o = e.on_misbehavior(1, p, true, Misbehavior::BlockMutated);
        assert!(o.graylisted(), "{o:?}");
        // Third severe strike from within the graylist: hard ban.
        let o = e.on_misbehavior(2, p, true, Misbehavior::BlockMutated);
        assert!(o.banned(), "{o:?}");
    }

    #[test]
    fn decay_forgives_stale_strikes() {
        let mut e = engine();
        let p = peer(2);
        e.on_misbehavior(0, p, true, Misbehavior::BlockMutated);
        assert_eq!(e.score(0, &p), 40.0);
        assert_eq!(e.score(HALF_LIFE, &p), 20.0);
        assert_eq!(e.score(2 * HALF_LIFE, &p), 10.0);
        assert!(e.score(100 * HALF_LIFE, &p) < 1e-9);
    }

    #[test]
    fn graylist_expires_into_probation() {
        let mut e = engine();
        let p = peer(3);
        e.on_misbehavior(0, p, true, Misbehavior::BlockMutated);
        e.on_misbehavior(1, p, true, Misbehavior::BlockMutated);
        assert_eq!(e.tier(1, &p), Tier::Graylist);
        let until = 1 + GRAYLIST_DURATION;
        assert_eq!(e.tier(until - 1, &p), Tier::Graylist);
        assert_eq!(e.tier(until, &p), Tier::Probation);
        // The settled score is clamped to the probation boundary.
        let o = e.on_message(until, p);
        assert!(o.deliver, "served sentence still rate-limited");
        assert_eq!(o.from, Tier::Probation);
        assert!(e.score(until, &p) <= PROBATION_THRESHOLD);
    }

    #[test]
    fn graylist_rate_limits_service() {
        let mut e = engine();
        let p = peer(4);
        e.on_misbehavior(0, p, true, Misbehavior::BlockMutated);
        e.on_misbehavior(0, p, true, Misbehavior::BlockMutated);
        assert_eq!(e.tier(0, &p), Tier::Graylist);
        // The 1-second allowance (5 msgs) drains, then frames drop.
        let mut delivered = 0;
        for _ in 0..20 {
            if e.on_message(1, p).deliver {
                delivered += 1;
            }
        }
        assert_eq!(delivered, GRAYLIST_MSGS_PER_SEC as usize);
        // Allowance refills with sim time.
        assert!(e.on_message(1 + SECS, p).deliver);
    }

    #[test]
    fn normal_peers_are_not_rate_limited() {
        let mut e = engine();
        let p = peer(5);
        for _ in 0..100 {
            assert!(e.on_message(0, p).deliver);
        }
    }

    #[test]
    fn flood_pressure_strikes_unprotected_floods() {
        let mut e = engine();
        let p = peer(6);
        // Burst far past the bucket capacity at t=0: the bucket drains and
        // exactly one strike fires (cooldown gates the rest).
        let cap = PRESSURE_CAPACITY as usize;
        let mut strikes = 0;
        for _ in 0..cap + 50 {
            if e.on_message(0, p).pressure_strike {
                strikes += 1;
            }
        }
        assert_eq!(strikes, 1);
        assert_eq!(e.score(0, &p), PRESSURE_STRIKE);
        // A sustained flood keeps striking once per cooldown and
        // eventually graylists the flooder.
        let mut t = 0;
        for _ in 0..1000 {
            t += PRESSURE_STRIKE_COOLDOWN;
            for _ in 0..200 {
                e.on_message(t, p);
            }
            if e.tier(t, &p) == Tier::Graylist {
                break;
            }
        }
        assert_eq!(e.tier(t, &p), Tier::Graylist);
    }

    #[test]
    fn credit_promotes_to_trusted_and_forgives() {
        let mut e = engine();
        let p = peer(7);
        e.on_misbehavior(0, p, true, Misbehavior::AddrOversize); // 15 points
        assert_eq!(e.tier(0, &p), Tier::Normal);
        for _ in 0..TRUSTED_MIN_CREDIT {
            e.on_good_block(0, p);
        }
        // 15 - 3*2 = 9 strikes, credit 3 → Trusted.
        assert_eq!(e.score(0, &p), 9.0);
        assert_eq!(e.tier(0, &p), Tier::Trusted);
    }

    #[test]
    fn hysteresis_holds_probation_near_boundary() {
        let mut e = engine();
        let p = peer(8);
        e.on_misbehavior(0, p, true, Misbehavior::AddrOversize);
        e.on_misbehavior(0, p, true, Misbehavior::AddrOversize);
        assert_eq!(e.tier(0, &p), Tier::Probation); // 30 points
        // Decay to just inside the hysteresis band: still Probation.
        let hl = HALF_LIFE;
        // 30 → 21.2 after ~half a half-life: > 20 (= 30 - 10) → held.
        let t = hl / 2;
        let o = e.on_message(t, p);
        assert_eq!(o.to, Tier::Probation);
        // Decay below the band: promoted back to Normal.
        let t2 = 2 * hl; // 30 → 7.5
        let o = e.on_message(t2, p);
        assert_eq!(o.to, Tier::Normal);
    }

    #[test]
    fn banned_standing_recovers_after_decay() {
        let mut e = engine();
        let p = peer(9);
        for t in 0..3 {
            e.on_misbehavior(t, p, true, Misbehavior::BlockMutated);
        }
        assert_eq!(e.tier(2, &p), Tier::Banned);
        // 120 strikes decay to 15 after three half-lives — below the
        // probation threshold AND the hysteresis band, so the standing
        // recovers all the way to Normal (BanMan still gates reconnects).
        let t = 2 + 3 * HALF_LIFE;
        e.on_message(t, p);
        assert_eq!(e.tier(t, &p), Tier::Normal);
        // Within the hysteresis band ((20, 30): ~2.2 half-lives) the
        // recovery lands at Probation instead.
        let mut e2 = engine();
        for t in 0..3 {
            e2.on_misbehavior(t, p, true, Misbehavior::BlockMutated);
        }
        let t2 = 2 + (2 * HALF_LIFE + HALF_LIFE / 4);
        e2.on_message(t2, p);
        assert_eq!(e2.tier(t2, &p), Tier::Probation);
    }

    #[test]
    fn direction_and_deprecation_gating_matches_stock() {
        let mut e = engine();
        // Outbound-only rule ignored for inbound peer.
        let o = e.on_misbehavior(0, peer(10), true, Misbehavior::BlockCachedInvalid);
        assert_eq!(o.applied, 0.0);
        // Deprecated rule ignored under 0.22.
        let mut e22 = ReputationEngine::new(ReputationConfig {
            version: CoreVersion::V0_22,
            ..ReputationConfig::default()
        });
        let o = e22.on_misbehavior(0, peer(10), true, Misbehavior::DuplicateVersion);
        assert_eq!(o.applied, 0.0);
    }

    #[test]
    fn stock_equivalent_bans_at_stock_threshold() {
        let mut e = ReputationEngine::new(ReputationConfig::stock_equivalent(
            CoreVersion::V0_20,
            100,
        ));
        let p = peer(11);
        for i in 0..4 {
            let o = e.on_misbehavior(i, p, true, Misbehavior::AddrOversize);
            assert!(!o.banned(), "banned early at {i}: {o:?}");
        }
        let o = e.on_misbehavior(4, p, true, Misbehavior::AddrOversize);
        assert!(o.banned(), "{o:?}");
        assert_eq!(o.score, 100.0);
    }

    #[test]
    fn transitions_are_recorded_and_bounded() {
        let mut e = engine();
        let p = peer(12);
        e.on_misbehavior(0, p, true, Misbehavior::BlockMutated);
        e.on_misbehavior(1, p, true, Misbehavior::BlockMutated);
        let ts = e.transitions();
        assert_eq!(ts.len(), 2);
        assert_eq!(
            (ts[0].from, ts[0].to, ts[1].from, ts[1].to),
            (Tier::Normal, Tier::Probation, Tier::Probation, Tier::Graylist)
        );
        // History stays bounded under adversarial churn.
        for i in 0..2 * TRANSITION_HISTORY_CAP {
            let q = SockAddr::new([10, 1, (i >> 8) as u8, i as u8], 9000);
            e.on_misbehavior(0, q, true, Misbehavior::BlockMutated);
        }
        assert!(e.transitions().len() <= TRANSITION_HISTORY_CAP);
    }

    #[test]
    fn full_transition_logs_evict_oldest_first() {
        let mut e = engine();
        let p = peer(14);
        let extra = 3;
        for t in 0..(TRANSITION_HISTORY_CAP + extra) as Nanos {
            e.record(t, p, Tier::Normal, Tier::Probation);
        }
        let first = extra as Nanos;
        let last = (TRANSITION_HISTORY_CAP + extra - 1) as Nanos;
        let ts = e.transitions();
        assert_eq!(ts.len(), TRANSITION_HISTORY_CAP);
        assert_eq!((ts.front().map(|t| t.time), ts.back().map(|t| t.time)), (Some(first), Some(last)));
        let pending = e.take_transitions();
        assert_eq!(pending.len(), TRANSITION_HISTORY_CAP);
        assert_eq!((pending[0].time, pending[pending.len() - 1].time), (first, last));
    }

    #[test]
    fn forget_drops_state() {
        let mut e = engine();
        let p = peer(13);
        e.on_misbehavior(0, p, true, Misbehavior::BlockMutated);
        assert_eq!(e.tracked_peers(), 1);
        e.forget(&p);
        assert_eq!(e.tracked_peers(), 0);
        assert_eq!(e.score(0, &p), 0.0);
    }
}
