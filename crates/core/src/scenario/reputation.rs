//! `repro reputation` — the trust-tier reputation engine versus the stock
//! ban cliff across every threat the paper raises, with the paper's
//! detector judging each run.
//!
//! The sweep runs the same attack cases against two peer policies:
//!
//! * **stock** — Table-I points, 100 → 24 h hard ban (the paper's victim);
//! * **trust-tiers** — the [`btc_node::banscore::ReputationEngine`]:
//!   weighted penalties, sim-time decay, graylist soft-bans, hard ban only
//!   from within the graylist.
//!
//! The §VII anomaly detector, trained on clean traffic, evaluates every
//! row's measured telemetry (`det?`, `lat(s)`). It *observes* only: the
//! ban mechanism is unchanged, exactly the paper's proposal.
//!
//! Cases: `bm-dos` (serial-Sybil PING flood — *no* Table-I rule covers it,
//! so the stock tracker never moves), `defamation` (spoofed strikes on the
//! target's innocent peers, the 24 h false-ban amplifier), and ≥ 2
//! honest-churn points from the fault-matrix grid (link flaps, no
//! attacker — the false-positive probe). A swarm case pins the tier
//! engine inside the sharded 100k-host simulator and checks its digest is
//! invariant across worker counts.
//!
//! The headline numbers: whether the flood is finally *punished* (tiers
//! graylist the flooder where stock scores nothing), and the
//! recovery-time delta for defamed innocents — a graylist expires into
//! Probation after [`btc_node::banscore::ReputationConfig::graylist_duration`]
//! while a stock ban excludes the identifier for 24 hours.
//!
//! Everything below is deterministic: fixed per-case seeds, sim-time-only
//! state, [`btc_par::par_map`] preserving input order — `--jobs N` output
//! is byte-identical for any `N`.

use crate::scenario::fault_matrix::FaultPoint;
use crate::scenario::swarm::{SwarmBed, SwarmSpec};
use crate::testbed::{
    first_alarm_s, hardened_node, train_profile, Case, Testbed, TestbedConfig, PACED_POLL, SETTLE,
};
use btc_detect::engine::{AnalysisEngine, Profile};
use btc_netsim::packet::{Ipv4, SockAddr};
use btc_netsim::time::{Nanos, MINUTES, SECS};
use btc_node::node::{Node, NodeConfig, PeerPolicy};
use btc_node::Tier;
use std::collections::{BTreeMap, BTreeSet};

/// The compared policies with their row labels, in presentation order.
/// Both run on the hardened target (the fault-matrix sweep's resilience
/// knobs, so the churn dimension exercises eviction and redial).
const POLICIES: [(PeerPolicy, &str); 2] = [
    (PeerPolicy::Stock, "stock"),
    (PeerPolicy::TrustTiers, "trust-tiers"),
];

fn policy_node(peer_policy: PeerPolicy) -> NodeConfig {
    NodeConfig {
        peer_policy,
        ..hardened_node()
    }
}

/// One attack/traffic case of the sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepCase {
    /// Serial-Sybil PING flood (reconnect-on-ban).
    BmDos,
    /// Post-connection Defamation against the target's innocent peers.
    Defamation,
    /// No attacker; scheduled link flaps at this many per minute (a
    /// fault-matrix churn grid point).
    Churn(u32),
}

impl SweepCase {
    /// Stable label, e.g. `bm-dos` or `churn=5`.
    pub fn label(&self) -> String {
        match self {
            SweepCase::BmDos => "bm-dos".to_owned(),
            SweepCase::Defamation => "defamation".to_owned(),
            SweepCase::Churn(fpm) => format!("churn={fpm}"),
        }
    }

    /// The per-case seed — identical across policies, so row differences
    /// are attributable to the policy alone.
    fn seed(&self) -> u64 {
        match self {
            SweepCase::BmDos => 3,
            SweepCase::Defamation => 4,
            SweepCase::Churn(fpm) => 100 + u64::from(*fpm),
        }
    }

    /// The traffic case on the bed (churn is clean traffic under a flap
    /// plan).
    fn traffic(&self) -> Case {
        match self {
            SweepCase::BmDos => Case::PingFlood { sybil: true },
            SweepCase::Defamation => Case::Defamation { poll: PACED_POLL },
            SweepCase::Churn(_) => Case::Normal,
        }
    }

    /// The fault-matrix grid point the case runs at: clean links, and
    /// honest churn at the case's rate.
    fn point(&self) -> FaultPoint {
        let churn_fpm = match self {
            SweepCase::Churn(fpm) => *fpm,
            _ => 0,
        };
        FaultPoint {
            churn_fpm,
            ..FaultPoint::CLEAN
        }
    }
}

/// The swarm pinning case: the tier-engine target embedded in a sharded
/// background swarm under a PING flood.
#[derive(Clone, Copy, Debug)]
pub struct SwarmTierSpec {
    /// Background swarm hosts (the attack core adds a few more).
    pub swarm_hosts: usize,
    /// Region count (part of the experiment configuration).
    pub regions: u32,
    /// Worker threads — a pure execution knob; the outcome must not
    /// change with it.
    pub workers: usize,
    /// Measured virtual duration.
    pub dur: Nanos,
    /// Innocent peers the target dials.
    pub innocents: usize,
    /// Simulation seed.
    pub seed: u64,
}

/// Sweep configuration.
#[derive(Clone, Debug)]
pub struct ReputationSweepConfig {
    /// Clean-traffic training duration for the detector.
    pub train: Nanos,
    /// Detection window length.
    pub window: Nanos,
    /// Measured duration per case (after a one-minute settle).
    pub test: Nanos,
    /// Innocent listening nodes the target draws outbound peers from.
    pub innocents: usize,
    /// Honest-churn grid points (flaps per minute); at least two.
    pub churn_points: Vec<u32>,
    /// The swarm pinning case.
    pub swarm: SwarmTierSpec,
}

impl ReputationSweepConfig {
    /// The full sweep.
    pub fn full() -> Self {
        ReputationSweepConfig {
            train: 15 * MINUTES,
            window: MINUTES,
            test: 5 * MINUTES,
            innocents: 12,
            churn_points: vec![5, 10],
            swarm: SwarmTierSpec {
                swarm_hosts: 10_000,
                regions: 8,
                workers: 4,
                dur: 3 * SECS,
                innocents: 4,
                seed: 7,
            },
        }
    }

    /// A faster sweep for smoke runs (same shape: both attacks plus two
    /// churn points).
    pub fn quick() -> Self {
        ReputationSweepConfig {
            train: 8 * MINUTES,
            window: MINUTES,
            test: 3 * MINUTES,
            innocents: 8,
            churn_points: vec![5, 10],
            swarm: SwarmTierSpec {
                swarm_hosts: 300,
                regions: 5,
                workers: 2,
                dur: 2 * SECS,
                innocents: 4,
                seed: 7,
            },
        }
    }

    fn cases(&self) -> Vec<SweepCase> {
        let mut cases = vec![SweepCase::BmDos, SweepCase::Defamation];
        cases.extend(self.churn_points.iter().map(|f| SweepCase::Churn(*f)));
        cases
    }
}

/// One `(policy, case)` row of the sweep.
#[derive(Clone, Debug)]
pub struct PolicyCaseRow {
    /// The policy label: `stock` or `trust-tiers`.
    pub policy: &'static str,
    /// The case label.
    pub case: String,
    /// Hard (24 h, `BanMan`) bans the target issued.
    pub bans: u64,
    /// Graylist soft-bans (tiers policy only).
    pub graylists: u64,
    /// Frames dropped by the graylist service rate limit.
    pub graylist_dropped: u64,
    /// Tier transitions recorded in telemetry.
    pub tier_changes: u64,
    /// Innocent identifiers excluded from service at least once (hard ban
    /// or graylist).
    pub innocents_excluded: usize,
    /// Mean seconds an excluded innocent stays out of service (`NaN` when
    /// none were excluded). Stock bans run the full 24 h; graylists
    /// measured to the observed re-entry, or the configured duration.
    pub recovery_s: f64,
    /// The detector's aggregate verdict over the measured span.
    pub detected: bool,
    /// Seconds to the first anomalous window (`NaN` when none fires).
    pub latency_s: f64,
    /// Messages the target processed.
    pub target_msgs: u64,
    /// Outbound peers still connected at the end.
    pub outbound_at_end: usize,
}

/// The deterministic outcome of the swarm pinning case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwarmTierOutcome {
    /// Total hosts simulated.
    pub hosts: usize,
    /// FNV-1a over the run's observable state (the CI anchor).
    pub digest: u64,
    /// Messages the tier-engine target processed.
    pub target_msgs: u64,
    /// Hard bans the target issued.
    pub bans: u64,
    /// Graylist entries.
    pub graylists: u64,
    /// Frames dropped by the graylist rate limit.
    pub graylist_dropped: u64,
}

/// The full sweep result.
#[derive(Clone, Debug)]
pub struct ReputationResult {
    /// Detector profile trained on clean traffic.
    pub profile: Profile,
    /// Case labels, in presentation order.
    pub cases: Vec<String>,
    /// One row per `(case, policy)`, grouped by case, `stock` first.
    pub rows: Vec<PolicyCaseRow>,
    /// The swarm pinning outcome.
    pub swarm: SwarmTierOutcome,
    /// Stock hard-ban duration in seconds (the 24 h reference).
    pub stock_ban_s: f64,
    /// Graylist soft-ban duration in seconds.
    pub graylist_s: f64,
}

impl ReputationResult {
    /// The row for `(policy, case)`.
    ///
    /// # Panics
    ///
    /// Panics when the pair was not part of the sweep.
    pub fn row(&self, policy: &str, case: &str) -> &PolicyCaseRow {
        self.rows
            .iter()
            .find(|r| r.policy == policy && r.case == case)
            .expect("row present")
    }

    /// `(stock, trust-tiers)` mean innocent recovery seconds under
    /// Defamation — the headline graylist-vs-24h-ban delta.
    pub fn defamation_recovery(&self) -> (f64, f64) {
        (
            self.row("stock", "defamation").recovery_s,
            self.row("trust-tiers", "defamation").recovery_s,
        )
    }
}

/// Mean seconds an excluded innocent identifier stays out of service.
///
/// Stock: every innocent in the ban log is out for the full ban duration
/// (no run is 24 h long, so none recover in-run). Tiers: graylist spans
/// measured from the telemetry tier stream — entry to observed
/// re-admission, or the configured duration when the run ends first; a
/// hard-banned innocent counts the full ban duration.
fn innocent_exclusion(node: &Node, innocent_ips: &BTreeSet<Ipv4>) -> (usize, f64) {
    let ban_s = node.banman.ban_duration() as f64 / SECS as f64;
    let gray_s = node.reputation.config().graylist_duration as f64 / SECS as f64;
    let mut excluded: BTreeSet<SockAddr> = BTreeSet::new();
    let mut spans: Vec<f64> = Vec::new();
    // Hard bans (both policies) from the ban log.
    for (_, addr) in node.banman.history() {
        if innocent_ips.contains(&addr.ip) && excluded.insert(*addr) {
            spans.push(ban_s);
        }
    }
    // Graylist spans from the tier stream (tiers policy only; empty
    // otherwise).
    let mut entered: BTreeMap<SockAddr, Nanos> = BTreeMap::new();
    for tc in &node.telemetry.tier_changes {
        if !innocent_ips.contains(&tc.peer.ip) {
            continue;
        }
        if tc.to == Tier::Graylist {
            entered.entry(tc.peer).or_insert(tc.time);
            excluded.insert(tc.peer);
        } else if tc.from == Tier::Graylist && tc.to != Tier::Banned {
            if let Some(t0) = entered.remove(&tc.peer) {
                spans.push(tc.time.saturating_sub(t0) as f64 / SECS as f64);
            }
        }
        // Graylist → Banned: already counted as a hard ban above.
    }
    // Still graylisted when the run ended: the soft-ban runs its course.
    spans.extend(entered.iter().map(|_| gray_s));
    let mean = if spans.is_empty() {
        f64::NAN
    } else {
        spans.iter().sum::<f64>() / spans.len() as f64
    };
    (excluded.len(), mean)
}

/// Runs one `(policy, case)` simulation and judges it against the (shared,
/// immutable) clean profile — plain data out, so it can execute on a
/// worker thread.
fn run_case(
    (peer_policy, label): (PeerPolicy, &'static str),
    case: SweepCase,
    cfg: &ReputationSweepConfig,
    profile: &Profile,
) -> PolicyCaseRow {
    let mut tb = Testbed::build(TestbedConfig {
        node: policy_node(peer_policy),
        ..case.point().bed(cfg.innocents, case.seed(), cfg.test)
    });
    tb.attack(case.traffic());
    let end = SETTLE + cfg.test;
    tb.sim.run_for(end);
    let innocent_ips: BTreeSet<Ipv4> = tb.innocent_ips.iter().copied().collect();
    let node = tb.target_node();
    let (innocents_excluded, recovery_s) = innocent_exclusion(node, &innocent_ips);
    let windows = tb.windows(SETTLE, end, cfg.window);
    PolicyCaseRow {
        policy: label,
        case: case.label(),
        bans: node.telemetry.bans,
        graylists: node.telemetry.graylists,
        graylist_dropped: node.telemetry.graylist_dropped,
        tier_changes: node.telemetry.tier_changes.len() as u64,
        innocents_excluded,
        recovery_s,
        detected: AnalysisEngine
            .detect(profile, &tb.single_window(SETTLE, end))
            .anomalous,
        latency_s: first_alarm_s(profile, &windows, cfg.window),
        target_msgs: node.telemetry.messages.len() as u64,
        outbound_at_end: node.outbound_count(),
    }
}

/// The swarm pinning case: a trust-tier target + PING flooder in region 0
/// of a sharded swarm. The outcome (incl. digest) must be identical for
/// any worker count.
///
/// # Panics
///
/// Panics when the target host is missing (it never is).
pub fn run_swarm_tiers(spec: &SwarmTierSpec) -> SwarmTierOutcome {
    let swarm = SwarmSpec {
        case: "bm-dos",
        swarm_hosts: spec.swarm_hosts,
        regions: spec.regions,
        workers: spec.workers,
        dur: spec.dur,
        innocents: spec.innocents,
        seed: spec.seed,
    };
    let bed = SwarmBed::run(&swarm, policy_node(PeerPolicy::TrustTiers), 0);
    let node = bed.target_node();
    let (target_msgs, bans, graylists, graylist_dropped) = (
        node.telemetry.messages.len() as u64,
        node.telemetry.bans,
        node.telemetry.graylists,
        node.telemetry.graylist_dropped,
    );
    let tier_changes = node.telemetry.tier_changes.len() as u64;
    let facts = [
        bed.sim.delivered_packets(),
        target_msgs,
        bans,
        graylists,
        graylist_dropped,
        tier_changes,
    ];
    let samples = bed.samples();
    SwarmTierOutcome {
        hosts: bed.hosts,
        digest: bed.digest(&samples, 4, &facts, &[]),
        target_msgs,
        bans,
        graylists,
        graylist_dropped,
    }
}

/// Runs the sweep with its cases fanned across `jobs` workers. Each case
/// simulates a stock and a trust-tier node. Results are byte-identical for
/// any job count.
///
/// # Panics
///
/// Panics when detector training produces no windows (the configured
/// training span is always long enough).
pub fn run_reputation(cfg: &ReputationSweepConfig, jobs: usize) -> ReputationResult {
    // Train the detector once, on clean stock traffic.
    let clean = FaultPoint::CLEAN.bed(cfg.innocents, 1, cfg.test);
    let (profile, _) = train_profile(clean, cfg.train, cfg.window);

    let cases = cfg.cases();
    let rows = btc_par::par_map(jobs, cases.clone(), |case| {
        POLICIES.map(|policy| run_case(policy, case, cfg, &profile))
    })
    .into_iter()
    .flatten()
    .collect();
    let swarm = run_swarm_tiers(&cfg.swarm);
    let reference = NodeConfig::default();
    ReputationResult {
        profile,
        cases: cases.iter().map(SweepCase::label).collect(),
        rows,
        swarm,
        stock_ban_s: reference.ban_duration as f64 / SECS as f64,
        graylist_s: reference.reputation.graylist_duration as f64 / SECS as f64,
    }
}

/// Renders the sweep as text.
pub fn render_reputation(r: &ReputationResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Reputation sweep, stock vs trust-tiers (detector trained clean: \
         τ_n = [{:.0}, {:.0}]/min, τ_c ≤ {:.1}/min, τ_Λ = {:.3})",
        r.profile.tau_n.0, r.profile.tau_n.1, r.profile.tau_c.1, r.profile.tau_lambda
    );
    let _ = writeln!(
        out,
        "{:<12} {:<12} {:>6} {:>6} {:>9} {:>6} {:>5} {:>11} {:>5} {:>7} {:>8} {:>4}",
        "case",
        "policy",
        "bans",
        "gray",
        "dropped",
        "tier∆",
        "excl",
        "recovery(s)",
        "det?",
        "lat(s)",
        "msgs",
        "out"
    );
    for case in &r.cases {
        for (_, label) in POLICIES {
            let row = r.row(label, case);
            let _ = writeln!(
                out,
                "{:<12} {:<12} {:>6} {:>6} {:>9} {:>6} {:>5} {:>11.0} {:>5} {:>7.0} {:>8} {:>4}",
                row.case,
                row.policy,
                row.bans,
                row.graylists,
                row.graylist_dropped,
                row.tier_changes,
                row.innocents_excluded,
                row.recovery_s,
                if row.detected { "yes" } else { "-" },
                row.latency_s,
                row.target_msgs,
                row.outbound_at_end,
            );
        }
    }
    let (stock_rec, tiers_rec) = r.defamation_recovery();
    if stock_rec.is_finite() && tiers_rec.is_finite() && tiers_rec > 0.0 {
        let _ = writeln!(
            out,
            "defamation recovery: stock {stock_rec:.0} s (24 h identifier ban) vs \
             trust-tiers {tiers_rec:.0} s — {:.0}x faster re-admission",
            stock_rec / tiers_rec
        );
    } else {
        let _ = writeln!(
            out,
            "defamation recovery: stock {stock_rec:.0} s vs trust-tiers {tiers_rec:.0} s \
             (graylist duration {:.0} s, stock ban {:.0} s)",
            r.graylist_s, r.stock_ban_s
        );
    }
    let s = &r.swarm;
    let _ = writeln!(
        out,
        "swarm[digest]: hosts={} digest={:016x} target_msgs={} bans={} graylists={} dropped={}",
        s.hosts, s.digest, s.target_msgs, s.bans, s.graylists, s.graylist_dropped
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn tiny() -> ReputationSweepConfig {
        ReputationSweepConfig {
            train: 6 * MINUTES,
            window: MINUTES,
            test: 2 * MINUTES,
            innocents: 6,
            churn_points: vec![5],
            swarm: SwarmTierSpec {
                swarm_hosts: 120,
                regions: 4,
                workers: 2,
                dur: 2 * SECS,
                innocents: 3,
                seed: 7,
            },
        }
    }

    /// The serial sweep over [`tiny`], run once and shared by the tests that
    /// only read it.
    fn tiny_result() -> &'static ReputationResult {
        static RESULT: OnceLock<ReputationResult> = OnceLock::new();
        RESULT.get_or_init(|| run_reputation(&tiny(), 1))
    }

    #[test]
    fn tiers_punish_the_flood_that_stock_ignores() {
        let r = tiny_result();
        let stock = r.row("stock", "bm-dos");
        let tiers = r.row("trust-tiers", "bm-dos");
        // No Table-I rule covers PING: the stock tracker never moves.
        assert_eq!(stock.bans, 0, "{stock:?}");
        // The flood-pressure bucket does: the flooder is graylisted.
        assert!(tiers.graylists > 0, "{tiers:?}");
        assert!(tiers.graylist_dropped > 0, "{tiers:?}");
    }

    #[test]
    fn graylist_recovers_faster_than_the_stock_ban() {
        let r = tiny_result();
        let (stock_rec, tiers_rec) = r.defamation_recovery();
        let stock = r.row("stock", "defamation");
        let tiers = r.row("trust-tiers", "defamation");
        assert!(stock.innocents_excluded > 0, "{stock:?}");
        assert!(tiers.innocents_excluded > 0, "{tiers:?}");
        // Sim-time facts: the 24 h `BanMan` ban vs the 120 s graylist sentence.
        assert!(
            stock_rec >= 100.0 * tiers_rec,
            "graylist did not beat the 24 h ban 100x: {tiers_rec} vs {stock_rec}"
        );
    }

    #[test]
    fn honest_churn_excludes_no_innocents() {
        let r = tiny_result();
        for (_, label) in POLICIES {
            let row = r.row(label, "churn=5");
            assert_eq!(row.innocents_excluded, 0, "{row:?}");
            assert_eq!(row.bans, 0, "{row:?}");
        }
    }

    #[test]
    fn swarm_outcome_is_invariant_across_worker_counts() {
        let mut spec = tiny().swarm;
        spec.workers = 1;
        let base = run_swarm_tiers(&spec);
        spec.workers = 3;
        let multi = run_swarm_tiers(&spec);
        assert_eq!(base, multi, "outcome diverged across workers");
        assert!(base.target_msgs > 0, "target silent");
    }

    #[test]
    fn jobs_do_not_change_the_rendered_output() {
        let cfg = tiny();
        let a = render_reputation(&run_reputation(&cfg, 1));
        let b = render_reputation(&run_reputation(&cfg, 4));
        assert_eq!(a, b);
    }
}
