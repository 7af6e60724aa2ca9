//! §VIII: the potential countermeasures that *do* change the node —
//! forgoing the ban score (threshold → ∞ or fully disabled), the
//! good-score mechanism, and the authentication-overhead estimate.

use crate::testbed::{addrs, Case, Testbed, TestbedConfig};
use btc_attack::defamation::PostConnDefamer;
use btc_netsim::time::{MILLIS, SECS};
use btc_node::chain::mine_child;
use btc_node::node::{NodeConfig, PeerPolicy};

/// Outcome of running the Defamation attack under one node policy.
#[derive(Clone, Debug, PartialEq)]
pub struct CounterOutcome {
    /// Policy name.
    pub policy: &'static str,
    /// Whether the innocent peer's identifier ended up banned.
    pub innocent_banned: bool,
    /// Whether the innocent peer was still connected at the end.
    pub innocent_connected: bool,
    /// The innocent identifier's final misbehavior score at the target.
    pub innocent_score: u32,
    /// Whether the misbehavior (the forged frames) was still *observed*.
    pub strikes_delivered: bool,
}

fn run_defamation_under(policy: PeerPolicy, name: &'static str) -> CounterOutcome {
    let mut tb = Testbed::build(TestbedConfig {
        feeders: 0,
        innocents: 1,
        target_outbound: 1,
        node: NodeConfig {
            peer_policy: policy,
            ..NodeConfig::default()
        },
        ..TestbedConfig::default()
    });
    let innocent_ip = tb.innocent_ips[0];
    // The attacker sniffs from the start (same-LAN promiscuous mode), but
    // under good-score it waits until the innocent has earned credit.
    tb.attack(Case::Defamation { poll: 50 * MILLIS });
    if let PeerPolicy::GoodScore { .. } = policy {
        let defamer: &mut PostConnDefamer = tb.sim.app_mut(addrs::ATTACKER).expect("defamer");
        defamer.start_after = 6 * SECS;
        // Let the innocent earn credit by relaying one valid block.
        tb.sim.run_for(2 * SECS);
        let innocent: &mut btc_node::Node = tb.sim.app_mut(innocent_ip).expect("innocent node");
        let tip = innocent.chain.tip();
        let hdr = innocent.chain.block(&tip).expect("genesis").header;
        innocent.submit_block(mine_child(&hdr, tip, 777, vec![]));
        tb.sim.run_for(3 * SECS);
    }
    tb.sim.run_for(10 * SECS);
    let strikes = {
        let d: &PostConnDefamer = tb.sim.app(addrs::ATTACKER).expect("defamer");
        !d.records.is_empty()
    };
    let node = tb.target_node();
    let innocent_addr = btc_netsim::packet::SockAddr::new(innocent_ip, 8333);
    CounterOutcome {
        policy: name,
        innocent_banned: node
            .banman
            .history()
            .iter()
            .any(|(_, a)| a.ip == innocent_ip),
        innocent_connected: node.peer_by_addr(&innocent_addr).is_some(),
        innocent_score: node.ban_score(&innocent_addr),
        strikes_delivered: strikes,
    }
}

/// Runs the Defamation attack under every §VIII policy.
pub fn evaluate_countermeasures() -> Vec<CounterOutcome> {
    [
        (PeerPolicy::Stock, "standard (0.20.0)"),
        (PeerPolicy::NeverBan, "threshold → ∞"),
        (PeerPolicy::Disabled, "checking disabled"),
        (PeerPolicy::GoodScore { min_credit: 1 }, "good-score"),
    ]
    .into_iter()
    .map(|(policy, name)| run_defamation_under(policy, name))
    .collect()
}

/// Renders the countermeasure table.
pub fn render_countermeasures(rows: &[CounterOutcome]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "{:<20} {:>16} {:>12} {:>8} {:>10}",
        "Policy", "Innocent banned", "Connected", "Score", "Strikes"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:<20} {:>16} {:>12} {:>8} {:>10}",
            r.policy,
            r.innocent_banned,
            r.innocent_connected,
            r.innocent_score,
            r.strikes_delivered
        )
        .unwrap();
    }
    out
}

/// §VIII's authentication cost estimate for encrypting every connection
/// (BIP324-style).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AuthOverhead {
    /// Node count (the paper cites >60 000).
    pub nodes: u64,
    /// Connections per node (the paper cites 34, after Decker &
    /// Wattenhofer).
    pub connections_per_node: u64,
    /// Distinct connections network-wide (each shared by two nodes).
    pub total_connections: u64,
    /// Asymmetric handshakes to key them all once.
    pub handshakes: u64,
    /// CPU-seconds for those handshakes (X25519 ≈ 50 µs/side ×2).
    pub handshake_cpu_seconds: f64,
    /// Added bytes per message (MAC tag + rekey overhead amortized).
    pub per_message_overhead_bytes: u64,
}

/// Computes the §VIII estimate.
pub fn auth_overhead(nodes: u64, connections_per_node: u64) -> AuthOverhead {
    let total_connections = nodes * connections_per_node / 2;
    let handshakes = total_connections;
    AuthOverhead {
        nodes,
        connections_per_node,
        total_connections,
        handshakes,
        handshake_cpu_seconds: handshakes as f64 * 2.0 * 50e-6,
        per_message_overhead_bytes: 16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_policy_bans_the_innocent() {
        let r = run_defamation_under(PeerPolicy::Stock, "standard");
        assert!(r.strikes_delivered);
        assert!(r.innocent_banned, "{r:?}");
        assert!(!r.innocent_connected);
    }

    #[test]
    fn infinite_threshold_keeps_score_but_never_bans() {
        let r = run_defamation_under(PeerPolicy::NeverBan, "neverban");
        assert!(r.strikes_delivered);
        assert!(!r.innocent_banned);
        assert!(r.innocent_connected, "{r:?}");
        // Misbehavior tracking still works (usable for peer-health ranking).
        assert!(r.innocent_score >= 100, "score {}", r.innocent_score);
    }

    #[test]
    fn disabled_checking_tracks_nothing() {
        let r = run_defamation_under(PeerPolicy::Disabled, "disabled");
        assert!(!r.innocent_banned);
        assert!(r.innocent_connected);
        assert_eq!(r.innocent_score, 0);
    }

    #[test]
    fn good_score_shields_peers_with_history() {
        let r = run_defamation_under(PeerPolicy::GoodScore { min_credit: 1 }, "goodscore");
        assert!(r.strikes_delivered);
        assert!(!r.innocent_banned, "{r:?}");
        assert!(r.innocent_connected);
    }

    #[test]
    fn all_four_policies_evaluated() {
        let rows = evaluate_countermeasures();
        assert_eq!(rows.len(), 4);
        // Only the stock policy lets Defamation succeed.
        assert!(rows[0].innocent_banned);
        assert!(rows[1..].iter().all(|r| !r.innocent_banned));
    }

    #[test]
    fn auth_overhead_matches_paper_arithmetic() {
        // The paper: 60 000 nodes × 34 connections → 1 020 000 connections
        // needing encryption.
        let a = auth_overhead(60_000, 34);
        assert_eq!(a.total_connections, 1_020_000);
        assert!(a.handshake_cpu_seconds > 0.0);
    }

    #[test]
    fn render_lists_all_policies() {
        let rows = evaluate_countermeasures();
        let t = render_countermeasures(&rows);
        assert!(t.contains("good-score"));
        assert!(t.contains("threshold"));
    }
}
