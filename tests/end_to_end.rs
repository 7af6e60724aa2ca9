//! Cross-crate end-to-end tests: the full testbed with attacks, detection
//! and countermeasures interacting in one simulation.

use banscore::testbed::{addrs, Testbed, TestbedConfig};
use btc_attack::flood::{FloodConfig, Flooder};
use btc_attack::payload::FloodPayload;
use btc_detect::engine::AnalysisEngine;
use btc_netsim::packet::SockAddr;
use btc_netsim::sim::{HostConfig, HostCounters, SimConfig, Simulator};
use btc_netsim::tcp::TcpDropStats;
use btc_netsim::time::{Nanos, MINUTES, SECS};
use btc_node::banscore::CoreVersion;
use btc_node::node::{Node, NodeConfig, PeerPolicy};
use std::collections::VecDeque;

#[test]
fn train_detect_respond_pipeline() {
    // Train on clean traffic, then attach a flood and detect it within one
    // window — the full Monitor → Dataset → Analysis Engine path of Fig. 9.
    let engine = AnalysisEngine::default();
    let mut tb = Testbed::build(TestbedConfig::default());
    tb.sim.run_for(21 * MINUTES);
    let windows = tb.windows(MINUTES, 21 * MINUTES, 5 * MINUTES);
    assert_eq!(windows.len(), 4);
    let profile = engine.train(&windows).expect("training data");

    // Continue the SAME simulation with an attacker attached.
    tb.add_attacker(Flooder::new(FloodConfig {
        target: tb.target_addr,
        payload: FloodPayload::Ping,
        ..FloodConfig::default()
    }));
    let attack_start = tb.sim.now();
    tb.sim.run_for(5 * MINUTES);
    let attack_window = tb.single_window(attack_start, attack_start + 5 * MINUTES);
    let verdict = engine.detect(&profile, &attack_window);
    assert!(verdict.anomalous, "{verdict:?}");
    assert!(verdict.n > profile.tau_n.1 * 10.0, "n {}", verdict.n);
}

#[test]
fn version_022_no_longer_bans_duplicate_version() {
    // The Defamation-via-VERSION attack of Figure 8 dies against a 0.22.0
    // rule set: the duplicate-VERSION rule was removed (Table I).
    let run = |version: CoreVersion| {
        let mut tb = Testbed::build(TestbedConfig {
            feeders: 0,
            node: NodeConfig {
                core_version: version,
                ..NodeConfig::default()
            },
            ..TestbedConfig::default()
        });
        tb.add_attacker(Flooder::new(FloodConfig {
            target: tb.target_addr,
            payload: FloodPayload::DuplicateVersion,
            reconnect_on_ban: true,
            sybil_port_start: 50_000,
            ..FloodConfig::default()
        }));
        tb.sim.run_for(3 * SECS);
        tb.target_node().telemetry.bans
    };
    assert!(run(CoreVersion::V0_20) >= 5);
    assert!(run(CoreVersion::V0_21) >= 5, "0.21 still has the rule");
    assert_eq!(run(CoreVersion::V0_22), 0, "0.22 removed the VERSION rules");
}

#[test]
fn ban_expires_and_identifier_is_welcome_again() {
    let mut tb = Testbed::build(TestbedConfig {
        feeders: 0,
        node: NodeConfig {
            ban_duration: 5 * SECS, // shortened for the test
            ..NodeConfig::default()
        },
        ..TestbedConfig::default()
    });
    tb.add_attacker(Flooder::new(FloodConfig {
        target: tb.target_addr,
        payload: FloodPayload::InvalidPowBlock,
        sybil_port_start: 50_000,
        max_messages: Some(1),
        ..FloodConfig::default()
    }));
    tb.sim.run_for(2 * SECS);
    let banned_id = SockAddr::new(addrs::ATTACKER, 50_000);
    {
        let node = tb.target_node();
        assert!(node.banman.is_banned(tb.sim.now(), &banned_id));
    }
    tb.sim.run_for(10 * SECS);
    let now = tb.sim.now();
    let node = tb.target_node();
    assert!(!node.banman.is_banned(now, &banned_id), "ban should expire");
    // The maintenance sweep also cleans the table.
    assert_eq!(node.banman.len(), 0);
}

#[test]
fn never_ban_node_keeps_serving_the_network() {
    // §VIII: disabling banning does not affect normal operation.
    let mut tb = Testbed::build(TestbedConfig {
        node: NodeConfig {
            peer_policy: PeerPolicy::NeverBan,
            ..NodeConfig::default()
        },
        ..TestbedConfig::default()
    });
    tb.sim.run_for(2 * MINUTES);
    let node = tb.target_node();
    assert_eq!(node.inbound_count(), 3);
    assert!(node.telemetry.messages.len() > 200);
    assert!(node.mempool.len() > 50, "mempool {}", node.mempool.len());
}

#[test]
fn flood_does_not_disturb_honest_peers() {
    // While a PING flood runs, honest feeders keep their sessions and their
    // transactions keep landing in the mempool.
    let mut tb = Testbed::build(TestbedConfig::default());
    tb.add_attacker(Flooder::new(FloodConfig {
        target: tb.target_addr,
        payload: FloodPayload::Ping,
        connections: 10,
        ..FloodConfig::default()
    }));
    tb.sim.run_for(MINUTES);
    let node = tb.target_node();
    assert_eq!(node.inbound_count(), 3 + 10, "feeders + sybil connections");
    assert!(node.mempool.len() > 20, "mempool {}", node.mempool.len());
    assert_eq!(node.telemetry.bans, 0);
}

#[test]
fn impact_cost_table_shape_end_to_end() {
    // The Table II headline through the public API.
    let rows = btc_attack::meter::measure_table2(5);
    let ratio = |cmd: &str| {
        rows.iter()
            .find(|r| r.command == cmd)
            .map(|r| r.ratio)
            .expect("row")
    };
    assert!(ratio("block") > ratio("blocktxn"));
    assert!(ratio("blocktxn") > ratio("ping"));
    assert!(ratio("inv") < 1.0);
}

#[test]
fn whole_suite_is_deterministic() {
    let run = || {
        let mut tb = Testbed::build(TestbedConfig {
            innocents: 5,
            target_outbound: 2,
            ..TestbedConfig::default()
        });
        tb.add_attacker(Flooder::new(FloodConfig {
            target: tb.target_addr,
            payload: FloodPayload::OversizeAddr,
            reconnect_on_ban: true,
            sybil_port_start: 51_000,
            ..FloodConfig::default()
        }));
        tb.sim.run_for(30 * SECS);
        let node = tb.target_node();
        (
            node.telemetry.messages.len(),
            node.telemetry.bans,
            node.tracker.events().len(),
            tb.sim.delivered_packets(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn oversize_addr_attack_scores_twenty_per_message() {
    let mut tb = Testbed::build(TestbedConfig {
        feeders: 0,
        ..TestbedConfig::default()
    });
    tb.add_attacker(Flooder::new(FloodConfig {
        target: tb.target_addr,
        payload: FloodPayload::OversizeAddr,
        max_messages: Some(5),
        ..FloodConfig::default()
    }));
    tb.sim.run_for(3 * SECS);
    let node = tb.target_node();
    let events = node.tracker.events();
    assert_eq!(events.len(), 5, "{events:?}");
    assert!(events.iter().all(|e| e.delta == 20));
    assert_eq!(events.last().map(|e| e.total), Some(100));
    assert_eq!(node.telemetry.bans, 1);
}

#[test]
fn umbrella_crate_reexports_compile() {
    // The umbrella lib re-exports every crate; touch one symbol from each.
    let _ = banscore_suite::btc_wire::types::PROTOCOL_VERSION;
    let _ = banscore_suite::btc_netsim::time::SECS;
    let _ = banscore_suite::btc_node::banscore::CoreVersion::V0_20;
    let _ = banscore_suite::btc_attack::payload::FloodPayload::Ping;
    let _ = banscore_suite::btc_detect::features::NUM_TYPES;
    let _ = banscore_suite::banscore::contention::BASELINE_HASH_RATE;
}

#[test]
fn detection_response_drops_and_rebuilds_connections() {
    // The §VII loop closed: detect the flood, alert the node, node drops
    // inbound connections — the flood stops.
    let engine = AnalysisEngine::default();
    let mut tb = Testbed::build(TestbedConfig::default());
    tb.sim.run_for(11 * MINUTES);
    let profile = engine
        .train(&tb.windows(MINUTES, 11 * MINUTES, 5 * MINUTES))
        .expect("training data");
    tb.add_attacker(Flooder::new(FloodConfig {
        target: tb.target_addr,
        payload: FloodPayload::Ping,
        connections: 5,
        ..FloodConfig::default()
    }));
    let attack_start = tb.sim.now();
    tb.sim.run_for(MINUTES);
    // Detect on the last minute of traffic.
    let verdict = engine.detect(&profile, &tb.single_window(attack_start, tb.sim.now()));
    assert!(verdict.anomalous);
    // Respond.
    tb.target_node_mut().request_connection_rebuild();
    tb.sim.run_for(2 * SECS);
    let sent_at_rebuild = {
        let attacker: &Flooder = tb.sim.app(addrs::ATTACKER).expect("flooder");
        assert_eq!(tb.target_node().inbound_count(), 0, "inbound not dropped");
        attacker.stats.messages_sent
    };
    // The flood is dead: no growth afterwards.
    tb.sim.run_for(10 * SECS);
    let attacker: &Flooder = tb.sim.app(addrs::ATTACKER).expect("flooder");
    assert_eq!(attacker.stats.messages_sent, sent_at_rebuild);
}

/// What a node-under-flood run reduces to.
#[derive(Debug, PartialEq)]
struct FloodRun {
    counts: [u64; 26],
    bans: u64,
    ban_history: VecDeque<(Nanos, SockAddr)>,
    /// Per host (target, attacker): counters, TCP drops, CPU cycles.
    transport: [(HostCounters, TcpDropStats, u64); 2],
    delivered: u64,
}

/// A stock `Node` under a reconnecting `Flooder` flooding `payload` for
/// three seconds, both pinned to region 0 of `regions` regions.
fn node_under_flood(regions: u32, workers: usize, payload: FloodPayload) -> FloodRun {
    let mut sim = Simulator::new(SimConfig {
        regions,
        workers,
        ..SimConfig::default()
    });
    let node = Node::new(NodeConfig::default());
    sim.add_host_pinned(addrs::TARGET, Box::new(node), HostConfig::default(), 0);
    let flooder = Flooder::new(FloodConfig {
        target: SockAddr::new(addrs::TARGET, 8333),
        payload,
        reconnect_on_ban: true,
        sybil_port_start: 51_000,
        ..FloodConfig::default()
    });
    sim.add_host_pinned(addrs::ATTACKER, Box::new(flooder), HostConfig::default(), 0);
    sim.run_for(3 * SECS);
    let node: &Node = sim.app(addrs::TARGET).expect("target is a Node");
    FloodRun {
        counts: node.telemetry.counts_in_window(0, 3 * SECS + 1),
        bans: node.telemetry.bans,
        ban_history: node.banman.history().clone(),
        transport: [addrs::TARGET, addrs::ATTACKER].map(|ip| {
            (
                sim.host_counters(ip),
                sim.host_tcp_drops(ip),
                sim.host_cpu(ip).cum_busy(),
            )
        }),
        delivered: sim.delivered_packets(),
    }
}

/// The swarm scenario's guarantee: the §V bed in region 0 of a
/// many-region simulator measures what it measures on one region. A
/// whole protocol stack on top of the event loop must not tell one region
/// from region 0 of four stepped by two workers. PING is the never-banned
/// flood; duplicate VERSIONs drive the ban → reconnect-from-the-next-port
/// cycle so the ban times are not vacuous.
#[test]
fn node_under_flood_is_identical_at_one_and_four_regions() {
    for payload in [FloodPayload::Ping, FloodPayload::DuplicateVersion] {
        let one = node_under_flood(1, 1, payload.clone());
        let four = node_under_flood(4, 2, payload.clone());
        assert!(
            one.counts.iter().sum::<u64>() > 100,
            "flood reached the node"
        );
        if matches!(payload, FloodPayload::DuplicateVersion) {
            assert!(one.bans > 1, "ban and reconnect cycled: {} bans", one.bans);
        }
        assert_eq!(one, four, "{payload:?}");
    }
}
