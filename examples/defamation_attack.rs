//! The Defamation attack of §IV: frame an innocent peer so the target bans
//! it — pre-connection (pure spoofing) and post-connection (Algorithm 1:
//! sniff, learn seq, inject).
//!
//! ```text
//! cargo run --example defamation_attack
//! ```

use banscore::testbed::{addrs, Testbed, TestbedConfig};
use btc_attack::defamation::{PostConnDefamer, PreConnDefamer};
use btc_netsim::packet::SockAddr;
use btc_netsim::sim::TapFilter;
use btc_netsim::time::SECS;

fn pre_connection() {
    println!("— pre-connection Defamation —");
    let mut tb = Testbed::build(TestbedConfig {
        feeders: 0,
        innocents: 1,
        target_outbound: 0, // innocent not yet connected
        ..TestbedConfig::default()
    });
    let innocent = tb.innocent_ips[0];
    let ports: Vec<u16> = (50_000..50_008).collect();
    tb.add_attacker(PreConnDefamer::new(tb.target_addr, innocent, ports.clone()));
    tb.sim.run_for(4 * SECS);
    let node = tb.target_node();
    println!(
        "  attacker spoofed {} identifiers of {}.{}.{}.{} — banned before the",
        ports.len(),
        innocent[0],
        innocent[1],
        innocent[2],
        innocent[3]
    );
    println!("  innocent host ever sent a packet:");
    for port in &ports {
        let id = SockAddr::new(innocent, *port);
        println!(
            "    {} banned: {}",
            id,
            node.banman.is_banned(tb.sim.now(), &id)
        );
    }
    println!(
        "  innocent host tx packets: {}",
        tb.sim.host_counters(innocent).tx_packets
    );
}

fn post_connection() {
    println!("\n— post-connection Defamation (Algorithm 1) —");
    let mut tb = Testbed::build(TestbedConfig {
        feeders: 0,
        innocents: 1,
        target_outbound: 1, // the target keeps an outbound peer
        ..TestbedConfig::default()
    });
    let innocent = tb.innocent_ips[0];
    // The attacker sniffs the target's LAN segment...
    let tap = tb.sim.add_tap(TapFilter::Host(addrs::TARGET));
    tb.add_attacker(PostConnDefamer::new(tb.target_addr, vec![innocent], tap));
    tb.sim.run_for(10 * SECS);
    let attacker: &PostConnDefamer = tb.sim.app(addrs::ATTACKER).expect("defamer");
    let node = tb.target_node();
    for r in &attacker.records {
        println!(
            "  injected forged misbehavior as {} at t={:.3}s",
            r.spoofed,
            r.time as f64 / SECS as f64
        );
    }
    for (when, who) in node.banman.history() {
        println!(
            "  target banned {} at t={:.3}s — the innocent never misbehaved",
            who,
            *when as f64 / SECS as f64
        );
    }
    println!(
        "  target outbound reconnections afterwards: {}",
        node.telemetry.reconnects.len()
    );
}

fn main() {
    pre_connection();
    post_connection();
}
