//! Quickstart: spin up a target Bitcoin node with synthetic Mainnet
//! traffic, watch messages flow, then let one misbehaving peer hit the
//! ban-score threshold.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use banscore::testbed::{Testbed, TestbedConfig};
use btc_attack::flood::{FloodConfig, Flooder};
use btc_attack::payload::FloodPayload;
use btc_netsim::time::{MINUTES, SECS};

fn main() {
    // A target node plus three synthetic Mainnet feeders.
    let mut tb = Testbed::build(TestbedConfig::default());
    println!("running 2 minutes of normal P2P traffic...");
    tb.sim.run_for(2 * MINUTES);
    {
        let node = tb.target_node();
        println!(
            "  peers: {} inbound / {} outbound",
            node.inbound_count(),
            node.outbound_count()
        );
        println!("  messages received: {}", node.telemetry.messages.len());
        println!("  chain height: {}", node.chain.height());
        println!("  mempool size: {}", node.mempool.len());
        println!("  bans so far: {}", node.telemetry.bans);
    }

    // Now a peer misbehaves: it sends blocks with invalid proof of work.
    println!("\nattaching a misbehaving peer (invalid-PoW blocks)...");
    tb.add_attacker(Flooder::new(FloodConfig {
        target: tb.target_addr,
        payload: FloodPayload::InvalidPowBlock,
        ..FloodConfig::default()
    }));
    tb.sim.run_for(5 * SECS);
    let node = tb.target_node();
    println!("  bans now: {}", node.telemetry.bans);
    for (when, who) in node.banman.history() {
        println!(
            "  banned {} at t={:.3}s (24 h)",
            who,
            *when as f64 / SECS as f64
        );
    }
    for e in node.tracker.events() {
        println!(
            "  score event: {} +{} → {} ({})",
            e.peer, e.delta, e.total, e.rule
        );
    }
    println!("\nthe feeders were never punished:");
    println!("  tracked misbehaving peers: {}", node.tracker.tracked_peers());
}
