//! The BM-DoS campaign of §III/§VI: all three ban-score-evading vectors
//! against a live node, with the mining-rate impact of Figure 6.
//!
//! ```text
//! cargo run --release --example bmdos_attack
//! ```

use banscore::contention;
use banscore::testbed::{addrs, Testbed, TestbedConfig};
use btc_attack::flood::{FloodConfig, Flooder};
use btc_attack::payload::FloodPayload;
use btc_netsim::time::{as_secs_f64, SECS};

fn flood(payload: FloodPayload, connections: usize, reconnect: bool, secs: u64) {
    let mut tb = Testbed::build(TestbedConfig {
        feeders: 0,
        ..TestbedConfig::default()
    });
    tb.add_attacker(Flooder::new(FloodConfig {
        target: tb.target_addr,
        payload,
        connections,
        reconnect_on_ban: reconnect,
        sybil_port_start: if reconnect { 50_000 } else { 0 },
        ..FloodConfig::default()
    }));
    tb.sim.run_for(secs * SECS);
    let attacker: &Flooder = tb.sim.app(addrs::ATTACKER).expect("flooder");
    let node = tb.target_node();
    let load = contention::app_layer_load(
        attacker.stats.messages_sent,
        attacker.stats.bytes_sent,
        as_secs_f64(secs * SECS),
    );
    println!(
        "  sent {:>7} msgs ({:>8.2} Mbit) | victim dropped-bad-checksum {:>5} | bans {:>3} | mining {:>7.0} h/s",
        attacker.stats.messages_sent,
        attacker.stats.bytes_sent as f64 * 8.0 / 1e6,
        node.telemetry.bad_checksum_frames,
        node.telemetry.bans,
        contention::mining_rate(load),
    );
}

fn main() {
    let secs = 5;
    println!("baseline mining rate: {:.0} h/s\n", contention::mining_rate(0.0));

    println!("vector 1 — PING flood (no ban-score rule exists):");
    flood(FloodPayload::Ping, 1, false, secs);

    println!("\nvector 2 — bogus-checksum BLOCK flood (dropped before tracking):");
    flood(
        FloodPayload::BogusChecksumBlock {
            payload_bytes: 200_000,
        },
        1,
        false,
        secs,
    );

    println!("\nvector 3 — invalid blocks + serial Sybil reconnection:");
    flood(FloodPayload::InvalidPowBlock, 1, true, secs);

    println!("\nSybil scaling (PING, 1/10/20 parallel connections):");
    for conns in [1, 10, 20] {
        print!("  {conns:>2} conns:");
        flood(FloodPayload::Ping, conns, false, secs);
    }
}
