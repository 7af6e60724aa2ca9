//! What every node workload shares: the target host, the counters read
//! off it after a rep, and their digest.

use crate::gen::{generator_ip, ReplyShape, TARGET};
use crate::util::Digest;
use crate::workloads::Layers;
use btc_netsim::packet::WIRE_HEADER_BYTES;
use btc_netsim::sim::{App, HostConfig, HostCounters, SimConfig, Simulator};
use btc_netsim::time::Nanos;
use btc_node::metrics::{msg_type_id, Telemetry};
use btc_node::node::Node;

/// The serial simulator of every node workload and of the sink probe:
/// `target` first, then the generator hosts in order.
pub fn simulator(
    seed: u64,
    target: Box<dyn App>,
    generators: impl Iterator<Item = Box<dyn App>>,
) -> Simulator {
    let mut sim = Simulator::new(SimConfig {
        seed,
        ..SimConfig::default()
    });
    sim.add_host(TARGET, target, HostConfig::default());
    for (g, generator) in generators.enumerate() {
        sim.add_host(generator_ip(g), generator, HostConfig::default());
    }
    sim
}

/// Index of `command` in the per-type counts.
pub fn type_id(command: &str) -> usize {
    usize::from(msg_type_id(command).expect("a wire command"))
}

/// Counters at the start of the timed region.
#[derive(Clone, Copy, Default)]
pub struct Mark {
    pub delivered: u64,
    pub cycles: u64,
    pub traffic: HostCounters,
}

pub fn mark(sim: &Simulator) -> Mark {
    Mark {
        delivered: sim.delivered_packets(),
        cycles: sim.host_cpu(TARGET).cum_busy(),
        traffic: sim.host_counters(TARGET),
    }
}

/// The target's deterministic results over the timed region.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeFacts {
    /// Packets delivered anywhere in the simulation.
    pub delivered: u64,
    /// The target's own traffic.
    pub rx_packets: u64,
    pub tx_packets: u64,
    pub tx_bytes: u64,
    /// Telemetry records per message type.
    pub counts: [u64; 26],
    pub records: u64,
    pub bans: u64,
    pub graylists: u64,
    pub graylist_dropped: u64,
    pub bad_checksum: u64,
    pub undecodable: u64,
    pub refused_banned: u64,
    pub banman_entries: u64,
    pub tracker_events: u64,
    pub tracker_peers: u64,
    /// Simulated cycles charged to the target (`cum_busy`).
    pub cycles: u64,
    /// Segments the target's transport dropped, all causes.
    pub tcp_drops: u64,
    pub mempool: u64,
    pub chain_height: u64,
    pub peers: u64,
}

impl NodeFacts {
    /// Reads the facts off a finished simulation and takes the target's
    /// telemetry log out of it (the probes replay it). Records before
    /// `since` (the handshakes) are not counted.
    pub fn collect(sim: &mut Simulator, start: Mark, since: Nanos) -> (NodeFacts, Telemetry) {
        let d = sim.host_tcp_drops(TARGET);
        let traffic = sim.host_counters(TARGET);
        let mut f = NodeFacts {
            delivered: sim.delivered_packets() - start.delivered,
            rx_packets: traffic.rx_packets - start.traffic.rx_packets,
            tx_packets: traffic.tx_packets - start.traffic.tx_packets,
            tx_bytes: traffic.tx_bytes - start.traffic.tx_bytes,
            cycles: sim.host_cpu(TARGET).cum_busy() - start.cycles,
            tcp_drops: d.bad_checksum
                + d.bad_seq
                + d.no_socket
                + d.refused_accept
                + d.stale_seq
                + d.timeouts,
            ..NodeFacts::default()
        };
        let node: &mut Node = sim.app_mut(TARGET).expect("the target is a Node");
        let telemetry = std::mem::take(&mut node.telemetry);
        for r in telemetry.messages.iter().filter(|r| r.time >= since) {
            f.counts[usize::from(r.msg_type)] += 1;
        }
        f.records = f.counts.iter().sum();
        f.bans = telemetry.bans;
        f.graylists = telemetry.graylists;
        f.graylist_dropped = telemetry.graylist_dropped;
        f.bad_checksum = telemetry.bad_checksum_frames;
        f.undecodable = telemetry.undecodable_frames;
        f.refused_banned = telemetry.refused_banned;
        f.banman_entries = node.banman.len() as u64;
        f.tracker_events = node.tracker.events().len() as u64;
        f.tracker_peers = node.tracker.tracked_peers() as u64;
        f.mempool = node.mempool.len() as u64;
        f.chain_height = node.chain.height();
        f.peers = node.peer_count() as u64;
        (f, telemetry)
    }

    pub fn digest(&self) -> u64 {
        let scalars = [
            self.delivered,
            self.rx_packets,
            self.tx_packets,
            self.tx_bytes,
            self.records,
            self.bans,
            self.graylists,
            self.graylist_dropped,
            self.bad_checksum,
            self.undecodable,
            self.refused_banned,
            self.banman_entries,
            self.tracker_events,
            self.tracker_peers,
            self.cycles,
            self.tcp_drops,
            self.mempool,
            self.chain_height,
            self.peers,
        ];
        Digest::of(self.counts.into_iter().chain(scalars))
    }

    /// The per-layer counts that are read straight off the rep.
    pub fn report(&self, telemetry: &Telemetry, ops: u64, out: &mut Layers) {
        use btc_node::metrics::{MsgRecord, ReconnectRecord, TierChangeRecord};
        use std::mem::size_of;
        out.set(
            "netsim.pkts_per_msg",
            super::per(self.delivered as f64, ops),
        );
        out.set("netsim.tcp_drops", self.tcp_drops as f64);
        out.set("node.telemetry.records", telemetry.messages.len() as f64);
        out.set(
            "node.telemetry.bytes",
            (telemetry.messages.len() * size_of::<MsgRecord>()
                + telemetry.reconnects.len() * size_of::<ReconnectRecord>()
                + telemetry.tier_changes.len() * size_of::<TierChangeRecord>()) as f64,
        );
        out.set("node.bans", self.bans as f64);
        out.set("node.graylists", self.graylists as f64);
        out.set("node.graylist_dropped", self.graylist_dropped as f64);
        out.set("node.bad_checksum_frames", self.bad_checksum as f64);
        out.set("node.undecodable_frames", self.undecodable as f64);
        out.set("node.tracker_events", self.tracker_events as f64);
        out.set("node.banman_entries", self.banman_entries as f64);
        out.set(
            "node.cost.sim_cycles_per_msg",
            super::per(self.cycles as f64, ops),
        );
    }

    /// What the target sent, as the shape a [`crate::gen::Sink`] answers in.
    pub fn reply_shape(&self) -> ReplyShape {
        ReplyShape {
            packets: self.tx_packets,
            per_packets_in: self.rx_packets.max(1),
            payload: (self.tx_bytes / self.tx_packets.max(1))
                .saturating_sub(WIRE_HEADER_BYTES as u64) as usize,
        }
    }

    pub fn note(&self) -> String {
        format!(
            "pkts={} records={} bad_checksum={} undecodable={} bans={} graylists={} tcp_drops={} cycles={} mempool={} height={}",
            self.delivered,
            self.records,
            self.bad_checksum,
            self.undecodable,
            self.bans,
            self.graylists,
            self.tcp_drops,
            self.cycles,
            self.mempool,
            self.chain_height
        )
    }
}
