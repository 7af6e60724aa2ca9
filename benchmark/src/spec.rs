//! Names of every workload and metric. `BENCHMARK.json` lists the same
//! names; `tests/contract.rs` fails when the two drift apart.

/// Seed used when `--seed` is absent; the `golden/` digests belong to it.
pub const DEFAULT_SEED: u64 = 1;

/// One benchmark workload.
pub struct WorkloadSpec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// What one unit of `ops_per_s` is on this workload.
    pub op: &'static str,
    /// The issue's workload-specific name for `ops_per_s`.
    pub alias: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "ping_flood",
        op: "message",
        alias: "msgs_per_s",
    },
    WorkloadSpec {
        name: "bogus_block_flood",
        op: "message",
        alias: "msgs_per_s",
    },
    WorkloadSpec {
        name: "relay_mix",
        op: "message",
        alias: "msgs_per_s",
    },
    WorkloadSpec {
        name: "sybil_churn",
        op: "message",
        alias: "msgs_per_s",
    },
    WorkloadSpec {
        name: "detect_replay",
        op: "trace event",
        alias: "events_per_s",
    },
    WorkloadSpec {
        name: "detect_replay_sharded",
        op: "trace event",
        alias: "events_per_s_sharded",
    },
    WorkloadSpec {
        name: "swarm_ping",
        op: "delivered packet",
        alias: "pkts_per_s",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One named metric. Regression bounds live in `BENCHMARK.json` only.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// Printed by every untraced run.
pub const END_TO_END: [MetricSpec; 3] = [
    m("ops_per_s", "1/s", "higher"),
    m("peak_rss_mb", "MB", "lower"),
    m("setup_s", "s", "lower"),
];

/// Printed by every traced run. A workload that does not exercise a layer
/// reports that layer's metrics as 0 ("not on this workload's path").
/// Direction is nominal for counts, flags and shares, which are there to
/// be compared for equality or to explain a move, not to be optimised.
pub const PER_LAYER: [MetricSpec; 64] = [
    // wire
    m("wire.frame_ns_per_msg", "ns", "lower"),
    m("wire.checksum_ns_per_msg", "ns", "lower"),
    m("wire.checksum_mb_per_s", "MB/s", "higher"),
    m("wire.decode_ns_per_msg", "ns", "lower"),
    m("wire.encode_ns_per_msg", "ns", "lower"),
    m("wire.frames", "count", "lower"),
    m("wire.decoded_frames", "count", "lower"),
    m("wire.payload_bytes", "count", "lower"),
    m("wire.bytes_memmoved", "count", "lower"),
    m("wire.sha_ni", "flag", "higher"),
    // netsim
    m("netsim.sink_ns_per_pkt", "ns", "lower"),
    m("netsim.pkts_per_msg", "ratio", "lower"),
    m("netsim.tcp_segment_ns", "ns", "lower"),
    m("netsim.tcp_handshake_ns", "ns", "lower"),
    m("netsim.tcp_drops", "count", "lower"),
    m("netsim.shard.pkts_per_s_w1", "1/s", "higher"),
    m("netsim.shard.speedup", "ratio", "higher"),
    m("netsim.shard.build_ns_per_host", "ns", "lower"),
    m("netsim.shard.r1_over_serial", "ratio", "lower"),
    // node
    m("node.self_ns_per_msg", "ns", "lower"),
    m("node.telemetry.record_ns_per_msg", "ns", "lower"),
    m("node.telemetry.query_ns", "ns", "lower"),
    m("node.telemetry.query_share", "ratio", "lower"),
    m("node.telemetry.records", "count", "lower"),
    m("node.telemetry.bytes", "count", "lower"),
    m("node.msg_type_id_ns", "ns", "lower"),
    m("node.policy.stock_strike_ns", "ns", "lower"),
    m("node.policy.tiers_msg_ns", "ns", "lower"),
    m("node.policy.tiers_strike_ns", "ns", "lower"),
    m("node.banman.ban_ns", "ns", "lower"),
    m("node.banman.is_banned_ns", "ns", "lower"),
    m("node.mempool.accept_ns_per_tx", "ns", "lower"),
    m("node.chain.accept_block_ns_per_tx", "ns", "lower"),
    m("node.bans", "count", "lower"),
    m("node.graylists", "count", "lower"),
    m("node.graylist_dropped", "count", "lower"),
    m("node.bad_checksum_frames", "count", "lower"),
    m("node.undecodable_frames", "count", "lower"),
    m("node.tracker_events", "count", "lower"),
    m("node.banman_entries", "count", "lower"),
    m("node.cost.sim_cycles_per_msg", "cycles", "lower"),
    m("model.checksum_share", "ratio", "lower"),
    m("measured.checksum_share", "ratio", "lower"),
    m("model.decode_share", "ratio", "lower"),
    m("measured.decode_share", "ratio", "lower"),
    m("model.handler_share", "ratio", "lower"),
    m("measured.handler_share", "ratio", "lower"),
    // attack
    m("attack.build_ns_per_msg", "ns", "lower"),
    m("attack.msgs_sent", "count", "lower"),
    m("attack.sessions", "count", "lower"),
    m("attack.bans_seen", "count", "lower"),
    // detect
    m("detect.stream_ns_per_event_hot", "ns", "lower"),
    m("detect.stream_ns_per_event_cold", "ns", "lower"),
    m("detect.finish_ns_per_verdict", "ns", "lower"),
    m("detect.batch.events_per_s", "1/s", "higher"),
    m("detect.batch_detect_ns_per_window", "ns", "lower"),
    m("detect.serve.shard_scaling", "ratio", "higher"),
    m("detect.agreement", "ratio", "higher"),
    m("detect.verdicts", "count", "lower"),
    m("detect.anomalous", "count", "lower"),
    m("detect.peers", "count", "lower"),
    // par
    m("par.phase_round_ns", "ns", "lower"),
    // the trace itself
    m("trace.coverage", "ratio", "higher"),
    m("trace.overhead_ratio", "ratio", "lower"),
];
