//! Per-layer probes of the traced run. Each replays inputs of the rep
//! through one layer's public calls, from this file, inside its own span.
//! The end-to-end metrics never come from here.

use crate::gen::{
    generator_ip, scripted_peers, ReplyShape, Script, Sink, GENERATORS, HANDSHAKES_DONE, NET,
    TARGET, TARGET_ADDR,
};
use crate::trace::Tracer;
use crate::workloads::node_bed::simulator;
use crate::workloads::{per, Layers};
use btc_netsim::packet::{Packet, PacketBody, SockAddr};
use btc_netsim::tcp::{TcpEvent, TcpStack};
use btc_netsim::time::{Nanos, MILLIS};
use btc_node::banman::BanMan;
use btc_node::banscore::{
    BanPolicy, CoreVersion, Misbehavior, MisbehaviorTracker, ReputationConfig, ReputationEngine,
    Verdict,
};
use btc_node::chain::Chain;
use btc_node::cost::CostModel;
use btc_node::mempool::Mempool;
use btc_node::metrics::{msg_type_id, msg_type_name, MsgRecord, Telemetry};
use btc_wire::drain::FrameAssembler;
use btc_wire::message::{verify_checksum, Message, RawMessage};
use btc_wire::types::{InvType, Inventory};
use btc_wire::{Block, Transaction};
use std::hint::black_box;
use std::sync::Arc;

/// How far one framing pass goes with each frame.
#[derive(Clone, Copy, PartialEq)]
enum Depth {
    Frame,
    Checksum,
    Decode,
}

#[derive(Default)]
struct PassCounts {
    frames: u64,
    payload_bytes: u64,
    memmoved: u64,
    decoded: u64,
    /// `CostModel` cycles the node charges for these frames, per stage.
    model: [u64; 3],
}

/// One pass over every generator's flood stream, segment by segment as
/// TCP delivers it, doing to each frame what the node's receive path does
/// up to `depth`.
fn framing_pass(scripts: &[Arc<Script>], depth: Depth) -> PassCounts {
    let cost = CostModel::default();
    let mut c = PassCounts::default();
    for script in scripts {
        let mut asm = FrameAssembler::new(NET);
        for segment in script.flood_segments() {
            asm.push(segment);
            while let Some(raw) = asm.next_frame() {
                c.frames += 1;
                c.payload_bytes += raw.payload.len() as u64;
                if depth == Depth::Frame {
                    black_box(&raw);
                    continue;
                }
                c.model[0] += cost.checksum_cost(raw.payload.len());
                if verify_checksum(&raw).is_err() {
                    continue;
                }
                if depth == Depth::Checksum {
                    continue;
                }
                c.model[1] += cost.decode_cost(raw.payload.len());
                let decoded = raw
                    .header
                    .command_str()
                    .and_then(|cmd| Message::decode_payload(cmd, &raw.payload));
                if let Ok(msg) = decoded {
                    c.decoded += 1;
                    c.model[2] += cost.handler_cost(&msg);
                    black_box(&msg);
                }
            }
        }
        c.memmoved += asm.bytes_memmoved();
    }
    c
}

/// What the wire probes hand to the probes after them.
pub struct WireFindings {
    /// Wall time of framing + checksum + decode over the whole rep.
    pub receive_ns: f64,
    pub checksum_ns: f64,
    pub decode_ns: f64,
    /// `CostModel` cycles per stage (checksum, decode, handler).
    pub model: [u64; 3],
    /// Decoded messages of the first frames of generator 0.
    pub sample: Vec<Message>,
}

/// Frames of generator 0 the encode and mempool probes are built from.
const SAMPLE_FRAMES: u64 = 200_000;

/// `wire.*`: three passes of increasing depth over the inbound streams;
/// a stage's cost is the difference between two passes. Then the replies
/// the node owes to a sample of the stream are encoded.
pub fn wire(scripts: &[Arc<Script>], tracer: &mut Tracer, out: &mut Layers) -> WireFindings {
    let mut pass = |name, depth| {
        tracer.span(name, |_| {
            let c = framing_pass(scripts, depth);
            let frames = c.frames;
            (c, frames)
        })
    };
    let (a, frame_ns) = pass("probe.wire.frame", Depth::Frame);
    let (b, to_checksum_ns) = pass("probe.wire.frame+checksum", Depth::Checksum);
    let (c, to_decode_ns) = pass("probe.wire.frame+checksum+decode", Depth::Decode);
    let checksum_ns = to_checksum_ns.saturating_sub(frame_ns) as f64;
    // With nothing to decode the last two passes do the same work, and
    // their difference is timer noise.
    let decode_ns = if c.decoded == 0 {
        0.0
    } else {
        to_decode_ns.saturating_sub(to_checksum_ns) as f64
    };
    out.set("wire.frames", a.frames as f64);
    out.set("wire.decoded_frames", c.decoded as f64);
    out.set("wire.payload_bytes", a.payload_bytes as f64);
    out.set("wire.bytes_memmoved", a.memmoved as f64);
    out.set("wire.frame_ns_per_msg", per(frame_ns as f64, a.frames));
    out.set("wire.checksum_ns_per_msg", per(checksum_ns, b.frames));
    out.set(
        "wire.checksum_mb_per_s",
        if checksum_ns > 0.0 {
            a.payload_bytes as f64 / 1e6 / (checksum_ns / 1e9)
        } else {
            0.0
        },
    );
    out.set("wire.decode_ns_per_msg", per(decode_ns, c.decoded));
    out.covered_ns += to_decode_ns as f64;

    // The sample: decoded messages of the head of generator 0's stream.
    let mut sample = Vec::new();
    let mut sample_frames = 0;
    let mut asm = FrameAssembler::new(NET);
    'stream: for segment in scripts.first().into_iter().flat_map(|s| s.flood_segments()) {
        asm.push(segment);
        while let Some(raw) = asm.next_frame() {
            if sample_frames == SAMPLE_FRAMES {
                break 'stream;
            }
            sample_frames += 1;
            if let Ok(msg) = btc_wire::message::decode_frame(&raw) {
                sample.push(msg);
            }
        }
    }
    // What the node sends back: PONG per PING, GETDATA per INV, and an INV
    // to every other peer per accepted TX or BLOCK.
    let others = GENERATORS - 1;
    let mut replies = Vec::new();
    for msg in &sample {
        match msg {
            Message::Ping(n) => replies.push(Message::Pong(*n)),
            Message::Inv(v) => replies.push(Message::GetData(v.clone())),
            Message::Tx(tx) => {
                replies.extend(
                    (0..others).map(|_| Message::Inv(vec![Inventory::new(InvType::Tx, tx.txid())])),
                );
            }
            Message::Block(b) => {
                replies.extend(
                    (0..others)
                        .map(|_| Message::Inv(vec![Inventory::new(InvType::Block, b.hash())])),
                );
            }
            _ => {}
        }
    }
    let (_, encode_ns) = tracer.span("probe.wire.encode", |_| {
        for r in &replies {
            black_box(RawMessage::frame(NET, r).to_bytes());
        }
        ((), replies.len() as u64)
    });
    out.set(
        "wire.encode_ns_per_msg",
        per(encode_ns as f64, replies.len() as u64),
    );
    if sample_frames > 0 {
        // Scale the sample's encode cost to the whole rep.
        out.covered_ns += encode_ns as f64 * a.frames as f64 / sample_frames as f64;
    }
    WireFindings {
        receive_ns: to_decode_ns as f64,
        checksum_ns,
        decode_ns,
        model: c.model,
        sample,
    }
}

/// `netsim.sink_ns_per_pkt`: the identical generator schedules into a
/// [`Sink`] that answers in the node's `shape`. Returns the wall time of
/// the run: what the rep costs without the node in it.
pub fn sink(
    seed: u64,
    scripts: &[Arc<Script>],
    shape: ReplyShape,
    horizon: Nanos,
    tracer: &mut Tracer,
    out: &mut Layers,
) -> f64 {
    let mut sim = simulator(seed, Box::new(Sink::new(shape)), scripted_peers(scripts));
    sim.run_until(HANDSHAKES_DONE);
    let before = sim.delivered_packets();
    let (pkts, ns) = tracer.span("probe.netsim.sink", |_| {
        sim.run_until(horizon);
        let pkts = sim.delivered_packets() - before;
        (pkts, pkts)
    });
    out.set("netsim.sink_ns_per_pkt", per(ns as f64, pkts));
    out.covered_ns += ns as f64;
    ns as f64
}

fn tcp_deliver(to: &mut TcpStack, p: &Packet) -> (Vec<TcpEvent>, Vec<Packet>) {
    match &p.body {
        PacketBody::Tcp(seg) => to.handle_segment(p.src, p.dst, seg, &mut |_| true),
        PacketBody::Icmp(_) => (Vec::new(), Vec::new()),
    }
}

/// `netsim.tcp_*`: a client and a server stack wired back to back, no
/// simulator in between. A session is connect → established → abortive
/// close, the lifecycle `sybil_churn` repeats; a segment is one `send` of
/// `seg_len` bytes and its `handle_segment`.
pub fn tcp(seg_len: usize, tracer: &mut Tracer, out: &mut Layers) {
    const SESSIONS: u64 = 50_000;
    const SEGMENTS: u64 = 500_000;
    let server_addr = TARGET_ADDR;
    let mut client = TcpStack::new(generator_ip(0));
    let mut server = TcpStack::new(TARGET);
    server.listen(server_addr.port);
    let establish = |client: &mut TcpStack, server: &mut TcpStack| {
        let (id, syn) = client.connect(server_addr);
        let (_, synack) = tcp_deliver(server, &syn);
        let (_, ack) = tcp_deliver(client, &synack[0]);
        black_box(tcp_deliver(server, &ack[0]));
        id
    };
    let (_, ns) = tracer.span("probe.netsim.tcp_handshake", |_| {
        for _ in 0..SESSIONS {
            let id = establish(&mut client, &mut server);
            let rst = client.close(id).expect("open connection");
            black_box(tcp_deliver(&mut server, &rst));
        }
        ((), SESSIONS)
    });
    out.set("netsim.tcp_handshake_ns", per(ns as f64, SESSIONS));

    let id = establish(&mut client, &mut server);
    let payload = vec![0x5Au8; seg_len.clamp(1, btc_netsim::tcp::MSS)];
    let (_, ns) = tracer.span("probe.netsim.tcp_segment", |_| {
        for _ in 0..SEGMENTS {
            for p in client.send(id, &payload).expect("established") {
                black_box(tcp_deliver(&mut server, &p));
            }
        }
        ((), SEGMENTS)
    });
    out.set("netsim.tcp_segment_ns", per(ns as f64, SEGMENTS));
}

/// `node.telemetry.record_ns_per_msg` and `node.msg_type_id_ns` over the
/// rep's own records.
pub fn telemetry_write(records: &[MsgRecord], tracer: &mut Tracer, out: &mut Layers) {
    let n = records.len() as u64;
    let (_, ns) = tracer.span("probe.node.telemetry.record", |_| {
        let mut t = Telemetry::default();
        for r in records {
            t.record_message(r.time, r.msg_type, r.size, r.from);
        }
        black_box(t.messages.len());
        ((), n)
    });
    out.set("node.telemetry.record_ns_per_msg", per(ns as f64, n));
    out.covered_ns += ns as f64;
    let (_, ns) = tracer.span("probe.node.msg_type_id", |_| {
        for r in records {
            black_box(msg_type_id(black_box(msg_type_name(r.msg_type))));
        }
        ((), n)
    });
    out.set("node.msg_type_id_ns", per(ns as f64, n));
    out.covered_ns += ns as f64;
}

/// The identifier of the `i`-th Sybil session: generators take turns, ports
/// walk upwards from 1024 like `sybil_port_start` makes the flooder do.
fn sybil_identifier(i: u64) -> SockAddr {
    let g = (i % GENERATORS as u64) as usize;
    SockAddr::new(
        generator_ip(g),
        1024 + (i / GENERATORS as u64 % 60_000) as u16,
    )
}

/// `node.policy.stock_strike_ns`: `strikes` one-point strikes, 100 to a
/// ban, the banned identifier forgotten as the node does on disconnect.
pub fn stock_strikes(strikes: u64, tracer: &mut Tracer, out: &mut Layers) {
    let (_, ns) = tracer.span("probe.node.policy.stock_strike", |_| {
        let mut tracker = MisbehaviorTracker::new(CoreVersion::V0_20, BanPolicy::Standard);
        let mut session = 0;
        let mut peer = sybil_identifier(session);
        for i in 0..strikes {
            if let Verdict::Ban { .. } =
                tracker.misbehaving(i * MILLIS, peer, true, Misbehavior::DuplicateVersion)
            {
                tracker.forget(&peer);
                session += 1;
                peer = sybil_identifier(session);
            }
        }
        black_box(tracker.events().len());
        ((), strikes)
    });
    out.set("node.policy.stock_strike_ns", per(ns as f64, strikes));
    out.covered_ns += ns as f64;
}

/// `node.banman.*` at `entries` banned identifiers: the inserts that get
/// there, then as many lookups, half of them hits.
pub fn banman(entries: u64, tracer: &mut Tracer, out: &mut Layers) {
    let mut bans = BanMan::new();
    let (_, ns) = tracer.span("probe.node.banman.ban", |_| {
        for i in 0..entries {
            bans.ban(i * MILLIS, sybil_identifier(i));
        }
        ((), entries)
    });
    out.set("node.banman.ban_ns", per(ns as f64, entries));
    out.covered_ns += ns as f64;
    let now = entries * MILLIS;
    let (_, ns) = tracer.span("probe.node.banman.is_banned", |_| {
        let mut hits = 0u64;
        for i in 0..entries {
            // Even: a banned identifier. Odd: the same host, a port never used.
            let mut peer = sybil_identifier(i);
            if i % 2 == 1 {
                peer.port = 1000 - (i % 1000) as u16;
            }
            hits += u64::from(bans.is_banned(now, &peer));
        }
        black_box(hits);
        ((), entries)
    });
    out.set("node.banman.is_banned_ns", per(ns as f64, entries));
    // One lookup per SYN, one SYN per session, one session per entry.
    out.covered_ns += ns as f64;
}

/// `node.policy.tiers_*`: the tier engine's per-frame accounting over the
/// rep's own `(time, sender)` sequence, then a synthetic run of light
/// strikes (honest traffic has none to replay).
pub fn tiers(records: &[MsgRecord], tracer: &mut Tracer, out: &mut Layers) {
    let n = records.len() as u64;
    let (_, ns) = tracer.span("probe.node.policy.tiers_msg", |_| {
        let mut engine = ReputationEngine::new(ReputationConfig::default());
        for r in records {
            black_box(engine.on_message(r.time, r.from));
            black_box(engine.take_transitions());
        }
        ((), n)
    });
    out.set("node.policy.tiers_msg_ns", per(ns as f64, n));
    out.covered_ns += ns as f64;

    const STRIKES: u64 = 200_000;
    let (_, ns) = tracer.span("probe.node.policy.tiers_strike", |_| {
        let mut engine = ReputationEngine::new(ReputationConfig::default());
        for i in 0..STRIKES {
            let peer = sybil_identifier(i % 4096);
            let outcome =
                engine.on_misbehavior(i * MILLIS, peer, true, Misbehavior::DuplicateVersion);
            if outcome.banned() {
                engine.forget(&peer);
            }
            black_box(engine.take_transitions());
        }
        ((), STRIKES)
    });
    out.set("node.policy.tiers_strike_ns", per(ns as f64, STRIKES));
}

/// `node.mempool.accept_ns_per_tx` over the sample's transactions, the
/// pool emptied (untimed) every 2048 as the confirming blocks do.
/// Returns nanoseconds per transaction.
pub fn mempool(sample: &[Message], tracer: &mut Tracer, out: &mut Layers) -> f64 {
    let txs: Vec<&Transaction> = sample
        .iter()
        .filter_map(|m| match m {
            Message::Tx(tx) => Some(tx),
            _ => None,
        })
        .collect();
    let (timed, _) = tracer.span("probe.node.mempool.accept", |_| {
        let mut pool = Mempool::default();
        let mut timed = 0u64;
        for group in txs.chunks(2048) {
            let started = std::time::Instant::now();
            for tx in group {
                black_box(pool.accept(tx));
            }
            timed += started.elapsed().as_nanos() as u64;
            for tx in group {
                pool.remove(&tx.txid());
            }
        }
        (timed, txs.len() as u64)
    });
    let per_tx = per(timed as f64, txs.len() as u64);
    out.set("node.mempool.accept_ns_per_tx", per_tx);
    per_tx
}

/// `node.chain.accept_block_ns_per_tx` over the workload's pre-mined
/// blocks, in order, on a fresh chain.
pub fn chain(blocks: &[Block], tracer: &mut Tracer, out: &mut Layers) {
    let txs: u64 = blocks.iter().map(|b| b.txs.len() as u64).sum();
    let (_, ns) = tracer.span("probe.node.chain.accept_block", |_| {
        let mut chain = Chain::new();
        for b in blocks {
            black_box(chain.accept_block(b));
        }
        black_box(chain.height());
        ((), txs)
    });
    out.set("node.chain.accept_block_ns_per_tx", per(ns as f64, txs));
    out.covered_ns += ns as f64;
}

/// `par.phase_round_ns`: announce/await rounds of a `Phased` crew of two
/// workers with nothing to do — the barrier cost `ShardedSim` pays per
/// lookahead window.
pub fn phase_rounds(tracer: &mut Tracer, out: &mut Layers) {
    const ROUNDS: u64 = 20_000;
    let phased = btc_par::phase::Phased::new(2);
    let (_, ns) = tracer.span("probe.par.phase_round", |_| {
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while phased.next_phase().is_some() {
                        phased.finish_phase();
                    }
                });
            }
            for round in 0..ROUNDS {
                phased.announce(round);
                phased.await_workers();
            }
            phased.terminate();
        });
        ((), ROUNDS)
    });
    out.set("par.phase_round_ns", per(ns as f64, ROUNDS));
}

/// The model-versus-measured calibration pairs: `CostModel` cycles per
/// stage against the probes' wall time per stage, each as a share of the
/// three stages' sum. "Handler" on the measured side is everything the
/// node does that is not framing, checksum or decode (handler, policy,
/// telemetry, replies): its self time less the wire probes.
pub fn calibration(w: &WireFindings, node_self_ns: f64, out: &mut Layers) {
    let model_sum: u64 = w.model.iter().sum();
    let handler_ns = (node_self_ns - w.receive_ns).max(0.0);
    let measured = [w.checksum_ns, w.decode_ns, handler_ns];
    let measured_sum: f64 = measured.iter().sum();
    for (i, stage) in ["checksum", "decode", "handler"].into_iter().enumerate() {
        if model_sum > 0 {
            out.set(
                &format!("model.{stage}_share"),
                w.model[i] as f64 / model_sum as f64,
            );
        }
        if measured_sum > 0.0 {
            out.set(
                &format!("measured.{stage}_share"),
                measured[i] / measured_sum,
            );
        }
    }
}
