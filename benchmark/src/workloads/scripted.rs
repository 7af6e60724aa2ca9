//! `ping_flood`, `bogus_block_flood` and `relay_mix`: four scripted
//! generator hosts, one connection each, into one [`Node`] on the serial
//! [`Simulator`]. The three differ in what the scripts carry, in the
//! target's peer policy, and in what counts as disposed of.

use crate::gen::{
    frame, generator_ip, mean_flood_segment, scripted_peers, Script, ScriptedPeer, FLOOD_START,
    GENERATORS, HANDSHAKES_DONE, NET, TARGET,
};
use crate::probes;
use crate::trace::Tracer;
use crate::util::Digest;
use crate::workloads::node_bed::{mark, simulator, type_id, NodeFacts};
use crate::workloads::{per, Baseline, Layers, Rep, Workload};
use banscore::windows::single_window;
use btc_detect::engine::{AnalysisEngine, Profile};
use btc_detect::features::TrafficWindow;
use btc_netsim::rng::SimRng;
use btc_netsim::shard::{ShardConfig, ShardedSim};
use btc_netsim::sim::{HostConfig, Simulator};
use btc_netsim::time::{Nanos, MILLIS, SECS};
use btc_node::chain::{genesis_block, mine_child};
use btc_node::metrics::Telemetry;
use btc_node::node::{Node, NodeConfig, PeerPolicy};
use btc_wire::bytes::Bytes;
use btc_wire::message::{Message, RawMessage};
use btc_wire::tx::{OutPoint, TxIn, TxOut};
use btc_wire::types::{Hash256, InvType, Inventory, NetAddr, TimestampedAddr};
use btc_wire::{Block, Transaction};
use std::sync::Arc;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Ping,
    Bogus,
    Relay,
}

pub struct Scripted {
    kind: Kind,
    seed: u64,
    node: NodeConfig,
    scripts: Vec<Arc<Script>>,
    /// Sim time between two returns from `run_until` (and two polls).
    slice: Nanos,
    horizon: Nanos,
    /// The profile of the online monitor of Fig. 9 that `relay_mix` runs
    /// beside the node.
    monitor: Option<Profile>,
    /// `relay_mix`'s pre-mined chain, in order.
    blocks: Vec<Block>,
}

pub struct ScriptedDone {
    facts: NodeFacts,
    telemetry: Telemetry,
}

// ---- ping_flood ----------------------------------------------------------

/// PINGs per generator and per 1-sim-ms tick. 4 × 250k is ≈1 s a rep.
const PING_PER_GENERATOR: usize = 250_000;
const PING_PER_GENERATOR_SMOKE: usize = 5_000;
const PING_PER_TICK: usize = 25;

// ---- bogus_block_flood ---------------------------------------------------

const BOGUS_PAYLOAD: usize = 100_000;
const BOGUS_PER_GENERATOR: usize = 2_000;
const BOGUS_PER_GENERATOR_SMOKE: usize = 25;
/// 100 kB every 2 sim-ms is 400 Mbit/s a connection.
const BOGUS_INTERVAL: Nanos = 2 * MILLIS;

// ---- relay_mix -----------------------------------------------------------

/// One round is one burst from each peer, a sim-second apart: 37 messages
/// a second a peer, under the tier engine's 50 msg/s flood-pressure refill.
const RELAY_ROUNDS: usize = 2_400;
const RELAY_ROUNDS_SMOKE: usize = 64;
const RELAY_TXS: usize = 16;
const RELAY_PINGS: usize = 4;
const RELAY_ADDRS: usize = 10;
/// A block every this many rounds confirms every transaction announced
/// since the last one, so the mempool stays at steady state.
const RELAY_BLOCK_EVERY: usize = 32;
/// Addresses gossiped in ADDR come from a pool this large, so the
/// address table saturates like a real one instead of growing per message.
const RELAY_ADDR_POOL: u64 = 4_096;
const RELAY_MSGS_PER_BURST: u64 = (2 * RELAY_TXS + RELAY_PINGS + 1) as u64;
/// Sim time one poll of the online monitor looks back over.
const MONITOR_WINDOW: Nanos = 60 * SECS;

impl Scripted {
    pub fn ping_flood(seed: u64, smoke: bool) -> Scripted {
        let per_generator = if smoke {
            PING_PER_GENERATOR_SMOKE
        } else {
            PING_PER_GENERATOR
        };
        let mut rng = SimRng::new(seed ^ 0x5049_4E47);
        let scripts = (0..GENERATORS)
            .map(|g| {
                let mut s = Script::with_handshake(g, rng.next_u64());
                let ping_len = frame(&Message::Ping(0)).len();
                let mut tick = Vec::with_capacity(PING_PER_TICK * ping_len);
                for t in 0..per_generator.div_ceil(PING_PER_TICK) {
                    tick.clear();
                    for _ in 0..PING_PER_TICK.min(per_generator - t * PING_PER_TICK) {
                        tick.extend_from_slice(&frame(&Message::Ping(rng.next_u64())));
                    }
                    s.send_chunks_at(FLOOD_START + t as Nanos * MILLIS, &tick, ping_len);
                }
                s.flood_msgs = per_generator as u64;
                Arc::new(s)
            })
            .collect();
        Scripted::new(Kind::Ping, seed, NodeConfig::default(), scripts, SECS)
    }

    pub fn bogus_block_flood(seed: u64, smoke: bool) -> Scripted {
        let per_generator = if smoke {
            BOGUS_PER_GENERATOR_SMOKE
        } else {
            BOGUS_PER_GENERATOR
        };
        let mut rng = SimRng::new(seed ^ 0x424F_4755);
        let scripts = (0..GENERATORS)
            .map(|g| {
                let mut s = Script::with_handshake(g, rng.next_u64());
                // Never decoded, so only its length matters; seeded junk all the same.
                let junk: Vec<u8> = (0..BOGUS_PAYLOAD.div_ceil(8))
                    .flat_map(|_| rng.next_u64().to_le_bytes())
                    .collect();
                let bogus = RawMessage::frame_raw(NET, "block", Bytes::from(junk))
                    .corrupt_checksum()
                    .to_bytes();
                let start = s.buf.len();
                s.send_at(FLOOD_START, &bogus);
                for i in 1..per_generator {
                    s.resend_at(
                        FLOOD_START + i as Nanos * BOGUS_INTERVAL,
                        start,
                        bogus.len(),
                    );
                }
                s.flood_msgs = per_generator as u64;
                Arc::new(s)
            })
            .collect();
        Scripted::new(Kind::Bogus, seed, NodeConfig::default(), scripts, SECS)
    }

    pub fn relay_mix(seed: u64, smoke: bool) -> Scripted {
        let rounds = if smoke {
            RELAY_ROUNDS_SMOKE
        } else {
            RELAY_ROUNDS
        };
        let mut rng = SimRng::new(seed ^ 0x5245_4C41);
        let mut scripts: Vec<Script> = (0..GENERATORS)
            .map(|g| Script::with_handshake(g, rng.next_u64()))
            .collect();
        let genesis = genesis_block();
        let (mut tip_header, mut tip_hash) = (genesis.header, genesis.hash());
        let mut blocks = Vec::new();
        let mut unconfirmed = Vec::new();
        for r in 0..rounds {
            let round_start = FLOOD_START + r as Nanos * SECS;
            for (g, script) in scripts.iter_mut().enumerate() {
                let at = round_start + g as Nanos * 100 * MILLIS;
                let txs: Vec<Transaction> = (0..RELAY_TXS)
                    .map(|k| honest_tx(&mut rng, k as u32))
                    .collect();
                let mut announce = Vec::new();
                for tx in &txs {
                    announce.extend_from_slice(&frame(&Message::Inv(vec![Inventory::new(
                        InvType::Tx,
                        tx.txid(),
                    )])));
                }
                for _ in 0..RELAY_PINGS {
                    announce.extend_from_slice(&frame(&Message::Ping(rng.next_u64())));
                }
                let addrs = (0..RELAY_ADDRS)
                    .map(|_| {
                        let a = rng.gen_range(RELAY_ADDR_POOL);
                        TimestampedAddr {
                            time: (at / SECS) as u32,
                            addr: NetAddr::new([100, 64, (a >> 8) as u8, a as u8], 8333),
                        }
                    })
                    .collect();
                announce.extend_from_slice(&frame(&Message::Addr(addrs)));
                script.send_at(at, &announce);
                // The GETDATA this answers is back within 0.2 sim-ms.
                let mut deliver = Vec::new();
                for tx in &txs {
                    deliver.extend_from_slice(&frame(&Message::Tx(tx.clone())));
                }
                script.send_at(at + 10 * MILLIS, &deliver);
                script.flood_msgs += RELAY_MSGS_PER_BURST;
                unconfirmed.extend(txs);
            }
            if (r + 1) % RELAY_BLOCK_EVERY == 0 {
                let block = mine_child(
                    &tip_header,
                    tip_hash,
                    seed ^ r as u64,
                    std::mem::take(&mut unconfirmed),
                );
                (tip_header, tip_hash) = (block.header, block.hash());
                let miner = &mut scripts[(r / RELAY_BLOCK_EVERY) % GENERATORS];
                // After every peer's burst of the round is in.
                miner.send_at(
                    round_start + 900 * MILLIS,
                    &frame(&Message::Block(block.clone())),
                );
                miner.flood_msgs += 1;
                blocks.push(block);
            }
        }
        let node = NodeConfig {
            peer_policy: PeerPolicy::TrustTiers,
            ..NodeConfig::default()
        };
        let mut w = Scripted::new(
            Kind::Relay,
            seed,
            node,
            scripts.into_iter().map(Arc::new).collect(),
            10 * SECS,
        );
        w.monitor = Some(relay_profile(&mut rng));
        w.blocks = blocks;
        w
    }

    fn new(
        kind: Kind,
        seed: u64,
        node: NodeConfig,
        scripts: Vec<Arc<Script>>,
        slice: Nanos,
    ) -> Scripted {
        assert!(
            scripts
                .iter()
                .all(|s| s.steps.windows(2).all(|w| w[0].at <= w[1].at)),
            "a script's steps must be in time order"
        );
        let end = scripts.iter().map(|s| s.end()).max().unwrap_or(0);
        // One more slice after the last send, so everything in flight lands.
        let horizon = (end / slice + 2) * slice;
        Scripted {
            kind,
            seed,
            node,
            scripts,
            slice,
            horizon,
            monitor: None,
            blocks: Vec::new(),
        }
    }

    /// Fresh simulator, handshakes done, clock at [`HANDSHAKES_DONE`].
    fn build(&self) -> Simulator {
        let mut sim = simulator(
            self.seed,
            Box::new(Node::new(self.node.clone())),
            scripted_peers(&self.scripts),
        );
        sim.run_until(HANDSHAKES_DONE);
        sim
    }

    fn sent(&self) -> u64 {
        self.scripts.iter().map(|s| s.flood_msgs).sum()
    }
}

/// A unique, valid, non-coinbase transaction.
fn honest_tx(rng: &mut SimRng, vout: u32) -> Transaction {
    let mut prev = [0u8; 32];
    for chunk in prev.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let value = 1_000 + (rng.next_u64() % 50_000) as i64;
    Transaction::new(
        2,
        vec![TxIn::new(OutPoint::new(Hash256(prev), vout))],
        vec![TxOut::new(value, vec![0x51])],
        0,
    )
}

/// The monitor's profile: trained on what a minute of this very mix looks
/// like, give or take 2 %.
fn relay_profile(rng: &mut SimRng) -> Profile {
    let id = type_id;
    let per_minute = 60 * GENERATORS as u64;
    let windows: Vec<TrafficWindow> = (0..40)
        .map(|_| {
            let mut w = TrafficWindow::empty(1.0);
            let mut wobble = |n: u64| n * (980 + rng.gen_range(41)) / 1000;
            w.counts[id("inv")] = wobble(per_minute * RELAY_TXS as u64);
            w.counts[id("tx")] = wobble(per_minute * RELAY_TXS as u64);
            w.counts[id("ping")] = wobble(per_minute * RELAY_PINGS as u64);
            w.counts[id("addr")] = wobble(per_minute);
            w.counts[id("block")] = 1 + rng.gen_range(2);
            w
        })
        .collect();
    AnalysisEngine::default()
        .train(&windows)
        .expect("forty windows")
}

impl Workload for Scripted {
    type Done = ScriptedDone;

    fn rep(&self, tracer: &mut Tracer) -> (Rep, ScriptedDone) {
        let mut sim = self.build();
        let mut violations = Vec::new();
        {
            let node: &Node = sim.app(TARGET).expect("the target is a Node");
            let ready = node
                .peer_infos()
                .iter()
                .filter(|p| p.handshake_complete)
                .count();
            if ready != GENERATORS {
                violations.push(format!(
                    "{ready} of {GENERATORS} handshakes complete when timing starts"
                ));
            }
        }
        let start = mark(&sim);
        let mut anomalous_polls = 0u64;
        let mut polled = 0u64;
        let (_, wall_ns) = tracer.span("rep", |t| {
            let mut now = HANDSHAKES_DONE;
            while now < self.horizon {
                now = (now + self.slice).min(self.horizon);
                t.span("netsim.run_until", |_| {
                    let before = sim.delivered_packets();
                    sim.run_until(now);
                    ((), sim.delivered_packets() - before)
                });
                if let Some(profile) = &self.monitor {
                    t.span("monitor.poll", |_| {
                        let node: &Node = sim.app(TARGET).expect("the target is a Node");
                        let window =
                            single_window(&node.telemetry, now.saturating_sub(MONITOR_WINDOW), now);
                        let verdict = AnalysisEngine::default().detect(profile, &window);
                        anomalous_polls += u64::from(verdict.anomalous);
                        polled += window.total();
                        ((), window.total())
                    });
                }
            }
            ((), 0)
        });
        let refused: u64 = (0..GENERATORS)
            .map(|g| {
                sim.app::<ScriptedPeer>(generator_ip(g))
                    .expect("a scripted generator")
                    .sends_refused
            })
            .sum();
        let (facts, telemetry) = NodeFacts::collect(&mut sim, start, HANDSHAKES_DONE);
        let sent = self.sent();
        let (ops, disposed) = match self.kind {
            // A PING is disposed of once it is in the log as a PING.
            Kind::Ping => (facts.records, facts.counts[type_id("ping")]),
            // A bogus frame dies at the checksum and is counted there.
            Kind::Bogus => (facts.bad_checksum, facts.bad_checksum),
            Kind::Relay => (facts.records, facts.records),
        };
        let mut failed = sent.saturating_sub(disposed);
        if self.kind == Kind::Relay {
            // A block the chain did not take is a failure even though it was logged.
            failed += (self.blocks.len() as u64).saturating_sub(facts.chain_height);
        }
        let mut expect = |ok: bool, what: &str| {
            if !ok {
                violations.push(what.to_owned());
            }
        };
        expect(
            refused == 0,
            "a generator's send was refused by its transport",
        );
        expect(facts.bans == 0, "the target banned a generator");
        expect(
            facts.graylists == 0 && facts.graylist_dropped == 0,
            "the target graylisted honest traffic",
        );
        expect(
            facts.undecodable == 0,
            "the target could not decode a frame",
        );
        if self.kind == Kind::Bogus {
            expect(
                facts.records == 0,
                "a bogus frame reached the telemetry log",
            );
        }
        let rep = Rep {
            wall_ns,
            ops,
            attempted: sent,
            failed,
            digest: Digest::of([facts.digest(), anomalous_polls, polled]),
            violations,
            note: format!("{} anomalous_polls={anomalous_polls}", facts.note()),
        };
        (rep, ScriptedDone { facts, telemetry })
    }

    fn probes(
        &self,
        rep: &Rep,
        done: ScriptedDone,
        base: &Baseline,
        tracer: &mut Tracer,
        out: &mut Layers,
    ) {
        let ScriptedDone { facts, telemetry } = done;
        facts.report(&telemetry, rep.ops, out);

        let sink_ns = probes::sink(
            self.seed,
            &self.scripts,
            facts.reply_shape(),
            self.horizon,
            tracer,
            out,
        );
        let node_self_ns = (base.untraced_wall_ns - sink_ns).max(0.0);
        out.set("node.self_ns_per_msg", per(node_self_ns, rep.ops));

        let wire = probes::wire(&self.scripts, tracer, out);
        probes::tcp(mean_flood_segment(&self.scripts), tracer, out);

        // The log is in time order: the flood's records are its tail.
        let handshakes = telemetry
            .messages
            .partition_point(|r| r.time < HANDSHAKES_DONE);
        let flood_records = &telemetry.messages[handshakes..];
        probes::telemetry_write(flood_records, tracer, out);
        if self.kind == Kind::Relay {
            let query_ns = tracer.total_ns("monitor.poll") as f64;
            out.set("node.telemetry.query_ns", query_ns);
            out.set(
                "node.telemetry.query_share",
                query_ns / tracer.total_ns("rep").max(1) as f64,
            );
            out.covered_ns += query_ns;
            probes::tiers(flood_records, tracer, out);
            let accept_ns_per_tx = probes::mempool(&wire.sample, tracer, out);
            out.covered_ns += accept_ns_per_tx * facts.counts[type_id("tx")] as f64;
            probes::chain(&self.blocks, tracer, out);
        }
        // The monitor reads the log from the benchmark's side, not the node's.
        let query_ns = out.get("node.telemetry.query_ns");
        probes::calibration(&wire, (node_self_ns - query_ns).max(0.0), out);

        if self.kind == Kind::Ping {
            // The same topology on a one-region, one-worker ShardedSim:
            // what making it the only simulator core would cost today.
            let mut sim = ShardedSim::new(ShardConfig {
                regions: 1,
                workers: 1,
                seed: self.seed,
                ..ShardConfig::default()
            });
            sim.add_host(
                TARGET,
                Box::new(Node::new(self.node.clone())),
                HostConfig::default(),
            );
            for (g, peer) in scripted_peers(&self.scripts).enumerate() {
                sim.add_host(generator_ip(g), peer, HostConfig::default());
            }
            sim.run_until(HANDSHAKES_DONE);
            let before = sim.delivered_packets();
            let (pkts, ns) = tracer.span("probe.netsim.shard.r1", |_| {
                let mut now = HANDSHAKES_DONE;
                while now < self.horizon {
                    now = (now + self.slice).min(self.horizon);
                    sim.run_until(now);
                }
                let pkts = sim.delivered_packets() - before;
                (pkts, pkts)
            });
            assert_eq!(
                pkts, facts.delivered,
                "one region must replay the serial simulator"
            );
            out.set(
                "netsim.shard.r1_over_serial",
                ns as f64 / base.untraced_wall_ns,
            );
        }
    }
}
