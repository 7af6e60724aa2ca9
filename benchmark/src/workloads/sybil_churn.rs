//! `sybil_churn`: four `btc_attack` flooders sending duplicate VERSIONs
//! into a stock node, each banned after 100 strikes and straight back
//! from the next port (Fig. 8 / BM-DoS vector 3). Connection lifecycle
//! and the write side of policy state, which `ping_flood` barely touches.

use crate::gen::{
    frame, generator_ip, mean_flood_segment, Op, Script, Step, FLOOD_START, GENERATORS, NET,
    TARGET, TARGET_ADDR,
};
use crate::probes;
use crate::trace::Tracer;
use crate::util::Digest;
use crate::workloads::node_bed::{simulator, type_id, Mark, NodeFacts};
use crate::workloads::{per, Baseline, Layers, Rep, Workload};
use btc_attack::flood::{FloodConfig, Flooder};
use btc_attack::payload::FloodPayload;
use btc_netsim::sim::App;
use btc_netsim::time::{Nanos, MILLIS, SECS};
use btc_node::metrics::Telemetry;
use btc_node::node::{Node, NodeConfig};
use btc_wire::message::{Message, VersionMessage};
use btc_wire::types::NetAddr;
use std::hint::black_box;
use std::sync::Arc;

/// Flood messages per flooder: 2 000 sessions of 100 strikes each.
const MESSAGES: u64 = 200_000;
const MESSAGES_SMOKE: u64 = 5_000;
const STRIKES_TO_BAN: u64 = 100;
const FIRST_PORT: u16 = 1024;
const SETUP_DELAY: Nanos = MILLIS;
const SLICE: Nanos = 10 * SECS;

pub struct SybilChurn {
    seed: u64,
    messages: u64,
}

pub struct SybilDone {
    facts: NodeFacts,
    telemetry: Telemetry,
    sent: u64,
    sessions: u64,
    bans_seen: u64,
    horizon: Nanos,
}

impl SybilChurn {
    pub fn setup(seed: u64, smoke: bool) -> SybilChurn {
        SybilChurn {
            seed,
            messages: if smoke { MESSAGES_SMOKE } else { MESSAGES },
        }
    }

    fn flooder(&self) -> Flooder {
        Flooder::new(FloodConfig {
            target: TARGET_ADDR,
            network: NET,
            payload: FloodPayload::DuplicateVersion,
            reconnect_on_ban: true,
            connect_setup_delay: SETUP_DELAY,
            sybil_port_start: FIRST_PORT,
            max_messages: Some(self.messages),
            ..FloodConfig::default()
        })
    }

    /// The packets of the rep without the node: per session a connect, the
    /// two handshake frames, a duplicate VERSION per sim-ms and a close,
    /// replayed by the scripted generator into a sink.
    fn sink_scripts(&self) -> Vec<Arc<Script>> {
        (0..GENERATORS)
            .map(|g| {
                let mut s = Script::default();
                let from = NetAddr::new(generator_ip(g), 0);
                let version = frame(&Message::Version(VersionMessage::new(
                    from,
                    NetAddr::new(TARGET, TARGET_ADDR.port),
                    0,
                )));
                let verack = frame(&Message::Verack);
                let (v_at, v_len) = (0, version.len());
                s.buf.extend_from_slice(&version);
                let a_at = s.buf.len();
                s.buf.extend_from_slice(&verack);
                // From FLOOD_START on, so the whole schedule counts as flood.
                let mut at = FLOOD_START;
                for session in 0..self.messages / STRIKES_TO_BAN {
                    s.steps.push(Step {
                        at,
                        op: Op::Connect(FIRST_PORT + (session % 60_000) as u16),
                    });
                    at += MILLIS;
                    s.resend_at(at, v_at, v_len);
                    s.resend_at(at, a_at, verack.len());
                    for _ in 0..STRIKES_TO_BAN {
                        at += MILLIS;
                        s.resend_at(at, v_at, v_len);
                    }
                    s.steps.push(Step { at, op: Op::Close });
                    at += SETUP_DELAY;
                }
                Arc::new(s)
            })
            .collect()
    }
}

impl Workload for SybilChurn {
    type Done = SybilDone;

    fn rep(&self, tracer: &mut Tracer) -> (Rep, SybilDone) {
        let flooders = (0..GENERATORS).map(|_| Box::new(self.flooder()) as Box<dyn App>);
        let mut sim = simulator(
            self.seed,
            Box::new(Node::new(NodeConfig::default())),
            flooders,
        );
        // Handshakes are this workload's work: the timed region is the whole run.
        let mut horizon = 0;
        // A message a sim-ms and a reconnect per hundred: twice that is never reached.
        let give_up = self.messages * 2 * MILLIS + 10 * SLICE;
        let mut done = false;
        let (_, wall_ns) = tracer.span("rep", |t| {
            while !done && horizon < give_up {
                horizon += SLICE;
                t.span("netsim.run_until", |_| {
                    let before = sim.delivered_packets();
                    sim.run_until(horizon);
                    ((), sim.delivered_packets() - before)
                });
                // One slice past the last flooder's last message, so its ban lands.
                done = (0..GENERATORS).all(|g| {
                    let f: &Flooder = sim.app(generator_ip(g)).expect("a flooder");
                    f.stats.messages_sent >= self.messages
                        && f.stats.bans.len() as u64 >= f.stats.sessions_established
                });
            }
            ((), 0)
        });
        let (mut sent, mut sessions, mut bans_seen) = (0, 0, 0);
        for g in 0..GENERATORS {
            let f: &Flooder = sim.app(generator_ip(g)).expect("a flooder");
            sent += f.stats.messages_sent;
            sessions += f.stats.sessions_established;
            bans_seen += f.stats.bans.len() as u64;
        }
        let (facts, telemetry) = NodeFacts::collect(&mut sim, Mark::default(), 0);
        // Every session opens with one VERSION of its own; the rest are the flood.
        let flood_logged = facts.counts[type_id("version")].saturating_sub(sessions);
        let mut violations = Vec::new();
        if !done {
            violations.push(format!(
                "the flooders were not finished after {} sim-s",
                horizon / SECS
            ));
        }
        if facts.bans != bans_seen {
            violations.push(format!(
                "the target issued {} bans, the flooders saw {bans_seen}",
                facts.bans
            ));
        }
        if facts.banman_entries != facts.bans {
            violations.push(format!(
                "{} bans left {} ban-list entries",
                facts.bans, facts.banman_entries
            ));
        }
        let rep = Rep {
            wall_ns,
            ops: facts.records,
            attempted: sent,
            // Flood messages the target never logged, plus sessions that did not end in a ban.
            failed: sent.saturating_sub(flood_logged) + sessions.saturating_sub(bans_seen),
            digest: Digest::of([facts.digest(), sent, sessions, bans_seen, horizon]),
            violations,
            note: format!(
                "{} sent={sent} sessions={sessions} bans_seen={bans_seen} sim_s={}",
                facts.note(),
                horizon / SECS
            ),
        };
        (
            rep,
            SybilDone {
                facts,
                telemetry,
                sent,
                sessions,
                bans_seen,
                horizon,
            },
        )
    }

    fn probes(
        &self,
        rep: &Rep,
        done: SybilDone,
        base: &Baseline,
        tracer: &mut Tracer,
        out: &mut Layers,
    ) {
        let SybilDone {
            facts,
            telemetry,
            sent,
            sessions,
            bans_seen,
            horizon,
        } = done;
        facts.report(&telemetry, rep.ops, out);
        out.set("attack.msgs_sent", sent as f64);
        out.set("attack.sessions", sessions as f64);
        out.set("attack.bans_seen", bans_seen as f64);

        let scripts = self.sink_scripts();
        let until = horizon.max(scripts[0].end() + SECS);
        let netsim_ns = probes::sink(self.seed, &scripts, facts.reply_shape(), until, tracer, out);

        // The flooders build every message inside the timed region.
        let (from, to) = (
            btc_netsim::packet::SockAddr::new(generator_ip(0), FIRST_PORT),
            TARGET_ADDR,
        );
        const BUILDS: u64 = 200_000;
        let (_, ns) = tracer.span("probe.attack.build", |_| {
            for nonce in 0..BUILDS {
                black_box(FloodPayload::DuplicateVersion.build(NET, from, to, nonce));
            }
            ((), BUILDS)
        });
        out.set("attack.build_ns_per_msg", per(ns as f64, BUILDS));
        let build_ns = per(ns as f64, BUILDS) * sent as f64;
        out.covered_ns += build_ns;
        let node_self_ns = (base.untraced_wall_ns - netsim_ns - build_ns).max(0.0);
        out.set("node.self_ns_per_msg", per(node_self_ns, rep.ops));

        let wire = probes::wire(&scripts, tracer, out);
        probes::tcp(mean_flood_segment(&scripts), tracer, out);
        probes::telemetry_write(&telemetry.messages, tracer, out);
        probes::stock_strikes(facts.tracker_events, tracer, out);
        probes::banman(facts.banman_entries, tracer, out);
        probes::calibration(&wire, node_self_ns, out);
    }
}
