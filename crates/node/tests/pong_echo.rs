//! The PONG echo: a node answers a PING with a PONG whose header reuses
//! the PING's verified checksum instead of hashing the payload again. The
//! frame must be byte for byte the one `Message::Pong(n).to_frame` builds,
//! and a PING that fails its checksum must never be answered.

use btc_netsim::packet::SockAddr;
use btc_netsim::prop::Gen;
use btc_netsim::sim::{App, Ctx, HostConfig, SimConfig, Simulator};
use btc_netsim::tcp::ConnId;
use btc_netsim::time::SECS;
use btc_node::node::{Node, NodeConfig};
use btc_wire::drain::FrameAssembler;
use btc_wire::message::{Message, RawMessage, VersionMessage};
use btc_wire::types::{NetAddr, Network};
use std::any::Any;

const NODE: [u8; 4] = [10, 0, 0, 1];
const PROBE: [u8; 4] = [10, 0, 0, 2];
const NET: Network = Network::Regtest;

/// Completes the version handshake, then sends `script` (raw frame bytes)
/// and keeps every frame the node sends back, undecoded.
struct Probe {
    script: Vec<Vec<u8>>,
    received: Vec<RawMessage>,
    frames: FrameAssembler,
    handshaked: bool,
}

impl Probe {
    fn new(script: Vec<Vec<u8>>) -> Self {
        Probe {
            script,
            received: Vec::new(),
            frames: FrameAssembler::new(NET),
            handshaked: false,
        }
    }

    /// The PONG frames received, as wire bytes.
    fn pongs(&self) -> Vec<Vec<u8>> {
        self.received
            .iter()
            .filter(|raw| raw.header.command_str() == Ok("pong"))
            .map(|raw| raw.to_bytes().to_vec())
            .collect()
    }
}

impl App for Probe {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.connect(SockAddr::new(NODE, 8333));
    }

    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, peer: SockAddr, _inb: bool) {
        let local = ctx.local_of(conn).unwrap_or_default();
        let v = VersionMessage::new(
            NetAddr::new(local.ip, local.port),
            NetAddr::new(peer.ip, peer.port),
            7,
        );
        ctx.send_bytes(conn, Message::Version(v).to_frame(NET));
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _peer: SockAddr, data: &[u8]) {
        self.frames.push(data);
        while let Some(raw) = self.frames.next_frame() {
            match raw.header.command_str() {
                Ok("version") => {
                    ctx.send_bytes(conn, Message::Verack.to_frame(NET));
                }
                Ok("verack") if !self.handshaked => {
                    self.handshaked = true;
                    for frame in &self.script {
                        ctx.send(conn, frame);
                    }
                }
                _ => {}
            }
            self.received.push(raw);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Runs one node and one probe sending `script`; returns the probe's
/// PONGs and the node's bad-checksum count.
fn run(script: Vec<Vec<u8>>) -> (Vec<Vec<u8>>, u64) {
    let mut sim = Simulator::new(SimConfig::default());
    sim.add_host(
        NODE,
        Box::new(Node::new(NodeConfig::default())),
        HostConfig::default(),
    );
    sim.add_host(PROBE, Box::new(Probe::new(script)), HostConfig::default());
    sim.run_for(SECS);
    let probe: &Probe = sim.app(PROBE).expect("probe");
    assert!(probe.handshaked, "handshake did not complete");
    let node: &Node = sim.app(NODE).expect("node");
    (probe.pongs(), node.telemetry.bad_checksum_frames)
}

#[test]
fn echoed_pong_is_byte_identical_to_a_framed_pong() {
    let mut g = Gen::new(0x9096_EC40, 64);
    let mut nonces = vec![0, 1, u64::MAX];
    nonces.extend((0..61).map(|_| g.u64()));
    let script = nonces
        .iter()
        .map(|&n| Message::Ping(n).to_frame(NET).to_vec())
        .collect();
    let (pongs, bad) = run(script);
    let want: Vec<Vec<u8>> = nonces
        .iter()
        .map(|&n| Message::Pong(n).to_frame(NET).to_vec())
        .collect();
    assert_eq!(pongs, want);
    assert_eq!(bad, 0);
}

#[test]
fn ping_with_corrupted_checksum_gets_no_pong() {
    let mut corrupt = Message::Ping(0xBAD).to_frame(NET).to_vec();
    corrupt[20] ^= 0x5a; // first checksum byte
    let good = Message::Ping(0x600D).to_frame(NET).to_vec();
    let (pongs, bad) = run(vec![corrupt, good]);
    assert_eq!(
        bad, 1,
        "the corrupted PING is counted as a bad-checksum frame"
    );
    assert_eq!(pongs, vec![Message::Pong(0x600D).to_frame(NET).to_vec()]);
}
