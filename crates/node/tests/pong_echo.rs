//! The checksum echoes: a node answers a PING with a PONG, and an INV
//! whose every item it wants with a GETDATA, whose header reuses the
//! request's verified checksum instead of hashing the same payload bytes
//! again. Each frame must be byte for byte the one `to_frame` builds, and
//! a request that fails its checksum must never be answered.

use btc_netsim::packet::SockAddr;
use btc_netsim::prop::Gen;
use btc_netsim::sim::{App, Ctx, HostConfig, SimConfig, Simulator};
use btc_netsim::tcp::ConnId;
use btc_netsim::time::SECS;
use btc_node::node::{Node, NodeConfig};
use btc_wire::drain::FrameAssembler;
use btc_wire::message::{Message, RawMessage, VersionMessage};
use btc_wire::types::{Hash256, InvType, Inventory, NetAddr, Network};
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

    /// The `command` frames received, as wire bytes.
    fn replies(&self, command: &str) -> Vec<Vec<u8>> {
        self.received
            .iter()
            .filter(|raw| raw.header.command_str() == Ok(command))
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
/// `reply` frames and the node's bad-checksum count.
fn run_for(reply: &str, script: Vec<Vec<u8>>) -> (Vec<Vec<u8>>, u64) {
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
    (probe.replies(reply), node.telemetry.bad_checksum_frames)
}

/// [`run_for`] collecting PONGs.
fn run(script: Vec<Vec<u8>>) -> (Vec<Vec<u8>>, u64) {
    run_for("pong", script)
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

/// Every `InvType` a node may want, each announcing a hash it cannot know.
fn wantable(g: &mut Gen, n: usize) -> Vec<Inventory> {
    let kinds = [
        InvType::Tx,
        InvType::WitnessTx,
        InvType::Block,
        InvType::WitnessBlock,
        InvType::CmpctBlock,
    ];
    (0..n)
        .map(|_| Inventory::new(*g.choose(&kinds), Hash256::from(g.array32())))
        .collect()
}

#[test]
fn getdata_for_every_announced_item_is_byte_identical_to_a_framed_one() {
    let mut g = Gen::new(0x6E7D_A7A0, 64);
    let invs: Vec<Vec<Inventory>> = (1..=24).map(|n| wantable(&mut g, n % 7 + 1)).collect();
    let script = invs
        .iter()
        .map(|inv| Message::Inv(inv.clone()).to_frame(NET).to_vec())
        .collect();
    let (getdatas, bad) = run_for("getdata", script);
    let want: Vec<Vec<u8>> = invs
        .into_iter()
        .map(|inv| Message::GetData(inv).to_frame(NET).to_vec())
        .collect();
    assert_eq!(getdatas, want);
    assert_eq!(bad, 0);
}

#[test]
fn getdata_for_some_announced_items_is_freshly_hashed() {
    // The node already holds the genesis block and never fetches
    // FILTERED_BLOCK or unknown types: the GETDATA lists only the rest,
    // and its checksum must be the subset's, not the INV's.
    let genesis = btc_node::chain::genesis_block().hash();
    let mut g = Gen::new(0x5B5E_7000, 64);
    let mut cases = Vec::new();
    for known in [
        Inventory::new(InvType::Block, genesis),
        Inventory::new(InvType::FilteredBlock, Hash256::from(g.array32())),
        Inventory::new(InvType::Error(7), Hash256::from(g.array32())),
    ] {
        let wanted = wantable(&mut g, 3);
        let mut announced = wanted.clone();
        announced.insert(1, known);
        cases.push((announced, wanted));
    }
    let script = cases
        .iter()
        .map(|(announced, _)| Message::Inv(announced.clone()).to_frame(NET).to_vec())
        .collect();
    let (getdatas, bad) = run_for("getdata", script);
    let want: Vec<Vec<u8>> = cases
        .into_iter()
        .map(|(_, wanted)| Message::GetData(wanted).to_frame(NET).to_vec())
        .collect();
    assert_eq!(getdatas, want);
    assert_eq!(bad, 0);
}

#[test]
fn empty_or_corrupted_inv_gets_no_getdata() {
    let mut g = Gen::new(0xC0_4417, 64);
    let empty = Message::Inv(Vec::new()).to_frame(NET).to_vec();
    let mut corrupt = Message::Inv(wantable(&mut g, 2)).to_frame(NET).to_vec();
    corrupt[20] ^= 0x5a; // first checksum byte
    let good = wantable(&mut g, 1);
    let script = vec![
        empty,
        corrupt,
        Message::Inv(good.clone()).to_frame(NET).to_vec(),
    ];
    let (getdatas, bad) = run_for("getdata", script);
    assert_eq!(
        bad, 1,
        "the corrupted INV is counted as a bad-checksum frame"
    );
    assert_eq!(
        getdatas,
        vec![Message::GetData(good).to_frame(NET).to_vec()]
    );
}
