//! Receive-path tests: the zero-copy batched drain must be byte-for-byte
//! equivalent to the frame-at-a-time loop it replaced, and the bounded
//! receive buffer must disconnect drip-fed eternally-incomplete frames.
//!
//! The equivalence argument is checked two ways: a wire-level property
//! comparing [`FrameAssembler`] against a reimplementation of the old
//! `Vec<u8>`-plus-tail-copy drain across fuzzed delivery split points, and
//! a node-level property asserting that telemetry counters and misbehavior
//! verdicts match a straight-line oracle computed from the frame kinds —
//! independent of how the bytes were chunked in transit.

use btc_netsim::packet::SockAddr;
use btc_netsim::prop::{check, Gen};
use btc_netsim::sim::{App, Ctx, HostConfig, SimConfig, Simulator};
use btc_netsim::tcp::ConnId;
use btc_netsim::time::{MILLIS, SECS};
use btc_node::node::{Node, NodeConfig};
use btc_wire::drain::FrameAssembler;
use btc_wire::message::{read_frame, FrameResult, Message, RawMessage};
use btc_wire::types::{NetAddr, Network, TimestampedAddr};
use std::any::Any;

const NODE: [u8; 4] = [10, 0, 0, 1];
const SENDER: [u8; 4] = [10, 0, 0, 2];

/// The kinds of frame the generators emit, and what each must produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Valid ping: decodes, counts in telemetry, +1 message-before-VERSION.
    Ping,
    /// Valid addr: same, with a larger payload.
    Addr,
    /// Checksum field corrupted: dropped before tracking, bad-checksum + 1.
    BadChecksum,
    /// Command field overwritten: frames fine, decode fails, undecodable +1.
    UnknownCmd,
    /// Magic corrupted: framing error — the node disconnects the sender.
    WrongMagic,
}

/// Builds the on-the-wire bytes of one frame of the given kind.
fn segment(kind: Kind, salt: u64) -> Vec<u8> {
    let msg = match kind {
        Kind::Addr => Message::Addr(vec![TimestampedAddr {
            time: salt as u32,
            addr: NetAddr::new([10, 0, 0, 9], 8333),
        }]),
        _ => Message::Ping(salt),
    };
    let mut b = RawMessage::frame(Network::Regtest, &msg).to_bytes().to_vec();
    match kind {
        Kind::BadChecksum => b[20] ^= 0x5a,
        Kind::UnknownCmd => b[4..16].copy_from_slice(b"bogus\0\0\0\0\0\0\0"),
        Kind::WrongMagic => b[0] ^= 0xff,
        _ => {}
    }
    b
}

fn gen_kind(g: &mut Gen) -> Kind {
    *g.choose(&[
        Kind::Ping,
        Kind::Ping,
        Kind::Addr,
        Kind::BadChecksum,
        Kind::UnknownCmd,
        Kind::WrongMagic,
    ])
}

/// Splits `stream` into random non-empty chunks.
fn split_chunks(g: &mut Gen, stream: &[u8]) -> Vec<Vec<u8>> {
    let mut chunks = Vec::new();
    let mut off = 0;
    while off < stream.len() {
        let n = g.usize_in(1, (stream.len() - off + 1).min(97));
        chunks.push(stream[off..off + n].to_vec());
        off += n;
    }
    chunks
}

/// The drain loop the zero-copy path replaced: a growing `Vec<u8>` with an
/// O(k) tail copy per frame, cleared on a framing error. Returns the bytes
/// those tail copies moved.
fn reference_drain(buf: &mut Vec<u8>, out: &mut Vec<RawMessage>) -> u64 {
    let mut moved = 0;
    loop {
        match read_frame(Network::Regtest, buf) {
            Ok(FrameResult::Frame { raw, consumed }) => {
                out.push(raw);
                moved += (buf.len() - consumed) as u64;
                *buf = buf[consumed..].to_vec();
            }
            Ok(FrameResult::Incomplete) => break,
            Err(_) => {
                buf.clear();
                break;
            }
        }
    }
    moved
}

/// Feeds `chunks` through [`FrameAssembler`] and [`reference_drain`] side by
/// side, asserts both yield the same frames and residual, and returns
/// (frames, bytes the assembler memmoved, bytes the old drain moved).
fn drain_both<'a>(chunks: impl IntoIterator<Item = &'a [u8]>, what: &str) -> (usize, u64, u64) {
    let mut asm = FrameAssembler::new(Network::Regtest);
    let mut refbuf: Vec<u8> = Vec::new();
    let mut got = Vec::new();
    let mut want = Vec::new();
    let mut old_moved = 0;
    for chunk in chunks {
        asm.push(chunk);
        while let Some(raw) = asm.next_frame() {
            got.push(raw);
        }
        refbuf.extend_from_slice(chunk);
        old_moved += reference_drain(&mut refbuf, &mut want);
    }
    assert_eq!(got, want, "{what}");
    assert_eq!(asm.buffered(), refbuf.len(), "{what}: residual bytes diverged");
    (got.len(), asm.bytes_memmoved(), old_moved)
}

#[test]
fn assembler_matches_reference_drain_under_fuzzed_chunking() {
    check("assembler == old drain for any delivery split", |g| {
        let kinds: Vec<Kind> = g.vec_with(0, 16, gen_kind);
        let stream: Vec<u8> = kinds
            .iter()
            .enumerate()
            .flat_map(|(i, &k)| segment(k, i as u64))
            .collect();
        let chunks = split_chunks(g, &stream);
        drain_both(
            chunks.iter().map(Vec::as_slice),
            &format!("kinds {kinds:?}"),
        );
    });
}

#[test]
fn assembler_memmoves_at_most_half_of_the_reference_drain() {
    // Multi-frame bursts delivered in MSS-sized chunks, so frames straddle
    // delivery boundaries — the case the old drain's per-frame tail copy
    // made quadratic. Both byte counts are deterministic.
    const MSS: usize = 1460;
    let ping_flood: Vec<u8> = (0..256).flat_map(|i| segment(Kind::Ping, i)).collect();
    let mixed: Vec<u8> = (0..192)
        .flat_map(|i| segment(if i % 3 == 0 { Kind::Addr } else { Kind::Ping }, i))
        .collect();
    for (name, frames, stream) in [("ping flood", 256, ping_flood), ("mixed sizes", 192, mixed)] {
        let (got, moved, old_moved) = drain_both(stream.chunks(MSS), name);
        assert_eq!(got, frames, "{name}");
        assert!(
            moved * 2 <= old_moved,
            "{name}: {moved} bytes memmoved vs {old_moved} by the old drain"
        );
    }
}

/// Dials the node and sends a fixed byte stream, one chunk per millisecond
/// so every chunk arrives as its own delivery tick.
struct ChunkSender {
    target: SockAddr,
    chunks: Vec<Vec<u8>>,
    next: usize,
    conn: Option<ConnId>,
}

impl ChunkSender {
    fn new(target: SockAddr, chunks: Vec<Vec<u8>>) -> Self {
        ChunkSender {
            target,
            chunks,
            next: 0,
            conn: None,
        }
    }
}

impl App for ChunkSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.conn = Some(ctx.connect(self.target));
    }

    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _peer: SockAddr, _inb: bool) {
        self.conn = Some(conn);
        ctx.set_timer(MILLIS, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if let (Some(conn), Some(chunk)) = (self.conn, self.chunks.get(self.next)) {
            ctx.send(conn, chunk);
            self.next += 1;
            ctx.set_timer(MILLIS, 0);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Runs one node + one ChunkSender sim and returns the node for inspection.
fn run_stream(cfg: NodeConfig, chunks: Vec<Vec<u8>>) -> Simulator {
    let mut sim = Simulator::new(SimConfig::default());
    sim.add_host(NODE, Box::new(Node::new(cfg)), HostConfig::default());
    sim.add_host(
        SENDER,
        Box::new(ChunkSender::new(SockAddr::new(NODE, 8333), chunks)),
        HostConfig::default(),
    );
    // Budget for the worst case the properties generate: ~700 one-byte
    // chunks at 1 ms apiece. Maintenance ticks in between are harmless
    // with the default (timeouts-off) config.
    sim.run_for(2 * SECS);
    sim
}

#[test]
fn telemetry_and_verdicts_are_chunking_invariant() {
    check("node counters match the frame-kind oracle", |g| {
        let kinds: Vec<Kind> = g.vec_with(1, 12, gen_kind);
        let stream: Vec<u8> = kinds
            .iter()
            .enumerate()
            .flat_map(|(i, &k)| segment(k, i as u64))
            .collect();
        let chunks = split_chunks(g, &stream);

        // Straight-line oracle: the node processes frames in byte order
        // regardless of delivery split; a wrong-magic frame disconnects
        // and everything after it is never seen.
        let (mut exp_msgs, mut exp_bad, mut exp_undec) = (0u64, 0u64, 0u64);
        let mut disconnected = false;
        for &k in &kinds {
            match k {
                Kind::Ping | Kind::Addr => exp_msgs += 1,
                Kind::BadChecksum => exp_bad += 1,
                Kind::UnknownCmd => exp_undec += 1,
                Kind::WrongMagic => {
                    disconnected = true;
                    break;
                }
            }
        }

        let sim = run_stream(NodeConfig::default(), chunks);
        let node: &Node = sim.app(NODE).unwrap();
        assert_eq!(node.telemetry.messages.len() as u64, exp_msgs, "{kinds:?}");
        assert_eq!(node.telemetry.bad_checksum_frames, exp_bad, "{kinds:?}");
        assert_eq!(node.telemetry.undecodable_frames, exp_undec, "{kinds:?}");
        // Every decoded pre-VERSION message is one +1 misbehavior verdict.
        assert_eq!(node.tracker.events().len() as u64, exp_msgs, "{kinds:?}");
        assert_eq!(node.telemetry.bans, 0, "{kinds:?}");
        assert_eq!(
            node.peer_count(),
            usize::from(!disconnected),
            "{kinds:?}"
        );
    });
}

#[test]
fn steady_state_receive_path_never_memmoves() {
    // Whole frames delivered tick-by-tick: the cursor resets in place and
    // the buffer is never compacted or rebuilt.
    let chunks: Vec<Vec<u8>> = (0..50).map(|i| segment(Kind::Ping, i)).collect();
    let sim = run_stream(NodeConfig::default(), chunks);
    let node: &Node = sim.app(NODE).unwrap();
    assert_eq!(node.telemetry.messages.len(), 50);
    let peer = node.peer_by_addr(&node.telemetry.messages[0].from).unwrap();
    assert_eq!(peer.recv_buf.bytes_memmoved(), 0, "steady state must be zero-copy");
    assert_eq!(peer.recv_buf.unconsumed(), 0);
}

#[test]
fn oversized_unframeable_buffer_disconnects() {
    // One large frame dripped halfway against a 100-byte buffer limit:
    // the first tick leaves >100 unframeable bytes buffered, which must
    // disconnect (not ban) the sender.
    let entries: Vec<TimestampedAddr> = (0..10)
        .map(|i| TimestampedAddr {
            time: i,
            addr: NetAddr::new([10, 0, 0, 9], 8333),
        })
        .collect();
    let big = RawMessage::frame(Network::Regtest, &Message::Addr(entries))
        .to_bytes()
        .to_vec();
    assert!(big.len() > 200, "need one frame bigger than the limit");
    let first_half = big[..150].to_vec();
    let cfg = NodeConfig {
        recv_buffer_limit: 100,
        ..NodeConfig::default()
    };
    let sim = run_stream(cfg, vec![first_half]);
    let node: &Node = sim.app(NODE).unwrap();
    assert_eq!(node.peer_count(), 0, "drip-fed peer must be disconnected");
    assert_eq!(node.telemetry.bans, 0, "overflow is a disconnect, not a ban");
    assert_eq!(node.telemetry.messages.len(), 0);
}

#[test]
fn complete_frames_never_trip_the_buffer_limit() {
    // The same tight limit is harmless when frames complete within it.
    let cfg = NodeConfig {
        recv_buffer_limit: 100,
        ..NodeConfig::default()
    };
    let chunks: Vec<Vec<u8>> = (0..10).map(|i| segment(Kind::Ping, i)).collect();
    let sim = run_stream(cfg, chunks);
    let node: &Node = sim.app(NODE).unwrap();
    assert_eq!(node.peer_count(), 1);
    assert_eq!(node.telemetry.messages.len(), 10);
}

#[test]
fn one_byte_drip_decodes_identically() {
    // The pathological chunking: every byte its own delivery. Slower, but
    // byte-for-byte the same outcome as one burst.
    let kinds = [Kind::Ping, Kind::BadChecksum, Kind::Addr, Kind::UnknownCmd];
    let stream: Vec<u8> = kinds
        .iter()
        .enumerate()
        .flat_map(|(i, &k)| segment(k, i as u64))
        .collect();

    let burst = run_stream(NodeConfig::default(), vec![stream.clone()]);
    let drip = run_stream(NodeConfig::default(), stream.iter().map(|&b| vec![b]).collect());
    let (bn, dn): (&Node, &Node) = (burst.app(NODE).unwrap(), drip.app(NODE).unwrap());
    assert_eq!(bn.telemetry.messages.len(), 2);
    assert_eq!(dn.telemetry.messages.len(), 2);
    assert_eq!(bn.telemetry.bad_checksum_frames, dn.telemetry.bad_checksum_frames);
    assert_eq!(bn.telemetry.undecodable_frames, dn.telemetry.undecodable_frames);
    assert_eq!(bn.tracker.events().len(), dn.tracker.events().len());
}
