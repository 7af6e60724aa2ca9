//! Integration tests for the deeper protocol features: BIP152 compact
//! announcements, BIP37 filtered blocks, keepalive pings, and the address
//! manager's role in outbound selection.

use btc_netsim::packet::SockAddr;
use btc_netsim::sim::{App, Ctx, HostConfig, SimConfig, Simulator, TapFilter};
use btc_netsim::tcp::ConnId;
use btc_netsim::time::{MINUTES, SECS};
use btc_node::chain::mine_child;
use btc_node::node::{Node, NodeConfig, PeerPolicy};
use btc_wire::bloom::{BloomFilter, BloomFlags};
use btc_wire::bytes::Bytes;
use btc_wire::drain::FrameAssembler;
use btc_wire::message::{decode_frame, Message, RawMessage, VersionMessage};
use btc_wire::types::{InvType, Inventory, NetAddr, Network};
use std::any::Any;

const A: [u8; 4] = [10, 0, 0, 1];
const B: [u8; 4] = [10, 0, 0, 2];
const C: [u8; 4] = [10, 0, 0, 3];

fn addr(ip: [u8; 4]) -> SockAddr {
    SockAddr::new(ip, 8333)
}

/// A scriptable light client: performs the handshake, then sends a fixed
/// sequence of frames and records everything it receives, decoded and as
/// the bytes that arrived.
struct Probe {
    target: SockAddr,
    script: Vec<RawMessage>,
    received: Vec<Message>,
    received_frames: Vec<Bytes>,
    conn: Option<ConnId>,
    frames: FrameAssembler,
    handshaked: bool,
}

impl Probe {
    fn new(target: SockAddr, script: Vec<Message>) -> Self {
        let script = script
            .iter()
            .map(|m| RawMessage::frame(Network::Regtest, m))
            .collect();
        Probe::raw(target, script)
    }

    /// A probe whose script is frames, so it can send payloads no
    /// `Message` encodes to.
    fn raw(target: SockAddr, script: Vec<RawMessage>) -> Self {
        Probe {
            target,
            script,
            received: Vec::new(),
            received_frames: Vec::new(),
            conn: None,
            frames: FrameAssembler::new(Network::Regtest),
            handshaked: false,
        }
    }

    fn send(&self, ctx: &mut Ctx<'_>, msg: &Message) {
        self.send_raw(ctx, &RawMessage::frame(Network::Regtest, msg));
    }

    fn send_raw(&self, ctx: &mut Ctx<'_>, raw: &RawMessage) {
        if let Some(conn) = self.conn {
            ctx.send(conn, &raw.to_bytes());
        }
    }
}

impl App for Probe {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.conn = Some(ctx.connect(self.target));
    }

    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, peer: SockAddr, _inb: bool) {
        self.conn = Some(conn);
        let local = ctx.local_of(conn).unwrap_or_default();
        let v = VersionMessage::new(
            NetAddr::new(local.ip, local.port),
            NetAddr::new(peer.ip, peer.port),
            7,
        );
        let bytes = RawMessage::frame(Network::Regtest, &Message::Version(v)).to_bytes();
        ctx.send(conn, &bytes);
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, _conn: ConnId, _peer: SockAddr, data: &[u8]) {
        self.frames.push(data);
        while let Some(raw) = self.frames.next_frame() {
            if let Ok(msg) = decode_frame(&raw) {
                match &msg {
                    Message::Version(_) => {
                        self.send(ctx, &Message::Verack);
                    }
                    Message::Verack
                        if !self.handshaked => {
                            self.handshaked = true;
                            for raw in &self.script {
                                self.send_raw(ctx, raw);
                            }
                        }
                    _ => {}
                }
                self.received.push(msg);
                self.received_frames.push(raw.to_bytes());
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn node_sim(cfg: NodeConfig) -> Simulator {
    let mut sim = Simulator::new(SimConfig::default());
    sim.add_host(A, Box::new(Node::new(cfg)), HostConfig::default());
    sim
}

fn submit_one_block(sim: &mut Simulator) -> btc_wire::Hash256 {
    let node: &mut Node = sim.app_mut(A).unwrap();
    let tip = node.chain.tip();
    let hdr = *node.chain.header(&tip).unwrap();
    let tx = {
        let mut t = btc_wire::Transaction::coinbase(1, &[9, 9, 9]);
        t.inputs_mut()[0].prevout = btc_wire::tx::OutPoint::new(btc_wire::Hash256::hash(b"f"), 0);
        t
    };
    let block = mine_child(&hdr, tip, 31, vec![tx]);
    let hash = block.hash();
    node.submit_block(block);
    hash
}

#[test]
fn high_bandwidth_peer_gets_cmpctblock_announcements() {
    let mut sim = node_sim(NodeConfig::default());
    sim.add_host(
        B,
        Box::new(Probe::new(
            addr(A),
            vec![Message::SendCmpct(btc_wire::compact::SendCmpct {
                announce: true,
                version: 1,
            })],
        )),
        HostConfig::default(),
    );
    sim.run_for(2 * SECS);
    let hash = submit_one_block(&mut sim);
    sim.run_for(3 * SECS);
    let probe: &Probe = sim.app(B).unwrap();
    let got_compact = probe.received.iter().any(
        |m| matches!(m, Message::CmpctBlock(cb) if cb.header.hash() == hash),
    );
    assert!(got_compact, "no CMPCTBLOCK announcement: {:?}",
        probe.received.iter().map(|m| m.command()).collect::<Vec<_>>());
}

#[test]
fn normal_peer_gets_inv_announcements() {
    let mut sim = node_sim(NodeConfig::default());
    sim.add_host(B, Box::new(Probe::new(addr(A), vec![])), HostConfig::default());
    sim.run_for(2 * SECS);
    let hash = submit_one_block(&mut sim);
    sim.run_for(3 * SECS);
    let probe: &Probe = sim.app(B).unwrap();
    let got_inv = probe.received.iter().any(|m| {
        matches!(m, Message::Inv(v) if v.iter().any(|i| i.hash == hash && matches!(i.kind, InvType::Block)))
    });
    assert!(got_inv, "no INV announcement");
    assert!(!probe
        .received
        .iter()
        .any(|m| matches!(m, Message::CmpctBlock(_))));
}

#[test]
fn filtered_block_served_through_bloom_filter() {
    let mut sim = node_sim(NodeConfig::default());
    // First: give the node a block containing a known tx.
    sim.run_for(SECS);
    let hash = submit_one_block(&mut sim);
    sim.run_for(2 * SECS);
    let interesting_txid = {
        let node: &Node = sim.app(A).unwrap();
        node.chain.block(&hash).unwrap().txs[1].txid()
    };
    // A BIP37 client loads a filter matching that txid and requests the
    // filtered block.
    let mut filter = BloomFilter::new(4, 0.0001, 99, BloomFlags::All);
    filter.insert(interesting_txid.as_bytes());
    sim.add_host(
        B,
        Box::new(Probe::new(
            addr(A),
            vec![
                Message::FilterLoad(filter),
                Message::GetData(vec![Inventory::new(InvType::FilteredBlock, hash)]),
            ],
        )),
        HostConfig::default(),
    );
    sim.run_for(3 * SECS);
    let probe: &Probe = sim.app(B).unwrap();
    let merkle = probe
        .received
        .iter()
        .find_map(|m| match m {
            Message::MerkleBlock(mb) => Some(mb.clone()),
            _ => None,
        })
        .expect("no MERKLEBLOCK received");
    assert_eq!(merkle.header.hash(), hash);
    assert_eq!(merkle.total_txs, 2);
    assert!(merkle.hashes.contains(&interesting_txid));
    // The matching transaction follows the merkleblock.
    assert!(probe
        .received
        .iter()
        .any(|m| matches!(m, Message::Tx(t) if t.txid() == interesting_txid)));
}

#[test]
fn filtered_block_without_filter_is_notfound() {
    let mut sim = node_sim(NodeConfig::default());
    sim.run_for(SECS);
    let hash = submit_one_block(&mut sim);
    sim.run_for(2 * SECS);
    sim.add_host(
        B,
        Box::new(Probe::new(
            addr(A),
            vec![Message::GetData(vec![Inventory::new(
                InvType::FilteredBlock,
                hash,
            )])],
        )),
        HostConfig::default(),
    );
    sim.run_for(3 * SECS);
    let probe: &Probe = sim.app(B).unwrap();
    assert!(probe
        .received
        .iter()
        .any(|m| matches!(m, Message::NotFound(v) if !v.is_empty())));
}

#[test]
fn node_sends_keepalive_pings() {
    let mut sim = node_sim(NodeConfig {
        ping_interval: 5 * SECS,
        ..NodeConfig::default()
    });
    sim.add_host(B, Box::new(Probe::new(addr(A), vec![])), HostConfig::default());
    sim.run_for(21 * SECS);
    let probe: &Probe = sim.app(B).unwrap();
    let pings = probe
        .received
        .iter()
        .filter(|m| matches!(m, Message::Ping(_)))
        .count();
    assert!((3..=5).contains(&pings), "pings {pings}");
}

#[test]
fn addr_gossip_feeds_the_addrman_and_outbound_selection() {
    // Node A starts with no outbound targets; a peer gossips C's address;
    // A should dial C.
    let mut sim = Simulator::new(SimConfig::default());
    sim.add_host(
        A,
        Box::new(Node::new(NodeConfig {
            target_outbound: 1,
            ..NodeConfig::default()
        })),
        HostConfig::default(),
    );
    sim.add_host(
        C,
        Box::new(Node::new(NodeConfig::default())),
        HostConfig::default(),
    );
    sim.add_host(
        B,
        Box::new(Probe::new(
            addr(A),
            vec![Message::Addr(vec![btc_wire::types::TimestampedAddr {
                time: 0,
                addr: NetAddr::new(C, 8333),
            }])],
        )),
        HostConfig::default(),
    );
    sim.run_for(5 * SECS);
    let a: &Node = sim.app(A).unwrap();
    assert!(a.addrman.contains(&addr(C)));
    assert_eq!(a.outbound_count(), 1, "A should have dialed C");
    let c: &Node = sim.app(C).unwrap();
    assert_eq!(c.inbound_count(), 1);
}

#[test]
fn diversity_shrinks_under_full_ip_defamation() {
    // Seed the addrman with identifiers across several hosts, then ban an
    // entire host's ports: usable count and diversity drop.
    let mut node = Node::new(NodeConfig::default());
    for host in 1..=4u8 {
        for port in [8333u16, 8334, 8335] {
            node.addrman.add(
                0,
                SockAddr::new([10, 1, host, 1], port),
                btc_node::addrman::AddrSource::Gossip,
            );
        }
    }
    assert_eq!(node.addrman.usable_count(0, &node.banman), 12);
    let div_before = node.addrman.diversity(0, &node.banman);
    // Full-IP defamation of host 1.
    for port in [8333u16, 8334, 8335] {
        node.banman.ban(0, SockAddr::new([10, 1, 1, 1], port));
    }
    assert_eq!(node.addrman.usable_count(0, &node.banman), 9);
    assert!(node.addrman.diversity(0, &node.banman) <= div_before);
    let _ = MINUTES;
}

/// An app that shovels arbitrary bytes at the node after connecting.
struct GarbageSender {
    target: SockAddr,
    chunks: Vec<Vec<u8>>,
    conn: Option<ConnId>,
}

impl App for GarbageSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.conn = Some(ctx.connect(self.target));
    }
    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _p: SockAddr, _i: bool) {
        for chunk in &self.chunks {
            ctx.send(conn, chunk);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn garbage_bytes_never_panic_the_node() {
    // Several classes of garbage: random bytes (wrong magic), correct magic
    // with junk command, correct framing with truncated payload, giant
    // declared length.
    let magic = Network::Regtest.magic().to_le_bytes();
    let mut rng: u64 = 0x1234_5678;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut cases: Vec<Vec<Vec<u8>>> = Vec::new();
    // Pure noise.
    cases.push(vec![(0..200).map(|_| next() as u8).collect()]);
    // Correct magic, junk rest.
    let mut with_magic = magic.to_vec();
    with_magic.extend((0..100).map(|_| next() as u8));
    cases.push(vec![with_magic]);
    // Valid header declaring a huge length.
    let mut huge = magic.to_vec();
    huge.extend(*b"block\0\0\0\0\0\0\0");
    huge.extend((5_000_000u32).to_le_bytes());
    huge.extend([0u8; 4]);
    cases.push(vec![huge]);
    // A valid ping frame split into single bytes (reassembly torture).
    let ping = RawMessage::frame(Network::Regtest, &Message::Ping(5)).to_bytes();
    cases.push(ping.iter().map(|b| vec![*b]).collect());

    for (i, chunks) in cases.into_iter().enumerate() {
        let mut sim = node_sim(NodeConfig::default());
        sim.add_host(
            [10, 0, 7, i as u8 + 1],
            Box::new(GarbageSender {
                target: addr(A),
                chunks,
                conn: None,
            }),
            HostConfig::default(),
        );
        sim.run_for(2 * SECS);
        // The node survived; nothing was banned (garbage is dropped or the
        // connection is cut, never punished — there is no Table-I rule for
        // unparseable frames).
        let node: &Node = sim.app(A).unwrap();
        assert_eq!(node.telemetry.bans, 0, "case {i}");
    }
}

#[test]
fn good_score_eviction_protects_peers_with_history() {
    // §IX-A (CKB-style): under slot pressure, evict the lowest-credit
    // inbound peer — Sybil newcomers with zero credit push out themselves,
    // never the peers that earned credit.
    let mut sim = node_sim(NodeConfig {
        max_inbound: 2,
        peer_policy: PeerPolicy::GoodScore { min_credit: 1 },
        ..NodeConfig::default()
    });
    // Two honest peers connect and earn credit.
    sim.add_host(B, Box::new(Probe::new(addr(A), vec![])), HostConfig::default());
    sim.add_host(C, Box::new(Probe::new(addr(A), vec![])), HostConfig::default());
    sim.run_for(2 * SECS);
    {
        let node: &mut Node = sim.app_mut(A).unwrap();
        assert_eq!(node.inbound_count(), 2);
        // Credit both honest identifiers (as if each relayed a block).
        let addrs: Vec<_> = (49152..49262)
            .flat_map(|p| [SockAddr::new(B, p), SockAddr::new(C, p)])
            .filter(|a| node.peer_by_addr(a).is_some())
            .collect();
        assert_eq!(addrs.len(), 2);
        for a in addrs {
            node.goodscore.credit(2 * SECS, a);
        }
    }
    // A Sybil wave tries to take the slots.
    for i in 0..4u8 {
        sim.add_host(
            [10, 0, 8, i + 1],
            Box::new(Probe::new(addr(A), vec![])),
            HostConfig::default(),
        );
    }
    sim.run_for(3 * SECS);
    let node: &Node = sim.app(A).unwrap();
    // Slot count returns to the limit, and the credited peers survived.
    assert_eq!(node.inbound_count(), 2, "slots back at the limit");
    let survivors: Vec<[u8; 4]> = (49152..49262)
        .flat_map(|p| [SockAddr::new(B, p), SockAddr::new(C, p)])
        .filter(|a| node.peer_by_addr(a).is_some())
        .map(|a| a.ip)
        .collect();
    assert_eq!(survivors.len(), 2, "honest peers evicted: {survivors:?}");
    assert!(survivors.contains(&B) && survivors.contains(&C));
}

#[test]
fn getblocks_is_answered_with_block_inventory() {
    let mut sim = node_sim(NodeConfig::default());
    sim.run_for(SECS);
    let hash = submit_one_block(&mut sim);
    sim.run_for(2 * SECS);
    sim.add_host(
        B,
        Box::new(Probe::new(
            addr(A),
            vec![Message::GetBlocks(btc_wire::types::BlockLocator {
                version: btc_wire::types::PROTOCOL_VERSION,
                hashes: vec![],
                stop: btc_wire::Hash256::ZERO,
            })],
        )),
        HostConfig::default(),
    );
    sim.run_for(2 * SECS);
    let probe: &Probe = sim.app(B).unwrap();
    let got = probe.received.iter().any(|m| {
        matches!(m, Message::Inv(v) if v.iter().any(|i| i.hash == hash && matches!(i.kind, InvType::Block)))
    });
    assert!(got, "getblocks produced no block inv");
}

#[test]
fn mempool_query_returns_tx_inventory() {
    let mut sim = node_sim(NodeConfig::default());
    sim.run_for(SECS);
    let txid = {
        let node: &mut Node = sim.app_mut(A).unwrap();
        let mut tx = btc_wire::Transaction::coinbase(1, &[5, 5, 5]);
        tx.inputs_mut()[0].prevout = btc_wire::tx::OutPoint::new(btc_wire::Hash256::hash(b"m"), 0);
        let txid = tx.txid();
        node.submit_tx(tx);
        txid
    };
    sim.run_for(2 * SECS);
    sim.add_host(
        B,
        Box::new(Probe::new(addr(A), vec![Message::Mempool])),
        HostConfig::default(),
    );
    sim.run_for(2 * SECS);
    let probe: &Probe = sim.app(B).unwrap();
    let got = probe.received.iter().any(|m| {
        matches!(m, Message::Inv(v) if v.iter().any(|i| i.hash == txid))
    });
    assert!(got, "mempool query produced no tx inv");
}

#[test]
fn getaddr_returns_known_addresses() {
    let mut sim = node_sim(NodeConfig {
        outbound_targets: vec![addr(C)],
        ..NodeConfig::default()
    });
    sim.add_host(
        B,
        Box::new(Probe::new(addr(A), vec![Message::GetAddr])),
        HostConfig::default(),
    );
    sim.run_for(2 * SECS);
    let probe: &Probe = sim.app(B).unwrap();
    let got = probe.received.iter().any(|m| {
        matches!(m, Message::Addr(v) if v.iter().any(|a| a.addr.ip == C))
    });
    assert!(got, "getaddr did not return the seeded address");
}

#[test]
fn only_the_newest_pending_compact_block_is_kept() {
    // Regression: each CMPCTBLOCK with missing transactions used to add an
    // entry to a per-peer map, so one peer could pin unbounded memory while
    // its ban score stayed 0.
    const N: usize = 50;
    let chain = Node::new(NodeConfig::default()).chain;
    let tip = chain.tip();
    let hdr = *chain.header(&tip).unwrap();
    let blocks: Vec<btc_wire::Block> = (0..N as u64)
        .map(|i| {
            let mut tx = btc_wire::Transaction::coinbase(1, &i.to_le_bytes());
            tx.inputs_mut()[0].prevout =
                btc_wire::tx::OutPoint::new(btc_wire::Hash256::hash(&i.to_le_bytes()), 0);
            mine_child(&hdr, tip, 100 + i, vec![tx])
        })
        .collect();
    let compact: Vec<Message> = blocks
        .iter()
        .map(|b| Message::CmpctBlock(btc_wire::compact::CompactBlock::from_block(b, 1)))
        .collect();
    let blocktxn = |b: &btc_wire::Block| {
        Message::BlockTxn(btc_wire::compact::BlockTxn {
            block_hash: b.hash(),
            txs: b.txs[1..].to_vec(),
        })
    };
    let run = |script: Vec<Message>| {
        let mut sim = node_sim(NodeConfig::default());
        sim.add_host(B, Box::new(Probe::new(addr(A), script)), HostConfig::default());
        sim.run_for(3 * SECS);
        sim
    };
    let (oldest, newest) = (&blocks[0], &blocks[N - 1]);

    // N compact blocks, each answered with a GETBLOCKTXN; one is retained.
    let sim = run(compact.clone());
    let probe: &Probe = sim.app(B).unwrap();
    let requests = probe
        .received
        .iter()
        .filter(|m| matches!(m, Message::GetBlockTxn(_)))
        .count();
    assert_eq!(requests, N);
    let node: &Node = sim.app(A).unwrap();
    let info = node.peer_infos()[0];
    assert_eq!(info.ban_score, 0);
    let peer = node.peer_by_addr(&info.addr).unwrap();
    assert_eq!(peer.pending_compact.as_ref().map(|pending| pending.0), Some(newest.hash()));

    // The oldest one's answer finds nothing pending; the newest one's
    // still reconstructs its block.
    let mut script = compact;
    script.push(blocktxn(oldest));
    script.push(blocktxn(newest));
    let sim = run(script);
    let node: &Node = sim.app(A).unwrap();
    assert!(!node.chain.has_block(&oldest.hash()));
    assert!(node.chain.has_block(&newest.hash()));
    let peer = node.peer_by_addr(&node.peer_infos()[0].addr).unwrap();
    assert!(peer.pending_compact.is_none());
}

/// A spendable-looking transaction, distinct per `tag`.
fn spend(tag: u8) -> btc_wire::Transaction {
    let mut t = btc_wire::Transaction::coinbase(1, &[tag; 3]);
    t.inputs_mut()[0].prevout = btc_wire::tx::OutPoint::new(btc_wire::Hash256::hash(&[tag]), 0);
    t
}

/// `block`'s BLOCK frame with its last transaction (one input) in the
/// BIP144 marked form with an empty witness stack: it decodes to `block`,
/// yet is not the frame `block` encodes to.
fn marked_frame(block: &btc_wire::Block) -> RawMessage {
    use btc_wire::encode::Encodable;
    let last = block.txs.last().unwrap();
    assert_eq!(last.inputs().len(), 1);
    let legacy = Message::Block(block.clone()).encode_payload();
    let (head, tx) = legacy.split_at(legacy.len() - last.encoded_len());
    let (version, body) = tx.split_at(4);
    let (body, lock_time) = body.split_at(body.len() - 4);
    let payload = [head, version, &[0x00, 0x01], body, &[0x00], lock_time].concat();
    RawMessage::frame_raw(Network::Regtest, "block", Bytes::from(payload))
}

#[test]
fn getdata_block_is_a_refcount_of_the_stored_frame() {
    const K: usize = 4;
    let mut sim = node_sim(NodeConfig::default());
    sim.run_for(SECS);
    // One block arrives without a frame (mined locally), one as a frame
    // whose marked transaction does not re-encode to itself.
    let local = submit_one_block(&mut sim);
    sim.run_for(2 * SECS);
    let (local_block, wire_block) = {
        let node: &Node = sim.app(A).unwrap();
        let local_block = node.chain.block(&local).unwrap();
        let wire_block = mine_child(&local_block.header, local, 32, vec![spend(7)]);
        (local_block, wire_block)
    };
    let wire = wire_block.hash();
    let marked = marked_frame(&wire_block);
    assert_eq!(
        decode_frame(&marked).unwrap(),
        Message::Block(wire_block.clone())
    );
    let mut script = vec![marked.clone()];
    for _ in 0..K {
        for inv in [
            Inventory::new(InvType::Block, local),
            Inventory::new(InvType::WitnessBlock, wire),
        ] {
            script.push(RawMessage::frame(
                Network::Regtest,
                &Message::GetData(vec![inv]),
            ));
        }
    }
    let tap = sim.add_tap(TapFilter::Pair(A, B));
    sim.add_host(
        B,
        Box::new(Probe::raw(addr(A), script)),
        HostConfig::default(),
    );
    sim.run_for(3 * SECS);

    let node: &Node = sim.app(A).unwrap();
    let probe: &Probe = sim.app(B).unwrap();
    let served: Vec<&Bytes> = probe
        .received
        .iter()
        .zip(&probe.received_frames)
        .filter(|(m, _)| matches!(m, Message::Block(_)))
        .map(|(_, f)| f)
        .collect();
    assert_eq!(served.len(), 2 * K);
    let segments: Vec<Bytes> = tap
        .snapshot()
        .into_iter()
        .filter(|s| s.packet.src.ip == A)
        .filter_map(|s| match s.packet.body {
            btc_netsim::packet::PacketBody::Tcp(seg) => Some(seg.payload),
            btc_netsim::packet::PacketBody::Icmp(_) => None,
        })
        .collect();
    for (hash, block) in [(local, &local_block), (wire, &wire_block)] {
        // Byte identity: every reply is the frame the block encodes to,
        // including the block that arrived in a form that does not.
        let want = Message::Block(block.clone()).to_frame(Network::Regtest);
        let stored = node.chain.block_frame(&hash).unwrap();
        assert_eq!(stored, &want);
        assert_eq!(served.iter().filter(|f| ***f == want).count(), K);
        // Refcount: the K replies went out as windows of the one stored
        // buffer, not as K frames encoded apart.
        let base = stored.as_ptr() as usize;
        let within: usize = segments
            .iter()
            .filter(|p| {
                (p.as_ptr() as usize) >= base && (p.as_ptr() as usize) < base + stored.len()
            })
            .map(|p| p.len())
            .sum();
        assert_eq!(within, K * stored.len());
    }
    assert_ne!(node.chain.block_frame(&wire).unwrap(), &marked.to_bytes());
}

#[test]
fn body_readers_answer_from_the_decoded_frame() {
    let mut sim = node_sim(NodeConfig::default());
    sim.run_for(SECS);
    let block = {
        let node: &mut Node = sim.app_mut(A).unwrap();
        let tip = node.chain.tip();
        let block = mine_child(
            node.chain.header(&tip).unwrap(),
            tip,
            33,
            vec![spend(1), spend(2)],
        );
        node.submit_block(block.clone());
        block
    };
    sim.run_for(2 * SECS);
    let hash = block.hash();
    let mut filter = BloomFilter::new(4, 0.0001, 99, BloomFlags::All);
    filter.insert(block.txs[2].txid().as_bytes());
    let script = vec![
        Message::GetBlockTxn(btc_wire::compact::BlockTxnRequest::from_absolute(
            hash,
            &[0, 2],
        )),
        Message::GetData(vec![Inventory::new(InvType::CmpctBlock, hash)]),
        Message::FilterLoad(filter),
        Message::GetData(vec![Inventory::new(InvType::FilteredBlock, hash)]),
    ];
    sim.add_host(
        B,
        Box::new(Probe::new(addr(A), script)),
        HostConfig::default(),
    );
    sim.run_for(3 * SECS);
    let probe: &Probe = sim.app(B).unwrap();
    let replies: Vec<&Message> = probe
        .received
        .iter()
        .filter(|m| {
            matches!(
                m,
                Message::BlockTxn(_)
                    | Message::CmpctBlock(_)
                    | Message::MerkleBlock(_)
                    | Message::Tx(_)
            )
        })
        .collect();
    let [Message::BlockTxn(bt), Message::CmpctBlock(cb), Message::MerkleBlock(mb), Message::Tx(tx)] =
        replies.as_slice()
    else {
        panic!(
            "replies: {:?}",
            replies.iter().map(|m| m.command()).collect::<Vec<_>>()
        );
    };
    assert_eq!(
        bt,
        &btc_wire::compact::BlockTxn {
            block_hash: hash,
            txs: vec![block.txs[0].clone(), block.txs[2].clone()],
        }
    );
    assert_eq!(
        cb,
        &btc_wire::compact::CompactBlock::from_block(&block, cb.nonce)
    );
    assert_eq!(
        mb,
        &btc_wire::message::MerkleBlockMsg {
            header: block.header,
            total_txs: 3,
            hashes: vec![block.txs[2].txid()],
            flags: vec![0, 0, 1],
        }
    );
    assert_eq!(tx, &block.txs[2]);
    let node: &Node = sim.app(A).unwrap();
    assert_eq!(node.peer_infos()[0].ban_score, 0);
}

#[test]
fn an_accepted_block_confirms_its_mempool_transactions() {
    let (kept, mined) = (spend(20), spend(21));
    // Local path: both transactions pool, a submitted block confirms one.
    let mut sim = node_sim(NodeConfig::default());
    sim.run_for(SECS);
    let block = {
        let node: &mut Node = sim.app_mut(A).unwrap();
        node.submit_tx(kept.clone());
        node.submit_tx(mined.clone());
        let tip = node.chain.tip();
        mine_child(
            node.chain.header(&tip).unwrap(),
            tip,
            34,
            vec![mined.clone()],
        )
    };
    sim.run_for(2 * SECS);
    assert_eq!(sim.app::<Node>(A).unwrap().mempool.len(), 2);
    sim.app_mut::<Node>(A).unwrap().submit_block(block.clone());
    sim.run_for(2 * SECS);
    let node: &Node = sim.app(A).unwrap();
    assert!(node.chain.has_block(&block.hash()));
    assert_eq!(node.mempool.txids(), vec![kept.txid()]);

    // Wire path: a peer relays both transactions, then the block.
    let mut sim = node_sim(NodeConfig::default());
    let script = vec![
        Message::Tx(kept.clone()),
        Message::Tx(mined.clone()),
        Message::Block(block.clone()),
    ];
    sim.add_host(
        B,
        Box::new(Probe::new(addr(A), script)),
        HostConfig::default(),
    );
    sim.run_for(3 * SECS);
    let node: &Node = sim.app(A).unwrap();
    assert!(node.chain.has_block(&block.hash()));
    assert_eq!(node.mempool.txids(), vec![kept.txid()]);
    assert_eq!(node.peer_infos()[0].ban_score, 0);
}
