//! End-to-end validation of the remaining Table-I rules: each misbehaving
//! message is delivered by a real session attacker and the expected score
//! increment is observed at the victim.

use btc_attack::flood::{FloodConfig, Flooder};
use btc_attack::payload::FloodPayload;
use btc_netsim::packet::SockAddr;
use btc_netsim::sim::{HostConfig, SimConfig, Simulator};
use btc_netsim::time::SECS;
use btc_node::banscore::CoreVersion;
use btc_node::chain::genesis_block;
use btc_node::node::{Node, NodeConfig, PeerPolicy};
use btc_wire::block::HeadersEntry;
use btc_wire::bloom::{BloomFilter, BloomFlags, FilterAdd};
use btc_wire::compact::BlockTxnRequest;
use btc_wire::message::{Message, RawMessage};
use btc_wire::tx::{OutPoint, Transaction, TxIn, TxOut};
use btc_wire::types::{Hash256, Network};

const TARGET: [u8; 4] = [10, 0, 0, 1];
const ATTACKER: [u8; 4] = [10, 0, 0, 66];

/// Delivers `msg` once from the attacker to a node built from `config`
/// and hands the node, two seconds later, to `inspect`.
fn with_target<R>(msg: Message, config: NodeConfig, inspect: impl FnOnce(&Node) -> R) -> R {
    let raw = RawMessage::frame(Network::Regtest, &msg);
    let mut sim = Simulator::new(SimConfig::default());
    sim.add_host(TARGET, Box::new(Node::new(config)), HostConfig::default());
    sim.add_host(
        ATTACKER,
        Box::new(Flooder::new(FloodConfig {
            target: SockAddr::new(TARGET, 8333),
            payload: FloodPayload::Custom(raw),
            sybil_port_start: 50_000,
            max_messages: Some(1),
            ..FloodConfig::default()
        })),
        HostConfig::default(),
    );
    sim.run_for(2 * SECS);
    inspect(sim.app(TARGET).unwrap())
}

/// The stock tracker's score for the attacker and the node's ban count.
fn run_one_message(msg: Message, config: NodeConfig) -> (u32, u64) {
    with_target(msg, config, |node| {
        let score = node
            .tracker
            .events()
            .last()
            .map(|e| e.total)
            .unwrap_or_else(|| node.ban_score(&SockAddr::new(ATTACKER, 50_000)));
        (score, node.telemetry.bans)
    })
}

/// The trust-tier engine's strike score for the attacker, read at its
/// last tier transition (before any decay), and the node's ban count.
fn run_one_message_tiers(msg: Message, core_version: CoreVersion) -> (f64, u64) {
    let config = NodeConfig {
        core_version,
        peer_policy: PeerPolicy::TrustTiers,
        ..NodeConfig::default()
    };
    with_target(msg, config, |node| {
        let at = node.reputation.transitions().back().map_or(0, |t| t.time);
        let score = node.reputation.score(at, &SockAddr::new(ATTACKER, 50_000));
        (score, node.telemetry.bans)
    })
}

fn segwit_invalid_tx() -> Transaction {
    let mut tx = Transaction::new(
        2,
        vec![TxIn::new(OutPoint::new(Hash256::hash(b"in"), 0))],
        vec![TxOut::new(1000, vec![0x51])],
        0,
    );
    tx.inputs_mut()[0].witness = vec![vec![0u8; 521]]; // > 520-byte element
    tx
}

#[test]
fn tx_invalid_by_segwit_rules_bans_instantly() {
    let (score, bans) = run_one_message(Message::Tx(segwit_invalid_tx()), NodeConfig::default());
    assert_eq!(score, 100);
    assert_eq!(bans, 1);
}

#[test]
fn getblocktxn_out_of_bounds_bans_instantly() {
    // The genesis block has 1 transaction; ask for index 5.
    let req = BlockTxnRequest::from_absolute(genesis_block().hash(), &[5]);
    let (score, bans) = run_one_message(Message::GetBlockTxn(req), NodeConfig::default());
    assert_eq!(score, 100);
    assert_eq!(bans, 1);
}

#[test]
fn getblocktxn_in_bounds_is_served() {
    let req = BlockTxnRequest::from_absolute(genesis_block().hash(), &[0]);
    let (score, bans) = run_one_message(Message::GetBlockTxn(req), NodeConfig::default());
    assert_eq!(score, 0);
    assert_eq!(bans, 0);
}

#[test]
fn filterload_oversize_bans_instantly() {
    let filter = BloomFilter {
        data: vec![0xAA; 36_001],
        n_hash_funcs: 10,
        tweak: 0,
        flags: BloomFlags::None,
    };
    let (score, bans) = run_one_message(Message::FilterLoad(filter), NodeConfig::default());
    assert_eq!(score, 100);
    assert_eq!(bans, 1);
}

#[test]
fn filteradd_oversize_bans_instantly() {
    let fa = FilterAdd {
        data: vec![0; 521],
    };
    let (score, bans) = run_one_message(Message::FilterAdd(fa), NodeConfig::default());
    assert_eq!(score, 100);
    assert_eq!(bans, 1);
}

#[test]
fn filteradd_without_filter_is_version_dependent() {
    // 0.20.0: FILTERADD with no loaded filter = the "protocol version >=
    // 70011" rule, +100. Deprecated in 0.21.
    let fa = FilterAdd { data: vec![1, 2, 3] };
    let (score20, bans20) = run_one_message(
        Message::FilterAdd(fa.clone()),
        NodeConfig {
            core_version: CoreVersion::V0_20,
            ..NodeConfig::default()
        },
    );
    assert_eq!(score20, 100);
    assert_eq!(bans20, 1);
    let (score21, bans21) = run_one_message(
        Message::FilterAdd(fa.clone()),
        NodeConfig {
            core_version: CoreVersion::V0_21,
            ..NodeConfig::default()
        },
    );
    assert_eq!(score21, 0, "rule deprecated in 0.21");
    assert_eq!(bans21, 0);
    // The trust-tier engine enforces the node's rule set too: a Severe
    // strike (40 points, no ban) at 0.20, nothing at 0.21.
    let tiers20 = run_one_message_tiers(Message::FilterAdd(fa.clone()), CoreVersion::V0_20);
    assert_eq!(tiers20, (40.0, 0));
    let tiers21 = run_one_message_tiers(Message::FilterAdd(fa), CoreVersion::V0_21);
    assert_eq!(tiers21, (0.0, 0), "rule deprecated in 0.21");
}

#[test]
fn headers_oversize_scores_twenty() {
    let headers = vec![HeadersEntry(btc_wire::BlockHeader::default()); 2001];
    let (score, bans) = run_one_message(Message::Headers(headers), NodeConfig::default());
    assert_eq!(score, 20);
    assert_eq!(bans, 0);
}

#[test]
fn non_continuous_headers_score_twenty() {
    // Two random headers that don't chain onto each other but whose batch
    // starts connected to genesis.
    let genesis = genesis_block();
    let mut h1 = btc_wire::BlockHeader {
        prev_block: genesis.hash(),
        ..btc_wire::BlockHeader::default()
    };
    h1.mine();
    let mut h2 = btc_wire::BlockHeader {
        prev_block: Hash256::hash(b"unrelated"),
        ..btc_wire::BlockHeader::default()
    };
    h2.mine();
    let (score, bans) = run_one_message(
        Message::Headers(vec![HeadersEntry(h1), HeadersEntry(h2)]),
        NodeConfig::default(),
    );
    assert_eq!(score, 20);
    assert_eq!(bans, 0);
}

#[test]
fn ten_unconnecting_headers_batches_score_twenty() {
    // Each batch references an unknown parent; the tenth triggers +20.
    let mut h = btc_wire::BlockHeader {
        prev_block: Hash256::hash(b"unknown-parent"),
        ..btc_wire::BlockHeader::default()
    };
    h.mine();
    let raw = RawMessage::frame(Network::Regtest, &Message::Headers(vec![HeadersEntry(h)]));
    let mut sim = Simulator::new(SimConfig::default());
    sim.add_host(
        TARGET,
        Box::new(Node::new(NodeConfig::default())),
        HostConfig::default(),
    );
    sim.add_host(
        ATTACKER,
        Box::new(Flooder::new(FloodConfig {
            target: SockAddr::new(TARGET, 8333),
            payload: FloodPayload::Custom(raw),
            sybil_port_start: 50_000,
            max_messages: Some(25),
            ..FloodConfig::default()
        })),
        HostConfig::default(),
    );
    sim.run_for(3 * SECS);
    let node: &Node = sim.app(TARGET).unwrap();
    let events = node.tracker.events();
    // 25 batches → strikes at the 10th and 20th.
    assert_eq!(events.len(), 2, "{events:?}");
    assert!(events.iter().all(|e| e.delta == 20));
}

#[test]
fn prev_missing_block_scores_ten() {
    let mut block = btc_wire::Block {
        header: btc_wire::BlockHeader {
            prev_block: Hash256::hash(b"orphan-parent"),
            ..btc_wire::BlockHeader::default()
        },
        txs: vec![Transaction::coinbase(50, b"orphan")],
    };
    block.header.merkle_root = block.merkle_root();
    block.header.mine();
    let (score, bans) = run_one_message(Message::Block(block), NodeConfig::default());
    assert_eq!(score, 10, "Table I: previous block missing = +10");
    assert_eq!(bans, 0);
}

#[test]
fn oversize_inv_and_getdata_score_twenty() {
    for msg in [
        FloodPayload::OversizeInv.build(
            Network::Regtest,
            SockAddr::default(),
            SockAddr::default(),
            0,
        ),
        // Oversize GETDATA shares the INV wire layout.
        {
            let inv = (0..=btc_wire::constants::MAX_INV_SZ as u32)
                .map(|i| {
                    btc_wire::types::Inventory::new(
                        btc_wire::types::InvType::Tx,
                        Hash256::hash(&i.to_le_bytes()),
                    )
                })
                .collect();
            RawMessage::frame(Network::Regtest, &Message::GetData(inv)).to_bytes()
        },
    ] {
        let parsed = match btc_wire::message::read_frame(Network::Regtest, &msg).unwrap() {
            btc_wire::message::FrameResult::Frame { raw, .. } => raw,
            _ => panic!("incomplete"),
        };
        let (score, _) = run_one_message(
            btc_wire::message::decode_frame(&parsed).unwrap(),
            NodeConfig::default(),
        );
        assert_eq!(score, 20);
    }
}

#[test]
fn valid_messages_score_nothing() {
    for msg in [
        Message::Ping(1),
        Message::GetAddr,
        Message::Mempool,
        Message::SendHeaders,
        Message::FeeFilter(500),
        Message::FilterClear,
        Message::Pong(2),
    ] {
        let (score, bans) = run_one_message(msg.clone(), NodeConfig::default());
        assert_eq!(score, 0, "{} scored", msg.command());
        assert_eq!(bans, 0);
    }
}

#[test]
fn bloom_filter_session_works_end_to_end() {
    // A legitimate BIP37 client: FILTERLOAD then FILTERADD is accepted.
    let filter = BloomFilter::new(10, 0.01, 7, BloomFlags::All);
    let load = RawMessage::frame(Network::Regtest, &Message::FilterLoad(filter));
    let mut sim = Simulator::new(SimConfig::default());
    sim.add_host(
        TARGET,
        Box::new(Node::new(NodeConfig::default())),
        HostConfig::default(),
    );
    sim.add_host(
        ATTACKER,
        Box::new(Flooder::new(FloodConfig {
            target: SockAddr::new(TARGET, 8333),
            payload: FloodPayload::Custom(load),
            sybil_port_start: 50_000,
            max_messages: Some(1),
            ..FloodConfig::default()
        })),
        HostConfig::default(),
    );
    sim.run_for(2 * SECS);
    let node: &Node = sim.app(TARGET).unwrap();
    assert_eq!(node.telemetry.bans, 0);
    let peer = node
        .peer_by_addr(&SockAddr::new(ATTACKER, 50_000))
        .expect("still connected");
    assert!(peer.filter.is_some(), "filter should be installed");
}
