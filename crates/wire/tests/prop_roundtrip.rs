//! Property-based tests: every wire structure must round-trip through its
//! consensus encoding, and the frame parser must never panic on arbitrary
//! bytes. Driven by the in-repo `btc_netsim::prop` harness.

use btc_netsim::prop::{check, check_sized, Gen};
use btc_wire::block::{Block, BlockHeader, HeadersEntry};
use btc_wire::bloom::{BloomFilter, BloomFlags, FilterAdd};
use btc_wire::bytes::Bytes;
use btc_wire::compact::{BlockTxn, BlockTxnRequest, CompactBlock, PrefilledTx, SendCmpct, ShortId};
use btc_wire::constants::{MAX_ADDR_TO_SEND, MAX_HEADERS_RESULTS, MAX_INV_SZ};
use btc_wire::encode::{Decodable, Encodable, Reader, Writer};
use btc_wire::message::{
    decode_frame, read_frame, verify_checksum, FrameResult, MerkleBlockMsg, Message, RawMessage,
    RejectMessage, VersionMessage, ALL_COMMANDS,
};
use btc_wire::tx::{OutPoint, Transaction, TxIn, TxOut};
use btc_wire::types::{
    BlockLocator, Hash256, InvType, Inventory, NetAddr, Network, ServiceFlags, TimestampedAddr,
};

fn arb_hash(g: &mut Gen) -> Hash256 {
    Hash256::from(g.array32())
}

fn arb_netaddr(g: &mut Gen) -> NetAddr {
    NetAddr {
        services: ServiceFlags(g.u64()),
        ip: g.array4(),
        port: g.u16(),
    }
}

fn arb_txin(g: &mut Gen) -> TxIn {
    TxIn {
        prevout: OutPoint::new(arb_hash(g), g.u32()),
        script_sig: g.vec_u8(0, 64),
        sequence: g.u32(),
        witness: g.vec_with(0, 4, |g| g.vec_u8(0, 32)),
    }
}

fn arb_tx(g: &mut Gen) -> Transaction {
    Transaction::new(
        g.i32(),
        g.vec_with(1, 4, arb_txin),
        g.vec_with(1, 4, |g| TxOut::new(g.i64(), g.vec_u8(0, 32))),
        g.u32(),
    )
}

fn arb_header(g: &mut Gen) -> BlockHeader {
    BlockHeader {
        version: g.i32(),
        prev_block: arb_hash(g),
        merkle_root: arb_hash(g),
        time: g.u32(),
        bits: g.u32(),
        nonce: g.u32(),
    }
}

fn arb_inv(g: &mut Gen) -> Inventory {
    let kind = *g.choose(&[InvType::Tx, InvType::Block, InvType::WitnessTx, InvType::Error(7)]);
    Inventory::new(kind, arb_hash(g))
}

fn arb_locator(g: &mut Gen) -> BlockLocator {
    BlockLocator {
        version: g.u32(),
        hashes: g.vec_with(0, 32, arb_hash),
        stop: arb_hash(g),
    }
}

/// A list usually of up to 16 entries, but one time in sixteen just over
/// `limit`: the oversize lists the attack tooling sends and the ban-score
/// layer punishes.
fn arb_list<T>(g: &mut Gen, limit: u64, f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
    if g.u8() < 16 {
        let n = usize::try_from(limit).unwrap() + g.usize_in(1, 5);
        let mut f = f;
        (0..n).map(|_| f(g)).collect()
    } else {
        g.vec_with(0, 16, f)
    }
}

/// A message of any of the 26 commands, with fuzzed contents.
fn arb_message(g: &mut Gen) -> Message {
    match g.usize_in(0, ALL_COMMANDS.len()) {
        0 => {
            let mut v = VersionMessage::new(arb_netaddr(g), arb_netaddr(g), g.u64());
            v.start_height = g.i32();
            v.relay = g.bool();
            Message::Version(v)
        }
        1 => Message::Verack,
        2 => Message::Addr(arb_list(g, MAX_ADDR_TO_SEND, |g| TimestampedAddr {
            time: g.u32(),
            addr: arb_netaddr(g),
        })),
        3 => Message::GetAddr,
        4 => Message::Ping(g.u64()),
        5 => Message::Pong(g.u64()),
        6 => Message::Inv(arb_list(g, MAX_INV_SZ, arb_inv)),
        7 => Message::GetData(arb_list(g, MAX_INV_SZ, arb_inv)),
        8 => Message::NotFound(arb_list(g, MAX_INV_SZ, arb_inv)),
        9 => Message::GetBlocks(arb_locator(g)),
        10 => Message::GetHeaders(arb_locator(g)),
        11 => Message::Headers(arb_list(g, MAX_HEADERS_RESULTS, |g| HeadersEntry(arb_header(g)))),
        12 => Message::Tx(arb_tx(g)),
        13 => Message::Block(Block {
            header: arb_header(g),
            txs: g.vec_with(0, 4, arb_tx),
        }),
        14 => Message::Mempool,
        15 => Message::MerkleBlock(MerkleBlockMsg {
            header: arb_header(g),
            total_txs: g.u32(),
            hashes: g.vec_with(0, 16, arb_hash),
            flags: g.vec_u8(0, 8),
        }),
        16 => Message::SendHeaders,
        17 => Message::FeeFilter(g.i64()),
        18 => Message::FilterLoad(BloomFilter {
            data: g.vec_u8(0, 64),
            n_hash_funcs: g.u32(),
            tweak: g.u32(),
            flags: BloomFlags::Other(g.u8()),
        }),
        19 => Message::FilterAdd(FilterAdd { data: g.vec_u8(0, 64) }),
        20 => Message::FilterClear,
        21 => Message::SendCmpct(SendCmpct {
            announce: g.bool(),
            version: g.u64(),
        }),
        22 => Message::CmpctBlock(CompactBlock {
            header: arb_header(g),
            nonce: g.u64(),
            short_ids: g.vec_with(0, 16, |g| ShortId(std::array::from_fn(|_| g.u8()))),
            prefilled: g.vec_with(0, 3, |g| PrefilledTx {
                diff_index: g.u64_in(0, 1 << 20),
                tx: arb_tx(g),
            }),
        }),
        23 => Message::GetBlockTxn(BlockTxnRequest {
            block_hash: arb_hash(g),
            diff_indices: g.vec_with(0, 16, |g| g.u64_in(0, 1 << 20)),
        }),
        24 => Message::BlockTxn(BlockTxn {
            block_hash: arb_hash(g),
            txs: g.vec_with(0, 4, arb_tx),
        }),
        _ => Message::Reject(RejectMessage {
            message: "tx".to_owned(),
            code: g.u8(),
            reason: String::from_utf8_lossy(&g.vec_u8(0, 32)).into_owned(),
            data: g.bool().then(|| arb_hash(g)),
        }),
    }
}

#[test]
fn hash_roundtrip() {
    check("hash_roundtrip", |g| {
        let h = arb_hash(g);
        assert_eq!(Hash256::decode_all(&h.encode_to_vec()).unwrap(), h);
    });
}

#[test]
fn hash_hex_roundtrip() {
    check("hash_hex_roundtrip", |g| {
        let h = arb_hash(g);
        assert_eq!(Hash256::from_hex(&h.to_string()), Some(h));
    });
}

#[test]
fn netaddr_roundtrip() {
    check("netaddr_roundtrip", |g| {
        let a = arb_netaddr(g);
        assert_eq!(NetAddr::decode_all(&a.encode_to_vec()).unwrap(), a);
    });
}

#[test]
fn tx_roundtrip() {
    check("tx_roundtrip", |g| {
        let tx = arb_tx(g);
        assert_eq!(Transaction::decode_all(&tx.encode_to_vec()).unwrap(), tx);
    });
}

#[test]
fn txid_is_witness_independent() {
    check("txid_is_witness_independent", |g| {
        let mut tx = arb_tx(g);
        let before = tx.txid();
        for i in tx.inputs_mut() {
            i.witness.clear();
        }
        assert_eq!(tx.txid(), before);
    });
}

/// Decodes a `tx` payload the way the node's receive path does (checksum,
/// then `decode_verified` with the verified digest). Returns the decoded
/// transaction, the txid of a copy rebuilt from its getters (hashed from
/// scratch), and the payload digest.
fn verified_tx(payload: Vec<u8>) -> (Transaction, Hash256, Hash256) {
    let raw = RawMessage::frame_raw(Network::Regtest, "tx", Bytes::from(payload));
    let digest = verify_checksum(&raw).expect("a fresh frame's checksum holds");
    let Ok(Message::Tx(tx)) = Message::decode_verified("tx", &raw.payload, digest) else {
        panic!("a tx payload decodes to a TX");
    };
    let rebuilt = Transaction::new(
        tx.version(),
        tx.inputs().to_vec(),
        tx.outputs().to_vec(),
        tx.lock_time(),
    );
    (tx, rebuilt.txid(), digest.hash())
}

#[test]
fn verified_txid_equals_rebuilt_txid() {
    check("verified_txid_equals_rebuilt_txid", |g| {
        let mut tx = arb_tx(g);
        if g.bool() {
            for i in tx.inputs_mut() {
                i.witness.clear();
            }
        }
        let (decoded, rebuilt, digest) = verified_tx(tx.encode_to_vec());
        assert_eq!(decoded.txid(), rebuilt);
        assert_eq!(decoded.txid(), tx.txid());
        // A legacy payload is the txid preimage; a witness one is not.
        assert_eq!(decoded.txid() == digest, !tx.has_witness());
    });
}

/// A BIP144 marker+flag encoding of `tx` whose witness stacks are all
/// empty: valid on the wire, yet not the legacy serialisation.
fn marked_without_witness(tx: &Transaction) -> Vec<u8> {
    let mut w = Writer::new();
    w.i32_le(tx.version());
    w.u8(0x00);
    w.u8(0x01);
    w.compact_size(tx.inputs().len() as u64);
    for i in tx.inputs() {
        i.encode(&mut w);
    }
    w.compact_size(tx.outputs().len() as u64);
    for o in tx.outputs() {
        o.encode(&mut w);
    }
    for _ in tx.inputs() {
        w.compact_size(0);
    }
    w.u32_le(tx.lock_time());
    w.into_vec()
}

#[test]
fn marked_empty_witness_payload_is_not_its_txid() {
    check("marked_empty_witness_payload_is_not_its_txid", |g| {
        let mut tx = arb_tx(g);
        for i in tx.inputs_mut() {
            i.witness.clear();
        }
        let (decoded, rebuilt, digest) = verified_tx(marked_without_witness(&tx));
        assert!(!decoded.has_witness());
        assert_eq!(decoded, tx);
        assert_eq!(decoded.txid(), rebuilt);
        // The marker guard: the digest of the marked bytes is not a txid.
        assert_ne!(decoded.txid(), digest);
    });
}

#[test]
fn block_header_roundtrip() {
    check("block_header_roundtrip", |g| {
        let h = arb_header(g);
        assert_eq!(BlockHeader::decode_all(&h.encode_to_vec()).unwrap(), h);
    });
}

#[test]
fn block_roundtrip() {
    check("block_roundtrip", |g| {
        let b = Block {
            header: arb_header(g),
            txs: g.vec_with(1, 4, arb_tx),
        };
        assert_eq!(Block::decode_all(&b.encode_to_vec()).unwrap(), b);
    });
}

#[test]
fn encoded_len_counts_the_encoding() {
    check("encoded_len_counts_the_encoding", |g| {
        let mut txs = g.vec_with(1, 4, arb_tx);
        if g.bool() {
            // Past 252 bytes a length prefix takes three bytes.
            let long = g.vec_u8(253, 600);
            txs[0].outputs_mut()[0].script_pubkey = long.clone();
            txs[0].inputs_mut()[0].witness.push(long);
        }
        for tx in &txs {
            assert_eq!(tx.encoded_len(), tx.encode_to_vec().len());
        }
        // A marked transaction whose stacks are all empty re-encodes
        // without the marker, flag and stack counts: shorter than it came.
        let mut bare = txs[0].clone();
        for i in bare.inputs_mut() {
            i.witness.clear();
        }
        let marked = marked_without_witness(&bare);
        let decoded = Transaction::decode_all(&marked).unwrap();
        assert_eq!(
            decoded.encoded_len() + 2 + bare.inputs().len(),
            marked.len()
        );
        let b = Block {
            header: arb_header(g),
            txs,
        };
        assert_eq!(b.encoded_len(), b.encode_to_vec().len());
    });
}

#[test]
fn compact_size_reader_never_panics() {
    check("compact_size_reader_never_panics", |g| {
        let bytes = g.vec_u8(0, 16);
        let mut r = Reader::new(&bytes);
        let _ = r.compact_size();
    });
}

#[test]
fn frame_parser_never_panics() {
    check_sized("frame_parser_never_panics", 512, |g| {
        let bytes = g.vec_u8(0, 512);
        let _ = read_frame(Network::Regtest, &bytes);
    });
}

#[test]
fn payload_decoder_never_panics() {
    check_sized("payload_decoder_never_panics", 256, |g| {
        let cmd = *g.choose(&ALL_COMMANDS);
        let bytes = g.vec_u8(0, 256);
        if let Ok(m) = Message::decode_payload(cmd, &bytes) {
            // The variant order is the `ALL_COMMANDS` order.
            assert_eq!(ALL_COMMANDS[m.command_index() as usize], m.command());
            assert_eq!(m.command(), cmd);
        }
    });
}

#[test]
fn framed_message_roundtrip() {
    check("framed_message_roundtrip", |g| {
        let msg = Message::Ping(g.u64());
        let net = *g.choose(&[Network::Mainnet, Network::Regtest]);
        let raw = RawMessage::frame(net, &msg);
        let bytes = raw.to_bytes();
        match read_frame(net, &bytes).unwrap() {
            FrameResult::Frame { raw, consumed } => {
                assert_eq!(consumed, bytes.len());
                assert_eq!(decode_frame(&raw).unwrap(), msg);
            }
            FrameResult::Incomplete => panic!("incomplete"),
        }
    });
}

#[test]
fn to_frame_matches_raw_frame() {
    // The send path's one-buffer framer must put on the wire exactly what
    // the two-step `RawMessage::frame(..).to_bytes()` does, for every
    // command, oversize lists included.
    check("to_frame_matches_raw_frame", |g| {
        let msg = arb_message(g);
        let net = *g.choose(&[Network::Mainnet, Network::Regtest]);
        assert_eq!(msg.to_frame(net), RawMessage::frame(net, &msg).to_bytes(), "{}", msg.command());
    });
}

#[test]
fn corrupted_byte_never_decodes_silently() {
    check("corrupted_byte_never_decodes_silently", |g| {
        // Flip one payload or checksum byte of a framed ping: decode must
        // fail (checksum) or — if we flipped inside the header length/magic —
        // framing fails. It must never return a *different* valid message.
        let msg = Message::Ping(g.u64());
        let raw = RawMessage::frame(Network::Regtest, &msg);
        let mut bytes = raw.to_bytes().to_vec();
        let idx = g.usize_in(0, 32) % bytes.len();
        bytes[idx] ^= 0x01;
        match read_frame(Network::Regtest, &bytes) {
            Ok(FrameResult::Frame { raw, .. }) => {
                if let Ok(decoded) = decode_frame(&raw) {
                    assert_eq!(decoded, msg);
                }
            }
            Ok(FrameResult::Incomplete) | Err(_) => {}
        }
    });
}

#[test]
fn version_roundtrip() {
    check("version_roundtrip", |g| {
        let mut v = VersionMessage::new(arb_netaddr(g), arb_netaddr(g), g.u64());
        v.start_height = g.i32();
        v.relay = g.bool();
        assert_eq!(VersionMessage::decode_all(&v.encode_to_vec()).unwrap(), v);
    });
}

#[test]
fn inventory_vec_roundtrip() {
    check("inventory_vec_roundtrip", |g| {
        let invs: Vec<Inventory> = g
            .vec_with(0, 32, arb_hash)
            .into_iter()
            .map(|h| Inventory::new(InvType::Tx, h))
            .collect();
        let msg = Message::Inv(invs);
        let payload = msg.encode_payload();
        assert_eq!(Message::decode_payload("inv", &payload).unwrap(), msg);
    });
}

#[test]
fn headers_roundtrip() {
    check("headers_roundtrip", |g| {
        let msg = Message::Headers(g.vec_with(0, 16, arb_header).into_iter().map(HeadersEntry).collect());
        let payload = msg.encode_payload();
        assert_eq!(Message::decode_payload("headers", &payload).unwrap(), msg);
    });
}

#[test]
fn addr_roundtrip() {
    check("addr_roundtrip", |g| {
        let addrs = g.vec_with(0, 16, |g| TimestampedAddr {
            time: g.u32(),
            addr: arb_netaddr(g),
        });
        let msg = Message::Addr(addrs);
        let payload = msg.encode_payload();
        assert_eq!(Message::decode_payload("addr", &payload).unwrap(), msg);
    });
}

#[test]
fn locator_roundtrip() {
    check("locator_roundtrip", |g| {
        let loc = BlockLocator {
            version: g.u32(),
            hashes: g.vec_with(0, 32, arb_hash),
            stop: arb_hash(g),
        };
        assert_eq!(BlockLocator::decode_all(&loc.encode_to_vec()).unwrap(), loc);
    });
}

#[test]
fn getblocktxn_differential_inverse() {
    check("getblocktxn_differential_inverse", |g| {
        let idxs: std::collections::BTreeSet<u64> =
            g.vec_with(1, 64, |g| g.u64_in(0, 10_000)).into_iter().collect();
        let absolute: Vec<u64> = idxs.into_iter().collect();
        let req = BlockTxnRequest::from_absolute(Hash256::ZERO, &absolute);
        let max = absolute.last().copied().unwrap() + 1;
        assert_eq!(req.absolute_indices(max).unwrap(), absolute);
    });
}

#[test]
fn sendcmpct_roundtrip() {
    check("sendcmpct_roundtrip", |g| {
        let sc = SendCmpct {
            announce: g.bool(),
            version: g.u64(),
        };
        assert_eq!(SendCmpct::decode_all(&sc.encode_to_vec()).unwrap(), sc);
    });
}

#[test]
fn merkle_root_is_order_sensitive() {
    check("merkle_root_is_order_sensitive", |g| {
        let hashes = g.vec_with(2, 16, arb_hash);
        let root = btc_wire::block::merkle_root(&hashes);
        let mut swapped = hashes.clone();
        swapped.swap(0, 1);
        if hashes[0] != hashes[1] {
            assert_ne!(btc_wire::block::merkle_root(&swapped), root);
        }
    });
}

#[test]
fn sha256_incremental_equals_oneshot() {
    check_sized("sha256_incremental_equals_oneshot", 2048, |g| {
        use btc_wire::crypto::sha256::{sha256, Sha256};
        let data = g.vec_u8(0, 2048);
        let splits = g.vec_with(0, 8, |g| g.usize_in(0, 2048));
        let mut h = Sha256::new();
        let mut cuts: Vec<usize> = splits.into_iter().map(|s| s % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut prev = 0;
        for c in cuts {
            h.update(&data[prev..c]);
            prev = c;
        }
        h.update(&data[prev..]);
        assert_eq!(h.finalize(), sha256(&data));
    });
}

#[test]
fn siphash_incremental_equals_oneshot() {
    check_sized("siphash_incremental_equals_oneshot", 256, |g| {
        use btc_wire::crypto::siphash::{siphash24, SipHasher24};
        let (k0, k1) = (g.u64(), g.u64());
        let data = g.vec_u8(0, 256);
        let cut = g.usize_in(0, 256) % (data.len() + 1);
        let mut h = SipHasher24::new(k0, k1);
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        assert_eq!(h.finish(), siphash24(k0, k1, &data));
    });
}

#[test]
fn bloom_filter_has_no_false_negatives() {
    check("bloom_filter_has_no_false_negatives", |g| {
        use btc_wire::bloom::{BloomFilter, BloomFlags};
        let items = g.vec_with(1, 64, |g| g.vec_u8(1, 64));
        let tweak = g.u32();
        let mut f = BloomFilter::new(items.len(), 0.01, tweak, BloomFlags::None);
        for item in &items {
            f.insert(item);
        }
        for item in &items {
            assert!(f.contains(item), "lost {item:?}");
        }
    });
}

#[test]
fn merkle_branch_proves_arbitrary_leaves() {
    check("merkle_branch_proves_arbitrary_leaves", |g| {
        use btc_wire::block::{merkle_root, MerkleBranch};
        let n = g.usize_in(1, 32);
        let leaves: Vec<Hash256> = (0..n).map(|i| Hash256::hash(&[i as u8, 0x5A])).collect();
        let index = g.usize_in(0, 32) % n;
        let root = merkle_root(&leaves);
        let branch = MerkleBranch::build(&leaves, index);
        assert_eq!(branch.compute_root(leaves[index]), root);
    });
}

#[test]
fn compact_size_canonical_encoding_is_minimal() {
    check("compact_size_canonical_encoding_is_minimal", |g| {
        use btc_wire::encode::Writer;
        // Mix full-range values with small ones so every width arm is hit.
        let v = match g.usize_in(0, 4) {
            0 => g.u64_in(0, 0xfd),
            1 => g.u64_in(0xfd, 0x1_0000),
            2 => g.u64_in(0x1_0000, 0x1_0000_0000),
            _ => g.u64(),
        };
        let mut w = Writer::new();
        w.compact_size(v);
        let expect = match v {
            0..=0xfc => 1,
            0xfd..=0xffff => 3,
            0x1_0000..=0xffff_ffff => 5,
            _ => 9,
        };
        assert_eq!(w.len(), expect);
    });
}
