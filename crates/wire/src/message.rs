//! The 26 Bitcoin P2P message types of the 0.20.0 protocol, their payload
//! encodings, and the 24-byte message header framing
//! (`magic ‖ command ‖ length ‖ checksum`).
//!
//! Framing mirrors Bitcoin Core's processing order, which matters for the
//! paper's second BM-DoS vector: the checksum is verified **before** the
//! payload is deserialized or any misbehavior tracking runs, so a message
//! with a deliberately wrong checksum costs the victim a `sha256d` over the
//! payload yet can never raise the sender's ban score.

use crate::block::{Block, HeadersEntry};
use crate::bloom::{BloomFilter, FilterAdd};
use crate::compact::{BlockTxn, BlockTxnRequest, CompactBlock, SendCmpct};
use crate::constants::{MAX_ADDR_TO_SEND, MAX_HEADERS_RESULTS, MAX_INV_SZ};
use crate::encode::{
    decode_vec, encode_vec, Decodable, DecodeError, DecodeResult, Encodable, Reader, Writer,
    MAX_MESSAGE_SIZE,
};
use crate::tx::Transaction;
use crate::types::{BlockLocator, Hash256, Inventory, NetAddr, Network, ServiceFlags, TimestampedAddr};
use crate::bytes::Bytes;

/// Size of the fixed message header.
pub const HEADER_SIZE: usize = 24;

/// Decode-time slack over the misbehavior limits: oversized lists must reach
/// the ban-score layer (which punishes them) instead of failing at decode.
const OVERSIZE_SLACK: u64 = 4;

/// A `VERSION` payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VersionMessage {
    /// Highest protocol version the sender speaks.
    pub version: u32,
    /// Services the sender provides.
    pub services: ServiceFlags,
    /// Sender's unix time.
    pub timestamp: i64,
    /// Address of the receiving node as seen by the sender.
    pub addr_recv: NetAddr,
    /// Address of the sender.
    pub addr_from: NetAddr,
    /// Random nonce for self-connection detection.
    pub nonce: u64,
    /// User agent, e.g. `/Satoshi:0.20.0/`.
    pub user_agent: String,
    /// Height of the sender's best chain.
    pub start_height: i32,
    /// Whether the peer wants tx relay (BIP37).
    pub relay: bool,
}

impl VersionMessage {
    /// A sane default version message from `addr_from` to `addr_recv`.
    pub fn new(addr_from: NetAddr, addr_recv: NetAddr, nonce: u64) -> Self {
        VersionMessage {
            version: crate::types::PROTOCOL_VERSION,
            services: ServiceFlags::NETWORK | ServiceFlags::WITNESS,
            timestamp: 0,
            addr_recv,
            addr_from,
            nonce,
            user_agent: "/Satoshi:0.20.0/".to_owned(),
            start_height: 0,
            relay: true,
        }
    }
}

impl Encodable for VersionMessage {
    fn encode(&self, w: &mut Writer) {
        w.u32_le(self.version);
        w.u64_le(self.services.0);
        w.i64_le(self.timestamp);
        self.addr_recv.encode(w);
        self.addr_from.encode(w);
        w.u64_le(self.nonce);
        w.var_string(&self.user_agent);
        w.i32_le(self.start_height);
        w.bool_flag(self.relay);
    }
}

impl Decodable for VersionMessage {
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(VersionMessage {
            version: r.u32_le()?,
            services: ServiceFlags(r.u64_le()?),
            timestamp: r.i64_le()?,
            addr_recv: NetAddr::decode(r)?,
            addr_from: NetAddr::decode(r)?,
            nonce: r.u64_le()?,
            user_agent: r.var_string(256)?,
            start_height: r.i32_le()?,
            relay: r.u8()? != 0,
        })
    }
}

/// A `MERKLEBLOCK` payload (BIP37 filtered block).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MerkleBlockMsg {
    /// The block header.
    pub header: crate::block::BlockHeader,
    /// Total transactions in the block.
    pub total_txs: u32,
    /// Partial merkle tree hashes.
    pub hashes: Vec<Hash256>,
    /// Partial merkle tree flag bits.
    pub flags: Vec<u8>,
}

impl Encodable for MerkleBlockMsg {
    fn encode(&self, w: &mut Writer) {
        self.header.encode(w);
        w.u32_le(self.total_txs);
        encode_vec(w, &self.hashes);
        w.var_bytes(&self.flags);
    }
}

impl Decodable for MerkleBlockMsg {
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(MerkleBlockMsg {
            header: crate::block::BlockHeader::decode(r)?,
            total_txs: r.u32_le()?,
            hashes: decode_vec(r, "merkleblock hashes", 1_000_000)?,
            flags: r.var_bytes("merkleblock flags", 1_000_000)?,
        })
    }
}

/// A (legacy) `REJECT` payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RejectMessage {
    /// Command being rejected.
    pub message: String,
    /// Reject code (0x01 malformed … 0x43 dust).
    pub code: u8,
    /// Human-readable reason.
    pub reason: String,
    /// Optional extra data (txid/block hash).
    pub data: Option<Hash256>,
}

impl Encodable for RejectMessage {
    fn encode(&self, w: &mut Writer) {
        w.var_string(&self.message);
        w.u8(self.code);
        w.var_string(&self.reason);
        if let Some(h) = &self.data {
            h.encode(w);
        }
    }
}

impl Decodable for RejectMessage {
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        let message = r.var_string(12)?;
        let code = r.u8()?;
        let reason = r.var_string(111)?;
        let data = if r.remaining() >= 32 {
            Some(Hash256::decode(r)?)
        } else {
            None
        };
        Ok(RejectMessage {
            message,
            code,
            reason,
            data,
        })
    }
}

/// Every message type of the 0.20.0 P2P protocol.
///
/// The paper's Table I covers 12 of these with ban-score rules; the other 14
/// (e.g. [`Message::Ping`]) are the "messages never getting banned" of
/// BM-DoS vector 1.
#[derive(Clone, PartialEq, Debug)]
pub enum Message {
    /// `version` — session handshake, first message on a connection.
    Version(VersionMessage),
    /// `verack` — handshake acknowledgment.
    Verack,
    /// `addr` — gossip of known peer addresses.
    Addr(Vec<TimestampedAddr>),
    /// `getaddr` — request an `addr` dump.
    GetAddr,
    /// `ping` — keepalive probe.
    Ping(u64),
    /// `pong` — keepalive answer.
    Pong(u64),
    /// `inv` — inventory announcement.
    Inv(Vec<Inventory>),
    /// `getdata` — request announced objects.
    GetData(Vec<Inventory>),
    /// `notfound` — requested objects not available.
    NotFound(Vec<Inventory>),
    /// `getblocks` — request block inventories from a locator.
    GetBlocks(BlockLocator),
    /// `getheaders` — request headers from a locator.
    GetHeaders(BlockLocator),
    /// `headers` — answer to `getheaders`.
    Headers(Vec<HeadersEntry>),
    /// `tx` — a transaction.
    Tx(Transaction),
    /// `block` — a full block.
    Block(Block),
    /// `mempool` — request mempool inventories.
    Mempool,
    /// `merkleblock` — filtered block (BIP37).
    MerkleBlock(MerkleBlockMsg),
    /// `sendheaders` — announce new blocks via `headers` (BIP130).
    SendHeaders,
    /// `feefilter` — minimum fee-rate for relayed txs (BIP133).
    FeeFilter(i64),
    /// `filterload` — install a bloom filter (BIP37).
    FilterLoad(BloomFilter),
    /// `filteradd` — add one element to the filter (BIP37).
    FilterAdd(FilterAdd),
    /// `filterclear` — remove the filter (BIP37).
    FilterClear,
    /// `sendcmpct` — negotiate compact blocks (BIP152).
    SendCmpct(SendCmpct),
    /// `cmpctblock` — a compact block (BIP152).
    CmpctBlock(CompactBlock),
    /// `getblocktxn` — request missing compact-block txs (BIP152).
    GetBlockTxn(BlockTxnRequest),
    /// `blocktxn` — answer to `getblocktxn` (BIP152).
    BlockTxn(BlockTxn),
    /// `reject` — legacy rejection notice.
    Reject(RejectMessage),
}

/// All 26 command strings, in a stable order.
pub const ALL_COMMANDS: [&str; 26] = [
    "version",
    "verack",
    "addr",
    "getaddr",
    "ping",
    "pong",
    "inv",
    "getdata",
    "notfound",
    "getblocks",
    "getheaders",
    "headers",
    "tx",
    "block",
    "mempool",
    "merkleblock",
    "sendheaders",
    "feefilter",
    "filterload",
    "filteradd",
    "filterclear",
    "sendcmpct",
    "cmpctblock",
    "getblocktxn",
    "blocktxn",
    "reject",
];

impl Message {
    /// Position of this message's command in [`ALL_COMMANDS`] (the variant
    /// order) — the telemetry type id, known without a string compare.
    pub fn command_index(&self) -> u8 {
        match self {
            Message::Version(_) => 0,
            Message::Verack => 1,
            Message::Addr(_) => 2,
            Message::GetAddr => 3,
            Message::Ping(_) => 4,
            Message::Pong(_) => 5,
            Message::Inv(_) => 6,
            Message::GetData(_) => 7,
            Message::NotFound(_) => 8,
            Message::GetBlocks(_) => 9,
            Message::GetHeaders(_) => 10,
            Message::Headers(_) => 11,
            Message::Tx(_) => 12,
            Message::Block(_) => 13,
            Message::Mempool => 14,
            Message::MerkleBlock(_) => 15,
            Message::SendHeaders => 16,
            Message::FeeFilter(_) => 17,
            Message::FilterLoad(_) => 18,
            Message::FilterAdd(_) => 19,
            Message::FilterClear => 20,
            Message::SendCmpct(_) => 21,
            Message::CmpctBlock(_) => 22,
            Message::GetBlockTxn(_) => 23,
            Message::BlockTxn(_) => 24,
            Message::Reject(_) => 25,
        }
    }

    /// The command string carried in the message header:
    /// [`ALL_COMMANDS`] at [`Message::command_index`] (a variant position,
    /// so the lookup cannot miss — `twenty_six_commands` holds the table
    /// to the variants).
    pub fn command(&self) -> &'static str {
        ALL_COMMANDS
            .get(usize::from(self.command_index()))
            .copied()
            .unwrap_or("?")
    }

    /// Encodes only the payload (header excluded).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_payload_into(&mut w);
        w.into_vec()
    }

    /// Frames the message for `network` into one wire buffer: a header
    /// placeholder, the payload encoded straight after it, then magic,
    /// command, length and checksum patched into the placeholder. Byte for
    /// byte equal to `RawMessage::frame(network, self).to_bytes()`, without
    /// the payload `Vec`, the second buffer and the copy between them.
    pub fn to_frame(&self, network: Network) -> Bytes {
        self.frame_with(network, payload_checksum)
    }

    /// [`Message::to_frame`] for a payload whose checksum the caller
    /// already holds, so no hash is computed. A PONG echoes the PING it
    /// answers byte for byte, so the PING's verified header checksum is
    /// the PONG's. The frame is only correct if `checksum` is the
    /// payload's; the caller vouches for that.
    pub fn to_frame_with_checksum(&self, network: Network, checksum: [u8; 4]) -> Bytes {
        self.frame_with(network, |_| checksum)
    }

    /// Encodes the frame, with `checksum` applied to the encoded payload.
    fn frame_with(&self, network: Network, checksum: impl FnOnce(&[u8]) -> [u8; 4]) -> Bytes {
        // Sized so every handshake and control reply is one allocation
        // (VERSION, the largest, carries 102 payload bytes): a regrow chain
        // per reply shifts glibc's heap layout enough to move peak RSS.
        // Frames carrying blocks or transactions grow as they encode.
        let mut w = Writer::with_capacity(HEADER_SIZE + 128);
        w.bytes(&[0; HEADER_SIZE]);
        self.encode_payload_into(&mut w);
        let mut frame = w.into_vec();
        // The placeholder was written first, so the split always succeeds.
        if let Some((head, payload)) = frame.split_first_chunk_mut::<HEADER_SIZE>() {
            let checksum = checksum(payload);
            *head =
                MessageHeader::with_checksum(network, self.command(), payload, checksum).to_array();
        }
        Bytes::from(frame)
    }

    /// Appends the payload encoding to `w` — the one encoder behind both
    /// [`Message::encode_payload`] and [`Message::to_frame`].
    fn encode_payload_into(&self, w: &mut Writer) {
        match self {
            Message::Version(v) => v.encode(w),
            Message::Verack
            | Message::GetAddr
            | Message::Mempool
            | Message::SendHeaders
            | Message::FilterClear => {}
            Message::Addr(v) => encode_vec(w, v),
            Message::Ping(n) | Message::Pong(n) => w.u64_le(*n),
            Message::Inv(v) | Message::GetData(v) | Message::NotFound(v) => encode_vec(w, v),
            Message::GetBlocks(l) | Message::GetHeaders(l) => l.encode(w),
            Message::Headers(v) => encode_vec(w, v),
            Message::Tx(t) => t.encode(w),
            Message::Block(b) => b.encode(w),
            Message::MerkleBlock(m) => m.encode(w),
            Message::FeeFilter(f) => w.i64_le(*f),
            Message::FilterLoad(f) => f.encode(w),
            Message::FilterAdd(f) => f.encode(w),
            Message::SendCmpct(s) => s.encode(w),
            Message::CmpctBlock(c) => c.encode(w),
            Message::GetBlockTxn(g) => g.encode(w),
            Message::BlockTxn(b) => b.encode(w),
            Message::Reject(r) => r.encode(w),
        }
    }

    /// Decodes a payload for `command`.
    ///
    /// Oversized lists (the Table-I "oversize" misbehaviors) decode
    /// successfully up to a slack factor so the ban-score layer can observe
    /// and punish them.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnknownCommand`] for an unrecognized command, or any
    /// payload decode error.
    pub fn decode_payload(command: &str, payload: &[u8]) -> DecodeResult<Message> {
        Message::decode_with(command, payload, None)
    }

    /// [`Message::decode_payload`] for a payload whose checksum
    /// [`verify_checksum`] has just verified, reusing the digest it
    /// computed. A `tx` payload without the BIP144 marker is exactly the
    /// legacy serialisation of the transaction it decodes to, so the
    /// payload digest is that transaction's txid and is memoized instead
    /// of hashed again. `digest` must be the one verified for `payload`.
    ///
    /// # Errors
    ///
    /// Same as [`Message::decode_payload`].
    pub fn decode_verified(
        command: &str,
        payload: &[u8],
        digest: PayloadDigest,
    ) -> DecodeResult<Message> {
        Message::decode_with(command, payload, Some(digest))
    }

    /// The one payload decoder behind [`Message::decode_payload`] and
    /// [`Message::decode_verified`].
    fn decode_with(
        command: &str,
        payload: &[u8],
        digest: Option<PayloadDigest>,
    ) -> DecodeResult<Message> {
        let mut r = Reader::new(payload);
        let msg = match command {
            "version" => Message::Version(VersionMessage::decode(&mut r)?),
            "verack" => Message::Verack,
            "addr" => Message::Addr(decode_vec(
                &mut r,
                "addr list",
                MAX_ADDR_TO_SEND * OVERSIZE_SLACK,
            )?),
            "getaddr" => Message::GetAddr,
            "ping" => Message::Ping(r.u64_le()?),
            "pong" => Message::Pong(r.u64_le()?),
            "inv" => Message::Inv(decode_vec(&mut r, "inv list", MAX_INV_SZ * OVERSIZE_SLACK)?),
            "getdata" => Message::GetData(decode_vec(
                &mut r,
                "getdata list",
                MAX_INV_SZ * OVERSIZE_SLACK,
            )?),
            "notfound" => Message::NotFound(decode_vec(
                &mut r,
                "notfound list",
                MAX_INV_SZ * OVERSIZE_SLACK,
            )?),
            "getblocks" => Message::GetBlocks(BlockLocator::decode(&mut r)?),
            "getheaders" => Message::GetHeaders(BlockLocator::decode(&mut r)?),
            "headers" => Message::Headers(decode_vec(
                &mut r,
                "headers list",
                MAX_HEADERS_RESULTS * OVERSIZE_SLACK,
            )?),
            "tx" => {
                let (tx, marked) = Transaction::decode_marked(&mut r)?;
                // `expect_end` below rejects a payload the transaction does
                // not span, so a message that survives it carries exactly
                // the legacy bytes the digest was taken over. A marked
                // payload never qualifies, even when every witness stack
                // is empty: its bytes are not the legacy serialisation.
                if let (false, Some(digest)) = (marked, digest) {
                    debug_assert_eq!(Hash256::hash(payload), digest.0, "foreign digest");
                    tx.seed_txid(digest.0);
                }
                Message::Tx(tx)
            }
            "block" => Message::Block(Block::decode(&mut r)?),
            "mempool" => Message::Mempool,
            "merkleblock" => Message::MerkleBlock(MerkleBlockMsg::decode(&mut r)?),
            "sendheaders" => Message::SendHeaders,
            "feefilter" => Message::FeeFilter(r.i64_le()?),
            "filterload" => Message::FilterLoad(BloomFilter::decode(&mut r)?),
            "filteradd" => Message::FilterAdd(FilterAdd::decode(&mut r)?),
            "filterclear" => Message::FilterClear,
            "sendcmpct" => Message::SendCmpct(SendCmpct::decode(&mut r)?),
            "cmpctblock" => Message::CmpctBlock(CompactBlock::decode(&mut r)?),
            "getblocktxn" => Message::GetBlockTxn(BlockTxnRequest::decode(&mut r)?),
            "blocktxn" => Message::BlockTxn(BlockTxn::decode(&mut r)?),
            "reject" => Message::Reject(RejectMessage::decode(&mut r)?),
            other => return Err(DecodeError::UnknownCommand(other.to_owned())),
        };
        r.expect_end()?;
        Ok(msg)
    }
}

/// The fixed 24-byte message header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MessageHeader {
    /// Network magic.
    pub magic: u32,
    /// NUL-padded ASCII command.
    pub command: [u8; 12],
    /// Payload length.
    pub length: u32,
    /// First 4 bytes of `sha256d(payload)`.
    pub checksum: [u8; 4],
}

impl MessageHeader {
    /// Returns the command as a string slice, if printable ASCII.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadCommand`] when padding or characters are malformed.
    pub fn command_str(&self) -> DecodeResult<&str> {
        let end = self
            .command
            .iter()
            .position(|b| *b == 0)
            .unwrap_or(self.command.len());
        let (name, pad) = self.command.split_at(end);
        if pad.iter().any(|b| *b != 0) {
            return Err(DecodeError::BadCommand);
        }
        let s = std::str::from_utf8(name).map_err(|_| DecodeError::BadCommand)?;
        if s.is_empty() || !s.bytes().all(|b| (0x20..0x7f).contains(&b)) {
            return Err(DecodeError::BadCommand);
        }
        Ok(s)
    }

    /// The header of a frame carrying `payload` as `command` on `network`,
    /// with a correct checksum.
    pub fn for_payload(network: Network, command: &str, payload: &[u8]) -> Self {
        MessageHeader::with_checksum(network, command, payload, payload_checksum(payload))
    }

    /// [`MessageHeader::for_payload`] with the checksum given, not hashed.
    fn with_checksum(network: Network, command: &str, payload: &[u8], checksum: [u8; 4]) -> Self {
        MessageHeader {
            magic: network.magic(),
            command: MessageHeader::pad_command(command),
            // Real payloads fit u32 by the MAX_MESSAGE_SIZE cap; an
            // attack-crafted oversize payload saturates the field.
            length: u32::try_from(payload.len()).unwrap_or(u32::MAX),
            checksum,
        }
    }

    /// The 24 header bytes as they go on the wire, built on the stack:
    /// the four fields destructured into one array literal, so the
    /// compiler sees fixed offsets and emits plain stores.
    pub fn to_array(&self) -> [u8; HEADER_SIZE] {
        let [m0, m1, m2, m3] = self.magic.to_le_bytes();
        let [c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11] = self.command;
        let [l0, l1, l2, l3] = self.length.to_le_bytes();
        let [k0, k1, k2, k3] = self.checksum;
        [
            m0, m1, m2, m3, c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, l0, l1, l2, l3, k0,
            k1, k2, k3,
        ]
    }

    /// Builds a NUL-padded command array. Commands longer than the 12-byte
    /// field are truncated — the wire format cannot carry them, and the
    /// attack tooling feeds arbitrary strings through here.
    pub fn pad_command(cmd: &str) -> [u8; 12] {
        let mut out = [0u8; 12];
        let name = cmd.as_bytes();
        let name = name.get(..out.len()).unwrap_or(name);
        if let Some(dst) = out.get_mut(..name.len()) {
            dst.copy_from_slice(name);
        }
        out
    }
}

impl Encodable for MessageHeader {
    fn encode(&self, w: &mut Writer) {
        w.bytes(&self.to_array());
    }
}

impl Decodable for MessageHeader {
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(MessageHeader {
            magic: r.u32_le()?,
            command: r.array()?,
            length: r.u32_le()?,
            checksum: r.array()?,
        })
    }
}

/// Computes the header checksum over a payload.
///
/// Rides the allocation-free [`crate::crypto::sha256d`] path: both hash
/// passes stay on the stack, so checksumming adds no per-message heap
/// traffic on either send ([`Message::to_frame`]) or receive
/// ([`verify_checksum`]).
pub fn payload_checksum(payload: &[u8]) -> [u8; 4] {
    let d = crate::crypto::sha256d(payload);
    d.first_chunk().copied().unwrap_or([0; 4])
}

/// A framed message as raw bytes: header fields plus payload. Used by the
/// attack tooling to craft *bogus* frames (wrong checksum, unknown command,
/// truncated payload) that a well-formed [`Message`] could never represent.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RawMessage {
    /// The header.
    pub header: MessageHeader,
    /// The payload bytes.
    pub payload: Bytes,
}

impl RawMessage {
    /// Frames `msg` for `network` with a correct checksum.
    pub fn frame(network: Network, msg: &Message) -> Self {
        RawMessage::frame_raw(network, msg.command(), Bytes::from(msg.encode_payload()))
    }

    /// Frames an arbitrary command/payload with a correct checksum.
    pub fn frame_raw(network: Network, command: &str, payload: Bytes) -> Self {
        RawMessage {
            header: MessageHeader::for_payload(network, command, &payload),
            payload,
        }
    }

    /// Replaces the checksum with a deliberately wrong value — the paper's
    /// "forgoing ban score by constructing bogus messages" vector.
    pub fn corrupt_checksum(mut self) -> Self {
        if let Some(b) = self.header.checksum.first_mut() {
            *b ^= 0xff;
        }
        self
    }

    /// Serializes header + payload into one buffer.
    pub fn to_bytes(&self) -> Bytes {
        let mut w = Writer::with_capacity(HEADER_SIZE + self.payload.len());
        self.header.encode(&mut w);
        w.bytes(&self.payload);
        w.into_bytes()
    }

    /// Total wire size.
    pub fn wire_len(&self) -> usize {
        HEADER_SIZE + self.payload.len()
    }
}

/// Outcome of pulling one frame off a byte stream.
#[derive(Clone, Debug, PartialEq)]
pub enum FrameResult {
    /// A complete frame was read; `consumed` bytes were used.
    Frame {
        /// The raw frame.
        raw: RawMessage,
        /// Bytes consumed from the stream.
        consumed: usize,
    },
    /// More bytes are needed before a frame can be read.
    Incomplete,
}

/// Reads one frame from `buf` without validating checksum or payload —
/// validation order is the caller's business (and the crux of BM-DoS
/// vector 2).
///
/// # Errors
///
/// [`DecodeError::WrongMagic`] for a foreign network,
/// [`DecodeError::OversizedLength`] for a length over
/// [`MAX_MESSAGE_SIZE`].
pub fn read_frame(network: Network, buf: &[u8]) -> DecodeResult<FrameResult> {
    let Some((header, total)) = frame_header(network, buf)? else {
        return Ok(FrameResult::Incomplete);
    };
    let Some(payload_bytes) = buf.get(HEADER_SIZE..total) else {
        return Ok(FrameResult::Incomplete);
    };
    let payload = Bytes::copy_from_slice(payload_bytes);
    Ok(FrameResult::Frame {
        raw: RawMessage { header, payload },
        consumed: total,
    })
}

/// Zero-copy variant of [`read_frame`]: reads the frame starting at byte
/// `offset` of `buf`, returning a payload that is a refcounted
/// [`Bytes::slice`] of `buf` instead of a fresh allocation. `consumed` is
/// relative to `offset`. An `offset` at or past the end of `buf` reads as
/// an empty stream ([`FrameResult::Incomplete`]).
///
/// # Errors
///
/// Same as [`read_frame`]: [`DecodeError::WrongMagic`] and
/// [`DecodeError::OversizedLength`].
pub fn read_frame_at(network: Network, buf: &Bytes, offset: usize) -> DecodeResult<FrameResult> {
    let region = buf.get(offset..).unwrap_or_default();
    let Some((header, total)) = frame_header(network, region)? else {
        return Ok(FrameResult::Incomplete);
    };
    // `frame_header` proved `offset + total <= buf.len()`, so the slice is
    // in range.
    let payload = buf.slice(offset + HEADER_SIZE..offset + total);
    Ok(FrameResult::Frame {
        raw: RawMessage { header, payload },
        consumed: total,
    })
}

/// Header parse + validation shared by [`read_frame`] and
/// [`read_frame_at`]: returns `None` when `region` does not yet hold a
/// complete frame, else the header and the frame's total wire length.
fn frame_header(
    network: Network,
    region: &[u8],
) -> DecodeResult<Option<(MessageHeader, usize)>> {
    if region.len() < HEADER_SIZE {
        return Ok(None);
    }
    let mut r = Reader::new(region);
    let header = MessageHeader::decode(&mut r)?;
    if header.magic != network.magic() {
        return Err(DecodeError::WrongMagic(header.magic));
    }
    if header.length as usize > MAX_MESSAGE_SIZE {
        return Err(DecodeError::OversizedLength {
            what: "message payload",
            len: header.length as u64,
            max: MAX_MESSAGE_SIZE as u64,
        });
    }
    let total = HEADER_SIZE + header.length as usize;
    if region.len() < total {
        return Ok(None);
    }
    Ok(Some((header, total)))
}

/// The full `sha256d` of a frame payload whose header checksum matched,
/// as [`verify_checksum`] returns it. Only this crate can build one, so a
/// digest handed to [`Message::decode_verified`] was computed over a
/// payload, never chosen by the caller.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PayloadDigest(Hash256);

impl PayloadDigest {
    /// The digest.
    pub fn hash(&self) -> Hash256 {
        self.0
    }
}

/// Verifies a frame's checksum and returns the payload digest it was
/// checked against.
///
/// # Errors
///
/// [`DecodeError::BadChecksum`] on mismatch.
pub fn verify_checksum(raw: &RawMessage) -> DecodeResult<PayloadDigest> {
    let digest = Hash256::hash(&raw.payload);
    let computed = digest.0.first_chunk().copied().unwrap_or([0; 4]);
    if computed != raw.header.checksum {
        return Err(DecodeError::BadChecksum {
            declared: raw.header.checksum,
            computed,
        });
    }
    Ok(PayloadDigest(digest))
}

/// Full receive path: checksum first, then command lookup, then payload
/// decode — the same order Bitcoin Core uses.
///
/// # Errors
///
/// Checksum, command and payload errors in that order of precedence.
pub fn decode_frame(raw: &RawMessage) -> DecodeResult<Message> {
    let digest = verify_checksum(raw)?;
    let cmd = raw.header.command_str()?;
    Message::decode_verified(cmd, &raw.payload, digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockHeader;

    fn addr(i: u8) -> NetAddr {
        NetAddr::new([10, 0, 0, i], 8333)
    }

    fn sample_messages() -> Vec<Message> {
        let tx = Transaction::coinbase(50, b"tag");
        let mut block = Block {
            header: BlockHeader::default(),
            txs: vec![tx.clone()],
        };
        block.header.merkle_root = block.merkle_root();
        block.header.mine();
        let locator = BlockLocator {
            version: crate::types::PROTOCOL_VERSION,
            hashes: vec![block.hash()],
            stop: Hash256::ZERO,
        };
        vec![
            Message::Version(VersionMessage::new(addr(1), addr(2), 7)),
            Message::Verack,
            Message::Addr(vec![TimestampedAddr {
                time: 1,
                addr: addr(3),
            }]),
            Message::GetAddr,
            Message::Ping(0xdead),
            Message::Pong(0xdead),
            Message::Inv(vec![Inventory::new(
                crate::types::InvType::Tx,
                tx.txid(),
            )]),
            Message::GetData(vec![Inventory::new(
                crate::types::InvType::Block,
                block.hash(),
            )]),
            Message::NotFound(vec![]),
            Message::GetBlocks(locator.clone()),
            Message::GetHeaders(locator),
            Message::Headers(vec![HeadersEntry(block.header)]),
            Message::Tx(tx.clone()),
            Message::Block(block.clone()),
            Message::Mempool,
            Message::MerkleBlock(MerkleBlockMsg {
                header: block.header,
                total_txs: 1,
                hashes: vec![tx.txid()],
                flags: vec![1],
            }),
            Message::SendHeaders,
            Message::FeeFilter(1000),
            Message::FilterLoad(BloomFilter::new(10, 0.01, 5, crate::bloom::BloomFlags::All)),
            Message::FilterAdd(FilterAdd { data: vec![1, 2, 3] }),
            Message::FilterClear,
            Message::SendCmpct(SendCmpct {
                announce: true,
                version: 1,
            }),
            Message::CmpctBlock(CompactBlock::from_block(&block, 3)),
            Message::GetBlockTxn(BlockTxnRequest::from_absolute(block.hash(), &[0])),
            Message::BlockTxn(BlockTxn {
                block_hash: block.hash(),
                txs: vec![tx],
            }),
            Message::Reject(RejectMessage {
                message: "tx".into(),
                code: 0x10,
                reason: "bad-txns".into(),
                data: Some(Hash256::ZERO),
            }),
        ]
    }

    #[test]
    fn twenty_six_commands() {
        assert_eq!(ALL_COMMANDS.len(), 26);
        let msgs = sample_messages();
        assert_eq!(msgs.len(), 26);
        let mut seen: Vec<&str> = msgs.iter().map(|m| m.command()).collect();
        seen.sort_unstable();
        let mut expect = ALL_COMMANDS.to_vec();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    #[test]
    fn every_message_roundtrips_through_frame() {
        for msg in sample_messages() {
            let raw = RawMessage::frame(Network::Regtest, &msg);
            let bytes = raw.to_bytes();
            match read_frame(Network::Regtest, &bytes).unwrap() {
                FrameResult::Frame { raw: parsed, consumed } => {
                    assert_eq!(consumed, bytes.len());
                    let decoded = decode_frame(&parsed).unwrap();
                    assert_eq!(decoded, msg, "command {}", msg.command());
                }
                FrameResult::Incomplete => panic!("incomplete frame for {}", msg.command()),
            }
        }
    }

    #[test]
    fn frame_with_known_checksum_equals_to_frame() {
        for msg in sample_messages() {
            let checksum = payload_checksum(&msg.encode_payload());
            for net in [Network::Regtest, Network::Mainnet] {
                assert_eq!(
                    msg.to_frame_with_checksum(net, checksum),
                    msg.to_frame(net),
                    "command {}",
                    msg.command()
                );
            }
        }
        // The PING's checksum is the PONG's: same eight payload bytes.
        let ping = RawMessage::frame(Network::Regtest, &Message::Ping(0xdead));
        assert_eq!(
            Message::Pong(0xdead).to_frame_with_checksum(Network::Regtest, ping.header.checksum),
            Message::Pong(0xdead).to_frame(Network::Regtest)
        );
    }

    #[test]
    fn corrupt_checksum_detected_before_payload_decode() {
        let msg = Message::Ping(1);
        let raw = RawMessage::frame(Network::Regtest, &msg).corrupt_checksum();
        assert!(matches!(
            decode_frame(&raw),
            Err(DecodeError::BadChecksum { .. })
        ));
    }

    #[test]
    fn wrong_magic_rejected() {
        let raw = RawMessage::frame(Network::Mainnet, &Message::Verack);
        let bytes = raw.to_bytes();
        assert!(matches!(
            read_frame(Network::Regtest, &bytes),
            Err(DecodeError::WrongMagic(_))
        ));
    }

    #[test]
    fn oversized_length_rejected_at_framing() {
        let mut raw = RawMessage::frame(Network::Regtest, &Message::Verack);
        raw.header.length = (MAX_MESSAGE_SIZE + 1) as u32;
        let bytes = raw.to_bytes();
        assert!(matches!(
            read_frame(Network::Regtest, &bytes),
            Err(DecodeError::OversizedLength { .. })
        ));
    }

    #[test]
    fn incomplete_frames() {
        let raw = RawMessage::frame(Network::Regtest, &Message::Ping(3));
        let bytes = raw.to_bytes();
        for cut in [0, 1, HEADER_SIZE - 1, HEADER_SIZE, bytes.len() - 1] {
            assert_eq!(
                read_frame(Network::Regtest, &bytes[..cut]).unwrap(),
                FrameResult::Incomplete,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn stream_of_two_frames_parses_sequentially() {
        let a = RawMessage::frame(Network::Regtest, &Message::Ping(1)).to_bytes();
        let b = RawMessage::frame(Network::Regtest, &Message::Pong(2)).to_bytes();
        let mut stream = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);
        let FrameResult::Frame { raw, consumed } = read_frame(Network::Regtest, &stream).unwrap()
        else {
            panic!()
        };
        assert_eq!(decode_frame(&raw).unwrap(), Message::Ping(1));
        let FrameResult::Frame { raw, .. } =
            read_frame(Network::Regtest, &stream[consumed..]).unwrap()
        else {
            panic!()
        };
        assert_eq!(decode_frame(&raw).unwrap(), Message::Pong(2));
    }

    #[test]
    fn read_frame_at_matches_read_frame_and_borrows_the_buffer() {
        let a = RawMessage::frame(Network::Regtest, &Message::Ping(1)).to_bytes();
        let b = RawMessage::frame(Network::Regtest, &Message::Pong(2))
            .corrupt_checksum()
            .to_bytes();
        let mut stream = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);
        let shared = Bytes::from(stream.clone());

        let mut off = 0;
        let mut copied = Vec::new();
        let mut borrowed = Vec::new();
        loop {
            let by_copy = read_frame(Network::Regtest, stream.get(off..).unwrap_or_default());
            let by_slice = read_frame_at(Network::Regtest, &shared, off);
            assert_eq!(by_copy, by_slice, "divergence at offset {off}");
            match by_slice.unwrap() {
                FrameResult::Frame { raw, consumed } => {
                    // Zero-copy: the payload points into the shared buffer.
                    assert!(std::ptr::eq(
                        raw.payload.as_ref().as_ptr(),
                        shared[off + HEADER_SIZE..].as_ptr()
                    ));
                    borrowed.push(raw.clone());
                    if let FrameResult::Frame { raw, .. } = by_copy.unwrap() {
                        copied.push(raw);
                    }
                    off += consumed;
                }
                FrameResult::Incomplete => break,
            }
        }
        assert_eq!(copied, borrowed);
        assert_eq!(copied.len(), 2);
        // Past-the-end offsets read as an empty stream, not a panic.
        assert_eq!(
            read_frame_at(Network::Regtest, &shared, stream.len() + 10),
            Ok(FrameResult::Incomplete)
        );
    }

    #[test]
    fn read_frame_at_propagates_header_errors() {
        let shared = Bytes::from(vec![0xAB; 64]);
        assert!(matches!(
            read_frame_at(Network::Regtest, &shared, 0),
            Err(DecodeError::WrongMagic(_))
        ));
        let mut oversize = RawMessage::frame(Network::Regtest, &Message::Verack);
        oversize.header.length = (MAX_MESSAGE_SIZE + 1) as u32;
        let bytes = oversize.to_bytes();
        assert!(matches!(
            read_frame_at(Network::Regtest, &Bytes::from(bytes.to_vec()), 0),
            Err(DecodeError::OversizedLength { .. })
        ));
    }

    #[test]
    fn unknown_command_error() {
        let raw = RawMessage::frame_raw(Network::Regtest, "bogus", Bytes::new());
        assert_eq!(
            decode_frame(&raw),
            Err(DecodeError::UnknownCommand("bogus".into()))
        );
    }

    #[test]
    fn bad_command_padding() {
        let mut raw = RawMessage::frame(Network::Regtest, &Message::Verack);
        raw.header.command = *b"ver\0ack\0\0\0\0\0";
        assert_eq!(decode_frame(&raw), Err(DecodeError::BadCommand));
    }

    #[test]
    fn trailing_payload_bytes_rejected() {
        let mut payload = Message::Ping(9).encode_payload();
        payload.push(0xff);
        let raw = RawMessage::frame_raw(Network::Regtest, "ping", Bytes::from(payload));
        assert!(matches!(
            decode_frame(&raw),
            Err(DecodeError::TrailingBytes(1))
        ));
    }

    /// The header bytes as the field-by-field chained iterator built
    /// them before `to_array` destructured the fields: the oracle.
    fn chained_header_bytes(h: &MessageHeader) -> [u8; HEADER_SIZE] {
        let mut out = [0u8; HEADER_SIZE];
        let fields = h
            .magic
            .to_le_bytes()
            .into_iter()
            .chain(h.command)
            .chain(h.length.to_le_bytes())
            .chain(h.checksum);
        for (dst, src) in out.iter_mut().zip(fields) {
            *dst = src;
        }
        out
    }

    #[test]
    fn to_array_matches_chained_fields() {
        let mut rng = btc_netsim::rng::SimRng::new(0x4EAD);
        for network in [Network::Mainnet, Network::Regtest] {
            for command in ALL_COMMANDS {
                for _ in 0..16 {
                    let checksum = rng.next_u64().to_le_bytes();
                    let h = MessageHeader {
                        magic: network.magic(),
                        command: MessageHeader::pad_command(command),
                        length: rng.next_u64() as u32,
                        checksum: [checksum[0], checksum[1], checksum[2], checksum[3]],
                    };
                    let bytes = h.to_array();
                    assert_eq!(bytes, chained_header_bytes(&h), "{network:?} {command}");
                    let mut r = Reader::new(&bytes);
                    assert_eq!(MessageHeader::decode(&mut r).unwrap(), h);
                }
            }
        }
    }

    #[test]
    fn pad_command_pads_and_truncates() {
        assert_eq!(&MessageHeader::pad_command("ping"), b"ping\0\0\0\0\0\0\0\0");
        assert_eq!(&MessageHeader::pad_command(""), &[0; 12]);
        assert_eq!(&MessageHeader::pad_command("filterclear!"), b"filterclear!");
        assert_eq!(
            &MessageHeader::pad_command("thirteen-char"),
            b"thirteen-cha"
        );
        assert_eq!(&MessageHeader::pad_command(&"x".repeat(100)), &[b'x'; 12]);
    }

    #[test]
    fn header_size_constant() {
        let raw = RawMessage::frame(Network::Regtest, &Message::Verack);
        assert_eq!(raw.header.encode_to_vec().len(), HEADER_SIZE);
        assert_eq!(raw.wire_len(), HEADER_SIZE);
    }

    #[test]
    fn version_payload_field_order() {
        let v = VersionMessage::new(addr(1), addr(2), 42);
        let enc = v.encode_to_vec();
        // First 4 bytes: protocol version LE.
        assert_eq!(
            u32::from_le_bytes(enc[..4].try_into().unwrap()),
            crate::types::PROTOCOL_VERSION
        );
        let dec = VersionMessage::decode_all(&enc).unwrap();
        assert_eq!(dec, v);
    }
}
