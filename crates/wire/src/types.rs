//! Shared protocol types: hashes, network addresses, inventory vectors,
//! service flags and protocol constants.

use crate::encode::{Decodable, DecodeError, DecodeResult, Encodable, Reader, Writer};
use std::fmt;

/// The protocol version the paper's testbed speaks (Bitcoin Core 0.20.0).
pub const PROTOCOL_VERSION: u32 = 70015;

/// Default P2P port.
pub const DEFAULT_PORT: u16 = 8333;

/// A 256-bit hash (txid, block hash, merkle node).
///
/// Displayed in the conventional reversed (big-endian) hex order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Hash256(pub [u8; 32]);

impl Hash256 {
    /// The all-zero hash (genesis `prev_block`, null pointers).
    pub const ZERO: Hash256 = Hash256([0u8; 32]);

    /// Computes the double-SHA256 of `data`.
    pub fn hash(data: &[u8]) -> Self {
        Hash256(crate::crypto::sha256d(data))
    }

    /// Builds a hash from reversed (display-order) hex.
    ///
    /// # Errors
    ///
    /// Returns `None` for non-hex input or wrong length.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (slot, chunk) in out.iter_mut().rev().zip(s.as_bytes().chunks_exact(2)) {
            let hex = std::str::from_utf8(chunk).ok()?;
            *slot = u8::from_str_radix(hex, 16).ok()?;
        }
        Some(Hash256(out))
    }

    /// Interprets the hash as a little-endian 256-bit integer and compares it
    /// against a compact-encoded difficulty target.
    ///
    /// Returns `true` when `self <= target(bits)` — i.e. valid proof of work.
    pub fn meets_target(&self, bits: u32) -> bool {
        let target = compact_to_target(bits);
        // Compare as 256-bit big-endian integers; self.0 is little-endian.
        let mut be = self.0;
        be.reverse();
        be <= target
    }

    /// Raw bytes in internal (little-endian) order.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash256({self})")
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.0.iter().rev() {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl From<[u8; 32]> for Hash256 {
    fn from(b: [u8; 32]) -> Self {
        Hash256(b)
    }
}

impl Encodable for Hash256 {
    fn encode(&self, w: &mut Writer) {
        w.bytes(&self.0);
    }
}

impl Decodable for Hash256 {
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(Hash256(r.array()?))
    }
}

/// Expands a compact-encoded ("nBits") target into a 256-bit big-endian
/// integer.
pub fn compact_to_target(bits: u32) -> [u8; 32] {
    let exponent = (bits >> 24) as usize;
    let mantissa = bits & 0x007f_ffff;
    let mut target = [0u8; 32];
    if exponent <= 3 {
        let m = mantissa >> (8 * (3 - exponent));
        // lint:allow(narrowing-cast): intentional byte extraction from the 24-bit mantissa
        let bytes = [(m >> 16) as u8, (m >> 8) as u8, m as u8];
        if let Some(tail) = target.get_mut(29..32) {
            tail.copy_from_slice(&bytes);
        }
    } else if exponent <= 32 {
        let shift = exponent - 3;
        // lint:allow(narrowing-cast): intentional byte extraction from the 24-bit mantissa
        let bytes = [(mantissa >> 16) as u8, (mantissa >> 8) as u8, mantissa as u8];
        for (i, b) in bytes.iter().enumerate() {
            if let Some(t) = target.get_mut(32 - shift - 3 + i) {
                *t = *b;
            }
        }
    } else {
        // Exponent too large: saturate to the maximum target.
        target = [0xff; 32];
    }
    target
}

/// Service bits advertised in `VERSION`/`ADDR`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct ServiceFlags(pub u64);

impl ServiceFlags {
    /// No services.
    pub const NONE: ServiceFlags = ServiceFlags(0);
    /// `NODE_NETWORK`: can serve the full block chain.
    pub const NETWORK: ServiceFlags = ServiceFlags(1);
    /// `NODE_BLOOM`: supports BIP37 bloom filtering.
    pub const BLOOM: ServiceFlags = ServiceFlags(1 << 2);
    /// `NODE_WITNESS`: supports SegWit.
    pub const WITNESS: ServiceFlags = ServiceFlags(1 << 3);

    /// Whether every bit in `other` is set in `self`.
    pub fn has(&self, other: ServiceFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

impl std::ops::BitOr for ServiceFlags {
    type Output = ServiceFlags;
    fn bitor(self, rhs: ServiceFlags) -> ServiceFlags {
        ServiceFlags(self.0 | rhs.0)
    }
}

/// The network a message belongs to, identified by its 4-byte magic.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Network {
    /// Bitcoin mainnet (magic `0xD9B4BEF9`).
    #[default]
    Mainnet,
    /// A private regression-test network (magic `0xDAB5BFFA`).
    Regtest,
}

impl Network {
    /// The 4-byte message-start magic.
    pub fn magic(&self) -> u32 {
        match self {
            Network::Mainnet => 0xD9B4_BEF9,
            Network::Regtest => 0xDAB5_BFFA,
        }
    }
}

/// A peer address as carried in `ADDR` payloads and `VERSION` messages
/// (IPv4-mapped-IPv6 + big-endian port, preceded by services).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NetAddr {
    /// Services the peer claims to provide.
    pub services: ServiceFlags,
    /// IPv4 address (the simulator is v4-only; encoded as mapped IPv6).
    pub ip: [u8; 4],
    /// TCP port.
    pub port: u16,
}

impl NetAddr {
    /// Creates an address from octets and port.
    pub fn new(ip: [u8; 4], port: u16) -> Self {
        NetAddr {
            services: ServiceFlags::NETWORK,
            ip,
            port,
        }
    }
}

impl Default for NetAddr {
    fn default() -> Self {
        NetAddr::new([0, 0, 0, 0], DEFAULT_PORT)
    }
}

impl fmt::Display for NetAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{}.{}.{}:{}",
            // lint:allow(panic-path): fixed indices into the [u8; 4] octets
            self.ip[0], self.ip[1], self.ip[2], self.ip[3], self.port
        )
    }
}

impl Encodable for NetAddr {
    fn encode(&self, w: &mut Writer) {
        w.u64_le(self.services.0);
        // IPv4-mapped IPv6: 10 zero bytes, 0xffff, then the 4 octets.
        w.bytes(&[0u8; 10]);
        w.bytes(&[0xff, 0xff]);
        w.bytes(&self.ip);
        w.u16_be(self.port);
    }
}

impl Decodable for NetAddr {
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        let services = ServiceFlags(r.u64_le()?);
        let pad: [u8; 12] = r.array()?;
        let (zeros, mapped) = pad.split_at(10);
        if zeros.iter().any(|b| *b != 0) || mapped != [0xff, 0xff] {
            return Err(DecodeError::InvalidValue("not an IPv4-mapped address"));
        }
        let ip: [u8; 4] = r.array()?;
        let port = r.u16_be()?;
        Ok(NetAddr { services, ip, port })
    }
}

/// An `ADDR` entry: a [`NetAddr`] with a last-seen timestamp.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimestampedAddr {
    /// Unix time the address was last seen.
    pub time: u32,
    /// The address itself.
    pub addr: NetAddr,
}

impl Encodable for TimestampedAddr {
    fn encode(&self, w: &mut Writer) {
        w.u32_le(self.time);
        self.addr.encode(w);
    }
}

impl Decodable for TimestampedAddr {
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(TimestampedAddr {
            time: r.u32_le()?,
            addr: NetAddr::decode(r)?,
        })
    }
}

/// The object class an inventory vector refers to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InvType {
    /// An unknown/reserved type carrying its raw discriminant.
    Error(u32),
    /// A transaction.
    Tx,
    /// A block.
    Block,
    /// A filtered (merkle) block.
    FilteredBlock,
    /// A compact block (BIP152).
    CmpctBlock,
    /// A SegWit transaction.
    WitnessTx,
    /// A SegWit block.
    WitnessBlock,
}

impl InvType {
    /// Wire discriminant.
    pub fn to_u32(self) -> u32 {
        match self {
            InvType::Error(v) => v,
            InvType::Tx => 1,
            InvType::Block => 2,
            InvType::FilteredBlock => 3,
            InvType::CmpctBlock => 4,
            InvType::WitnessTx => 0x4000_0001,
            InvType::WitnessBlock => 0x4000_0002,
        }
    }

    /// Parses a wire discriminant (unknown values map to [`InvType::Error`]).
    pub fn from_u32(v: u32) -> Self {
        match v {
            1 => InvType::Tx,
            2 => InvType::Block,
            3 => InvType::FilteredBlock,
            4 => InvType::CmpctBlock,
            0x4000_0001 => InvType::WitnessTx,
            0x4000_0002 => InvType::WitnessBlock,
            other => InvType::Error(other),
        }
    }
}

/// An inventory vector: `(type, hash)` as used by `INV`/`GETDATA`/`NOTFOUND`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Inventory {
    /// Object class.
    pub kind: InvType,
    /// Object hash.
    pub hash: Hash256,
}

impl Inventory {
    /// Convenience constructor.
    pub fn new(kind: InvType, hash: Hash256) -> Self {
        Inventory { kind, hash }
    }
}

impl Encodable for Inventory {
    fn encode(&self, w: &mut Writer) {
        w.u32_le(self.kind.to_u32());
        self.hash.encode(w);
    }
}

impl Decodable for Inventory {
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(Inventory {
            kind: InvType::from_u32(r.u32_le()?),
            hash: Hash256::decode(r)?,
        })
    }
}

/// A `GETBLOCKS`/`GETHEADERS` block locator.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BlockLocator {
    /// Protocol version of the sender.
    pub version: u32,
    /// Hashes from tip backwards (exponentially thinning).
    pub hashes: Vec<Hash256>,
    /// Stop hash, or zero for "as many as possible".
    pub stop: Hash256,
}

/// Maximum locator entries accepted (Bitcoin Core's `MAX_LOCATOR_SZ`).
pub const MAX_LOCATOR_SZ: u64 = 101;

impl Encodable for BlockLocator {
    fn encode(&self, w: &mut Writer) {
        w.u32_le(self.version);
        crate::encode::encode_vec(w, &self.hashes);
        self.stop.encode(w);
    }
}

impl Decodable for BlockLocator {
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(BlockLocator {
            version: r.u32_le()?,
            hashes: crate::encode::decode_vec(r, "locator", MAX_LOCATOR_SZ)?,
            stop: Hash256::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_display_is_reversed_hex() {
        let mut b = [0u8; 32];
        b[0] = 0xab;
        b[31] = 0x01;
        let h = Hash256(b);
        let s = h.to_string();
        assert!(s.starts_with("01"));
        assert!(s.ends_with("ab"));
        assert_eq!(Hash256::from_hex(&s), Some(h));
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert_eq!(Hash256::from_hex("zz"), None);
        assert_eq!(Hash256::from_hex(&"g".repeat(64)), None);
    }

    #[test]
    fn compact_target_genesis_bits() {
        // 0x1d00ffff => target 0x00000000ffff0000...0000
        let t = compact_to_target(0x1d00ffff);
        assert_eq!(&t[..4], &[0, 0, 0, 0]);
        assert_eq!(&t[4..6], &[0xff, 0xff]);
        assert!(t[6..].iter().all(|b| *b == 0));
    }

    #[test]
    fn meets_target_boundary() {
        // An easy target: exponent 0x20 -> mantissa in the top bytes.
        let easy = 0x207fffff;
        let mut low = [0u8; 32];
        low[31] = 1; // tiny LE value
        assert!(Hash256(low).meets_target(easy));
        let high = [0xff; 32];
        assert!(!Hash256(high).meets_target(0x1d00ffff));
    }

    #[test]
    fn netaddr_roundtrip() {
        let a = NetAddr::new([10, 0, 0, 7], 8333);
        let enc = a.encode_to_vec();
        assert_eq!(enc.len(), 26);
        assert_eq!(NetAddr::decode_all(&enc).unwrap(), a);
    }

    #[test]
    fn netaddr_rejects_non_mapped() {
        let a = NetAddr::new([1, 2, 3, 4], 1);
        let mut enc = a.encode_to_vec();
        enc[8] = 1; // corrupt the zero padding
        assert!(matches!(
            NetAddr::decode_all(&enc),
            Err(DecodeError::InvalidValue(_))
        ));
    }

    #[test]
    fn inventory_roundtrip_all_kinds() {
        for kind in [
            InvType::Tx,
            InvType::Block,
            InvType::FilteredBlock,
            InvType::CmpctBlock,
            InvType::WitnessTx,
            InvType::WitnessBlock,
            InvType::Error(99),
        ] {
            let inv = Inventory::new(kind, Hash256::hash(b"x"));
            let enc = inv.encode_to_vec();
            assert_eq!(enc.len(), 36);
            assert_eq!(Inventory::decode_all(&enc).unwrap(), inv);
        }
    }

    #[test]
    fn service_flags_ops() {
        let f = ServiceFlags::NETWORK | ServiceFlags::WITNESS;
        assert!(f.has(ServiceFlags::NETWORK));
        assert!(f.has(ServiceFlags::WITNESS));
        assert!(!f.has(ServiceFlags::BLOOM));
        assert!(f.has(ServiceFlags::NONE));
    }

    #[test]
    fn locator_roundtrip() {
        let loc = BlockLocator {
            version: PROTOCOL_VERSION,
            hashes: vec![Hash256::hash(b"a"), Hash256::hash(b"b")],
            stop: Hash256::ZERO,
        };
        let enc = loc.encode_to_vec();
        assert_eq!(BlockLocator::decode_all(&enc).unwrap(), loc);
    }

    #[test]
    fn locator_size_bound() {
        let loc = BlockLocator {
            version: 1,
            hashes: vec![Hash256::ZERO; 102],
            stop: Hash256::ZERO,
        };
        let enc = loc.encode_to_vec();
        assert!(matches!(
            BlockLocator::decode_all(&enc),
            Err(DecodeError::OversizedLength { .. })
        ));
    }
}
