//! Simulated network packets: a TCP-lite transport segment and an ICMP echo,
//! carried between hosts by the simulator.

use btc_wire::bytes::Bytes;
use std::fmt;

/// An IPv4 address in the simulated network.
pub type Ipv4 = [u8; 4];

/// A socket address — the *connection identifier* (`[IP:Port]`) that
/// Bitcoin's ban-score mechanism bans.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct SockAddr {
    /// Host address.
    pub ip: Ipv4,
    /// Port number.
    pub port: u16,
}

impl SockAddr {
    /// Creates a socket address.
    pub fn new(ip: Ipv4, port: u16) -> Self {
        SockAddr { ip, port }
    }
}

impl fmt::Display for SockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{}.{}.{}:{}",
            self.ip[0], self.ip[1], self.ip[2], self.ip[3], self.port
        )
    }
}

/// TCP segment control flags (bit-packed).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// Synchronize sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0b0001);
    /// Acknowledgment field valid.
    pub const ACK: TcpFlags = TcpFlags(0b0010);
    /// Finish; no more data.
    pub const FIN: TcpFlags = TcpFlags(0b0100);
    /// Abort the connection.
    pub const RST: TcpFlags = TcpFlags(0b1000);

    /// Whether all bits of `other` are set.
    pub fn has(&self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

/// A TCP-lite segment.
///
/// Carries exactly the state the paper's post-connection Defamation attack
/// must learn by sniffing: sequence and acknowledgment numbers, plus a
/// transport checksum that an injected segment must forge correctly.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TcpSegment {
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Next sequence number expected from the other side.
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Transport checksum over the pseudo-header and payload.
    pub checksum: u16,
    /// Payload bytes.
    pub payload: Bytes,
}

/// An ICMP echo request/reply (the network-layer flooding baseline of
/// Table III).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IcmpEcho {
    /// `true` for request, `false` for reply.
    pub request: bool,
    /// Echo identifier.
    pub ident: u16,
    /// Echo sequence.
    pub seq: u16,
    /// Padding payload length in bytes (contents don't matter).
    pub len: usize,
}

/// The transport content of a packet.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PacketBody {
    /// A TCP segment.
    Tcp(TcpSegment),
    /// An ICMP echo.
    Icmp(IcmpEcho),
}

/// A packet in flight between two hosts.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Packet {
    /// Claimed source — spoofable by an attacker with raw injection.
    pub src: SockAddr,
    /// Destination.
    pub dst: SockAddr,
    /// Transport content.
    pub body: PacketBody,
}

/// Fixed per-packet header overhead charged on the wire (IP + TCP headers).
pub const WIRE_HEADER_BYTES: usize = 40;

impl Packet {
    /// Approximate size on the wire in bytes.
    pub fn wire_len(&self) -> usize {
        WIRE_HEADER_BYTES
            + match &self.body {
                PacketBody::Tcp(seg) => seg.payload.len(),
                PacketBody::Icmp(e) => e.len,
            }
    }
}

/// Computes the TCP-lite transport checksum: 16-bit ones'-complement sum
/// over a pseudo-header (addresses, ports, seq, ack, flags) and the payload.
///
/// A spoofed segment must compute this correctly over the *forged* source
/// address or the victim's transport layer silently drops it.
///
/// The payload is summed eight bytes per step: each native-endian `u64`
/// word adds its two 32-bit halves to a `u64` accumulator (2^32 ≡ 1 mod
/// 0xffff, so no carry has to wrap until the fold), then the sum is folded
/// to 16 bits and byte-swapped once into big-endian order. The
/// ones'-complement sum does not depend on byte order (RFC 1071 §2(B)),
/// so this equals the word-by-word big-endian sum.
pub fn tcp_checksum(src: SockAddr, dst: SockAddr, seq: u32, ack: u32, flags: TcpFlags, payload: &[u8]) -> u16 {
    let (words, tail) = payload.as_chunks::<8>();
    let mut acc = 0u64;
    for w in words {
        let w = u64::from_ne_bytes(*w);
        acc += (w & 0xffff_ffff) + (w >> 32);
    }
    let (pairs, odd) = tail.as_chunks::<2>();
    for p in pairs {
        acc += u64::from(u16::from_ne_bytes(*p));
    }
    if let [last] = odd {
        // An odd last byte sums as the big-endian word `[last, 0]`.
        acc += u64::from(u16::from_ne_bytes([*last, 0]));
    }
    let payload_sum = u16::from_be_bytes(fold16(acc).to_ne_bytes());
    let header = [
        u16::from_be_bytes([src.ip[0], src.ip[1]]),
        u16::from_be_bytes([src.ip[2], src.ip[3]]),
        u16::from_be_bytes([dst.ip[0], dst.ip[1]]),
        u16::from_be_bytes([dst.ip[2], dst.ip[3]]),
        src.port,
        dst.port,
        (seq >> 16) as u16,
        seq as u16,
        (ack >> 16) as u16,
        ack as u16,
        u16::from(flags.0),
    ];
    let sum = header.iter().map(|&w| u64::from(w)).sum::<u64>() + u64::from(payload_sum);
    !fold16(sum)
}

/// Folds a ones'-complement sum to 16 bits with end-around carries. A
/// nonzero sum stays nonzero.
fn fold16(mut sum: u64) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// Builds a correctly checksummed TCP segment from `src` to `dst`.
pub fn make_segment(
    src: SockAddr,
    dst: SockAddr,
    seq: u32,
    ack: u32,
    flags: TcpFlags,
    payload: Bytes,
) -> Packet {
    let checksum = tcp_checksum(src, dst, seq, ack, flags, &payload);
    Packet {
        src,
        dst,
        body: PacketBody::Tcp(TcpSegment {
            seq,
            ack,
            flags,
            checksum,
            payload,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::{check, Gen};

    fn sa(last: u8, port: u16) -> SockAddr {
        SockAddr::new([10, 0, 0, last], port)
    }

    #[test]
    fn flags_bit_ops() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.has(TcpFlags::SYN));
        assert!(f.has(TcpFlags::ACK));
        assert!(!f.has(TcpFlags::RST));
    }

    #[test]
    fn checksum_is_deterministic_and_field_sensitive() {
        let base = tcp_checksum(sa(1, 1000), sa(2, 8333), 5, 9, TcpFlags::ACK, b"hello");
        assert_eq!(
            base,
            tcp_checksum(sa(1, 1000), sa(2, 8333), 5, 9, TcpFlags::ACK, b"hello")
        );
        assert_ne!(
            base,
            tcp_checksum(sa(3, 1000), sa(2, 8333), 5, 9, TcpFlags::ACK, b"hello")
        );
        assert_ne!(
            base,
            tcp_checksum(sa(1, 1000), sa(2, 8333), 6, 9, TcpFlags::ACK, b"hello")
        );
        assert_ne!(
            base,
            tcp_checksum(sa(1, 1000), sa(2, 8333), 5, 9, TcpFlags::ACK, b"hellx")
        );
    }

    #[test]
    fn make_segment_checksum_verifies() {
        let p = make_segment(sa(1, 1), sa(2, 2), 100, 200, TcpFlags::ACK, Bytes::from_static(b"data"));
        let PacketBody::Tcp(seg) = &p.body else { panic!() };
        assert_eq!(
            seg.checksum,
            tcp_checksum(p.src, p.dst, seg.seq, seg.ack, seg.flags, &seg.payload)
        );
    }

    #[test]
    fn wire_len_includes_headers() {
        let p = make_segment(sa(1, 1), sa(2, 2), 0, 0, TcpFlags::SYN, Bytes::new());
        assert_eq!(p.wire_len(), WIRE_HEADER_BYTES);
        let p = make_segment(sa(1, 1), sa(2, 2), 0, 0, TcpFlags::ACK, Bytes::from_static(b"12345"));
        assert_eq!(p.wire_len(), WIRE_HEADER_BYTES + 5);
    }

    #[test]
    fn sockaddr_display() {
        assert_eq!(sa(7, 8333).to_string(), "10.0.0.7:8333");
    }

    /// The 16-bit big-endian reference sum the eight-byte form replaced.
    fn checksum_oracle(
        src: SockAddr,
        dst: SockAddr,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
        payload: &[u8],
    ) -> u16 {
        let mut sum: u32 = 0;
        let mut add16 = |v: u16| {
            sum += v as u32;
        };
        add16(u16::from_be_bytes([src.ip[0], src.ip[1]]));
        add16(u16::from_be_bytes([src.ip[2], src.ip[3]]));
        add16(u16::from_be_bytes([dst.ip[0], dst.ip[1]]));
        add16(u16::from_be_bytes([dst.ip[2], dst.ip[3]]));
        add16(src.port);
        add16(dst.port);
        add16((seq >> 16) as u16);
        add16(seq as u16);
        add16((ack >> 16) as u16);
        add16(ack as u16);
        add16(flags.0 as u16);
        let mut chunks = payload.chunks_exact(2);
        for c in &mut chunks {
            sum += u16::from_be_bytes([c[0], c[1]]) as u32;
        }
        if let [last] = chunks.remainder() {
            sum += u16::from_be_bytes([*last, 0]) as u32;
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    /// Both checksums over one random pseudo-header and `payload`.
    fn both_checksums(g: &mut Gen, payload: &[u8]) -> (u16, u16) {
        let src = SockAddr::new(g.array4(), g.u16());
        let dst = SockAddr::new(g.array4(), g.u16());
        let (seq, ack, flags) = (g.u32(), g.u32(), TcpFlags(g.u8() & 0x0f));
        (
            tcp_checksum(src, dst, seq, ack, flags, payload),
            checksum_oracle(src, dst, seq, ack, flags, payload),
        )
    }

    #[test]
    fn checksum_matches_sixteen_bit_oracle_at_every_length() {
        // Every payload length 0..=MSS, odd ones included, filled with
        // random bytes, all zeros and all ones.
        let mut g = Gen::new(0xC4EC_5EED, crate::tcp::MSS);
        for len in 0..=crate::tcp::MSS {
            for fill in [None, Some(0x00), Some(0xff)] {
                let payload: Vec<u8> = (0..len).map(|_| fill.unwrap_or_else(|| g.u8())).collect();
                let (fast, oracle) = both_checksums(&mut g, &payload);
                assert_eq!(fast, oracle, "len={len} fill={fill:?}");
            }
        }
        // The all-zero segment: the sum is zero, not a multiple of 0xffff.
        let zero = SockAddr::default();
        assert_eq!(
            tcp_checksum(zero, zero, 0, 0, TcpFlags(0), &[0; 9]),
            checksum_oracle(zero, zero, 0, 0, TcpFlags(0), &[0; 9])
        );
    }

    #[test]
    fn prop_checksum_matches_sixteen_bit_oracle() {
        check("8-byte tcp_checksum == 16-bit oracle", |g: &mut Gen| {
            let payload = g.vec_u8(0, crate::tcp::MSS);
            let (fast, oracle) = both_checksums(g, &payload);
            assert_eq!(fast, oracle, "len={}", payload.len());
        });
    }

    #[test]
    fn odd_length_payload_checksum() {
        // Must not panic and must differ from even-length payload.
        let a = tcp_checksum(sa(1, 1), sa(2, 2), 0, 0, TcpFlags::ACK, b"abc");
        let b = tcp_checksum(sa(1, 1), sa(2, 2), 0, 0, TcpFlags::ACK, b"ab");
        assert_ne!(a, b);
    }
}
