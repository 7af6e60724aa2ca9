//! Consensus serialization: the little-endian, `CompactSize`-prefixed format
//! every Bitcoin P2P message payload uses.
//!
//! The two traits, [`Encodable`] and [`Decodable`], mirror Bitcoin Core's
//! `Serialize`/`Unserialize`. Decoding is *strict*: trailing bytes, truncated
//! buffers, oversized allocations and non-canonical `CompactSize` encodings
//! are all errors — several ban-score rules depend on spotting exactly these
//! conditions.

use crate::bytes::{BufMut, Bytes, BytesMut};
use std::fmt;

/// Maximum payload size a node accepts (Bitcoin's `MAX_PROTOCOL_MESSAGE_LENGTH`).
pub const MAX_MESSAGE_SIZE: usize = 4_000_000;

/// Cap for any single length prefix, to avoid attacker-controlled allocations.
pub const MAX_VEC_PREALLOC: usize = 5_000;

/// An error raised while decoding a wire structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the structure was complete.
    UnexpectedEnd,
    /// A `CompactSize` used a longer encoding than necessary.
    NonCanonicalVarInt,
    /// A length prefix exceeded a protocol limit.
    OversizedLength {
        /// What was being decoded.
        what: &'static str,
        /// The claimed length.
        len: u64,
        /// The limit that was exceeded.
        max: u64,
    },
    /// A field held a value the protocol forbids.
    InvalidValue(&'static str),
    /// Payload bytes remained after the structure was fully decoded.
    TrailingBytes(usize),
    /// The command string in a message header was not printable ASCII.
    BadCommand,
    /// The declared header checksum did not match the payload.
    BadChecksum {
        /// Checksum declared in the header.
        declared: [u8; 4],
        /// Checksum computed over the payload.
        computed: [u8; 4],
    },
    /// The 4-byte network magic did not match the expected network.
    WrongMagic(u32),
    /// The command is not one of the known message types.
    UnknownCommand(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "unexpected end of data"),
            DecodeError::NonCanonicalVarInt => write!(f, "non-canonical CompactSize encoding"),
            DecodeError::OversizedLength { what, len, max } => {
                write!(f, "oversized length for {what}: {len} > {max}")
            }
            DecodeError::InvalidValue(what) => write!(f, "invalid value: {what}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            DecodeError::BadCommand => write!(f, "malformed command string"),
            DecodeError::BadChecksum { declared, computed } => write!(
                f,
                "checksum mismatch: declared {declared:02x?}, computed {computed:02x?}"
            ),
            DecodeError::WrongMagic(m) => write!(f, "wrong network magic {m:#010x}"),
            DecodeError::UnknownCommand(c) => write!(f, "unknown command {c:?}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Result alias for decoding.
pub type DecodeResult<T> = Result<T, DecodeError>;

/// A cursor over an immutable byte buffer being decoded.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reads exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEnd`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::UnexpectedEnd)?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or(DecodeError::UnexpectedEnd)?;
        self.pos = end;
        Ok(s)
    }

    /// Reads exactly `N` bytes as a fixed-size array.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEnd`] when fewer than `N` bytes remain.
    pub fn array<const N: usize>(&mut self) -> DecodeResult<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads a single byte.
    pub fn u8(&mut self) -> DecodeResult<u8> {
        let [b] = self.array()?;
        Ok(b)
    }

    /// Reads a little-endian `u16`.
    pub fn u16_le(&mut self) -> DecodeResult<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a big-endian `u16` (port numbers in `NetAddr`).
    pub fn u16_be(&mut self) -> DecodeResult<u16> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    pub fn u32_le(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64_le(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `i32`.
    pub fn i32_le(&mut self) -> DecodeResult<i32> {
        Ok(i32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `i64`.
    pub fn i64_le(&mut self) -> DecodeResult<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Reads a canonical Bitcoin `CompactSize` varint.
    ///
    /// # Errors
    ///
    /// [`DecodeError::NonCanonicalVarInt`] when a longer-than-needed form is
    /// used (consensus rejects those), [`DecodeError::UnexpectedEnd`] on
    /// truncation.
    pub fn compact_size(&mut self) -> DecodeResult<u64> {
        let tag = self.u8()?;
        match tag {
            0..=0xfc => Ok(tag as u64),
            0xfd => {
                let v = self.u16_le()? as u64;
                if v < 0xfd {
                    return Err(DecodeError::NonCanonicalVarInt);
                }
                Ok(v)
            }
            0xfe => {
                let v = self.u32_le()? as u64;
                if v <= u16::MAX as u64 {
                    return Err(DecodeError::NonCanonicalVarInt);
                }
                Ok(v)
            }
            0xff => {
                let v = self.u64_le()?;
                if v <= u32::MAX as u64 {
                    return Err(DecodeError::NonCanonicalVarInt);
                }
                Ok(v)
            }
        }
    }

    /// Reads a `CompactSize` and checks it against `max`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::OversizedLength`] when the value exceeds `max`.
    pub fn bounded_compact_size(&mut self, what: &'static str, max: u64) -> DecodeResult<u64> {
        let v = self.compact_size()?;
        if v > max {
            return Err(DecodeError::OversizedLength { what, len: v, max });
        }
        Ok(v)
    }

    /// Reads a `CompactSize`-prefixed byte string bounded by `max` bytes.
    pub fn var_bytes(&mut self, what: &'static str, max: u64) -> DecodeResult<Vec<u8>> {
        let len = self.bounded_compact_size(what, max)? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a `CompactSize`-prefixed UTF-8 string bounded by `max` bytes.
    ///
    /// Invalid UTF-8 is replaced, matching Bitcoin Core's tolerance for
    /// user-agent strings.
    pub fn var_string(&mut self, max: u64) -> DecodeResult<String> {
        let bytes = self.var_bytes("string", max)?;
        Ok(String::from_utf8_lossy(&bytes).into_owned())
    }

    /// Fails with [`DecodeError::TrailingBytes`] if any input remains.
    pub fn expect_end(&self) -> DecodeResult<()> {
        if self.remaining() != 0 {
            return Err(DecodeError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// A growable output buffer being encoded into.
#[derive(Debug, Default)]
pub struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer { buf: BytesMut::new() }
    }

    /// Creates a writer with `cap` bytes of capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Bytes {
        self.buf.freeze()
    }

    /// Consumes the writer, returning the `Vec` it encoded into (no copy).
    pub fn into_vec(self) -> Vec<u8> {
        self.buf.into_vec()
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.put_slice(b);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16_le(&mut self, v: u16) {
        self.buf.put_u16_le(v);
    }

    /// Appends a big-endian `u16`.
    pub fn u16_be(&mut self, v: u16) {
        self.buf.put_u16(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32_le(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Appends a little-endian `u64`.
    pub fn u64_le(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Appends a little-endian `i32`.
    pub fn i32_le(&mut self, v: i32) {
        self.buf.put_i32_le(v);
    }

    /// Appends a little-endian `i64`.
    pub fn i64_le(&mut self, v: i64) {
        self.buf.put_i64_le(v);
    }

    /// Appends a canonical `CompactSize`.
    pub fn compact_size(&mut self, v: u64) {
        match v {
            // lint:allow(narrowing-cast): each arm's range pattern proves the cast lossless
            0..=0xfc => self.u8(v as u8),
            0xfd..=0xffff => {
                self.u8(0xfd);
                // lint:allow(narrowing-cast): range pattern bounds v at 0xffff
                self.u16_le(v as u16);
            }
            0x1_0000..=0xffff_ffff => {
                self.u8(0xfe);
                // lint:allow(narrowing-cast): range pattern bounds v at 0xffff_ffff
                self.u32_le(v as u32);
            }
            _ => {
                self.u8(0xff);
                self.u64_le(v);
            }
        }
    }

    /// Appends a protocol bool as one byte (`0`/`1`).
    pub fn bool_flag(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a `CompactSize`-prefixed byte string.
    pub fn var_bytes(&mut self, b: &[u8]) {
        self.compact_size(b.len() as u64);
        self.bytes(b);
    }

    /// Appends a `CompactSize`-prefixed UTF-8 string.
    pub fn var_string(&mut self, s: &str) {
        self.var_bytes(s.as_bytes());
    }
}

/// A type with a canonical Bitcoin consensus encoding.
pub trait Encodable {
    /// Writes `self` into `w`.
    fn encode(&self, w: &mut Writer);

    /// Convenience: encodes into a fresh byte vector.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_vec()
    }

    /// Length of the encoding in bytes.
    fn encoded_len(&self) -> usize {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.len()
    }
}

/// A type decodable from its canonical Bitcoin consensus encoding.
pub trait Decodable: Sized {
    /// Reads one value from `r`.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] raised by malformed input.
    fn decode(r: &mut Reader<'_>) -> DecodeResult<Self>;

    /// Decodes a value that must consume the entire buffer.
    ///
    /// # Errors
    ///
    /// In addition to decode errors, [`DecodeError::TrailingBytes`] when the
    /// buffer is longer than the encoding.
    fn decode_all(buf: &[u8]) -> DecodeResult<Self> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

/// Decodes a `CompactSize`-prefixed list with an element-count bound.
///
/// # Errors
///
/// [`DecodeError::OversizedLength`] when the list claims more than `max`
/// elements; element decode errors are propagated.
pub fn decode_vec<T: Decodable>(
    r: &mut Reader<'_>,
    what: &'static str,
    max: u64,
) -> DecodeResult<Vec<T>> {
    let n = r.bounded_compact_size(what, max)? as usize;
    let mut out = Vec::with_capacity(n.min(MAX_VEC_PREALLOC));
    for _ in 0..n {
        out.push(T::decode(r)?);
    }
    Ok(out)
}

/// Encodes a list as `CompactSize` count followed by the elements.
pub fn encode_vec<T: Encodable>(w: &mut Writer, items: &[T]) {
    w.compact_size(items.len() as u64);
    for it in items {
        it.encode(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_size_roundtrip_boundaries() {
        for v in [
            0u64,
            1,
            0xfc,
            0xfd,
            0xfffe,
            0xffff,
            0x1_0000,
            0xffff_ffff,
            0x1_0000_0000,
            u64::MAX,
        ] {
            let mut w = Writer::new();
            w.compact_size(v);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.compact_size().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn compact_size_sizes() {
        let sz = |v: u64| {
            let mut w = Writer::new();
            w.compact_size(v);
            w.len()
        };
        assert_eq!(sz(0xfc), 1);
        assert_eq!(sz(0xfd), 3);
        assert_eq!(sz(0xffff), 3);
        assert_eq!(sz(0x1_0000), 5);
        assert_eq!(sz(0x1_0000_0000), 9);
    }

    #[test]
    fn non_canonical_varint_rejected() {
        // 0xfd prefix encoding a value < 0xfd.
        let mut r = Reader::new(&[0xfd, 0x01, 0x00]);
        assert_eq!(r.compact_size(), Err(DecodeError::NonCanonicalVarInt));
        // 0xfe prefix encoding a value that fits in u16.
        let mut r = Reader::new(&[0xfe, 0xff, 0xff, 0x00, 0x00]);
        assert_eq!(r.compact_size(), Err(DecodeError::NonCanonicalVarInt));
        // 0xff prefix encoding a value that fits in u32.
        let mut r = Reader::new(&[0xff, 1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(r.compact_size(), Err(DecodeError::NonCanonicalVarInt));
    }

    #[test]
    fn truncated_varint() {
        let mut r = Reader::new(&[0xfd, 0x01]);
        assert_eq!(r.compact_size(), Err(DecodeError::UnexpectedEnd));
    }

    #[test]
    fn bounded_compact_size_enforces_max() {
        let mut w = Writer::new();
        w.compact_size(1001);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let err = r.bounded_compact_size("addr", 1000).unwrap_err();
        assert!(matches!(err, DecodeError::OversizedLength { len: 1001, max: 1000, .. }));
    }

    #[test]
    fn var_string_roundtrip() {
        let mut w = Writer::new();
        w.var_string("/Satoshi:0.20.0/");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.var_string(256).unwrap(), "/Satoshi:0.20.0/");
    }

    #[test]
    fn integer_endianness() {
        let mut w = Writer::new();
        w.u16_be(8333);
        w.u16_le(8333);
        let b = w.into_bytes();
        assert_eq!(&b[..2], &[0x20, 0x8d]);
        assert_eq!(&b[2..], &[0x8d, 0x20]);
    }

    #[test]
    fn expect_end_reports_trailing() {
        let mut r = Reader::new(&[1, 2, 3]);
        r.u8().unwrap();
        assert_eq!(r.expect_end(), Err(DecodeError::TrailingBytes(2)));
    }

    #[test]
    fn reader_take_past_end() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.take(3).unwrap_err(), DecodeError::UnexpectedEnd);
        // Failed take consumes nothing.
        assert_eq!(r.remaining(), 2);
    }
}
