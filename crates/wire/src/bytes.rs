//! In-repo replacement for the external `bytes` crate.
//!
//! The workspace builds hermetically — no crates.io dependencies — so the
//! subset of the `bytes` API the suite actually uses lives here:
//!
//! * [`Bytes`]: an immutable, cheaply cloneable byte buffer backed by
//!   `Arc<Vec<u8>>` plus an offset/length window, so clones and slices are
//!   reference-count bumps, never copies. Message payloads cached by the
//!   attack meter and replayed thousands of times rely on that.
//!   `From<Vec<u8>>` adopts the vector's allocation as-is, which is how
//!   the wire encoder's `Writer::into_bytes` freezes without copying.
//! * [`RecvBuffer`]: the per-peer reassembly cursor buffer of the
//!   zero-copy receive path. Deliveries append, framing advances a read
//!   cursor, and decoded payloads are [`Bytes`] windows into the same
//!   backing allocation — the buffer compacts (the only memmove it ever
//!   does) solely when the writable tail is exhausted.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// An immutable byte buffer with cheap clones and zero-copy slicing.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    len: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies a static byte slice into a fresh buffer, as
    /// [`copy_from_slice`](Self::copy_from_slice) does: the buffer is an
    /// `Arc<Vec<u8>>`, which cannot borrow `'static` bytes.
    pub fn from_static(b: &'static [u8]) -> Self {
        Bytes::from(b.to_vec())
    }

    /// Copies a slice into a fresh buffer.
    pub fn copy_from_slice(b: &[u8]) -> Self {
        Bytes::from(b.to_vec())
    }

    /// Length of the visible window in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the visible window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a sub-window sharing the same backing allocation.
    ///
    /// # Panics
    ///
    /// Panics when the range falls outside the buffer.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        self.clone().into_slice(range)
    }

    /// [`Bytes::slice`] of a handle the caller gives up: the window
    /// narrows in place, so the reference count is neither raised nor
    /// dropped. TCP-lite hands the last segment of a send its caller's
    /// buffer this way.
    ///
    /// # Panics
    ///
    /// Panics when the range falls outside the buffer.
    pub fn into_slice(mut self, range: impl RangeBounds<usize>) -> Self {
        use std::ops::Bound;
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        // lint:allow(panic-path): documented slice() contract — callers on the decode path derive ranges from already-validated lengths
        assert!(start <= end && end <= self.len, "slice {start}..{end} out of range for Bytes of length {}", self.len);
        self.start += start;
        self.len = end - start;
        self
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.start + self.len]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            len,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(b: &[u8]) -> Self {
        Bytes::copy_from_slice(b)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

// Both buffers format as a hex prefix with an elided tail, so payloads in
// test-failure output stay readable at any size.
fn fmt_hex_prefix(bytes: &[u8], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "b\"")?;
    for b in bytes.iter().take(32) {
        write!(f, "\\x{b:02x}")?;
    }
    if bytes.len() > 32 {
        write!(f, "…+{}", bytes.len() - 32)?;
    }
    write!(f, "\"")
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_hex_prefix(self, f)
    }
}

/// Per-peer reassembly buffer for the zero-copy receive path.
///
/// Deliveries [`RecvBuffer::push`] onto the tail; framing reads the
/// unconsumed [`RecvBuffer::window`] and [`RecvBuffer::advance`]s the read
/// cursor. Decoded payloads are [`Bytes::slice`]s of the window, so they
/// share this buffer's backing allocation and cost no copy.
///
/// Buffer management never moves consumed bytes eagerly. The only moves
/// are:
///
/// * **compaction** — when an append would otherwise grow the allocation
///   and a consumed prefix exists, the unconsumed tail is shifted to the
///   front first (tail-length bytes moved, counted in
///   [`RecvBuffer::bytes_memmoved`]);
/// * **rebuild** — when payload slices from an earlier window are still
///   alive (the `Arc` is shared), the unconsumed tail is re-homed into a
///   fresh allocation so the shared bytes stay immutable.
///
/// On the steady-state path (payloads dropped by the end of each delivery
/// tick, frames consumed as they arrive) neither happens: the buffer
/// resets its cursor in place and the only copy is the unavoidable ingest
/// of the delivered bytes.
#[derive(Clone, Default)]
pub struct RecvBuffer {
    data: Arc<Vec<u8>>,
    read: usize,
    bytes_memmoved: u64,
    compactions: u64,
    rebuilds: u64,
}

impl RecvBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        RecvBuffer::default()
    }

    /// Appends delivered bytes to the writable tail.
    pub fn push(&mut self, incoming: &[u8]) {
        match Arc::get_mut(&mut self.data) {
            Some(vec) => {
                if self.read == vec.len() {
                    // Fully consumed: reset the cursor in place, zero moves.
                    vec.clear();
                    self.read = 0;
                } else if self.read > 0 && vec.len() + incoming.len() > vec.capacity() {
                    // Writable tail exhausted: compact the unconsumed
                    // suffix to the front before the Vec would grow.
                    let tail = vec.len() - self.read;
                    vec.drain(..self.read);
                    self.read = 0;
                    self.bytes_memmoved += tail as u64;
                    self.compactions += 1;
                }
                vec.extend_from_slice(incoming);
            }
            None => {
                // Payload slices of an earlier window are still alive:
                // re-home the unconsumed tail so the shared backing stays
                // immutable underneath them.
                let tail = &self.data[self.read..];
                let tail_len = tail.len();
                let mut v = Vec::with_capacity(tail_len + incoming.len());
                v.extend_from_slice(tail);
                v.extend_from_slice(incoming);
                self.bytes_memmoved += tail_len as u64;
                self.rebuilds += 1;
                self.read = 0;
                self.data = Arc::new(v);
            }
        }
    }

    /// The unconsumed region as a zero-copy [`Bytes`] window. Slices of it
    /// stay valid (and keep the backing allocation alive) after further
    /// pushes or advances.
    pub fn window(&self) -> Bytes {
        Bytes {
            data: Arc::clone(&self.data),
            start: self.read,
            len: self.data.len() - self.read,
        }
    }

    /// Marks `n` more bytes as consumed (clamped to the unconsumed length).
    pub fn advance(&mut self, n: usize) {
        self.read = (self.read + n).min(self.data.len());
    }

    /// Bytes buffered but not yet consumed by framing.
    pub fn unconsumed(&self) -> usize {
        self.data.len() - self.read
    }

    /// Whether no unconsumed bytes remain.
    pub fn is_empty(&self) -> bool {
        self.unconsumed() == 0
    }

    /// Drops all buffered bytes (framing desync / poison recovery).
    pub fn clear(&mut self) {
        match Arc::get_mut(&mut self.data) {
            Some(vec) => {
                vec.clear();
                self.read = 0;
            }
            None => {
                self.data = Arc::default();
                self.read = 0;
            }
        }
    }

    /// Total bytes moved by compactions and rebuilds — the buffer-management
    /// cost beyond the unavoidable ingest copy. The old `Vec` + per-frame
    /// tail-`to_vec` path moved O(k²) bytes per k-frame burst; this counter
    /// is what `crates/node/tests/recv_path.rs` compares against that.
    pub fn bytes_memmoved(&self) -> u64 {
        self.bytes_memmoved
    }

    /// Number of in-place compactions performed.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Number of shared-backing rebuilds performed.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }
}

impl fmt::Debug for RecvBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RecvBuffer(unconsumed={}, memmoved={}, compactions={}, rebuilds={})",
            self.unconsumed(),
            self.bytes_memmoved,
            self.compactions,
            self.rebuilds
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_allocation() {
        let a = Bytes::from(vec![1, 2, 3, 4]);
        let b = a.clone();
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_ref().as_ptr(), b.as_ref().as_ptr()));
    }

    #[test]
    fn slice_is_a_window_not_a_copy() {
        let a = Bytes::from(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let mid = a.slice(2..6);
        assert_eq!(&mid[..], &[2, 3, 4, 5]);
        assert!(std::ptr::eq(mid.as_ref().as_ptr(), a[2..].as_ptr()));
        let inner = mid.slice(1..3);
        assert_eq!(&inner[..], &[3, 4]);
        assert_eq!(a.slice(..).len(), 8);
        assert_eq!(a.slice(4..).len(), 4);
        assert_eq!(a.slice(..=3).len(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_out_of_range_panics() {
        Bytes::from(vec![1, 2, 3]).slice(1..5);
    }

    #[test]
    fn into_slice_matches_slice_on_every_range() {
        use std::ops::Bound::{self, Excluded, Included, Unbounded};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // A window that does not start at its backing's offset 0.
        let base = Bytes::from((0..12).collect::<Vec<u8>>()).slice(2..9);
        let bounds = |n: usize| [Included(n), Excluded(n), Unbounded];
        let mut panics = 0;
        for a in 0..=base.len() + 1 {
            for b in 0..=base.len() + 1 {
                for range in bounds(a)
                    .into_iter()
                    .flat_map(|s| bounds(b).map(|e| (s, e)))
                {
                    let range: (Bound<usize>, Bound<usize>) = range;
                    let shared = catch_unwind(|| base.slice(range));
                    let owned = catch_unwind(AssertUnwindSafe(|| base.clone().into_slice(range)));
                    match (shared, owned) {
                        (Ok(s), Ok(o)) => {
                            assert_eq!(s, o, "{range:?}");
                            assert!(std::ptr::eq(s.as_ptr(), o.as_ptr()), "{range:?}");
                        }
                        (Err(_), Err(_)) => panics += 1,
                        _ => panic!("slice and into_slice disagree on {range:?}"),
                    }
                }
            }
        }
        assert!(panics > 0, "no out-of-range case was exercised");
    }

    #[test]
    fn into_slice_keeps_the_handle() {
        let whole = Bytes::from(vec![1, 2, 3, 4, 5]);
        let ptr = whole.as_ptr();
        let tail = whole.into_slice(1..);
        assert_eq!(&tail[..], &[2, 3, 4, 5]);
        assert!(std::ptr::eq(tail.as_ptr(), ptr.wrapping_add(1)));
        assert_eq!(Arc::strong_count(&tail.data), 1);
    }

    #[test]
    fn equality_ignores_backing_layout() {
        let a = Bytes::from(vec![9, 9, 1, 2, 9]).slice(2..4);
        let b = Bytes::from(vec![1, 2]);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        let h = |x: &Bytes| {
            let mut s = DefaultHasher::new();
            x.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn constructors() {
        assert!(Bytes::new().is_empty());
        assert_eq!(&Bytes::from_static(b"abc")[..], b"abc");
        assert_eq!(&Bytes::copy_from_slice(&[5, 6])[..], &[5, 6]);
        assert_eq!(Bytes::from(&b"xy"[..]).len(), 2);
    }

    #[test]
    fn debug_elides_long_buffers() {
        let short = format!("{:?}", Bytes::from(vec![0xAB; 2]));
        assert_eq!(short, "b\"\\xab\\xab\"");
        let long = format!("{:?}", Bytes::from(vec![0u8; 40]));
        assert!(long.contains("…+8"), "{long}");
    }

    #[test]
    fn recv_window_slices_share_the_backing() {
        let mut rb = RecvBuffer::new();
        rb.push(&[1, 2, 3, 4, 5, 6]);
        let w = rb.window();
        assert_eq!(&w[..], &[1, 2, 3, 4, 5, 6]);
        let payload = w.slice(2..5);
        assert!(std::ptr::eq(payload.as_ref().as_ptr(), w[2..].as_ptr()));
        rb.advance(5);
        assert_eq!(rb.unconsumed(), 1);
        assert_eq!(&payload[..], &[3, 4, 5]);
        assert_eq!(rb.bytes_memmoved(), 0);
    }

    #[test]
    fn steady_state_resets_in_place_without_moves() {
        let mut rb = RecvBuffer::new();
        for round in 0u8..50 {
            rb.push(&[round; 32]);
            assert_eq!(rb.unconsumed(), 32);
            rb.advance(32);
        }
        // Every round fully consumed + windows dropped: cursor resets in
        // place, nothing is ever moved or re-homed.
        assert_eq!(rb.bytes_memmoved(), 0);
        assert_eq!(rb.compactions(), 0);
        assert_eq!(rb.rebuilds(), 0);
    }

    #[test]
    fn compaction_only_when_tail_exhausted_and_counts_moves() {
        let mut rb = RecvBuffer::new();
        rb.push(&vec![7u8; 64]);
        rb.advance(60); // 4-byte straddler left behind
        // Keep pushing until the capacity would be exceeded: the buffer
        // must compact (move only the 4 unconsumed bytes) instead of
        // growing with 60 dead bytes at the front.
        let mut pushed = 0usize;
        while rb.bytes_memmoved() == 0 && pushed < 4096 {
            rb.push(&[1u8; 16]);
            rb.advance(rb.unconsumed() - 4); // always leave a 4-byte tail
            pushed += 16;
        }
        assert_eq!(rb.compactions(), 1, "compaction never triggered");
        assert_eq!(rb.bytes_memmoved(), 4, "only the unconsumed tail moves");
        assert_eq!(rb.rebuilds(), 0);
        assert_eq!(rb.unconsumed(), 4);
    }

    #[test]
    fn live_payload_forces_rebuild_and_keeps_bytes_stable() {
        let mut rb = RecvBuffer::new();
        rb.push(&[1, 2, 3, 4]);
        let payload = rb.window().slice(0..4);
        rb.advance(4);
        // The payload keeps the Arc shared, so the next push must re-home
        // the (empty) tail rather than mutate under the payload.
        rb.push(&[5, 6]);
        assert_eq!(rb.rebuilds(), 1);
        assert_eq!(&payload[..], &[1, 2, 3, 4]);
        assert_eq!(&rb.window()[..], &[5, 6]);
        // Tail was empty, so the rebuild moved zero bytes.
        assert_eq!(rb.bytes_memmoved(), 0);
    }

    #[test]
    fn clear_discards_buffered_bytes() {
        let mut rb = RecvBuffer::new();
        rb.push(&[1, 2, 3]);
        rb.advance(1);
        rb.clear();
        assert!(rb.is_empty());
        let held = rb.window();
        rb.clear(); // shared-Arc clear path
        assert!(rb.is_empty());
        assert_eq!(held.len(), 0);
    }
}
