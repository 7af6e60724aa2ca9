//! Per-peer connection state.

use btc_netsim::packet::SockAddr;
use btc_netsim::tcp::ConnId;
use btc_netsim::time::Nanos;
use btc_wire::bloom::BloomFilter;
use btc_wire::bytes::RecvBuffer;
use btc_wire::message::VersionMessage;
use btc_wire::types::Hash256;

/// State kept for one connected peer.
#[derive(Clone, Debug)]
pub struct Peer {
    /// Transport connection id.
    pub conn: ConnId,
    /// The peer's connection identifier — what gets banned.
    pub addr: SockAddr,
    /// Whether the peer connected to us.
    pub inbound: bool,
    /// Reassembly cursor buffer for partial frames. Deliveries append,
    /// framing advances the read cursor, payloads borrow the backing
    /// allocation — see the zero-copy receive path in `node/recv.rs`.
    pub recv_buf: RecvBuffer,
    /// The peer's `VERSION`, once received.
    pub version: Option<VersionMessage>,
    /// Whether the peer's `VERACK` arrived (handshake complete when both
    /// this and `version` are set).
    pub got_verack: bool,
    /// Count of non-connecting `HEADERS` messages (the 10-strike rule).
    pub unconnecting_headers: u32,
    /// BIP37 filter, if loaded.
    pub filter: Option<BloomFilter>,
    /// BIP130: announce blocks via `headers`.
    pub prefers_headers: bool,
    /// BIP133 fee filter.
    pub fee_filter: i64,
    /// BIP152 high-bandwidth mode requested.
    pub cmpct_announce: bool,
    /// The compact block awaiting a `BLOCKTXN` answer, with its hash. Only
    /// the newest is kept, so a peer cannot pin memory by sending compact
    /// blocks it never completes; boxed, so the common peer that never
    /// sends one does not carry its size inline.
    pub pending_compact: Option<Box<(Hash256, btc_wire::compact::CompactBlock)>>,
    /// Messages received from this peer.
    pub messages_received: u64,
    /// When the transport connection was established (drives the
    /// handshake-timeout eviction).
    pub connected_at: Nanos,
    /// Outstanding keepalive ping: `(nonce, sent_at)`. Cleared by a
    /// matching `PONG`; drives the ping-timeout eviction.
    pub ping_pending: Option<(u64, Nanos)>,
}

impl Peer {
    /// Creates state for a fresh connection.
    pub fn new(conn: ConnId, addr: SockAddr, inbound: bool) -> Self {
        Peer {
            conn,
            addr,
            inbound,
            recv_buf: RecvBuffer::new(),
            version: None,
            got_verack: false,
            unconnecting_headers: 0,
            filter: None,
            prefers_headers: false,
            fee_filter: 0,
            cmpct_announce: false,
            pending_compact: None,
            messages_received: 0,
            connected_at: 0,
            ping_pending: None,
        }
    }

    /// Whether the version handshake finished.
    pub fn handshake_complete(&self) -> bool {
        self.version.is_some() && self.got_verack
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_requires_version_and_verack() {
        let mut p = Peer::new(ConnId(1), SockAddr::new([1, 2, 3, 4], 8333), true);
        assert!(!p.handshake_complete());
        p.version = Some(VersionMessage::new(
            Default::default(),
            Default::default(),
            1,
        ));
        assert!(!p.handshake_complete());
        p.got_verack = true;
        assert!(p.handshake_complete());
    }
}
