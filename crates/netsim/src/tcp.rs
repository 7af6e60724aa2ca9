//! A TCP-lite transport: three-way handshake, sequence/acknowledgment
//! tracking, transport checksums and resets — enough state that the paper's
//! attacks behave as they do against real TCP:
//!
//! * A **spoofed pre-connection** attacker only needs to forge source
//!   addresses (no live state to learn).
//! * A **post-connection injector** must learn the live `seq`/`ack` of the
//!   victim connection by sniffing, then forge a segment whose checksum
//!   covers the spoofed 4-tuple (Algorithm 1 of the paper).
//! * A segment with a bad checksum or stale sequence number is dropped *by
//!   the transport layer*, before any application-layer misbehavior
//!   tracking — which is what lets bogus messages forgo the ban score.
//!
//! ## Reliable mode
//!
//! By default the stack is *unreliable*: no data ACKs, no retransmission —
//! the exact fire-and-forget transport the clean-network scenarios were
//! calibrated against. When the simulator injects faults it switches the
//! stack to **reliable mode** ([`TcpStack::set_reliable`]): every
//! handshake and data segment is queued for go-back-N retransmission on a
//! fixed RTO ([`DEFAULT_RTO`]), receivers answer data with cumulative
//! ACKs, duplicate segments are re-ACKed instead of poisoning `rcv_nxt`,
//! and a connection that exhausts [`MAX_RETRIES`] aborts with
//! [`CloseReason::Timeout`]. Socket tables are `BTreeMap`s so the
//! retransmission scan order is deterministic.
//!
//! ## Buffer ownership
//!
//! A payload has one owner per hop. [`TcpStack::send_bytes_into`] gives
//! its last segment the caller's [`Bytes`] itself, so a send of at most
//! one [`MSS`] moves the frame onto the wire with no refcount traffic, and
//! [`TcpStack::handle_segment_into`] takes the arriving segment by value
//! and moves its payload into [`TcpEvent::Data`].

use crate::packet::{
    make_segment, tcp_checksum, Packet, SockAddr, TcpFlags, TcpSegment,
};
use crate::time::{Nanos, MILLIS};
use btc_wire::bytes::Bytes;
// lint:allow(unordered-map): HashSet imported for the membership-only port sets below
use std::collections::{BTreeMap, HashSet, VecDeque};

/// Maximum payload bytes per segment.
pub const MSS: usize = 1460;

/// Fixed retransmission timeout of the reliable mode. Linux's floor
/// (200 ms) rather than something RTT-proportional: the testbed RTT is
/// ~200 µs, and a realistic RTO floor is what makes loss *hurt* — which
/// is precisely the drift the fault matrix measures.
pub const DEFAULT_RTO: Nanos = 200 * MILLIS;

/// Retransmission attempts before the connection aborts with
/// [`CloseReason::Timeout`]. With [`DEFAULT_RTO`] a connection survives
/// ~1.6 s of total blackout — longer than a churn flap, shorter than a
/// scheduled partition.
pub const MAX_RETRIES: u32 = 8;

/// `a <= b` in sequence space (RFC 1982 style wrap-safe comparison).
fn seq_le(a: u32, b: u32) -> bool {
    a == b || b.wrapping_sub(a) < 0x8000_0000
}

/// `a < b` in sequence space.
fn seq_lt(a: u32, b: u32) -> bool {
    a != b && seq_le(a, b)
}

/// First ephemeral port (RFC 6335 dynamic range — the range the paper's
/// full-IP Defamation sweep must exhaust).
pub const EPHEMERAL_START: u16 = 49152;

/// A host-local connection identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ConnId(pub u64);

/// Why a connection ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CloseReason {
    /// The remote side sent FIN.
    RemoteFin,
    /// The remote side sent RST.
    RemoteReset,
    /// We closed it locally.
    LocalClose,
    /// Retransmission gave up: [`MAX_RETRIES`] RTOs expired without an
    /// acknowledgment (reliable mode only).
    Timeout,
}

/// Connection state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TcpState {
    SynSent,
    SynReceived,
    Established,
}

#[derive(Clone, Debug)]
struct Socket {
    id: ConnId,
    state: TcpState,
    /// Next sequence number we will send.
    snd_nxt: u32,
    /// Next sequence number we expect to receive.
    rcv_nxt: u32,
    inbound: bool,
    /// Unacknowledged segments awaiting retransmission (reliable mode):
    /// `(end_seq, packet)`, oldest first. A cumulative ACK covering
    /// `end_seq` retires the entry.
    rtx: VecDeque<(u32, Packet)>,
    /// When the oldest unacknowledged segment times out.
    rto_at: Option<Nanos>,
    /// Consecutive expiries without forward progress.
    retries: u32,
}

impl Socket {
    fn new(id: ConnId, state: TcpState, snd_nxt: u32, rcv_nxt: u32, inbound: bool) -> Self {
        Socket {
            id,
            state,
            snd_nxt,
            rcv_nxt,
            inbound,
            rtx: VecDeque::new(),
            rto_at: None,
            retries: 0,
        }
    }

    /// Sends `chunk` as this socket's next data segment from `local` to
    /// `remote`: stamps it at `snd_nxt`, advances `snd_nxt` past it,
    /// queues it for retransmission when `reliable`, and appends it to
    /// `out`.
    fn push_data(
        &mut self,
        (local, remote): (SockAddr, SockAddr),
        chunk: Bytes,
        reliable: bool,
        out: &mut Vec<Packet>,
    ) {
        let len = chunk.len() as u32;
        let seg = make_segment(
            local,
            remote,
            self.snd_nxt,
            self.rcv_nxt,
            TcpFlags::ACK,
            chunk,
        );
        self.snd_nxt = self.snd_nxt.wrapping_add(len);
        if reliable {
            self.rtx.push_back((self.snd_nxt, seg.clone()));
        }
        out.push(seg);
    }
}

/// An event surfaced to the application layer.
#[derive(Clone, Debug, PartialEq)]
pub enum TcpEvent {
    /// Handshake completed.
    Connected {
        /// Connection id.
        id: ConnId,
        /// Remote socket address.
        peer: SockAddr,
        /// Whether the remote side initiated.
        inbound: bool,
    },
    /// In-order data arrived.
    Data {
        /// Connection id.
        id: ConnId,
        /// Remote socket address.
        peer: SockAddr,
        /// Payload.
        payload: Bytes,
    },
    /// The connection ended.
    Closed {
        /// Connection id.
        id: ConnId,
        /// Remote socket address.
        peer: SockAddr,
        /// Why.
        reason: CloseReason,
    },
    /// An outbound connect was refused (RST to our SYN).
    ConnectFailed {
        /// The address we tried to reach.
        dst: SockAddr,
    },
}

/// Drop counters — the transport-layer silent drops the paper's vectors
/// exploit are observable here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TcpDropStats {
    /// Segments with a wrong transport checksum.
    pub bad_checksum: u64,
    /// Segments whose sequence number didn't match `rcv_nxt`.
    pub bad_seq: u64,
    /// Segments for which no socket existed.
    pub no_socket: u64,
    /// SYNs refused by the application accept hook.
    pub refused_accept: u64,
    /// Duplicate already-delivered segments discarded and re-ACKed
    /// (reliable mode: the retransmit of a segment whose ACK was lost).
    pub stale_seq: u64,
    /// Segments retransmitted after an RTO expiry (reliable mode).
    pub retransmits: u64,
    /// Connections aborted after [`MAX_RETRIES`] (reliable mode).
    pub timeouts: u64,
}

/// The per-host TCP-lite stack.
#[derive(Debug)]
pub struct TcpStack {
    local_ip: [u8; 4],
    // lint:allow(unordered-map): membership-only (contains/insert/remove); never iterated
    listeners: HashSet<u16>,
    // BTreeMaps, not HashMaps: the retransmission poll scans sockets in
    // key order, which must not depend on a per-process RandomState.
    socks: BTreeMap<(SockAddr, SockAddr), Socket>,
    routes: BTreeMap<ConnId, (SockAddr, SockAddr)>,
    next_id: u64,
    next_ephemeral: u16,
    // lint:allow(unordered-map): membership-only (contains/insert/remove); never iterated
    used_ports: HashSet<u16>,
    isn_counter: u32,
    reliable: bool,
    rto: Nanos,
    /// Virtual time mirror, refreshed by the simulator before each call.
    now: Nanos,
    /// Drop statistics.
    pub drops: TcpDropStats,
}

impl TcpStack {
    /// Creates a stack for a host at `local_ip`.
    pub fn new(local_ip: [u8; 4]) -> Self {
        TcpStack {
            local_ip,
            // lint:allow(unordered-map): membership-only port set
            listeners: HashSet::new(),
            socks: BTreeMap::new(),
            routes: BTreeMap::new(),
            next_id: 1,
            next_ephemeral: EPHEMERAL_START,
            // lint:allow(unordered-map): membership-only port set
            used_ports: HashSet::new(),
            isn_counter: 0x1000,
            reliable: false,
            rto: DEFAULT_RTO,
            now: 0,
            drops: TcpDropStats::default(),
        }
    }

    /// Switches reliable mode (ACKs + retransmission) on or off. Flip it
    /// before traffic flows; segments sent earlier are not tracked.
    pub fn set_reliable(&mut self, on: bool) {
        self.reliable = on;
    }

    /// Updates the stack's virtual-time mirror. The simulator calls this
    /// before `handle_segment` / app callbacks / [`TcpStack::poll`].
    pub fn set_now(&mut self, now: Nanos) {
        self.now = now;
    }

    /// Starts listening on `port`.
    pub fn listen(&mut self, port: u16) {
        self.listeners.insert(port);
    }

    /// The remote address of `id`, if open.
    pub fn peer_of(&self, id: ConnId) -> Option<SockAddr> {
        self.routes.get(&id).map(|(_, remote)| *remote)
    }

    /// The local address of `id`, if open.
    pub fn local_of(&self, id: ConnId) -> Option<SockAddr> {
        self.routes.get(&id).map(|(local, _)| *local)
    }

    fn alloc_ephemeral(&mut self) -> u16 {
        for _ in 0..u16::MAX {
            let p = self.next_ephemeral;
            self.next_ephemeral = if p == u16::MAX {
                EPHEMERAL_START
            } else {
                p + 1
            };
            if !self.used_ports.contains(&p) {
                self.used_ports.insert(p);
                return p;
            }
        }
        panic!("ephemeral port space exhausted");
    }

    fn next_isn(&mut self) -> u32 {
        self.isn_counter = self.isn_counter.wrapping_add(0x0001_0001);
        self.isn_counter
    }

    /// Initiates a connection to `dst` from an ephemeral local port.
    /// Returns the new connection id and the SYN to transmit.
    pub fn connect(&mut self, dst: SockAddr) -> (ConnId, Packet) {
        let port = self.alloc_ephemeral();
        self.connect_from(port, dst)
            .expect("fresh ephemeral port can't collide")
    }

    /// Initiates a connection from a chosen local `port` (the serial-Sybil
    /// attack picks specific ports). Returns `None` when that 4-tuple is
    /// already in use.
    pub fn connect_from(&mut self, port: u16, dst: SockAddr) -> Option<(ConnId, Packet)> {
        let local = SockAddr::new(self.local_ip, port);
        let key = (local, dst);
        if self.socks.contains_key(&key) {
            return None;
        }
        self.used_ports.insert(port);
        let id = ConnId(self.next_id);
        self.next_id += 1;
        let isn = self.next_isn();
        let mut sock = Socket::new(id, TcpState::SynSent, isn.wrapping_add(1), 0, false);
        let syn = make_segment(local, dst, isn, 0, TcpFlags::SYN, Bytes::new());
        if self.reliable {
            // A SYN occupies one sequence number: acked by isn+1.
            sock.rtx.push_back((isn.wrapping_add(1), syn.clone()));
            sock.rto_at = Some(self.now + self.rto);
        }
        self.socks.insert(key, sock);
        self.routes.insert(id, key);
        Some((id, syn))
    }

    /// Queues application data on `id`. Returns the segments to transmit
    /// (split at [`MSS`]), or `None` if the connection is not established.
    /// Copies `data` once; [`TcpStack::send_bytes`] does the rest.
    pub fn send(&mut self, id: ConnId, data: &[u8]) -> Option<Vec<Packet>> {
        self.send_bytes(id, Bytes::copy_from_slice(data))
    }

    /// [`TcpStack::send`] without the copy: each segment's payload is a
    /// window into `data`'s one allocation, which the segments (and the
    /// retransmit queue) share.
    pub fn send_bytes(&mut self, id: ConnId, data: Bytes) -> Option<Vec<Packet>> {
        let mut out = Vec::with_capacity(data.len().div_ceil(MSS));
        self.send_bytes_into(id, data, &mut out).then_some(out)
    }

    /// [`TcpStack::send_bytes`] into a caller-owned buffer: appends the
    /// segments to `out` and returns `false` (appending nothing) if the
    /// connection is not established. The simulator sends this way into
    /// its reused outbox, so a send allocates nothing. Every segment but
    /// the last is a [`Bytes::slice`] of `data`; the last one is `data`
    /// itself, narrowed by [`Bytes::into_slice`], so a frame of at most
    /// one [`MSS`] travels in the caller's handle with no refcount traffic.
    pub fn send_bytes_into(&mut self, id: ConnId, data: Bytes, out: &mut Vec<Packet>) -> bool {
        let Some(&key) = self.routes.get(&id) else {
            return false;
        };
        let Some(sock) = self.socks.get_mut(&key) else {
            return false;
        };
        if sock.state != TcpState::Established {
            return false;
        }
        let mut off = 0;
        while data.len() - off > MSS {
            sock.push_data(key, data.slice(off..off + MSS), self.reliable, out);
            off += MSS;
        }
        if off < data.len() {
            sock.push_data(key, data.into_slice(off..), self.reliable, out);
        }
        if self.reliable && sock.rto_at.is_none() && !sock.rtx.is_empty() {
            sock.rto_at = Some(self.now + self.rto);
        }
        true
    }

    /// Closes `id`, producing an RST for the peer (abortive close, which is
    /// what Bitcoin Core's ban path effectively does).
    pub fn close(&mut self, id: ConnId) -> Option<Packet> {
        let key = self.routes.remove(&id)?;
        let sock = self.socks.remove(&key)?;
        let (local, remote) = key;
        self.used_ports.remove(&local.port);
        Some(make_segment(
            local,
            remote,
            sock.snd_nxt,
            sock.rcv_nxt,
            TcpFlags::RST,
            Bytes::new(),
        ))
    }

    /// Current `(snd_nxt, rcv_nxt)` of a connection — test/diagnostic use.
    pub fn seq_state(&self, id: ConnId) -> Option<(u32, u32)> {
        let key = self.routes.get(&id)?;
        let s = self.socks.get(key)?;
        Some((s.snd_nxt, s.rcv_nxt))
    }

    /// Processes an arriving segment addressed to this host.
    ///
    /// `accept` is consulted on new inbound SYNs; returning `false` refuses
    /// the connection with an RST (the ban-list check point).
    ///
    /// Returns app events and reply packets. Borrows `seg` and clones it
    /// for [`TcpStack::handle_segment_into`].
    pub fn handle_segment(
        &mut self,
        src: SockAddr,
        dst: SockAddr,
        seg: &TcpSegment,
        accept: &mut dyn FnMut(SockAddr) -> bool,
    ) -> (Vec<TcpEvent>, Vec<Packet>) {
        let mut events = Vec::new();
        let mut replies = Vec::new();
        self.handle_segment_into(src, dst, seg.clone(), accept, &mut events, &mut replies);
        (events, replies)
    }

    /// [`TcpStack::handle_segment`] into caller-owned buffers: appends the
    /// app events to `events` and the reply packets to `replies`. The
    /// simulator keeps one pair per region and drains it after every
    /// delivery, so a delivered segment allocates nothing. `seg` is taken
    /// by value: accepted data moves its payload into
    /// [`TcpEvent::Data`], with no refcount traffic.
    pub fn handle_segment_into(
        &mut self,
        src: SockAddr,
        dst: SockAddr,
        seg: TcpSegment,
        accept: &mut dyn FnMut(SockAddr) -> bool,
        events: &mut Vec<TcpEvent>,
        replies: &mut Vec<Packet>,
    ) {
        // Transport checksum first: a forged segment that fails this is
        // dropped with no application-visible trace.
        let expect = tcp_checksum(src, dst, seg.seq, seg.ack, seg.flags, &seg.payload);
        if expect != seg.checksum {
            self.drops.bad_checksum += 1;
            return;
        }
        let key = (dst, src);
        if let Some(sock) = self.socks.get_mut(&key) {
            if self.reliable && seg.flags.has(TcpFlags::ACK) {
                // Cumulative acknowledgment: retire every retransmit
                // entry the ack number covers.
                let mut advanced = false;
                while let Some((end, _)) = sock.rtx.front() {
                    if seq_le(*end, seg.ack) {
                        sock.rtx.pop_front();
                        advanced = true;
                    } else {
                        break;
                    }
                }
                if advanced {
                    sock.retries = 0;
                    sock.rto_at = if sock.rtx.is_empty() {
                        None
                    } else {
                        Some(self.now + self.rto)
                    };
                }
            }
            match sock.state {
                TcpState::SynSent => {
                    if seg.flags.has(TcpFlags::SYN | TcpFlags::ACK) {
                        sock.rcv_nxt = seg.seq.wrapping_add(1);
                        sock.state = TcpState::Established;
                        let id = sock.id;
                        let (snd, rcv) = (sock.snd_nxt, sock.rcv_nxt);
                        replies.push(make_segment(dst, src, snd, rcv, TcpFlags::ACK, Bytes::new()));
                        events.push(TcpEvent::Connected {
                            id,
                            peer: src,
                            inbound: false,
                        });
                    } else if seg.flags.has(TcpFlags::RST) {
                        let id = sock.id;
                        self.socks.remove(&key);
                        self.routes.remove(&id);
                        self.used_ports.remove(&dst.port);
                        events.push(TcpEvent::ConnectFailed { dst: src });
                    }
                }
                TcpState::SynReceived => {
                    if seg.flags.has(TcpFlags::RST) {
                        let id = sock.id;
                        self.socks.remove(&key);
                        self.routes.remove(&id);
                        return;
                    }
                    if seg.flags.has(TcpFlags::ACK) {
                        sock.state = TcpState::Established;
                        let id = sock.id;
                        events.push(TcpEvent::Connected {
                            id,
                            peer: src,
                            inbound: true,
                        });
                        // Piggybacked data on the final handshake ACK.
                        if !seg.payload.is_empty() {
                            if seg.seq == sock.rcv_nxt {
                                sock.rcv_nxt = sock.rcv_nxt.wrapping_add(seg.payload.len() as u32);
                                let (snd, rcv) = (sock.snd_nxt, sock.rcv_nxt);
                                events.push(TcpEvent::Data {
                                    id,
                                    peer: src,
                                    payload: seg.payload,
                                });
                                if self.reliable {
                                    replies.push(make_segment(
                                        dst,
                                        src,
                                        snd,
                                        rcv,
                                        TcpFlags::ACK,
                                        Bytes::new(),
                                    ));
                                }
                            } else {
                                let (snd, rcv) = (sock.snd_nxt, sock.rcv_nxt);
                                if self.reliable && seq_lt(seg.seq, rcv) {
                                    self.drops.stale_seq += 1;
                                } else {
                                    self.drops.bad_seq += 1;
                                }
                                if self.reliable {
                                    // Re-ACK so the sender resynchronizes.
                                    replies.push(make_segment(
                                        dst,
                                        src,
                                        snd,
                                        rcv,
                                        TcpFlags::ACK,
                                        Bytes::new(),
                                    ));
                                }
                            }
                        }
                    }
                }
                TcpState::Established => {
                    if seg.flags.has(TcpFlags::RST) {
                        let id = sock.id;
                        self.socks.remove(&key);
                        self.routes.remove(&id);
                        self.used_ports.remove(&dst.port);
                        events.push(TcpEvent::Closed {
                            id,
                            peer: src,
                            reason: CloseReason::RemoteReset,
                        });
                    } else if seg.flags.has(TcpFlags::FIN) {
                        let id = sock.id;
                        let (snd, rcv) = (sock.snd_nxt, sock.rcv_nxt.wrapping_add(1));
                        self.socks.remove(&key);
                        self.routes.remove(&id);
                        self.used_ports.remove(&dst.port);
                        replies.push(make_segment(dst, src, snd, rcv, TcpFlags::ACK, Bytes::new()));
                        events.push(TcpEvent::Closed {
                            id,
                            peer: src,
                            reason: CloseReason::RemoteFin,
                        });
                    } else if seg.flags.has(TcpFlags::SYN) {
                        // A retransmitted SYN|ACK: our final handshake ACK
                        // was lost — repeat it (reliable mode only; the
                        // unreliable stack never retransmits one).
                        if self.reliable {
                            let (snd, rcv) = (sock.snd_nxt, sock.rcv_nxt);
                            replies.push(make_segment(
                                dst,
                                src,
                                snd,
                                rcv,
                                TcpFlags::ACK,
                                Bytes::new(),
                            ));
                        }
                    } else if !seg.payload.is_empty() {
                        // Strict in-order delivery: the injection attack
                        // must hit rcv_nxt exactly; a stale real segment
                        // after a successful injection is silently dropped.
                        if seg.seq == sock.rcv_nxt {
                            sock.rcv_nxt = sock.rcv_nxt.wrapping_add(seg.payload.len() as u32);
                            let (id, snd, rcv) = (sock.id, sock.snd_nxt, sock.rcv_nxt);
                            events.push(TcpEvent::Data {
                                id,
                                peer: src,
                                payload: seg.payload,
                            });
                            if self.reliable {
                                replies.push(make_segment(
                                    dst,
                                    src,
                                    snd,
                                    rcv,
                                    TcpFlags::ACK,
                                    Bytes::new(),
                                ));
                            }
                        } else {
                            let (snd, rcv) = (sock.snd_nxt, sock.rcv_nxt);
                            if self.reliable && seq_lt(seg.seq, rcv) {
                                self.drops.stale_seq += 1;
                            } else {
                                self.drops.bad_seq += 1;
                            }
                            if self.reliable {
                                // Duplicate or out-of-window data: re-ACK
                                // our cumulative position (go-back-N).
                                replies.push(make_segment(
                                    dst,
                                    src,
                                    snd,
                                    rcv,
                                    TcpFlags::ACK,
                                    Bytes::new(),
                                ));
                            }
                        }
                    }
                }
            }
            return;
        }
        // No socket: maybe a new inbound connection.
        if seg.flags.has(TcpFlags::SYN) && !seg.flags.has(TcpFlags::ACK) {
            if self.listeners.contains(&dst.port) {
                if !accept(src) {
                    self.drops.refused_accept += 1;
                    replies.push(make_segment(
                        dst,
                        src,
                        0,
                        seg.seq.wrapping_add(1),
                        TcpFlags::RST,
                        Bytes::new(),
                    ));
                    return;
                }
                let id = ConnId(self.next_id);
                self.next_id += 1;
                let isn = self.next_isn();
                let mut sock = Socket::new(
                    id,
                    TcpState::SynReceived,
                    isn.wrapping_add(1),
                    seg.seq.wrapping_add(1),
                    true,
                );
                let synack = make_segment(
                    dst,
                    src,
                    isn,
                    seg.seq.wrapping_add(1),
                    TcpFlags::SYN | TcpFlags::ACK,
                    Bytes::new(),
                );
                if self.reliable {
                    sock.rtx.push_back((isn.wrapping_add(1), synack.clone()));
                    sock.rto_at = Some(self.now + self.rto);
                }
                self.socks.insert(key, sock);
                self.routes.insert(id, key);
                replies.push(synack);
            } else {
                // Connection refused.
                replies.push(make_segment(
                    dst,
                    src,
                    0,
                    seg.seq.wrapping_add(1),
                    TcpFlags::RST,
                    Bytes::new(),
                ));
            }
            return;
        }
        if !seg.flags.has(TcpFlags::RST) {
            self.drops.no_socket += 1;
        }
    }

    /// Whether `id` is established.
    pub fn is_established(&self, id: ConnId) -> bool {
        self.routes
            .get(&id)
            .and_then(|k| self.socks.get(k))
            .map(|s| s.state == TcpState::Established)
            .unwrap_or(false)
    }

    /// Whether `id` was accepted inbound.
    pub fn is_inbound(&self, id: ConnId) -> bool {
        self.routes
            .get(&id)
            .and_then(|k| self.socks.get(k))
            .map(|s| s.inbound)
            .unwrap_or(false)
    }

    /// The earliest retransmission deadline across all sockets, if any
    /// (always `None` in unreliable mode, where no socket sets one; the
    /// simulator does not ask an unreliable host).
    pub fn next_deadline(&self) -> Option<Nanos> {
        self.socks.values().filter_map(|s| s.rto_at).min()
    }

    /// Fires every expired retransmission timer (reliable mode): due
    /// sockets retransmit their whole unacknowledged window and re-arm;
    /// sockets out of retries abort with [`CloseReason::Timeout`] (or
    /// [`TcpEvent::ConnectFailed`] while still in the handshake).
    ///
    /// Call with [`TcpStack::set_now`] refreshed. Returns app events and
    /// the segments to (re)transmit.
    pub fn poll(&mut self) -> (Vec<TcpEvent>, Vec<Packet>) {
        let mut events = Vec::new();
        let mut replies = Vec::new();
        if !self.reliable {
            return (events, replies);
        }
        let now = self.now;
        let due: Vec<(SockAddr, SockAddr)> = self
            .socks
            .iter()
            .filter(|(_, s)| s.rto_at.is_some_and(|t| t <= now))
            .map(|(k, _)| *k)
            .collect();
        for key in due {
            let Some(sock) = self.socks.get_mut(&key) else {
                continue;
            };
            if sock.retries >= MAX_RETRIES {
                let (id, state) = (sock.id, sock.state);
                self.socks.remove(&key);
                self.routes.remove(&id);
                self.used_ports.remove(&key.0.port);
                self.drops.timeouts += 1;
                if state == TcpState::SynSent {
                    events.push(TcpEvent::ConnectFailed { dst: key.1 });
                } else {
                    events.push(TcpEvent::Closed {
                        id,
                        peer: key.1,
                        reason: CloseReason::Timeout,
                    });
                }
            } else {
                sock.retries += 1;
                sock.rto_at = Some(now + self.rto);
                let n = sock.rtx.len() as u64;
                replies.extend(sock.rtx.iter().map(|(_, p)| p.clone()));
                self.drops.retransmits += n;
            }
        }
        (events, replies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBody;

    fn sa(last: u8, port: u16) -> SockAddr {
        SockAddr::new([10, 0, 0, last], port)
    }

    /// Drives a full handshake between two stacks; returns (client, server,
    /// client_conn, server_conn).
    fn establish() -> (TcpStack, TcpStack, ConnId, ConnId) {
        establish_with(false)
    }

    /// [`establish`] with both stacks in reliable mode when `reliable`.
    fn establish_with(reliable: bool) -> (TcpStack, TcpStack, ConnId, ConnId) {
        let mut client = TcpStack::new([10, 0, 0, 1]);
        let mut server = TcpStack::new([10, 0, 0, 2]);
        client.set_reliable(reliable);
        server.set_reliable(reliable);
        server.listen(8333);
        let dst = sa(2, 8333);
        let (cid, syn) = client.connect(dst);
        let PacketBody::Tcp(syn_seg) = &syn.body else { panic!() };
        let (ev, replies) = server.handle_segment(syn.src, syn.dst, syn_seg, &mut |_| true);
        assert!(ev.is_empty());
        let synack = &replies[0];
        let PacketBody::Tcp(sa_seg) = &synack.body else { panic!() };
        let (ev, replies) = client.handle_segment(synack.src, synack.dst, sa_seg, &mut |_| true);
        assert!(matches!(ev[0], TcpEvent::Connected { inbound: false, .. }));
        let ack = &replies[0];
        let PacketBody::Tcp(ack_seg) = &ack.body else { panic!() };
        let (ev, _) = server.handle_segment(ack.src, ack.dst, ack_seg, &mut |_| true);
        let TcpEvent::Connected { id: sid, inbound: true, .. } = ev[0] else {
            panic!("server not connected: {ev:?}")
        };
        (client, server, cid, sid)
    }

    fn deliver(
        to: &mut TcpStack,
        pkt: &Packet,
    ) -> (Vec<TcpEvent>, Vec<Packet>) {
        let PacketBody::Tcp(seg) = &pkt.body else { panic!() };
        to.handle_segment(pkt.src, pkt.dst, seg, &mut |_| true)
    }

    #[test]
    fn three_way_handshake() {
        let (client, server, cid, sid) = establish();
        assert!(client.is_established(cid));
        assert!(server.is_established(sid));
        assert!(!client.is_inbound(cid));
        assert!(server.is_inbound(sid));
    }

    #[test]
    fn data_flows_in_order() {
        let (mut client, mut server, cid, sid) = establish();
        let segs = client.send(cid, b"hello world").unwrap();
        assert_eq!(segs.len(), 1);
        let (ev, _) = deliver(&mut server, &segs[0]);
        assert_eq!(
            ev,
            vec![TcpEvent::Data {
                id: sid,
                peer: client.local_of(cid).unwrap(),
                payload: Bytes::from_static(b"hello world"),
            }]
        );
    }

    #[test]
    fn large_send_splits_at_mss() {
        let (mut client, mut server, cid, _) = establish();
        let data = vec![7u8; MSS * 2 + 10];
        let segs = client.send(cid, &data).unwrap();
        assert_eq!(segs.len(), 3);
        let mut got = Vec::new();
        for s in &segs {
            let (ev, _) = deliver(&mut server, s);
            for e in ev {
                if let TcpEvent::Data { payload, .. } = e {
                    got.extend_from_slice(&payload);
                }
            }
        }
        assert_eq!(got, data);
    }

    /// The segments `data` must become on `id`, built independently of
    /// the stack's own loop: one `make_segment` per `MSS` chunk.
    fn reference_segments(s: &TcpStack, id: ConnId, data: &[u8]) -> Vec<Packet> {
        let (local, remote) = s.routes[&id];
        let (mut snd, rcv) = s.seq_state(id).unwrap();
        data.chunks(MSS)
            .map(|c| {
                let p = make_segment(local, remote, snd, rcv, TcpFlags::ACK, Bytes::copy_from_slice(c));
                snd = snd.wrapping_add(c.len() as u32);
                p
            })
            .collect()
    }

    /// `send_bytes_into` as it was before the last segment took `data`
    /// itself: every segment a refcounted `slice` of `data`. The oracle.
    fn slicing_loop_send(s: &mut TcpStack, id: ConnId, data: Bytes, out: &mut Vec<Packet>) {
        let key = s.routes[&id];
        let sock = s.socks.get_mut(&key).unwrap();
        let (local, remote) = key;
        let mut off = 0;
        while off < data.len() {
            let end = (off + MSS).min(data.len());
            let chunk = data.slice(off..end);
            let seg = make_segment(
                local,
                remote,
                sock.snd_nxt,
                sock.rcv_nxt,
                TcpFlags::ACK,
                chunk,
            );
            sock.snd_nxt = sock.snd_nxt.wrapping_add((end - off) as u32);
            if s.reliable {
                sock.rtx.push_back((sock.snd_nxt, seg.clone()));
            }
            out.push(seg);
            off = end;
        }
        if s.reliable && sock.rto_at.is_none() && !sock.rtx.is_empty() {
            sock.rto_at = Some(s.now + s.rto);
        }
    }

    #[test]
    fn send_bytes_into_matches_slicing_loop() {
        for reliable in [false, true] {
            let (mut a, _, aid, _) = establish_with(reliable);
            let (mut b, _, bid, _) = establish_with(reliable);
            for len in [0, 1, MSS - 1, MSS, MSS + 1, 2 * MSS, 2 * MSS + 1] {
                let data = Bytes::from((0..len).map(|i| (i * 7 % 253) as u8).collect::<Vec<u8>>());
                let (mut expected, mut got) = (Vec::new(), Vec::new());
                slicing_loop_send(&mut a, aid, data.clone(), &mut expected);
                let last = data
                    .as_ptr()
                    .wrapping_add(len.saturating_sub(1) / MSS * MSS);
                assert!(b.send_bytes_into(bid, data, &mut got));
                assert_eq!(got, expected, "segments, reliable={reliable} len={len}");
                let sock = |s: &TcpStack, id: ConnId| s.socks[&s.routes[&id]].clone();
                let (sa, sb) = (sock(&a, aid), sock(&b, bid));
                assert_eq!(sb.rtx, sa.rtx, "rtx, reliable={reliable} len={len}");
                assert_eq!(
                    (sb.snd_nxt, sb.rcv_nxt, sb.rto_at),
                    (sa.snd_nxt, sa.rcv_nxt, sa.rto_at)
                );
                // The last segment is a window into the caller's buffer.
                if let Some(Packet {
                    body: PacketBody::Tcp(seg),
                    ..
                }) = got.last()
                {
                    assert!(std::ptr::eq(seg.payload.as_ptr(), last), "len={len}");
                }
            }
        }
    }

    #[test]
    fn send_bytes_matches_send() {
        // `send(&[u8])` is `send_bytes` after one copy: both emit the
        // reference segments (seq, ack, flags, checksum, payload) and leave
        // the same retransmit queue, around every MSS boundary, both modes.
        for reliable in [false, true] {
            let (mut a, _, aid, _) = establish_with(reliable);
            let (mut b, _, bid, _) = establish_with(reliable);
            let mut queued = 0;
            for len in [0, 1, MSS - 1, MSS, MSS + 1, 3 * MSS + 7] {
                let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
                let expected = reference_segments(&a, aid, &data);
                let copied = a.send(aid, &data).unwrap();
                let shared = b.send_bytes(bid, Bytes::from(data)).unwrap();
                assert_eq!(copied, expected, "send, reliable={reliable} len={len}");
                assert_eq!(shared, expected, "send_bytes, reliable={reliable} len={len}");
                assert_eq!(a.seq_state(aid), b.seq_state(bid));
                let rtx = |s: &TcpStack, id: ConnId| s.socks[&s.routes[&id]].rtx.clone();
                assert_eq!(rtx(&a, aid), rtx(&b, bid), "rtx, reliable={reliable} len={len}");
                queued += if reliable { expected.len() } else { 0 };
                assert_eq!(rtx(&a, aid).len(), queued);
            }
        }
    }

    #[test]
    fn out_of_order_segment_dropped() {
        let (mut client, mut server, cid, _) = establish();
        let segs = client.send(cid, b"first").unwrap();
        let seg2 = client.send(cid, b"second").unwrap();
        // Deliver the second before the first: dropped.
        let (ev, _) = deliver(&mut server, &seg2[0]);
        assert!(ev.is_empty());
        assert_eq!(server.drops.bad_seq, 1);
        // First still delivers.
        let (ev, _) = deliver(&mut server, &segs[0]);
        assert!(matches!(ev[0], TcpEvent::Data { .. }));
    }

    #[test]
    fn corrupted_checksum_dropped_silently() {
        let (mut client, mut server, cid, _) = establish();
        let mut segs = client.send(cid, b"payload").unwrap();
        let PacketBody::Tcp(seg) = &mut segs[0].body else { panic!() };
        seg.checksum ^= 0xffff;
        let (ev, replies) = deliver(&mut server, &segs[0]);
        assert!(ev.is_empty());
        assert!(replies.is_empty());
        assert_eq!(server.drops.bad_checksum, 1);
    }

    #[test]
    fn spoofed_injection_with_correct_state_is_accepted() {
        // The post-connection Defamation primitive: a third party who knows
        // the 4-tuple and rcv_nxt can inject data attributed to the peer.
        let (client, mut server, cid, sid) = establish();
        let client_addr = client.local_of(cid).unwrap();
        let server_addr = client.peer_of(cid).unwrap();
        let (snd_nxt, rcv_nxt) = client.seq_state(cid).unwrap();
        let forged = make_segment(
            client_addr,
            server_addr,
            snd_nxt,
            rcv_nxt,
            TcpFlags::ACK,
            Bytes::from_static(b"evil"),
        );
        let (ev, _) = deliver(&mut server, &forged);
        assert_eq!(
            ev,
            vec![TcpEvent::Data {
                id: sid,
                peer: client_addr,
                payload: Bytes::from_static(b"evil"),
            }]
        );
    }

    #[test]
    fn spoofed_injection_with_wrong_seq_is_dropped() {
        let (client, mut server, cid, _) = establish();
        let client_addr = client.local_of(cid).unwrap();
        let server_addr = client.peer_of(cid).unwrap();
        let (snd_nxt, rcv_nxt) = client.seq_state(cid).unwrap();
        let forged = make_segment(
            client_addr,
            server_addr,
            snd_nxt.wrapping_add(9999),
            rcv_nxt,
            TcpFlags::ACK,
            Bytes::from_static(b"evil"),
        );
        let (ev, _) = deliver(&mut server, &forged);
        assert!(ev.is_empty());
        assert_eq!(server.drops.bad_seq, 1);
    }

    #[test]
    fn injection_desyncs_the_real_sender() {
        let (mut client, mut server, cid, _) = establish();
        let client_addr = client.local_of(cid).unwrap();
        let server_addr = client.peer_of(cid).unwrap();
        let (snd_nxt, rcv_nxt) = client.seq_state(cid).unwrap();
        let forged = make_segment(client_addr, server_addr, snd_nxt, rcv_nxt, TcpFlags::ACK, Bytes::from_static(b"x"));
        deliver(&mut server, &forged);
        // Real client now sends from a stale seq → dropped.
        let segs = client.send(cid, b"real").unwrap();
        let (ev, _) = deliver(&mut server, &segs[0]);
        assert!(ev.is_empty());
        assert_eq!(server.drops.bad_seq, 1);
    }

    #[test]
    fn rst_closes_connection() {
        let (mut client, mut server, cid, sid) = establish();
        let rst = client.close(cid).unwrap();
        let (ev, _) = deliver(&mut server, &rst);
        assert!(matches!(
            ev[0],
            TcpEvent::Closed {
                reason: CloseReason::RemoteReset,
                ..
            }
        ));
        assert!(!server.is_established(sid));
        assert!(!client.is_established(cid));
    }

    #[test]
    fn connect_to_closed_port_fails() {
        let mut client = TcpStack::new([10, 0, 0, 1]);
        let mut server = TcpStack::new([10, 0, 0, 2]);
        let (_, syn) = client.connect(sa(2, 9999));
        let (_, replies) = deliver(&mut server, &syn);
        let (ev, _) = deliver(&mut client, &replies[0]);
        assert_eq!(ev, vec![TcpEvent::ConnectFailed { dst: sa(2, 9999) }]);
    }

    #[test]
    fn accept_hook_can_refuse_with_rst() {
        let mut client = TcpStack::new([10, 0, 0, 1]);
        let mut server = TcpStack::new([10, 0, 0, 2]);
        server.listen(8333);
        let (_, syn) = client.connect(sa(2, 8333));
        let PacketBody::Tcp(seg) = &syn.body else { panic!() };
        let (ev, replies) = server.handle_segment(syn.src, syn.dst, seg, &mut |_| false);
        assert!(ev.is_empty());
        assert_eq!(server.drops.refused_accept, 1);
        let PacketBody::Tcp(rst) = &replies[0].body else { panic!() };
        assert!(rst.flags.has(TcpFlags::RST));
        let (ev, _) = deliver(&mut client, &replies[0]);
        assert_eq!(ev, vec![TcpEvent::ConnectFailed { dst: sa(2, 8333) }]);
    }

    #[test]
    fn ephemeral_ports_dont_collide() {
        let mut client = TcpStack::new([10, 0, 0, 1]);
        let mut ports = HashSet::new();
        for _ in 0..100 {
            let (_, syn) = client.connect(sa(2, 8333));
            assert!(ports.insert(syn.src.port), "port reuse");
        }
    }

    #[test]
    fn connect_from_rejects_in_use_tuple() {
        let mut client = TcpStack::new([10, 0, 0, 1]);
        assert!(client.connect_from(50_000, sa(2, 8333)).is_some());
        assert!(client.connect_from(50_000, sa(2, 8333)).is_none());
    }

    #[test]
    fn closing_frees_the_port() {
        let mut client = TcpStack::new([10, 0, 0, 1]);
        let (id, _) = client.connect_from(50_000, sa(2, 8333)).unwrap();
        client.close(id);
        assert!(client.connect_from(50_000, sa(2, 8333)).is_some());
    }

    #[test]
    fn fin_closes_gracefully() {
        let (client, mut server, cid, _) = establish();
        let client_addr = client.local_of(cid).unwrap();
        let server_addr = client.peer_of(cid).unwrap();
        let (snd, rcv) = client.seq_state(cid).unwrap();
        let fin = make_segment(client_addr, server_addr, snd, rcv, TcpFlags::FIN | TcpFlags::ACK, Bytes::new());
        let (ev, replies) = deliver(&mut server, &fin);
        assert!(matches!(
            ev[0],
            TcpEvent::Closed {
                reason: CloseReason::RemoteFin,
                ..
            }
        ));
        assert_eq!(replies.len(), 1);
    }

    #[test]
    fn send_on_unestablished_connection_fails() {
        let mut client = TcpStack::new([10, 0, 0, 1]);
        let (id, _) = client.connect(sa(2, 8333));
        assert!(client.send(id, b"too early").is_none());
    }
}
