//! The BM-DoS flood engine: an attacker app that opens one or more Bitcoin
//! sessions to the target, completes the version handshake, then floods a
//! chosen [`FloodPayload`] — optionally reconnecting from fresh Sybil
//! ports whenever the target bans the current identifier (attack vector 3).
//!
//! An [`IcmpFlooder`] provides the network-layer baseline of Table III.

use crate::payload::FloodPayload;
use crate::socket_model;
use btc_netsim::packet::{IcmpEcho, SockAddr};
use btc_netsim::sim::{App, Ctx};
use btc_netsim::tcp::{CloseReason, ConnId};
use btc_netsim::time::{Nanos, MILLIS, SECS};
use btc_wire::drain::FrameAssembler;
use btc_wire::message::{decode_frame, Message, VersionMessage};
use btc_wire::types::{NetAddr, Network};
use std::any::Any;
use std::collections::BTreeMap;

/// Approximate attacker-side cycles to construct and serialize one message
/// of `n` payload bytes (used for the cost side of impact-cost accounting).
pub fn build_cost_cycles(n: usize) -> u64 {
    2_000 + 3 * n as u64
}

/// One experienced ban.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BanRecord {
    /// When the connection was reset.
    pub time: Nanos,
    /// The banned local identifier.
    pub identifier: SockAddr,
    /// Messages sent on that connection before the ban.
    pub messages: u64,
    /// When that connection's flooding started.
    pub started: Nanos,
}

/// Flood statistics.
#[derive(Clone, Debug, Default)]
pub struct FloodStats {
    /// Total messages sent.
    pub messages_sent: u64,
    /// Total payload bytes sent.
    pub bytes_sent: u64,
    /// Completed handshakes.
    pub sessions_established: u64,
    /// Bans experienced (connection reset by peer).
    pub bans: Vec<BanRecord>,
    /// Attacker-side build cost in cycles.
    pub build_cycles: u64,
}

/// Flooder configuration.
#[derive(Clone, Debug)]
pub struct FloodConfig {
    /// The victim.
    pub target: SockAddr,
    /// Network magic to speak.
    pub network: Network,
    /// Concurrent Sybil connections.
    pub connections: usize,
    /// Extra delay between consecutive messages per connection (0 = "as
    /// fast as possible", which still respects the socket model).
    pub extra_interval: Nanos,
    /// What to send.
    pub payload: FloodPayload,
    /// Reconnect from the next port when banned (serial Sybil).
    pub reconnect_on_ban: bool,
    /// Socket-setup latency before a reconnection attempt (the paper
    /// measures ≈0.2 s for its Python attacker).
    pub connect_setup_delay: Nanos,
    /// First source port for deliberately chosen identifiers (0 = let the
    /// stack pick ephemeral ports).
    pub sybil_port_start: u16,
    /// Stop after this many messages in total (None = flood forever).
    pub max_messages: Option<u64>,
}

impl Default for FloodConfig {
    fn default() -> Self {
        FloodConfig {
            target: SockAddr::new([10, 0, 0, 1], 8333),
            network: Network::Regtest,
            connections: 1,
            extra_interval: 0,
            payload: FloodPayload::Ping,
            reconnect_on_ban: false,
            connect_setup_delay: 200 * MILLIS,
            sybil_port_start: 0,
            max_messages: None,
        }
    }
}

struct ConnState {
    handshaked: bool,
    sent: u64,
    frames: FrameAssembler,
    started: Nanos,
    local: SockAddr,
}

/// The flooding attacker app.
pub struct Flooder {
    /// Configuration.
    pub cfg: FloodConfig,
    /// Statistics.
    pub stats: FloodStats,
    conns: BTreeMap<ConnId, ConnState>,
    next_port: u16,
    msg_size: usize,
    nonce: u64,
}

impl Flooder {
    /// Creates a flooder.
    pub fn new(cfg: FloodConfig) -> Self {
        let msg_size = cfg.payload.wire_size(cfg.network);
        let next_port = cfg.sybil_port_start;
        Flooder {
            cfg,
            stats: FloodStats::default(),
            conns: BTreeMap::new(),
            next_port,
            msg_size,
            nonce: 0,
        }
    }

    /// Mean time from flood start to ban across recorded bans (seconds).
    pub fn mean_time_to_ban(&self) -> Option<f64> {
        if self.stats.bans.is_empty() {
            return None;
        }
        let total: f64 = self
            .stats
            .bans
            .iter()
            .map(|b| (b.time - b.started) as f64 / SECS as f64)
            .sum();
        Some(total / self.stats.bans.len() as f64)
    }

    fn interval(&self) -> Nanos {
        socket_model::min_interval(self.cfg.connections, self.msg_size) + self.cfg.extra_interval
    }

    fn open_connection(&mut self, ctx: &mut Ctx<'_>) {
        if self.cfg.sybil_port_start > 0 {
            // Deliberate identifier choice: walk the port space.
            loop {
                let port = self.next_port;
                self.next_port = self.next_port.checked_add(1).unwrap_or(49152);
                if ctx.connect_from(port, self.cfg.target).is_some() {
                    break;
                }
            }
        } else {
            ctx.connect(self.cfg.target);
        }
    }

    fn flood_done(&self) -> bool {
        self.cfg
            .max_messages
            .map(|m| self.stats.messages_sent >= m)
            .unwrap_or(false)
    }

    fn send_one(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        if self.flood_done() {
            return;
        }
        let Some(local) = ctx.local_of(conn) else {
            return;
        };
        self.nonce += 1;
        let bytes = self
            .cfg
            .payload
            .build(self.cfg.network, local, self.cfg.target, self.nonce);
        let len = bytes.len();
        let cost = build_cost_cycles(len);
        ctx.charge_cpu(cost);
        self.stats.build_cycles += cost;
        if ctx.send_bytes(conn, bytes) {
            self.stats.messages_sent += 1;
            self.stats.bytes_sent += len as u64;
            if let Some(c) = self.conns.get_mut(&conn) {
                c.sent += 1;
            }
        }
    }
}

impl App for Flooder {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..self.cfg.connections {
            self.open_connection(ctx);
        }
    }

    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, peer: SockAddr, _inbound: bool) {
        // Start the Bitcoin session: send our (true) VERSION.
        let local = ctx.local_of(conn).unwrap_or_default();
        let v = VersionMessage::new(
            NetAddr::new(local.ip, local.port),
            NetAddr::new(peer.ip, peer.port),
            ctx.rng().next_u64(),
        );
        ctx.send_bytes(conn, Message::Version(v).to_frame(self.cfg.network));
        let local = ctx.local_of(conn).unwrap_or_default();
        self.conns.insert(
            conn,
            ConnState {
                handshaked: false,
                sent: 0,
                frames: FrameAssembler::new(self.cfg.network),
                started: ctx.now(),
                local,
            },
        );
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _peer: SockAddr, data: &[u8]) {
        let Some(state) = self.conns.get_mut(&conn) else {
            return;
        };
        state.frames.push(data);
        loop {
            let Some(raw) = self
                .conns
                .get_mut(&conn)
                .and_then(|s| s.frames.next_frame())
            else {
                break;
            };
            match decode_frame(&raw) {
                Ok(Message::Version(_)) => {
                    // Finish the handshake properly: acknowledge the
                    // target's VERSION so the session is complete
                    // and flood messages aren't eaten (and scored!)
                    // by the pre-VERACK rules.
                    ctx.send_bytes(conn, Message::Verack.to_frame(self.cfg.network));
                }
                Ok(Message::Verack) => {
                    if let Some(state) = self.conns.get_mut(&conn) {
                        if !state.handshaked {
                            state.handshaked = true;
                            state.started = ctx.now();
                            self.stats.sessions_established += 1;
                            // Begin flooding on this connection.
                            ctx.set_timer(self.interval(), conn.0);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == u64::MAX {
            // Reconnection tick for serial Sybil.
            self.open_connection(ctx);
            return;
        }
        let conn = ConnId(token);
        let alive = self
            .conns
            .get(&conn)
            .map(|c| c.handshaked)
            .unwrap_or(false);
        if !alive || !ctx.is_established(conn) || self.flood_done() {
            return;
        }
        self.send_one(ctx, conn);
        ctx.set_timer(self.interval(), token);
    }

    fn on_closed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _peer: SockAddr, reason: CloseReason) {
        if let Some(state) = self.conns.remove(&conn) {
            if reason == CloseReason::RemoteReset {
                // The target reset us: with a punishable payload this means
                // our identifier crossed the ban threshold.
                self.stats.bans.push(BanRecord {
                    time: ctx.now(),
                    identifier: state.local,
                    messages: state.sent,
                    started: state.started,
                });
                if self.cfg.reconnect_on_ban && !self.flood_done() {
                    ctx.set_timer(self.cfg.connect_setup_delay, u64::MAX);
                }
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// ICMP flood statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct IcmpStats {
    /// Echo requests sent.
    pub sent: u64,
    /// Echo replies received.
    pub replies: u64,
}

/// The network-layer flooding baseline (`hping`-style ICMP echo flood).
pub struct IcmpFlooder {
    /// Victim IP.
    pub target: [u8; 4],
    /// Requests per second (up to the 10⁶ network-layer cap).
    pub rate: f64,
    /// Echo payload size (56 bytes like classic `ping`).
    pub payload_len: usize,
    /// Statistics.
    pub stats: IcmpStats,
    seq: u16,
}

impl IcmpFlooder {
    /// Creates a flooder at `rate` packets/second.
    pub fn new(target: [u8; 4], rate: f64) -> Self {
        IcmpFlooder {
            target,
            rate: rate.min(socket_model::NETWORK_LAYER_RATE_CAP),
            payload_len: 56,
            stats: IcmpStats::default(),
            seq: 0,
        }
    }

    /// Packets sent per timer tick (batched so the simulator never needs
    /// more than 1000 timer events per virtual second).
    fn batch(&self) -> u64 {
        (self.rate / 1000.0).ceil().max(1.0) as u64
    }

    fn tick_interval(&self) -> Nanos {
        let ticks_per_sec = self.rate / self.batch() as f64;
        (SECS as f64 / ticks_per_sec).max(1.0) as Nanos
    }
}

impl App for IcmpFlooder {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.tick_interval(), 1);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        for _ in 0..self.batch() {
            self.seq = self.seq.wrapping_add(1);
            ctx.send_icmp(self.target, 0x77, self.seq, self.payload_len);
            self.stats.sent += 1;
            // Raw-socket send cost is tiny (the paper's hping reaches 10⁶
            // pps at moderate CPU).
            ctx.charge_cpu(300);
        }
        ctx.set_timer(self.tick_interval(), 1);
    }

    fn on_icmp(&mut self, _ctx: &mut Ctx<'_>, _from: [u8; 4], echo: &IcmpEcho) {
        if !echo.request {
            self.stats.replies += 1;
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_respects_socket_model() {
        let f = Flooder::new(FloodConfig::default());
        // Ping ≈ 32 wire bytes; 1 connection → 1 ms interval.
        assert_eq!(f.interval(), 1_000_000);
        let f = Flooder::new(FloodConfig {
            extra_interval: 1_000_000,
            ..FloodConfig::default()
        });
        assert_eq!(f.interval(), 2_000_000);
    }

    #[test]
    fn bogus_block_interval_is_bandwidth_limited() {
        let f = Flooder::new(FloodConfig {
            payload: FloodPayload::BogusChecksumBlock {
                payload_bytes: 1_000_000,
            },
            ..FloodConfig::default()
        });
        // ≈250 msg/s → 4 ms.
        assert!(f.interval() >= 3_900_000, "interval {}", f.interval());
    }

    #[test]
    fn icmp_batching_keeps_tick_rate_bounded() {
        let f = IcmpFlooder::new([1, 2, 3, 4], 1_000_000.0);
        assert_eq!(f.batch(), 1000);
        assert_eq!(f.tick_interval(), 1_000_000);
        let slow = IcmpFlooder::new([1, 2, 3, 4], 100.0);
        assert_eq!(slow.batch(), 1);
        assert_eq!(slow.tick_interval(), 10_000_000);
    }

    #[test]
    fn icmp_rate_capped_at_network_layer_limit() {
        let f = IcmpFlooder::new([1, 2, 3, 4], 1e9);
        assert_eq!(f.rate, socket_model::NETWORK_LAYER_RATE_CAP);
    }

    #[test]
    fn build_cost_scales_with_size() {
        assert!(build_cost_cycles(1_000_000) > 100 * build_cost_cycles(100));
    }
}
