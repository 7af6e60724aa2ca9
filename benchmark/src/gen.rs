//! In-simulator load generation for the scripted node workloads.
//!
//! A generator is an [`App`] replaying a [`Script`]: a byte buffer of
//! pre-encoded frames plus a sim-time schedule of connects, sends and
//! closes. The schedule is open-loop — the generator never reads what the
//! target answers — so the identical schedule can be pointed at a [`Sink`]
//! to price the simulator and the generators without the node
//! (`netsim.sink_ns_per_pkt`).

use btc_netsim::packet::{Ipv4, SockAddr};
use btc_netsim::sim::{App, Ctx};
use btc_netsim::tcp::{CloseReason, ConnId, MSS};
use btc_netsim::time::{Nanos, MILLIS, SECS};
use btc_wire::bytes::Bytes;
use btc_wire::message::{Message, RawMessage, VersionMessage};
use btc_wire::types::{NetAddr, Network, DEFAULT_PORT};
use std::any::Any;
use std::sync::Arc;

pub const NET: Network = Network::Regtest;
pub const TARGET: Ipv4 = [10, 0, 0, 1];
pub const TARGET_ADDR: SockAddr = SockAddr {
    ip: TARGET,
    port: DEFAULT_PORT,
};

/// Generator hosts of every node workload.
pub const GENERATORS: usize = 4;

pub fn generator_ip(g: usize) -> Ipv4 {
    [10, 0, 1, g as u8 + 1]
}

/// When the scripted schedules start flooding: long after the version
/// handshakes (which finish within 3 sim-ms) so the timed region can start
/// at a quiet instant in between.
pub const FLOOD_START: Nanos = SECS;

/// Sim time at which the harness checks the handshakes and starts timing.
pub const HANDSHAKES_DONE: Nanos = 500 * MILLIS;

pub fn frame(msg: &Message) -> Bytes {
    RawMessage::frame(NET, msg).to_bytes()
}

pub enum Op {
    /// Open the connection from this local port (0 = ephemeral).
    Connect(u16),
    /// `count` consecutive chunks of `len` bytes starting at `start` of
    /// the script buffer, each handed to TCP by its own `send` call (and
    /// split at the MSS there).
    Send {
        start: usize,
        len: usize,
        count: usize,
    },
    /// Abortive close.
    Close,
}

pub struct Step {
    pub at: Nanos,
    pub op: Op,
}

#[derive(Default)]
pub struct Script {
    pub buf: Vec<u8>,
    pub steps: Vec<Step>,
    /// Bitcoin messages the schedule sends from [`FLOOD_START`] on.
    pub flood_msgs: u64,
}

impl Script {
    /// A script that connects at 0 and sends VERSION then VERACK without
    /// waiting for the target's side: enough for the node to consider the
    /// handshake complete, and the same bytes a sink swallows.
    pub fn with_handshake(g: usize, nonce: u64) -> Script {
        let mut s = Script::default();
        s.steps.push(Step {
            at: 0,
            op: Op::Connect(0),
        });
        let from = NetAddr::new(generator_ip(g), 0);
        let to = NetAddr::new(TARGET, DEFAULT_PORT);
        s.send_at(
            MILLIS,
            &frame(&Message::Version(VersionMessage::new(from, to, nonce))),
        );
        s.send_at(2 * MILLIS, &frame(&Message::Verack));
        s
    }

    /// Appends `bytes` to the buffer and schedules them as one `send`.
    pub fn send_at(&mut self, at: Nanos, bytes: &[u8]) {
        self.send_chunks_at(at, bytes, bytes.len());
    }

    /// Appends `bytes` and schedules them as `bytes.len() / chunk` sends of
    /// `chunk` bytes each (one frame per TCP segment, for small frames).
    pub fn send_chunks_at(&mut self, at: Nanos, bytes: &[u8], chunk: usize) {
        assert!(
            chunk > 0 && bytes.len().is_multiple_of(chunk),
            "chunks must tile the bytes"
        );
        let start = self.buf.len();
        self.buf.extend_from_slice(bytes);
        self.steps.push(Step {
            at,
            op: Op::Send {
                start,
                len: chunk,
                count: bytes.len() / chunk,
            },
        });
    }

    /// Schedules bytes already in the buffer again (a flood of one frame).
    pub fn resend_at(&mut self, at: Nanos, start: usize, len: usize) {
        self.steps.push(Step {
            at,
            op: Op::Send {
                start,
                len,
                count: 1,
            },
        });
    }

    /// The TCP payloads the flood part of the schedule puts on the wire, in
    /// order: what the target's receive path sees, segment by segment.
    pub fn flood_segments(&self) -> impl Iterator<Item = &[u8]> {
        self.steps
            .iter()
            .filter(|s| s.at >= FLOOD_START)
            .flat_map(move |s| {
                let (start, len, count) = match s.op {
                    Op::Send { start, len, count } => (start, len, count),
                    _ => (0, 0, 0),
                };
                (0..count)
                    .flat_map(move |i| self.buf[start + i * len..start + (i + 1) * len].chunks(MSS))
            })
    }

    pub fn end(&self) -> Nanos {
        self.steps.last().map_or(0, |s| s.at)
    }
}

/// Mean payload of the TCP segments the scripts' floods put on the wire.
pub fn mean_flood_segment(scripts: &[Arc<Script>]) -> usize {
    let (mut segments, mut bytes) = (0, 0);
    for segment in scripts.iter().flat_map(|s| s.flood_segments()) {
        segments += 1;
        bytes += segment.len();
    }
    bytes / segments.max(1)
}

/// Replays a [`Script`] against `target`.
pub struct ScriptedPeer {
    target: SockAddr,
    script: Arc<Script>,
    next: usize,
    conn: Option<ConnId>,
    /// `send` calls the transport refused (no established connection).
    pub sends_refused: u64,
}

impl ScriptedPeer {
    pub fn new(target: SockAddr, script: Arc<Script>) -> ScriptedPeer {
        ScriptedPeer {
            target,
            script,
            next: 0,
            conn: None,
            sends_refused: 0,
        }
    }

    fn arm(&self, ctx: &mut Ctx<'_>) {
        if let Some(step) = self.script.steps.get(self.next) {
            ctx.set_timer(step.at.saturating_sub(ctx.now()), 0);
        }
    }
}

impl App for ScriptedPeer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.arm(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let script = Arc::clone(&self.script);
        while let Some(step) = script.steps.get(self.next).filter(|s| s.at <= ctx.now()) {
            self.next += 1;
            match step.op {
                Op::Connect(0) => self.conn = Some(ctx.connect(self.target)),
                Op::Connect(port) => self.conn = ctx.connect_from(port, self.target),
                Op::Send { start, len, count } => {
                    for i in 0..count {
                        let chunk = &script.buf[start + i * len..start + (i + 1) * len];
                        if !self.conn.is_some_and(|c| ctx.send(c, chunk)) {
                            self.sends_refused += 1;
                        }
                    }
                }
                Op::Close => {
                    if let Some(c) = self.conn.take() {
                        ctx.close(c);
                    }
                }
            }
        }
        self.arm(ctx);
    }

    fn on_closed(
        &mut self,
        _ctx: &mut Ctx<'_>,
        conn: ConnId,
        _peer: SockAddr,
        _reason: CloseReason,
    ) {
        if self.conn == Some(conn) {
            self.conn = None;
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One boxed generator per script, in generator order.
pub fn scripted_peers(scripts: &[Arc<Script>]) -> impl Iterator<Item = Box<dyn App>> + '_ {
    scripts
        .iter()
        .map(|s| Box::new(ScriptedPeer::new(TARGET_ADDR, Arc::clone(s))) as Box<dyn App>)
}

/// How much a [`Sink`] answers: `packets` segments of `payload` bytes for
/// every `per_packets_in` segments it receives.
#[derive(Clone, Copy, Default)]
pub struct ReplyShape {
    pub packets: u64,
    pub per_packets_in: u64,
    pub payload: usize,
}

/// Stands where the target stands and does none of its work: accepts every
/// connection, reads nothing, and answers with as many packets of the same
/// mean size as the node sent in the rep, so that the simulator and the
/// generators carry the rep's traffic in both directions.
pub struct Sink {
    shape: ReplyShape,
    owed: u64,
    filler: Vec<u8>,
}

impl Sink {
    pub fn new(shape: ReplyShape) -> Sink {
        Sink {
            shape,
            owed: 0,
            filler: vec![0xA5; shape.payload.clamp(1, MSS)],
        }
    }
}

impl App for Sink {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(DEFAULT_PORT);
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _peer: SockAddr, _data: &[u8]) {
        self.owed += self.shape.packets;
        while self.owed >= self.shape.per_packets_in.max(1) {
            self.owed -= self.shape.per_packets_in.max(1);
            ctx.send(conn, &self.filler);
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
    fn flood_segments_follow_send_calls_and_mss() {
        let mut s = Script::with_handshake(0, 7);
        let handshake_bytes = s.buf.len();
        s.send_chunks_at(FLOOD_START, &[1u8; 64], 32);
        s.send_at(FLOOD_START + 1, &vec![2u8; MSS + 10]);
        s.resend_at(FLOOD_START + 2, handshake_bytes, 32);
        let lens: Vec<usize> = s.flood_segments().map(<[u8]>::len).collect();
        assert_eq!(lens, vec![32, 32, MSS, 10, 32]);
        assert_eq!(s.end(), FLOOD_START + 2);
    }
}
