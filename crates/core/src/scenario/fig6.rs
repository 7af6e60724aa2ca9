//! Figure 6: mining rate under bogus-`BLOCK` and `PING` BM-DoS with 0, 1,
//! 10 and 20 Sybil connections.
//!
//! The flood itself runs live in the simulator (socket caps, handshakes,
//! Sybil connections and bandwidth sharing all emerge there); the mining
//! rate is computed from the *measured* delivered traffic through the
//! calibrated [`crate::contention`] model (see that module's docs and
//! EXPERIMENTS.md).

use crate::contention;
use crate::testbed::{addrs, Testbed, TestbedConfig};
use btc_attack::flood::{FloodConfig, Flooder};
use btc_attack::payload::FloodPayload;
use btc_netsim::time::{as_secs_f64, SECS};

/// Size of the bogus `BLOCK` junk payload (the paper does not state its
/// size; 200 kB sits inside protocol limits and the testbed's bandwidth).
pub const BOGUS_BLOCK_BYTES: usize = 200_000;

/// The flood behind one Figure-6 point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig6Attack {
    /// The idle baseline: no flood.
    None,
    /// Bogus-checksum `BLOCK` frames of [`BOGUS_BLOCK_BYTES`].
    Block,
    /// `PING` frames.
    Ping,
}

impl Fig6Attack {
    /// Stable row label: `none`, `block` or `ping`.
    pub fn label(self) -> &'static str {
        match self {
            Fig6Attack::None => "none",
            Fig6Attack::Block => "block",
            Fig6Attack::Ping => "ping",
        }
    }

    /// The flooder's payload, or `None` for the idle baseline.
    fn payload(self) -> Option<FloodPayload> {
        match self {
            Fig6Attack::None => None,
            Fig6Attack::Block => Some(FloodPayload::BogusChecksumBlock {
                payload_bytes: BOGUS_BLOCK_BYTES,
            }),
            Fig6Attack::Ping => Some(FloodPayload::Ping),
        }
    }
}

/// One point of Figure 6.
#[derive(Clone, Debug)]
pub struct Fig6Point {
    /// The flood.
    pub attack: Fig6Attack,
    /// Sybil connection count.
    pub connections: usize,
    /// Measured delivered flood messages per second.
    pub msgs_per_sec: f64,
    /// Measured flood megabits per second.
    pub mbits_per_sec: f64,
    /// Predicted victim mining rate (hashes/second).
    pub mining_rate: f64,
}

/// The sweep's points in presentation order, as (attack, Sybil
/// connection count): the idle baseline, then {block, ping} × {1, 10, 20}
/// connections.
fn point_list() -> Vec<(Fig6Attack, usize)> {
    let mut points = vec![(Fig6Attack::None, 0)];
    for attack in [Fig6Attack::Block, Fig6Attack::Ping] {
        points.extend([1, 10, 20].map(|connections| (attack, connections)));
    }
    points
}

/// Runs one Figure-6 point: builds a fresh deterministic testbed, floods
/// it, and reduces the measured traffic through the calibrated contention
/// model. Pure in the fan-out sense — no global state, every simulator is
/// constructed and consumed inside the call.
fn run_point((attack, connections): (Fig6Attack, usize), duration_secs: u64) -> Fig6Point {
    let Some(payload) = attack.payload().filter(|_| connections > 0) else {
        return Fig6Point {
            attack,
            connections,
            msgs_per_sec: 0.0,
            mbits_per_sec: 0.0,
            mining_rate: contention::mining_rate(0.0),
        };
    };
    let mut tb = Testbed::build(TestbedConfig {
        feeders: 0, // the flood dwarfs background traffic
        ..TestbedConfig::default()
    });
    tb.add_attacker(Flooder::new(FloodConfig {
        target: tb.target_addr,
        payload,
        connections,
        ..FloodConfig::default()
    }));
    let duration = duration_secs * SECS;
    tb.sim.run_for(duration);
    let attacker: &Flooder = tb.sim.app(addrs::ATTACKER).expect("flooder");
    let secs = as_secs_f64(duration);
    let msgs = attacker.stats.messages_sent;
    let bytes = attacker.stats.bytes_sent;
    let load = contention::app_layer_load(msgs, bytes, secs);
    Fig6Point {
        attack,
        connections,
        msgs_per_sec: msgs as f64 / secs,
        mbits_per_sec: bytes as f64 * 8.0 / secs / 1e6,
        mining_rate: contention::mining_rate(load),
    }
}

/// Runs the full Figure-6 sweep on `jobs` worker threads. Every point is
/// an independent, freshly-seeded simulator, so the result is identical
/// for any job count.
pub fn run_fig6(duration_secs: u64, jobs: usize) -> Vec<Fig6Point> {
    btc_par::par_map(jobs, point_list(), |point| run_point(point, duration_secs))
}

/// Renders Figure 6 as text.
pub fn render_fig6(points: &[Fig6Point]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "{:<8} {:>6} {:>12} {:>12} {:>16}",
        "Attack", "Conns", "msg/s", "Mbit/s", "Mining (h/s)"
    )
    .unwrap();
    for p in points {
        writeln!(
            out,
            "{:<8} {:>6} {:>12.0} {:>12.2} {:>16.0}",
            p.attack.label(),
            p.connections,
            p.msgs_per_sec,
            p.mbits_per_sec,
            p.mining_rate
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(points: &[Fig6Point], attack: Fig6Attack, conns: usize) -> &Fig6Point {
        points
            .iter()
            .find(|p| p.attack == attack && p.connections == conns)
            .expect("point present")
    }

    #[test]
    fn fig6_shape_matches_paper() {
        let points = run_fig6(2, 1);
        let baseline = get(&points, Fig6Attack::None, 0).mining_rate;
        // Paper: idle ≈ 9.5e5 h/s.
        assert!((9.0e5..10.0e5).contains(&baseline), "baseline {baseline}");
        let b1 = get(&points, Fig6Attack::Block, 1).mining_rate;
        let b10 = get(&points, Fig6Attack::Block, 10).mining_rate;
        let b20 = get(&points, Fig6Attack::Block, 20).mining_rate;
        let p1 = get(&points, Fig6Attack::Ping, 1).mining_rate;
        let p10 = get(&points, Fig6Attack::Ping, 10).mining_rate;
        let p20 = get(&points, Fig6Attack::Ping, 20).mining_rate;
        // Monotone decline with Sybil count, saturating (the BLOCK flood is
        // bandwidth-capped beyond 1 connection, so 10 vs 20 sit on a
        // plateau — allow 2% jitter there).
        assert!(baseline > p1 && p1 > p10 && p10 >= p20 * 0.98, "{p1} {p10} {p20}");
        assert!(baseline > b1 && b1 >= b10 * 0.98 && b10 >= b20 * 0.98, "{b1} {b10} {b20}");
        // BLOCK hurts more than PING at every connection count.
        assert!(b1 < p1);
        assert!(b10 < p10);
        assert!(b20 < p20);
        // Paper operating points (±20%): block ≈ 3.5e5 / 2.8e5 / 2.6e5,
        // ping ≈ 5.5e5 / 4.6e5 / 3.5e5.
        assert!((2.8e5..4.2e5).contains(&b1), "block@1 {b1}");
        assert!((2.2e5..3.6e5).contains(&b10), "block@10 {b10}");
        assert!((2.1e5..3.5e5).contains(&b20), "block@20 {b20}");
        assert!((4.4e5..6.6e5).contains(&p1), "ping@1 {p1}");
        assert!((3.4e5..5.6e5).contains(&p10), "ping@10 {p10}");
        assert!((2.8e5..4.7e5).contains(&p20), "ping@20 {p20}");
    }

    #[test]
    fn render_has_all_rows() {
        let points = run_fig6(1, 1);
        assert_eq!(points.len(), 7);
        let t = render_fig6(&points);
        assert!(t.contains("block"));
        assert!(t.contains("ping"));
        assert!(t.contains("none"));
    }
}
