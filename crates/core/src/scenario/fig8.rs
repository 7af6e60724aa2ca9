//! Figure 8 and §VI-D: the Defamation/serial-Sybil timing study — the ban
//! staircase, time-to-ban with and without pacing, reconnection latency
//! and the full-IP preemptive Defamation estimate (≈81.92 minutes to ban
//! all 16384 ephemeral ports of one IP).

use crate::testbed::{addrs, Testbed, TestbedConfig};
use btc_attack::flood::{FloodConfig, Flooder};
use btc_attack::payload::FloodPayload;
use btc_netsim::time::{Nanos, MILLIS, SECS};
use btc_wire::constants::DEFAULT_BANSCORE_THRESHOLD;

/// Number of dynamic/ephemeral ports (49152–65535) the full-IP attack must
/// defame.
pub const EPHEMERAL_PORTS: u64 = 65_536 - 49_152;

/// The Figure-8 measurement.
#[derive(Clone, Debug)]
pub struct Fig8Result {
    /// Ban-score staircase of the first banned identifier: (seconds since
    /// that connection started, score).
    pub staircase: Vec<(f64, u32)>,
    /// Mean seconds from flood start to ban, no pacing (paper ≈ 0.1 s).
    pub time_to_ban_fast: f64,
    /// Mean seconds to ban with +1 ms pacing (paper ≈ 0.2 s).
    pub time_to_ban_slow: f64,
    /// Mean seconds between a ban and the next session being established
    /// (paper ≈ 0.2 s socket setup).
    pub reconnect_latency: f64,
    /// Identifiers banned during the fast run.
    pub bans_fast: usize,
    /// Estimated minutes to defame all ephemeral ports of one IP
    /// (paper: 16384 × (0.1 + 0.2) / 60 ≈ 81.92 min).
    pub full_ip_minutes: f64,
}

/// One pacing's measurements, reduced to plain data. The simulator is
/// built *and* consumed inside [`run_point`] — nothing simulator-shaped
/// crosses a thread boundary — so runs can execute on worker threads.
#[derive(Clone, Debug)]
struct Fig8Run {
    /// Mean seconds from flood start to ban.
    time_to_ban: f64,
    /// Identifiers banned during the run.
    bans: usize,
    /// Mean seconds between a ban and the next session being established.
    reconnect_latency: f64,
    /// Ban-score staircase of the first banned identifier.
    staircase: Vec<(f64, u32)>,
}

/// Runs one serial-Sybil Defamation flood at the given pacing and reduces
/// everything Figure 8 needs from it.
fn run_point(extra_interval: Nanos, duration_secs: u64) -> Fig8Run {
    let mut tb = Testbed::build(TestbedConfig {
        feeders: 0,
        ..TestbedConfig::default()
    });
    tb.add_attacker(Flooder::new(FloodConfig {
        target: tb.target_addr,
        payload: FloodPayload::DuplicateVersion,
        reconnect_on_ban: true,
        sybil_port_start: 50_000,
        connect_setup_delay: 200 * MILLIS,
        extra_interval,
        ..FloodConfig::default()
    }));
    tb.sim.run_for(duration_secs * SECS);
    let attacker: &Flooder = tb.sim.app(addrs::ATTACKER).expect("flooder");
    let time_to_ban = attacker.mean_time_to_ban().unwrap_or(f64::NAN);
    let bans = attacker.stats.bans.len();
    // Reconnect latency: gap between a ban and the next session start.
    let mut reconnect_gaps = Vec::new();
    for pair in attacker.stats.bans.windows(2) {
        let next_start = pair[1].started;
        let prev_ban = pair[0].time;
        if next_start > prev_ban {
            reconnect_gaps.push((next_start - prev_ban) as f64 / SECS as f64);
        }
    }
    let reconnect_latency = if reconnect_gaps.is_empty() {
        f64::NAN
    } else {
        reconnect_gaps.iter().sum::<f64>() / reconnect_gaps.len() as f64
    };
    // The staircase of the first banned identifier, from the target's own
    // misbehavior tracker.
    let node = tb.target_node();
    let first_peer = node.tracker.events().first().map(|e| e.peer);
    let mut staircase = Vec::new();
    if let Some(peer) = first_peer {
        let t0 = node
            .tracker
            .events()
            .iter()
            .find(|e| e.peer == peer)
            .map(|e| e.time)
            .unwrap_or(0);
        for e in node.tracker.events().iter().filter(|e| e.peer == peer) {
            staircase.push(((e.time - t0) as f64 / SECS as f64, e.total));
        }
    }
    Fig8Run {
        time_to_ban,
        bans,
        reconnect_latency,
        staircase,
    }
}

/// Runs the Figure-8 study: `duration_secs` of serial-Sybil Defamation at
/// both pacings (no delay, +1 ms), fanned across `jobs` workers. Results
/// are identical for any job count.
pub fn run_fig8(duration_secs: u64, jobs: usize) -> Fig8Result {
    let runs = btc_par::par_map(jobs, vec![0 as Nanos, MILLIS], |extra| {
        run_point(extra, duration_secs)
    });
    let [fast, slow]: [Fig8Run; 2] = runs.try_into().expect("two pacings");
    let full_ip_minutes =
        EPHEMERAL_PORTS as f64 * (fast.time_to_ban + fast.reconnect_latency) / 60.0;
    Fig8Result {
        staircase: fast.staircase,
        time_to_ban_fast: fast.time_to_ban,
        time_to_ban_slow: slow.time_to_ban,
        reconnect_latency: fast.reconnect_latency,
        bans_fast: fast.bans,
        full_ip_minutes,
    }
}

/// Renders the Figure-8 study as text.
pub fn render_fig8(r: &Fig8Result) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "Serial-Sybil Defamation via duplicate VERSION (+1 each)").unwrap();
    writeln!(out, "  time to ban, no delay : {:>7.3} s   (paper ≈ 0.1 s)", r.time_to_ban_fast).unwrap();
    writeln!(out, "  time to ban, 1 ms gap : {:>7.3} s   (paper ≈ 0.2 s)", r.time_to_ban_slow).unwrap();
    writeln!(out, "  reconnect latency     : {:>7.3} s   (paper ≈ 0.2 s)", r.reconnect_latency).unwrap();
    writeln!(out, "  identifiers banned    : {:>7}", r.bans_fast).unwrap();
    writeln!(
        out,
        "  full-IP defamation    : {:>7.2} min over {} ports (paper ≈ 81.92 min)",
        r.full_ip_minutes, EPHEMERAL_PORTS
    )
    .unwrap();
    writeln!(out, "  staircase (first identifier):").unwrap();
    for (t, score) in r
        .staircase
        .iter()
        .filter(|(_, s)| s % 20 == 0 || *s == 1 || *s == DEFAULT_BANSCORE_THRESHOLD)
    {
        writeln!(out, "    {t:>6.3} s  score {score:>3}").unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_timings_match_paper() {
        let r = run_fig8(4, 1);
        assert!((0.08..0.15).contains(&r.time_to_ban_fast), "fast {}", r.time_to_ban_fast);
        assert!((0.17..0.30).contains(&r.time_to_ban_slow), "slow {}", r.time_to_ban_slow);
        // Reconnect ≈ 0.2 s setup + SYN/handshake round-trips.
        assert!((0.15..0.35).contains(&r.reconnect_latency), "reconnect {}", r.reconnect_latency);
        assert!(r.bans_fast >= 8, "bans {}", r.bans_fast);
        // Paper's §VI-D estimate: ≈ 81.92 minutes.
        assert!((60.0..110.0).contains(&r.full_ip_minutes), "full-ip {}", r.full_ip_minutes);
    }

    #[test]
    fn staircase_rises_one_by_one_to_100() {
        let r = run_fig8(2, 1);
        assert_eq!(r.staircase.len(), 100);
        assert_eq!(r.staircase.first().map(|(_, s)| *s), Some(1));
        assert_eq!(r.staircase.last().map(|(_, s)| *s), Some(100));
        // Non-decreasing times.
        assert!(r.staircase.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn render_mentions_key_numbers() {
        let r = run_fig8(2, 1);
        let t = render_fig8(&r);
        assert!(t.contains("full-IP defamation"));
        assert!(t.contains("score 100"));
    }
}
