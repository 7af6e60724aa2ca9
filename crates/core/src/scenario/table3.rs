//! Table III / Figure 7: application-layer `PING` BM-DoS vs network-layer
//! ICMP flooding — attacker cost, victim bandwidth and victim mining rate
//! across flooding rates.

use crate::contention;
use crate::testbed::{addrs, Testbed, TestbedConfig};
use btc_attack::flood::{FloodConfig, Flooder, IcmpFlooder};
use btc_attack::payload::FloodPayload;
use btc_netsim::cpu::DEFAULT_CAPACITY_HZ;
use btc_netsim::time::{as_secs_f64, Nanos, SECS};

/// One row of Table III.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// "Bitcoin PING" or "ICMP ping".
    pub layer: &'static str,
    /// Requested flooding rate (num/sec).
    pub rate: f64,
    /// Measured achieved rate (num/sec).
    pub achieved_rate: f64,
    /// Attacker CPU utilisation (%).
    pub attacker_cpu_pct: f64,
    /// Attacker working-set estimate (MB).
    pub attacker_mem_mb: f64,
    /// Victim ingress bandwidth consumed (kbit/s).
    pub bandwidth_kbits: f64,
    /// Victim mining rate (hashes/sec).
    pub mining_rate: f64,
}

/// Working-set model of the attacker tooling: the application-layer
/// attacker keeps a Bitcoin session library, per-connection buffers and
/// message cache resident; the raw-socket flooder needs almost nothing
/// (the paper measures 14.34 MB vs 2.05 MB).
fn attacker_mem_mb(app_layer: bool) -> f64 {
    if app_layer {
        14.34
    } else {
        2.05
    }
}

/// The sweep's rows in table order, as (application layer?, requested
/// rate in num/sec): Bitcoin PING at {10², 10³}, then ICMP at
/// {10², …, 10⁶}.
fn point_list() -> Vec<(bool, f64)> {
    let ping = [1e2, 1e3].map(|rate| (true, rate));
    let icmp = [1e2, 1e3, 1e4, 1e5, 1e6].map(|rate| (false, rate));
    ping.into_iter().chain(icmp).collect()
}

fn ping_row(rate: f64, duration_secs: u64) -> Table3Row {
    let mut tb = Testbed::build(TestbedConfig {
        feeders: 0,
        ..TestbedConfig::default()
    });
    // extra_interval stretches the 1000 msg/s socket floor down to `rate`.
    let extra: Nanos = if rate < 1000.0 {
        (SECS as f64 / rate) as Nanos - 1_000_000
    } else {
        0
    };
    tb.add_attacker(Flooder::new(FloodConfig {
        target: tb.target_addr,
        payload: FloodPayload::Ping,
        extra_interval: extra,
        ..FloodConfig::default()
    }));
    let duration = duration_secs * SECS;
    tb.sim.run_for(duration);
    let secs = as_secs_f64(duration);
    let attacker: &Flooder = tb.sim.app(addrs::ATTACKER).expect("flooder");
    let msgs = attacker.stats.messages_sent;
    let bytes = attacker.stats.bytes_sent;
    let attacker_busy = tb.sim.host_cpu(addrs::ATTACKER).cum_busy();
    let victim_rx = tb.sim.host_counters(tb.target).rx_bytes;
    Table3Row {
        layer: "Bitcoin PING",
        rate,
        achieved_rate: msgs as f64 / secs,
        attacker_cpu_pct: attacker_busy as f64 / secs / DEFAULT_CAPACITY_HZ as f64 * 100.0,
        attacker_mem_mb: attacker_mem_mb(true),
        bandwidth_kbits: victim_rx as f64 * 8.0 / secs / 1000.0,
        mining_rate: contention::mining_rate(contention::app_layer_load(msgs, bytes, secs)),
    }
}

fn icmp_row(rate: f64, duration_secs: u64) -> Table3Row {
    let mut tb = Testbed::build(TestbedConfig {
        feeders: 0,
        ..TestbedConfig::default()
    });
    tb.add_attacker(IcmpFlooder::new(addrs::TARGET, rate));
    let duration = duration_secs * SECS;
    tb.sim.run_for(duration);
    let secs = as_secs_f64(duration);
    let attacker: &IcmpFlooder = tb.sim.app(addrs::ATTACKER).expect("icmp flooder");
    let sent = attacker.stats.sent;
    let attacker_busy = tb.sim.host_cpu(addrs::ATTACKER).cum_busy();
    let victim_rx = tb.sim.host_counters(tb.target).rx_bytes;
    Table3Row {
        layer: "ICMP ping",
        rate,
        achieved_rate: sent as f64 / secs,
        attacker_cpu_pct: attacker_busy as f64 / secs / DEFAULT_CAPACITY_HZ as f64 * 100.0,
        attacker_mem_mb: attacker_mem_mb(false),
        bandwidth_kbits: victim_rx as f64 * 8.0 / secs / 1000.0,
        mining_rate: contention::mining_rate(contention::network_layer_load(sent, secs)),
    }
}

/// Runs the full Table III sweep (also the data behind Figure 7) on `jobs`
/// worker threads. Each row runs against a fresh deterministic testbed and
/// reduces through the calibrated contention model, so row order
/// and contents are identical for any job count.
pub fn run_table3(duration_secs: u64, jobs: usize) -> Vec<Table3Row> {
    btc_par::par_map(jobs, point_list(), |(app_layer, rate)| {
        if app_layer {
            ping_row(rate, duration_secs)
        } else {
            icmp_row(rate, duration_secs)
        }
    })
}

/// Renders Table III as text.
pub fn render_table3(rows: &[Table3Row]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "{:<13} {:>9} {:>10} {:>8} {:>8} {:>14} {:>14}",
        "Layer", "Rate", "Achieved", "CPU %", "MEM MB", "BW kbit/s", "Mining h/s"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:<13} {:>9.0} {:>10.0} {:>8.2} {:>8.2} {:>14.2} {:>14.0}",
            r.layer,
            r.rate,
            r.achieved_rate,
            r.attacker_cpu_pct,
            r.attacker_mem_mb,
            r.bandwidth_kbits,
            r.mining_rate
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bm_dos_rate_capped_at_1e3() {
        // The paper: the application-layer flood cannot exceed ~10³ msg/s.
        let row = ping_row(1e6, 2);
        assert!(row.achieved_rate < 1_200.0, "rate {}", row.achieved_rate);
    }

    #[test]
    fn icmp_reaches_much_higher_rates() {
        let row = icmp_row(1e5, 2);
        assert!(row.achieved_rate > 80_000.0, "rate {}", row.achieved_rate);
    }

    #[test]
    fn same_rate_bm_dos_hurts_mining_more() {
        // Figure 7's core claim at 10² and 10³ pkt/s.
        for rate in [1e2, 1e3] {
            let ping = ping_row(rate, 2);
            let icmp = icmp_row(rate, 2);
            assert!(
                ping.mining_rate < icmp.mining_rate,
                "rate {rate}: ping {} icmp {}",
                ping.mining_rate,
                icmp.mining_rate
            );
        }
    }

    #[test]
    fn icmp_consumes_more_bandwidth_at_higher_rates() {
        let slow = icmp_row(1e3, 2);
        let fast = icmp_row(1e5, 2);
        assert!(fast.bandwidth_kbits > 10.0 * slow.bandwidth_kbits);
    }

    #[test]
    fn icmp_megaflood_degrades_mining() {
        let row = icmp_row(1e6, 2);
        // Paper: 3.59e5 h/s at 10⁶ pps.
        assert!((2.8e5..4.6e5).contains(&row.mining_rate), "{}", row.mining_rate);
    }

    #[test]
    fn attacker_memory_ordering() {
        let ping = ping_row(1e2, 1);
        let icmp = icmp_row(1e2, 1);
        assert!(ping.attacker_mem_mb > icmp.attacker_mem_mb);
    }

    #[test]
    fn render_contains_both_layers() {
        let rows = vec![ping_row(1e2, 1), icmp_row(1e2, 1)];
        let t = render_table3(&rows);
        assert!(t.contains("Bitcoin PING"));
        assert!(t.contains("ICMP ping"));
    }
}
