//! The attacker-side socket model: what limits the achievable flooding
//! rate.
//!
//! The paper reports three empirical caps for its Python attack
//! implementation (§VI-C): (1) an application-layer send cap of ~10³
//! messages per second per socket — "if the attacker node increases the
//! rate beyond that value … the pipeline breaks"; (2) sublinear scaling
//! when the attacker fans out over threads (GIL/scheduler contention);
//! (3) the NIC/link bandwidth, which is what actually limits megabyte
//! `BLOCK` floods. Network-layer tools (`hping`) bypass (1) and reach 10⁶
//! packets per second.
//!
//! The caps are one calibration of the paper's attacker, held fixed for
//! every experiment, so the model is the `const`s below and the free
//! functions that read them ([`aggregate_rate`], [`min_interval`]).

use btc_netsim::time::{Nanos, SECS};

/// Per-socket application-layer message rate cap (msg/s) — the paper's 10³.
pub const APP_LAYER_RATE_CAP: f64 = 1_000.0;

/// Attacker NIC bandwidth in bits/second (the testbed's gigabit-class
/// adapter, full-duplex headroom included).
pub const LINK_BANDWIDTH_BPS: f64 = 2.0e9;

/// Thread-efficiency exponent: `n` flooding threads achieve an aggregate
/// rate ∝ `n^THREAD_EFFICIENCY_EXP` (calibrated against Figure 6's Sybil
/// scaling; 1.0 would be perfect scaling).
pub const THREAD_EFFICIENCY_EXP: f64 = 0.35;

/// Network-layer (raw-socket) rate cap in packets/second — the paper's
/// `hping` ceiling of 10⁶.
pub const NETWORK_LAYER_RATE_CAP: f64 = 1_000_000.0;

/// Aggregate achievable message rate (msg/s) over `n` connections for
/// messages of `msg_bytes` on the wire.
pub fn aggregate_rate(n: usize, msg_bytes: usize) -> f64 {
    let n = n.max(1) as f64;
    let thread_rate = APP_LAYER_RATE_CAP * n.powf(THREAD_EFFICIENCY_EXP);
    let bw_rate = LINK_BANDWIDTH_BPS / 8.0 / msg_bytes.max(1) as f64;
    thread_rate.min(bw_rate)
}

/// Per-connection achievable rate (msg/s).
pub fn per_conn_rate(n: usize, msg_bytes: usize) -> f64 {
    aggregate_rate(n, msg_bytes) / n.max(1) as f64
}

/// Minimum inter-message interval for one of `n` connections, in virtual
/// nanoseconds.
pub fn min_interval(n: usize, msg_bytes: usize) -> Nanos {
    let rate = per_conn_rate(n, msg_bytes);
    (SECS as f64 / rate).ceil() as Nanos
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_messages_hit_the_app_cap() {
        // A ~100-byte ping from one socket: limited by the 10³ cap, not
        // bandwidth.
        assert!((aggregate_rate(1, 100) - 1000.0).abs() < 1.0);
        assert_eq!(min_interval(1, 100), 1_000_000); // 1 ms
    }

    #[test]
    fn megabyte_blocks_hit_the_bandwidth_cap() {
        // 1 MB messages: 2 Gbps / 8 Mbit = 250 msg/s ≪ 1000 msg/s.
        let rate = aggregate_rate(1, 1_000_000);
        assert!((rate - 250.0).abs() < 1.0, "rate {rate}");
    }

    #[test]
    fn thread_scaling_is_sublinear() {
        let r1 = aggregate_rate(1, 100);
        let r10 = aggregate_rate(10, 100);
        let r20 = aggregate_rate(20, 100);
        assert!(r10 > r1 && r20 > r10, "monotone");
        assert!(r10 < 10.0 * r1, "sublinear at 10");
        assert!(r20 < 2.0 * r10, "diminishing returns");
    }

    #[test]
    fn bandwidth_cap_shared_across_connections() {
        // 1 MB blocks: total stays ~250/s no matter how many sockets.
        let r20 = aggregate_rate(20, 1_000_000);
        assert!((r20 - 250.0).abs() < 1.0, "rate {r20}");
        assert!(per_conn_rate(20, 1_000_000) < 15.0);
    }

    #[test]
    fn interval_is_inverse_of_rate() {
        let rate = per_conn_rate(4, 100);
        let ival = min_interval(4, 100);
        let recon = SECS as f64 / ival as f64;
        assert!((recon - rate).abs() / rate < 0.01);
    }
}
