//! The ablation studies for the design choices DESIGN.md §5 calls out:
//! ban threshold, checksum-check ordering, ban duration, good-score
//! credit requirement, detection window length and Sybil reconnect
//! pacing. Each is a `repro` experiment of its own; the group `ablate`
//! runs all six.
//!
//! The ablations have one size and write no CSV, so they ignore
//! `--quick` and `--csv`. The simulator-driven sweeps (threshold,
//! reconnect pacing) run their independently-seeded points on `--jobs`
//! workers; rows are collected first and printed in sweep order, so the
//! output is identical for any job count.

use banscore::testbed::{addrs, Testbed, TestbedConfig};
use btc_attack::flood::{FloodConfig, Flooder};
use btc_attack::payload::FloodPayload;
use btc_detect::engine::AnalysisEngine;
use btc_netsim::time::{MILLIS, MINUTES, SECS};
use btc_node::node::NodeConfig;
use crate::args::{ReproArgs, ReproConfig};

fn section(title: &str) {
    crate::section(&format!("ablation: {title}"));
}

/// How long a Defamation ban takes as the `-banscore` threshold varies.
pub fn threshold(_: &ReproConfig, args: &ReproArgs) -> bool {
    section("ban threshold (default 100)");
    println!(
        "{:<10} {:>14} {:>18}",
        "threshold", "msgs to ban", "time to ban (s)"
    );
    let rows = btc_par::par_map(args.jobs, vec![10u32, 50, 100, 200, 500], |threshold| {
        let mut tb = Testbed::build(TestbedConfig {
            feeders: 0,
            node: NodeConfig {
                ban_threshold: threshold,
                ..NodeConfig::default()
            },
            ..TestbedConfig::default()
        });
        tb.add_attacker(Flooder::new(FloodConfig {
            target: tb.target_addr,
            payload: FloodPayload::DuplicateVersion,
            reconnect_on_ban: true,
            sybil_port_start: 50_000,
            ..FloodConfig::default()
        }));
        tb.sim.run_for(5 * SECS);
        let attacker: &Flooder = tb.sim.app(addrs::ATTACKER).expect("flooder");
        let msgs = attacker.stats.bans.first().map(|b| b.messages).unwrap_or(0);
        let ttb = attacker.mean_time_to_ban().unwrap_or(f64::NAN);
        (threshold, msgs, ttb)
    });
    for (threshold, msgs, ttb) in rows {
        println!("{threshold:<10} {msgs:>14} {ttb:>18.3}");
    }
    println!("\nLinear in the threshold: raising it only rescales the Defamation");
    println!("timeline; it cannot fix the mechanism.");
    true
}

/// What changes if the node (counterfactually) scored bad-checksum frames.
pub fn check_order(_: &ReproConfig, _: &ReproArgs) -> bool {
    section("checksum-first vs punish-bad-checksum (BM-DoS vector 2)");
    println!(
        "{:<26} {:>14} {:>12} {:>12}",
        "policy", "frames dropped", "bans", "note"
    );
    for (name, points) in [("stock (drop silently)", None), ("punish +20/frame", Some(20))] {
        let mut tb = Testbed::build(TestbedConfig {
            feeders: 0,
            node: NodeConfig {
                punish_bad_checksum_score: points,
                ..NodeConfig::default()
            },
            ..TestbedConfig::default()
        });
        tb.add_attacker(Flooder::new(FloodConfig {
            target: tb.target_addr,
            payload: FloodPayload::BogusChecksumBlock {
                payload_bytes: 50_000,
            },
            reconnect_on_ban: true,
            sybil_port_start: 50_000,
            ..FloodConfig::default()
        }));
        tb.sim.run_for(5 * SECS);
        let node = tb.target_node();
        let note = if points.is_some() {
            "attack devolves into serial Sybil"
        } else {
            "attack runs forever unpunished"
        };
        println!(
            "{:<26} {:>14} {:>12} {:>12}",
            name, node.telemetry.bad_checksum_frames, node.telemetry.bans, note
        );
    }
    println!("\nPunishing checksum failures closes vector 2 but cannot stop the");
    println!("Sybil reconnection loop — and would let *network* corruption ban");
    println!("honest peers, which is why Core never did it.");
    true
}

/// Ban duration: how long one defamed identifier stays locked out.
pub fn duration(_: &ReproConfig, _: &ReproArgs) -> bool {
    section("ban duration (default 24 h)");
    println!("{:<14} {:>22}", "duration", "identifier locked for");
    for (name, secs) in [("1 h", 3_600u64), ("24 h (stock)", 86_400), ("7 d", 604_800)] {
        // Pure arithmetic on the ban list.
        let mut bm = btc_node::BanMan::with_duration(secs * SECS);
        let id = btc_netsim::packet::SockAddr::new([10, 0, 0, 9], 50_000);
        bm.ban(0, id);
        let still = bm.is_banned(secs * SECS - 1, &id);
        let after = bm.is_banned(secs * SECS, &id);
        println!(
            "{:<14} {:>18}s ({}→{})",
            name, secs, still, after
        );
    }
    println!("\nLonger bans only raise the damage of each Defamation strike: the");
    println!("paper's full-IP attack needs ~82 min to lock an IP out for the whole");
    println!("ban window, whatever its length.");
    true
}

/// Good-score credit requirement vs shielding.
pub fn good_score(_: &ReproConfig, _: &ReproArgs) -> bool {
    section("good-score minimum credit");
    println!("{:<12} {:>10} {:>16}", "min credit", "earned", "shielded?");
    for min_credit in [1u64, 2, 5] {
        let mut g = btc_node::banscore::GoodScoreTracker::new();
        let peer = btc_netsim::packet::SockAddr::new([10, 0, 0, 9], 8333);
        g.credit(0, peer); // one valid block relayed
        println!(
            "{:<12} {:>10} {:>16}",
            min_credit,
            g.score(0, &peer),
            g.is_trusted(0, &peer, min_credit)
        );
    }
    println!("\nHigher credit floors resist longer defamation campaigns but delay");
    println!("protection for young honest peers.");
    true
}

/// Detection window length: resolution vs latency of the `c` feature.
pub fn window(_: &ReproConfig, _: &ReproArgs) -> bool {
    section("detection window length (paper: 10 min)");
    let engine = AnalysisEngine;
    // Train on clean traffic.
    let mut tb = Testbed::build(TestbedConfig::default());
    tb.sim.run_for(30 * MINUTES);
    println!(
        "{:<12} {:>10} {:>12} {:>14}",
        "window", "windows", "τ_n low", "τ_n high"
    );
    for minutes in [1u64, 5, 10, 20] {
        let windows = tb.windows(MINUTES, 30 * MINUTES, minutes * MINUTES);
        if windows.is_empty() {
            continue;
        }
        let profile = engine.train(&windows).expect("windows");
        println!(
            "{:<12} {:>10} {:>12.0} {:>14.0}",
            format!("{minutes} min"),
            windows.len(),
            profile.tau_n.0,
            profile.tau_n.1
        );
    }
    println!("\nShort windows give noisy thresholds (false positives); long windows");
    println!("delay detection. 10 minutes balances both, as the paper chose.");
    true
}

/// Sybil reconnect pacing: attacker cost of the 0.2 s socket latency.
pub fn reconnect(_: &ReproConfig, args: &ReproArgs) -> bool {
    section("serial-Sybil reconnect latency");
    println!("{:<16} {:>10} {:>18}", "setup delay", "bans/5s", "bans/min (extrap)");
    let pacings = vec![("50 ms", 50 * MILLIS), ("200 ms (paper)", 200 * MILLIS), ("1 s", SECS)];
    let rows = btc_par::par_map(args.jobs, pacings, |(name, delay)| {
        let mut tb = Testbed::build(TestbedConfig {
            feeders: 0,
            ..TestbedConfig::default()
        });
        tb.add_attacker(Flooder::new(FloodConfig {
            target: tb.target_addr,
            payload: FloodPayload::DuplicateVersion,
            reconnect_on_ban: true,
            sybil_port_start: 50_000,
            connect_setup_delay: delay,
            ..FloodConfig::default()
        }));
        tb.sim.run_for(5 * SECS);
        let attacker: &Flooder = tb.sim.app(addrs::ATTACKER).expect("flooder");
        (name, attacker.stats.bans.len())
    });
    for (name, bans) in rows {
        println!("{:<16} {:>10} {:>18.1}", name, bans, bans as f64 * 12.0);
    }
    true
}
