//! Integer facts (and, for the fault matrix, float bits and rendered text)
//! of the swarm, fault-matrix and reputation scenarios,
//! recorded before the bed, its traffic cases and the train → fan-out →
//! first-alarm study were folded into one implementation, of the serve
//! study, recorded before the detector's verdicts stopped allocating, and
//! of the §VIII countermeasure table. A refactor of the scenario or detector layer must not move
//! any of them; a PR that means to change a simulated number changes the
//! pin with it.

use banscore::countermeasure::evaluate_countermeasures;
use banscore::scenario::fault_matrix::{
    render_fault_matrix, run_fault_matrix, FaultMatrixConfig, FaultPoint,
};
use banscore::scenario::fig10::Fig10Config;
use banscore::scenario::reputation::{
    run_reputation, run_swarm_tiers, ReputationSweepConfig, SwarmTierSpec,
};
use banscore::scenario::serve::{run_serve, ServeConfig};
use banscore::scenario::swarm::{run_swarm, SwarmSpec};
use btc_netsim::time::{MILLIS, MINUTES, SECS};

const TIERS: SwarmTierSpec = SwarmTierSpec {
    swarm_hosts: 120,
    regions: 4,
    workers: 2,
    dur: 2 * SECS,
    innocents: 3,
    seed: 7,
};

#[test]
fn swarm_cases_are_pinned() {
    // (case, digest, delivered, target_msgs)
    let pins = [
        ("bm-dos", 0x88ff_794b_2759_4b42_u64, 7343, 3036),
        ("defamation", 0x3ac2_6158_ac68_9b23, 1317, 31),
        ("faults", 0xb2e0_f63d_7153_db81, 1331, 18),
    ];
    for (case, digest, delivered, target_msgs) in pins {
        let r = run_swarm(&SwarmSpec {
            case,
            swarm_hosts: 200,
            regions: 5,
            workers: 2,
            dur: 3 * SECS,
            innocents: 4,
            seed: 7,
        });
        assert_eq!(
            (r.digest, r.delivered, r.target_msgs),
            (digest, delivered, target_msgs),
            "{case}: {r:x?}"
        );
    }
}

#[test]
fn swarm_tiers_is_pinned() {
    let r = run_swarm_tiers(&TIERS);
    assert_eq!(
        (r.digest, r.graylists, r.hosts, r.target_msgs),
        (0x446c_1dec_82c3_60bf, 0, 125, 2009),
        "{r:x?}"
    );
}

#[test]
fn fault_matrix_point_is_pinned() {
    let cfg = FaultMatrixConfig {
        train: 8 * MINUTES,
        window: MINUTES,
        test: 2 * MINUTES,
        innocents: 6,
        grid: vec![FaultPoint {
            loss: 0.05,
            jitter: 2 * MILLIS,
            churn_fpm: 5,
        }],
    };
    // Run at 4 jobs against values recorded at 1 job: this is also the
    // fault layer's determinism contract (a faulty point reduces to the
    // same counters, bits and rendered text however its cases are
    // scheduled).
    let r = run_fault_matrix(&cfg, 4);
    // (case, retransmits, dropped_loss, dropped_partition, jittered, reordered)
    let pins = [
        ("normal", 825_u64, 517_u64, 181_u64, 9054_u64, 0_u64),
        ("bm-dos", 20307, 656_102, 150, 12_482_148, 0),
        ("defamation", 1166, 440, 79, 8358, 0),
    ];
    let got: Vec<_> = r.points[0]
        .cases
        .iter()
        .map(|c| {
            let f = c.fault_stats;
            (c.name, c.retransmits, f.dropped_loss, f.dropped_partition, f.jittered, f.reordered)
        })
        .collect();
    assert_eq!(got, pins);
    // Jobs-1 values. (case, detection.n, detection.c, detection.rho,
    // latency_s) as `f64::to_bits`: exact equality on purpose (same seeds,
    // same arithmetic, same order).
    let bits = [
        (
            "normal",
            0x4081_5c00_0000_0000_u64,
            0x4008_0000_0000_0000_u64,
            0x3fef_fa3b_265f_1087_u64,
            0x404e_0000_0000_0000_u64,
        ),
        (
            "bm-dos",
            0x4086_f800_0000_0000,
            0x4008_0000_0000_0000,
            0x3fec_6e28_2dfe_81e0,
            0x404e_0000_0000_0000,
        ),
        (
            "defamation",
            0x407b_9000_0000_0000,
            0x4008_0000_0000_0000,
            0x3fed_3d2b_0a1a_fe9e,
            0x404e_0000_0000_0000,
        ),
    ];
    let got: Vec<_> = r.points[0]
        .cases
        .iter()
        .map(|c| {
            let d = &c.detection;
            (c.name, d.n.to_bits(), d.c.to_bits(), d.rho.to_bits(), c.latency_s.to_bits())
        })
        .collect();
    assert_eq!(got, bits);
    assert_eq!(
        render_fault_matrix(&r),
        "Detector robustness under injected faults (profile trained clean: \
         τ_n = [476, 659]/min, τ_c ≤ 0.5/min, τ_Λ = 0.995)\n\
         point                           FP?    norm-c  norm-ρ |   dos?  lat(s) \
         |   def?  lat(s) |  dropped      rtx\n\
         loss=0.05 jit=2ms churn=5        FP      3.00   0.999 |    yes      60 \
         |    yes      60 |   657469    22298\n\
         attack recall 1.00  false-positive rate 1.00 over 1 grid points\n"
    );
}

#[test]
fn serve_cases_are_pinned() {
    // `repro --quick serve`'s configuration.
    let r = run_serve(
        ServeConfig {
            fig10: Fig10Config {
                train: 20 * MINUTES,
                window: 5 * MINUTES,
                test: 4 * MINUTES,
                innocents: 25,
            },
            window: MINUTES,
        },
        2,
    );
    // (case, events, peers, verdicts, anomalous, agreement, batch digest,
    // the digest every shard count shares)
    let pins = [
        ("normal", 1229_u64, 3_u64, 12_u64, 0_u64, (12_u64, 12_u64), 0x1dc7_f858_cfea_95e1_u64, 0x4b63_03a7_79fd_0f12_u64),
        ("bm-dos", 241_232, 4, 16, 5, (16, 16), 0x9519_e65c_e1fe_c290, 0xa2db_3bc3_2237_2993),
        ("defamation", 2393, 11, 44, 32, (44, 44), 0x4902_c036_9ae3_a657, 0x8e45_902b_495b_96af),
    ];
    let got: Vec<_> = r
        .cases
        .iter()
        .map(|c| {
            let digest = c.runs.first().map_or(0, |run| run.digest);
            assert!(c.digests_agree, "{}: {:x?}", c.name, c.runs);
            (c.name, c.events, c.peers, c.verdicts, c.anomalous, c.agreement, c.batch_digest, digest)
        })
        .collect();
    assert_eq!(got, pins);
}

#[test]
fn reputation_rows_are_pinned() {
    let cfg = ReputationSweepConfig {
        train: 6 * MINUTES,
        window: MINUTES,
        test: 2 * MINUTES,
        innocents: 6,
        churn_points: vec![5],
        swarm: TIERS,
    };
    let r = run_reputation(&cfg, 1);
    // (case, policy, bans, graylists, target_msgs, outbound_at_end)
    let pins = [
        ("bm-dos", "stock", 0_u64, 0_u64, 180_804_u64, 2_usize),
        ("bm-dos", "trust-tiers", 8, 9, 113_025, 2),
        ("defamation", "stock", 6, 0, 1201, 0),
        ("defamation", "trust-tiers", 0, 4, 1383, 2),
        ("churn=5", "stock", 0, 0, 1618, 2),
        ("churn=5", "trust-tiers", 0, 0, 1618, 2),
    ];
    let got: Vec<_> = r
        .rows
        .iter()
        .map(|row| {
            (row.case.as_str(), row.policy, row.bans, row.graylists, row.target_msgs, row.outbound_at_end)
        })
        .collect();
    assert_eq!(got, pins);
    assert_eq!(r.swarm.digest, 0x446c_1dec_82c3_60bf);
}

#[test]
fn countermeasure_rows_are_pinned() {
    // Recorded before the §VIII switches were folded into `PeerPolicy`.
    // (policy, innocent banned, innocent connected, score, strikes delivered)
    let pins = [
        ("standard (0.20.0)", true, false, 0_u32, true),
        ("threshold → ∞", false, true, 100, true),
        ("checking disabled", false, true, 0, true),
        ("good-score", false, true, 0, true),
    ];
    let got: Vec<_> = evaluate_countermeasures()
        .into_iter()
        .map(|r| (r.policy, r.innocent_banned, r.innocent_connected, r.innocent_score, r.strikes_delivered))
        .collect();
    assert_eq!(got, pins);
}
