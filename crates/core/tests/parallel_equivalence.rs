//! End-to-end check of the parallel-sweep determinism contract: fanning a
//! scenario's points across worker threads must not change a single byte
//! of its output. Every point is an independent, freshly-seeded simulator,
//! so `--jobs N` is a pure scheduling decision.
//!
//! The container running CI may have a single core; that is fine — the
//! pool still exercises the shared queue by time-slicing its workers.
//!
//! The fault matrix's contract lives in
//! `scenario_pins::fault_matrix_point_is_pinned`, which runs a faulty
//! point at 4 jobs against values recorded at 1 job.

use banscore::scenario::evasion::{render_evasion, run_evasion, EvasionConfig};
use banscore::scenario::fig10::{render_fig10, run_fig10, Fig10Config};
use banscore::scenario::fig6::{render_fig6, run_fig6};
use banscore::scenario::fig8::{render_fig8, run_fig8};
use banscore::scenario::reputation::{
    render_reputation, run_reputation, ReputationSweepConfig, SwarmTierSpec,
};
use banscore::scenario::table3::{render_table3, run_table3};
use btc_netsim::time::{MINUTES, SECS};

#[test]
fn fig6_identical_at_jobs_1_and_4() {
    let serial = run_fig6(1, 1);
    let parallel = run_fig6(1, 4);
    assert_eq!(serial.len(), parallel.len());
    // Exact float equality is intentional: same seeds, same arithmetic,
    // same order — parallelism must not perturb anything.
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.attack, p.attack);
        assert_eq!(s.connections, p.connections);
        assert_eq!(s.msgs_per_sec.to_bits(), p.msgs_per_sec.to_bits());
        assert_eq!(s.mbits_per_sec.to_bits(), p.mbits_per_sec.to_bits());
        assert_eq!(s.mining_rate.to_bits(), p.mining_rate.to_bits());
    }
    assert_eq!(render_fig6(&serial), render_fig6(&parallel));
}

#[test]
fn table3_render_identical_at_jobs_1_and_3() {
    let serial = run_table3(1, 1);
    let parallel = run_table3(1, 3);
    assert_eq!(render_table3(&serial), render_table3(&parallel));
}

#[test]
fn fig8_render_identical_at_jobs_1_and_4() {
    assert_eq!(render_fig8(&run_fig8(2, 1)), render_fig8(&run_fig8(2, 4)));
}

#[test]
fn fig10_render_identical_at_jobs_1_and_4() {
    let cfg = Fig10Config {
        train: 6 * MINUTES,
        window: 2 * MINUTES,
        test: 2 * MINUTES,
        innocents: 6,
    };
    assert_eq!(
        render_fig10(&run_fig10(cfg, 1)),
        render_fig10(&run_fig10(cfg, 4))
    );
}

#[test]
fn evasion_render_identical_at_jobs_1_and_4() {
    let cfg = EvasionConfig {
        train: 6 * MINUTES,
        window: 2 * MINUTES,
        test: 2 * MINUTES,
        // Few bogus blocks: the checksum pass over them dominates a
        // debug-build run.
        attack_weight: 0.01,
    };
    // One rate inside the detector's headroom, one far above it.
    let rates = [30.0, 3_000.0];
    assert_eq!(
        render_evasion(&run_evasion(cfg, &rates, 1)),
        render_evasion(&run_evasion(cfg, &rates, 4))
    );
}

#[test]
fn reputation_identical_at_jobs_1_and_3() {
    // The one sweep with float decay in the node itself (the trust-tier
    // engine): recovery times and detection latencies must come out
    // bit-identical however the (case, policy) runs are scheduled.
    let cfg = ReputationSweepConfig {
        train: 6 * MINUTES,
        window: MINUTES,
        test: 2 * MINUTES,
        innocents: 6,
        churn_points: vec![5],
        swarm: SwarmTierSpec {
            swarm_hosts: 120,
            regions: 4,
            workers: 2,
            dur: 2 * SECS,
            innocents: 3,
            seed: 7,
        },
    };
    let serial = run_reputation(&cfg, 1);
    let parallel = run_reputation(&cfg, 3);
    for (s, p) in serial.rows.iter().zip(&parallel.rows) {
        assert_eq!((s.policy, &s.case), (p.policy, &p.case));
        assert_eq!(s.recovery_s.to_bits(), p.recovery_s.to_bits(), "{s:?}");
        assert_eq!(s.latency_s.to_bits(), p.latency_s.to_bits(), "{s:?}");
    }
    assert_eq!(serial.swarm, parallel.swarm);
    assert_eq!(render_reputation(&serial), render_reputation(&parallel));
}
