//! `swarm_ping`: `banscore::scenario::swarm::run_swarm`, case `bm-dos`,
//! on the sharded simulator with two workers. Rounds, mailboxes and
//! barriers do nearly all the work and the node almost none — the mirror
//! image of `relay_mix`.

use crate::probes;
use crate::trace::Tracer;
use crate::workloads::{per, Baseline, Layers, Rep, Workload};
use banscore::scenario::swarm::{run_swarm, SwarmOutcome, SwarmSpec};
use btc_netsim::shard::DEFAULT_REGION_LATENCY;
use btc_netsim::time::{Nanos, MILLIS, SECS};

const REGIONS: u32 = 8;
const WORKERS: usize = 2;
const INNOCENTS: usize = 4;

pub struct SwarmPing {
    spec: SwarmSpec,
}

impl SwarmPing {
    pub fn setup(seed: u64, smoke: bool) -> SwarmPing {
        let (swarm_hosts, dur) = if smoke {
            (400, 4 * SECS)
        } else {
            (20_000, 40 * SECS)
        };
        let spec = SwarmSpec {
            case: "bm-dos",
            swarm_hosts,
            regions: REGIONS,
            workers: WORKERS,
            dur,
            innocents: INNOCENTS,
            seed,
        };
        // The topology is rebuilt inside every `run_swarm`; a run of zero
        // duration is that build and nothing else.
        std::hint::black_box(run_swarm(&SwarmSpec { dur: 0, ..spec }));
        SwarmPing { spec }
    }

    /// Echo requests of the hosts `run_swarm` samples that were sent early
    /// enough for the reply to be back before the end even across two
    /// regions. The schedule is index-derived (see `SwarmPinger`), so this
    /// needs no access to the run.
    fn answerable_probes(&self) -> u64 {
        let n = self.spec.swarm_hosts;
        let stride = (n / 32).max(1);
        let deadline = self.spec.dur.saturating_sub(2 * DEFAULT_REGION_LATENCY);
        (0..n)
            .step_by(stride)
            .map(|i| {
                let period = 250 * MILLIS + (i as u64 % 64) * 25 * MILLIS;
                let first_target_low_byte = ((i + 1) % n) as u8;
                let phase: Nanos = period / 2 + (u64::from(first_target_low_byte) + 1) * 7 * MILLIS;
                if deadline < phase {
                    0
                } else {
                    (deadline - phase) / period + 1
                }
            })
            .sum()
    }
}

impl Workload for SwarmPing {
    type Done = SwarmOutcome;

    fn rep(&self, tracer: &mut Tracer) -> (Rep, SwarmOutcome) {
        let (o, wall_ns) = tracer.span("rep", |t| {
            let (o, _) = t.span("core.run_swarm", |_| {
                let o = run_swarm(&self.spec);
                (o, o.delivered)
            });
            (o, 0)
        });
        let attempted = self.answerable_probes();
        let mut violations = Vec::new();
        if o.dropped != 0 {
            violations.push(format!("{} packets dropped on a clean network", o.dropped));
        }
        if o.flood_msgs == 0 || o.target_msgs < o.flood_msgs {
            violations.push(format!(
                "the flooder sent {} messages, the target logged {}",
                o.flood_msgs, o.target_msgs
            ));
        }
        let rep = Rep {
            wall_ns,
            ops: o.delivered,
            attempted,
            failed: attempted.saturating_sub(o.swarm_replies),
            digest: o.digest,
            violations,
            note: format!(
                "hosts={} delivered={} target_msgs={} flood_msgs={} sampled_replies={} answerable={attempted}",
                o.hosts, o.delivered, o.target_msgs, o.flood_msgs, o.swarm_replies
            ),
        };
        (rep, o)
    }

    fn probes(
        &self,
        _rep: &Rep,
        done: SwarmOutcome,
        base: &Baseline,
        tracer: &mut Tracer,
        out: &mut Layers,
    ) {
        let (built, build_ns) = tracer.span("probe.netsim.shard.build", |_| {
            let o = run_swarm(&SwarmSpec {
                dur: 0,
                ..self.spec
            });
            (o, o.hosts as u64)
        });
        out.set(
            "netsim.shard.build_ns_per_host",
            per(build_ns as f64, built.hosts as u64),
        );
        out.covered_ns += build_ns as f64;

        let (single, w1_ns) = tracer.span("probe.netsim.shard.workers_1", |_| {
            let o = run_swarm(&SwarmSpec {
                workers: 1,
                ..self.spec
            });
            (o, o.delivered)
        });
        assert_eq!(single, done, "the worker count must not change the outcome");
        out.set(
            "netsim.shard.pkts_per_s_w1",
            single.delivered as f64 / (w1_ns as f64 / 1e9),
        );
        out.set("netsim.shard.speedup", w1_ns as f64 / base.untraced_wall_ns);
        // With one worker nothing waits at a barrier: the serial share of the rep.
        out.covered_ns += (w1_ns.saturating_sub(build_ns)) as f64 / WORKERS as f64;
        probes::phase_rounds(tracer, out);
    }
}
