//! `repro swarm` — the paper's attack testbed embedded in a 100k+ host
//! background swarm, executed on a many-region simulator (the region
//! rounds of [`btc_netsim::shard`]).
//!
//! The scenario answers the scale question the serial testbed cannot: the
//! BM-DoS and Defamation measurements were taken against a handful of
//! nodes, but the production network the attacks target has orders of
//! magnitude more (mostly unreachable) peers whose traffic the victim's
//! region still carries. Here the §V testbed — target node, Mainnet
//! feeders, innocent peers, attacker — is pinned into region 0 (the
//! attacker's tap must see victim traffic live, and sniffing is
//! region-local), while `swarm_hosts` additional hosts running periodic
//! ICMP probes are spread across every region by the seed-deterministic
//! region assignment. Region 0 of k regions replays a one-region run of
//! the same hosts exactly (`tests/end_to_end.rs` checks it for a whole
//! node under flood), so the bed measures here what it measures alone.
//!
//! Three cases, mirroring the fault-matrix sweep at swarm scale:
//!
//! * `bm-dos` — a serial-Sybil PING flooder against the target;
//! * `defamation` — the post-connection Defamer striking the target's
//!   innocent peers off a live region-0 tap;
//! * `faults` — no attacker, but i.i.d. loss + jitter plus scheduled
//!   link flaps of the target's peers (the adverse-network case).
//!
//! Everything in [`SwarmOutcome`] is deterministic and independent of
//! [`SwarmSpec::workers`] — the worker count only decides which OS thread
//! executes which region. The wall-clock benchmarking around this
//! scenario lives in the `repro` binary (`src/bin/repro/swarm.rs`),
//! keeping this crate free of wall-clock reads per the lint contract.

use crate::testbed::{addrs, churn_plan, install_case, BedPlan, Case};
use btc_attack::defamation::PostConnDefamer;
use btc_attack::flood::Flooder;
use btc_netsim::faults::{FaultPlan, LinkFaults};
use btc_netsim::packet::Ipv4;
use btc_netsim::sim::{App, Ctx, HostConfig, SimConfig, Simulator};
use btc_netsim::time::{Nanos, MILLIS, SECS};
use btc_node::node::{Node, NodeConfig};
use std::any::Any;

/// The evaluated cases, in presentation order.
pub const CASES: [&str; 3] = ["bm-dos", "defamation", "faults"];

/// Link faults of the `faults` case.
const FAULT_LOSS: f64 = 0.01;
const FAULT_JITTER: Nanos = 2 * MILLIS;

/// One fully specified swarm run.
#[derive(Clone, Copy, Debug)]
pub struct SwarmSpec {
    /// One of [`CASES`].
    pub case: &'static str,
    /// Background swarm hosts (the attack core adds a few more).
    pub swarm_hosts: usize,
    /// Region count — part of the experiment configuration (fixes the
    /// partition and the RNG streams).
    pub regions: u32,
    /// Worker threads — pure execution knob, must not change any output.
    pub workers: usize,
    /// Measured virtual duration.
    pub dur: Nanos,
    /// Innocent peers the target dials (the Defamation victims).
    pub innocents: usize,
    /// Simulation seed.
    pub seed: u64,
}

/// Everything a swarm run reduces to. Every field is deterministic; the
/// digest folds the rest plus sampled per-host counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwarmOutcome {
    /// Total hosts simulated (swarm + attack core).
    pub hosts: usize,
    /// FNV-1a over the run's observable state (the CI byte-equality
    /// anchor).
    pub digest: u64,
    /// Packets delivered across all regions.
    pub delivered: u64,
    /// Messages the target node processed.
    pub target_msgs: u64,
    /// Bans the target issued.
    pub target_bans: u64,
    /// ICMP echo replies received by the sampled swarm hosts.
    pub swarm_replies: u64,
    /// Fault-layer drops (loss + partition).
    pub dropped: u64,
    /// Defamation strikes performed (0 outside the `defamation` case).
    pub strikes: u64,
    /// Flood messages sent (0 outside the `bm-dos` case).
    pub flood_msgs: u64,
}

/// The `i`-th background swarm host: 172.16.0.0 onwards, ascending.
pub fn swarm_ip(i: usize) -> Ipv4 {
    assert!(i < 240 << 16, "swarm address plan exhausted");
    [172, 16 + (i >> 16) as u8, (i >> 8) as u8, i as u8]
}

/// A background swarm host: staggered periodic ICMP probes to two fixed
/// swarm peers. Targets, period and phase are all index-derived, so the
/// traffic pattern is a function of the topology alone.
struct SwarmPinger {
    targets: [Ipv4; 2],
    period: Nanos,
    next: usize,
    replies: u64,
}

impl App for SwarmPinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Phase-stagger the first probe so start-up is not one burst.
        let phase = self.period / 2 + (u64::from(self.targets[0][3]) + 1) * 7 * MILLIS;
        ctx.set_timer(phase, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let dst = self.targets[self.next % self.targets.len()];
        self.next += 1;
        ctx.send_icmp(dst, 4, (self.next & 0xFFFF) as u16, 56);
        ctx.set_timer(self.period, 0);
    }
    fn on_icmp(&mut self, _ctx: &mut Ctx<'_>, _from: Ipv4, echo: &btc_netsim::packet::IcmpEcho) {
        if !echo.request {
            self.replies += 1;
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The §V bed in region 0 of a many-region simulator, embedded in a
/// background swarm spread over every region by the seed-deterministic
/// region assignment. Shared with the `reputation` scenario's swarm case.
pub(crate) struct SwarmBed {
    pub(crate) sim: Simulator,
    /// The traffic case [`SwarmSpec::case`] names.
    pub(crate) case: Case,
    /// Total hosts simulated (bed + attacker + swarm).
    pub(crate) hosts: usize,
    swarm_hosts: usize,
}

impl SwarmBed {
    /// Builds `spec`'s topology around a target running `node` and runs it
    /// for `spec.dur`: the bed (with `feeders` feeders) and the case's
    /// attacker pinned into region 0, then the pingers straight into the
    /// simulator.
    ///
    /// # Panics
    ///
    /// Panics on an unknown [`SwarmSpec::case`].
    pub(crate) fn run(spec: &SwarmSpec, node: NodeConfig, feeders: usize) -> SwarmBed {
        let case = match spec.case {
            "bm-dos" => Case::PingFlood { sybil: true },
            "defamation" => Case::Defamation { poll: 100 * MILLIS },
            "faults" => Case::Normal,
            other => panic!("unknown swarm case {other}"),
        };
        // No attacker means the adverse network: i.i.d. loss + jitter, and
        // one innocent down for 400 ms every second — the swarm-scale
        // analogue of the fault-matrix churn dimension.
        let (faults, fault_plan) = if case == Case::Normal {
            let faults = LinkFaults {
                loss: FAULT_LOSS,
                jitter: FAULT_JITTER,
                ..LinkFaults::NONE
            };
            (faults, churn_plan(SECS, SECS, 400 * MILLIS, spec.innocents, spec.dur))
        } else {
            (LinkFaults::NONE, FaultPlan::none())
        };
        let mut sim = Simulator::new(SimConfig {
            regions: spec.regions,
            workers: spec.workers,
            seed: spec.seed,
            faults,
            ..SimConfig::default()
        });
        sim.set_fault_plan(fault_plan);
        let plan = BedPlan::new(node, spec.innocents, 2.min(spec.innocents), feeders);
        plan.install(&mut sim);
        install_case(&mut sim, plan.target_addr, &plan.innocent_ips, case);
        let n = spec.swarm_hosts;
        for i in 0..n {
            let targets = [swarm_ip((i + 1) % n), swarm_ip((i * 7 + 3) % n)];
            let period = 250 * MILLIS + (i as u64 % 64) * 25 * MILLIS;
            sim.add_host(
                swarm_ip(i),
                Box::new(SwarmPinger {
                    targets,
                    period,
                    next: 0,
                    replies: 0,
                }),
                HostConfig::default(),
            );
        }
        sim.run_for(spec.dur);
        SwarmBed {
            sim,
            case,
            hosts: plan.hosts() + usize::from(case != Case::Normal) + n,
            swarm_hosts: n,
        }
    }

    /// `[rx_packets, rx_bytes, tx_packets, tx_bytes, replies]` of every
    /// `n/32`-th swarm host — the sample keeps the reduction O(1)-ish at
    /// 100k hosts while still covering every region statistically.
    pub(crate) fn samples(&self) -> Vec<[u64; 5]> {
        let stride = (self.swarm_hosts / 32).max(1);
        (0..self.swarm_hosts)
            .step_by(stride)
            .map(|i| {
                let ip = swarm_ip(i);
                let c = self.sim.host_counters(ip);
                let p: &SwarmPinger = self.sim.app(ip).expect("swarm host is a pinger");
                [c.rx_packets, c.rx_bytes, c.tx_packets, c.tx_bytes, p.replies]
            })
            .collect()
    }

    /// FNV-1a over a run's observable state (the CI byte-equality
    /// anchor): the first `words` counters of every sample, then `facts`,
    /// the target host's transport counters, `tail` and the host count.
    pub(crate) fn digest(
        &self,
        samples: &[[u64; 5]],
        words: usize,
        facts: &[u64],
        tail: &[u64],
    ) -> u64 {
        let c = self.sim.host_counters(addrs::TARGET);
        let target = [c.rx_packets, c.rx_bytes, c.tx_packets, c.tx_bytes];
        let hosts = [self.hosts as u64];
        samples
            .iter()
            .map(|s| &s[..words])
            .chain([facts, &target, tail, &hosts])
            .flatten()
            .fold(0xCBF2_9CE4_8422_2325, |h, v| (h ^ v).wrapping_mul(0x100_0000_01B3))
    }

    pub(crate) fn target_node(&self) -> &Node {
        self.sim.app(addrs::TARGET).expect("target is a Node")
    }
}

/// Runs one swarm case end to end and reduces it to its deterministic
/// outcome.
///
/// # Panics
///
/// Panics on an unknown [`SwarmSpec::case`].
pub fn run_swarm(spec: &SwarmSpec) -> SwarmOutcome {
    let bed = SwarmBed::run(spec, NodeConfig::default(), 3);
    let fs = bed.sim.fault_stats();
    let delivered = bed.sim.delivered_packets();
    let node = bed.target_node();
    let (target_msgs, target_bans) = (node.telemetry.messages.len() as u64, node.telemetry.bans);
    let (strikes, flood_msgs) = match bed.case {
        Case::Normal => (0, 0),
        Case::PingFlood { .. } => {
            let f: &Flooder = bed.sim.app(addrs::ATTACKER).expect("flooder present");
            (0, f.stats.messages_sent)
        }
        Case::Defamation { .. } => {
            let d: &PostConnDefamer = bed.sim.app(addrs::ATTACKER).expect("defamer present");
            (d.records.len() as u64, 0)
        }
    };

    let samples = bed.samples();
    let facts = [
        delivered,
        fs.dropped_loss,
        fs.dropped_partition,
        fs.jittered,
        fs.reordered,
        target_msgs,
        target_bans,
    ];
    SwarmOutcome {
        hosts: bed.hosts,
        digest: bed.digest(&samples, 5, &facts, &[strikes, flood_msgs]),
        delivered,
        target_msgs,
        target_bans,
        swarm_replies: samples.iter().map(|s| s[4]).sum(),
        dropped: fs.dropped_loss + fs.dropped_partition,
        strikes,
        flood_msgs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(case: &'static str, workers: usize) -> SwarmSpec {
        SwarmSpec {
            case,
            swarm_hosts: 200,
            regions: 5,
            workers,
            dur: 3 * SECS,
            innocents: 4,
            seed: 7,
        }
    }

    #[test]
    fn outcome_is_invariant_across_worker_counts() {
        for case in CASES {
            let base = run_swarm(&tiny(case, 1));
            let multi = run_swarm(&tiny(case, 3));
            assert_eq!(base, multi, "{case}: outcome diverged across workers");
            assert!(base.delivered > 0, "{case}: no traffic");
            assert!(base.swarm_replies > 0, "{case}: swarm silent");
            assert!(base.target_msgs > 0, "{case}: target silent");
        }
    }

    #[test]
    fn bm_dos_floods_the_target() {
        let r = run_swarm(&tiny("bm-dos", 2));
        assert!(r.flood_msgs > 0, "flooder sent nothing");
        let normal = run_swarm(&tiny("faults", 2));
        assert!(
            r.target_msgs > normal.target_msgs,
            "flood did not raise target traffic: {} vs {}",
            r.target_msgs,
            normal.target_msgs
        );
    }

    #[test]
    fn defamation_strikes_off_the_live_tap() {
        let r = run_swarm(&tiny("defamation", 2));
        assert!(r.strikes > 0, "defamer never struck");
    }

    #[test]
    fn fault_case_exercises_the_fault_layer() {
        let r = run_swarm(&tiny("faults", 2));
        assert!(r.dropped > 0, "no fault-layer drops");
    }
}
