//! Regions and the rounds that step them: how a [`Simulator`] with
//! `regions > 1` partitions its hosts and keeps 100k+ host topologies
//! deterministic under conservative-lookahead synchronization.
//!
//! # Model
//!
//! Hosts are partitioned into **regions** — a fixed, seed-deterministic
//! assignment (or an explicit pin via [`Simulator::add_host_pinned`]).
//! Each region is one instance of the crate's single event loop
//! (`region.rs`: SoA host columns, a `BinaryHeap`, RNG streams salted off
//! the seed per region); this module holds only what is about several
//! regions — the assignment, the lookahead rounds, the mailboxes and the
//! workers.
//!
//! Links *within* a region have the usual LAN latency
//! ([`SimConfig::latency`]); links *between* regions have a larger
//! WAN-scale latency ([`SimConfig::region_latency`]) which doubles as
//! the **lookahead window**: a cross-region packet sent at time `t`
//! cannot arrive before `t + L` where `L` is the minimum cross-region
//! delay, so every region may safely run to `T_min + L` (`T_min` = the
//! earliest pending event anywhere) without hearing from its neighbors.
//! Rounds are barrier-synchronous:
//!
//! 1. every region independently executes its events in `[T_min, T_min+L)`
//!    (fanned across worker threads),
//! 2. cross-region packets staged in per-`(src, dst)` mailboxes are
//!    drained in a fixed order (destination region, then source region
//!    ascending, FIFO within a mailbox) and pushed into the destination
//!    heaps,
//! 3. the next horizon is computed and the cycle repeats.
//!
//! One region needs none of this: `run_until` is then a single event
//! window, with no thread, no lock and no barrier.
//!
//! # Determinism contract
//!
//! The region partition, per-region event order, mailbox drain order and
//! RNG streams are all independent of [`SimConfig::workers`], so the
//! results — counters, captures, fault statistics — are **bit-identical
//! at any worker count**. Workers only decide which OS thread locks which
//! region inside a round; the locks live only for the length of one
//! `run_until` call. Region 0 draws from the unsalted seed, so hosts
//! pinned to region 0 of k regions replay a one-region run exactly;
//! `tests/shard_equivalence.rs` and `prop_shard_invariance` guard that,
//! which covers the window/horizon arithmetic, the mail exchange and the
//! `now` clamping.

use crate::packet::Ipv4;
pub use crate::region::RegionId;
use crate::region::{Net, Region};
use crate::sim::{SimConfig, Simulator};
use crate::time::{Nanos, MILLIS};
use std::sync::Mutex;

/// Default one-way latency between hosts in *different* regions
/// (WAN-scale, continental). This is also the default lookahead window,
/// so larger values mean fewer synchronization rounds.
pub const DEFAULT_REGION_LATENCY: Nanos = 30 * MILLIS;

/// The simulator under its former sharded name. Kept only for the bench
/// spine's one-region probe (`benchmark/src/workloads/scripted.rs`); it
/// goes when the spine is re-based.
pub type ShardedSim = Simulator;

/// The simulator configuration under its former sharded name, for the
/// same one reader as [`ShardedSim`]; it goes with it.
pub type ShardConfig = SimConfig;

/// splitmix64 finalizer: the region assignment hash.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed-deterministic default region of an address.
pub(crate) fn assign_region(seed: u64, ip: Ipv4, regions: u32) -> RegionId {
    (mix64(u64::from(u32::from_be_bytes(ip)) ^ seed) % u64::from(regions)) as RegionId
}

/// The next round's exclusive horizon, or `None` when no region has an
/// event due at or before `t_end`.
fn next_window(regions: &[Mutex<Region>], lookahead: Nanos, t_end: Nanos) -> Option<Nanos> {
    let t = regions
        .iter()
        .filter_map(|reg| reg.lock().expect("region lock poisoned").next_time())
        .min()?;
    if t > t_end {
        return None;
    }
    Some(t.saturating_add(lookahead).min(t_end.saturating_add(1)))
}

/// Drains every staged cross-region mailbox into its destination heap, in
/// fixed order: destination region ascending, then source region
/// ascending, FIFO within a mailbox. Event sequence numbers — and
/// therefore same-time tie-breaks — are thus identical at any worker
/// count.
fn exchange_mail(regions: &[Mutex<Region>]) {
    let n = regions.len();
    for q in 0..n {
        for r in 0..n {
            if r == q {
                continue;
            }
            let mail = {
                let mut src = regions[r].lock().expect("region lock poisoned");
                std::mem::take(&mut src.outbound[q])
            };
            if mail.is_empty() {
                continue;
            }
            regions[q]
                .lock()
                .expect("region lock poisoned")
                .accept_mail(mail);
        }
    }
}

/// Runs every region's events due at or before `t_end` in
/// barrier-synchronous lookahead rounds. The regions sit behind a `Mutex`
/// each for the length of the call only, so workers can lock them across
/// a round; they are handed back unlocked.
pub(crate) fn run_rounds(owned: &mut Vec<Region>, net: &Net<'_>, t_end: Nanos) {
    let regions: Vec<Mutex<Region>> = std::mem::take(owned).into_iter().map(Mutex::new).collect();
    let n = regions.len();
    let config = net.config;
    let workers = config.workers.min(n).max(1);
    // The conservative lookahead: the smallest delay any cross-region
    // packet can experience. Jitter can shave up to `faults.jitter` off the
    // base cross-region latency; loss/partition only remove packets and
    // reordering only adds delay.
    let lookahead = config
        .region_latency
        .saturating_sub(config.faults.jitter)
        .max(1);
    if workers == 1 {
        while let Some(hi) = next_window(&regions, lookahead, t_end) {
            for reg in &regions {
                reg.lock().expect("region lock poisoned").run_window(net, hi);
            }
            exchange_mail(&regions);
        }
    } else {
        let phased = btc_par::phase::Phased::new(workers);
        std::thread::scope(|s| {
            for w in 0..workers {
                let phased = &phased;
                let regions = &regions;
                s.spawn(move || {
                    while let Some(hi) = phased.next_phase() {
                        let mut r = w;
                        while r < n {
                            regions[r]
                                .lock()
                                .expect("region lock poisoned")
                                .run_window(net, hi);
                            r += workers;
                        }
                        phased.finish_phase();
                    }
                });
            }
            while let Some(hi) = next_window(&regions, lookahead, t_end) {
                phased.announce(hi);
                phased.await_workers();
                exchange_mail(&regions);
            }
            phased.terminate();
        });
    }
    *owned = regions
        .into_iter()
        .map(|reg| reg.into_inner().expect("region lock poisoned"))
        .collect();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::IcmpEcho;
    use crate::sim::{App, Ctx, HostConfig, HostCounters, TapFilter};
    use crate::time::SECS;
    use std::any::Any;

    /// Minimal ping app: sends one echo to `dst` at start, counts replies.
    struct OnePing {
        dst: Ipv4,
        replies: u32,
    }

    impl App for OnePing {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send_icmp(self.dst, 1, 0, 56);
        }
        fn on_icmp(&mut self, _ctx: &mut Ctx<'_>, _from: Ipv4, echo: &IcmpEcho) {
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

    struct Quiet;
    impl App for Quiet {
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn cross_region_ping_roundtrip() {
        let mut sim = Simulator::new(SimConfig {
            regions: 2,
            workers: 2,
            ..SimConfig::default()
        });
        sim.add_host_pinned([10, 0, 0, 1], Box::new(Quiet), HostConfig::default(), 0);
        sim.add_host_pinned(
            [10, 0, 0, 2],
            Box::new(OnePing {
                dst: [10, 0, 0, 1],
                replies: 0,
            }),
            HostConfig::default(),
            1,
        );
        sim.run_for(SECS);
        let p: &OnePing = sim.app([10, 0, 0, 2]).unwrap();
        assert_eq!(p.replies, 1);
        // Two cross-region trips at the region latency each.
        assert_eq!(sim.delivered_packets(), 2);
    }

    #[test]
    fn region_assignment_is_seed_deterministic() {
        let a = assign_region(7, [10, 0, 0, 1], 8);
        assert_eq!(a, assign_region(7, [10, 0, 0, 1], 8));
        // Different seeds shuffle the partition (with overwhelming
        // probability over 32 addresses at least one moves).
        let moved = (0..32u8)
            .any(|i| assign_region(7, [10, 0, 0, i], 8) != assign_region(8, [10, 0, 0, i], 8));
        assert!(moved);
    }

    #[test]
    fn unknown_destination_counts_as_delivered() {
        let mut sim = Simulator::new(SimConfig {
            regions: 2,
            workers: 1,
            ..SimConfig::default()
        });
        let tap = sim.add_tap(TapFilter::All);
        sim.add_host_pinned(
            [10, 0, 0, 2],
            Box::new(OnePing {
                dst: [99, 99, 99, 99],
                replies: 0,
            }),
            HostConfig::default(),
            0,
        );
        sim.run_for(SECS);
        // The packet died in the void but taps and the counter saw it —
        // the one-region semantics.
        assert_eq!(sim.delivered_packets(), 1);
        assert_eq!(tap.len(), 1);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let run = |workers: usize| {
            let mut sim = Simulator::new(SimConfig {
                regions: 4,
                workers,
                seed: 42,
                ..SimConfig::default()
            });
            let tap = sim.add_tap(TapFilter::All);
            let ips: Vec<Ipv4> = (1..=12u8).map(|i| [10, 0, i, 1]).collect();
            for (k, ip) in ips.iter().enumerate() {
                let dst = ips[(k + 5) % ips.len()];
                sim.add_host(*ip, Box::new(OnePing { dst, replies: 0 }), HostConfig::default());
            }
            sim.run_for(SECS);
            let counters: Vec<HostCounters> = ips.iter().map(|ip| sim.host_counters(*ip)).collect();
            (tap.drain(), counters, sim.delivered_packets())
        };
        let base = run(1);
        assert_eq!(base, run(2));
        assert_eq!(base, run(7));
        assert!(base.2 > 0);
    }
}
