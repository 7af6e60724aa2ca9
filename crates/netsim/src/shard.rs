//! Regions and the rounds that step them: how a [`Simulator`] with
//! `regions > 1` partitions its hosts and keeps 100k+ host topologies
//! deterministic under conservative-lookahead synchronization.
//!
//! # Model
//!
//! Hosts are partitioned into **regions** — a fixed, seed-deterministic
//! assignment (or an explicit pin via [`Simulator::add_host_pinned`]).
//! Each region is one instance of the crate's single event loop
//! (`region.rs`: one record per host, an event queue of a `BinaryHeap` and
//! two sorted lanes, RNG streams salted off the seed per region); this
//! module holds only what is about several regions — the assignment, the
//! lookahead rounds, the mailboxes and the workers.
//!
//! Links *within* a region have the usual LAN latency
//! ([`SimConfig::latency`]); links *between* regions have a larger
//! WAN-scale latency ([`DEFAULT_REGION_LATENCY`]) which doubles as
//! the **lookahead window**: a cross-region packet sent at time `t`
//! cannot arrive before `t + L` where `L` is the minimum cross-region
//! delay, so every region may safely run to `T_min + L` (`T_min` = the
//! earliest pending event or staged packet anywhere) without hearing
//! from its neighbors. Rounds are barrier-synchronous; in each, every
//! region
//!
//! 1. queues the cross-region packets staged for it last round, from
//!    per-`(src, dst)` mailboxes in a fixed order (source region
//!    ascending, FIFO within a mailbox),
//! 2. executes its events in `[T_min, T_min+L)`,
//! 3. publishes the packets it staged into the mailboxes its
//!    destinations drain next round.
//!
//! The exchange thus runs by destination, on whichever thread runs the
//! destination. Threads claim regions until none are left — the calling
//! thread and `workers − 1` spawned ones, each starting at its own block
//! of regions — and between rounds the calling thread alone computes the
//! next horizon and publishes it.
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
use crate::region::{Mail, Net, Region};
use crate::sim::{SimConfig, Simulator};
use crate::time::{Nanos, MILLIS};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// One-way latency between hosts in *different* regions (WAN-scale,
/// continental). This is also the lookahead window, so a larger value
/// would mean fewer synchronization rounds.
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
/// event or staged mail due at or before `t_end`.
fn next_window(regions: &[Mutex<Region>], lookahead: Nanos, t_end: Nanos) -> Option<Nanos> {
    let t = regions
        .iter()
        .filter_map(|reg| reg.lock().expect("region lock poisoned").next_due())
        .min()?;
    if t > t_end {
        return None;
    }
    Some(t.saturating_add(lookahead).min(t_end.saturating_add(1)))
}

/// Cross-region mail between rounds. Mailbox `dst · n + src` of a parity
/// holds what region `src` staged for `dst` in a round of that parity;
/// `dst` drains it at the start of its next round, which has the other
/// parity, so a region publishing this round's mail never meets its
/// destination draining last round's.
struct Mailboxes {
    n: usize,
    by_parity: [Vec<Mutex<Vec<Mail>>>; 2],
}

impl Mailboxes {
    fn new(n: usize) -> Self {
        let boxes = || (0..n * n).map(|_| Mutex::new(Vec::new())).collect();
        Mailboxes {
            n,
            by_parity: [boxes(), boxes()],
        }
    }

    /// Queues everything staged for `reg` (region `q`) in a round of
    /// `parity`, in one [`Region::accept_mail`]: source region ascending,
    /// FIFO within a mailbox. This is the only order mail is given
    /// sequence numbers in, so same-time tie-breaks are the same at any
    /// worker count.
    fn drain_into(&self, reg: &mut Region, q: usize, parity: usize) {
        let n = self.n;
        let mailboxes = &self.by_parity[parity][q * n..(q + 1) * n];
        reg.accept_mail(
            mailboxes
                .iter()
                .map(|mailbox| mailbox.lock().expect("mailbox lock poisoned")),
        );
    }

    /// Moves what `reg` (region `q`) staged this round into the mailboxes
    /// of `parity`, swapping in their emptied buffers.
    fn publish(&self, reg: &mut Region, q: usize, parity: usize) {
        let n = self.n;
        for (dst, staged) in reg.outbound.iter_mut().enumerate() {
            if !staged.is_empty() {
                let mailbox = &self.by_parity[parity][dst * n + q];
                std::mem::swap(&mut *mailbox.lock().expect("mailbox lock poisoned"), staged);
            }
        }
    }
}

/// Region `q`'s share of a round of `parity`: queue the mail staged for
/// it last round, run its events before `hi`, publish the mail it staged.
fn step_region(
    regions: &[Mutex<Region>],
    mail: &Mailboxes,
    net: &Net<'_>,
    q: usize,
    hi: Nanos,
    parity: usize,
) {
    let mut reg = regions[q].lock().expect("region lock poisoned");
    mail.drain_into(&mut reg, q, parity ^ 1);
    // What `q` staged last round is in its destinations' queues by the end
    // of this one; the horizon after it counts only this round's mail.
    reg.mail_due = None;
    reg.run_window(net, hi);
    mail.publish(&mut reg, q, parity);
}

/// Runs every region's events due at or before `t_end` in
/// barrier-synchronous lookahead rounds. The regions sit behind a `Mutex`
/// each for the length of the call only, so threads can lock them across
/// a round; they are handed back unlocked, with all mail queued.
///
/// With more than one worker the calling thread is one of them: it and
/// `workers − 1` spawned threads claim regions until none are left.
/// Between rounds the calling thread alone computes the next horizon and
/// publishes it.
pub(crate) fn run_rounds(owned: &mut Vec<Region>, net: &Net<'_>, t_end: Nanos) {
    let regions: Vec<Mutex<Region>> = std::mem::take(owned).into_iter().map(Mutex::new).collect();
    let n = regions.len();
    let config = net.config;
    let workers = config.workers.min(n).max(1);
    // The conservative lookahead: the smallest delay any cross-region
    // packet can experience. Jitter can shave up to `faults.jitter` off the
    // base cross-region latency; loss/partition only remove packets and
    // reordering only adds delay.
    let lookahead = DEFAULT_REGION_LATENCY
        .saturating_sub(config.faults.jitter)
        .max(1);
    let mail = Mailboxes::new(n);
    // Every thread sees every round, so each keeps the parity itself.
    let mut parity = 0;
    if workers == 1 {
        while let Some(hi) = next_window(&regions, lookahead, t_end) {
            for q in 0..n {
                step_region(&regions, &mail, net, q, hi, parity);
            }
            parity ^= 1;
        }
    } else {
        let phased = btc_par::phase::Phased::new(workers - 1);
        // A region runs on whichever thread flips its flag first. The
        // flags guard nothing but the claim (the region's data is behind
        // its lock), so they need no ordering of their own.
        let claimed: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        // Thread `home` starts at its own block of regions and walks on
        // from there, stealing what is left. A region thus mostly stays
        // on one core, and its hosts in that core's cache, round after
        // round: on `swarm_ping` (8 regions, 2 threads) the summed region
        // time fell by a sixth against claims off one shared counter.
        let claim_regions = |home: usize, hi: Nanos, parity: usize| {
            for k in 0..n {
                let q = (home * n / workers + k) % n;
                if !claimed[q].swap(true, Ordering::Relaxed) {
                    step_region(&regions, &mail, net, q, hi, parity);
                }
            }
        };
        std::thread::scope(|s| {
            for home in 1..workers {
                let (phased, claim_regions) = (&phased, &claim_regions);
                s.spawn(move || {
                    let mut parity = 0;
                    while let Some(hi) = phased.next_phase() {
                        claim_regions(home, hi, parity);
                        parity ^= 1;
                        phased.finish_phase();
                    }
                });
            }
            while let Some(hi) = next_window(&regions, lookahead, t_end) {
                // Every other thread waits in `next_phase` here; the
                // announce publishes the reset.
                for flag in &claimed {
                    flag.store(false, Ordering::Relaxed);
                }
                phased.announce(hi);
                claim_regions(0, hi, parity);
                parity ^= 1;
                phased.await_workers();
            }
            phased.terminate();
        });
    }
    // The last round's mail: into the queues before the regions go back.
    for (q, reg) in regions.iter().enumerate() {
        let mut reg = reg.lock().expect("region lock poisoned");
        mail.drain_into(&mut reg, q, parity ^ 1);
        reg.mail_due = None;
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

    /// Bit-identical captures and counters at any worker count, on 4 and
    /// on 8 regions: 3 workers do not divide 8 regions, so claims come
    /// out uneven, and 8 workers give each thread one region.
    #[test]
    fn worker_count_does_not_change_results() {
        let run = |regions: u32, workers: usize| {
            let mut sim = Simulator::new(SimConfig {
                regions,
                workers,
                seed: 42,
                ..SimConfig::default()
            });
            let tap = sim.add_tap(TapFilter::All);
            let ips: Vec<Ipv4> = (1..=24u8).map(|i| [10, 0, i, 1]).collect();
            for (k, ip) in ips.iter().enumerate() {
                let dst = ips[(k + 5) % ips.len()];
                sim.add_host(
                    *ip,
                    Box::new(OnePing { dst, replies: 0 }),
                    HostConfig::default(),
                );
            }
            sim.run_for(SECS);
            let counters: Vec<HostCounters> = ips.iter().map(|ip| sim.host_counters(*ip)).collect();
            (tap.drain(), counters, sim.delivered_packets())
        };
        for (regions, workers) in [(4, vec![2, 7]), (8, vec![3, 8])] {
            let base = run(regions, 1);
            assert!(base.2 > 0);
            for w in workers {
                assert_eq!(base, run(regions, w), "{regions} regions, {w} workers");
            }
        }
    }
}
