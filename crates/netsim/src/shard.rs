//! The sharded discrete-event simulator: per-region event loops under
//! conservative-lookahead synchronization, for 100k+ host topologies.
//!
//! # Model
//!
//! Hosts are partitioned into **regions** — a fixed, seed-deterministic
//! assignment (or an explicit pin via [`ShardedSim::add_host_pinned`]).
//! Each region is one instance of the crate's single event loop
//! (`region.rs`: SoA host columns, a `BinaryHeap`, RNG streams salted off
//! the seed per region); this module holds only what is about sharding —
//! the assignment, the lookahead rounds, the mailboxes and the workers.
//!
//! Links *within* a region have the usual LAN latency
//! ([`ShardConfig::latency`]); links *between* regions have a larger
//! WAN-scale latency ([`ShardConfig::region_latency`]) which doubles as
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
//! # Determinism contract
//!
//! The region partition, per-region event order, mailbox drain order and
//! RNG streams are all independent of [`ShardConfig::workers`], so the
//! results — counters, captures, fault statistics — are **bit-identical
//! at any worker count**. Workers only decide which OS thread locks which
//! region inside a round. `regions = 1` is the same code as the serial
//! [`Simulator`](crate::sim::Simulator), which is region 0 without the
//! lock; `tests/shard_equivalence.rs` and `prop_shard_invariance` guard
//! what differs between the front-ends: window/horizon arithmetic, mail
//! exchange and `now` clamping.

use crate::cpu::CpuMeter;
use crate::faults::{FaultPlan, FaultStats, LinkFaults};
use crate::packet::Ipv4;
pub use crate::region::RegionId;
use crate::region::{HostIndex, Net, Region};
use crate::sim::{
    App, HostConfig, HostCounters, Sniffed, TapFilter, TapHandle, DEFAULT_LATENCY,
    DEFAULT_TAP_CAPACITY,
};
use crate::tcp::TcpDropStats;
use crate::time::{Nanos, MILLIS};
use std::sync::Mutex;

/// Default one-way latency between hosts in *different* regions
/// (WAN-scale, continental). This is also the default lookahead window,
/// so larger values mean fewer synchronization rounds.
pub const DEFAULT_REGION_LATENCY: Nanos = 30 * MILLIS;

/// Sharded-simulator configuration.
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Number of regions the hosts are partitioned into. The partition is
    /// part of the *experiment* configuration: changing it changes which
    /// RNG stream serves which host (results stay deterministic but are
    /// not comparable across different region counts).
    pub regions: u32,
    /// Worker threads executing regions each round. Purely an execution
    /// knob: results are bit-identical at any value. More workers than
    /// regions is clamped.
    pub workers: usize,
    /// One-way link latency within a region.
    pub latency: Nanos,
    /// One-way link latency between regions (the lookahead window).
    pub region_latency: Nanos,
    /// RNG seed (region streams are derived from it).
    pub seed: u64,
    /// Per-link fault model, applied at the sender's edge from the
    /// sender region's fault stream.
    pub faults: LinkFaults,
    /// Forces the reliable transport even on a clean network (see
    /// [`crate::sim::SimConfig::reliable`]).
    pub reliable: bool,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            regions: 1,
            workers: 1,
            latency: DEFAULT_LATENCY,
            region_latency: DEFAULT_REGION_LATENCY,
            seed: 0xB17C_0123,
            faults: LinkFaults::NONE,
            reliable: false,
        }
    }
}

/// splitmix64 finalizer: the region assignment hash.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed-deterministic default region of an address.
fn assign_region(seed: u64, ip: Ipv4, regions: u32) -> RegionId {
    (mix64(u64::from(u32::from_be_bytes(ip)) ^ seed) % u64::from(regions)) as RegionId
}

/// A capture handle spanning every region (from [`ShardedSim::add_tap`]).
///
/// Each region records into its own bounded ring; reads merge the
/// per-region buffers in a deterministic order — ascending capture time,
/// ties broken by region index — so the merged view is identical at any
/// worker count.
pub struct ShardTap {
    parts: Vec<TapHandle>,
}

impl ShardTap {
    fn merge(bufs: Vec<Vec<Sniffed>>) -> Vec<Sniffed> {
        let mut all: Vec<Sniffed> = bufs.into_iter().flatten().collect();
        // Stable: same-time captures keep region order, and within a
        // region the recording order.
        all.sort_by_key(|s| s.time);
        all
    }

    /// Takes all captures recorded since the last drain, merged.
    pub fn drain(&self) -> Vec<Sniffed> {
        Self::merge(self.parts.iter().map(TapHandle::drain).collect())
    }

    /// Copies the current captures without clearing, merged.
    pub fn snapshot(&self) -> Vec<Sniffed> {
        Self::merge(self.parts.iter().map(TapHandle::snapshot).collect())
    }

    /// Total buffered captures across regions.
    pub fn len(&self) -> usize {
        self.parts.iter().map(TapHandle::len).sum()
    }

    /// Whether nothing is buffered anywhere.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(TapHandle::is_empty)
    }

    /// Total ring evictions across regions.
    pub fn dropped(&self) -> u64 {
        self.parts.iter().map(TapHandle::dropped).sum()
    }
}

/// The sharded discrete-event simulator (see the module docs for the
/// synchronization protocol and determinism contract).
pub struct ShardedSim {
    config: ShardConfig,
    now: Nanos,
    regions: Vec<Mutex<Region>>,
    index: HostIndex,
    plan: FaultPlan,
}

impl ShardedSim {
    /// Creates an empty sharded simulator. `regions`/`workers` of 0 are
    /// treated as 1.
    pub fn new(mut config: ShardConfig) -> Self {
        config.regions = config.regions.max(1);
        config.workers = config.workers.max(1);
        let regions = (0..config.regions)
            .map(|r| Mutex::new(Region::new(r, config.regions, config.seed)))
            .collect();
        ShardedSim {
            now: 0,
            regions,
            index: HostIndex::default(),
            plan: FaultPlan::none(),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Registers a host in its seed-deterministic default region.
    ///
    /// # Panics
    ///
    /// Panics if `ip` is already in use.
    pub fn add_host(&mut self, ip: Ipv4, app: Box<dyn App>, config: HostConfig) -> RegionId {
        let region = assign_region(self.config.seed, ip, self.config.regions);
        self.add_host_pinned(ip, app, config, region);
        region
    }

    /// Registers a host in an explicit region — co-locate apps that must
    /// share LAN latency or a live tap (e.g. the attack-core testbed of
    /// the swarm scenario).
    ///
    /// # Panics
    ///
    /// Panics if `ip` is already in use or `region` is out of range.
    pub fn add_host_pinned(
        &mut self,
        ip: Ipv4,
        app: Box<dyn App>,
        config: HostConfig,
        region: RegionId,
    ) {
        assert!(region < self.config.regions, "region out of range");
        let reg = self.regions[region as usize]
            .get_mut()
            .expect("region lock poisoned");
        self.index.insert(ip, (region, reg.next_local()));
        let reliable = self.config.reliable || self.config.faults.any() || !self.plan.is_none();
        reg.add_host(ip, app, config, reliable);
    }

    /// Installs a tap observing deliveries in **every** region, with the
    /// default per-region ring capacity
    /// ([`DEFAULT_TAP_CAPACITY`](crate::sim::DEFAULT_TAP_CAPACITY)).
    pub fn add_tap(&mut self, filter: TapFilter) -> ShardTap {
        self.add_tap_with_capacity(filter, DEFAULT_TAP_CAPACITY)
    }

    /// Installs an every-region tap with an explicit per-region ring
    /// capacity.
    pub fn add_tap_with_capacity(&mut self, filter: TapFilter, capacity: usize) -> ShardTap {
        let parts = self
            .regions
            .iter_mut()
            .map(|reg| {
                reg.get_mut()
                    .expect("region lock poisoned")
                    .add_tap(filter, capacity)
            })
            .collect();
        ShardTap { parts }
    }

    /// Installs a tap in a single region and returns a live [`TapHandle`]
    /// — the sniffer primitive for apps (like the post-connection
    /// Defamer) that drain captures *during* the run. Such apps must be
    /// pinned to the same region as the traffic they sniff: a region tap
    /// only observes packets delivered inside its region.
    ///
    /// # Panics
    ///
    /// Panics if `region` is out of range.
    pub fn add_tap_in(&mut self, filter: TapFilter, region: RegionId) -> TapHandle {
        self.regions[region as usize]
            .get_mut()
            .expect("region lock poisoned")
            .add_tap(filter, DEFAULT_TAP_CAPACITY)
    }

    /// Installs (or replaces) the scheduled-fault timeline (see
    /// [`crate::sim::Simulator::set_fault_plan`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        if !plan.is_none() {
            for reg in &mut self.regions {
                for tcp in &mut reg.get_mut().expect("region lock poisoned").tcps {
                    tcp.set_reliable(true);
                }
            }
        }
        self.plan = plan;
    }

    /// Fault-layer drop/delay counters, summed over regions.
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for reg in &self.regions {
            let reg = reg.lock().expect("region lock poisoned");
            total.dropped_loss += reg.fault_stats.dropped_loss;
            total.dropped_partition += reg.fault_stats.dropped_partition;
            total.jittered += reg.fault_stats.jittered;
            total.reordered += reg.fault_stats.reordered;
        }
        total
    }

    /// Total packets delivered, summed over regions.
    pub fn delivered_packets(&self) -> u64 {
        self.regions
            .iter()
            .map(|r| r.lock().expect("region lock poisoned").delivered_packets)
            .sum()
    }

    /// Traffic counters of a host.
    ///
    /// # Panics
    ///
    /// Panics for an unknown host.
    pub fn host_counters(&self, ip: Ipv4) -> HostCounters {
        let (r, i) = self.index.locate(ip);
        self.regions[r].lock().expect("region lock poisoned").counters[i]
    }

    /// CPU meter of a host (cloned).
    ///
    /// # Panics
    ///
    /// Panics for an unknown host.
    pub fn host_cpu(&self, ip: Ipv4) -> CpuMeter {
        let (r, i) = self.index.locate(ip);
        self.regions[r].lock().expect("region lock poisoned").cpus[i].clone()
    }

    /// Transport drop statistics of a host.
    ///
    /// # Panics
    ///
    /// Panics for an unknown host.
    pub fn host_tcp_drops(&self, ip: Ipv4) -> TcpDropStats {
        let (r, i) = self.index.locate(ip);
        self.regions[r].lock().expect("region lock poisoned").tcps[i].drops
    }

    /// Downcasts a host's app for inspection.
    ///
    /// # Panics
    ///
    /// Panics for an unknown host.
    pub fn app<T: App>(&mut self, ip: Ipv4) -> Option<&T> {
        let (r, i) = self.index.locate(ip);
        self.regions[r].get_mut().expect("region lock poisoned").apps[i]
            .as_ref()
            .and_then(|a| a.as_any().downcast_ref::<T>())
    }

    /// Mutably downcasts a host's app.
    ///
    /// # Panics
    ///
    /// Panics for an unknown host.
    pub fn app_mut<T: App>(&mut self, ip: Ipv4) -> Option<&mut T> {
        let (r, i) = self.index.locate(ip);
        self.regions[r].get_mut().expect("region lock poisoned").apps[i]
            .as_mut()
            .and_then(|a| a.as_any_mut().downcast_mut::<T>())
    }

    /// The conservative lookahead: the smallest delay any cross-region
    /// packet can experience. Jitter can shave up to `faults.jitter` off
    /// the base cross-region latency; loss/partition only remove packets
    /// and reordering only adds delay.
    fn lookahead(&self) -> Nanos {
        let jitter = self.config.faults.jitter;
        self.config.region_latency.saturating_sub(jitter).max(1)
    }

    /// The next round's exclusive horizon, or `None` when no region has
    /// an event due at or before `t_end`.
    fn next_window(&self, t_end: Nanos) -> Option<Nanos> {
        let t = self
            .regions
            .iter()
            .filter_map(|reg| reg.lock().expect("region lock poisoned").next_time())
            .min()?;
        if t > t_end {
            return None;
        }
        if self.config.regions == 1 {
            // No cross-region traffic can exist: run the whole span.
            return Some(t_end.saturating_add(1));
        }
        Some(t.saturating_add(self.lookahead()).min(t_end.saturating_add(1)))
    }

    /// Drains every staged cross-region mailbox into its destination
    /// heap, in fixed order: destination region ascending, then source
    /// region ascending, FIFO within a mailbox. Event sequence numbers —
    /// and therefore same-time tie-breaks — are thus identical at any
    /// worker count.
    fn exchange_mail(&self) {
        let n = self.regions.len();
        for q in 0..n {
            for r in 0..n {
                if r == q {
                    continue;
                }
                let mail = {
                    let mut src = self.regions[r].lock().expect("region lock poisoned");
                    std::mem::take(&mut src.outbound[q])
                };
                if mail.is_empty() {
                    continue;
                }
                self.regions[q]
                    .lock()
                    .expect("region lock poisoned")
                    .accept_mail(mail);
            }
        }
    }

    /// Runs events until virtual time reaches `t` (events at exactly `t`
    /// are processed), advancing every region in barrier-synchronous
    /// lookahead rounds.
    pub fn run_until(&mut self, t: Nanos) {
        let t_end = t.max(self.now);
        let n = self.regions.len();
        let workers = self.config.workers.min(n).max(1);
        {
            let this = &*self;
            let net = Net {
                index: &this.index,
                plan: &this.plan,
                latency: this.config.latency,
                region_latency: this.config.region_latency,
                faults: this.config.faults,
            };
            if workers == 1 {
                while let Some(hi) = this.next_window(t_end) {
                    for reg in &this.regions {
                        reg.lock().expect("region lock poisoned").run_window(&net, hi);
                    }
                    this.exchange_mail();
                }
            } else {
                let phased = btc_par::phase::Phased::new(workers);
                std::thread::scope(|s| {
                    for w in 0..workers {
                        let phased = &phased;
                        let net = &net;
                        let regions = &this.regions;
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
                    while let Some(hi) = this.next_window(t_end) {
                        phased.announce(hi);
                        phased.await_workers();
                        this.exchange_mail();
                    }
                    phased.terminate();
                });
            }
        }
        for reg in &mut self.regions {
            let reg = reg.get_mut().expect("region lock poisoned");
            reg.now = reg.now.max(t_end);
        }
        self.now = t_end;
    }

    /// Runs for `d` more virtual nanoseconds.
    pub fn run_for(&mut self, d: Nanos) {
        let t = self.now + d;
        self.run_until(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::IcmpEcho;
    use crate::sim::Ctx;
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
        let mut sim = ShardedSim::new(ShardConfig {
            regions: 2,
            workers: 2,
            ..ShardConfig::default()
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
        let mut sim = ShardedSim::new(ShardConfig {
            regions: 2,
            workers: 1,
            ..ShardConfig::default()
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
        // the serial simulator's semantics.
        assert_eq!(sim.delivered_packets(), 1);
        assert_eq!(tap.len(), 1);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let run = |workers: usize| {
            let mut sim = ShardedSim::new(ShardConfig {
                regions: 4,
                workers,
                seed: 42,
                ..ShardConfig::default()
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
