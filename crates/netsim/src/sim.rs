//! The discrete-event simulator: the app-facing types ([`App`], [`Ctx`],
//! host counters, taps) and the one [`Simulator`], built from one
//! [`SimConfig`] whose `regions` field picks how many event loops it runs.
//!
//! Each host runs an [`App`] (a Bitcoin node, an attacker, a traffic
//! source) above a [`TcpStack`](crate::tcp::TcpStack), built on the host's
//! first transport call, and a [`CpuMeter`]. The simulator delivers
//! packets with a configurable link latency, fires timers, lets *taps*
//! observe traffic promiscuously (the sniffing required by post-connection
//! Defamation) and lets any app inject raw packets with forged source
//! addresses (spoofing). The event loop itself lives in `region.rs`, the
//! rounds that step several regions in [`crate::shard`].

use crate::cpu::CpuMeter;
use crate::faults::{FaultPlan, FaultStats, LinkFaults};
use crate::packet::{IcmpEcho, Ipv4, Packet, PacketBody, SockAddr};
use crate::region::{Host, HostIndex, Net, Region};
use crate::rng::SimRng;
use crate::shard::{self, assign_region, RegionId};
use crate::tcp::{CloseReason, ConnId, TcpDropStats};
use crate::time::{Nanos, MICROS};
use btc_wire::bytes::Bytes;
use std::any::Any;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Default one-way link latency (LAN-scale, like the paper's testbed).
pub const DEFAULT_LATENCY: Nanos = 100 * MICROS;

/// Kernel-level cycle cost every host is charged for receiving any packet
/// (interrupt + IP processing).
pub const DEFAULT_KERNEL_COST: u64 = 3_000;

/// Extra cycle cost of answering an ICMP echo in the "kernel"
/// (network-layer processing only — the Table III contrast). Every host
/// answers echo requests.
pub const DEFAULT_ICMP_COST: u64 = 4_500;

/// Per-host configuration: empty, since every host is charged the same
/// [`DEFAULT_KERNEL_COST`]/[`DEFAULT_ICMP_COST`] and answers pings. The
/// parameter survives only because the bench spine still passes
/// `HostConfig::default()`; it goes when the spine is re-based.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostConfig {}

/// Per-host traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostCounters {
    /// Packets received.
    pub rx_packets: u64,
    /// Bytes received (wire size).
    pub rx_bytes: u64,
    /// Packets sent.
    pub tx_packets: u64,
    /// Bytes sent (wire size).
    pub tx_bytes: u64,
}

/// An application living on a simulated host.
///
/// All methods default to no-ops so simple apps implement only what they
/// need. `as_any_mut` enables scenario code to downcast and inspect app
/// state after (or during) a run.
///
/// Apps are `Send` so a host (and its boxed app) can be stepped by a
/// worker thread of the k-region rounds ([`crate::shard`]). Callbacks are
/// still strictly serial per host — `Send` is an ownership-transfer
/// requirement, not a concurrency one.
pub trait App: Send + 'static {
    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
    /// Consulted for each new inbound SYN; `false` refuses with RST. This is
    /// where a Bitcoin node consults its ban list.
    fn on_accept(&mut self, _peer: SockAddr) -> bool {
        true
    }
    /// A connection finished its handshake.
    fn on_connected(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _peer: SockAddr, _inbound: bool) {
    }
    /// In-order data arrived on a connection.
    fn on_data(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _peer: SockAddr, _data: &[u8]) {}
    /// A connection closed.
    fn on_closed(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _peer: SockAddr, _reason: CloseReason) {
    }
    /// An outbound connect was refused.
    fn on_connect_failed(&mut self, _ctx: &mut Ctx<'_>, _dst: SockAddr) {}
    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
    /// An ICMP echo arrived (after kernel-level accounting).
    fn on_icmp(&mut self, _ctx: &mut Ctx<'_>, _from: Ipv4, _echo: &IcmpEcho) {}
    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
    /// Downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Deferred host outputs collected during a callback and flushed by the
/// event loop (`region.rs`) once the callback returns.
#[derive(Default)]
pub(crate) struct Outbox {
    pub(crate) packets: Vec<Packet>,
    pub(crate) timers: Vec<(Nanos, u64)>,
}

/// The environment handed to app callbacks.
///
/// The calls that open, send on or close a connection build the host's
/// TCP stack if it has none yet; the read-only ones never do, and read a
/// missing stack as an empty one.
pub struct Ctx<'a> {
    pub(crate) now: Nanos,
    pub(crate) host: &'a mut Host,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) out: &'a mut Outbox,
}

impl Ctx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// This host's IP.
    pub fn ip(&self) -> Ipv4 {
        self.host.ip
    }

    /// Starts listening for inbound connections on `port`.
    pub fn listen(&mut self, port: u16) {
        self.host.tcp_at(self.now).listen(port);
    }

    /// Opens a connection to `dst` from a fresh ephemeral port.
    pub fn connect(&mut self, dst: SockAddr) -> ConnId {
        let (id, syn) = self.host.tcp_at(self.now).connect(dst);
        self.out.packets.push(syn);
        id
    }

    /// Opens a connection from a specific local port (serial-Sybil attacks
    /// pick their identifiers deliberately). `None` when the tuple is busy.
    pub fn connect_from(&mut self, port: u16, dst: SockAddr) -> Option<ConnId> {
        let (id, syn) = self.host.tcp_at(self.now).connect_from(port, dst)?;
        self.out.packets.push(syn);
        Some(id)
    }

    /// Sends bytes on an established connection. Returns `false` if the
    /// connection isn't usable. Copies `data` into a fresh buffer (two
    /// heap allocations); an app that owns its frame as [`Bytes`], such as
    /// one built by `Message::to_frame`, hands it to [`Ctx::send_bytes`].
    pub fn send(&mut self, conn: ConnId, data: &[u8]) -> bool {
        self.send_bytes(conn, Bytes::copy_from_slice(data))
    }

    /// [`Ctx::send`] for a buffer the caller already owns: segments are
    /// windows into `data`'s allocation, so a frame sent to many peers by
    /// `Bytes::clone` is never copied, and they go straight into the
    /// region's reused outbox. A frame of at most one `MSS` travels as
    /// `data` itself.
    pub fn send_bytes(&mut self, conn: ConnId, data: Bytes) -> bool {
        self.host
            .tcp_at(self.now)
            .send_bytes_into(conn, data, &mut self.out.packets)
    }

    /// Abortively closes a connection (RST).
    pub fn close(&mut self, conn: ConnId) {
        if let Some(rst) = self.host.tcp_at(self.now).close(conn) {
            self.out.packets.push(rst);
        }
    }

    /// Remote address of a connection.
    pub fn peer_of(&self, conn: ConnId) -> Option<SockAddr> {
        self.host.tcp()?.peer_of(conn)
    }

    /// Local address of a connection.
    pub fn local_of(&self, conn: ConnId) -> Option<SockAddr> {
        self.host.tcp()?.local_of(conn)
    }

    /// Whether the connection is established.
    pub fn is_established(&self, conn: ConnId) -> bool {
        self.host.tcp().is_some_and(|tcp| tcp.is_established(conn))
    }

    /// Live `(snd_nxt, rcv_nxt)` of a connection.
    pub fn seq_state(&self, conn: ConnId) -> Option<(u32, u32)> {
        self.host.tcp()?.seq_state(conn)
    }

    /// Arms a timer `delay` from now; `token` is returned in
    /// [`App::on_timer`].
    pub fn set_timer(&mut self, delay: Nanos, token: u64) {
        self.out.timers.push((delay, token));
    }

    /// Injects a raw packet — the source address is whatever the packet
    /// claims (spoofing primitive).
    pub fn inject(&mut self, packet: Packet) {
        self.out.packets.push(packet);
    }

    /// Sends an ICMP echo request of `len` payload bytes to `dst`.
    pub fn send_icmp(&mut self, dst: Ipv4, ident: u16, seq: u16, len: usize) {
        self.out.packets.push(Packet {
            src: SockAddr::new(self.host.ip, 0),
            dst: SockAddr::new(dst, 0),
            body: PacketBody::Icmp(IcmpEcho {
                request: true,
                ident,
                seq,
                len,
            }),
        });
    }

    /// Charges processing cycles to this host's CPU.
    pub fn charge_cpu(&mut self, cycles: u64) {
        self.host.cpu.charge(cycles);
    }

    /// Transport drop statistics.
    pub fn tcp_drops(&self) -> TcpDropStats {
        self.host.tcp_drops()
    }

    /// Deterministic randomness.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }
}

/// One packet observed by a tap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sniffed {
    /// Delivery time.
    pub time: Nanos,
    /// The packet.
    pub packet: Packet,
}

/// What a tap observes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TapFilter {
    /// Every packet in the network.
    All,
    /// Packets to or from one host.
    Host(Ipv4),
    /// Packets between a specific pair (either direction).
    Pair(Ipv4, Ipv4),
}

impl TapFilter {
    pub(crate) fn matches(&self, p: &Packet) -> bool {
        match self {
            TapFilter::All => true,
            TapFilter::Host(ip) => p.src.ip == *ip || p.dst.ip == *ip,
            TapFilter::Pair(a, b) => {
                (p.src.ip == *a && p.dst.ip == *b) || (p.src.ip == *b && p.dst.ip == *a)
            }
        }
    }
}

/// Default tap ring capacity: generous for every testbed scenario (the
/// largest fig10 capture is well under 10⁶ packets between drains), yet
/// bounded so an undrained `TapFilter::All` tap on a 100k-host swarm
/// cannot eat the heap — old captures are evicted and counted instead,
/// mirroring the BanMan history cap.
pub const DEFAULT_TAP_CAPACITY: usize = 1 << 20;

/// One region's capture ring of a tap: a bounded ring of the newest
/// captures plus a counter of evicted (oldest-first) ones.
struct TapBuf {
    buf: VecDeque<Sniffed>,
    cap: usize,
    dropped: u64,
}

impl TapBuf {
    fn push(&mut self, s: Sniffed) {
        if self.buf.len() >= self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(s);
    }
}

/// A tap's ring in one region, shared by the region that records into it
/// and the [`TapHandle`] that reads it.
#[derive(Clone)]
pub(crate) struct TapRing(Arc<Mutex<TapBuf>>);

impl TapRing {
    pub(crate) fn new(cap: usize) -> Self {
        TapRing(Arc::new(Mutex::new(TapBuf {
            buf: VecDeque::new(),
            cap: cap.max(1),
            dropped: 0,
        })))
    }

    fn buf(&self) -> std::sync::MutexGuard<'_, TapBuf> {
        self.0.lock().expect("tap mutex poisoned")
    }

    pub(crate) fn push(&self, s: Sniffed) {
        self.buf().push(s);
    }
}

/// A shared handle to a tap's captures: one bounded ring per region the
/// tap covers (every region for [`Simulator::add_tap`], one for
/// [`Simulator::add_tap_in`]).
///
/// Clone it before moving an attacker app into the simulator; the attacker
/// reads fresh captures during its timer callbacks, exactly like a `scapy`
/// sniffer thread. Each ring holds at most the capacity fixed at
/// [`Simulator::add_tap_with_capacity`] time: when full, the oldest
/// capture is evicted and [`TapHandle::dropped`] counts it. Reads over
/// several rings merge them by capture time, ties broken by region order,
/// so the view is identical at any worker count; a one-ring handle returns
/// its ring as recorded. The handle is `Send` — a region may record on a
/// worker thread, never concurrently with a read.
#[derive(Clone)]
pub struct TapHandle {
    rings: Vec<TapRing>,
}

impl TapHandle {
    /// Applies `take` to every ring, merging several by capture time.
    fn merged(&self, take: impl Fn(&mut TapBuf) -> Vec<Sniffed>) -> Vec<Sniffed> {
        if let [ring] = self.rings.as_slice() {
            return take(&mut ring.buf());
        }
        let mut all: Vec<Sniffed> = self.rings.iter().flat_map(|r| take(&mut r.buf())).collect();
        // Stable: same-time captures keep region order, and within a
        // region the recording order.
        all.sort_by_key(|s| s.time);
        all
    }

    /// Takes all captures recorded since the last drain.
    pub fn drain(&self) -> Vec<Sniffed> {
        self.merged(|b| b.buf.drain(..).collect())
    }

    /// Copies the current captures without clearing.
    pub fn snapshot(&self) -> Vec<Sniffed> {
        self.merged(|b| b.buf.iter().cloned().collect())
    }

    /// Number of captured packets currently buffered.
    pub fn len(&self) -> usize {
        self.rings.iter().map(|r| r.buf().buf.len()).sum()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.rings.iter().all(|r| r.buf().buf.is_empty())
    }

    /// Captures evicted because a ring was full (lifetime total).
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.buf().dropped).sum()
    }

    /// The capacity of each ring.
    pub fn capacity(&self) -> usize {
        self.rings.first().map_or(0, |r| r.buf().cap)
    }
}

/// Simulator configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Number of regions the hosts are partitioned into (0 is treated as
    /// 1). The partition is part of the *experiment*: changing it changes
    /// which RNG stream serves which host, so results stay deterministic
    /// but are not comparable across region counts. See [`crate::shard`].
    pub regions: u32,
    /// Threads executing regions each round, the calling thread counted
    /// (0 is treated as 1): `workers − 1` are spawned per `run_until`.
    /// Purely an execution knob: results are bit-identical at any value,
    /// and more workers than regions are clamped.
    pub workers: usize,
    /// One-way link latency within a region.
    pub latency: Nanos,
    /// RNG seed (region streams are derived from it).
    pub seed: u64,
    /// Per-link fault model (i.i.d. loss, jitter, reordering), applied at
    /// the sender's edge from the sender region's fault stream.
    /// [`LinkFaults::NONE`] touches nothing and draws no randomness.
    pub faults: LinkFaults,
    /// Forces the reliable transport (data ACKs + fixed-RTO
    /// retransmission) even on a clean network. It is auto-enabled when
    /// `faults` is active or a [`FaultPlan`] is installed; clean runs
    /// leave it off so their packet traces stay byte-identical to the
    /// pre-fault-layer simulator.
    pub reliable: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            regions: 1,
            workers: 1,
            latency: DEFAULT_LATENCY,
            seed: 0xB17C_0123,
            faults: LinkFaults::NONE,
            reliable: false,
        }
    }
}

/// The discrete-event network simulator: one event loop (`region.rs`) per
/// region. With one region — the default — a run is a single event
/// window: no thread, no lock, no barrier. With more, `run_until` steps
/// the regions in the lookahead rounds of [`crate::shard`].
pub struct Simulator {
    regions: Vec<Region>,
    index: HostIndex,
    plan: FaultPlan,
    config: SimConfig,
    now: Nanos,
}

impl Simulator {
    /// Creates an empty simulator. `regions`/`workers` of 0 are treated
    /// as 1.
    pub fn new(mut config: SimConfig) -> Self {
        config.regions = config.regions.max(1);
        config.workers = config.workers.max(1);
        Simulator {
            regions: (0..config.regions)
                .map(|r| Region::new(r, config.regions, config.seed))
                .collect(),
            index: HostIndex::default(),
            plan: FaultPlan::none(),
            config,
            now: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Total packets delivered so far, summed over regions.
    pub fn delivered_packets(&self) -> u64 {
        self.regions.iter().map(|r| r.delivered_packets).sum()
    }

    /// Registers a host running `app` in its seed-deterministic default
    /// region. Its [`App::on_start`] fires at the current virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `ip` is already in use.
    pub fn add_host(&mut self, ip: Ipv4, app: Box<dyn App>, config: HostConfig) {
        let region = assign_region(self.config.seed, ip, self.config.regions);
        self.add_host_pinned(ip, app, config, region);
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
        _config: HostConfig,
        region: RegionId,
    ) {
        assert!(region < self.config.regions, "region out of range");
        let reg = &mut self.regions[region as usize];
        self.index.insert(ip, (region, reg.next_local()));
        let reliable = self.config.reliable || self.config.faults.any() || !self.plan.is_none();
        reg.add_host(ip, app, reliable);
    }

    /// Installs a promiscuous tap on every region with the default ring
    /// capacity ([`DEFAULT_TAP_CAPACITY`]) and returns its capture handle.
    pub fn add_tap(&mut self, filter: TapFilter) -> TapHandle {
        self.add_tap_with_capacity(filter, DEFAULT_TAP_CAPACITY)
    }

    /// Installs a promiscuous tap on every region whose rings hold at most
    /// `capacity` captures each; once full, the oldest capture is evicted
    /// per new one and [`TapHandle::dropped`] counts the evictions.
    pub fn add_tap_with_capacity(&mut self, filter: TapFilter, capacity: usize) -> TapHandle {
        let rings = self
            .regions
            .iter_mut()
            .map(|reg| reg.add_tap(filter, capacity));
        TapHandle {
            rings: rings.collect(),
        }
    }

    /// Installs a tap in a single region — the sniffer primitive for apps
    /// (like the post-connection Defamer) that drain captures *during* the
    /// run. Such apps must be pinned to the same region as the traffic
    /// they sniff: a region tap only observes packets delivered inside its
    /// region.
    ///
    /// # Panics
    ///
    /// Panics if `region` is out of range.
    pub fn add_tap_in(&mut self, filter: TapFilter, region: RegionId) -> TapHandle {
        let ring = self.regions[region as usize].add_tap(filter, DEFAULT_TAP_CAPACITY);
        TapHandle { rings: vec![ring] }
    }

    /// Installs (or replaces) the scheduled-fault timeline.
    ///
    /// A non-empty plan switches every host's TCP stack to reliable mode,
    /// the stacks built later included: partitions and flaps drop
    /// packets, which only a retransmitting transport survives. Install
    /// the plan before running the simulation — faults are applied at
    /// packet-send time.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        if !plan.is_none() {
            for host in self.regions.iter_mut().flat_map(|r| &mut r.hosts) {
                host.make_reliable();
            }
        }
        self.plan = plan;
    }

    /// Fault-layer drop/delay counters, summed over regions.
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for fs in self.regions.iter().map(|r| &r.fault_stats) {
            total.dropped_loss += fs.dropped_loss;
            total.dropped_partition += fs.dropped_partition;
            total.jittered += fs.jittered;
            total.reordered += fs.reordered;
        }
        total
    }

    /// Runs events until virtual time reaches `t` (events at exactly `t`
    /// are processed).
    pub fn run_until(&mut self, t: Nanos) {
        let t_end = t.max(self.now);
        let net = Net {
            index: &self.index,
            plan: &self.plan,
            config: &self.config,
        };
        match self.regions.as_mut_slice() {
            [region] => region.run_window(&net, t.saturating_add(1)),
            _ => shard::run_rounds(&mut self.regions, &net, t_end),
        }
        for reg in &mut self.regions {
            reg.now = reg.now.max(t_end);
        }
        self.now = t_end;
    }

    /// Runs for `d` more virtual nanoseconds.
    pub fn run_for(&mut self, d: Nanos) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Traffic counters of a host.
    ///
    /// # Panics
    ///
    /// Panics for an unknown host.
    pub fn host_counters(&self, ip: Ipv4) -> HostCounters {
        self.host(ip).counters
    }

    /// CPU meter of a host.
    ///
    /// # Panics
    ///
    /// Panics for an unknown host.
    pub fn host_cpu(&self, ip: Ipv4) -> &CpuMeter {
        &self.host(ip).cpu
    }

    /// Transport drop statistics of a host (all zero for a host that
    /// never used TCP).
    ///
    /// # Panics
    ///
    /// Panics for an unknown host.
    pub fn host_tcp_drops(&self, ip: Ipv4) -> TcpDropStats {
        self.host(ip).tcp_drops()
    }

    /// Downcasts a host's app for inspection.
    ///
    /// # Panics
    ///
    /// Panics for an unknown host.
    pub fn app<T: App>(&self, ip: Ipv4) -> Option<&T> {
        self.host(ip)
            .app
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
        self.regions[r].hosts[i]
            .app
            .as_mut()
            .and_then(|a| a.as_any_mut().downcast_mut::<T>())
    }

    /// The record of a host.
    ///
    /// # Panics
    ///
    /// Panics for an unknown host.
    fn host(&self, ip: Ipv4) -> &Host {
        let (r, i) = self.index.locate(ip);
        &self.regions[r].hosts[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{MILLIS, SECS};

    /// Echo server: accepts connections and echoes data back.
    #[derive(Default)]
    struct EchoServer {
        port: u16,
        received: Vec<Vec<u8>>,
        conns: usize,
    }

    impl App for EchoServer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.listen(self.port);
        }
        fn on_connected(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId, _p: SockAddr, inbound: bool) {
            if inbound {
                self.conns += 1;
            }
        }
        fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _peer: SockAddr, data: &[u8]) {
            self.received.push(data.to_vec());
            ctx.send(conn, data);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Client that connects at start and sends a greeting.
    #[derive(Default)]
    struct Client {
        dst: SockAddr,
        echoed: Vec<Vec<u8>>,
        connected: bool,
        failed: bool,
    }

    impl App for Client {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.connect(self.dst);
        }
        fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _p: SockAddr, _inb: bool) {
            self.connected = true;
            ctx.send(conn, b"hello over tcp");
        }
        fn on_data(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId, _p: SockAddr, data: &[u8]) {
            self.echoed.push(data.to_vec());
        }
        fn on_connect_failed(&mut self, _ctx: &mut Ctx<'_>, _dst: SockAddr) {
            self.failed = true;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    const SRV: Ipv4 = [10, 0, 0, 1];
    const CLI: Ipv4 = [10, 0, 0, 2];

    fn build_pair() -> Simulator {
        let mut sim = Simulator::new(SimConfig::default());
        sim.add_host(
            SRV,
            Box::new(EchoServer {
                port: 8333,
                ..Default::default()
            }),
            HostConfig::default(),
        );
        sim.add_host(
            CLI,
            Box::new(Client {
                dst: SockAddr::new(SRV, 8333),
                ..Default::default()
            }),
            HostConfig::default(),
        );
        sim
    }

    #[test]
    fn end_to_end_echo() {
        let mut sim = build_pair();
        sim.run_for(SECS);
        let client: &Client = sim.app(CLI).unwrap();
        assert!(client.connected);
        assert_eq!(client.echoed, vec![b"hello over tcp".to_vec()]);
        let server: &EchoServer = sim.app(SRV).unwrap();
        assert_eq!(server.conns, 1);
        assert_eq!(server.port, 8333);
    }

    #[test]
    fn latency_orders_events() {
        let mut sim = build_pair();
        // SYN@L, SYN|ACK@2L (client connects + sends), data@3L, echo@4L.
        sim.run_for(3 * DEFAULT_LATENCY + DEFAULT_LATENCY / 2);
        let client: &Client = sim.app(CLI).unwrap();
        assert!(client.connected);
        assert!(client.echoed.is_empty(), "echo should still be in flight");
        sim.run_for(DEFAULT_LATENCY);
        let client: &Client = sim.app(CLI).unwrap();
        assert_eq!(client.echoed.len(), 1);
    }

    #[test]
    fn connect_to_missing_host_is_dropped() {
        let mut sim = Simulator::new(SimConfig::default());
        sim.add_host(
            CLI,
            Box::new(Client {
                dst: SockAddr::new([9, 9, 9, 9], 1),
                ..Default::default()
            }),
            HostConfig::default(),
        );
        sim.run_for(SECS);
        let client: &Client = sim.app(CLI).unwrap();
        assert!(!client.connected);
        assert!(!client.failed, "no RST from a black hole");
    }

    #[test]
    fn connect_to_closed_port_reports_failure() {
        let mut sim = Simulator::new(SimConfig::default());
        sim.add_host(SRV, Box::new(EchoServer::default()), HostConfig::default());
        sim.add_host(
            CLI,
            Box::new(Client {
                dst: SockAddr::new(SRV, 4444),
                ..Default::default()
            }),
            HostConfig::default(),
        );
        sim.run_for(SECS);
        let client: &Client = sim.app(CLI).unwrap();
        assert!(client.failed);
    }

    #[test]
    fn tap_sniffs_pair_traffic() {
        let mut sim = build_pair();
        let tap = sim.add_tap(TapFilter::Pair(SRV, CLI));
        sim.run_for(SECS);
        let caps = tap.drain();
        // SYN, SYN|ACK, ACK, data, echo at minimum.
        assert!(caps.len() >= 5, "captured {}", caps.len());
        assert!(caps
            .iter()
            .all(|s| TapFilter::Pair(SRV, CLI).matches(&s.packet)));
        // Times are non-decreasing.
        assert!(caps.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn tap_host_filter() {
        let mut sim = build_pair();
        let tap = sim.add_tap(TapFilter::Host(SRV));
        sim.run_for(SECS);
        assert!(!tap.is_empty());
        for s in tap.snapshot() {
            assert!(s.packet.src.ip == SRV || s.packet.dst.ip == SRV);
        }
    }

    #[test]
    fn tap_ring_caps_memory_and_counts_drops() {
        let mut sim = build_pair();
        let tap = sim.add_tap_with_capacity(TapFilter::All, 3);
        let unbounded = sim.add_tap(TapFilter::All);
        sim.run_for(SECS);
        let total = unbounded.len() as u64;
        assert!(total > 3, "need more traffic than the ring holds");
        assert_eq!(tap.len(), 3, "ring never exceeds its capacity");
        assert_eq!(tap.dropped(), total - 3, "every eviction is counted");
        assert_eq!(unbounded.dropped(), 0);
        // The ring keeps the *newest* captures.
        let all = unbounded.snapshot();
        assert_eq!(tap.snapshot(), all[all.len() - 3..]);
        assert_eq!(tap.capacity(), 3);
    }

    #[test]
    fn counters_track_traffic() {
        let mut sim = build_pair();
        sim.run_for(SECS);
        let s = sim.host_counters(SRV);
        let c = sim.host_counters(CLI);
        assert!(s.rx_packets >= 2);
        assert!(s.tx_packets >= 2);
        assert!(c.rx_bytes > 0);
        assert!(c.tx_bytes > 0);
    }

    #[test]
    fn cpu_charged_per_packet() {
        let mut sim = build_pair();
        sim.run_for(SECS);
        let busy = sim.host_cpu(SRV).cum_busy();
        let rx = sim.host_counters(SRV).rx_packets;
        assert!(busy >= rx * DEFAULT_KERNEL_COST);
    }

    /// Pinger sends ICMP echos on a timer.
    struct Pinger {
        dst: Ipv4,
        replies: u32,
    }

    impl App for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(MILLIS, 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            ctx.send_icmp(self.dst, 7, self.replies as u16, 56);
        }
        fn on_icmp(&mut self, ctx: &mut Ctx<'_>, _from: Ipv4, echo: &IcmpEcho) {
            if !echo.request {
                self.replies += 1;
                if self.replies < 3 {
                    ctx.set_timer(MILLIS, 1);
                }
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn icmp_echo_roundtrip_and_kernel_cost() {
        let mut sim = Simulator::new(SimConfig::default());
        sim.add_host(SRV, Box::new(EchoServer::default()), HostConfig::default());
        sim.add_host(
            CLI,
            Box::new(Pinger {
                dst: SRV,
                replies: 0,
            }),
            HostConfig::default(),
        );
        sim.run_for(SECS);
        let p: &Pinger = sim.app(CLI).unwrap();
        assert_eq!(p.replies, 3);
        // The echo target paid kernel + icmp cost per request, and the app
        // layer was *not* involved in replying (EchoServer knows nothing of
        // ICMP).
        let busy = sim.host_cpu(SRV).cum_busy();
        assert!(busy >= 3 * (DEFAULT_KERNEL_COST + DEFAULT_ICMP_COST));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let mut sim = build_pair();
            sim.run_for(SECS);
            (
                sim.delivered_packets(),
                sim.host_counters(SRV),
                sim.host_cpu(SRV).cum_busy(),
            )
        };
        assert_eq!(run(), run());
    }

    /// The slab + hashed-index host table must keep the full event trace
    /// reproducible: two fresh same-seed simulators yield byte-identical
    /// packet captures (every packet, in order, with timestamps) and
    /// identical per-host counters. This is the foundation the parallel
    /// sweep fan-out relies on — a `HashMap`'s per-process `RandomState`
    /// could never reorder *this* trace, but the test pins the contract.
    #[test]
    fn determinism_same_seed_identical_captures_and_counters() {
        let run = || {
            let mut sim = build_pair();
            let tap = sim.add_tap(TapFilter::All);
            sim.run_for(SECS);
            let captures: Vec<Sniffed> = tap.drain();
            (
                captures,
                sim.host_counters(SRV),
                sim.host_counters(CLI),
                sim.host_tcp_drops(SRV),
                sim.delivered_packets(),
            )
        };
        let (cap_a, srv_a, cli_a, drops_a, n_a) = run();
        let (cap_b, srv_b, cli_b, drops_b, n_b) = run();
        assert!(!cap_a.is_empty(), "tap saw traffic");
        assert_eq!(cap_a, cap_b, "capture traces diverged across same-seed runs");
        assert_eq!((srv_a, cli_a), (srv_b, cli_b));
        assert_eq!(drops_a, drops_b);
        assert_eq!(n_a, n_b);
    }

    /// A stack first used after the fault plan is installed must be as
    /// reliable as one that existed when the plan went in: the client's
    /// SYN dies in the flap and only a retransmission gets the greeting
    /// through.
    #[test]
    fn stack_first_used_after_fault_plan_is_reliable() {
        let mut sim = build_pair();
        sim.set_fault_plan(FaultPlan::none().with_flaps(CLI, 0, SECS, MILLIS, 1));
        sim.run_for(2 * SECS);
        let server: &EchoServer = sim.app(SRV).unwrap();
        assert_eq!(server.received, vec![b"hello over tcp".to_vec()]);
        let client: &Client = sim.app(CLI).unwrap();
        assert_eq!(client.echoed, vec![b"hello over tcp".to_vec()]);
        assert!(sim.fault_stats().dropped_partition >= 1, "the SYN was cut");
        assert!(sim.host_tcp_drops(CLI).retransmits >= 1, "and resent");
    }

    /// What `peer_of`, `local_of`, `is_established`, `seq_state` and
    /// `tcp_drops` answered.
    type Answers = (
        Option<SockAddr>,
        Option<SockAddr>,
        bool,
        Option<(u32, u32)>,
        TcpDropStats,
    );

    /// Pings and asks the transport about a connection it never opened.
    #[derive(Default)]
    struct Prober {
        dst: Ipv4,
        replies: u32,
        answers: Vec<Answers>,
    }

    impl App for Prober {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let conn = ConnId(1);
            self.answers.push((
                ctx.peer_of(conn),
                ctx.local_of(conn),
                ctx.is_established(conn),
                ctx.seq_state(conn),
                ctx.tcp_drops(),
            ));
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

    /// Whether the host at `ip` has a transport stack yet.
    fn has_stack(sim: &Simulator, ip: Ipv4) -> bool {
        let (r, i) = sim.index.locate(ip);
        sim.regions[r].hosts[i].tcp().is_some()
    }

    #[test]
    fn icmp_only_host_reads_an_empty_transport_and_never_builds_one() {
        let mut sim = Simulator::new(SimConfig::default());
        sim.add_host(SRV, Box::new(Quiet), HostConfig::default());
        sim.add_host(
            CLI,
            Box::new(Prober {
                dst: SRV,
                ..Default::default()
            }),
            HostConfig::default(),
        );
        sim.run_for(SECS);
        let p: &Prober = sim.app(CLI).unwrap();
        assert_eq!(p.replies, 1);
        assert_eq!(
            p.answers,
            vec![(None, None, false, None, TcpDropStats::default())]
        );
        for ip in [SRV, CLI] {
            assert_eq!(sim.host_tcp_drops(ip), TcpDropStats::default());
            assert!(!has_stack(&sim, ip), "a read or a ping built a stack");
        }
    }

    /// A SYN to a host that never listened is refused with an RST, and a
    /// stray ACK to it counts as a segment for no socket — the same
    /// replies and counters as a host whose stack existed from the start.
    #[test]
    fn never_listening_host_refuses_syn_and_counts_stray_segments() {
        let mut sim = Simulator::new(SimConfig::default());
        sim.add_host(SRV, Box::new(Quiet), HostConfig::default());
        sim.add_host(
            CLI,
            Box::new(Client {
                dst: SockAddr::new(SRV, 8333),
                ..Default::default()
            }),
            HostConfig::default(),
        );
        let tap = sim.add_tap(TapFilter::Host(SRV));
        sim.run_for(SECS);
        let client: &Client = sim.app(CLI).unwrap();
        assert!(client.failed && !client.connected);
        let caps = tap.drain();
        assert_eq!(caps.len(), 2, "SYN in, RST out");
        let PacketBody::Tcp(rst) = &caps[1].packet.body else {
            panic!("reply is not TCP");
        };
        assert_eq!(caps[1].packet.src, SockAddr::new(SRV, 8333));
        assert!(rst.flags.has(crate::packet::TcpFlags::RST));
        assert_eq!(sim.host_tcp_drops(SRV), TcpDropStats::default());
        assert!(has_stack(&sim, SRV), "the SYN built the refusing stack");

        // A bare ACK from nowhere: dropped, counted once.
        let ack = crate::packet::make_segment(
            SockAddr::new(CLI, 50_000),
            SockAddr::new(SRV, 8333),
            7,
            9,
            crate::packet::TcpFlags::ACK,
            Bytes::new(),
        );
        sim.add_host(
            [10, 0, 0, 3],
            Box::new(Injector(Some(ack))),
            HostConfig::default(),
        );
        sim.run_for(SECS);
        assert_eq!(
            sim.host_tcp_drops(SRV),
            TcpDropStats {
                no_socket: 1,
                ..TcpDropStats::default()
            }
        );
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

    /// Injects one raw packet at start.
    struct Injector(Option<Packet>);
    impl App for Injector {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(p) = self.0.take() {
                ctx.inject(p);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn run_until_advances_time_even_when_idle() {
        let mut sim = Simulator::new(SimConfig::default());
        sim.run_until(5 * SECS);
        assert_eq!(sim.now(), 5 * SECS);
    }
}
