//! The event-loop core: one [`Region`] is one `BinaryHeap` of events over
//! column-major host state, with its own RNG streams.
//!
//! This is the only event loop in the crate.
//! [`Simulator`](crate::sim::Simulator) owns `SimConfig::regions` of them;
//! with more than one, [`crate::shard`] adds the barrier rounds and
//! mailboxes between them. Everything a packet meets on its way — fault
//! edge, taps, kernel CPU charge, TCP, app callbacks, retransmission
//! ticks — is defined here once, so the 5-host testbed and the 100k-host
//! swarm see the same checks in the same order.

use crate::cpu::CpuMeter;
use crate::faults::{FaultPlan, FaultStats};
use crate::packet::{IcmpEcho, Ipv4, Packet, PacketBody, SockAddr};
use crate::rng::SimRng;
use crate::sim::{
    App, Ctx, HostCounters, Outbox, SimConfig, Sniffed, TapFilter, TapRing, DEFAULT_ICMP_COST,
    DEFAULT_KERNEL_COST,
};
use crate::tcp::{TcpEvent, TcpStack};
use crate::time::Nanos;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Seed salt separating the fault-injection RNG stream from the
/// application-visible one: enabling faults must not shift a single draw
/// seen by the apps.
const FAULT_RNG_SALT: u64 = 0xFA17_1A7E_0BAD_11F2;

/// Seed salt separating per-region RNG streams. Region `r` draws
/// application randomness from `seed ^ (SALT · r)` and fault randomness
/// from `(seed ^ FAULT_RNG_SALT) ^ (SALT · r)`; region 0 — the whole of a
/// one-region simulator — therefore uses the unsalted `seed` and `seed ^
/// FAULT_RNG_SALT`.
const SHARD_STREAM_SALT: u64 = 0x5AAD_C0DE_D15C_0123;

/// Initial event-queue capacity: enough for the testbed scenarios' burst
/// of in-flight packets/timers without heap regrowth in the hot loop.
const QUEUE_PREALLOC: usize = 1024;

/// Region index.
pub type RegionId = u32;

/// Host index within its region's columns (assigned in registration
/// order; hosts are never removed, so it is stable).
pub(crate) type LocalId = u32;

/// The global sorted ip → (region, column) index. A binary search over a
/// dense sorted `Vec` instead of a `HashMap` probe: deterministic,
/// cache-friendly, and appending ascending addresses (how swarms are
/// built) is O(1).
#[derive(Default)]
pub(crate) struct HostIndex(Vec<(Ipv4, (RegionId, LocalId))>);

impl HostIndex {
    #[inline]
    pub(crate) fn lookup(&self, ip: Ipv4) -> Option<(RegionId, LocalId)> {
        self.0
            .binary_search_by_key(&ip, |e| e.0)
            .ok()
            .map(|i| self.0[i].1)
    }

    /// Like [`lookup`](Self::lookup), as `usize` indices.
    ///
    /// # Panics
    ///
    /// Panics for an unknown host.
    #[inline]
    pub(crate) fn locate(&self, ip: Ipv4) -> (usize, usize) {
        let (region, local) = self.lookup(ip).expect("unknown host");
        (region as usize, local as usize)
    }

    /// # Panics
    ///
    /// Panics if `ip` is already registered.
    pub(crate) fn insert(&mut self, ip: Ipv4, at: (RegionId, LocalId)) {
        match self.0.binary_search_by_key(&ip, |e| e.0) {
            Ok(_) => panic!("host {ip:?} already registered"),
            Err(slot) => self.0.insert(slot, (ip, at)),
        }
    }
}

/// Immutable per-run context shared by every region.
pub(crate) struct Net<'a> {
    pub(crate) index: &'a HostIndex,
    pub(crate) plan: &'a FaultPlan,
    pub(crate) config: &'a SimConfig,
}

enum EventKind {
    Start(LocalId),
    /// A packet in flight within this region, carrying its destination's
    /// column index when the destination lived here at send time (`None`
    /// = not known then; see [`Region::deliver`]). Delivery is a direct
    /// column index, not a per-event binary search.
    Deliver(Packet, Option<LocalId>),
    Timer(LocalId, u64),
    /// A host's earliest TCP retransmission deadline (reliable mode only).
    TcpTick(LocalId),
}

struct Event {
    time: Nanos,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// One staged cross-region packet (FIFO within its mailbox).
pub(crate) struct Mail {
    time: Nanos,
    packet: Packet,
    dst: LocalId,
}

/// One region: an independent event loop over column-major host state.
///
/// Hot per-host fields live in parallel columns (SoA) instead of an
/// array-of-`Host`-structs: the event loop touches `counters`/`cpus` on
/// every delivery and `apps`/`tcps` only on dispatch, so the columns keep
/// the per-event working set dense.
pub(crate) struct Region {
    id: RegionId,
    pub(crate) now: Nanos,
    queue: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    // --- SoA host columns (parallel, indexed by LocalId) ---
    ips: Vec<Ipv4>,
    pub(crate) apps: Vec<Option<Box<dyn App>>>,
    pub(crate) tcps: Vec<TcpStack>,
    pub(crate) cpus: Vec<CpuMeter>,
    pub(crate) counters: Vec<HostCounters>,
    /// Time of each host's armed [`EventKind::TcpTick`], if any. An event
    /// whose time doesn't match is stale (superseded by an earlier
    /// re-arm) and is ignored, so retransmission ticks never accumulate.
    tick_at: Vec<Option<Nanos>>,
    // --- per-region streams and stats ---
    rng: SimRng,
    fault_rng: SimRng,
    pub(crate) fault_stats: FaultStats,
    pub(crate) delivered_packets: u64,
    taps: Vec<(TapFilter, TapRing)>,
    /// Staged cross-region packets, indexed by destination region.
    pub(crate) outbound: Vec<Vec<Mail>>,
}

impl Region {
    pub(crate) fn new(id: RegionId, regions: u32, seed: u64) -> Self {
        let salt = SHARD_STREAM_SALT.wrapping_mul(u64::from(id));
        Region {
            id,
            now: 0,
            queue: BinaryHeap::with_capacity(QUEUE_PREALLOC),
            next_seq: 0,
            ips: Vec::new(),
            apps: Vec::new(),
            tcps: Vec::new(),
            cpus: Vec::new(),
            counters: Vec::new(),
            tick_at: Vec::new(),
            rng: SimRng::new(seed ^ salt),
            fault_rng: SimRng::new((seed ^ FAULT_RNG_SALT) ^ salt),
            fault_stats: FaultStats::default(),
            delivered_packets: 0,
            taps: Vec::new(),
            outbound: (0..regions).map(|_| Vec::new()).collect(),
        }
    }

    /// The column index the next [`add_host`](Self::add_host) will use.
    pub(crate) fn next_local(&self) -> LocalId {
        self.ips.len() as LocalId
    }

    /// Appends a host to the columns; its [`App::on_start`] fires at the
    /// region's current time.
    pub(crate) fn add_host(&mut self, ip: Ipv4, app: Box<dyn App>, reliable: bool) {
        let local = self.next_local();
        let mut tcp = TcpStack::new(ip);
        tcp.set_reliable(reliable);
        self.ips.push(ip);
        self.apps.push(Some(app));
        self.tcps.push(tcp);
        self.cpus.push(CpuMeter::default());
        self.counters.push(HostCounters::default());
        self.tick_at.push(None);
        self.push_event(self.now, EventKind::Start(local));
    }

    /// Installs a promiscuous tap on this region's deliveries and returns
    /// its ring.
    pub(crate) fn add_tap(&mut self, filter: TapFilter, capacity: usize) -> TapRing {
        let ring = TapRing::new(capacity);
        self.taps.push((filter, ring.clone()));
        ring
    }

    /// Time of the earliest queued event.
    pub(crate) fn next_time(&self) -> Option<Nanos> {
        self.queue.peek().map(|Reverse(ev)| ev.time)
    }

    /// Queues mail another region staged for this one, in the given order.
    pub(crate) fn accept_mail(&mut self, mail: Vec<Mail>) {
        for m in mail {
            self.push_event(m.time, EventKind::Deliver(m.packet, Some(m.dst)));
        }
    }

    fn push_event(&mut self, time: Nanos, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Event { time, seq, kind }));
    }

    /// Schedules `packet` for delivery after the link latency, subject to
    /// the fault model; cross-region packets go to the staging mailbox.
    ///
    /// Faults are applied at the sender's edge: a packet cut by a
    /// partition or lost to the i.i.d. model never reaches the taps, like
    /// a frame that dies inside a pulled cable. The fault RNG is a
    /// separate stream from the app RNG, and a fully inactive fault layer
    /// performs no draws at all — the clean path is byte-identical to a
    /// simulator without fault support.
    fn send_packet(&mut self, net: &Net<'_>, packet: Packet) {
        let f = net.config.faults;
        // Resolve the destination once at send time; delivery then
        // indexes the columns directly.
        let dst = net.index.lookup(packet.dst.ip);
        let remote = dst.filter(|&(r, _)| r != self.id);
        let mut delay = if remote.is_some() {
            net.config.region_latency
        } else {
            net.config.latency
        };
        if f.any() || !net.plan.is_none() {
            if net.plan.blocked(self.now, packet.src.ip, packet.dst.ip) {
                self.fault_stats.dropped_partition += 1;
                return;
            }
            let loss = (f.loss + net.plan.extra_loss(self.now)).min(1.0);
            if loss > 0.0 && self.fault_rng.gen_bool(loss) {
                self.fault_stats.dropped_loss += 1;
                return;
            }
            if f.jitter > 0 {
                // Uniform in [-jitter, +jitter], clamped so delivery stays
                // strictly in the future (base latency may be small).
                let offset = self.fault_rng.gen_range(2 * f.jitter + 1);
                delay = (delay + offset).saturating_sub(f.jitter).max(1);
                self.fault_stats.jittered += 1;
            }
            if f.reorder > 0.0 && f.reorder_window > 0 && self.fault_rng.gen_bool(f.reorder) {
                delay += 1 + self.fault_rng.gen_range(f.reorder_window);
                self.fault_stats.reordered += 1;
            }
        }
        let time = self.now + delay;
        match remote {
            Some((r, dst)) => self.outbound[r as usize].push(Mail { time, packet, dst }),
            None => self.push_event(time, EventKind::Deliver(packet, dst.map(|(_, l)| l))),
        }
    }

    /// Executes every queued event with `time < hi_excl`, leaving later
    /// events (and staged cross-region mail) untouched.
    pub(crate) fn run_window(&mut self, net: &Net<'_>, hi_excl: Nanos) {
        loop {
            // A single peek guards each pop.
            match self.queue.peek() {
                Some(Reverse(ev)) if ev.time < hi_excl => {}
                _ => break,
            }
            let Reverse(ev) = self.queue.pop().expect("peeked event");
            debug_assert!(ev.time >= self.now, "region time went backwards");
            self.now = ev.time;
            match ev.kind {
                EventKind::Start(i) => self.with_app(net, i, |app, ctx| app.on_start(ctx)),
                EventKind::Timer(i, token) => {
                    self.with_app(net, i, |app, ctx| app.on_timer(ctx, token));
                }
                EventKind::Deliver(packet, dst) => self.deliver(net, packet, dst),
                EventKind::TcpTick(i) => self.tcp_tick(net, i, ev.time),
            }
        }
    }

    /// Taps observe first, the delivered counter always ticks, then the
    /// destination (if it lives here) processes the packet.
    ///
    /// A packet whose destination was unknown at send time travels in the
    /// sender's region; if a host with that address has registered *in
    /// this region* by delivery time, it receives the packet (one ip
    /// lookup, only on this path). A host that registered in another
    /// region meanwhile does not: the packet was never staged as
    /// cross-region mail, and handing it over now would land inside the
    /// other region's lookahead window. It is dropped, as is a packet to
    /// an address nobody holds.
    fn deliver(&mut self, net: &Net<'_>, packet: Packet, dst: Option<LocalId>) {
        for (filter, ring) in &self.taps {
            if filter.matches(&packet) {
                ring.push(Sniffed {
                    time: self.now,
                    packet: packet.clone(),
                });
            }
        }
        self.delivered_packets += 1;
        let dst_ip = packet.dst.ip;
        let late = || net.index.lookup(dst_ip).filter(|&(r, _)| r == self.id).map(|(_, l)| l);
        let Some(id) = dst.or_else(late) else {
            return; // destination unreachable: dropped
        };
        let i = id as usize;
        self.counters[i].rx_packets += 1;
        self.counters[i].rx_bytes += packet.wire_len() as u64;
        self.cpus[i].charge(DEFAULT_KERNEL_COST);
        match &packet.body {
            PacketBody::Icmp(echo) => {
                let mut reply = None;
                if echo.request {
                    self.cpus[i].charge(DEFAULT_ICMP_COST);
                    reply = Some(Packet {
                        src: SockAddr::new(dst_ip, 0),
                        dst: packet.src,
                        body: PacketBody::Icmp(IcmpEcho {
                            request: false,
                            ..*echo
                        }),
                    });
                }
                let from = packet.src.ip;
                self.with_app(net, id, |app, ctx| app.on_icmp(ctx, from, echo));
                self.transmit(net, i, reply);
            }
            PacketBody::Tcp(seg) => {
                let mut app = self.apps[i].take().expect("app present");
                self.tcps[i].set_now(self.now);
                let (events, replies) =
                    self.tcps[i].handle_segment(packet.src, packet.dst, seg, &mut |peer| {
                        app.on_accept(peer)
                    });
                self.apps[i] = Some(app);
                self.transmit(net, i, replies);
                self.dispatch_tcp_events(net, id, events);
                self.arm_tcp_tick(id);
            }
        }
    }

    /// Hands transport events to the host's app.
    fn dispatch_tcp_events(&mut self, net: &Net<'_>, id: LocalId, events: Vec<TcpEvent>) {
        for ev in events {
            self.with_app(net, id, |app, ctx| match &ev {
                TcpEvent::Connected { id, peer, inbound } => {
                    app.on_connected(ctx, *id, *peer, *inbound)
                }
                TcpEvent::Data { id, peer, payload } => app.on_data(ctx, *id, *peer, payload),
                TcpEvent::Closed { id, peer, reason } => app.on_closed(ctx, *id, *peer, *reason),
                TcpEvent::ConnectFailed { dst } => app.on_connect_failed(ctx, *dst),
            });
        }
    }

    /// Runs a host's due retransmissions (reliable mode). `time` is the
    /// armed tick this event was scheduled for; a mismatch means a later
    /// re-arm superseded it.
    fn tcp_tick(&mut self, net: &Net<'_>, id: LocalId, time: Nanos) {
        let i = id as usize;
        if self.tick_at[i] != Some(time) {
            return; // stale tick
        }
        self.tick_at[i] = None;
        self.tcps[i].set_now(self.now);
        let (events, replies) = self.tcps[i].poll();
        self.transmit(net, i, replies);
        self.dispatch_tcp_events(net, id, events);
        self.arm_tcp_tick(id);
    }

    /// (Re-)arms the host's retransmission tick at its earliest TCP
    /// deadline. No-op for stacks without pending retransmissions — clean
    /// non-reliable runs never see a tick event.
    fn arm_tcp_tick(&mut self, id: LocalId) {
        let i = id as usize;
        let Some(deadline) = self.tcps[i].next_deadline() else {
            return;
        };
        let t = deadline.max(self.now);
        if let Some(cur) = self.tick_at[i] {
            if cur <= t {
                return; // an earlier (or equal) tick will re-arm us
            }
        }
        self.tick_at[i] = Some(t);
        self.push_event(t, EventKind::TcpTick(id));
    }

    /// Runs `f` with the host's app and a fresh [`Ctx`], then applies the
    /// collected outputs (packet sends, timers).
    fn with_app<F>(&mut self, net: &Net<'_>, id: LocalId, f: F)
    where
        F: FnOnce(&mut dyn App, &mut Ctx<'_>),
    {
        let i = id as usize;
        let mut app = self.apps[i].take().expect("app present");
        self.tcps[i].set_now(self.now);
        let mut out = Outbox::default();
        {
            let mut ctx = Ctx {
                now: self.now,
                ip: self.ips[i],
                tcp: &mut self.tcps[i],
                cpu: &mut self.cpus[i],
                rng: &mut self.rng,
                out: &mut out,
            };
            f(app.as_mut(), &mut ctx);
        }
        self.apps[i] = Some(app);
        self.transmit(net, i, out.packets);
        for (delay, token) in out.timers {
            self.push_event(self.now + delay, EventKind::Timer(id, token));
        }
        // The callback may have queued sends/connects that armed an RTO.
        self.arm_tcp_tick(id);
    }

    /// Counts `packets` against host `i`'s tx counters and sends them.
    fn transmit(&mut self, net: &Net<'_>, i: usize, packets: impl IntoIterator<Item = Packet>) {
        for p in packets {
            self.counters[i].tx_packets += 1;
            self.counters[i].tx_bytes += p.wire_len() as u64;
            self.send_packet(net, p);
        }
    }
}
