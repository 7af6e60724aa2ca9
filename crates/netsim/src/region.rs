//! The event-loop core: one [`Region`] is one event queue (a `BinaryHeap`
//! of event keys and, beside it, a FIFO lane for the constant-latency
//! deliveries that arrive already sorted) over a `Vec` of [`Host`]
//! records, with its own RNG streams.
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
use crate::tcp::{TcpDropStats, TcpEvent, TcpStack};
use crate::time::Nanos;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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

/// Host index within its region's host records (assigned in registration
/// order; hosts are never removed, so it is stable).
pub(crate) type LocalId = u32;

/// The global sorted ip → (region, host record) index. A binary search over a
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
    /// record index when the destination lived here at send time (`None`
    /// = not known then; see [`Region::deliver`]). Delivery is a direct
    /// index, not a per-event binary search.
    Deliver(Packet, Option<LocalId>),
    Timer(LocalId, u64),
    /// A host's earliest TCP retransmission deadline (reliable mode only).
    TcpTick(LocalId),
}

/// A queued event as the queue sees it: `(time, seq, slot)`. `(time, seq)`
/// orders it — `seq` is unique, so `slot` never breaks a tie — and `slot`
/// names its [`EventKind`] in [`Region`]'s payload slab. Sifting moves
/// these 24 bytes, not an 80-byte event with its packet inline.
type EventKey = (Nanos, u64, u32);

/// A region's pending events: a min-heap of keys plus a sorted FIFO lane.
///
/// Almost every event of a flood is a packet due exactly `latency` after
/// a `now` that never decreases, so those keys are born in `(time, seq)`
/// order: [`push_in_order`](Self::push_in_order) appends them to the lane
/// in O(1), and they never sift. A key that would break the lane's order
/// (a packet jitter or reordering moved earlier) falls back to the heap,
/// as do timers, TCP ticks, starts and cross-region mail
/// ([`push`](Self::push)). A pop takes the smaller head; `seq` is unique,
/// so the pop order is exactly that of one heap holding every key.
///
/// Simpler than a calendar queue: no bucket width to tune and no resize,
/// and the events that dominate cost O(1) either way.
struct EventQueue {
    heap: BinaryHeap<Reverse<EventKey>>,
    /// Sorted ascending; only ever appended at the back and popped at the
    /// front. Not preallocated: it grows to the peak number of packets in
    /// flight and keeps that capacity.
    lane: VecDeque<EventKey>,
}

impl EventQueue {
    fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            lane: VecDeque::new(),
        }
    }

    fn push(&mut self, key: EventKey) {
        self.heap.push(Reverse(key));
    }

    /// Appends `key` to the lane when it sorts at or after the lane's
    /// back, and pushes it on the heap otherwise.
    fn push_in_order(&mut self, key: EventKey) {
        if self.lane.back().is_none_or(|&back| back <= key) {
            self.lane.push_back(key);
        } else {
            self.push(key);
        }
    }

    /// The smallest key, and whether it heads the lane.
    fn head(&self) -> Option<(EventKey, bool)> {
        let heap = self.heap.peek().map(|&Reverse(key)| key);
        match (heap, self.lane.front().copied()) {
            (Some(h), Some(l)) => Some(if l < h { (l, true) } else { (h, false) }),
            (Some(h), None) => Some((h, false)),
            (None, lane) => lane.map(|l| (l, true)),
        }
    }

    /// Time of the earliest queued event.
    fn next_time(&self) -> Option<Nanos> {
        self.head().map(|((time, _, _), _)| time)
    }

    /// Removes and returns the smallest key if it is due before `hi_excl`.
    fn pop_before(&mut self, hi_excl: Nanos) -> Option<EventKey> {
        let (key, in_lane) = self.head()?;
        if key.0 >= hi_excl {
            return None;
        }
        if in_lane {
            self.lane.pop_front();
        } else {
            self.heap.pop();
        }
        Some(key)
    }
}

/// One host: everything an event on it reads, in one record.
pub(crate) struct Host {
    pub(crate) counters: HostCounters,
    pub(crate) cpu: CpuMeter,
    /// Time of the host's armed [`EventKind::TcpTick`], if any. An event
    /// whose time doesn't match is stale (superseded by an earlier
    /// re-arm) and is ignored, so retransmission ticks never accumulate.
    tick_at: Option<Nanos>,
    pub(crate) ip: Ipv4,
    /// Whether this host's stack runs the reliable transport, now or
    /// once it is built. Kept equal to the stack's own flag, so
    /// [`Region::arm_tcp_tick`] can skip the deadline walk without it.
    reliable: bool,
    /// `None` only while one of its callbacks runs.
    pub(crate) app: Option<Box<dyn App>>,
    /// Built by [`Host::tcp_at`] on the host's first transport use; most
    /// swarm hosts only ping and never get one.
    tcp: Option<Box<TcpStack>>,
}

impl Host {
    /// The host's stack with its clock at `now`, built on first use
    /// exactly as an eager one would have been: fresh, at the host's
    /// address, with the host's reliable flag.
    pub(crate) fn tcp_at(&mut self, now: Nanos) -> &mut TcpStack {
        let (ip, reliable) = (self.ip, self.reliable);
        let tcp = self.tcp.get_or_insert_with(|| {
            let mut tcp = TcpStack::new(ip);
            tcp.set_reliable(reliable);
            Box::new(tcp)
        });
        tcp.set_now(now);
        tcp
    }

    /// The host's stack, if it has one; "none" reads as an empty stack.
    pub(crate) fn tcp(&self) -> Option<&TcpStack> {
        self.tcp.as_deref()
    }

    /// The stack's drop counters; all zero without a stack.
    pub(crate) fn tcp_drops(&self) -> TcpDropStats {
        self.tcp()
            .map_or_else(TcpDropStats::default, |tcp| tcp.drops)
    }

    /// Switches the host's transport to reliable mode, built or not.
    pub(crate) fn make_reliable(&mut self) {
        self.reliable = true;
        if let Some(tcp) = &mut self.tcp {
            tcp.set_reliable(true);
        }
    }
}

/// One staged cross-region packet (FIFO within its mailbox).
pub(crate) struct Mail {
    time: Nanos,
    packet: Packet,
    dst: LocalId,
}

/// One region: an independent event loop over one [`Host`] record per
/// host.
///
/// The hosts of a swarm are picked at random by its traffic, so an event
/// costs a cache miss per host array it reads: one record keeps that to
/// about one, where parallel columns cost one per column. A host's TCP
/// stack is built only when the host first uses TCP: of the 20 009 hosts
/// of the bench spine's `swarm_ping`, 20 000 never open a socket, and an
/// eager stack (240 bytes holding four maps) would be most of a host's
/// footprint.
pub(crate) struct Region {
    id: RegionId,
    pub(crate) now: Nanos,
    queue: EventQueue,
    /// Payloads of the queued events, indexed by their key's slot.
    slab: Vec<Option<EventKind>>,
    /// Vacant `slab` slots, reused last-freed first.
    free: Vec<u32>,
    next_seq: u64,
    pub(crate) hosts: Vec<Host>,
    /// The callback outputs, reused: drained after every callback.
    outbox: Outbox,
    /// Transport events and replies of one segment delivery, reused:
    /// filled by [`TcpStack::handle_segment_into`], drained right after.
    tcp_events: Vec<TcpEvent>,
    tcp_replies: Vec<Packet>,
    // --- per-region streams and stats ---
    rng: SimRng,
    fault_rng: SimRng,
    pub(crate) fault_stats: FaultStats,
    pub(crate) delivered_packets: u64,
    taps: Vec<(TapFilter, TapRing)>,
    /// Staged cross-region packets, indexed by destination region.
    pub(crate) outbound: Vec<Vec<Mail>>,
    /// Earliest delivery time of the mail staged since the k-region
    /// rounds last cleared it. That mail reaches its destinations' heaps
    /// only in the next round, so the horizon before it must count it.
    pub(crate) mail_due: Option<Nanos>,
}

impl Region {
    pub(crate) fn new(id: RegionId, regions: u32, seed: u64) -> Self {
        let salt = SHARD_STREAM_SALT.wrapping_mul(u64::from(id));
        Region {
            id,
            now: 0,
            queue: EventQueue::with_capacity(QUEUE_PREALLOC),
            slab: Vec::with_capacity(QUEUE_PREALLOC),
            free: Vec::new(),
            next_seq: 0,
            hosts: Vec::new(),
            outbox: Outbox::default(),
            tcp_events: Vec::new(),
            tcp_replies: Vec::new(),
            rng: SimRng::new(seed ^ salt),
            fault_rng: SimRng::new((seed ^ FAULT_RNG_SALT) ^ salt),
            fault_stats: FaultStats::default(),
            delivered_packets: 0,
            taps: Vec::new(),
            outbound: (0..regions).map(|_| Vec::new()).collect(),
            mail_due: None,
        }
    }

    /// The record index the next [`add_host`](Self::add_host) will use.
    pub(crate) fn next_local(&self) -> LocalId {
        self.hosts.len() as LocalId
    }

    /// Appends a host record, without a TCP stack; its [`App::on_start`]
    /// fires at the region's current time.
    pub(crate) fn add_host(&mut self, ip: Ipv4, app: Box<dyn App>, reliable: bool) {
        let local = self.next_local();
        self.hosts.push(Host {
            counters: HostCounters::default(),
            cpu: CpuMeter::default(),
            tick_at: None,
            ip,
            reliable,
            app: Some(app),
            tcp: None,
        });
        self.push_event(self.now, EventKind::Start(local));
    }

    /// Installs a promiscuous tap on this region's deliveries and returns
    /// its ring.
    pub(crate) fn add_tap(&mut self, filter: TapFilter, capacity: usize) -> TapRing {
        let ring = TapRing::new(capacity);
        self.taps.push((filter, ring.clone()));
        ring
    }

    /// Time of the earliest queued event or staged cross-region packet.
    pub(crate) fn next_due(&self) -> Option<Nanos> {
        match (self.queue.next_time(), self.mail_due) {
            (Some(q), Some(m)) => Some(q.min(m)),
            (q, m) => q.or(m),
        }
    }

    /// Queues mail another region staged for this one, in the given
    /// order, leaving `mail` empty with its capacity.
    pub(crate) fn accept_mail(&mut self, mail: &mut Vec<Mail>) {
        for m in mail.drain(..) {
            self.push_event(m.time, EventKind::Deliver(m.packet, Some(m.dst)));
        }
    }

    fn push_event(&mut self, time: Nanos, kind: EventKind) {
        let key = self.store(time, kind);
        self.queue.push(key);
    }

    /// Stores `kind` in the slab and returns its key, with the next `seq`.
    fn store(&mut self, time: Nanos, kind: EventKind) -> EventKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(kind);
                slot
            }
            None => {
                self.slab.push(Some(kind));
                (self.slab.len() - 1) as u32
            }
        };
        (time, seq, slot)
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
        // indexes the host records directly.
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
            Some((r, dst)) => {
                self.mail_due = Some(self.mail_due.map_or(time, |due| due.min(time)));
                self.outbound[r as usize].push(Mail { time, packet, dst });
            }
            None => {
                // At constant latency this key sorts after every packet
                // already in flight: it joins the lane.
                let key = self.store(time, EventKind::Deliver(packet, dst.map(|(_, l)| l)));
                self.queue.push_in_order(key);
            }
        }
    }

    /// Executes every queued event with `time < hi_excl`, leaving later
    /// events (and staged cross-region mail) untouched.
    pub(crate) fn run_window(&mut self, net: &Net<'_>, hi_excl: Nanos) {
        while let Some((time, _, slot)) = self.queue.pop_before(hi_excl) {
            let kind = self.slab[slot as usize]
                .take()
                .expect("queued event has a payload");
            self.free.push(slot);
            debug_assert!(time >= self.now, "region time went backwards");
            self.now = time;
            match kind {
                EventKind::Start(i) => self.with_app(net, i, |app, ctx| app.on_start(ctx)),
                EventKind::Timer(i, token) => {
                    self.with_app(net, i, |app, ctx| app.on_timer(ctx, token));
                }
                EventKind::Deliver(packet, dst) => self.deliver(net, packet, dst),
                EventKind::TcpTick(i) => self.tcp_tick(net, i, time),
            }
        }
    }

    /// Taps observe first, the delivered counter always ticks, then the
    /// destination (if it lives here) processes the packet. The packet is
    /// consumed: a TCP segment goes to the stack by value, so accepted
    /// data reaches the app's `TcpEvent::Data` as the same handle.
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
        let host = &mut self.hosts[i];
        host.counters.rx_packets += 1;
        host.counters.rx_bytes += packet.wire_len() as u64;
        host.cpu.charge(DEFAULT_KERNEL_COST);
        match packet.body {
            PacketBody::Icmp(echo) => {
                let mut reply = None;
                if echo.request {
                    host.cpu.charge(DEFAULT_ICMP_COST);
                    reply = Some(Packet {
                        src: SockAddr::new(dst_ip, 0),
                        dst: packet.src,
                        body: PacketBody::Icmp(IcmpEcho {
                            request: false,
                            ..echo
                        }),
                    });
                }
                let from = packet.src.ip;
                self.with_app(net, id, |app, ctx| app.on_icmp(ctx, from, &echo));
                self.transmit(net, i, reply);
            }
            PacketBody::Tcp(seg) => {
                let mut app = host.app.take().expect("app present");
                let mut events = std::mem::take(&mut self.tcp_events);
                let mut replies = std::mem::take(&mut self.tcp_replies);
                host.tcp_at(self.now).handle_segment_into(
                    packet.src,
                    packet.dst,
                    seg,
                    &mut |peer| app.on_accept(peer),
                    &mut events,
                    &mut replies,
                );
                host.app = Some(app);
                self.transmit(net, i, replies.drain(..));
                self.tcp_replies = replies;
                self.dispatch_tcp_events(net, id, &mut events);
                self.tcp_events = events;
                self.arm_tcp_tick(id);
            }
        }
    }

    /// Hands transport events to the host's app, draining `events`.
    fn dispatch_tcp_events(&mut self, net: &Net<'_>, id: LocalId, events: &mut Vec<TcpEvent>) {
        for ev in events.drain(..) {
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
        let host = &mut self.hosts[i];
        if host.tick_at != Some(time) {
            return; // stale tick
        }
        host.tick_at = None;
        let (mut events, replies) = host.tcp_at(self.now).poll();
        self.transmit(net, i, replies);
        self.dispatch_tcp_events(net, id, &mut events);
        self.arm_tcp_tick(id);
    }

    /// (Re-)arms the host's retransmission tick at its earliest TCP
    /// deadline. No-op for hosts without a stack or without pending
    /// retransmissions — clean non-reliable runs never see a tick event.
    /// An unreliable stack never sets a deadline, so its sockets are not
    /// walked at all.
    fn arm_tcp_tick(&mut self, id: LocalId) {
        let host = &mut self.hosts[id as usize];
        if !host.reliable {
            return;
        }
        let Some(deadline) = host.tcp().and_then(TcpStack::next_deadline) else {
            return;
        };
        let t = deadline.max(self.now);
        if let Some(cur) = host.tick_at {
            if cur <= t {
                return; // an earlier (or equal) tick will re-arm us
            }
        }
        host.tick_at = Some(t);
        self.push_event(t, EventKind::TcpTick(id));
    }

    /// Runs `f` with the host's app and a [`Ctx`] over the region's
    /// reused outbox, then applies and drains the collected outputs
    /// (packet sends, timers).
    fn with_app<F>(&mut self, net: &Net<'_>, id: LocalId, f: F)
    where
        F: FnOnce(&mut dyn App, &mut Ctx<'_>),
    {
        let i = id as usize;
        let mut out = std::mem::take(&mut self.outbox);
        let host = &mut self.hosts[i];
        let mut app = host.app.take().expect("app present");
        f(
            app.as_mut(),
            &mut Ctx {
                now: self.now,
                host,
                rng: &mut self.rng,
                out: &mut out,
            },
        );
        self.hosts[i].app = Some(app);
        self.transmit(net, i, out.packets.drain(..));
        for (delay, token) in out.timers.drain(..) {
            self.push_event(self.now + delay, EventKind::Timer(id, token));
        }
        self.outbox = out;
        // The callback may have queued sends/connects that armed an RTO.
        self.arm_tcp_tick(id);
    }

    /// Counts `packets` against host `i`'s tx counters and sends them.
    fn transmit(&mut self, net: &Net<'_>, i: usize, packets: impl IntoIterator<Item = Packet>) {
        for p in packets {
            let counters = &mut self.hosts[i].counters;
            counters.tx_packets += 1;
            counters.tx_bytes += p.wire_len() as u64;
            self.send_packet(net, p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives an [`EventQueue`] and one plain heap with the same pushes
    /// and pops: constant-latency keys (lane-eligible), jittered keys
    /// (some below the lane's back), equal times and heap-only keys.
    #[test]
    fn heap_plus_lane_pops_in_single_heap_order() {
        const LATENCY: Nanos = 100;
        for seed in 0..32 {
            let mut rng = SimRng::new(seed);
            let mut queue = EventQueue::with_capacity(0);
            let mut reference = BinaryHeap::new();
            let (mut popped, mut expected) = (Vec::new(), Vec::new());
            let mut now: Nanos = 0;
            for seq in 0..2_000u64 {
                let slot = seq as u32;
                match rng.gen_range(6) {
                    // Packets at constant latency, often several at one `now`.
                    0..=2 => {
                        let key = (now + LATENCY, seq, slot);
                        queue.push_in_order(key);
                        reference.push(Reverse(key));
                    }
                    // A jittered packet: may sort below the lane's back.
                    3 => {
                        let key = (now + LATENCY - 50 + rng.gen_range(101), seq, slot);
                        queue.push_in_order(key);
                        reference.push(Reverse(key));
                    }
                    // Timers and ticks: heap only, at any time from now.
                    4 => {
                        let key = (now + rng.gen_range(3 * LATENCY), seq, slot);
                        queue.push(key);
                        reference.push(Reverse(key));
                    }
                    // Run a window: pop everything due before a horizon.
                    _ => {
                        let hi = now + rng.gen_range(2 * LATENCY);
                        while let Some(key) = queue.pop_before(hi) {
                            now = key.0;
                            popped.push(key);
                        }
                        while reference.peek().is_some_and(|Reverse(k)| k.0 < hi) {
                            expected.extend(reference.pop().map(|Reverse(k)| k));
                        }
                    }
                }
                assert_eq!(queue.next_time(), reference.peek().map(|Reverse(k)| k.0));
            }
            popped.extend(std::iter::from_fn(|| queue.pop_before(Nanos::MAX)));
            expected.extend(std::iter::from_fn(|| reference.pop().map(|Reverse(k)| k)));
            assert_eq!(popped, expected, "seed {seed}");
            // Every push is due at or after `now`, so the whole pop
            // sequence is sorted by `(time, seq)`, as a simulation's is.
            assert!(popped.windows(2).all(|w| w[0] < w[1]), "seed {seed}");
        }
    }

    /// Pushed all at once, the mix pops sorted by `(time, seq)`.
    #[test]
    fn heap_plus_lane_drains_sorted() {
        let mut rng = SimRng::new(7);
        let mut queue = EventQueue::with_capacity(0);
        let mut keys = Vec::new();
        for seq in 0..5_000u64 {
            let time = match rng.gen_range(4) {
                0 => 1_000,                        // equal times
                1 => 1_000 + seq,                  // ascending: the lane
                2 => rng.gen_range(2_000),         // below the lane's back
                _ => 1_000 + rng.gen_range(5_000), // jittered
            };
            let key = (time, seq, seq as u32);
            if rng.gen_bool(0.25) {
                queue.push(key);
            } else {
                queue.push_in_order(key);
            }
            keys.push(key);
        }
        assert!(!queue.lane.is_empty() && !queue.heap.is_empty());
        keys.sort_unstable();
        let popped: Vec<EventKey> = std::iter::from_fn(|| queue.pop_before(Nanos::MAX)).collect();
        assert_eq!(popped, keys);
    }
}
