//! The event-loop core: one [`Region`] is one event queue (a `BinaryHeap`
//! of event keys and, beside it, two sorted lanes: one for the
//! constant-latency deliveries that arrive already sorted, one for
//! cross-region mail) over a `Vec` of [`Host`] records, with its own RNG
//! streams.
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
use crate::shard::DEFAULT_REGION_LATENCY;
use crate::sim::{
    App, Ctx, HostCounters, Outbox, SimConfig, Sniffed, TapFilter, TapRing, DEFAULT_ICMP_COST,
    DEFAULT_KERNEL_COST,
};
use crate::tcp::{TcpDropStats, TcpEvent, TcpStack};
use crate::time::Nanos;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::DerefMut;

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

/// One [`HostIndex`] slot, 12 bytes: an address and where its host lives,
/// or an empty slot when `region` is [`VACANT`].
#[derive(Clone, Copy)]
struct Slot {
    ip: u32,
    region: RegionId,
    local: LocalId,
}

/// The `region` of an empty [`HostIndex`] slot. No simulator has that
/// many regions: a region id is below `SimConfig::regions`.
const VACANT: RegionId = RegionId::MAX;

const EMPTY: Slot = Slot {
    ip: 0,
    region: VACANT,
    local: 0,
};

/// The global ip → (region, host record) index: an open-addressing table
/// with Fibonacci hashing and linear probing, at most ¾ full, so a lookup
/// costs about one probe. At that load it holds no more slots than a
/// sorted `Vec` of the hosts grown by doubling would. Nothing walks the
/// table — it only answers lookups — so its layout never reaches an
/// output.
pub(crate) struct HostIndex {
    /// A power of two in length, never below [`Self::INITIAL_SLOTS`].
    slots: Vec<Slot>,
    /// Occupied slots.
    len: usize,
}

impl Default for HostIndex {
    fn default() -> Self {
        HostIndex {
            slots: vec![EMPTY; Self::INITIAL_SLOTS],
            len: 0,
        }
    }
}

impl HostIndex {
    const INITIAL_SLOTS: usize = 16;

    /// The slot probing starts at for `ip` in a table of `slots` slots (a
    /// power of two): the top bits of the Fibonacci product.
    fn home(ip: u32, slots: usize) -> usize {
        let shift = u64::BITS - slots.trailing_zeros();
        (u64::from(ip).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
    }

    /// Probes `slots` for `ip`: `Ok(at)` when it is there, otherwise
    /// `Err(at)` with the empty slot the probe stopped at. The table is
    /// never full, so the probe always meets one.
    fn find(slots: &[Slot], ip: u32) -> Result<usize, usize> {
        let mask = slots.len() - 1;
        let mut at = Self::home(ip, slots.len());
        loop {
            let slot = slots[at];
            if slot.region == VACANT {
                return Err(at);
            }
            if slot.ip == ip {
                return Ok(at);
            }
            at = (at + 1) & mask;
        }
    }

    #[inline]
    pub(crate) fn lookup(&self, ip: Ipv4) -> Option<(RegionId, LocalId)> {
        let at = Self::find(&self.slots, u32::from_be_bytes(ip)).ok()?;
        let slot = self.slots[at];
        Some((slot.region, slot.local))
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

    /// Registers `ip` at `at`, doubling the table when that takes it past
    /// ¾ full.
    ///
    /// # Panics
    ///
    /// Panics if `ip` is already registered.
    pub(crate) fn insert(&mut self, ip: Ipv4, (region, local): (RegionId, LocalId)) {
        let key = u32::from_be_bytes(ip);
        let Err(vacant) = Self::find(&self.slots, key) else {
            panic!("host {ip:?} already registered");
        };
        self.slots[vacant] = Slot {
            ip: key,
            region,
            local,
        };
        self.len += 1;
        if self.len * 4 > self.slots.len() * 3 {
            let mut slots = vec![EMPTY; self.slots.len() * 2];
            for slot in self.slots.iter().filter(|s| s.region != VACANT) {
                if let Err(vacant) = Self::find(&slots, slot.ip) {
                    slots[vacant] = *slot;
                }
            }
            self.slots = slots;
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
    /// index, not a second ip lookup.
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

/// A region's pending events: a min-heap of keys plus two sorted lanes.
///
/// Almost every event of a flood is a packet due exactly `latency` after
/// a `now` that never decreases, so those keys are born in `(time, seq)`
/// order: [`push_in_order`](Self::push_in_order) appends them to the
/// local lane in O(1), and they never sift. Cross-region mail arrives a
/// round at a time; [`push_mail`](Self::push_mail) sorts a round's keys
/// once and appends them to the mail lane, and at constant latency a
/// round's mail is all due after the last round's. A key that would
/// break either lane's order (a packet jitter or reordering moved
/// earlier) falls back to the heap, as do timers, TCP ticks and starts
/// ([`push`](Self::push)). A pop takes the smallest of the three heads;
/// `seq` is unique, so the pop order is exactly that of one heap holding
/// every key.
///
/// Simpler than a calendar queue: no bucket width to tune and no resize,
/// and the events that dominate cost O(1) either way.
struct EventQueue {
    heap: BinaryHeap<Reverse<EventKey>>,
    /// Sorted ascending; only ever appended at the back and popped at the
    /// front. Not preallocated: it grows to the peak number of packets in
    /// flight and keeps that capacity.
    lane: VecDeque<EventKey>,
    /// The mail lane: sorted like `lane`, and empty in a one-region run.
    mail: VecDeque<EventKey>,
}

/// Where [`EventQueue::head`] found the smallest key.
#[derive(Clone, Copy)]
enum Head {
    Heap,
    Lane,
    Mail,
}

impl EventQueue {
    fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            lane: VecDeque::new(),
            mail: VecDeque::new(),
        }
    }

    fn push(&mut self, key: EventKey) {
        self.heap.push(Reverse(key));
    }

    /// Appends `key` to the local lane when it sorts at or after the
    /// lane's back, and pushes it on the heap otherwise.
    fn push_in_order(&mut self, key: EventKey) {
        if self.lane.back().is_none_or(|&back| back <= key) {
            self.lane.push_back(key);
        } else {
            self.push(key);
        }
    }

    /// Queues a round's mail keys, leaving `keys` empty with its
    /// capacity: sorted, each appended to the mail lane when it sorts at
    /// or after the lane's back and pushed on the heap otherwise.
    fn push_mail(&mut self, keys: &mut Vec<EventKey>) {
        keys.sort_unstable();
        for key in keys.drain(..) {
            if self.mail.back().is_none_or(|&back| back <= key) {
                self.mail.push_back(key);
            } else {
                self.push(key);
            }
        }
    }

    /// The smallest key, and where it is.
    fn head(&self) -> Option<(EventKey, Head)> {
        let mut head = self.heap.peek().map(|&Reverse(key)| (key, Head::Heap));
        for (front, at) in [
            (self.lane.front(), Head::Lane),
            (self.mail.front(), Head::Mail),
        ] {
            if let Some(&key) = front {
                if head.is_none_or(|(best, _)| key < best) {
                    head = Some((key, at));
                }
            }
        }
        head
    }

    /// Time of the earliest queued event.
    fn next_time(&self) -> Option<Nanos> {
        self.head().map(|((time, _, _), _)| time)
    }

    /// Removes and returns the smallest key if it is due before `hi_excl`.
    fn pop_before(&mut self, hi_excl: Nanos) -> Option<EventKey> {
        let (key, at) = self.head()?;
        if key.0 >= hi_excl {
            return None;
        }
        match at {
            Head::Heap => {
                self.heap.pop();
            }
            Head::Lane => {
                self.lane.pop_front();
            }
            Head::Mail => {
                self.mail.pop_front();
            }
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
    /// The keys of the mail [`accept_mail`](Self::accept_mail) is
    /// queueing, reused.
    mail_keys: Vec<EventKey>,
    /// Earliest delivery time of the mail staged since the k-region
    /// rounds last cleared it. That mail reaches its destinations' queues
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
            mail_keys: Vec::new(),
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

    /// Queues a round's mail for this region, leaving each mailbox empty
    /// with its capacity. Sequence numbers follow the given order —
    /// mailbox by mailbox, FIFO within one — so same-time ties break the
    /// same way however the keys are then queued.
    pub(crate) fn accept_mail<M>(&mut self, mailboxes: impl IntoIterator<Item = M>)
    where
        M: DerefMut<Target = Vec<Mail>>,
    {
        let mut keys = std::mem::take(&mut self.mail_keys);
        for mut mailbox in mailboxes {
            for m in mailbox.drain(..) {
                keys.push(self.store(m.time, EventKind::Deliver(m.packet, Some(m.dst))));
            }
        }
        self.queue.push_mail(&mut keys);
        self.mail_keys = keys;
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
            DEFAULT_REGION_LATENCY
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
    use std::collections::BTreeMap;

    const LATENCY: Nanos = 100;
    const REGION_LATENCY: Nanos = 1_000;

    /// One round's mail for a region, as [`Region::accept_mail`] numbers
    /// it: up to four source mailboxes, each a FIFO run of sends from
    /// `now` on, due `REGION_LATENCY` later and moved by up to `jitter`
    /// either way. Sends fall on a 10-ns grid, so sources share times.
    fn mail_batch(rng: &mut SimRng, now: Nanos, seq: &mut u64, jitter: Nanos) -> Vec<EventKey> {
        let mut keys = Vec::new();
        for _source in 0..1 + rng.gen_range(4) {
            let mut sent = now;
            for _ in 0..rng.gen_range(6) {
                sent += 10 * rng.gen_range(3);
                let time = sent + REGION_LATENCY - jitter + rng.gen_range(2 * jitter + 1);
                keys.push((time, *seq, *seq as u32));
                *seq += 1;
            }
        }
        keys
    }

    /// Drives an [`EventQueue`] and one plain heap with the same pushes
    /// and pops: constant-latency keys (lane-eligible), jittered keys
    /// (some below the lane's back), heap-only keys, and rounds of mail
    /// from several sources, clean or jittered below the mail lane's back.
    #[test]
    fn heap_plus_lane_pops_in_single_heap_order() {
        for seed in 0..32 {
            let mut rng = SimRng::new(seed);
            let mut queue = EventQueue::with_capacity(0);
            let mut reference = BinaryHeap::new();
            let (mut popped, mut expected) = (Vec::new(), Vec::new());
            let mut now: Nanos = 0;
            let mut seq = 0u64;
            while seq < 2_000 {
                let slot = seq as u32;
                match rng.gen_range(8) {
                    // Packets at constant latency, often several at one `now`.
                    0..=2 => {
                        let key = (now + LATENCY, seq, slot);
                        queue.push_in_order(key);
                        reference.push(Reverse(key));
                        seq += 1;
                    }
                    // A jittered packet: may sort below the lane's back.
                    3 => {
                        let key = (now + LATENCY - 50 + rng.gen_range(101), seq, slot);
                        queue.push_in_order(key);
                        reference.push(Reverse(key));
                        seq += 1;
                    }
                    // Timers and ticks: heap only, at any time from now.
                    4 => {
                        let key = (now + rng.gen_range(3 * REGION_LATENCY), seq, slot);
                        queue.push(key);
                        reference.push(Reverse(key));
                        seq += 1;
                    }
                    // A round's mail, clean or jittered.
                    5 | 6 => {
                        let jitter = if rng.gen_bool(0.5) { 0 } else { 300 };
                        let mut keys = mail_batch(&mut rng, now, &mut seq, jitter);
                        reference.extend(keys.iter().copied().map(Reverse));
                        queue.push_mail(&mut keys);
                        assert!(keys.is_empty());
                    }
                    // Run a window: pop everything due before a horizon.
                    _ => {
                        let hi = now + rng.gen_range(2 * REGION_LATENCY);
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

    /// Pushed all at once, the mix pops sorted by `(time, seq)`, and both
    /// lanes really did send keys below their backs to the heap.
    #[test]
    fn heap_plus_lane_drains_sorted() {
        let mut rng = SimRng::new(7);
        let mut queue = EventQueue::with_capacity(0);
        let mut keys = Vec::new();
        let (mut to_lane, mut to_mail) = (0, 0);
        let mut seq = 0u64;
        while seq < 5_000 {
            let time = match rng.gen_range(5) {
                0 => 1_000,                        // equal times
                1 => 1_000 + seq,                  // ascending: the lane
                2 => rng.gen_range(2_000),         // below the lane's back
                3 => 1_000 + rng.gen_range(5_000), // jittered
                _ => {
                    let now = rng.gen_range(5_000);
                    let jitter = if rng.gen_bool(0.5) { 0 } else { 300 };
                    let mut batch = mail_batch(&mut rng, now, &mut seq, jitter);
                    keys.extend_from_slice(&batch);
                    to_mail += batch.len();
                    queue.push_mail(&mut batch);
                    continue;
                }
            };
            let key = (time, seq, seq as u32);
            seq += 1;
            if rng.gen_bool(0.25) {
                queue.push(key);
            } else {
                queue.push_in_order(key);
                to_lane += 1;
            }
            keys.push(key);
        }
        assert!(!queue.lane.is_empty() && queue.lane.len() < to_lane);
        assert!(!queue.mail.is_empty() && queue.mail.len() < to_mail);
        keys.sort_unstable();
        let popped: Vec<EventKey> = std::iter::from_fn(|| queue.pop_before(Nanos::MAX)).collect();
        assert_eq!(popped, keys);
    }

    /// Addresses shaped like the swarm's (ascending from 172.16.0.0),
    /// random ones, and ones that all start probing at the same slot.
    fn index_addresses() -> Vec<Ipv4> {
        let mut ips: Vec<Ipv4> = (0..3_000u32)
            .map(|i| (0xAC10_0000 + i).to_be_bytes())
            .collect();
        let mut rng = SimRng::new(11);
        ips.extend((0..3_000).map(|_| (rng.next_u64() as u32).to_be_bytes()));
        // Equal top twelve bits of the Fibonacci product: one home slot
        // in every table of up to 4096 slots.
        let home = |ip: u32| HostIndex::home(ip, 4096);
        let target = home(0x0A00_0001);
        ips.extend(
            (0x0A00_0001..)
                .filter(|&ip| home(ip) == target)
                .take(200)
                .map(u32::to_be_bytes),
        );
        ips
    }

    /// The table answers as a `BTreeMap` holding the same hosts does,
    /// after every insert while it grows from 16 to 16 384 slots,
    /// including for addresses it never saw.
    #[test]
    fn host_index_matches_a_sorted_map() {
        let mut index = HostIndex::default();
        let mut oracle = BTreeMap::new();
        let mut absent = SimRng::new(12);
        for (k, ip) in index_addresses().into_iter().enumerate() {
            if oracle.contains_key(&ip) {
                continue; // a random address drawn twice
            }
            let at = ((k % 8) as RegionId, k as LocalId);
            index.insert(ip, at);
            oracle.insert(ip, at);
            if k % 97 == 0 {
                for (ip, at) in &oracle {
                    assert_eq!(index.lookup(*ip), Some(*at));
                }
            }
            let stranger = (absent.next_u64() as u32).to_be_bytes();
            assert_eq!(index.lookup(stranger), oracle.get(&stranger).copied());
        }
        assert_eq!(index.len, oracle.len());
        assert_eq!(index.slots.len(), 16_384);
        for (ip, at) in &oracle {
            assert_eq!(index.lookup(*ip), Some(*at));
            assert_eq!(index.locate(*ip), (at.0 as usize, at.1 as usize));
        }
        assert_eq!(index.lookup([172, 15, 255, 255]), None);
        assert_eq!(HostIndex::default().lookup([0, 0, 0, 0]), None);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn host_index_rejects_a_duplicate() {
        let mut index = HostIndex::default();
        index.insert([10, 0, 0, 1], (0, 0));
        index.insert([10, 0, 0, 2], (1, 0));
        index.insert([10, 0, 0, 1], (1, 1));
    }
}
