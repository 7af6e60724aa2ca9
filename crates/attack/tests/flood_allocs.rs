//! The allocation contract of the flood engine: once a [`Flooder`]'s
//! session is up, the whole simulation — attacker, transport, event loop
//! and listener — spends on one flood message exactly the allocations of
//! the frame it builds. `Message::to_frame` encodes the message into one
//! `Vec`, `Bytes` wraps it in one `Arc`, and `Ctx::send_bytes` hands that
//! handle to the transport without a copy. A `DuplicateVersion` adds the
//! user-agent `String` of `VersionMessage::new`.
//!
//! A counting `#[global_allocator]` (per-thread counters over `System`)
//! measures it; the test harness runs each test on its own thread, so
//! only this test's allocations are counted.

use btc_attack::flood::{FloodConfig, Flooder};
use btc_attack::payload::FloodPayload;
use btc_netsim::packet::{Ipv4, SockAddr};
use btc_netsim::sim::{App, Ctx, HostConfig, SimConfig, Simulator};
use btc_netsim::tcp::ConnId;
use btc_netsim::time::SECS;
use btc_wire::message::{Message, VersionMessage};
use btc_wire::types::{NetAddr, Network};
use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation (and reallocation) made on the current thread.
struct Counting;

fn count() {
    // `try_with`: a thread-local being torn down must not abort the
    // allocation that touched it.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counter
// is a const-initialised `Cell` without a destructor, so touching it
// never allocates or recurses.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `alloc` preconditions, passed on unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `alloc_zeroed` preconditions, unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller's `realloc` preconditions, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const NET: Network = Network::Regtest;
const ATTACKER: Ipv4 = [10, 0, 0, 66];
const LISTENER: Ipv4 = [10, 0, 0, 1];
const PORT: u16 = 8333;

/// Answers each inbound session with VERSION and VERACK, then reads
/// nothing: every byte the flooder sends is dropped on arrival.
#[derive(Default)]
struct Listener {
    segments: u64,
}

impl App for Listener {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(PORT);
    }
    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, peer: SockAddr, _inbound: bool) {
        let local = ctx.local_of(conn).unwrap_or_default();
        let v = VersionMessage::new(
            NetAddr::new(local.ip, local.port),
            NetAddr::new(peer.ip, peer.port),
            0,
        );
        ctx.send_bytes(conn, Message::Version(v).to_frame(NET));
        ctx.send_bytes(conn, Message::Verack.to_frame(NET));
    }
    fn on_data(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _peer: SockAddr, _data: &[u8]) {
        self.segments += 1;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Floods `payload` at the listener and returns (allocations, messages
/// sent) over two sim-seconds after two sim-seconds of warm-up.
fn measure(payload: FloodPayload) -> (u64, u64) {
    let mut sim = Simulator::new(SimConfig::default());
    sim.add_host(
        LISTENER,
        Box::new(Listener::default()),
        HostConfig::default(),
    );
    let flooder = Flooder::new(FloodConfig {
        target: SockAddr::new(LISTENER, PORT),
        network: NET,
        payload,
        ..FloodConfig::default()
    });
    sim.add_host(ATTACKER, Box::new(flooder), HostConfig::default());

    // Warm-up: handshake, then enough flooding for the event queue, the
    // delivery lane, the outbox and the transport buffers to reach their
    // peak sizes.
    sim.run_for(2 * SECS);
    let sent = |sim: &Simulator| {
        sim.app::<Flooder>(ATTACKER)
            .expect("flooder")
            .stats
            .messages_sent
    };
    let warm = sent(&sim);
    assert!(warm > 1_000, "warm-up sent {warm} messages");

    let before = allocations();
    sim.run_for(2 * SECS);
    let spent = allocations() - before;
    let messages = sent(&sim) - warm;

    let flooder = sim.app::<Flooder>(ATTACKER).expect("flooder");
    assert_eq!(flooder.stats.sessions_established, 1);
    assert!(flooder.stats.bans.is_empty());
    let listener = sim.app::<Listener>(LISTENER).expect("listener");
    // The flooder's VERSION and VERACK, then one segment per message.
    assert_eq!(
        listener.segments,
        flooder.stats.messages_sent + 2,
        "every frame arrived"
    );
    (spent, messages)
}

#[test]
fn ping_flood_spends_one_frame_per_message() {
    let (spent, messages) = measure(FloodPayload::Ping);
    assert!(messages > 1_000, "measured {messages} messages");
    assert_eq!(
        spent,
        2 * messages,
        "{spent} heap allocations for {messages} PINGs (want 2 each: the frame's Vec and Arc)"
    );
}

#[test]
fn duplicate_version_flood_spends_one_frame_and_a_user_agent_per_message() {
    let (spent, messages) = measure(FloodPayload::DuplicateVersion);
    assert!(messages > 1_000, "measured {messages} messages");
    assert_eq!(
        spent,
        3 * messages,
        "{spent} heap allocations for {messages} VERSIONs \
         (want 3 each: the frame's Vec and Arc, and the user-agent String)"
    );
}
