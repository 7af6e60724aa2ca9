//! The allocation contract of the simulator's TCP data path: once a
//! connection is established and the event loop's buffers have grown to
//! the traffic's peak, a segment sent with [`Ctx::send_bytes`] of a cloned
//! [`Bytes`] and delivered to an app costs no heap allocation at all —
//! not in the transport, not in the event queue, not in the outbox.
//!
//! A counting `#[global_allocator]` (per-thread counters over `System`)
//! measures it; the test harness runs each test on its own thread, so
//! only this test's allocations are counted.

use btc_netsim::packet::{Ipv4, SockAddr};
use btc_netsim::sim::{App, Ctx, HostConfig, SimConfig, Simulator};
use btc_netsim::tcp::ConnId;
use btc_netsim::time::{Nanos, MICROS, MILLIS};
use btc_wire::bytes::Bytes;
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

const SENDER: Ipv4 = [10, 0, 0, 1];
const SINK: Ipv4 = [10, 0, 0, 2];
const PORT: u16 = 8333;
/// Segments sent per timer tick.
const BURST: u64 = 10;
const TICK: Nanos = 10 * MICROS;
const MEASURED: u64 = 10_000;

/// Sends `BURST` clones of one small frame per tick once connected.
struct Sender {
    frame: Bytes,
    conn: Option<ConnId>,
    refused: u64,
}

impl App for Sender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.connect(SockAddr::new(SINK, PORT));
    }
    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _peer: SockAddr, _inbound: bool) {
        self.conn = Some(conn);
        ctx.set_timer(TICK, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(conn) = self.conn else { return };
        for _ in 0..BURST {
            if !ctx.send_bytes(conn, self.frame.clone()) {
                self.refused += 1;
            }
        }
        ctx.set_timer(TICK, token);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Counts delivered segments and bytes.
#[derive(Default)]
struct Sink {
    segments: u64,
    bytes: u64,
}

impl App for Sink {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(PORT);
    }
    fn on_data(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _peer: SockAddr, data: &[u8]) {
        self.segments += 1;
        self.bytes += data.len() as u64;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn sink(sim: &Simulator) -> (u64, u64) {
    let s = sim.app::<Sink>(SINK).expect("sink app");
    (s.segments, s.bytes)
}

#[test]
fn established_unreliable_segments_allocate_nothing() {
    // A PING-sized frame: 24-byte header plus an 8-byte nonce.
    let frame = Bytes::from(vec![0x5A; 32]);
    let mut sim = Simulator::new(SimConfig::default());
    let sender = Sender {
        frame: frame.clone(),
        conn: None,
        refused: 0,
    };
    sim.add_host(SENDER, Box::new(sender), HostConfig::default());
    sim.add_host(SINK, Box::new(Sink::default()), HostConfig::default());

    // Warm-up: handshake, then enough steady traffic for the event slab,
    // the delivery lane, the outbox and the transport buffers to reach
    // their peak sizes.
    sim.run_for(2 * MILLIS);
    let (warm_segments, warm_bytes) = sink(&sim);
    assert!(
        warm_segments > 1_000,
        "warm-up delivered {warm_segments} segments"
    );

    let before = allocations();
    let ticks = MEASURED / BURST;
    sim.run_for(ticks * TICK);
    let spent = allocations() - before;

    let (segments, bytes) = sink(&sim);
    assert_eq!(
        segments - warm_segments,
        MEASURED,
        "segments delivered while measured"
    );
    assert_eq!(bytes - warm_bytes, MEASURED * frame.len() as u64);
    assert_eq!(sim.app::<Sender>(SENDER).expect("sender app").refused, 0);
    assert_eq!(
        spent, 0,
        "{spent} heap allocations for {MEASURED} established segments (want 0)"
    );
}
