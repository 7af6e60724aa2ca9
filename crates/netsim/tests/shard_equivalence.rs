//! Regression contract of the sharded engine: a one-region
//! [`ShardedSim`] replays the serial [`Simulator`] **exactly** — same
//! captures, same counters, same RNG draws — on the determinism fixtures
//! the serial simulator pins (the echo pair), clean and under faults.
//!
//! Both run the one event loop in `region.rs` (`Simulator` is region 0
//! without the lock), so what this file guards is the front-ends: the
//! sharded side's window/horizon arithmetic, mail exchange and `now`
//! clamping must add nothing a single region can observe.

use btc_netsim::faults::{FaultKind, FaultPlan, LinkFaults};
use btc_netsim::packet::{IcmpEcho, Ipv4, SockAddr};
use btc_netsim::shard::{ShardConfig, ShardedSim};
use btc_netsim::sim::{
    App, Ctx, HostConfig, HostCounters, SimConfig, Simulator, Sniffed, TapFilter,
};
use btc_netsim::tcp::{CloseReason, ConnId, TcpDropStats};
use btc_netsim::time::{Nanos, MILLIS, SECS};
use std::any::Any;

const SRV: Ipv4 = [10, 0, 0, 1];
const CLI: Ipv4 = [10, 0, 0, 2];

/// Echo server: accepts connections and echoes data back.
#[derive(Default)]
struct EchoServer {
    port: u16,
}

impl App for EchoServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(self.port);
    }
    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _peer: SockAddr, data: &[u8]) {
        ctx.send(conn, data);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Client: connects at start, sends periodic payloads and pings.
struct Client {
    dst: SockAddr,
    conn: Option<ConnId>,
    sent: u32,
    echoed: u32,
    closed: Option<CloseReason>,
}

impl Client {
    fn new(dst: SockAddr) -> Self {
        Client {
            dst,
            conn: None,
            sent: 0,
            echoed: 0,
            closed: None,
        }
    }
}

impl App for Client {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.connect(self.dst);
        ctx.set_timer(50 * MILLIS, 1);
    }
    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _p: SockAddr, _inb: bool) {
        self.conn = Some(conn);
        ctx.send(conn, b"hello over tcp");
    }
    fn on_data(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId, _p: SockAddr, _data: &[u8]) {
        self.echoed += 1;
    }
    fn on_closed(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId, _p: SockAddr, reason: CloseReason) {
        self.closed = Some(reason);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if let Some(conn) = self.conn {
            // A payload whose bytes depend on the app RNG stream: any
            // draw-order divergence between the engines shows up in the
            // capture bytes, not just in counts.
            let b = ctx.rng().next_u64().to_le_bytes();
            if ctx.send(conn, &b) {
                self.sent += 1;
            }
        }
        ctx.send_icmp(self.dst.ip, 7, self.sent as u16, 56);
        ctx.set_timer(50 * MILLIS, 1);
    }
    fn on_icmp(&mut self, _ctx: &mut Ctx<'_>, _from: Ipv4, _echo: &IcmpEcho) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Everything a run reduces to for the equality assertions.
#[derive(Debug, PartialEq)]
struct Trace {
    captures: Vec<Sniffed>,
    srv: HostCounters,
    cli: HostCounters,
    srv_drops: TcpDropStats,
    cli_drops: TcpDropStats,
    srv_busy: u64,
    delivered: u64,
    dropped_loss: u64,
    jittered: u64,
    dropped_partition: u64,
}

fn run_serial(faults: LinkFaults, plan: FaultPlan, dur: Nanos) -> Trace {
    let mut sim = Simulator::new(SimConfig {
        faults,
        ..SimConfig::default()
    });
    if !plan.is_none() {
        sim.set_fault_plan(plan);
    }
    sim.add_host(
        SRV,
        Box::new(EchoServer { port: 8333 }),
        HostConfig::default(),
    );
    sim.add_host(
        CLI,
        Box::new(Client::new(SockAddr::new(SRV, 8333))),
        HostConfig::default(),
    );
    let tap = sim.add_tap(TapFilter::All);
    sim.run_for(dur);
    let fs = sim.fault_stats();
    Trace {
        captures: tap.drain(),
        srv: sim.host_counters(SRV),
        cli: sim.host_counters(CLI),
        srv_drops: sim.host_tcp_drops(SRV),
        cli_drops: sim.host_tcp_drops(CLI),
        srv_busy: sim.host_cpu(SRV).cum_busy(),
        delivered: sim.delivered_packets(),
        dropped_loss: fs.dropped_loss,
        jittered: fs.jittered,
        dropped_partition: fs.dropped_partition,
    }
}

fn run_sharded(faults: LinkFaults, plan: FaultPlan, dur: Nanos) -> Trace {
    let mut sim = ShardedSim::new(ShardConfig {
        regions: 1,
        workers: 1,
        faults,
        ..ShardConfig::default()
    });
    if !plan.is_none() {
        sim.set_fault_plan(plan);
    }
    sim.add_host(
        SRV,
        Box::new(EchoServer { port: 8333 }),
        HostConfig::default(),
    );
    sim.add_host(
        CLI,
        Box::new(Client::new(SockAddr::new(SRV, 8333))),
        HostConfig::default(),
    );
    let tap = sim.add_tap(TapFilter::All);
    sim.run_for(dur);
    let fs = sim.fault_stats();
    Trace {
        captures: tap.drain(),
        srv: sim.host_counters(SRV),
        cli: sim.host_counters(CLI),
        srv_drops: sim.host_tcp_drops(SRV),
        cli_drops: sim.host_tcp_drops(CLI),
        srv_busy: sim.host_cpu(SRV).cum_busy(),
        delivered: sim.delivered_packets(),
        dropped_loss: fs.dropped_loss,
        jittered: fs.jittered,
        dropped_partition: fs.dropped_partition,
    }
}

#[test]
fn one_region_replays_the_serial_simulator_clean() {
    let serial = run_serial(LinkFaults::NONE, FaultPlan::none(), 3 * SECS);
    let sharded = run_sharded(LinkFaults::NONE, FaultPlan::none(), 3 * SECS);
    assert!(!serial.captures.is_empty(), "fixture produced traffic");
    assert_eq!(serial, sharded);
}

#[test]
fn one_region_replays_the_serial_simulator_under_faults() {
    // Loss + jitter force the reliable transport and exercise the fault
    // RNG stream; the sharded engine must consume it draw for draw.
    let faults = LinkFaults {
        loss: 0.05,
        jitter: 2 * MILLIS,
        ..LinkFaults::NONE
    };
    let serial = run_serial(faults, FaultPlan::none(), 3 * SECS);
    let sharded = run_sharded(faults, FaultPlan::none(), 3 * SECS);
    assert!(serial.dropped_loss > 0, "loss fired in the fixture");
    assert!(serial.jittered > 0, "jitter fired in the fixture");
    assert_eq!(serial, sharded);
}

#[test]
fn one_region_replays_the_serial_simulator_with_a_fault_plan() {
    let plan = FaultPlan::none()
        .with(SECS, 2 * SECS, FaultKind::HostDown(SRV))
        .with(2 * SECS + 500 * MILLIS, 3 * SECS, FaultKind::Partition(SRV, CLI));
    let serial = run_serial(LinkFaults::NONE, plan.clone(), 4 * SECS);
    let sharded = run_sharded(LinkFaults::NONE, plan, 4 * SECS);
    assert!(serial.dropped_partition > 0, "plan fired in the fixture");
    assert_eq!(serial, sharded);
}

/// Sends a single echo request to `dst` at start.
struct OnePing {
    dst: Ipv4,
}

impl App for OnePing {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send_icmp(self.dst, 1, 0, 56);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One rule, on both front-ends, for a packet whose destination registers
/// while it is in flight: a host that appears in the delivering region
/// before the link latency elapses receives it. (Before the shared core,
/// the serial loop delivered and the sharded loop dropped.) A host that
/// appears in a *different* region does not — the packet was never staged
/// as cross-region mail.
#[test]
fn destination_registered_in_flight_receives_the_packet() {
    let half = SimConfig::default().latency / 2;

    let mut serial = Simulator::new(SimConfig::default());
    serial.add_host(CLI, Box::new(OnePing { dst: SRV }), HostConfig::default());
    serial.run_for(half);
    serial.add_host(SRV, Box::new(EchoServer::default()), HostConfig::default());
    serial.run_for(SECS);

    let sharded_with_late_host_in = |regions: u32, region: u32| {
        let mut sim = ShardedSim::new(ShardConfig {
            regions,
            ..ShardConfig::default()
        });
        sim.add_host_pinned(CLI, Box::new(OnePing { dst: SRV }), HostConfig::default(), 0);
        sim.run_for(half);
        sim.add_host_pinned(SRV, Box::new(EchoServer::default()), HostConfig::default(), region);
        sim.run_for(SECS);
        sim
    };

    let same_region = sharded_with_late_host_in(1, 0);
    assert_eq!(serial.host_counters(SRV).rx_packets, 1);
    assert_eq!(same_region.host_counters(SRV).rx_packets, 1);
    // Request and reply.
    assert_eq!(serial.delivered_packets(), 2);
    assert_eq!(same_region.delivered_packets(), serial.delivered_packets());
    assert_eq!(same_region.host_counters(CLI), serial.host_counters(CLI));

    let other_region = sharded_with_late_host_in(2, 1);
    assert_eq!(other_region.host_counters(SRV).rx_packets, 0);
    assert_eq!(other_region.delivered_packets(), 1);
}
