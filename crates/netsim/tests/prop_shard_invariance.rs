//! Property tests of the region rounds' determinism contract
//! (`btc_netsim::shard`):
//!
//! 1. **Worker-count invariance** — on a random topology with random
//!    ICMP + TCP traffic (and sometimes random link faults), counters,
//!    merged tap captures, delivered-packet and fault-layer statistics
//!    are bit-identical at workers ∈ {1, 2, 7}.
//! 2. **Serial equivalence** — the same random workload with every host
//!    pinned to one region (region 0) of k random regions reproduces the
//!    serial, one-region trace exactly.
//!
//! Driven by the in-repo [`btc_netsim::prop`] harness: fixed-seed replay
//! via `BANSCORE_PROP_SEED`, halving shrink on failure.

use btc_netsim::faults::LinkFaults;
use btc_netsim::packet::{IcmpEcho, Ipv4, SockAddr};
use btc_netsim::prop::{check_sized, Gen};
use btc_netsim::sim::{
    App, Ctx, HostConfig, HostCounters, SimConfig, Simulator, Sniffed, TapFilter,
};
use btc_netsim::tcp::ConnId;
use btc_netsim::time::{Nanos, MILLIS, SECS};
use std::any::Any;

/// Periodic pinger: every `period` it pings one of its targets
/// (round-robin) and burns an RNG draw, so traces depend on the app
/// stream.
struct Pinger {
    targets: Vec<Ipv4>,
    period: Nanos,
    next: usize,
    replies: u64,
}

impl App for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.period, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let dst = self.targets[self.next % self.targets.len()];
        self.next += 1;
        let seq = (ctx.rng().next_u64() & 0xFFFF) as u16;
        ctx.send_icmp(dst, 9, seq, 56);
        ctx.set_timer(self.period, 0);
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

/// Echo server for the TCP leg.
#[derive(Default)]
struct Echo;

impl App for Echo {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(8333);
    }
    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _p: SockAddr, data: &[u8]) {
        ctx.send(conn, data);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// TCP chatter: connects to the echo server and sends RNG-dependent
/// payloads on a timer.
struct Chatter {
    dst: SockAddr,
    period: Nanos,
    conn: Option<ConnId>,
}

impl App for Chatter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.connect(self.dst);
        ctx.set_timer(self.period, 0);
    }
    fn on_connected(&mut self, _ctx: &mut Ctx<'_>, conn: ConnId, _p: SockAddr, inbound: bool) {
        if !inbound {
            self.conn = Some(conn);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if let Some(conn) = self.conn {
            let b = ctx.rng().next_u64().to_le_bytes();
            ctx.send(conn, &b);
        }
        ctx.set_timer(self.period, 0);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One randomly generated workload, rebuildable any number of times.
struct Workload {
    ips: Vec<Ipv4>,
    /// Per-pinger: (targets, period).
    pingers: Vec<(Vec<Ipv4>, Nanos)>,
    /// TCP pair: (server index, client index, period) into `ips`.
    tcp: Option<(usize, usize, Nanos)>,
    faults: LinkFaults,
    seed: u64,
    regions: u32,
    dur: Nanos,
}

fn gen_workload(g: &mut Gen) -> Workload {
    // Distinct addresses: index-derived, order-independent of the RNG.
    let n = g.len_in(2, 24);
    let ips: Vec<Ipv4> = (0..n).map(|i| [10, 1, (i / 200) as u8, (i % 200) as u8]).collect();
    let pingers = ips
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let k = g.usize_in(1, 4.min(n));
            let targets: Vec<Ipv4> = (0..k)
                .map(|_| {
                    // Sometimes a black-hole destination: unknown-dst
                    // delivery must also be invariant.
                    if g.f64() < 0.1 {
                        [99, 99, 99, (i % 200) as u8]
                    } else {
                        *g.choose(&ips)
                    }
                })
                .collect();
            let period = g.u64_in(20 * MILLIS, 400 * MILLIS);
            (targets, period)
        })
        .collect();
    let tcp = (n >= 2 && g.bool()).then(|| {
        let srv = g.usize_in(0, n);
        let mut cli = g.usize_in(0, n);
        if cli == srv {
            cli = (cli + 1) % n;
        }
        (srv, cli, g.u64_in(30 * MILLIS, 300 * MILLIS))
    });
    let faults = if g.f64() < 0.3 {
        LinkFaults {
            loss: g.f64_in(0.0, 0.2),
            jitter: g.u64_in(0, 3 * MILLIS),
            ..LinkFaults::NONE
        }
    } else {
        LinkFaults::NONE
    };
    Workload {
        ips,
        pingers,
        tcp,
        faults,
        seed: g.u64(),
        regions: g.u64_in(1, 5) as u32,
        dur: g.u64_in(SECS, 3 * SECS),
    }
}

fn install_apps(w: &Workload, mut add: impl FnMut(Ipv4, Box<dyn App>)) {
    for (i, ip) in w.ips.iter().enumerate() {
        let (targets, period) = &w.pingers[i];
        if let Some((srv, cli, tcp_period)) = w.tcp {
            if i == srv {
                add(*ip, Box::new(Echo));
                continue;
            }
            if i == cli {
                add(
                    *ip,
                    Box::new(Chatter {
                        dst: SockAddr::new(w.ips[srv], 8333),
                        period: tcp_period,
                        conn: None,
                    }),
                );
                continue;
            }
        }
        add(
            *ip,
            Box::new(Pinger {
                targets: targets.clone(),
                period: *period,
                next: 0,
                replies: 0,
            }),
        );
    }
}

/// Everything a run reduces to for the equality assertions.
#[derive(Debug, PartialEq)]
struct Trace {
    captures: Vec<Sniffed>,
    counters: Vec<HostCounters>,
    busy: Vec<u64>,
    delivered: u64,
    dropped_loss: u64,
    jittered: u64,
}

/// Runs `w` on `regions` regions and `workers` workers; with `pin`,
/// every host goes to region 0 instead of its assigned region.
fn run(w: &Workload, regions: u32, workers: usize, pin: bool) -> Trace {
    let mut sim = Simulator::new(SimConfig {
        regions,
        workers,
        seed: w.seed,
        faults: w.faults,
        ..SimConfig::default()
    });
    let tap = sim.add_tap(TapFilter::All);
    install_apps(w, |ip, app| {
        if pin {
            sim.add_host_pinned(ip, app, HostConfig::default(), 0);
        } else {
            sim.add_host(ip, app, HostConfig::default());
        }
    });
    sim.run_for(w.dur);
    let fs = sim.fault_stats();
    Trace {
        captures: tap.drain(),
        counters: w.ips.iter().map(|ip| sim.host_counters(*ip)).collect(),
        busy: w.ips.iter().map(|ip| sim.host_cpu(*ip).cum_busy()).collect(),
        delivered: sim.delivered_packets(),
        dropped_loss: fs.dropped_loss,
        jittered: fs.jittered,
    }
}

#[test]
fn worker_count_never_changes_results() {
    check_sized("shard worker-count invariance", 24, |g| {
        let w = gen_workload(g);
        let base = run(&w, w.regions, 1, false);
        for workers in [2usize, 7] {
            let other = run(&w, w.regions, workers, false);
            assert_eq!(
                base, other,
                "trace diverged at workers={workers} (regions={})",
                w.regions
            );
        }
    });
}

#[test]
fn one_region_equals_the_serial_simulator_on_random_workloads() {
    check_sized("shard serial equivalence", 24, |g| {
        let w = gen_workload(g);
        let one = run(&w, 1, 1, false);
        let pinned = run(&w, w.regions.max(2), 2, true);
        assert_eq!(
            one, pinned,
            "region 0 of {} regions diverged from one region",
            w.regions.max(2)
        );
    });
}

/// A fixed workload for the cross-region pin: 24 hosts over 4 regions in
/// their seed-assigned places, one TCP pair, and timer periods on a
/// 10-ms grid so that sends in different regions coincide and their mail
/// arrives at equal times from several sources.
fn pinned_workload(jitter: Nanos) -> Workload {
    let mut g = Gen::new(0x0C05_5EED, 24);
    let n = 24;
    let ips: Vec<Ipv4> = (0..n).map(|i| [10, 2, 0, i as u8]).collect();
    let pingers = (0..n)
        .map(|_| {
            let targets = (0..3).map(|_| *g.choose(&ips)).collect();
            (targets, g.u64_in(2, 12) * 10 * MILLIS)
        })
        .collect();
    Workload {
        ips,
        pingers,
        tcp: Some((3, 17, 40 * MILLIS)),
        faults: LinkFaults {
            jitter,
            ..LinkFaults::NONE
        },
        seed: 0xD16E_5700,
        regions: 4,
        dur: 3 * SECS,
    }
}

/// The first eight bytes of the sha256 of a trace's `Debug` form, in hex.
fn digest(trace: &Trace) -> String {
    let hash = btc_wire::crypto::sha256_digest(format!("{trace:?}").as_bytes());
    hash[..8].iter().map(|b| format!("{b:02x}")).collect()
}

/// Pins the order cross-region mail is delivered in. The invariance
/// properties above compare the simulator only with itself — across
/// worker counts, and against hosts pinned to region 0, where no mail
/// flows — so a change that reorders mail consistently would pass them.
/// These digests were recorded before mail got a sorted lane of its own
/// beside the heap; the jittered run also sends mail that sorts below
/// earlier mail still queued.
#[test]
fn cross_region_order_is_pinned() {
    for (jitter, expected) in [(0, "373688dc8a90daea"), (3 * MILLIS, "9c3e246d45c5675c")] {
        let w = pinned_workload(jitter);
        let trace = run(&w, w.regions, 2, false);
        // Hosts in four regions exchange mail: the trace is not the one
        // the same hosts give on one region's LAN.
        assert_ne!(trace, run(&w, w.regions, 1, true), "jitter {jitter}");
        assert_eq!(trace.jittered > 0, jitter > 0);
        assert_eq!(digest(&trace), expected, "jitter {jitter}");
    }
}
