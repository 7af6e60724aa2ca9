//! The experiment testbed: builds the paper's §V setup — a target node,
//! synthetic Mainnet feeders, optional innocent peers, and a reserved slot
//! for the attacker — inside the deterministic simulator.
//!
//! The bed exists once. [`BedPlan`] is its checked host plan; the
//! one-region [`Testbed`] and the many-region swarm (`scenario::swarm`)
//! both install that plan and the same three traffic [`Case`]s into
//! region 0, and every detection study trains with [`train_profile`] and
//! measures latency with [`first_alarm_s`].

use crate::mainnet::MainnetPeer;
use btc_attack::defamation::PostConnDefamer;
use btc_attack::flood::{FloodConfig, Flooder};
use btc_attack::payload::FloodPayload;
use btc_detect::engine::{AnalysisEngine, Profile};
use btc_detect::features::TrafficWindow;
use btc_netsim::faults::{FaultKind, FaultPlan, LinkFaults};
use btc_netsim::packet::{Ipv4, SockAddr};
use btc_netsim::sim::{App, HostConfig, SimConfig, Simulator, TapFilter};
use btc_netsim::time::{Nanos, MILLIS, MINUTES, SECS};
use btc_node::node::{Node, NodeConfig};
use btc_wire::types::DEFAULT_PORT;

/// Well-known testbed addresses.
pub mod addrs {
    use btc_netsim::packet::Ipv4;

    /// The target node.
    pub const TARGET: Ipv4 = [10, 0, 0, 1];
    /// The attacker host (added by the scenario).
    pub const ATTACKER: Ipv4 = [10, 0, 9, 9];
    /// Feeders the plan has addresses for (`10.0.1.1` – `10.0.1.255`).
    pub const MAX_FEEDERS: usize = 255;
    /// Innocents the plan has addresses for (`10.0.2.1` – `10.0.3.250`).
    pub const MAX_INNOCENTS: usize = 500;

    /// The `i`-th mainnet feeder (`i <` [`MAX_FEEDERS`]).
    pub fn feeder(i: usize) -> Ipv4 {
        [10, 0, 1, (i + 1) as u8]
    }

    /// The `i`-th innocent peer (`i <` [`MAX_INNOCENTS`]).
    pub fn innocent(i: usize) -> Ipv4 {
        [10, 0, 2 + (i / 250) as u8, (i % 250 + 1) as u8]
    }
}

/// The settle period every detection case discards (the handshake minute).
pub const SETTLE: Nanos = MINUTES;

/// Defamer poll that paces the strikes across a whole measurement window
/// (each wave hits both live outbound peers): ~6 bans/minute, the order
/// of the paper's measured c = 5.3/min.
pub const PACED_POLL: Nanos = 20 * SECS;

/// The three traffic cases the detection figures are taken under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Case {
    /// Clean traffic, no attacker.
    Normal,
    /// BM-DoS: a PING flood on top of normal traffic. With `sybil` the
    /// flooder dials back from the next port when its connection drops —
    /// a hardened target evicts the never-ponging flooder on ping timeout
    /// and a real attacker just reconnects, so the flood survives.
    PingFlood {
        /// Serial-Sybil reconnection from port 50 000 upward.
        sybil: bool,
    },
    /// Post-connection Defamation of every innocent the target dials.
    Defamation {
        /// Sniffer poll interval (the strike pacing).
        poll: Nanos,
    },
}

impl Case {
    /// Stable name: `normal`, `bm-dos` or `defamation`.
    pub fn name(&self) -> &'static str {
        match self {
            Case::Normal => "normal",
            Case::PingFlood { .. } => "bm-dos",
            Case::Defamation { .. } => "defamation",
        }
    }

    /// Figure 10's per-case seed, reused by every sweep over these cases:
    /// the application-visible randomness of a case is the same wherever
    /// it runs (the fault layer draws from its own stream), and distinct
    /// from the training seed 1.
    pub fn seed(&self) -> u64 {
        match self {
            Case::Normal => 2,
            Case::PingFlood { .. } => 3,
            Case::Defamation { .. } => 4,
        }
    }
}

/// The bed's checked host plan, in build order: innocents (listening
/// before the target dials) → target → feeders.
#[derive(Clone, Debug)]
pub(crate) struct BedPlan {
    pub(crate) target_addr: SockAddr,
    pub(crate) innocent_ips: Vec<Ipv4>,
    pub(crate) feeder_ips: Vec<Ipv4>,
    node: NodeConfig,
}

impl BedPlan {
    /// Plans the bed around a target running `node` (its outbound targets
    /// are filled in from the innocents).
    ///
    /// # Panics
    ///
    /// Panics when more innocents or feeders are requested than the
    /// address plan holds ([`addrs::MAX_INNOCENTS`], [`addrs::MAX_FEEDERS`]).
    pub(crate) fn new(
        mut node: NodeConfig,
        innocents: usize,
        target_outbound: usize,
        feeders: usize,
    ) -> BedPlan {
        assert!(innocents <= addrs::MAX_INNOCENTS, "too many innocents");
        assert!(feeders <= addrs::MAX_FEEDERS, "too many feeders");
        let innocent_ips: Vec<Ipv4> = (0..innocents).map(addrs::innocent).collect();
        node.target_outbound = target_outbound;
        node.outbound_targets = innocent_ips
            .iter()
            .map(|ip| SockAddr::new(*ip, 8333))
            .collect();
        BedPlan {
            target_addr: SockAddr::new(addrs::TARGET, DEFAULT_PORT),
            innocent_ips,
            feeder_ips: (0..feeders).map(addrs::feeder).collect(),
            node,
        }
    }

    /// Hosts the plan installs.
    pub(crate) fn hosts(&self) -> usize {
        self.innocent_ips.len() + 1 + self.feeder_ips.len()
    }

    /// Adds the plan's hosts to region 0.
    pub(crate) fn install(&self, sim: &mut Simulator) {
        for ip in &self.innocent_ips {
            add_bed_host(sim, *ip, Box::new(Node::new(NodeConfig::default())));
        }
        add_bed_host(sim, addrs::TARGET, Box::new(Node::new(self.node.clone())));
        for ip in &self.feeder_ips {
            add_bed_host(sim, *ip, Box::new(MainnetPeer::new(self.target_addr)));
        }
    }
}

/// Adds a bed host to region 0: the Defamer drains its tap during timer
/// callbacks and sniffing is region-local, so tap, attacker and target
/// share a region.
fn add_bed_host(sim: &mut Simulator, ip: Ipv4, app: Box<dyn App>) {
    sim.add_host_pinned(ip, app, HostConfig::default(), 0);
}

/// Adds `case`'s attacker — and, for Defamation of `victims`, its tap on
/// the target — to region 0 of a simulator the bed was installed in.
pub(crate) fn install_case(sim: &mut Simulator, target: SockAddr, victims: &[Ipv4], case: Case) {
    match case {
        Case::Normal => {}
        Case::PingFlood { sybil } => add_bed_host(
            sim,
            addrs::ATTACKER,
            Box::new(Flooder::new(FloodConfig {
                target,
                payload: FloodPayload::Ping,
                reconnect_on_ban: sybil,
                sybil_port_start: if sybil { 50_000 } else { 0 },
                ..FloodConfig::default()
            })),
        ),
        Case::Defamation { poll } => {
            let tap = sim.add_tap_in(TapFilter::Host(addrs::TARGET), 0);
            let mut defamer = PostConnDefamer::new(target, victims.to_vec(), tap);
            defamer.poll = poll;
            add_bed_host(sim, addrs::ATTACKER, Box::new(defamer));
        }
    }
}

/// Testbed configuration.
#[derive(Clone, Debug)]
pub struct TestbedConfig {
    /// Target node configuration (outbound targets are filled in from the
    /// innocents automatically).
    pub node: NodeConfig,
    /// Synthetic Mainnet feeders dialing the target.
    pub feeders: usize,
    /// Innocent listening nodes the target can dial.
    pub innocents: usize,
    /// How many outbound connections the target maintains.
    pub target_outbound: usize,
    /// Simulator seed.
    pub seed: u64,
    /// Per-link fault model (loss/jitter/reordering). Anything active
    /// auto-enables the simulator's reliable transport.
    pub faults: LinkFaults,
    /// Scheduled partitions and link flaps.
    pub fault_plan: FaultPlan,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            node: NodeConfig::default(),
            feeders: 3,
            innocents: 0,
            target_outbound: 0,
            seed: 0xB17C_0123,
            faults: LinkFaults::NONE,
            fault_plan: FaultPlan::none(),
        }
    }
}

/// A built testbed.
pub struct Testbed {
    /// The simulator (attacker hosts may still be added).
    pub sim: Simulator,
    /// Target IP.
    pub target: Ipv4,
    /// Target `[IP:Port]`.
    pub target_addr: SockAddr,
    /// Feeder IPs.
    pub feeder_ips: Vec<Ipv4>,
    /// Innocent IPs.
    pub innocent_ips: Vec<Ipv4>,
}

impl Testbed {
    /// Builds the testbed.
    ///
    /// # Panics
    ///
    /// Panics when more innocents or feeders are requested than the
    /// address plan holds ([`addrs::MAX_INNOCENTS`], [`addrs::MAX_FEEDERS`]).
    pub fn build(cfg: TestbedConfig) -> Testbed {
        let plan = BedPlan::new(cfg.node, cfg.innocents, cfg.target_outbound, cfg.feeders);
        let mut sim = Simulator::new(SimConfig {
            seed: cfg.seed,
            faults: cfg.faults,
            ..SimConfig::default()
        });
        sim.set_fault_plan(cfg.fault_plan);
        plan.install(&mut sim);
        Testbed {
            sim,
            target: addrs::TARGET,
            target_addr: plan.target_addr,
            feeder_ips: plan.feeder_ips,
            innocent_ips: plan.innocent_ips,
        }
    }

    /// Puts `app` on the attacker host ([`addrs::ATTACKER`]).
    pub fn add_attacker(&mut self, app: impl App) {
        add_bed_host(&mut self.sim, addrs::ATTACKER, Box::new(app));
    }

    /// Installs `case`'s attacker (none for [`Case::Normal`]).
    pub fn attack(&mut self, case: Case) {
        install_case(&mut self.sim, self.target_addr, &self.innocent_ips, case);
    }

    /// Borrow the target node.
    ///
    /// # Panics
    ///
    /// Panics if the target host was removed (it never is).
    pub fn target_node(&self) -> &Node {
        self.sim.app(self.target).expect("target is a Node")
    }

    /// Mutably borrow the target node.
    pub fn target_node_mut(&mut self) -> &mut Node {
        self.sim.app_mut(self.target).expect("target is a Node")
    }

    /// Cuts the target's telemetry into detection windows.
    pub fn windows(&self, start: Nanos, end: Nanos, window_len: Nanos) -> Vec<TrafficWindow> {
        crate::windows::windows_from_telemetry(&self.target_node().telemetry, start, end, window_len)
    }

    /// Aggregates a span of the target's telemetry into one window.
    pub fn single_window(&self, start: Nanos, end: Nanos) -> TrafficWindow {
        crate::windows::single_window(&self.target_node().telemetry, start, end)
    }
}

/// The hardened target of the fault and reputation sweeps: the resilience
/// knobs are on, so flapped peers are detected (ping timeout), evicted and
/// replaced (with backoff) — the honest-churn signal.
pub fn hardened_node() -> NodeConfig {
    NodeConfig {
        ping_interval: 10 * SECS,
        ping_timeout: 20 * SECS,
        handshake_timeout: 30 * SECS,
        reconnect_backoff_base: 500 * MILLIS,
        reconnect_backoff_cap: 8 * SECS,
        ..NodeConfig::default()
    }
}

/// Scheduled link flaps of the target's peers: from `start`, every
/// `period` one of the first `innocents` innocents (round-robin — the pool
/// the target dials from) goes down for `down`, as long as the whole flap
/// fits before `end`. A zero `period` schedules nothing.
pub fn churn_plan(
    start: Nanos,
    period: Nanos,
    down: Nanos,
    innocents: usize,
    end: Nanos,
) -> FaultPlan {
    let mut plan = FaultPlan::none();
    if period == 0 || innocents == 0 {
        return plan;
    }
    let mut t = start;
    let mut i = 0usize;
    while t + down < end {
        plan = plan.with(t, t + down, FaultKind::HostDown(addrs::innocent(i % innocents)));
        t += period;
        i += 1;
    }
    plan
}

/// Trains the node profile once: builds the clean bed `cfg` (no
/// attacker), runs it for `train` and fits the engine to its telemetry
/// after [`SETTLE`], cut into `window`-long windows. The bed comes back
/// with the telemetry still inside.
///
/// # Panics
///
/// Panics when `train` is too short to hold one window after the settle.
pub fn train_profile(cfg: TestbedConfig, train: Nanos, window: Nanos) -> (Profile, Testbed) {
    let mut tb = Testbed::build(cfg);
    tb.sim.run_for(train);
    let profile = AnalysisEngine
        .train(&tb.windows(SETTLE, train, window))
        .expect("training windows");
    (profile, tb)
}

/// Seconds from measurement start to the end of the first window of
/// `windows` (each `window_len` long) the detector flags (`NaN` when none
/// fires).
pub fn first_alarm_s(profile: &Profile, windows: &[TrafficWindow], window_len: Nanos) -> f64 {
    windows
        .iter()
        .position(|w| AnalysisEngine.detect(profile, w).anomalous)
        .map_or(f64::NAN, |i| {
            ((i as u64 + 1) * window_len) as f64 / SECS as f64
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use btc_netsim::time::{MINUTES, SECS};

    #[test]
    fn default_testbed_runs_clean() {
        let mut tb = Testbed::build(TestbedConfig::default());
        tb.sim.run_for(2 * MINUTES);
        let node = tb.target_node();
        assert_eq!(node.inbound_count(), 3, "three feeders connected");
        assert_eq!(node.telemetry.bans, 0);
        assert!(node.telemetry.messages.len() > 100);
    }

    #[test]
    fn testbed_with_innocents_fills_outbound() {
        let mut tb = Testbed::build(TestbedConfig {
            innocents: 4,
            target_outbound: 2,
            ..TestbedConfig::default()
        });
        tb.sim.run_for(5 * SECS);
        let node = tb.target_node();
        assert_eq!(node.outbound_count(), 2);
    }

    #[test]
    fn windows_cover_the_run() {
        let mut tb = Testbed::build(TestbedConfig::default());
        tb.sim.run_for(4 * MINUTES);
        let w = tb.windows(0, 4 * MINUTES, 2 * MINUTES);
        assert_eq!(w.len(), 2);
        assert!(w.iter().all(|w| w.total() > 0));
    }

    #[test]
    fn deterministic_for_seed() {
        let run = |seed| {
            let mut tb = Testbed::build(TestbedConfig {
                seed,
                ..TestbedConfig::default()
            });
            tb.sim.run_for(MINUTES);
            tb.target_node().telemetry.messages.len()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn plan_addresses_are_distinct_at_the_limits() {
        let plan = BedPlan::new(
            NodeConfig::default(),
            addrs::MAX_INNOCENTS,
            0,
            addrs::MAX_FEEDERS,
        );
        let mut ips: Vec<Ipv4> = plan.innocent_ips.iter().chain(&plan.feeder_ips).copied().collect();
        ips.extend([addrs::TARGET, addrs::ATTACKER]);
        assert_eq!(ips.len(), plan.hosts() + 1);
        ips.sort_unstable();
        ips.dedup();
        assert_eq!(ips.len(), plan.hosts() + 1, "two hosts share an address");
    }

    // Innocent 1758 would be `10.0.9.9`, the attacker's address.
    #[test]
    #[should_panic(expected = "too many innocents")]
    fn plan_rejects_innocents_past_the_address_range() {
        BedPlan::new(NodeConfig::default(), addrs::MAX_INNOCENTS + 1, 0, 0);
    }

    // Feeder 255 would wrap to `10.0.1.0` and feeder 256 alias feeder 0.
    #[test]
    #[should_panic(expected = "too many feeders")]
    fn plan_rejects_feeders_past_the_address_range() {
        BedPlan::new(NodeConfig::default(), 0, 0, addrs::MAX_FEEDERS + 1);
    }
}
