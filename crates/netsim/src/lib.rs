//! # btc-netsim
//!
//! A deterministic discrete-event network simulator purpose-built for the
//! reproduction of *"The Security Investigation of Ban Score and Misbehavior
//! Tracking in Bitcoin Network"* (ICDCS 2022):
//!
//! * [`sim`] — hosts, apps, timers, promiscuous **taps** (sniffing) and
//!   raw packet **injection** (spoofing), plus the one `Simulator`, built
//!   from one `SimConfig` whose `regions` field is the region count;
//! * [`tcp`] — a TCP-lite transport with a real three-way handshake,
//!   sequence/acknowledgment tracking and transport checksums, so the
//!   paper's post-connection Defamation attack has genuine state to steal;
//! * [`packet`] — TCP segments and ICMP echos (the network-layer flooding
//!   baseline of Table III);
//! * [`cpu`] — a per-host counter of the cycles message processing is
//!   charged (the victim's mining rate is modelled in `banscore::contention`,
//!   not here);
//! * [`faults`] — seeded, deterministic fault injection: per-link loss,
//!   latency jitter and reordering plus a scheduled [`FaultPlan`] of
//!   partitions and link flaps (the adverse-network model of the
//!   detector-robustness sweep);
//! * [`shard`] — region assignment and the conservative-lookahead rounds
//!   that step `regions > 1` event loops, bit-identical at any worker
//!   count, for 100k+ host swarm topologies. Every region runs the crate's
//!   one event loop (`region.rs`); with one region a run is a single event
//!   window, with no thread, lock or barrier;
//! * [`rng`] / [`time`] — deterministic randomness and virtual time.
//!
//! ## Example: two hosts, one tap
//!
//! ```
//! use btc_netsim::sim::{App, Ctx, HostConfig, SimConfig, Simulator, TapFilter};
//! use btc_netsim::time::SECS;
//! use std::any::Any;
//!
//! struct Quiet;
//! impl App for Quiet {
//!     fn as_any(&self) -> &dyn Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn Any { self }
//! }
//!
//! let mut sim = Simulator::new(SimConfig::default());
//! sim.add_host([10, 0, 0, 1], Box::new(Quiet), HostConfig::default());
//! let tap = sim.add_tap(TapFilter::All);
//! sim.run_for(SECS);
//! assert!(tap.is_empty()); // nobody talked
//! ```

#![warn(missing_docs)]

pub mod cpu;
pub mod faults;
pub mod packet;
pub mod prop;
mod region;
pub mod rng;
pub mod shard;
pub mod sim;
pub mod tcp;
pub mod time;

pub use faults::{FaultKind, FaultPlan, FaultStats, LinkFaults};
pub use packet::{Ipv4, Packet, SockAddr};
pub use sim::{App, Ctx, HostConfig, SimConfig, Simulator, TapFilter, TapHandle};
pub use tcp::{CloseReason, ConnId};
