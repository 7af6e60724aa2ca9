//! # banscore
//!
//! The orchestration crate of the reproduction of *"The Security
//! Investigation of Ban Score and Misbehavior Tracking in Bitcoin
//! Network"* (ICDCS 2022): it wires the substrates ([`btc_netsim`],
//! [`btc_node`]) together with the attacks ([`btc_attack`]) and the
//! detection countermeasure ([`btc_detect`]) into the paper's testbed and
//! experiment scenarios.
//!
//! * [`testbed`] — the §V setup: target node, synthetic Mainnet feeders,
//!   innocent peers, attacker slot.
//! * [`mainnet`] — the calibrated background-traffic generator.
//! * [`contention`] — the CPU-contention model behind Figures 6/7 and
//!   Table III.
//! * [`scenario`] — runners for Figure 6, Table III/Figure 7, Figure 8 and
//!   Figure 10.
//! * [`countermeasure`] — §VIII: forgoing the ban score, good-score, and
//!   the authentication-overhead estimate.
//! * [`windows`] — telemetry → detection-window bridging (Figure 9's data
//!   path).
//!
//! ```no_run
//! use banscore::scenario::fig8::run_fig8;
//!
//! let result = run_fig8(4, 1);
//! println!("time to ban: {:.3}s", result.time_to_ban_fast);
//! ```

#![warn(missing_docs)]

pub mod contention;
pub mod countermeasure;
pub mod mainnet;
pub mod scenario;
pub mod testbed;
pub mod windows;

pub use countermeasure::{auth_overhead, evaluate_countermeasures};
pub use testbed::{Testbed, TestbedConfig};
