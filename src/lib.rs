//! # banscore-suite
//!
//! Umbrella crate for the reproduction of *"The Security Investigation of
//! Ban Score and Misbehavior Tracking in Bitcoin Network"* (ICDCS 2022).
//! It re-exports every workspace crate and hosts the paper-reproduction
//! CLI (`src/bin/repro`: every table, figure and ablation as text, with
//! `--csv` also as `results/*.csv`), the runnable examples (`examples/`)
//! and the cross-crate integration tests (`tests/`).
//!
//! Crate map:
//!
//! * [`btc_wire`] — Bitcoin P2P wire protocol (substrate)
//! * [`btc_netsim`] — deterministic network simulator (substrate)
//! * [`btc_node`] — the Bitcoin node with ban-score tracking (substrate)
//! * [`btc_attack`] — BM-DoS + Defamation attack framework (core)
//! * [`btc_detect`] — statistical anomaly detection + ML baselines (core)
//! * [`banscore`] — testbed, scenarios, countermeasures (core)

pub use banscore;
pub use btc_attack;
pub use btc_detect;
pub use btc_netsim;
pub use btc_node;
pub use btc_wire;
