//! # bench-spine
//!
//! The repo's one benchmark: seven paper-shaped workloads driven through
//! the public APIs of `wire`, `netsim`, `node`, `attack`, `detect`, `par`
//! and `core`, from outside. `README.md` beside this crate explains the
//! load model, every workload and every metric; `BENCHMARK.json` at the
//! repo root is the contract the names here are checked against.
//!
//! Layout: [`spec`] names every workload and metric, [`run`] is the
//! process-level driver (set-up, warm-up, reps, output check, the final
//! JSON line), [`workloads`] holds the workloads, [`gen`] the in-simulator
//! load generators, [`probes`] the per-layer probes of the traced run and
//! [`trace`] the span recorder.

pub mod agree;
pub mod gen;
pub mod json;
pub mod probes;
pub mod run;
pub mod spec;
pub mod trace;
pub mod util;
pub mod workloads;
