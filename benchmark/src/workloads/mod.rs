//! The workloads and what they share.

pub mod detect_replay;
pub mod node_bed;
pub mod scripted;
pub mod swarm_ping;
pub mod sybil_churn;

use crate::spec::PER_LAYER;
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// What one rep reports.
pub struct Rep {
    /// Wall time of the timed region.
    pub wall_ns: u64,
    /// Units of work disposed of: the numerator of `ops_per_s`.
    pub ops: u64,
    /// Operations attempted and how many were not disposed of as the
    /// workload expects (see each workload's `rep`).
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over the rep's deterministic results.
    pub digest: u64,
    /// Workload invariants the rep broke (empty = outputs correct).
    pub violations: Vec<String>,
    /// One line of human-readable facts for the log.
    pub note: String,
}

/// The per-layer metrics of a traced run: every name of
/// [`PER_LAYER`], 0 until a probe sets it.
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// Nanoseconds of the rep the layer probes account for
    /// (`trace.coverage` = this ÷ the rep's wall time).
    pub covered_ns: f64,
}

impl Default for Layers {
    fn default() -> Self {
        Layers {
            values: PER_LAYER.iter().map(|m| (m.name, 0.0)).collect(),
            covered_ns: 0.0,
        }
    }
}

impl Layers {
    /// # Panics
    ///
    /// Panics on a name that is not in [`PER_LAYER`]: a typo must fail the
    /// smoke tests, not print a metric nobody declared.
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}")) = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v))
    }
}

/// What the probes need to know about the untraced reps of the same
/// process.
pub struct Baseline {
    /// Median wall time of the untraced reps.
    pub untraced_wall_ns: f64,
}

/// A workload after its set-up (its constructor: input generation, and
/// everything else a rep needs that does not change between reps).
pub trait Workload {
    /// What a finished rep leaves behind for the layer probes.
    type Done;

    /// One rep on fresh state.
    fn rep(&self, tracer: &mut Tracer) -> (Rep, Self::Done);

    /// The layer probes of the traced run, replaying this workload's
    /// inputs; each runs inside its own span.
    fn probes(
        &self,
        rep: &Rep,
        done: Self::Done,
        base: &Baseline,
        tracer: &mut Tracer,
        out: &mut Layers,
    );
}

/// `per` ÷ `count`, 0 when nothing was counted.
pub fn per(ns: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        ns / count as f64
    }
}
