//! A per-host cycle counter.
//!
//! Every packet and message a host processes charges simulated cycles
//! here. The counter is only read back: by the spine's
//! `node.cost.sim_cycles_per_msg`, by Table III's attacker CPU share and by
//! digests that fold it. The victim's mining rate under flood (Figs. 6–7,
//! Table III) is not derived from it; that is `banscore::contention`'s
//! model over the simulated traffic.

/// Default CPU capacity: the paper's testbed CPU (Intel i7 @ 4 GHz).
pub const DEFAULT_CAPACITY_HZ: u64 = 4_000_000_000;

/// Tracks busy cycles on a simulated host.
#[derive(Clone, Debug, Default)]
pub struct CpuMeter {
    cum_busy: u64,
}

impl CpuMeter {
    /// Charges `cycles` of processing work.
    pub fn charge(&mut self, cycles: u64) {
        self.cum_busy = self.cum_busy.saturating_add(cycles);
    }

    /// Total busy cycles charged since start.
    pub fn cum_busy(&self) -> u64 {
        self.cum_busy
    }
}
