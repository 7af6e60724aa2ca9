//! A cycle-accounting CPU model.
//!
//! The paper's Figures 6–7 and Table III report the victim's *mining rate*
//! as message processing steals CPU from the miner. The model makes that
//! relation explicit: the host has a fixed cycle budget per second; every
//! packet and message charges cycles; whatever is left over is available to
//! the miner. The companion real-hardware benches validate the relation with
//! an actual `sha256d` hashing loop.

use crate::time::{Nanos, SECS};

/// Default CPU capacity: the paper's testbed CPU (Intel i7 @ 4 GHz).
pub const DEFAULT_CAPACITY_HZ: u64 = 4_000_000_000;

/// Cycle cost of one `sha256d` attempt in the mining loop, calibrated so an
/// idle node mines at the paper's ≈9.5·10⁵ h/s on a 4 GHz budget.
///
/// This is a *paper-testbed* calibration constant, not a property of this
/// repository's hash implementation: the reproduction must mine at the
/// paper's rate regardless of how fast the local `sha256d` is. Convert a
/// measured per-attempt time to a model constant with
/// [`cycles_per_hash`]. For scale, the pre-overhaul
/// software loop measured ≈928 ns/attempt (≈3 700 cycles at 4 GHz, close to
/// this default), while the midstate + SHA-NI loop measures ≈140 ns/attempt,
/// 6.6× cheaper — see EXPERIMENTS.md.
pub const DEFAULT_CYCLES_PER_HASH: u64 = 4_210;

/// Converts a measured per-hash wall time into the model's cycles/hash at a
/// given CPU capacity: `cycles = capacity_hz · ns_per_hash / 1e9`, floored
/// at 1 cycle.
///
/// Use this to re-derive a [`Miner`] cost from a measured per-attempt
/// time of the local mining loop.
pub fn cycles_per_hash(capacity_hz: u64, ns_per_hash: f64) -> u64 {
    let cycles = (capacity_hz as f64 * ns_per_hash / 1e9).round();
    (cycles as u64).max(1)
}

/// Tracks busy cycles on a simulated host.
#[derive(Clone, Debug)]
pub struct CpuMeter {
    capacity_hz: u64,
    cum_busy: u64,
}

impl CpuMeter {
    /// Creates a meter with the given capacity in cycles/second.
    pub fn new(capacity_hz: u64) -> Self {
        CpuMeter {
            capacity_hz,
            cum_busy: 0,
        }
    }

    /// Capacity in cycles per second.
    pub fn capacity_hz(&self) -> u64 {
        self.capacity_hz
    }

    /// Charges `cycles` of processing work.
    pub fn charge(&mut self, cycles: u64) {
        self.cum_busy = self.cum_busy.saturating_add(cycles);
    }

    /// Total busy cycles charged since start.
    pub fn cum_busy(&self) -> u64 {
        self.cum_busy
    }

    /// Cycles the CPU *could* execute in a window of length `window`.
    pub fn budget_for(&self, window: Nanos) -> u64 {
        ((self.capacity_hz as u128 * window as u128) / SECS as u128) as u64
    }

    /// Idle cycles available in a window given the busy cycles observed in
    /// it (saturating at zero when overloaded).
    pub fn idle_in_window(&self, window: Nanos, busy_in_window: u64) -> u64 {
        self.budget_for(window).saturating_sub(busy_in_window)
    }
}

impl Default for CpuMeter {
    fn default() -> Self {
        CpuMeter::new(DEFAULT_CAPACITY_HZ)
    }
}

/// A miner that consumes whatever CPU the message-processing path leaves
/// idle, reporting a hash rate per sampling window — the victim-side metric
/// of Figures 6 and 7.
#[derive(Clone, Debug)]
pub struct Miner {
    cycles_per_hash: u64,
    last_sample_busy: u64,
    last_sample_time: Nanos,
    total_hashes: u64,
    samples: Vec<MiningSample>,
}

/// One mining-rate sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MiningSample {
    /// Window start (virtual time).
    pub start: Nanos,
    /// Window end (virtual time).
    pub end: Nanos,
    /// Achieved hash rate in hashes/second.
    pub hash_rate: f64,
}

impl Miner {
    /// Creates a miner with a per-hash cycle cost.
    pub fn new(cycles_per_hash: u64) -> Self {
        Miner {
            cycles_per_hash,
            last_sample_busy: 0,
            last_sample_time: 0,
            total_hashes: 0,
            samples: Vec::new(),
        }
    }

    /// Closes the current sampling window at `now`, using `cpu` to determine
    /// how many cycles were stolen by message processing since the previous
    /// sample. Returns the window's hash rate.
    pub fn sample(&mut self, now: Nanos, cpu: &CpuMeter) -> f64 {
        let window = now.saturating_sub(self.last_sample_time);
        if window == 0 {
            return 0.0;
        }
        let busy = cpu.cum_busy().saturating_sub(self.last_sample_busy);
        let idle = cpu.idle_in_window(window, busy);
        let hashes = idle / self.cycles_per_hash.max(1);
        let rate = hashes as f64 / crate::time::as_secs_f64(window);
        self.samples.push(MiningSample {
            start: self.last_sample_time,
            end: now,
            hash_rate: rate,
        });
        self.total_hashes += hashes;
        self.last_sample_busy = cpu.cum_busy();
        self.last_sample_time = now;
        rate
    }

    /// All samples recorded so far.
    pub fn samples(&self) -> &[MiningSample] {
        &self.samples
    }

    /// Total hashes attempted.
    pub fn total_hashes(&self) -> u64 {
        self.total_hashes
    }
}

impl Default for Miner {
    fn default() -> Self {
        Miner::new(DEFAULT_CYCLES_PER_HASH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SECS;

    #[test]
    fn idle_node_mines_at_capacity() {
        let cpu = CpuMeter::default();
        let mut miner = Miner::default();
        let rate = miner.sample(SECS, &cpu);
        let expect = DEFAULT_CAPACITY_HZ as f64 / DEFAULT_CYCLES_PER_HASH as f64;
        assert!((rate - expect).abs() / expect < 0.01, "rate {rate}");
        // Paper's idle figure: ≈9.5e5 h/s.
        assert!((9.0e5..10.0e5).contains(&rate), "rate {rate}");
    }

    #[test]
    fn busy_cycles_reduce_rate_proportionally() {
        let mut cpu = CpuMeter::default();
        let mut miner = Miner::default();
        miner.sample(SECS, &cpu); // idle window
        cpu.charge(DEFAULT_CAPACITY_HZ / 2); // half the second busy
        let rate = miner.sample(2 * SECS, &cpu);
        let idle_rate = miner.samples()[0].hash_rate;
        assert!((rate - idle_rate / 2.0).abs() / idle_rate < 0.01);
    }

    #[test]
    fn overload_floors_at_zero() {
        let mut cpu = CpuMeter::default();
        let mut miner = Miner::default();
        cpu.charge(DEFAULT_CAPACITY_HZ * 10);
        assert_eq!(miner.sample(SECS, &cpu), 0.0);
    }

    #[test]
    fn budget_scales_with_window() {
        let cpu = CpuMeter::new(1_000_000);
        assert_eq!(cpu.budget_for(SECS), 1_000_000);
        assert_eq!(cpu.budget_for(SECS / 2), 500_000);
        assert_eq!(cpu.budget_for(0), 0);
    }

    #[test]
    fn sample_windows_are_disjoint() {
        let mut cpu = CpuMeter::default();
        let mut miner = Miner::default();
        cpu.charge(100);
        miner.sample(SECS, &cpu);
        // No further charges: second window fully idle.
        let r2 = miner.sample(2 * SECS, &cpu);
        let expect = DEFAULT_CAPACITY_HZ as f64 / DEFAULT_CYCLES_PER_HASH as f64;
        assert!((r2 - expect).abs() / expect < 0.01);
        assert_eq!(miner.samples().len(), 2);
    }

    #[test]
    fn zero_length_window_is_safe() {
        let cpu = CpuMeter::default();
        let mut miner = Miner::default();
        assert_eq!(miner.sample(0, &cpu), 0.0);
        assert!(miner.samples().is_empty());
    }

    #[test]
    fn cycles_per_hash_rederivation() {
        // The paper-calibrated default corresponds to ≈1052.5 ns/hash at
        // 4 GHz; converting that measurement back must reproduce it.
        assert_eq!(cycles_per_hash(DEFAULT_CAPACITY_HZ, 1052.5), DEFAULT_CYCLES_PER_HASH);
        // A midstate-mined attempt at ~60 ns maps to a few hundred cycles.
        let fast = cycles_per_hash(DEFAULT_CAPACITY_HZ, 60.0);
        assert_eq!(fast, 240);
        // Degenerate measurements still yield a usable (nonzero) cost.
        assert_eq!(cycles_per_hash(DEFAULT_CAPACITY_HZ, 0.0), 1);
    }

    #[test]
    fn total_hashes_accumulate() {
        let cpu = CpuMeter::new(1000);
        let mut miner = Miner::new(10);
        miner.sample(SECS, &cpu);
        miner.sample(2 * SECS, &cpu);
        assert_eq!(miner.total_hashes(), 200);
    }
}
