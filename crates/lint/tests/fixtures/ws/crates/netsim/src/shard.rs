//! Fixture: shard-runtime code is sim-deterministic — the wallclock and
//! unordered-map rules both apply; a justified marker and test code stay
//! exempt. Mirrors the hot paths of the real `btc_netsim::shard`.

use std::collections::HashMap;

pub fn mailboxes() -> HashMap<u32, Vec<u8>> {
    let horizon = std::time::Instant::now();
    let _ = horizon;
    HashMap::new()
}

// lint:allow(unordered-map): membership-only probe set, never iterated
pub fn seen(set: &std::collections::HashSet<u64>, key: u64) -> bool { set.contains(&key) }

pub const FIXTURE_STREAM_SALT: u64 = 0x5a17;

pub fn fault_stream(seed: u64) -> SimRng {
    SimRng::new(seed ^ FIXTURE_STREAM_SALT)
}

pub fn host_stream(seed: u64) -> SimRng {
    SimRng::new(seed)
}

pub fn measure_window() -> std::time::Instant {
    probe()
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn exempt() {
        let _ = HashMap::<u8, u8>::new();
        let _ = std::time::Instant::now();
    }
}
