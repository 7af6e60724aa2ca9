//! Fixture: shard-runtime code is sim-deterministic and lock-scoped — the
//! wallclock, unordered-map and lock-order rules apply; a justified marker
//! and test code stay exempt. Mirrors the real `btc_netsim::shard`.

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

// Lock-order seeds over the declared shard locks (netsim.region <
// netsim.mailbox in the total order).

pub fn ordered(regions: &Lk, mailbox: &Lk) {
    let r = regions.lock();
    let m = mailbox.lock();
    let _ = (r, m);
}

pub fn inverted(regions: &Lk, mailbox: &Lk) {
    let m = mailbox.lock();
    let r = regions.lock();
    let _ = (r, m);
}

pub fn held_into_callee(mailbox: &Lk, reg: &Lk) {
    let m = mailbox.lock();
    grab_region(reg);
    let _ = m;
}

pub fn grab_region(reg: &Lk) {
    let r = reg.lock();
    let _ = r;
}

pub fn rogue(mystery: &Lk) {
    let g = mystery.lock();
    let _ = g;
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

// Marker reach, checked end to end: a marker covers its own line and
// the next, for its own rule only (the line-above case is `seen`).
pub fn same_line(set: &std::collections::HashSet<u64>) -> usize { set.len() } // lint:allow(unordered-map): fixture same-line marker
// lint:allow(unordered-map): fixture marker two lines above its finding

pub fn two_below(set: &std::collections::HashSet<u64>) -> usize { set.len() }
// lint:allow(wallclock): fixture marker of another rule
pub fn other_rule(set: &std::collections::HashSet<u64>) -> usize { set.len() }
