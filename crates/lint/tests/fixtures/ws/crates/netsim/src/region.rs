//! Fixture: the event-loop core. Mirrors the fault edge of the real
//! `btc_netsim` region loop, the one place the fault stream is drawn.

/// RNG root (declared in scope::RNG_ROOTS): may only draw from fault_rng.
/// The fault_rng draw is fine; fault_delay draws from host_rng — caught
/// through the call graph with the chain printed.
pub fn send_packet(fault_rng: &mut SimRng, host_rng: &mut SimRng) {
    let _flip = fault_rng.gen_bool(0.5);
    let _jit = fault_delay(host_rng);
}
