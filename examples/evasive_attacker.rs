//! The "more intelligent attacker" the paper leaves as future work
//! (§VII-A2): throttle below the detector's thresholds and mimic normal
//! traffic — then measure what evasion costs the attacker in impact.
//!
//! ```text
//! cargo run --release --example evasive_attacker
//! ```

use banscore::scenario::evasion::{render_evasion, run_evasion, EvasionConfig};
use btc_netsim::time::MINUTES;

fn main() {
    let cfg = EvasionConfig {
        train: 30 * MINUTES,
        window: 5 * MINUTES,
        test: 5 * MINUTES,
        attack_weight: 0.3,
    };
    println!("training the detector, then sweeping attacker send rates...\n");
    let r = run_evasion(cfg, &[20.0, 60.0, 300.0, 2_000.0, 12_000.0], 1);
    print!("{}", render_evasion(&r));
    println!();
    println!("Reading the table: rates inside the detector's headroom go unnoticed");
    println!("but steal almost no mining capacity; anything damaging is flagged");
    println!("within one window. Evasion is possible — profit under evasion is not.");
}
