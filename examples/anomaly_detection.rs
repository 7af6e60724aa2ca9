//! The §VII countermeasure end-to-end: train the identifier-oblivious
//! statistical detector on synthetic Mainnet traffic, then detect both the
//! BM-DoS and the Defamation attack (Figure 10), and compare its latency
//! against the ML baselines (Figure 11).
//!
//! ```text
//! cargo run --release --example anomaly_detection
//! ```

use banscore::scenario::fig10::{run_fig10, Fig10Config};
use btc_detect::latency::{compare_latencies, render_fig11};
use btc_netsim::time::MINUTES;

fn main() {
    let cfg = Fig10Config {
        train: 40 * MINUTES,
        window: 10 * MINUTES,
        test: 8 * MINUTES,
        innocents: 40,
    };
    println!(
        "training on {} minutes of clean traffic...",
        cfg.train / MINUTES
    );
    let r = run_fig10(cfg, 1);
    println!(
        "profile: τ_n = [{:.0}, {:.0}] msg/min, τ_c = [0, {:.1}]/min, τ_Λ = {:.3}\n",
        r.profile.tau_n.0, r.profile.tau_n.1, r.profile.tau_c.1, r.profile.tau_lambda
    );
    for c in &r.cases {
        println!(
            "{:<11} n={:>8.0}/min  c={:>5.2}/min  ρ={:>6.3}  → {}",
            c.name,
            c.detection.n,
            c.detection.c,
            c.detection.rho,
            if c.detection.anomalous {
                format!("ANOMALOUS {:?}", c.detection.violations)
            } else {
                "normal".into()
            }
        );
    }

    // Figure 11: latency comparison on a labelled dataset derived from the
    // three cases.
    println!("\nlatency vs ML baselines:");
    let mut windows = Vec::new();
    let mut labels = Vec::new();
    for c in &r.cases {
        for i in 0..30u64 {
            let mut w = c.window;
            for (j, count) in w.counts.iter_mut().enumerate() {
                *count += (i + j as u64) % 3;
            }
            windows.push(w);
            labels.push(if c.name == "normal" { 0.0 } else { 1.0 });
        }
    }
    let rows = compare_latencies(&windows, &labels, 1);
    print!("{}", render_fig11(&rows));
}
