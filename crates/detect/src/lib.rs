//! # btc-detect
//!
//! The paper's §VII countermeasure: a lightweight, **identifier-oblivious**
//! statistical anomaly-detection engine for Bitcoin message traffic, plus
//! the seven ML baselines it is compared against in Figure 11.
//!
//! The engine never looks at peer identifiers (Sybil and spoofing make
//! those worthless); it watches three traffic features:
//!
//! * `c` — outbound peer reconnection rate (Defamation),
//! * `n` — overall message rate (BM-DoS),
//! * `Λ` — message-count distribution compared by correlation (both).
//!
//! ```
//! use btc_detect::engine::AnalysisEngine;
//! use btc_detect::features::TrafficWindow;
//!
//! # fn main() -> Result<(), btc_detect::engine::TrainError> {
//! let mut normal = TrafficWindow::empty(10.0);
//! normal.counts[12] = 2000; // tx-dominated traffic
//! normal.counts[4] = 300;
//! let engine = AnalysisEngine;
//! let profile = engine.train(&[normal])?;
//! let mut flooded = normal;
//! flooded.counts[4] += 150_000; // ping flood
//! assert!(engine.detect(&profile, &flooded).anomalous);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod dataset;
pub mod engine;
pub mod eval;
pub mod features;
pub mod latency;
pub mod ml;
pub mod serve;
pub mod streaming;

pub use dataset::Dataset;
pub use engine::{AnalysisEngine, Detection, Profile, Violation, Violations};
pub use eval::{compare_accuracy, Metrics};
pub use features::{correlation, TrafficWindow, NUM_TYPES};
pub use latency::{compare_latencies, LatencyRow};
pub use serve::{
    bench_service, run_service, verdict_agreement, verdict_digest, PeerKey, PeerVerdict,
    ServeBench, ServeOutput, TraceEvent, TraceEventKind, TraceSpan,
};
pub use streaming::{StreamingEngine, StreamingProfile, StreamingWindow, WindowVerdict};
