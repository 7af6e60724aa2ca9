//! `detect_replay` and `detect_replay_sharded`: the detector alone. A
//! seeded synthetic trace goes through `btc_detect::serve::run_service`
//! at one shard or at two; the batch pipeline is the oracle.
//!
//! The keys are skewed on purpose. Per-event cost swings several-fold with
//! the working set: the hot peers price the arithmetic (and, sharded, the
//! channel hop), the cold peers price the map lookup, profile creation and
//! the scoring of silent windows.

use crate::trace::Tracer;
use crate::workloads::{per, Baseline, Layers, Rep, Workload};
use btc_detect::engine::AnalysisEngine;
use btc_detect::features::TrafficWindow;
use btc_detect::serve::{
    batch_verdicts, run_service, verdict_agreement, PeerKey, PeerVerdict, ServeOutput, TraceEvent,
    TraceEventKind, TraceSpan,
};
use btc_detect::streaming::{StreamingEngine, StreamingProfile, MINUTE};
use btc_netsim::rng::SimRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::OnceLock;

const WINDOWS: u64 = 10;
const WINDOW_LEN: u64 = MINUTE;

struct Size {
    events: u64,
    hot_peers: u64,
    cold_peers: u64,
}

const FULL: Size = Size {
    events: 5_000_000,
    hot_peers: 64,
    cold_peers: 50_000,
};
const SMOKE: Size = Size {
    events: 40_000,
    hot_peers: 8,
    cold_peers: 500,
};

/// Hot peers carry this share of the events, ‰.
const HOT_PERMILLE: u64 = 800;
const RECONNECT_PERMILLE: u64 = 2;
/// Cold peers' keys start here; everything below is hot.
const COLD_BASE: PeerKey = 1_000;

/// The message mix of the trace and of the training windows, ‰ per
/// command-table index (tx, inv, ping, addr).
const MIX: [(u8, u64); 4] = [(12, 450), (6, 400), (4, 100), (2, 50)];

pub struct DetectReplay {
    shards: usize,
    trace: Vec<TraceEvent>,
    span: TraceSpan,
    engine: StreamingEngine,
    /// Computed by the first rep, outside its timed region.
    oracle: OnceLock<Oracle>,
    /// `(digest, matching, total)` of the first rep's comparison with the
    /// oracle: a later rep with the same digest has the same verdicts, so
    /// the half-million-cell comparison is not repeated for it.
    agreement: OnceLock<(u64, u64, u64)>,
}

/// What the streaming output is checked against.
struct Oracle {
    batch: Vec<PeerVerdict>,
    /// `run_service` at one shard, when this workload runs more.
    serial_digest: Option<u64>,
}

impl DetectReplay {
    pub fn setup(seed: u64, smoke: bool, shards: usize) -> DetectReplay {
        let size = if smoke { SMOKE } else { FULL };
        let mut rng = SimRng::new(seed ^ 0x4445_5445);
        let span = TraceSpan {
            start: 0,
            end: WINDOWS * WINDOW_LEN,
        };
        let trace = (0..size.events)
            .map(|i| {
                let peer = if rng.gen_range(1000) < HOT_PERMILLE {
                    1 + rng.gen_range(size.hot_peers)
                } else {
                    COLD_BASE + rng.gen_range(size.cold_peers)
                };
                let kind = if rng.gen_range(1000) < RECONNECT_PERMILLE {
                    TraceEventKind::Reconnect
                } else {
                    let mut pick = rng.gen_range(1000);
                    let ty = MIX.iter().find(|(_, share)| {
                        let hit = pick < *share;
                        pick = pick.saturating_sub(*share);
                        hit
                    });
                    TraceEventKind::Message(ty.map_or(MIX[0].0, |(ty, _)| *ty))
                };
                // Evenly spaced, so time order is index order.
                TraceEvent {
                    time: span.end / size.events * i,
                    peer,
                    kind,
                }
            })
            .collect();
        // Trained on what one hot peer sends in a window, give or take 5 %.
        let hot_per_window = size.events * HOT_PERMILLE / 1000 / size.hot_peers / WINDOWS;
        let training: Vec<TrafficWindow> = (0..40)
            .map(|_| {
                let mut w = TrafficWindow::empty(WINDOW_LEN as f64 / MINUTE as f64);
                for (ty, share) in MIX {
                    w.counts[usize::from(ty)] =
                        hot_per_window * share / 1000 * (950 + rng.gen_range(101)) / 1000;
                }
                w.reconnects = rng.gen_range(hot_per_window * RECONNECT_PERMILLE / 500 + 2);
                w
            })
            .collect();
        let profile = AnalysisEngine::default()
            .train(&training)
            .expect("forty windows");
        DetectReplay {
            shards,
            trace,
            span,
            engine: StreamingEngine::new(profile, WINDOW_LEN),
            oracle: OnceLock::new(),
            agreement: OnceLock::new(),
        }
    }

    fn oracle(&self) -> &Oracle {
        self.oracle.get_or_init(|| Oracle {
            batch: batch_verdicts(
                &self.engine.profile,
                &AnalysisEngine::default(),
                &self.trace,
                self.span,
                WINDOW_LEN,
            ),
            serial_digest: (self.shards > 1)
                .then(|| run_service(&self.engine, &self.trace, self.span, 1).digest),
        })
    }

    /// Feeds the events `keep` selects through per-peer profiles behind a
    /// `BTreeMap`, as one service shard does. Returns the profiles.
    fn stream(&self, keep: impl Fn(PeerKey) -> bool) -> (BTreeMap<PeerKey, StreamingProfile>, u64) {
        let mut peers = BTreeMap::new();
        let mut scratch = Vec::new();
        let mut events = 0;
        for ev in self.trace.iter().filter(|ev| keep(ev.peer)) {
            let peer = peers
                .entry(ev.peer)
                .or_insert_with(|| StreamingProfile::new(&self.engine, self.span.start));
            match ev.kind {
                TraceEventKind::Message(ty) => {
                    peer.on_message(&self.engine, ev.time, ty, &mut scratch)
                }
                TraceEventKind::Reconnect => peer.on_reconnect(&self.engine, ev.time, &mut scratch),
            }
            events += 1;
            black_box(&scratch);
            scratch.clear();
        }
        (peers, events)
    }
}

/// Events the verdicts account for: every window's `n` and `c` are rates
/// over the window, so rate × length is the count that was scored.
fn scored_events(out: &ServeOutput) -> u64 {
    let minutes = WINDOW_LEN as f64 / MINUTE as f64;
    out.verdicts
        .iter()
        .map(|v| ((v.verdict.detection.n + v.verdict.detection.c) * minutes).round() as u64)
        .sum()
}

impl Workload for DetectReplay {
    type Done = ServeOutput;

    fn rep(&self, tracer: &mut Tracer) -> (Rep, ServeOutput) {
        let oracle = self.oracle();
        let (out, wall_ns) = tracer.span("rep", |t| {
            let (out, _) = t.span("detect.run_service", |_| {
                let out = run_service(&self.engine, &self.trace, self.span, self.shards);
                let n = out.events;
                (out, n)
            });
            (out, 0)
        });
        let mut violations = Vec::new();
        let compare = || {
            let (matching, total) = verdict_agreement(&out.verdicts, &oracle.batch);
            (out.digest, matching, total)
        };
        let (_, matching, total) = match *self.agreement.get_or_init(compare) {
            first if first.0 == out.digest => first,
            _ => compare(),
        };
        if matching != total {
            violations.push(format!(
                "streaming and batch agree on {matching} of {total} verdicts"
            ));
        }
        if oracle.serial_digest.is_some_and(|d| d != out.digest) {
            violations.push(format!(
                "{} shards and 1 shard disagree on the verdict digest",
                self.shards
            ));
        }
        let attempted = self.trace.len() as u64;
        let rep = Rep {
            wall_ns,
            ops: out.events,
            attempted,
            failed: attempted.saturating_sub(scored_events(&out)),
            digest: out.digest,
            violations,
            note: format!(
                "events={} peers={} verdicts={} anomalous={} agreement={matching}/{total}",
                out.events,
                out.peers,
                out.verdicts.len(),
                out.anomalous
            ),
        };
        (rep, out)
    }

    fn probes(
        &self,
        _rep: &Rep,
        done: ServeOutput,
        base: &Baseline,
        tracer: &mut Tracer,
        out: &mut Layers,
    ) {
        // Every rep's digest equals the first's, whose comparison is kept.
        let &(_, matching, total) = self.agreement.get().expect("a rep ran before the probes");
        out.set("detect.agreement", per(matching as f64, total));
        out.set("detect.verdicts", done.verdicts.len() as f64);
        out.set("detect.anomalous", done.anomalous as f64);
        out.set("detect.peers", done.peers as f64);

        let ((hot, hot_events), hot_ns) = tracer.span("probe.detect.stream_hot", |_| {
            let r = self.stream(|p| p < COLD_BASE);
            let n = r.1;
            (r, n)
        });
        let ((cold, cold_events), cold_ns) = tracer.span("probe.detect.stream_cold", |_| {
            let r = self.stream(|p| p >= COLD_BASE);
            let n = r.1;
            (r, n)
        });
        out.set(
            "detect.stream_ns_per_event_hot",
            per(hot_ns as f64, hot_events),
        );
        out.set(
            "detect.stream_ns_per_event_cold",
            per(cold_ns as f64, cold_events),
        );
        let (verdicts, finish_ns) = tracer.span("probe.detect.finish", |_| {
            let mut scratch = Vec::new();
            let mut verdicts = 0;
            for mut profile in hot.into_values().chain(cold.into_values()) {
                profile.finish(&self.engine, self.span.end, &mut scratch);
                verdicts += scratch.len() as u64;
                black_box(&scratch);
                scratch.clear();
            }
            (verdicts, verdicts)
        });
        out.set(
            "detect.finish_ns_per_verdict",
            per(finish_ns as f64, verdicts),
        );
        out.covered_ns += (hot_ns + cold_ns + finish_ns) as f64;

        let (_, batch_ns) = tracer.span("probe.detect.batch", |_| {
            black_box(batch_verdicts(
                &self.engine.profile,
                &AnalysisEngine::default(),
                &self.trace,
                self.span,
                WINDOW_LEN,
            ));
            ((), self.trace.len() as u64)
        });
        out.set(
            "detect.batch.events_per_s",
            self.trace.len() as f64 / (batch_ns as f64 / 1e9),
        );

        // The Fig. 11 quantity: one window through the batch engine.
        let windows: Vec<TrafficWindow> = done
            .verdicts
            .iter()
            .take(1_000)
            .map(|v| {
                let mut w = TrafficWindow::empty(WINDOW_LEN as f64 / MINUTE as f64);
                let total = (v.verdict.detection.n * w.minutes) as u64;
                for (ty, share) in MIX {
                    w.counts[usize::from(ty)] = total * share / 1000;
                }
                w
            })
            .collect();
        const ROUNDS: u64 = 100;
        let engine = AnalysisEngine::default();
        let (_, ns) = tracer.span("probe.detect.batch_detect", |_| {
            for _ in 0..ROUNDS {
                for w in &windows {
                    black_box(engine.detect(&self.engine.profile, black_box(w)));
                }
            }
            ((), ROUNDS * windows.len() as u64)
        });
        out.set(
            "detect.batch_detect_ns_per_window",
            per(ns as f64, ROUNDS * windows.len() as u64),
        );

        // The other shard count, once, for the scaling ratio.
        let other = if self.shards == 1 { 2 } else { 1 };
        let (_, other_ns) = tracer.span("probe.detect.other_shard_count", |_| {
            black_box(run_service(&self.engine, &self.trace, self.span, other));
            ((), self.trace.len() as u64)
        });
        let (serial_ns, sharded_ns) = if self.shards == 1 {
            (base.untraced_wall_ns, other_ns as f64)
        } else {
            (other_ns as f64, base.untraced_wall_ns)
        };
        out.set("detect.serve.shard_scaling", serial_ns / sharded_ns);
    }
}
