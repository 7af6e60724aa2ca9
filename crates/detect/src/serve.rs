//! The sharded per-peer profile service: detector-as-a-sidecar.
//!
//! [`run_service`] partitions per-peer streaming state
//! ([`crate::streaming::StreamingProfile`]) across `N` worker shards.
//! Assignment is peer-keyed (`peer % shards`) and the result is
//! **bit-identical at any shard count** (the same discipline as
//! `btc-par`'s input-order result slots):
//!
//! * **Chunked hand-off.** The producer fills one `Vec<TraceEvent>` per
//!   shard and sends it when it holds `CHUNK` events, and at the end of
//!   the trace, over a bounded channel a few chunks deep — a channel
//!   operation per chunk, not per event, and a slow shard still applies
//!   backpressure. Each peer's events travel one channel in trace order,
//!   so its state evolves exactly as in a serial run no matter how the OS
//!   schedules the workers. One shard runs on the caller's thread with no
//!   channel at all, through the same ingest code.
//! * **Interned peer slab.** A shard interns each event's [`PeerKey`] to a
//!   dense id through a small open-addressing index (fixed hash, linear
//!   probing, doubling at half full) and keeps the profiles in a `Vec`
//!   indexed by it. The index's layout never reaches the output.
//! * **Per-shard sort, ordered merge.** Each worker sorts its own verdicts
//!   by the unique `(peer, window_index)` key; the leader merges the shard
//!   lists by peer into one pre-sized list, moving every verdict once.
//! * **Out-of-span rule.** Events before `span.start` or at or after the
//!   end of the span's last full window belong to no scored window and
//!   are dropped at ingest (they still count in [`ServeOutput::events`]),
//!   exactly as [`batch_verdicts`] skips them — so a far-future timestamp
//!   cannot roll a peer through windows the span does not have.
//!
//! [`bench_service`] wraps a run with wall-clock measurement (msgs/sec
//! ingest throughput, p50/p99 per-decision latency). [`batch_verdicts`]
//! is the comparison baseline: it groups the same trace into whole
//! windows first, then scores each with [`AnalysisEngine::detect`] —
//! the scorer the shards close their windows with, its sums built from
//! the finished counts in one pass instead of per event. Its grouping is
//! a counting sort: beside the verdicts it returns it holds one byte per
//! event and one word per `(peer, window)` cell, never a 224-byte
//! [`TrafficWindow`] for every cell at once. Verdicts are `Copy` (the
//! violation set is one byte), so scoring a window allocates nothing.
//!
//! The decision clock is a type parameter of the shard: a plain run reads
//! no clock at all, a bench run reads it only around the events that
//! close a window. Timing never feeds the verdicts: the digest of a bench
//! run equals the digest of a plain run.

use crate::engine::{AnalysisEngine, Profile, Violation};
use crate::features::{TrafficWindow, NUM_TYPES};
use crate::streaming::{Nanos, StreamingEngine, StreamingProfile, WindowVerdict};
use std::cmp::Ordering;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::mpsc;
use std::time::Instant;

/// Compact peer identifier (e.g. IPv4 ‖ port packed into the low 48
/// bits). The service never interprets it beyond shard assignment.
pub type PeerKey = u64;

/// What happened in one trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A message of the given command-table type arrived.
    Message(u8),
    /// An outbound reconnection was initiated after losing the peer.
    Reconnect,
}

/// One event of a recorded traffic trace, in non-decreasing time order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event time.
    pub time: Nanos,
    /// The peer it concerns.
    pub peer: PeerKey,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The service's bounds for one trace: windows are anchored at `start`
/// and every peer is scored for all `windows` tumbling windows of
/// `[start, end)`, present or silent.
#[derive(Clone, Copy, Debug)]
pub struct TraceSpan {
    /// Trace origin (window 0 starts here).
    pub start: Nanos,
    /// Trace end; the span is cut into `(end − start) / window_len` full
    /// windows, discarding a partial tail.
    pub end: Nanos,
}

impl TraceSpan {
    /// Number of full windows the span covers at `window_len`.
    pub fn windows(&self, window_len: Nanos) -> u64 {
        self.end.saturating_sub(self.start) / window_len
    }

    /// The times that fall in a scored window: from `start` to the end of
    /// the last full window. Events outside it are dropped by the service
    /// and the batch pipeline alike.
    fn scored(&self, window_len: Nanos) -> Range<Nanos> {
        self.start..self.start + self.windows(window_len) * window_len
    }
}

/// One scored `(peer, window)` cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PeerVerdict {
    /// The peer.
    pub peer: PeerKey,
    /// The closed window's verdict (index + detection + EWMA rates).
    pub verdict: WindowVerdict,
}

/// The deterministic output of a service run.
#[derive(Clone, Debug)]
pub struct ServeOutput {
    /// Every `(peer, window)` verdict, sorted by `(peer, window_index)`.
    pub verdicts: Vec<PeerVerdict>,
    /// Events ingested.
    pub events: u64,
    /// Distinct peers seen.
    pub peers: u64,
    /// Verdicts with `anomalous == true`.
    pub anomalous: u64,
    /// FNV-1a digest over the full verdict list, including the float bit
    /// patterns — byte-equality of two runs' results in one number.
    pub digest: u64,
}

/// Wall-clock measurements of one [`bench_service`] run.
#[derive(Clone, Copy, Debug)]
pub struct ServeBench {
    /// Ingest throughput: events per wall-clock second, end to end
    /// (ingest + scoring + merge).
    pub msgs_per_sec: f64,
    /// Median per-decision (window-close scoring) latency in ns.
    pub p50_decision_ns: u64,
    /// 99th-percentile per-decision latency in ns.
    pub p99_decision_ns: u64,
}

/// Reads the wall clock around a window-closing event — or does not: the
/// clock is a type parameter of [`Shard`] (which stores none), so a plain
/// run is monomorphised with no time read at all.
trait DecisionClock {
    /// Marks the start of a decision.
    fn start() -> Self;
    /// Appends the nanoseconds since [`DecisionClock::start`] to `samples`.
    fn stop(self, samples: &mut Vec<u64>);
}

/// [`run_service`]'s clock: records nothing.
struct NoClock;

impl DecisionClock for NoClock {
    fn start() -> Self {
        NoClock
    }
    fn stop(self, _samples: &mut Vec<u64>) {}
}

/// [`bench_service`]'s clock.
struct WallClock(Instant);

impl DecisionClock for WallClock {
    fn start() -> Self {
        WallClock(Instant::now())
    }
    fn stop(self, samples: &mut Vec<u64>) {
        samples.push(self.0.elapsed().as_nanos() as u64);
    }
}

/// Interns [`PeerKey`]s to dense ids `0, 1, 2, …` in first-seen order: an
/// open-addressing table of ids over the key list, with a fixed
/// Fibonacci-multiply hash and linear probing. Nothing is seeded per
/// process and the table's order never reaches the output (ids index a
/// slab; verdicts are sorted by key), so runs stay reproducible.
struct PeerIndex {
    /// `id + 1` of the key stored in each slot, 0 for an empty slot. The
    /// length is a power of two, at least twice `keys.len()`.
    slots: Vec<u32>,
    /// The key behind each id.
    keys: Vec<PeerKey>,
}

impl PeerIndex {
    /// Slots of a fresh index. Small on purpose: the table doubles as
    /// peers arrive, and a shard that sees few peers stays small.
    const INITIAL_SLOTS: usize = 1024;

    fn new() -> Self {
        PeerIndex {
            slots: vec![0; Self::INITIAL_SLOTS],
            keys: Vec::new(),
        }
    }

    /// The slot probing starts at for `key` in a table of `slots` slots
    /// (a power of two): the top bits of the Fibonacci product.
    fn home(key: PeerKey, slots: usize) -> usize {
        let shift = u64::BITS - slots.trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
    }

    /// Probes `slots` for `key`: `Ok(id)` when it is interned, otherwise
    /// `Err(slot)` with the empty slot the probe stopped at. At most half
    /// the slots are ever taken, so the probe always meets an empty one.
    fn find(slots: &[u32], keys: &[PeerKey], key: PeerKey) -> Result<usize, usize> {
        let mask = slots.len() - 1;
        let mut at = Self::home(key, slots.len());
        loop {
            // `at` stays masked to the table, so `get` never misses.
            let taken = slots.get(at).copied().unwrap_or(0) as usize;
            if taken == 0 {
                return Err(at);
            }
            if keys.get(taken - 1) == Some(&key) {
                return Ok(taken - 1);
            }
            at = (at + 1) & mask;
        }
    }

    /// The id of `key`, assigning the next one (`keys.len()`) on first
    /// sight and doubling the table when that takes it past half full.
    fn intern(&mut self, key: PeerKey) -> usize {
        let vacant = match Self::find(&self.slots, &self.keys, key) {
            Ok(id) => return id,
            Err(vacant) => vacant,
        };
        let id = self.keys.len();
        self.keys.push(key);
        Self::occupy(&mut self.slots, vacant, id);
        if self.keys.len() * 2 > self.slots.len() {
            let mut slots = vec![0; self.slots.len() * 2];
            for (id, key) in self.keys.iter().enumerate() {
                if let Err(vacant) = Self::find(&slots, &self.keys, *key) {
                    Self::occupy(&mut slots, vacant, id);
                }
            }
            self.slots = slots;
        }
        id
    }

    /// Stores `id` in the empty slot a failed [`PeerIndex::find`] ended at.
    /// Ids are `u32`: a shard holds a profile per id, so memory runs out
    /// long before they do.
    fn occupy(slots: &mut [u32], vacant: usize, id: usize) {
        if let Some(slot) = slots.get_mut(vacant) {
            *slot = id as u32 + 1;
        }
    }
}

/// One shard's state: the profiles of the peers assigned to it, in a slab
/// indexed by interned id, and the verdicts they have produced so far.
struct Shard<'a, C> {
    engine: &'a StreamingEngine,
    span: TraceSpan,
    /// [`TraceSpan::scored`] of `span`.
    scored: Range<Nanos>,
    index: PeerIndex,
    /// Profile of each interned peer, parallel to `index.keys`.
    profiles: Vec<StreamingProfile>,
    verdicts: Vec<PeerVerdict>,
    /// Per-decision latency samples in ns (bench diagnostics only; never
    /// part of the deterministic output).
    decision_ns: Vec<u64>,
    scratch: Vec<WindowVerdict>,
    clock: PhantomData<C>,
}

impl<'a, C: DecisionClock> Shard<'a, C> {
    fn new(engine: &'a StreamingEngine, span: TraceSpan) -> Self {
        Shard {
            engine,
            span,
            scored: span.scored(engine.window_len),
            index: PeerIndex::new(),
            profiles: Vec::new(),
            verdicts: Vec::new(),
            decision_ns: Vec::new(),
            scratch: Vec::new(),
            clock: PhantomData,
        }
    }

    /// Feeds `events` (in trace order) to their peers' profiles. Events
    /// outside the scored part of the span are dropped, as
    /// [`batch_verdicts`] drops them: they belong to no scored window, and
    /// a far-future timestamp must not roll a peer through windows the
    /// span does not have.
    fn ingest(&mut self, events: &[TraceEvent]) {
        let engine = self.engine;
        for ev in events {
            if !self.scored.contains(&ev.time) {
                continue;
            }
            let id = self.index.intern(ev.peer);
            if id == self.profiles.len() {
                self.profiles
                    .push(StreamingProfile::new(engine, self.span.start));
            }
            let Some(profile) = self.profiles.get_mut(id) else {
                continue;
            };
            // The clock is read only around an event that pays a decision.
            let decision = profile.window_due(engine, ev.time).then(C::start);
            match ev.kind {
                TraceEventKind::Message(ty) => {
                    profile.on_message(engine, ev.time, ty, &mut self.scratch);
                }
                TraceEventKind::Reconnect => {
                    profile.on_reconnect(engine, ev.time, &mut self.scratch);
                }
            }
            if let Some(clock) = decision {
                clock.stop(&mut self.decision_ns);
                let peer = ev.peer;
                let closed = self.scratch.drain(..);
                self.verdicts
                    .extend(closed.map(|verdict| PeerVerdict { peer, verdict }));
            }
        }
    }

    /// Closes every peer's stream at the span end and returns the shard's
    /// verdicts, sorted by `(peer, window_index)`, and latency samples.
    fn finish(mut self) -> (Vec<PeerVerdict>, Vec<u64>) {
        let end = self.span.end;
        for (&peer, profile) in self.index.keys.iter().zip(&mut self.profiles) {
            let decision = profile.window_due(self.engine, end).then(C::start);
            profile.finish(self.engine, end, &mut self.scratch);
            if let Some(clock) = decision {
                clock.stop(&mut self.decision_ns);
            }
            let closed = self.scratch.drain(..);
            self.verdicts
                .extend(closed.map(|verdict| PeerVerdict { peer, verdict }));
        }
        // The key is unique per verdict, so an unstable sort is exact.
        self.verdicts
            .sort_unstable_by_key(|v| (v.peer, v.verdict.window_index));
        (self.verdicts, self.decision_ns)
    }
}

/// Events per hand-off: the producer sends a shard its events in chunks
/// of this many, so a channel operation is paid once per chunk.
const CHUNK: usize = 1024;

/// Chunks a shard's channel holds before the producer blocks. A few are
/// enough to ride out a scoring hiccup; a slow shard still applies
/// backpressure, with at most `CHANNEL_DEPTH × CHUNK` events queued for it.
const CHANNEL_DEPTH: usize = 8;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Digest of a sorted verdict list: peer, window, verdict booleans and
/// the exact float bit patterns. Two runs agree on this u64 iff their
/// verdict lists are bit-identical.
pub fn verdict_digest(verdicts: &[PeerVerdict]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for v in verdicts {
        fnv1a(&mut h, &v.peer.to_le_bytes());
        fnv1a(&mut h, &v.verdict.window_index.to_le_bytes());
        fnv1a(&mut h, &[u8::from(v.verdict.detection.anomalous)]);
        for viol in v.verdict.detection.violations.iter() {
            let tag: u8 = match viol {
                Violation::MessageRate => 1,
                Violation::ReconnectRate => 2,
                Violation::Distribution => 3,
            };
            fnv1a(&mut h, &[tag]);
        }
        for f in [
            v.verdict.detection.n,
            v.verdict.detection.c,
            v.verdict.detection.rho,
            v.verdict.ewma_n,
            v.verdict.ewma_c,
        ] {
            fnv1a(&mut h, &f.to_bits().to_le_bytes());
        }
    }
    h
}

/// Merges the shards' sorted verdict lists into one list in
/// `(peer, window_index)` order. A peer lives in exactly one shard, so the
/// merge moves whole per-peer runs, smallest peer first, and the result
/// does not depend on the shard count.
fn merge_by_peer(lists: Vec<Vec<PeerVerdict>>) -> Vec<PeerVerdict> {
    let mut out = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    let mut heads: Vec<_> = lists
        .into_iter()
        .map(|list| list.into_iter().peekable())
        .collect();
    loop {
        let mut lowest = None;
        for head in &mut heads {
            let Some(peer) = head.peek().map(|v| v.peer) else {
                continue;
            };
            if lowest.as_ref().is_none_or(|(low, _)| peer < *low) {
                lowest = Some((peer, head));
            }
        }
        let Some((peer, head)) = lowest else {
            return out;
        };
        while let Some(v) = head.next_if(|v| v.peer == peer) {
            out.push(v);
        }
    }
}

/// Counts and digests a merged, `(peer, window_index)`-sorted verdict list.
fn reduce(verdicts: Vec<PeerVerdict>, events: u64) -> ServeOutput {
    let peers = verdicts.chunk_by(|a, b| a.peer == b.peer).count() as u64;
    let anomalous = verdicts
        .iter()
        .filter(|v| v.verdict.detection.anomalous)
        .count() as u64;
    let digest = verdict_digest(&verdicts);
    ServeOutput {
        verdicts,
        events,
        peers,
        anomalous,
        digest,
    }
}

/// Runs `trace` through `shards` shards timed by clock `C` and returns the
/// merged verdicts and the decision-latency samples.
fn serve<C: DecisionClock>(
    engine: &StreamingEngine,
    trace: &[TraceEvent],
    span: TraceSpan,
    shards: usize,
) -> (Vec<PeerVerdict>, Vec<u64>) {
    // lint:allow(panic-path): harness configuration check; shard count comes from the scenario, not a peer
    assert!(shards >= 1, "need at least one shard");
    if shards == 1 {
        // Serial path: no channel, no threads — the yardstick the sharded
        // paths must reproduce byte for byte. Its one sorted list is the
        // output: there is nothing to merge.
        let mut shard = Shard::<C>::new(engine, span);
        shard.ingest(trace);
        return shard.finish();
    }
    std::thread::scope(|scope| {
        let mut lanes = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = mpsc::sync_channel::<Vec<TraceEvent>>(CHANNEL_DEPTH);
            lanes.push((tx, Vec::with_capacity(CHUNK)));
            handles.push(scope.spawn(move || {
                let mut shard = Shard::<C>::new(engine, span);
                while let Ok(chunk) = rx.recv() {
                    shard.ingest(&chunk);
                }
                shard.finish()
            }));
        }
        let send = |tx: &mpsc::SyncSender<Vec<TraceEvent>>, chunk: Vec<TraceEvent>| {
            // lint:allow(panic-path): the receiver lives until its sender drops below; a hang-up means the shard panicked
            tx.send(chunk).expect("shard hung up");
        };
        // Each peer's events go down one lane in trace order, so its
        // profile evolves as in a serial run however the chunks interleave.
        for ev in trace {
            let lane = (ev.peer % shards as u64) as usize;
            let Some((tx, pending)) = lanes.get_mut(lane) else {
                continue;
            };
            pending.push(*ev);
            if pending.len() == CHUNK {
                send(tx, std::mem::replace(pending, Vec::with_capacity(CHUNK)));
            }
        }
        for (tx, pending) in lanes {
            if !pending.is_empty() {
                send(&tx, pending);
            }
        }
        let mut lists = Vec::with_capacity(shards);
        let mut decision_ns = Vec::new();
        for handle in handles {
            // lint:allow(panic-path): bench-harness thread join; shard panics must surface, not vanish
            let (verdicts, ns) = handle.join().expect("shard panicked");
            lists.push(verdicts);
            decision_ns.extend(ns);
        }
        (merge_by_peer(lists), decision_ns)
    })
}

/// Runs `trace` through `shards` workers and returns the merged,
/// deterministic output. `trace` must be in non-decreasing time order
/// (the order `Telemetry::events_in_window` produces). Reads no clock.
pub fn run_service(
    engine: &StreamingEngine,
    trace: &[TraceEvent],
    span: TraceSpan,
    shards: usize,
) -> ServeOutput {
    let (verdicts, _) = serve::<NoClock>(engine, trace, span, shards);
    reduce(verdicts, trace.len() as u64)
}

/// [`run_service`] plus wall-clock measurement. The deterministic output
/// is identical to an unmeasured run: timing reads never feed state.
pub fn bench_service(
    engine: &StreamingEngine,
    trace: &[TraceEvent],
    span: TraceSpan,
    shards: usize,
) -> (ServeOutput, ServeBench) {
    let started = Instant::now();
    let (verdicts, mut decision_ns) = serve::<WallClock>(engine, trace, span, shards);
    let elapsed_ns = started.elapsed().as_nanos() as u64;
    let events = trace.len() as u64;
    let out = reduce(verdicts, events);
    decision_ns.sort_unstable();
    let pct = |p: f64| -> u64 {
        let idx = (decision_ns.len().saturating_sub(1) as f64 * p).round() as usize;
        decision_ns.get(idx).copied().unwrap_or(0)
    };
    let bench = ServeBench {
        msgs_per_sec: if elapsed_ns == 0 {
            0.0
        } else {
            events as f64 * 1e9 / elapsed_ns as f64
        },
        p50_decision_ns: pct(0.50),
        p99_decision_ns: pct(0.99),
    };
    (out, bench)
}

/// [`batch_verdicts`]' one-byte record of an event: the message's
/// command-table slot, or [`RECONNECT_SLOT`]. Message types past the table
/// have none; like the telemetry guard, the window does not count them.
fn batch_slot(kind: TraceEventKind) -> Option<u8> {
    match kind {
        TraceEventKind::Message(ty) => (usize::from(ty) < NUM_TYPES).then_some(ty),
        TraceEventKind::Reconnect => Some(RECONNECT_SLOT),
    }
}

/// The slot [`batch_slot`] gives a reconnection: one past the message types.
const RECONNECT_SLOT: u8 = NUM_TYPES as u8;

/// The batch comparison pipeline: group the same trace into per-peer
/// [`TrafficWindow`]s (every peer × every window of the span), then score
/// each with [`AnalysisEngine::detect`]. Returns the same
/// `(peer, window)`-sorted shape as [`run_service`] with EWMA fields
/// zeroed (the batch engine has no between-window signal). The trace may
/// be in any time order.
///
/// The grouping is a counting sort by `(peer, window)` cell, so no window
/// table is ever held for every peer:
///
/// 1. one pass interns each scored event's peer and counts its cell;
/// 2. a second pass writes each event's one-byte [`batch_slot`] into its
///    cell's run of one shared byte array;
/// 3. peers are scored one at a time in key order, each cell folded into
///    one [`TrafficWindow`] and scored into an exactly pre-sized list.
pub fn batch_verdicts(
    profile: &Profile,
    engine: &AnalysisEngine,
    trace: &[TraceEvent],
    span: TraceSpan,
    window_len: Nanos,
) -> Vec<PeerVerdict> {
    let windows = span.windows(window_len) as usize;
    let scored = span.scored(window_len);
    let minutes = window_len as f64 / crate::streaming::MINUTE as f64;
    let in_span = || trace.iter().filter(|ev| scored.contains(&ev.time));
    let cell = |id: usize, time: Nanos| id * windows + ((time - span.start) / window_len) as usize;

    // Pass 1: `bounds[cell]` counts the cell's records.
    let mut index = PeerIndex::new();
    let mut bounds: Vec<usize> = Vec::new();
    for ev in in_span() {
        let id = index.intern(ev.peer);
        bounds.resize(index.keys.len() * windows, 0);
        if batch_slot(ev.kind).is_some() {
            if let Some(count) = bounds.get_mut(cell(id, ev.time)) {
                *count += 1;
            }
        }
    }
    // Counts to run starts; pass 2 advances each start to its run's end.
    let mut records = 0;
    for bound in &mut bounds {
        let count = *bound;
        *bound = records;
        records += count;
    }
    let mut slots = vec![0u8; records];
    for ev in in_span() {
        let Some(slot) = batch_slot(ev.kind) else {
            continue;
        };
        // Every peer is interned already: this is a lookup.
        let id = index.intern(ev.peer);
        if let Some(at) = bounds.get_mut(cell(id, ev.time)) {
            if let Some(record) = slots.get_mut(*at) {
                *record = slot;
            }
            *at += 1;
        }
    }

    let mut order: Vec<(PeerKey, usize)> = index.keys.iter().copied().zip(0..).collect();
    order.sort_unstable();
    let mut out = Vec::with_capacity(bounds.len());
    for (peer, id) in order {
        let first = id * windows;
        // A cell's run starts where the previous cell's ends.
        let mut start = first
            .checked_sub(1)
            .and_then(|prev| bounds.get(prev))
            .copied()
            .unwrap_or(0);
        let ends = bounds.get(first..first + windows).unwrap_or_default();
        for (window_index, &end) in (0..).zip(ends) {
            let mut w = TrafficWindow::empty(minutes);
            for &slot in slots.get(start..end).unwrap_or_default() {
                if slot == RECONNECT_SLOT {
                    w.reconnects += 1;
                } else if let Some(count) = w.counts.get_mut(usize::from(slot)) {
                    *count += 1;
                }
            }
            start = end;
            out.push(PeerVerdict {
                peer,
                verdict: WindowVerdict {
                    window_index,
                    detection: engine.detect(profile, &w),
                    ewma_n: 0.0,
                    ewma_c: 0.0,
                },
            });
        }
    }
    out
}

/// Verdict agreement between a streaming run and the batch pipeline on
/// the same trace: the fraction of `(peer, window)` cells where both
/// agree on `anomalous` **and** the violation set. Returns `(matching,
/// total)`; shapes that differ (missing cells) count as disagreement.
///
/// Both lists must be sorted by `(peer, window_index)` with unique keys,
/// as [`run_service`] and [`batch_verdicts`] return them: the two are
/// walked together, one cell at a time. On unsorted input the walk pairs
/// each verdict at most once and only with an equal key, so it can miss
/// agreement but never invent it.
pub fn verdict_agreement(streaming: &[PeerVerdict], batch: &[PeerVerdict]) -> (u64, u64) {
    let key = |v: &PeerVerdict| (v.peer, v.verdict.window_index);
    let total = streaming.len().max(batch.len()) as u64;
    let mut matching = 0u64;
    let (mut s, mut b) = (streaming.iter().peekable(), batch.iter().peekable());
    while let (Some(sv), Some(bv)) = (s.peek(), b.peek()) {
        match key(sv).cmp(&key(bv)) {
            Ordering::Less => {
                s.next();
            }
            Ordering::Greater => {
                b.next();
            }
            Ordering::Equal => {
                let (sd, bd) = (&sv.verdict.detection, &bv.verdict.detection);
                if sd.anomalous == bd.anomalous && sd.violations == bd.violations {
                    matching += 1;
                }
                s.next();
                b.next();
            }
        }
    }
    (matching, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AnalysisEngine;
    use crate::streaming::MINUTE;
    use std::collections::BTreeMap;

    fn trained_engine(window_len: Nanos) -> StreamingEngine {
        let mut windows = Vec::new();
        for seed in 0..40u64 {
            let mut w = TrafficWindow::empty(window_len as f64 / MINUTE as f64);
            w.counts[12] = 120 + seed % 6;
            w.counts[6] = 100 + seed % 3;
            w.counts[4] = 30;
            w.reconnects = seed % 2;
            windows.push(w);
        }
        let profile = AnalysisEngine.train(&windows).unwrap();
        StreamingEngine::new(profile, window_len)
    }

    /// A deterministic synthetic trace: `peers` peers with normal-ish
    /// mixes, one flooding peer, spanning `windows` windows.
    fn synthetic_trace(peers: u64, windows: u64, window_len: Nanos) -> (Vec<TraceEvent>, TraceSpan) {
        let span = TraceSpan {
            start: 0,
            end: windows * window_len,
        };
        let mut events = Vec::new();
        for w in 0..windows {
            let base = w * window_len;
            for p in 0..peers {
                let per_window: u64 = if p == 0 { 5000 } else { 250 };
                for i in 0..per_window {
                    // The flooder sends PING only; normal peers send the
                    // training mix (~48% tx, 40% inv, 12% ping).
                    let ty = if p == 0 {
                        4
                    } else if i < 120 {
                        12
                    } else if i < 220 {
                        6
                    } else {
                        4
                    };
                    events.push(TraceEvent {
                        time: base + i * (window_len / per_window),
                        peer: p,
                        kind: TraceEventKind::Message(ty),
                    });
                }
                if p == 3 {
                    events.push(TraceEvent {
                        time: base + window_len / 2,
                        peer: p,
                        kind: TraceEventKind::Reconnect,
                    });
                }
            }
        }
        events.sort_by_key(|e| e.time);
        (events, span)
    }

    #[test]
    fn shard_counts_agree_bit_for_bit() {
        let window_len = MINUTE;
        let engine = trained_engine(window_len);
        let (trace, span) = synthetic_trace(9, 3, window_len);
        let serial = run_service(&engine, &trace, span, 1);
        assert_eq!(serial.peers, 9);
        assert_eq!(serial.verdicts.len(), 9 * 3);
        for shards in [2, 3, 4, 8] {
            let sharded = run_service(&engine, &trace, span, shards);
            assert_eq!(sharded.digest, serial.digest, "shards={shards}");
            assert_eq!(sharded.verdicts, serial.verdicts, "shards={shards}");
        }
    }

    #[test]
    fn flooder_flagged_normal_peers_pass() {
        let window_len = MINUTE;
        let engine = trained_engine(window_len);
        let (trace, span) = synthetic_trace(6, 2, window_len);
        let out = run_service(&engine, &trace, span, 2);
        let flooder: Vec<_> = out.verdicts.iter().filter(|v| v.peer == 0).collect();
        assert!(flooder.iter().all(|v| v.verdict.detection.anomalous));
        let normal: Vec<_> = out.verdicts.iter().filter(|v| v.peer == 2).collect();
        assert_eq!(normal.len(), 2);
        assert!(normal.iter().all(|v| !v.verdict.detection.anomalous), "{normal:?}");
    }

    #[test]
    fn streaming_agrees_with_batch_pipeline() {
        let window_len = MINUTE;
        let engine = trained_engine(window_len);
        let (trace, span) = synthetic_trace(7, 3, window_len);
        let streaming = run_service(&engine, &trace, span, 4);
        let batch = batch_verdicts(
            &engine.profile,
            &AnalysisEngine,
            &trace,
            span,
            window_len,
        );
        assert_eq!(streaming.verdicts.len(), batch.len());
        let (matching, total) = verdict_agreement(&streaming.verdicts, &batch);
        assert_eq!(matching, total, "streaming and batch verdicts diverged");
        // Features agree to float tolerance (formulas differ).
        for (s, b) in streaming.verdicts.iter().zip(&batch) {
            assert_eq!(s.verdict.detection.n, b.verdict.detection.n);
            assert_eq!(s.verdict.detection.c, b.verdict.detection.c);
            assert!((s.verdict.detection.rho - b.verdict.detection.rho).abs() < 1e-9);
        }
    }

    #[test]
    fn bench_reports_throughput_and_latency() {
        let window_len = MINUTE;
        let engine = trained_engine(window_len);
        let (trace, span) = synthetic_trace(5, 2, window_len);
        let (out, bench) = bench_service(&engine, &trace, span, 2);
        assert_eq!(out.events, trace.len() as u64);
        assert!(bench.msgs_per_sec > 0.0);
        assert!(bench.p99_decision_ns >= bench.p50_decision_ns);
        // The measured run's deterministic half equals an unmeasured run.
        let plain = run_service(&engine, &trace, span, 4);
        assert_eq!(out.digest, plain.digest);
    }

    /// One verdict per violation subset, judged by a hand-set profile:
    /// bit 0 of `subset` breaks `τ_n`, bit 1 `τ_c`, bit 2 `τ_Λ`.
    fn every_violation_subset() -> Vec<PeerVerdict> {
        let profile = Profile::new((1.0, 2.0), (0.0, 1.0), 0.5, [0.0; NUM_TYPES], 1);
        (0..8u64)
            .map(|subset| {
                let n = if subset & 1 == 0 { 1.5 } else { 7.25 };
                let c = if subset & 2 == 0 { 0.5 } else { 3.0 };
                let rho = if subset & 4 == 0 { 0.875 } else { 0.125 };
                PeerVerdict {
                    peer: 100 + subset,
                    verdict: WindowVerdict {
                        window_index: subset % 3,
                        detection: profile.judge(n, c, rho),
                        ewma_n: subset as f64 / 4.0,
                        ewma_c: 1.0 / (subset + 1) as f64,
                    },
                }
            })
            .collect()
    }

    #[test]
    fn digest_and_debug_text_of_every_violation_subset_are_pinned() {
        let verdicts = every_violation_subset();
        let text: Vec<String> = verdicts
            .iter()
            .map(|v| format!("{:?}", v.verdict.detection.violations))
            .collect();
        assert_eq!(
            text,
            [
                "[]",
                "[MessageRate]",
                "[ReconnectRate]",
                "[MessageRate, ReconnectRate]",
                "[Distribution]",
                "[MessageRate, Distribution]",
                "[ReconnectRate, Distribution]",
                "[MessageRate, ReconnectRate, Distribution]",
            ]
        );
        assert_eq!(verdict_digest(&verdicts), 0xdb8c_a592_e25e_e3b4);
    }

    #[test]
    fn digest_is_sensitive_to_verdict_changes() {
        let window_len = MINUTE;
        let engine = trained_engine(window_len);
        let (trace, span) = synthetic_trace(4, 2, window_len);
        let base = run_service(&engine, &trace, span, 1);
        let mut altered = trace.clone();
        altered.push(TraceEvent {
            time: span.end - 1,
            peer: 1,
            kind: TraceEventKind::Reconnect,
        });
        let changed = run_service(&engine, &altered, span, 1);
        assert_ne!(base.digest, changed.digest);
    }

    /// The same ingest as [`Shard`] behind a `BTreeMap`, one peer at a
    /// time: what the interned slab, the chunks and the merge must equal.
    fn reference_verdicts(
        engine: &StreamingEngine,
        trace: &[TraceEvent],
        span: TraceSpan,
    ) -> Vec<PeerVerdict> {
        let mut peers: BTreeMap<PeerKey, (StreamingProfile, Vec<WindowVerdict>)> = BTreeMap::new();
        let scored = span.scored(engine.window_len);
        for ev in trace.iter().filter(|ev| scored.contains(&ev.time)) {
            let (profile, out) = peers
                .entry(ev.peer)
                .or_insert_with(|| (StreamingProfile::new(engine, span.start), Vec::new()));
            match ev.kind {
                TraceEventKind::Message(ty) => profile.on_message(engine, ev.time, ty, out),
                TraceEventKind::Reconnect => profile.on_reconnect(engine, ev.time, out),
            }
        }
        let mut all = Vec::new();
        for (peer, (mut profile, mut out)) in peers {
            profile.finish(engine, span.end, &mut out);
            all.extend(out.into_iter().map(|verdict| PeerVerdict { peer, verdict }));
        }
        all
    }

    /// [`batch_verdicts`] as a window table per peer behind a `BTreeMap`:
    /// what the counting sort must equal.
    fn reference_batch(
        profile: &Profile,
        engine: &AnalysisEngine,
        trace: &[TraceEvent],
        span: TraceSpan,
        window_len: Nanos,
    ) -> Vec<PeerVerdict> {
        let total_windows = span.windows(window_len);
        let scored = span.scored(window_len);
        let minutes = window_len as f64 / MINUTE as f64;
        let mut grouped: BTreeMap<PeerKey, Vec<TrafficWindow>> = BTreeMap::new();
        for ev in trace.iter().filter(|ev| scored.contains(&ev.time)) {
            let idx = ((ev.time - span.start) / window_len) as usize;
            let windows = grouped
                .entry(ev.peer)
                .or_insert_with(|| vec![TrafficWindow::empty(minutes); total_windows as usize]);
            match ev.kind {
                TraceEventKind::Message(ty) => {
                    if let Some(slot) = windows[idx].counts.get_mut(ty as usize) {
                        *slot += 1;
                    }
                }
                TraceEventKind::Reconnect => windows[idx].reconnects += 1,
            }
        }
        let mut out = Vec::new();
        for (peer, windows) in &grouped {
            for (idx, w) in windows.iter().enumerate() {
                out.push(PeerVerdict {
                    peer: *peer,
                    verdict: WindowVerdict {
                        window_index: idx as u64,
                        detection: engine.detect(profile, w),
                        ewma_n: 0.0,
                        ewma_c: 0.0,
                    },
                });
            }
        }
        out
    }

    /// [`verdict_agreement`] through a map of the batch cells: what the
    /// sorted walk must equal on sorted input.
    fn reference_agreement(streaming: &[PeerVerdict], batch: &[PeerVerdict]) -> (u64, u64) {
        let mut batch_map: BTreeMap<(PeerKey, u64), &PeerVerdict> = BTreeMap::new();
        for v in batch {
            batch_map.insert((v.peer, v.verdict.window_index), v);
        }
        let total = streaming.len().max(batch.len()) as u64;
        let mut matching = 0u64;
        for s in streaming {
            if let Some(b) = batch_map.get(&(s.peer, s.verdict.window_index)) {
                if s.verdict.detection.anomalous == b.verdict.detection.anomalous
                    && s.verdict.detection.violations == b.verdict.detection.violations
                {
                    matching += 1;
                }
            }
        }
        (matching, total)
    }

    #[test]
    fn batch_counting_sort_and_agreement_walk_equal_their_references() {
        use btc_netsim::prop::{check, Gen};
        let engine = trained_engine(MINUTE);
        let batch_engine = AnalysisEngine;
        check("batch_verdicts ≡ reference_batch", |g: &mut Gen| {
            let window_len = *g.choose(&[1, 7, MINUTE]);
            let start = g.u64_in(0, 3 * window_len);
            // Up to three windows and a partial tail; a span shorter than
            // one window, or ending before it starts, has none.
            let end = match g.usize_in(0, 5) {
                0 => start.saturating_sub(g.u64_in(0, 2 * window_len)),
                _ => start + g.u64_in(0, 3 * window_len + window_len / 2 + 1),
            };
            let span = TraceSpan { start, end };
            let peers = g.u64_in(1, 10);
            let mut trace: Vec<TraceEvent> = g.vec_with(0, 300, |g| TraceEvent {
                time: match g.usize_in(0, 12) {
                    0 => u64::MAX,
                    1 => g.u64_in(0, start + 1),
                    2 => end.saturating_add(g.u64_in(0, 2 * window_len)),
                    _ => g.u64_in(start, end.max(start) + 1),
                },
                peer: g.u64_in(0, peers) * 1_000_003,
                kind: match g.usize_in(0, 8) {
                    0 => TraceEventKind::Reconnect,
                    1 => TraceEventKind::Message(g.usize_in(NUM_TYPES, 256) as u8),
                    _ => TraceEventKind::Message(g.usize_in(0, NUM_TYPES) as u8),
                },
            });
            if g.bool() {
                trace.sort_by_key(|e| e.time);
            }
            let profile = &engine.profile;
            let batch = batch_verdicts(profile, &batch_engine, &trace, span, window_len);
            let expect = reference_batch(profile, &batch_engine, &trace, span, window_len);
            assert_eq!(batch, expect);
            assert_eq!(batch.len(), batch.capacity(), "the list is sized exactly");

            // A second, sorted list with cells missing, extra and differing.
            let key = |v: &PeerVerdict| (v.peer, v.verdict.window_index);
            let mut other = Vec::new();
            for v in &batch {
                let mut v = *v;
                let d = &mut v.verdict.detection;
                match g.usize_in(0, 6) {
                    0 => continue,
                    1 => d.anomalous = !d.anomalous,
                    2 => d.violations.insert(Violation::ReconnectRate),
                    _ => {}
                }
                other.push(v);
            }
            let subsets = every_violation_subset();
            for _ in 0..g.usize_in(0, 4) {
                let mut v = *g.choose(&subsets);
                v.peer = g.u64_in(0, peers) * 1_000_003 + g.u64_in(0, 2);
                v.verdict.window_index = g.u64_in(0, 5);
                if !other.iter().any(|o| key(o) == key(&v)) {
                    other.push(v);
                }
            }
            other.sort_by_key(key);
            let walked = verdict_agreement(&other, &batch);
            assert_eq!(walked, reference_agreement(&other, &batch));
            let flipped = verdict_agreement(&batch, &other);
            assert_eq!(flipped, reference_agreement(&batch, &other));
            // Out of order, the walk can only miss agreement.
            other.reverse();
            assert!(verdict_agreement(&other, &batch).0 <= walked.0);
        });
    }

    #[test]
    fn verdicts_are_small_copy_values() {
        assert_eq!(std::mem::size_of::<PeerVerdict>(), 64);
    }

    #[test]
    fn out_of_span_events_are_dropped_as_batch_drops_them() {
        let window_len = MINUTE;
        let engine = trained_engine(window_len);
        let span = TraceSpan {
            start: MINUTE,
            end: 3 * MINUTE,
        };
        let trace: Vec<TraceEvent> = [5, MINUTE + 5, 9 * MINUTE, u64::MAX]
            .into_iter()
            .map(|time| TraceEvent {
                time,
                peer: 7,
                kind: TraceEventKind::Message(12),
            })
            .collect();
        let batch = batch_verdicts(
            &engine.profile,
            &AnalysisEngine,
            &trace,
            span,
            window_len,
        );
        assert_eq!(batch.len(), 2);
        for shards in [1, 3] {
            let out = run_service(&engine, &trace, span, shards);
            assert_eq!(out.events, 4, "dropped events are still counted");
            assert_eq!(out.verdicts.len(), batch.len(), "shards={shards}");
            for (s, b) in out.verdicts.iter().zip(&batch) {
                assert_eq!(s.peer, b.peer);
                assert_eq!(s.verdict.window_index, b.verdict.window_index);
                assert_eq!(s.verdict.detection.n, b.verdict.detection.n);
                assert_eq!(s.verdict.detection.c, b.verdict.detection.c);
                assert_eq!(
                    s.verdict.detection.violations,
                    b.verdict.detection.violations
                );
            }
        }
        // A peer seen only outside the span is no peer of the run.
        let stray = [TraceEvent {
            time: 4 * MINUTE,
            peer: 9,
            kind: TraceEventKind::Reconnect,
        }];
        assert_eq!(run_service(&engine, &stray, span, 1).peers, 0);
    }

    #[test]
    fn chunk_boundaries_do_not_change_the_output() {
        use btc_netsim::prop::{check, Gen};
        const SIZES: [usize; 8] = [
            0,
            1,
            CHUNK - 1,
            CHUNK,
            CHUNK + 1,
            2 * CHUNK,
            3 * CHUNK,
            3 * CHUNK + 1,
        ];
        let engine = trained_engine(MINUTE);
        check("chunked hand-off ≡ serial", |g: &mut Gen| {
            let span = TraceSpan {
                start: 0,
                end: g.u64_in(1, 4) * MINUTE,
            };
            let events = match g.usize_in(0, 3) {
                0 => g.usize_in(0, 3 * CHUNK + 2),
                _ => *g.choose(&SIZES),
            };
            // A stride of 30 keeps every peer in one lane at 2, 3 and 5
            // shards, so that lane sees exactly `events` events: full
            // chunks with an empty tail when it is a multiple of CHUNK.
            let stride = *g.choose(&[1, 2, 30]);
            let base = g.u64_in(0, 30);
            let peers = g.u64_in(1, 12);
            let mut trace: Vec<TraceEvent> = (0..events)
                .map(|_| TraceEvent {
                    time: g.u64_in(span.start, span.end),
                    peer: base + stride * g.u64_in(0, peers),
                    kind: if g.usize_in(0, 9) == 0 {
                        TraceEventKind::Reconnect
                    } else {
                        TraceEventKind::Message(g.usize_in(0, 26) as u8)
                    },
                })
                .collect();
            trace.sort_by_key(|e| e.time);
            let serial = run_service(&engine, &trace, span, 1);
            assert_eq!(serial.verdicts, reference_verdicts(&engine, &trace, span));
            for shards in [2, 3, 5] {
                let sharded = run_service(&engine, &trace, span, shards);
                assert_eq!(sharded.digest, serial.digest, "shards={shards}");
                assert_eq!(sharded.verdicts, serial.verdicts, "shards={shards}");
            }
        });
    }

    #[test]
    fn peer_index_survives_adversarial_keys_and_growth() {
        // Keys that all start probing at slot 0 of a fresh table, the two
        // extreme keys, and enough distinct peers to double the table
        // three times mid-trace.
        let mut keys: Vec<PeerKey> = (1..)
            .filter(|k| PeerIndex::home(*k, PeerIndex::INITIAL_SLOTS) == 0)
            .take(24)
            .collect();
        keys.extend([0, u64::MAX]);
        keys.extend((0..2 * PeerIndex::INITIAL_SLOTS as u64 + 500).map(|i| 1_000_000 + 3 * i));
        assert_eq!(PeerIndex::home(0, PeerIndex::INITIAL_SLOTS), 0);

        let mut index = PeerIndex::new();
        for (id, key) in keys.iter().enumerate() {
            assert_eq!(index.intern(*key), id, "first sight of {key}");
        }
        assert!(index.slots.len() >= 2 * keys.len());
        for (id, key) in keys.iter().enumerate() {
            assert_eq!(index.intern(*key), id, "second sight of {key}");
        }
        assert_eq!(index.keys, keys);

        // The same keys through the service: two passes over every peer in
        // each of three windows, so profiles are looked up again after
        // every growth step.
        let window_len = MINUTE;
        let engine = trained_engine(window_len);
        let span = TraceSpan {
            start: 0,
            end: 3 * window_len,
        };
        let step = span.end / (6 * keys.len() as u64);
        let trace: Vec<TraceEvent> = (0..6 * keys.len())
            .map(|i| TraceEvent {
                time: i as u64 * step,
                peer: keys[i % keys.len()],
                kind: if i % 7 == 0 {
                    TraceEventKind::Reconnect
                } else {
                    TraceEventKind::Message((i % 26) as u8)
                },
            })
            .collect();
        let reference = reference_verdicts(&engine, &trace, span);
        assert_eq!(reference.len(), 3 * keys.len());
        for shards in [1, 2] {
            let out = run_service(&engine, &trace, span, shards);
            assert_eq!(out.peers, keys.len() as u64);
            assert_eq!(out.verdicts, reference, "shards={shards}");
        }
    }
}
